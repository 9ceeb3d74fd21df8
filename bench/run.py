"""monocert benchmark: cold replay, far-tail evaluation, exact certification.

Run from the root of a checkout:

    python3 bench/run.py --workload {replay,tail,exact} --seed N \
        --seconds S --trace {0,1}

The program runs from the checkout's src/ in child processes that see
only the seeded inputs.  This process keeps the oracles (report hashes,
mpmath, truth by construction) to itself, and prints one line per
metric followed by a final JSON line
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
JSON metrics are the end-to-end ones, with --trace 1 the per-layer
ones from a traced run.  bench/README.md explains the choices.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from spans import layer_metrics
from worker import RECORD

BENCH = Path(__file__).resolve().parent
WORKLOADS = ("replay", "tail", "exact")
REPORT_FILES = ("lemma2.json", "theorem1.json", "theorem2.json", "remark1.json", "summary.json")
REPLAY_SHA256 = json.loads((BENCH / "replay_sha256.json").read_text())

SETUP_REPEATS = 16
SETUP_STATEMENT = "import monocert, monocert.cli"
# Operations in one traced run of a seeded workload: fixed, so that the
# counts of two traced runs of one seed repeat exactly.
TRACE_COUNT = {"tail": 20_000, "exact": 1_000}
# mpmath working precision of the tail reference, in decimal digits.
TAIL_DPS = 50
# Tightness gate: (hi - lo) / max(1, |mid|) above this fails the
# operation.  The widest at the benchmark's commit is about 4e-13.
TAIL_WIDTH_LIMIT = 1e-11
# A percentile is reported only with at least this many samples beyond it.
TAIL_SAMPLES_BEYOND = 10
# A child still running this long past its own measuring time is killed,
# which keeps a whole run under three minutes.
PROCESS_TIMEOUT_S = 60


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


class Checkout:
    """Paths and environment for running the program from a checkout."""

    def __init__(self, root: Path):
        self.root = root
        src = root / "src"
        if not (src / "monocert" / "__init__.py").is_file():
            raise BenchError(f"no monocert sources under {src}")
        self.work = root / ".bench_work"
        self.work.mkdir(exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=str(src))

    def spawn(self, argv: list, timeout: float = PROCESS_TIMEOUT_S) -> tuple:
        """Run one child to completion: (wall seconds, exit code, peak RSS
        in MB).  The child is reaped with a blocking wait4, so the wall
        time carries no polling delay; SIGALRM kills it after timeout."""
        timed_out = []

        def on_alarm(signum, frame):
            timed_out.append(True)
            proc.kill()

        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=self.root, env=self.env, stdout=subprocess.DEVNULL)
        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, timeout)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        if timed_out:
            raise BenchError(f"timed out after {timeout} s: {argv}")
        # Linux reports ru_maxrss in KiB.
        return wall, proc.returncode, usage.ru_maxrss / 1024


def machine_record() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "loadavg": [round(v, 2) for v in os.getloadavg()],
    }


def measure_setup(co: Checkout, repeats: int) -> list:
    """Wall times of fresh interpreters importing the package and its CLI."""
    argv = [sys.executable, "-c", SETUP_STATEMENT]
    times = []
    for _ in range(repeats):
        wall, code, _ = co.spawn(argv)
        if code != 0:
            raise BenchError(f"{SETUP_STATEMENT!r} exited {code}")
        times.append(wall)
    return times


# --- oracles ---------------------------------------------------------

def replay_ok(report_dir: Path, code: int) -> bool:
    """Exit code 0 and every canonical report byte-identical."""
    if code != 0:
        return False
    for name in REPORT_FILES:
        path = report_dir / name
        if not path.is_file() or hashlib.sha256(path.read_bytes()).hexdigest() != REPLAY_SHA256[name]:
            return False
    return True


class TailOracle:
    """mpmath reference values of the tail evaluators, memoised by input."""

    def __init__(self):
        import mpmath
        self.ctx = mpmath.mp.clone()
        self.ctx.dps = TAIL_DPS
        self.ln_pi = self.ctx.log(self.ctx.pi)
        self._memo = {}

    def reference(self, kind: int, arg):
        key = (kind, arg)
        if key not in self._memo:
            ctx = self.ctx
            if kind == 1:
                n = ctx.mpf(arg)
                half = n / 2
                value = (half * self.ln_pi - ctx.loggamma(half + 1)) / (n * ctx.log(n))
            else:
                x = ctx.mpf(arg) / 2 if kind == 0 else ctx.mpf(arg)
                value = (x * self.ln_pi - ctx.loggamma(x + 1)) / ctx.log((x * x + 1) / (x + 1))
            self._memo[key] = value
        return self._memo[key]

    def check(self, kind: int, arg, lo: float, hi: float) -> tuple:
        """(passed, relative width) of one returned enclosure."""
        if not (math.isfinite(lo) and math.isfinite(hi)) or lo > hi:
            return False, math.inf
        width = (hi - lo) / max(1.0, abs(0.5 * (lo + hi)))
        ref = self.reference(kind, arg)
        inside = self.ctx.mpf(lo) <= ref <= self.ctx.mpf(hi)
        return inside and width <= TAIL_WIDTH_LIMIT, width


def check_tail(seed: int, records: list) -> dict:
    oracle = TailOracle()
    failed, widest = 0, 0.0
    for (kind, arg), (_, lo, hi) in zip(workloads.tail_inputs(seed), records):
        ok, width = oracle.check(kind, arg, lo, hi)
        failed += not ok
        widest = max(widest, width)
    return {"failed": failed, "width_rel_max": widest}


def check_exact(seed: int, records: list) -> dict:
    stages = dict.fromkeys(workloads.STAGES, 0)
    failed = 0
    not_certified = workloads.STAGES.index("not_certified")
    for (_, positive), (_, stage) in zip(workloads.exact_inputs(seed), records):
        if stage < 0 or (stage != not_certified) != positive:
            failed += 1
        else:
            stages[workloads.STAGES[stage]] += 1
    return {"failed": failed, "stages": stages}


# --- program runs ----------------------------------------------------

def run_worker(co: Checkout, workload: str, seed: int, *, seconds=None, count=None,
               trace: Path | None = None) -> tuple:
    """One worker process: (records, {"ops", "elapsed_s", "rss_mb"})."""
    out = co.work / f"{workload}-{seed}{'-traced' if trace else ''}.bin"
    argv = [sys.executable, str(BENCH / "worker.py"), workload, "--seed", str(seed), "--out", str(out)]
    argv += ["--seconds", str(seconds)] if count is None else ["--count", str(count)]
    if trace is not None:
        argv += ["--trace", str(trace)]
    _, code, rss_mb = co.spawn(argv, timeout=(seconds or 0) + PROCESS_TIMEOUT_S)
    if code != 0:
        raise BenchError(f"worker for {workload} exited {code}")
    record = RECORD[workload]
    data = out.read_bytes()
    meta = json.loads(Path(f"{out}.json").read_text())
    meta["rss_mb"] = rss_mb
    out.unlink()
    Path(f"{out}.json").unlink()
    return list(record.iter_unpack(data)), meta


def report_all_argv(target: Path) -> list:
    """The user's command `monocert report-all --out target`, default arguments."""
    return [sys.executable, "-m", "monocert.cli", "report-all", "--out", str(target)]


def run_replay_cli(co: Checkout, index: int) -> tuple:
    """One cold `monocert report-all`: (wall seconds, passed oracle, peak RSS MB)."""
    target = co.work / f"replay-{index}"
    wall, code, rss_mb = co.spawn(report_all_argv(target))
    ok = replay_ok(target, code)
    shutil.rmtree(target, ignore_errors=True)
    return wall, ok, rss_mb


def run_replay_traced(co: Checkout, index: int) -> tuple:
    """One cold report-all under the tracer: (wall seconds, passed oracle, trace)."""
    trace_path = co.work / f"trace-replay-{index}.json"
    t0 = time.perf_counter()
    records, _ = run_worker(co, "replay", index, count=1, trace=trace_path)
    wall = time.perf_counter() - t0
    reports = co.work / f"replay-{index}-traced.bin.reports0"
    ok = replay_ok(reports, records[0][1])
    shutil.rmtree(reports, ignore_errors=True)
    return wall, ok, json.loads(trace_path.read_text())


# --- metrics ---------------------------------------------------------

def percentile(values: list, pct: int):
    """The pct-th percentile, or None when fewer than TAIL_SAMPLES_BEYOND
    samples lie beyond it."""
    if len(values) * (100 - pct) / 100 < TAIL_SAMPLES_BEYOND:
        return None
    return statistics.quantiles(values, n=100)[pct - 1]


def measure(co: Checkout, workload: str, seed: int, seconds: float) -> tuple:
    """Untraced run: (attempted, failed, end-to-end metrics, report lines)."""
    lines = []
    if workload == "replay":
        walls, failed, rss = [], 0, 0.0
        t0 = time.perf_counter()
        while not walls or time.perf_counter() - t0 < seconds:
            wall, ok, rss_mb = run_replay_cli(co, len(walls))
            walls.append(wall)
            failed += not ok
            rss = max(rss, rss_mb)
        elapsed = time.perf_counter() - t0
        ops = len(walls)
        lines.append(("replay_s", statistics.median(walls), "s",
                      f"median of {ops} cold runs; no p90: it needs "
                      f"{10 * TAIL_SAMPLES_BEYOND} runs for {TAIL_SAMPLES_BEYOND} beyond it"))
    else:
        records, meta = run_worker(co, workload, seed, seconds=seconds)
        ops, elapsed, rss = meta["ops"], meta["elapsed_s"], meta["rss_mb"]
        if workload == "tail":
            verdict = check_tail(seed, records)
            us = [r[0] / 1e3 for r in records]
            lines += [
                ("tail_evals_per_s", ops / elapsed, "1/s", f"{ops} evaluations"),
                ("tail_eval_p50_us", statistics.median(us), "us", f"n={ops}"),
                ("tail_eval_p99_us", percentile(us, 99), "us", f"n={ops}"),
                ("tail_width_rel_max", verdict["width_rel_max"], "ratio",
                 f"(hi-lo)/max(1,|mid|); gate {TAIL_WIDTH_LIMIT}"),
            ]
        else:
            verdict = check_exact(seed, records)
            ms = [r[0] / 1e6 for r in records]
            lines += [
                ("exact_certs_per_s", ops / elapsed, "1/s", f"{ops} certifications"),
                ("exact_cert_p50_ms", statistics.median(ms), "ms", f"n={ops}"),
                ("exact_cert_p99_ms", percentile(ms, 99), "ms", f"n={ops}"),
            ]
            lines += [(f"exact_stage_share.{stage}", count / ops, "ratio", f"{count} of {ops}")
                      for stage, count in verdict["stages"].items()]
        failed = verdict["failed"]
    metrics = {
        "ops_per_s": (ops / elapsed, "1/s"),
        "peak_rss_mb": (rss, "MB"),
    }
    lines = [("peak_rss_mb", rss, "MB", "peak RSS of the process making the calls"),
             ("fail_ratio", failed / ops, "ratio", f"{failed} of {ops}")] + lines
    return ops, failed, metrics, lines


def _unit(name: str) -> str:
    for suffix, unit in (("_us", "us"), ("_ms", "ms"), ("_s", "s"), ("_ratio", "ratio"), ("_share", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def measure_traced(co: Checkout, workload: str, seed: int, seconds: float) -> tuple:
    """Traced run: (attempted, failed, per-layer metrics, report lines)."""
    if workload == "replay":
        traced, plain, layer_runs, failed = [], [], [], 0
        t0 = time.perf_counter()
        while not traced or time.perf_counter() - t0 < seconds:
            wall, ok, trace = run_replay_traced(co, len(traced))
            traced.append(wall)
            layer_runs.append(layer_metrics(trace))
            wall, ok2, _ = run_replay_cli(co, len(plain))
            plain.append(wall)
            failed += (not ok) + (not ok2)
        attempted, ops = 2 * len(traced), 1
        overhead_ms = (statistics.median(traced) - statistics.median(plain)) * 1e3
    else:
        count = TRACE_COUNT[workload]
        check = check_tail if workload == "tail" else check_exact
        trace_path = co.work / f"trace-{workload}-{seed}.json"
        plain, plain_meta = run_worker(co, workload, seed, count=count)
        traced, traced_meta = run_worker(co, workload, seed, count=count, trace=trace_path)
        layer_runs = [layer_metrics(json.loads(trace_path.read_text()))]
        failed = check(seed, plain)["failed"] + check(seed, traced)["failed"]
        attempted, ops = 2 * count, count
        overhead_ms = (traced_meta["elapsed_s"] - plain_meta["elapsed_s"]) / count * 1e3
    layer = {}
    repeat_ok = True
    for name in layer_runs[0]:
        values = [run[name] for run in layer_runs]
        if _unit(name) == "count":
            repeat_ok &= len(set(values)) == 1
        layer[name] = statistics.median(values)
    layer["trace.overhead_ms"] = overhead_ms
    metrics = {name: (value, _unit(name)) for name, value in layer.items()}
    lines = [("trace.ops", ops, "count", "operations per traced run"),
             ("trace.counts_repeat", float(repeat_ok), "bool",
              f"identical counts across {len(layer_runs)} traced runs")]
    lines += [(name, value, unit, "") for name, (value, unit) in metrics.items()]
    return attempted, failed + (not repeat_ok), metrics, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    try:
        co = Checkout(Path.cwd())
        print("machine", json.dumps(machine_record()))
        print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
        if args.trace:
            attempted, failed, metrics, lines = measure_traced(co, args.workload, args.seed, args.seconds)
        else:
            # One untimed import writes the bytecode cache; the timed ones
            # are split around the measured loop to span its machine state.
            measure_setup(co, 1)
            setup = measure_setup(co, SETUP_REPEATS // 2)
            attempted, failed, metrics, lines = measure(co, args.workload, args.seed, args.seconds)
            setup += measure_setup(co, SETUP_REPEATS - len(setup))
            setup_s = statistics.median(setup)
            metrics["setup_s"] = (setup_s, "s")
            lines.insert(0, ("setup_s", setup_s, "s", f"median of {SETUP_REPEATS} fresh imports"))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    for name, value, unit, note in lines:
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<36} {shown:>14} {unit:<6} {note}".rstrip())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
