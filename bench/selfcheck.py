"""Self-checks of the benchmark itself.  Run from the repository root:

    python3 bench/selfcheck.py

1. Every workload runs at a small size, passes its oracle, and prints
   exactly the metrics BENCHMARK.json lists, with their units.
2. The oracles catch a corrupted output: a flipped report byte, a
   widened enclosure, an enclosure moved off its reference, and a wrong
   verdict.
3. Two traced runs of one workload and seed give identical counts.

Exits 1 on the first failed check.  Takes about two minutes.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import run
import workloads

ROOT = Path.cwd()
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def check(condition: bool, what: str) -> None:
    if not condition:
        print(f"FAIL {what}")
        sys.exit(1)
    print(f"ok   {what}")


def bench(workload: str, seconds: float, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(run.BENCH / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    return json.loads(out.stdout.splitlines()[-1])


def small_runs() -> None:
    e2e = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    for workload in (w["name"] for w in SPEC["workloads"]):
        result = bench(workload, 1, 0)
        check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
              f"{workload}: small run passes its oracle")
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        check(got == e2e, f"{workload}: prints exactly the end-to-end metrics with their units")


def oracles_catch_corruption(co: run.Checkout) -> None:
    target = co.work / "selfcheck-replay"
    _, code, _ = co.spawn(run.report_all_argv(target))
    check(run.replay_ok(target, code), "replay: an untouched report passes")
    check(not run.replay_ok(target, 1), "replay: a nonzero exit code fails")
    path = target / "theorem1.json"
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x01
    path.write_bytes(bytes(data))
    check(not run.replay_ok(target, code), "replay: one flipped report byte fails")
    for leftover in target.iterdir():
        leftover.unlink()
    target.rmdir()

    records, _ = run.run_worker(co, "tail", 1, count=300)
    check(run.check_tail(1, records)["failed"] == 0, "tail: 300 untouched enclosures pass")
    oracle = run.TailOracle()
    (kind, arg), (_, lo, hi) = next(workloads.tail_inputs(1)), records[0]
    scale = max(1.0, abs(lo))
    check(oracle.check(kind, arg, lo, hi)[0], "tail: the first enclosure passes on its own")
    check(not oracle.check(kind, arg, lo - 1e-9 * scale, hi)[0], "tail: a widened enclosure fails")
    shift = (hi - lo) + 1e-12 * scale
    check(not oracle.check(kind, arg, lo + shift, hi + shift)[0],
          "tail: an enclosure moved off its reference fails")

    records, _ = run.run_worker(co, "exact", 1, count=200)
    check(run.check_exact(1, records)["failed"] == 0, "exact: 200 untouched verdicts pass")
    not_certified = workloads.STAGES.index("not_certified")
    shifted = workloads.STAGES.index("shifted")
    for i, (_, positive) in zip(range(2), workloads.exact_inputs(1)):
        wrong = list(records)
        wrong[i] = (records[i][0], not_certified if positive else shifted)
        check(run.check_exact(1, wrong)["failed"] == 1,
              f"exact: a wrong verdict on a {'positive' if positive else 'non-positive'} polynomial fails")


def traced_counts_repeat() -> None:
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]
    names = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for workload in (w["name"] for w in SPEC["workloads"]):
        first, second = (bench(workload, 1, 1) for _ in range(2))
        got = {name: m["unit"] for name, m in first["metrics"].items()}
        check(got == names, f"{workload}: traced run prints exactly the per-layer metrics with their units")
        check(first["correct"] and second["correct"], f"{workload}: traced runs pass their oracle")
        same = all(first["metrics"][n]["value"] == second["metrics"][n]["value"] for n in counts)
        check(same, f"{workload}: {len(counts)} counts repeat exactly across two traced runs")


def main() -> int:
    co = run.Checkout(ROOT)
    small_runs()
    oracles_catch_corruption(co)
    traced_counts_repeat()
    return 0


if __name__ == "__main__":
    sys.exit(main())
