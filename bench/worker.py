"""The benchmark's program process: makes monocert's calls and times them.

Run by bench/run.py as

    python bench/worker.py WORKLOAD --seed N (--seconds S | --count N)
                           --out RECORDS [--trace SPANS]

from the root of a checkout, with the checkout's src/ on PYTHONPATH.
It imports no oracle, so its peak RSS is the program's.  One operation
at a time, closed loop, no threads.  Per operation it appends one
fixed-size record to RECORDS (see RECORD); at the end it writes
RECORDS.json with the operation count and the loop's wall time, and,
with --trace, the spans to SPANS.  A replay operation writes its
reports to RECORDS.reports<i>, where run.py checks them.
"""

from __future__ import annotations

import argparse
import itertools
import json
import struct
import sys
import time
from pathlib import Path

import workloads

# Per-operation record: duration in ns, then
#   tail:   enclosure lo, hi (NaN, NaN when the call raised)
#   exact:  index into workloads.STAGES, -1 when the call raised
#   replay: exit code of `monocert report-all`
RECORD = {"tail": struct.Struct("<qdd"), "exact": struct.Struct("<qq"),
          "replay": struct.Struct("<qq")}

def _import_program():
    """Import monocert and insist it is the checkout's own src/ copy."""
    import monocert
    src = (Path.cwd() / "src").resolve()
    if src not in Path(monocert.__file__).resolve().parents:
        raise SystemExit(f"monocert imported from {monocert.__file__}, not from {src}")


def _tail_ops(seed):
    from monocert import targets

    def call(kind, arg):
        if kind == 0:
            return targets.log_omega_sequence_term(arg)
        if kind == 1:
            return targets.log_volume_sequence_value(arg, "inv_nlnn")
        return targets.log_ball_volume_root(arg)

    nan = float("nan")
    for kind, arg in workloads.tail_inputs(seed):
        def op(kind=kind, arg=arg):
            try:
                enc = call(kind, arg)
            except (ArithmeticError, ValueError):
                return nan, nan
            return enc.lo, enc.hi
        yield op


def _exact_ops(seed):
    from monocert import exactpoly
    from monocert.exactpoly import RationalPolynomial

    for coeffs, _ in workloads.exact_inputs(seed):
        p = RationalPolynomial(coeffs)

        def op(p=p):
            try:
                cert = exactpoly.certify_positive_on_ray(p, 1)
            except (ArithmeticError, ValueError):
                return (-1,)
            return (workloads.STAGES.index(workloads.stage_of(cert)),)
        yield op


def _replay_ops(out: Path):
    from monocert import cli

    for i in itertools.count():
        def op(target=f"{out}.reports{i}"):
            return (cli.main(["report-all", "--out", target]),)
        yield op


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("workload", choices=sorted(RECORD))
    ap.add_argument("--seed", type=int, required=True)
    limit = ap.add_mutually_exclusive_group(required=True)
    limit.add_argument("--seconds", type=float)
    limit.add_argument("--count", type=int)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--trace", type=Path)
    args = ap.parse_args(argv)

    _import_program()
    tracer = None
    if args.trace is not None:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()

    if args.workload == "tail":
        ops = _tail_ops(args.seed)
    elif args.workload == "exact":
        ops = _exact_ops(args.seed)
    else:
        ops = _replay_ops(args.out)
    record = RECORD[args.workload]
    clock = time.perf_counter_ns
    done = 0
    with open(args.out, "wb") as fh:
        started = clock()
        deadline = None if args.seconds is None else started + int(args.seconds * 1e9)
        for op in ops:
            t0 = clock()
            result = op()
            t1 = clock()
            fh.write(record.pack(t1 - t0, *result))
            done += 1
            if done == args.count or (deadline is not None and t1 >= deadline):
                break
        elapsed_ns = clock() - started
    Path(f"{args.out}.json").write_text(json.dumps({"ops": done, "elapsed_s": elapsed_ns / 1e9}))
    if tracer is not None:
        tracer.dump(args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
