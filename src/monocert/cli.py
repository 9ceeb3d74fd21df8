"""Command-line front end: evaluate, verify, tabulate, batch-report.

Exit codes are part of the interface and stable: 0 pass, 1 fail,
2 usage or domain error or an --out destination that cannot be
written, 3 inconclusive.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .enclosure import DomainError, Enclosure
from . import certify
from .targets import (
    GuardZoneError,
    SEQUENCE_MODES,
    ball_root_slope_chain,
    ball_volume_root,
    fg_ratio_core,
    gamma_log_ratio,
    volume_sequence_value,
)

__all__ = ["main"]

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3

_STATUS_EXIT = {
    certify.PASS: EXIT_PASS,
    certify.FAIL: EXIT_FAIL,
    certify.INCONCLUSIVE: EXIT_INCONCLUSIVE,
}

# target token -> (evaluator, argument kind)
_EVAL_TARGETS = {
    "F": (gamma_log_ratio, "real"),
    "G": (ball_volume_root, "real"),
    "omega": (lambda n: volume_sequence_value(n, "unit"), "dimension"),
    "omega_term": (lambda n: volume_sequence_value(n, "paper"), "dimension"),
    "q": (fg_ratio_core, "real"),
    "h": (lambda x: ball_root_slope_chain("h", x), "real"),
    "h1": (lambda x: ball_root_slope_chain("h1", x), "real"),
    "h2": (lambda x: ball_root_slope_chain("h2", x), "real"),
}

# every row is held before output, so a table is capped like a grid
_MAX_SEQUENCE_ROWS = 10 ** 6


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _fail_usage(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _cmd_eval(args) -> int:
    fn, kind = _EVAL_TARGETS[args.target]
    if kind == "dimension":
        try:
            arg = int(args.x)
        except ValueError:
            return _fail_usage(
                f"target {args.target!r} needs an integer dimension, got {args.x!r}"
            )
    else:
        try:
            arg = float(args.x)
        except ValueError:
            return _fail_usage(f"could not parse {args.x!r} as a number")
    try:
        enc = fn(arg)
    except GuardZoneError as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except OverflowError as exc:
        return _fail_usage(
            f"value exceeds binary64 range ({exc}); no finite enclosure exists"
        )
    if args.format == "json":
        _emit(certify._canonical_json({
            "target": args.target,
            "argument": arg,
            "lo": enc.lo,
            "hi": enc.hi,
            "mid": enc.mid,
        }), args.out)
    else:
        _emit(
            f"{args.target}({arg}) enclosure\n"
            f"  lo  {enc.lo!r}\n"
            f"  hi  {enc.hi!r}\n"
            f"  mid {enc.mid!r}\n",
            args.out,
        )
    return EXIT_PASS


_GRID_FLAGS = ("grid_from", "grid_to", "grid_step")
# the verify flags each suite takes; giving it any other is a usage error
_SUITE_FLAGS = {"lemma2": (), "theorem1": _GRID_FLAGS,
                "theorem2": ("n_max", *_GRID_FLAGS), "remark1": ("n_max",)}


def _run_suite(name: str, args):
    """certify.verify_<name>, looked up at call time, given those of its
    flags that args sets; a flag left unset takes the suite's default."""
    flags = {flag: getattr(args, flag, None) for flag in _SUITE_FLAGS[name]}
    return getattr(certify, f"verify_{name}")(
        **{flag: value for flag, value in flags.items() if value is not None})


def _cmd_verify(args) -> int:
    for flag in ("n_max", *_GRID_FLAGS):
        if getattr(args, flag) is not None and flag not in _SUITE_FLAGS[args.theorem]:
            return _fail_usage(f"verify {args.theorem} takes no --{flag.replace('_', '-')}")
    report = _run_suite(args.theorem, args)
    if args.format == "json":
        _emit(certify.report_to_json_text(report), args.out)
    else:
        _emit(certify.report_to_text(report), args.out)
    return _STATUS_EXIT[report.overall]


def _difference_sign(prev: Enclosure, cur: Enclosure) -> str:
    if certify._pair_separated(prev, cur, "decreasing"):
        return "-"
    return "+" if certify._pair_separated(prev, cur, "increasing") else "?"


def _cmd_sequence(args) -> int:
    mode = args.exponent
    if args.n_from >= args.n_to:
        return _fail_usage(f"need n_from < n_to, got {args.n_from} .. {args.n_to}")
    if args.n_to - args.n_from + 1 > _MAX_SEQUENCE_ROWS:
        return _fail_usage(
            f"{args.n_from} .. {args.n_to} has more than {_MAX_SEQUENCE_ROWS} rows"
        )
    # an n outside the mode's domain raises DomainError at the first
    # row, before anything is written
    rows = []
    prev = None
    for n in range(args.n_from, args.n_to + 1):
        enc = volume_sequence_value(n, mode)
        sign = None if prev is None else _difference_sign(prev, enc)
        rows.append((n, enc, sign))
        prev = enc
    if args.format == "json":
        _emit(certify._canonical_json({
            "exponent": mode,
            "n_from": args.n_from,
            "n_to": args.n_to,
            "rows": [
                {"n": n, "lo": enc.lo, "hi": enc.hi, "diff": sign}
                for n, enc, sign in rows
            ],
        }), args.out)
    else:
        lines = [f"{'n':>6}  {'lo':>24}  {'hi':>24}  diff"]
        for n, enc, sign in rows:
            mark = sign if sign is not None else "·"
            lines.append(
                f"{n:>6}  {enc.lo!r:>24}  {enc.hi!r:>24}  {mark}"
            )
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_PASS


def _cmd_report_all(args) -> int:
    # remark1's minimum of 10 is the largest, so no suite can refuse
    # n_max after another has run
    if args.n_max is not None:
        certify._check_n_max(args.n_max, 10, "report-all")
    out_dir = Path(args.out if args.out is not None else "reports")
    # probe the destination before any suite runs
    out_dir.mkdir(parents=True, exist_ok=True)
    probe = out_dir / ".writable"
    probe.write_text("")
    probe.unlink()
    reports = {name: _run_suite(name, args) for name in _SUITE_FLAGS}
    for name, report in reports.items():
        (out_dir / f"{name}.json").write_text(certify.report_to_json_text(report))
    overall = certify.meet_status(r.overall for r in reports.values())
    summary = {
        "overall": overall,
        "exit_code": _STATUS_EXIT[overall],
        "theorems": {name: r.overall for name, r in reports.items()},
    }
    (out_dir / "summary.json").write_text(certify._canonical_json(summary))
    for name, report in reports.items():
        print(f"{name}: {report.overall} -> {out_dir / name}.json")
    print(f"summary: {summary['overall']} -> {out_dir / 'summary.json'}")
    return _STATUS_EXIT[overall]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="monocert",
        description=(
            "Certified monotonicity toolkit: rigorous enclosures, exact "
            "polynomial positivity certificates, and desk-scale grid "
            "certificates for a gamma-quotient function family."
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p):
        p.add_argument("--format", choices=("text", "json"), default="text",
                       help="output format (default text)")
        p.add_argument("--out", default=None, metavar="PATH",
                       help="write output to PATH instead of stdout")

    p_eval = sub.add_parser("eval", help="evaluate one target, print its enclosure")
    p_eval.add_argument("target", choices=sorted(_EVAL_TARGETS))
    p_eval.add_argument("x", help="real argument (integer dimension for omega targets)")
    add_common(p_eval)
    p_eval.set_defaults(func=_cmd_eval)

    p_verify = sub.add_parser("verify", help="replay one verification suite")
    p_verify.add_argument("theorem", choices=tuple(_SUITE_FLAGS))
    p_verify.add_argument("--n-max", type=int, default=None,
                          help="sequence upper bound, theorem2 and remark1 (default 200)")
    p_verify.add_argument("--grid-from", type=float, default=None,
                          help="grid start, theorem1 and theorem2 (default per theorem)")
    p_verify.add_argument("--grid-to", type=float, default=None,
                          help="grid end (default 50)")
    p_verify.add_argument("--grid-step", type=float, default=None,
                          help="grid step (default 0.01)")
    add_common(p_verify)
    p_verify.set_defaults(func=_cmd_verify)

    p_seq = sub.add_parser("sequence", help="tabulate the dimension sequence")
    p_seq.add_argument("n_from", type=int)
    p_seq.add_argument("n_to", type=int)
    p_seq.add_argument("exponent", choices=SEQUENCE_MODES)
    add_common(p_seq)
    p_seq.set_defaults(func=_cmd_sequence)

    p_all = sub.add_parser("report-all",
                           help="run every verification, write JSON bundle")
    p_all.add_argument("--n-max", type=int, default=None,
                       help="sequence upper bound (default 200)")
    p_all.add_argument("--out", default=None, metavar="DIR",
                       help="destination directory (default ./reports)")
    p_all.set_defaults(func=_cmd_report_all)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DomainError as exc:
        return _fail_usage(str(exc))
    except OSError as exc:
        return _fail_usage(f"destination not writable: {exc}")


if __name__ == "__main__":
    sys.exit(main())
