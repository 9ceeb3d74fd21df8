"""Proof replay: certificates, anchor checks, chains, grids, reports.

A verification run produces a VerificationReport: an ordered list of
ProofSteps, each pass/fail/inconclusive, with the overall verdict the
meet of the step statuses (fail < inconclusive < pass).  Inconclusive
means an enclosure was too wide to decide, never that a claim is false.

Grid certificates are desk-scale: they certify strict enclosure
separation at every consecutive grid pair, which is evidence on the
grid, not a proof on the continuum.  The exact-arithmetic steps
(polynomial certificates, endpoint identities, the shift identity) are
proofs outright.

Reports are deterministic byte for byte: fixed sampling seeds, no
timestamps, canonical JSON.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import pairwise
from typing import Optional

from .enclosure import DomainError, Enclosure
from .exactpoly import certify_positive_on_ray
from . import targets
from .targets import (
    LEMMA_POLYS,
    LEMMA_VALUE_AT_ONE,
    LOG_PI_POLYS,
    RATE_NUMERATOR,
    fg_ratio,
    fg_ratio_core,
    fg_ratio_core_rate,
    fg_ratio_core_rate_lower_bound,
    ball_root_slope_chain,
    gamma_log_ratio,
    log_ball_volume_root,
    log_omega_sequence_term,
    log_volume_sequence_value,
    volume_sequence_value,
)

__all__ = [
    "PASS",
    "FAIL",
    "INCONCLUSIVE",
    "ANCHORS",
    "ANCHOR_TOLERANCE",
    "meet_status",
    "ProofStep",
    "VerificationReport",
    "GridCertificate",
    "grid_monotone_certificate",
    "verify_lemma2",
    "verify_theorem1",
    "verify_theorem2",
    "verify_remark1",
    "explore_remark2",
    "report_to_json_obj",
    "report_to_json_text",
    "report_to_text",
]

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"

_RANK = {FAIL: 0, INCONCLUSIVE: 1, PASS: 2}


def meet_status(statuses) -> str:
    worst = PASS
    for s in statuses:
        if _RANK[s] < _RANK[worst]:
            worst = s
    return worst


# Decimal anchor values the verification must reproduce, each to
# ANCHOR_TOLERANCE absolute and strictly on its side of zero.
ANCHORS = {
    "q_at_1": 3.468,
    "h_at_1": -1.1447,
    "h1_at_1": 8.04,
    "h2_at_1": -134.10,
    "h2p_at_1": -469.89,
    "h2pp_at_1": -1696.22,
    "p6_at_0": -113.68,
    "p6_at_1": 5087.39,
}
ANCHOR_TOLERANCE = 0.01


@dataclass(frozen=True)
class ProofStep:
    id: str
    description: str
    status: str
    computed: Optional[Enclosure] = None
    expected: Optional[str] = None
    tolerance: float = 0.0


@dataclass(frozen=True)
class VerificationReport:
    theorem: str
    steps: tuple
    overall: str

    @classmethod
    def from_steps(cls, theorem: str, steps) -> "VerificationReport":
        steps = tuple(steps)
        return cls(theorem=theorem, steps=steps, overall=meet_status(s.status for s in steps))


@dataclass(frozen=True)
class GridCertificate:
    function_id: str
    direction: str
    grid: tuple
    verified_pairs: int
    status: str
    offending_pair: Optional[tuple] = None


def _anchor_step(step_id: str, description: str, computed: Enclosure,
                 anchor: float) -> ProofStep:
    """Pass iff the enclosure sits inside [anchor - tol, anchor + tol]
    AND strictly on the anchor's side of zero; proven outside the band
    or proven on the wrong side is fail; too wide to tell is
    inconclusive."""
    tol = ANCHOR_TOLERANCE
    lo_band, hi_band = anchor - tol, anchor + tol
    sign_ok = computed.strictly_positive if anchor > 0 else computed.strictly_negative
    sign_broken = (computed.hi <= 0.0) if anchor > 0 else (computed.lo >= 0.0)
    if computed.hi < lo_band or computed.lo > hi_band or sign_broken:
        status = FAIL
    elif lo_band <= computed.lo and computed.hi <= hi_band and sign_ok:
        status = PASS
    else:
        status = INCONCLUSIVE
    side = "positive" if anchor > 0 else "negative"
    return ProofStep(
        id=step_id,
        description=description,
        status=status,
        computed=computed,
        expected=f"within {tol} of {anchor}, strictly {side}",
        tolerance=tol,
    )


def _check_step(step_id: str, description: str, ok: bool, expected,
                computed: Optional[Enclosure] = None) -> ProofStep:
    """Pass iff ok, else fail: a check that is decided exactly."""
    return ProofStep(step_id, description, PASS if ok else FAIL, computed, expected)


def _exact_value_step(step_id: str, description: str, value: Fraction,
                      expected: Fraction) -> ProofStep:
    return _check_step(step_id, description, value == expected,
                       f"{expected} exactly", Enclosure.from_rational(value))


def _sign_mark(enclosure: Enclosure) -> str:
    """The side of zero an enclosure strictly lies on, "+" or "-", else "?"."""
    if enclosure.strictly_positive:
        return "+"
    return "-" if enclosure.strictly_negative else "?"


# --- grid certificates ---

_GRID_FUNCTIONS: dict = {
    "gamma_log_ratio": gamma_log_ratio,
    "log_ball_volume_root": log_ball_volume_root,
}

# removable singularities of each grid function; G's edge at 1 is not one
_SNAP_POINTS = {"gamma_log_ratio": (0.0, 1.0)}

# largest grid a certificate will build; a finer window is refused
# before any point is allocated
_MAX_GRID_POINTS = 10 ** 6


def _build_grid(a: float, b: float, step: float, snaps: tuple) -> tuple:
    if not (a < b) or not (step > 0):
        raise DomainError(f"bad grid window a={a!r} b={b!r} step={step!r}")
    span = (b - a) / step + 1e-9
    if not span < _MAX_GRID_POINTS:  # also refuses an infinite span
        raise DomainError(
            f"grid window a={a!r} b={b!r} step={step!r} needs more than "
            f"{_MAX_GRID_POINTS} points"
        )
    pts = []
    for k in range(int(span) + 1):
        p = _snap(a + k * step, snaps)
        # several points may snap onto one singularity; keep it once so
        # the grid stays strictly increasing
        if not pts or p != pts[-1]:
            pts.append(p)
    if len(pts) < 2:  # no pair to separate: a certificate would be vacuous
        raise DomainError(
            f"grid window a={a!r} b={b!r} step={step!r} has fewer than two points"
        )
    return tuple(pts)


def _snap(p: float, snaps: tuple) -> float:
    """p, or the removable singularity in snaps p lies a rounding error
    away from; the evaluator supplies the exact limit value there."""
    for target in snaps:
        if p != target and abs(p - target) <= targets.GUARD_RADIUS:
            return target
    return p


def _pair_separated(u: Enclosure, v: Enclosure, direction: str) -> bool:
    """u and v are strictly separated, v after u in direction."""
    if direction == "increasing":
        return u.hi < v.lo
    return v.hi < u.lo


def _first_unseparated(values, direction: str) -> Optional[int]:
    """Index i of the first pair (values[i], values[i+1]) that is not
    strictly separated in direction, or None if every pair is."""
    for i, (u, v) in enumerate(pairwise(values)):
        if not _pair_separated(u, v, direction):
            return i
    return None


def _strictly_monotone(values, direction: str) -> bool:
    return _first_unseparated(values, direction) is None


# what a step built on _strictly_monotone expects
_EVERY_PAIR = "strict enclosure separation at every pair"


def grid_monotone_certificate(function_id: str, a, b, step, direction: str) -> GridCertificate:
    """Certify strict monotonicity of a registered function on the
    grid a, a+step, ..., via enclosure separation at every consecutive
    pair.

    A pair separated the wrong way makes the certificate fail.  An
    overlapping pair gets a midpoint refutation: if the value at its
    midpoint is separated the wrong way from either end, the
    certificate fails; otherwise it is inconclusive.  Either way the
    offending pair is recorded.  (An overlap can never be rescued:
    separation of both halves would imply separation of the whole.)
    """
    if direction not in ("increasing", "decreasing"):
        raise DomainError(f"unknown direction {direction!r}")
    fn = _GRID_FUNCTIONS.get(function_id)
    if fn is None:
        raise DomainError(
            f"unknown grid function {function_id!r} (have {sorted(_GRID_FUNCTIONS)})"
        )
    snaps = _SNAP_POINTS.get(function_id, ())
    grid = _build_grid(float(a), float(b), float(step), snaps)
    values = [fn(p) for p in grid]
    i = _first_unseparated(values, direction)
    if i is None:
        return GridCertificate(function_id, direction, grid, len(grid) - 1, "certified")
    u, v = values[i], values[i + 1]
    # separated the other way round: the claim is provably false here
    refuted = _pair_separated(v, u, direction)
    if not refuted:
        # the snapped midpoint stays in [grid[i], grid[i + 1]]: a
        # singularity within reach of it would have captured an end
        w = fn(_snap(0.5 * (grid[i] + grid[i + 1]), snaps))
        refuted = _pair_separated(w, u, direction) or _pair_separated(v, w, direction)
    return GridCertificate(
        function_id, direction, grid, i,
        FAIL if refuted else INCONCLUSIVE, offending_pair=(grid[i], grid[i + 1]),
    )


def _grid_step(step_id: str, cert: GridCertificate, claim: str) -> ProofStep:
    status = PASS if cert.status == "certified" else cert.status
    detail = (
        f"{claim}: {cert.verified_pairs} consecutive pairs separated on "
        f"[{cert.grid[0]!r}, {cert.grid[-1]!r}] ({len(cert.grid)} points)"
    )
    if cert.offending_pair is not None:
        detail += f"; offending pair {cert.offending_pair!r}"
    return ProofStep(step_id, detail, status,
                     expected=f"strict enclosure separation, {cert.direction}")


# --- lemma 2 ---

_P6_EXPECTED_SIGNS = "-+++"  # ascending degree


def verify_lemma2() -> VerificationReport:
    """Replay the positivity lemma: five exact cubic-to-quintic
    polynomials and one log-pi cubic, all positive on [1, oo),
    with every printed endpoint value reproduced."""
    dup = LEMMA_POLYS["p2"].coeffs == LEMMA_POLYS["p1"].coeffs
    steps = []

    for i, (name, p) in enumerate(LEMMA_POLYS.items()):
        changes = p.descartes_sign_changes()
        cert = certify_positive_on_ray(p, Fraction(1))
        ok = changes == 1 and cert.verdict == "positive"
        desc = (
            f"{name} has exactly one coefficient sign change ({changes}) and a "
            f"positivity certificate on [1, oo) (method {cert.method or 'none'})"
        )
        if name == "p2" and dup:
            desc += " [as printed, p2 duplicates p1]"
        steps.append(_check_step(
            f"lemma2/{3 * i + 1:02d}-{name}-positive", desc, ok,
            "sign changes = 1 and verdict positive",
        ))
        steps.append(_exact_value_step(
            f"lemma2/{3 * i + 2:02d}-{name}-at-0", f"{name}(0) evaluates exactly",
            p.eval_at(Fraction(0)), Fraction(-1),
        ))
        steps.append(_exact_value_step(
            f"lemma2/{3 * i + 3:02d}-{name}-at-1", f"{name}(1) evaluates exactly",
            p.eval_at(Fraction(1)), Fraction(LEMMA_VALUE_AT_ONE[name]),
        ))

    p6 = LOG_PI_POLYS["p6"]
    signs = "".join(_sign_mark(c) for c in p6.coeffs)
    p6_cert = p6.certify_positive(Fraction(1))
    steps.append(_check_step(
        "lemma2/16-p6-positive",
        "p6 coefficient enclosures exclude zero with ascending signs "
        f"{signs} and the lower-endpoint polynomial is certified "
        f"positive on [1, oo) (method {p6_cert.method or 'none'})",
        signs == _P6_EXPECTED_SIGNS and p6_cert.verdict == "positive",
        f"signs {_P6_EXPECTED_SIGNS} and verdict positive",
    ))
    steps.append(_anchor_step(
        "lemma2/17-p6-at-0", "p6 evaluated at 0",
        p6.eval(Enclosure.point(0.0)), ANCHORS["p6_at_0"],
    ))
    steps.append(_anchor_step(
        "lemma2/18-p6-at-1", "p6 evaluated at 1",
        p6.eval(Enclosure.point(1.0)), ANCHORS["p6_at_1"],
    ))
    steps.append(_check_step(
        "lemma2/19-p2-duplication-notice",
        "as printed, p2 is the identical polynomial to p1; certified as "
        "printed with no repair attempted"
        if dup else
        "p2 differs from p1 in this run (patched lemma table)",
        True, None,
    ))
    return VerificationReport.from_steps("lemma2", steps)


# --- theorem 1 ---

_SHIFT_EXPECTED = (148, 712, 1364, 1272, 611, 144, 13)


def _half_grid(stop: int = 50) -> list:
    return [Fraction(k, 2) for k in range(2, 2 * stop + 1)]


def verify_theorem1(grid_from: float = 0.0, grid_to: float = 50.0,
                    grid_step: float = 0.01) -> VerificationReport:
    """Replay the increasing-function proof: the quotient-derivative
    core is positive (anchored at 1, bounded below by a certified
    rational function), the slope ratio increases, and the target
    function increases on the desk-scale grid."""
    steps = []

    steps.append(_anchor_step(
        "theorem1/01-core-at-1", "fg_ratio_core evaluated at 1",
        fg_ratio_core(1), ANCHORS["q_at_1"],
    ))

    shifted = RATE_NUMERATOR.taylor_shift(Fraction(1))
    got = tuple(int(c) for c in shifted.coeffs)
    steps.append(_check_step(
        "theorem1/02-shift-identity",
        "re-expanding the degree-6 rate numerator about 1 gives ascending "
        f"coefficients {got}",
        got == _SHIFT_EXPECTED, f"{_SHIFT_EXPECTED} exactly",
    ))

    pts = _half_grid()
    bounds = [fg_ratio_core_rate_lower_bound(t) for t in pts]
    min_bound = min(bounds)
    steps.append(_check_step(
        "theorem1/03-rate-lower-bound-positive",
        "exact rational lower bound on the core rate is positive at all "
        f"{len(pts)} half-integer points in [1, 50] (minimum {min_bound})",
        all(bv > 0 for bv in bounds), "> 0 exactly at every point",
        Enclosure.from_rational(min_bound),
    ))

    dominated = 0
    positive = 0
    for t, bv in zip(pts, bounds):
        rate = fg_ratio_core_rate(t)
        if rate.strictly_positive:
            positive += 1
        if rate.lo > bv:
            dominated += 1
    steps.append(_check_step(
        "theorem1/04-rate-dominates-bound",
        f"displayed core rate is strictly positive at {positive}/{len(pts)} "
        f"grid points and strictly above its rational lower bound at "
        f"{dominated}/{len(pts)}",
        dominated == len(pts) and positive == len(pts), "both at every point",
    ))

    ratios = [fg_ratio(t) for t in pts]
    steps.append(_check_step(
        "theorem1/05-fg-ratio-increasing",
        "slope ratio fg_ratio strictly increases across the half-integer "
        f"grid in [1, 50] ({len(ratios) - 1} separations); this is the "
        "monotone-quotient rule's hypothesis check, the rule itself is trusted",
        _strictly_monotone(ratios, "increasing"), _EVERY_PAIR,
    ))

    cert = grid_monotone_certificate("gamma_log_ratio", grid_from, grid_to, grid_step,
                                     "increasing")
    steps.append(_grid_step(
        "theorem1/06-grid-increasing", cert,
        "gamma_log_ratio increases on the desk-scale grid (exact limit values "
        "spliced at the two removable singularities)",
    ))
    return VerificationReport.from_steps("theorem1", steps)


# --- theorem 2 ---

# largest dimension a sequence check will run to: every term up to it
# is held in a list, so a larger n_max is refused before any is built
_MAX_N_MAX = 10 ** 6


def _check_n_max(n_max, minimum: int, who: str) -> None:
    if not isinstance(n_max, int) or isinstance(n_max, bool) or n_max < minimum:
        raise DomainError(f"{who} needs integer n_max >= {minimum}, got {n_max!r}")
    if n_max > _MAX_N_MAX:
        raise DomainError(f"{who} refuses n_max = {n_max} > {_MAX_N_MAX}")


# chain members anchored at 1 by theorem2/02-06, with their descriptions
_CHAIN_ANCHORS = (
    ("h2pp", "second derivative of the polynomial tail at 1"),
    ("h2p", "first derivative of the polynomial tail at 1"),
    ("h2", "polynomial tail of the sign chain at 1"),
    ("h1", "second member of the sign chain at 1"),
    ("h", "first member of the sign chain at 1"),
)

_CHAIN_SAMPLE_SEED = 727
_CHAIN_SAMPLE_COUNT = 50


def _log_inequality_slack(t) -> Enclosure:
    """4 p1(t) [ln(1+t) - 2t/(t+2)], the chain-rate bound with the log
    minus the bound without: both share MIDDLE, and p5 = (t+1)^2 p1."""
    tq = Fraction(t)
    log_gap = Enclosure.from_rational(tq + 1).log() - Enclosure.from_rational(2 * tq / (tq + 2))
    return Enclosure.from_rational(4 * LEMMA_POLYS["p1"].eval_at(tq)) * log_gap


def verify_theorem2(n_max: int = 200, grid_from: float = 1.0 + 2.0 ** -10,
                    grid_to: float = 50.0, grid_step: float = 0.01) -> VerificationReport:
    """Replay the decreasing-function proof: the auxiliary sign chain is
    pinned at 1 and its polynomial tail certified negative, the bound
    chain is consistent at sampled points, and both the continuous
    target and the dimension sequence decrease."""
    _check_n_max(n_max, 4, "verify_theorem2")
    steps = []

    cert = LOG_PI_POLYS["p6"].certify_positive(Fraction(1))  # p6 = -h2ppp
    steps.append(_check_step(
        "theorem2/01-chain-tail-negative",
        "the third derivative of the chain's polynomial tail is negative "
        "on [1, oo): its negation carries a positivity certificate "
        f"(method {cert.method or 'none'})",
        cert.verdict == "positive", "verdict positive for the negation",
    ))

    steps.extend(
        _anchor_step(f"theorem2/{i:02d}-{member}-at-1", description,
                     ball_root_slope_chain(member, 1), ANCHORS[f"{member}_at_1"])
        for i, (member, description) in enumerate(_CHAIN_ANCHORS, start=2)
    )

    rng = random.Random(_CHAIN_SAMPLE_SEED)
    samples = sorted(1.0 + 19.0 * rng.random() for _ in range(_CHAIN_SAMPLE_COUNT))
    consistent = sum(1 for t in samples if _log_inequality_slack(t).strictly_positive)
    # still worded as a chain-rate bound: the replay hashes pin these bytes
    steps.append(_check_step(
        "theorem2/07-rate-bound-chain",
        "applying the logarithm inequality weakens the chain-rate bound in "
        f"the proven direction at {consistent}/{len(samples)} seeded sample "
        "points in (1, 20]",
        consistent == len(samples),
        "with-log bound strictly above rational bound at every sample",
    ))

    cert = grid_monotone_certificate("log_ball_volume_root", grid_from, grid_to, grid_step,
                                     "decreasing")
    steps.append(_grid_step(
        "theorem2/08-grid-decreasing", cert,
        "log of the ball-volume root decreases on the desk-scale grid "
        "(equivalent to the value claim since exp is strictly increasing; "
        "the value itself overflows binary64 near the left endpoint)",
    ))

    terms = [log_omega_sequence_term(n) for n in range(3, n_max + 1)]
    steps.append(_check_step(
        "theorem2/09-sequence-decreasing",
        f"log of the dimension-sequence term strictly decreases for n = 3..{n_max} "
        f"({len(terms) - 1} separations, log domain)",
        _strictly_monotone(terms, "decreasing"), _EVERY_PAIR,
    ))
    return VerificationReport.from_steps("theorem2", steps)


# --- remark 1 trends ---

_TREND_PROBE_N = 10 ** 5
_GAP_PROBES = (10 ** 2, 10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6)


def verify_remark1(n_max: int = 200) -> VerificationReport:
    """Trend checks for the volume-sequence limits: strict decrease over
    the desk range plus far-tail probes.  Trends, not limit proofs."""
    _check_n_max(n_max, 10, "verify_remark1")
    steps = []

    inv_n = [volume_sequence_value(n, "inv_n") for n in range(1, n_max + 1)]
    probe = log_volume_sequence_value(_TREND_PROBE_N, "inv_n")
    threshold = (inv_n[0] * 0.01).log()
    steps.append(_check_step(
        "remark1/01-inv-n-decreasing",
        f"volume^(1/n) strictly decreases for n = 1..{n_max} and at the far "
        f"probe n = {_TREND_PROBE_N} has fallen below 10^-2 of its first "
        "term (log-domain comparison)",
        _strictly_monotone(inv_n, "decreasing") and probe.hi < threshold.lo,
        f"separation at every pair and log value < {threshold.lo!r}", probe,
    ))

    inv_nlnn = [volume_sequence_value(n, "inv_nlnn") for n in range(2, n_max + 1)]
    steps.append(_check_step(
        "remark1/02-inv-nlnn-decreasing",
        f"volume^(1/(n ln n)) strictly decreases for n = 2..{n_max}",
        _strictly_monotone(inv_nlnn, "decreasing"), _EVERY_PAIR,
    ))

    limit = (-Enclosure(0.5, 0.5)).exp()
    gaps = [
        volume_sequence_value(n, "inv_nlnn") - limit for n in _GAP_PROBES
    ]
    steps.append(_check_step(
        "remark1/03-limit-gap-shrinking",
        "distance of volume^(1/(n ln n)) from exp(-1/2) stays positive and "
        f"strictly shrinks along n in {list(_GAP_PROBES)} (trend check, "
        "explicitly not a limit proof)",
        all(g.strictly_positive for g in gaps) and _strictly_monotone(gaps, "decreasing"),
        "positive, strictly shrinking gaps", gaps[-1],
    ))

    trend = [log_ball_volume_root(float(10 ** k)) for k in range(1, 6)]
    far = log_ball_volume_root(1e6)
    steps.append(_check_step(
        "remark1/04-continuous-trend",
        "log of the ball-volume root strictly decreases along x = 10^1..10^5 "
        "and at x = 10^6 the value is below 10^-3 (log-domain comparison)",
        _strictly_monotone(trend, "decreasing") and far.hi < math.log(1e-3),
        f"decreasing probes and log value < {math.log(1e-3)!r}", far,
    ))
    return VerificationReport.from_steps("remark1", steps)


# --- remark 2 exploration (never contributes to verdicts) ---

def _second_difference_signs(xs, vs) -> str:
    slopes = [(v - u) / (b - a) for a, b, u, v in zip(xs, xs[1:], vs, vs[1:])]
    return "".join(_sign_mark(right - left) for left, right in pairwise(slopes))


def explore_remark2(grid=tuple(1.5 + 0.5 * k for k in range(38)),  # 1.5 .. 20.0
                    n_max: int = 100) -> dict:
    """Second-difference sign survey of the log of the ball-volume root
    and of the log sequence term.  EXPLORATORY: the output is a plain
    dict and never feeds a verification verdict."""
    grid = [float(x) for x in grid]
    if len(grid) < 3:
        raise DomainError("second differences need at least 3 grid points")
    if any(grid[i] >= grid[i + 1] for i in range(len(grid) - 1)):
        raise DomainError("exploration grid must be strictly increasing")
    if grid[0] <= 1.0 + targets.GUARD_RADIUS:
        raise DomainError("exploration grid must stay right of 1")
    _check_n_max(n_max, 5, "explore_remark2")

    xs = [Enclosure.point(x) for x in grid]
    vs = [log_ball_volume_root(x) for x in grid]
    cont_signs = _second_difference_signs(xs, vs)

    ns = list(range(3, n_max + 1))
    seq_vs = [log_omega_sequence_term(n) for n in ns]
    seq_xs = [Enclosure.point(float(n)) for n in ns]
    seq_signs = _second_difference_signs(seq_xs, seq_vs)

    return {
        "theorem": "remark2-conjecture",
        "label": "EXPLORATORY",
        "claim": "log-convexity survey; no verdict, conjecture status unknown",
        "continuous": {
            "grid": grid,
            "second_difference_signs": cont_signs,
        },
        "sequence": {
            "n_from": 3,
            "n_to": n_max,
            "second_difference_signs": seq_signs,
        },
    }


# --- serialization ---

def _step_to_json_obj(step: ProofStep) -> dict:
    return {
        "id": step.id,
        "description": step.description,
        "status": step.status,
        "computed": None if step.computed is None else step.computed.to_json_obj(),
        "expected": step.expected,
        "tolerance": step.tolerance,
    }


def report_to_json_obj(report: VerificationReport) -> dict:
    return {
        "theorem": report.theorem,
        "overall": report.overall,
        "steps": [_step_to_json_obj(s) for s in report.steps],
    }


def _canonical_json(obj) -> str:
    """The one canonical JSON text of every report and of the CLI's
    JSON output: sorted keys, two-space indent, final newline."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def report_to_json_text(report: VerificationReport) -> str:
    return _canonical_json(report_to_json_obj(report))


def report_to_text(report: VerificationReport) -> str:
    lines = [f"{report.theorem}: {report.overall.upper()}"]
    for s in report.steps:
        lines.append(f"  [{s.status:^12}] {s.id}: {s.description}")
        if s.computed is not None:
            lines.append(f"  {'':14} computed [{s.computed.lo!r}, {s.computed.hi!r}]")
        if s.expected is not None:
            lines.append(f"  {'':14} expected {s.expected}")
    return "\n".join(lines) + "\n"
