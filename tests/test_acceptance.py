"""Release acceptance gate.

Each test replays one release criterion at its stated tolerance and
prints a single pass/fail line (visible with -s; pytest -v shows the
per-test verdicts either way).

Criterion 6 asks the 1/(n ln n)-root of the unit-ball volume to approach
e^{-1/2} within 0.05. Stirling's series gives a gap of about
ln(2 pi e)/(2 ln n), so the gap is still 0.0656 at n = 10^6 and first
falls below 0.05 at n* = 60,170,700. The test locates n* with an mpmath
oracle built from the defining formula and asserts that the program's
enclosures straddle 0.05 exactly there.
"""

import math
import random
import time
from fractions import Fraction

import mpmath

from monocert.certify import (
    ANCHORS,
    PASS,
    FAIL,
    grid_monotone_certificate,
    verify_lemma2,
    verify_theorem1,
    verify_theorem2,
    verify_remark1,
)
from monocert.enclosure import Enclosure
from monocert.exactpoly import RationalPolynomial, certify_positive_on_ray
from monocert.specfun import (
    digamma_bounds,
    ln_gamma,
    log1p_bounds,
    polygamma,
    polygamma_bounds,
)
from monocert.targets import (
    LEMMA_POLYS,
    LEMMA_VALUE_AT_ONE,
    LOG_PI_POLYS,
    RATE_NUMERATOR,
    ball_root_slope_chain,
    fg_ratio,
    fg_ratio_core,
    log_omega_sequence_term,
    volume_sequence_value,
)

mpmath.mp.dps = 40


def _line(n: int, ok: bool, label: str) -> None:
    print(f"[acceptance {n}/9] {'PASS' if ok else 'FAIL'} - {label}", flush=True)


def _fr(value) -> Fraction:
    return Fraction(mpmath.nstr(value, 30, strip_zeros=False))


def _within(enc: Enclosure, anchor: float, tol: float) -> bool:
    return anchor - tol <= enc.lo and enc.hi <= anchor + tol


def test_acceptance_01_lemma_certificates_and_endpoints():
    t0 = time.monotonic()
    certified = all(
        certify_positive_on_ray(p, Fraction(1)).verdict == "positive"
        for p in LEMMA_POLYS.values()
    )
    endpoints = all(
        p.eval_at(Fraction(0)) == -1
        and p.eval_at(Fraction(1)) == LEMMA_VALUE_AT_ONE[name]
        for name, p in LEMMA_POLYS.items()
    )
    at_one_table = sorted(LEMMA_VALUE_AT_ONE[n] for n in LEMMA_POLYS) == [2, 2, 8, 8, 12]
    p6 = LOG_PI_POLYS["p6"]
    p6_zero = _within(p6.eval(Enclosure.point(0.0)), -113.68, 0.01)
    p6_one = _within(p6.eval(Enclosure.point(1.0)), 5087.39, 0.01)
    driver = verify_lemma2().overall == PASS
    elapsed = time.monotonic() - t0
    ok = certified and endpoints and at_one_table and p6_zero and p6_one and driver
    ok = ok and elapsed < 1.0
    _line(1, ok, f"positivity lemma replay with exact endpoints ({elapsed:.3f}s)")
    assert certified and endpoints and at_one_table
    assert p6_zero and p6_one
    assert driver
    assert elapsed < 1.0


def test_acceptance_02_taylor_shift_exact_identity():
    sextic = RationalPolynomial((8, -2, -31, 8, 86, 66, 13))
    assert sextic == RATE_NUMERATOR
    shifted = tuple(int(c) for c in sextic.taylor_shift(Fraction(1)).coeffs)
    ok = shifted == (148, 712, 1364, 1272, 611, 144, 13)
    _line(2, ok, "unit Taylor shift of the rate numerator, exact integers")
    assert ok, shifted


def test_acceptance_03_anchor_constants():
    t0 = time.monotonic()
    computed = {
        "q_at_1": fg_ratio_core(1),
        "h1_at_1": ball_root_slope_chain("h1", 1),
        "h_at_1": ball_root_slope_chain("h", 1),
        "h2_at_1": ball_root_slope_chain("h2", 1),
        "h2p_at_1": ball_root_slope_chain("h2p", 1),
        "h2pp_at_1": ball_root_slope_chain("h2pp", 1),
    }
    bad = []
    for key, enc in computed.items():
        anchor = ANCHORS[key]
        sign_ok = enc.strictly_positive if anchor > 0 else enc.strictly_negative
        if not (_within(enc, anchor, 0.01) and sign_ok):
            bad.append(key)
    elapsed = time.monotonic() - t0
    ok = not bad and elapsed < 1.0
    _line(3, ok, f"six checkpoint constants within 0.01, signs proven ({elapsed:.3f}s)")
    assert not bad, bad
    assert elapsed < 1.0


def test_acceptance_04_increasing_function_desk_scale():
    t0 = time.monotonic()
    cert = grid_monotone_certificate("gamma_log_ratio", 0.0, 50.0, 0.01, "increasing")
    grid_ok = (cert.status == "certified"
               and cert.verified_pairs == len(cert.grid) - 1)
    ratio_points = [1.0 + 0.5 * k for k in range(99)]
    ratio_vals = [fg_ratio(x) for x in ratio_points]
    ratio_ok = all(u.hi < v.lo for u, v in zip(ratio_vals, ratio_vals[1:]))
    elapsed = time.monotonic() - t0
    ok = grid_ok and ratio_ok and elapsed < 30.0
    _line(4, ok, f"increasing-target grid plus slope-ratio trend ({elapsed:.2f}s)")
    assert grid_ok, cert.status
    assert ratio_ok
    assert elapsed < 30.0


def test_acceptance_05_decreasing_function_desk_scale():
    t0 = time.monotonic()
    # the value-domain decreasing target overflows binary64 at the left
    # endpoint, so the certificate covers its logarithm; exp is
    # strictly increasing, which transfers the direction exactly
    cert = grid_monotone_certificate(
        "log_ball_volume_root", 1.0 + 2.0**-10, 50.0, 0.01, "decreasing"
    )
    grid_ok = (cert.status == "certified"
               and cert.verified_pairs == len(cert.grid) - 1)
    terms = [log_omega_sequence_term(n) for n in range(3, 201)]
    seq_ok = all(v.hi < u.lo for u, v in zip(terms, terms[1:]))
    value_domain = [volume_sequence_value(n, "paper") for n in range(3, 201)]
    seq_value_ok = all(v.hi < u.lo for u, v in zip(value_domain, value_domain[1:]))
    elapsed = time.monotonic() - t0
    ok = grid_ok and seq_ok and seq_value_ok and elapsed < 30.0
    _line(5, ok, f"decreasing-target grid plus dimension sequence to 200 ({elapsed:.2f}s)")
    assert grid_ok, cert.status
    assert seq_ok and seq_value_ok
    assert elapsed < 30.0


def _oracle_limit_gap(n: int):
    """V_n^(1/(n ln n)) - e^(-1/2), with V_n = pi^(n/2) / Gamma(n/2 + 1)."""
    n = mpmath.mpf(n)
    log_volume = (n / 2) * mpmath.log(mpmath.pi) - mpmath.loggamma(n / 2 + 1)
    return mpmath.exp(log_volume / (n * mpmath.log(n))) - mpmath.exp(mpmath.mpf(-1) / 2)


def _oracle_first_below(tol: float, lo: int, hi: int) -> int:
    """Least n in (lo, hi] with oracle gap < tol, by bisection.

    Bisection finds a crossing. It is the first one only if the gap keeps
    decreasing, which the tests observe as a trend but do not prove.
    """
    assert _oracle_limit_gap(lo) >= tol > _oracle_limit_gap(hi), (lo, hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _oracle_limit_gap(mid) < tol:
            hi = mid
        else:
            lo = mid
    return hi


def test_acceptance_06_tail_trends_and_limit_gap():
    # oracle work stays outside the timed window
    oracle_gap6 = _fr(_oracle_limit_gap(10**6))
    n_star = _oracle_first_below(0.05, 10**6, 10**9)
    slack = Fraction(1, 10**18)

    t0 = time.monotonic()
    inv_n = [volume_sequence_value(n, "inv_n") for n in range(1, 201)]
    inv_n_ok = all(v.hi < u.lo for u, v in zip(inv_n, inv_n[1:]))
    inv_nlnn = [volume_sequence_value(n, "inv_nlnn") for n in range(2, 201)]
    inv_nlnn_ok = all(v.hi < u.lo for u, v in zip(inv_nlnn, inv_nlnn[1:]))
    limit = (-Enclosure(0.5, 0.5)).exp()
    gap4 = volume_sequence_value(10**4, "inv_nlnn") - limit
    gap6 = volume_sequence_value(10**6, "inv_nlnn") - limit
    shrink_ok = gap6.strictly_positive and gap4.strictly_positive and gap6.hi < gap4.lo
    before = volume_sequence_value(n_star - 1, "inv_nlnn") - limit
    after = volume_sequence_value(n_star, "inv_nlnn") - limit
    elapsed = time.monotonic() - t0
    oracle_ok = Fraction(gap6.lo) - slack <= oracle_gap6 <= Fraction(gap6.hi) + slack
    crossing_ok = before.lo > 0.05 and after.hi < 0.05
    ok = inv_n_ok and inv_nlnn_ok and shrink_ok and oracle_ok and crossing_ok
    ok = ok and elapsed < 10.0
    _line(6, ok, (
        f"root-sequence trends hold; the limit gap is [{gap6.lo:.7f}, {gap6.hi:.7f}] "
        f"at n=10^6 and first falls below 0.05 at n={n_star:,}: "
        f"[{before.lo:.12f}, {before.hi:.12f}] before, "
        f"[{after.lo:.12f}, {after.hi:.12f}] there ({elapsed:.2f}s)"
    ))
    assert inv_n_ok and inv_nlnn_ok
    assert shrink_ok
    assert elapsed < 10.0
    assert oracle_ok, (
        f"gap to exp(-1/2) at n=10^6 is [{gap6.lo!r}, {gap6.hi!r}], which does not "
        f"enclose the mpmath value {float(oracle_gap6)!r}"
    )
    assert crossing_ok, (
        f"mpmath puts the first gap below 0.05 at n={n_star:,} (first only if "
        "the gap keeps decreasing, which is a trend), but the enclosures "
        f"[{before.lo!r}, {before.hi!r}] at n={n_star - 1:,} and "
        f"[{after.lo!r}, {after.hi!r}] at n={n_star:,} do not straddle 0.05"
    )


def test_acceptance_07_oracle_equivalence_random_points():
    rng = random.Random(140823)
    slack = Fraction(1, 10**18)
    failures = 0
    for i in range(500):
        x = rng.uniform(0.0, 100.0) or 100.0
        enc = ln_gamma(x)
        truth = _fr(mpmath.loggamma(x))
        if not (Fraction(enc.lo) - slack <= truth <= Fraction(enc.hi) + slack):
            failures += 1
        k = i % 3
        p = polygamma(k, x)
        truth = _fr(mpmath.psi(k, x))
        if not (Fraction(p.lo) - slack <= truth <= Fraction(p.hi) + slack):
            failures += 1
    ok = failures == 0
    _line(7, ok, f"500-point high-precision oracle containment, failures={failures}")
    assert failures == 0


def test_acceptance_08_elementary_bound_containment():
    rng = random.Random(181818)
    failures = 0
    for _ in range(200):
        x = rng.uniform(1.0, 100.0)
        dig = polygamma(0, x)
        b = digamma_bounds(x)
        if not (b.lower < dig.lo and dig.hi < b.upper):
            failures += 1
        for k in (1, 2):
            p = polygamma(k, x)
            magnitude = p if k == 1 else -p
            bk = polygamma_bounds(k, x)
            if not (bk.lower < magnitude.lo and magnitude.hi < bk.upper):
                failures += 1
    for _ in range(200):
        t = math.exp(rng.uniform(math.log(1e-6), math.log(1e6)))
        b = log1p_bounds(t)
        truth = _fr(mpmath.log1p(t))
        if not (Fraction(b.lower) <= truth <= Fraction(b.upper)):
            failures += 1
    ok = failures == 0
    _line(8, ok, f"elementary two-sided bounds bracket as claimed, failures={failures}")
    assert failures == 0


_ANCHOR_FLIPS = (
    ("lemma2", "p6_at_0", "lemma2/17-p6-at-0"),
    ("lemma2", "p6_at_1", "lemma2/18-p6-at-1"),
    ("theorem1", "q_at_1", "theorem1/01-core-at-1"),
    ("theorem2", "h2pp_at_1", "theorem2/02-h2pp-at-1"),
    ("theorem2", "h2p_at_1", "theorem2/03-h2p-at-1"),
    ("theorem2", "h2_at_1", "theorem2/04-h2-at-1"),
    ("theorem2", "h1_at_1", "theorem2/05-h1-at-1"),
    ("theorem2", "h_at_1", "theorem2/06-h-at-1"),
)

_POLY_MUTANTS = (
    ("p4", (-1, 1, 2, 1, 3, 1), "lemma2/12-p4-at-1"),
    ("p3", (-1, 0, 3, 8, 3), "lemma2/09-p3-at-1"),
    ("p5", (-1, -4, 0, 6, 5, 1), "lemma2/15-p5-at-1"),
)


def test_acceptance_09_mutation_suite(monkeypatch):
    drivers = {
        "lemma2": verify_lemma2,
        "theorem1": verify_theorem1,
        "theorem2": lambda: verify_theorem2(n_max=40),
    }
    broken = []
    for theorem, key, step_id in _ANCHOR_FLIPS:
        with monkeypatch.context() as m:
            m.setitem(ANCHORS, key, -ANCHORS[key])
            report = drivers[theorem]()
        failed = [s.id for s in report.steps if s.status != PASS]
        if failed != [step_id] or report.overall != FAIL:
            broken.append((key, failed, report.overall))
    for name, coeffs, step_id in _POLY_MUTANTS:
        with monkeypatch.context() as m:
            m.setitem(LEMMA_POLYS, name, RationalPolynomial(coeffs))
            report = verify_lemma2()
        failed = [s.id for s in report.steps if s.status != PASS]
        if failed != [step_id] or report.overall != FAIL:
            broken.append((name, failed, report.overall))
    ok = not broken
    _line(9, ok, "8 anchor flips + 3 coefficient mutations each flip exactly their step")
    assert not broken, broken
