"""Target function family against mpmath oracles and exact identities.

The oracle recomputes every value from its defining formula at 40
digits, so nothing here depends on frozen decimal literals.
"""

import math
import random
from decimal import Decimal
from fractions import Fraction

import mpmath
import pytest

from monocert.enclosure import (
    DomainError, Enclosure, EULER_GAMMA, LN_PI, _log_bounds, _rational_bounds,
)
from monocert.exactpoly import RationalPolynomial
from monocert.specfun import ln_gamma, ln_gamma_over_x
from monocert.targets import (
    _CORE_PSI_WEIGHT,
    _CUBIC_NUM,
    _QUAD_DEN,
    _plus_one,
    GUARD_RADIUS,
    GuardZoneError,
    LEMMA_POLYS,
    LEMMA_VALUE_AT_ONE,
    LOG_PI_POLYS,
    LogPiPolynomial,
    RATE_NUMERATOR,
    SEQUENCE_MODES,
    ball_root_slope_chain,
    ball_volume_root,
    fg_ratio,
    fg_ratio_core,
    fg_ratio_core_rate,
    fg_ratio_core_rate_lower_bound,
    gamma_log_ratio,
    log_ball_volume_root,
    log_omega_sequence_term,
    log_unit_ball_volume,
    log_volume_sequence_value,
    volume_sequence_value,
)

mpmath.mp.dps = 40


def _fr(value) -> Fraction:
    return Fraction(mpmath.nstr(value, 30, strip_zeros=False))


def _contains(enc: Enclosure, fr: Fraction, slack=Fraction(1, 10**20)) -> bool:
    return Fraction(enc.lo) - slack <= fr <= Fraction(enc.hi) + slack


def _oracle_big_f(x) -> Fraction:
    x = mpmath.mpf(x)
    return _fr(mpmath.loggamma(x + 1) / (mpmath.log(x * x + 1) - mpmath.log(x + 1)))


def _oracle_log_big_g(x) -> Fraction:
    x = mpmath.mpf(x)
    num = x * mpmath.log(mpmath.pi) - mpmath.loggamma(x + 1)
    return _fr(num / (mpmath.log(x * x + 1) - mpmath.log(x + 1)))


# -- increasing target ----------------------------------------------

def test_gamma_log_ratio_generic_points():
    for x in (0.5, 2.0, 3.7, 10.0, 49.5):
        assert _contains(gamma_log_ratio(x), _oracle_big_f(x)), x


def test_gamma_log_ratio_exact_limits():
    at0 = gamma_log_ratio(0)
    assert _contains(at0, _fr(mpmath.euler))
    assert at0.width < 1e-15
    at1 = gamma_log_ratio(1.0)
    assert _contains(at1, _fr(2 * (1 - mpmath.euler)))
    assert at1.width < 1e-15


def test_gamma_log_ratio_guard_zones_and_domain():
    with pytest.raises(GuardZoneError):
        gamma_log_ratio(1e-9)
    with pytest.raises(GuardZoneError):
        gamma_log_ratio(1.0 + GUARD_RADIUS / 2)
    with pytest.raises(DomainError):
        gamma_log_ratio(-0.25)
    assert isinstance(GuardZoneError("x"), ValueError)


# -- decreasing target ----------------------------------------------

def test_log_ball_volume_root_against_oracle():
    for x in (1.0 + 2.0**-10, 1.5, 2.0, 10.0, 50.0, 1e6):
        assert _contains(log_ball_volume_root(x), _oracle_log_big_g(x)), x


def test_ball_volume_root_value_domain():
    g2 = ball_volume_root(2.0)
    assert _contains(g2, _fr(mpmath.exp(_oracle_log_big_g(2.0))), Fraction(1, 10**9))
    with pytest.raises(OverflowError):
        ball_volume_root(1.0 + 2.0**-10)  # log value ~2345, exp overflows


def test_ball_volume_root_domain_error():
    with pytest.raises(DomainError):
        log_ball_volume_root(1.0)
    with pytest.raises(DomainError):
        log_ball_volume_root(0.5)
    with pytest.raises(DomainError):
        log_ball_volume_root(1.0 + GUARD_RADIUS / 2)


def test_ball_volume_root_guard_zone():
    # inside the zone above 1 the answer is inconclusive, as for F
    for x in (1.0 + GUARD_RADIUS / 2, 1.0 + GUARD_RADIUS, 1.0000001):
        with pytest.raises(GuardZoneError):
            log_ball_volume_root(x)
    for x in (1.0, 0.5):
        with pytest.raises(DomainError) as exc:
            log_ball_volume_root(x)
        assert not isinstance(exc.value, GuardZoneError), x
    assert log_ball_volume_root(1.0 + 2 * GUARD_RADIUS).lo > 0.0
    assert issubclass(GuardZoneError, DomainError)


# -- slope ratio and its derivative core ----------------------------

def test_fg_ratio_values():
    assert _contains(fg_ratio(1.0), _fr(2 * (1 - mpmath.euler)))
    # general form: psi(x+1) * (x^2+1)(x+1) / (2x^2+x-1... ) is not
    # restated here; spot values come straight from the derivative quotient
    x = mpmath.mpf(2)
    truth = (mpmath.psi(0, x + 1) * ((x * x + 1) * (x + 1))
             / ((2 * x) * (x + 1) - (x * x + 1)))
    assert _contains(fg_ratio(2.0), _fr(truth))


def test_fg_ratio_increasing_sample():
    vals = [fg_ratio(x) for x in (1.0, 2.0, 5.0, 20.0)]
    for a, b in zip(vals, vals[1:]):
        assert a.hi < b.lo


def test_fg_ratio_core_anchor_value():
    truth = 8 * (mpmath.pi**2 / 6 - 1) - 4 * (1 - mpmath.euler)
    assert _contains(fg_ratio_core(1), _fr(truth))


def test_fg_ratio_core_rate_matches_psi_combination():
    # rate = 4*p1*psi' ... spelled with polygamma orders 0..2 at x+1; at
    # 1e70, p4(x) ~ x^5 is beyond binary64 but the rate ~ 4 x^3 ln x is not
    for x in (1.0, 2.0, 7.5, 1e70):
        with mpmath.workdps(50):
            mx = mpmath.mpf(x)
            p1 = -1 - mx + 3 * mx**2 + mx**3
            p3 = -1 + 2 * mx**2 + 8 * mx**3 + 3 * mx**4
            p4 = -1 + mx + 2 * mx**2 + 2 * mx**3 + 3 * mx**4 + mx**5
            truth = (4 * p1 * mpmath.psi(0, mx + 1)
                     + 2 * p3 * mpmath.psi(1, mx + 1)
                     + p4 * mpmath.psi(2, mx + 1))
            assert _contains(fg_ratio_core_rate(x), _fr(truth)), x


def test_core_is_the_slope_ratio_derivative_numerator():
    # fg_ratio = C psi(x+1) / Q, so its derivative has numerator
    # (C'Q - CQ') psi(x+1) + CQ psi'(x+1): the core, if CQ = p4
    assert _CUBIC_NUM * _QUAD_DEN == LEMMA_POLYS["p4"]


def test_core_rate_is_the_core_derivative_exactly():
    # d/dx [W psi + p4 psi'] = W' psi + (W + p4') psi' + p4 psi'', which
    # is the displayed rate 4 p1 psi + 2 p3 psi' + p4 psi'' exactly when
    # W' = 4 p1 and W + p4' = 2 p3
    w, p4 = _CORE_PSI_WEIGHT, LEMMA_POLYS["p4"]
    assert w.derivative() == 4 * LEMMA_POLYS["p1"]
    assert w + p4.derivative() == 2 * LEMMA_POLYS["p3"]


def test_rate_lower_bound_is_the_substituted_rate_exactly():
    # psi(x+1) >= 2x/(x+2) - 1/(x+1), psi'(x+1) >= 1/(x+1) + 1/(2(x+1)^2)
    # and |psi''(x+1)| <= 1/(x+1)^2 + 2/(x+1)^3 put into the rate give
    # RATE_NUMERATOR / ((x+1)^2 (x+2)); both sides times 2(x+1)^3(x+2)
    x = RationalPolynomial((0, 1))
    a, b = x + 1, x + 2
    p1, p3, p4 = LEMMA_POLYS["p1"], LEMMA_POLYS["p3"], LEMMA_POLYS["p4"]
    cleared = (
        4 * p1 * (4 * x * a * a * a - 2 * a * a * b)
        + 2 * p3 * (2 * a * a * b + a * b)
        - p4 * (2 * a * b + 4 * b)
    )
    assert cleared == 2 * a * RATE_NUMERATOR


def test_rate_lower_bound_exact_and_lifted():
    assert fg_ratio_core_rate_lower_bound(Fraction(1)) == Fraction(37, 3)
    assert fg_ratio_core_rate_lower_bound(Fraction(2)) == Fraction(1066, 9)


def test_rate_dominates_lower_bound_on_samples():
    for k in range(2, 41):
        x = Fraction(k, 2)
        bound = fg_ratio_core_rate_lower_bound(x)
        assert bound > 0
        assert fg_ratio_core_rate(x).lo > bound


def test_rate_numerator_shift():
    shifted = RATE_NUMERATOR.taylor_shift(Fraction(1))
    assert tuple(shifted.coeffs) == (148, 712, 1364, 1272, 611, 144, 13)
    assert RATE_NUMERATOR.eval_at(Fraction(1)) == 148


# -- lemma polynomial table -----------------------------------------

def test_lemma_polynomials_endpoint_table():
    assert set(LEMMA_POLYS) == {"p1", "p2", "p3", "p4", "p5"}
    for name, p in LEMMA_POLYS.items():
        assert p.eval_at(Fraction(0)) == -1
        assert p.eval_at(Fraction(1)) == LEMMA_VALUE_AT_ONE[name]
        assert p.descartes_sign_changes() == 1
    assert LEMMA_POLYS["p1"] == LEMMA_POLYS["p2"]


def test_p5_is_p1_times_square():
    # theorem2/07 relies on this to cancel (x+1)^2 from its quantity
    x1 = RationalPolynomial([1, 1])
    assert LEMMA_POLYS["p5"] == x1 * x1 * LEMMA_POLYS["p1"]


# -- sign chain -----------------------------------------------------

def _log_pi():
    return mpmath.log(mpmath.pi)


def test_chain_values_at_one():
    cases = {
        "h": -_log_pi(),
        "h1": (8 * (mpmath.pi**2 / 6 - 1) - 4 * (1 - mpmath.euler)
               + 4 * _log_pi()),
        "h2": -244 + 96 * _log_pi(),
        "h2p": -1056 + 512 * _log_pi(),
        "h2pp": -3656 + 1712 * _log_pi(),
        "h2ppp": -(9648 - 3984 * _log_pi()),
    }
    for token, truth in cases.items():
        assert _contains(ball_root_slope_chain(token, 1), _fr(truth)), token


def test_chain_tokens_and_errors():
    for token in ("h", "h1", "h2", "h2p", "h2pp", "h2ppp"):
        assert ball_root_slope_chain(token, 1).width < 1e-9, token
    with pytest.raises(DomainError):
        ball_root_slope_chain("h3", 1.0)
    # p6 shares LOG_PI_POLYS with the tail but is no chain member
    with pytest.raises(DomainError):
        ball_root_slope_chain("p6", 1)
    with pytest.raises(DomainError):
        ball_root_slope_chain("h", 0.5)


def test_chain_polynomial_tail_signs():
    # h2 and its derivatives are all negative on [1, 20] samples
    for token in ("h2", "h2p", "h2pp", "h2ppp"):
        for x in (1.0, 2.0, 10.0, 20.0):
            assert ball_root_slope_chain(token, x).strictly_negative, (token, x)


def test_third_derivative_is_negated_quartic_table():
    a = LOG_PI_POLYS["h2ppp"]
    b = LOG_PI_POLYS["p6"]
    assert len(a.coeffs) == len(b.coeffs) == 4
    for ca, cb in zip(a.coeffs, b.coeffs):
        assert ca.lo == -cb.hi and ca.hi == -cb.lo


def test_h2_log_pi_part_is_exact():
    # h2's ln(pi) part is 4 (x+1)^2 (x+2) p1: MIDDLE's -4 (x+1)^2 p1,
    # times -(x+2)
    x = RationalPolynomial((0, 1))
    expected = 4 * (x + 1) * (x + 1) * (x + 2) * LEMMA_POLYS["p1"]
    assert LOG_PI_POLYS["h2"].log_pi == expected
    assert expected.coeffs == (-8, -28, -12, 48, 64, 28, 4)


def test_log_pi_polys_hold_their_exact_values():
    # r(x) + ln(pi) s(x) from the exact parts, at 50 digits
    def mp(q: Fraction):
        return mpmath.mpf(q.numerator) / q.denominator

    with mpmath.workdps(50):
        ln_pi = mpmath.log(mpmath.pi)
        for name, p in LOG_PI_POLYS.items():
            for x in (Fraction(0), Fraction(1), Fraction(3, 2), Fraction(7), Fraction(-5, 3)):
                truth = mp(p.rational.eval_at(x)) + ln_pi * mp(p.log_pi.eval_at(x))
                enc = p.eval(Enclosure.from_rational(x))
                assert mpmath.mpf(enc.lo) <= truth <= mpmath.mpf(enc.hi), (name, x)


def test_logpi_polynomial_eval_and_derivative():
    # (x - 1)^2 + ln(pi) x, and its derivative 2x - 2 + ln(pi)
    p = LogPiPolynomial(RationalPolynomial((1, -2, 1)), RationalPolynomial((0, 1)))
    lg = _log_pi()
    for x in (Enclosure.point(3.0), 3.0):
        assert _contains(p.eval(x), _fr(4 + 3 * lg))
    d = p.derivative()
    assert len(d.coeffs) == 2
    assert _contains(d.eval(Enclosure.point(3.0)), _fr(4 + lg))


def test_logpi_certify_positive():
    # x^2 + x + ln(pi) is positive from 0 on
    p = LogPiPolynomial(RationalPolynomial((0, 1, 1)), RationalPolynomial((1,)))
    assert p.certify_positive(Fraction(0)).verdict == "positive"
    with pytest.raises(DomainError):
        p.certify_positive(Fraction(-1))


def test_logpi_certify_declines_zero_straddling_constant():
    # the constant ln(pi) - LN_PI.lo is positive, but its enclosure
    # reaches below zero, so x + that constant is not certified from 0
    p = LogPiPolynomial(RationalPolynomial((-Fraction(LN_PI.lo), 1)), RationalPolynomial((1,)))
    c = p.coeffs[0]
    assert c.lo < 0 < c.hi
    assert p.certify_positive(Fraction(0)).verdict == "not-certified"


def test_logpi_certify_uses_lower_endpoints():
    """The certificate must hold for the polynomial of the coefficient
    lower endpoints, so x^2 - 1 + (ln(pi) - LN_PI.lo), which is positive
    on [1, oo), is refused: its lower-endpoint polynomial is not
    positive at 1."""
    p = LogPiPolynomial(
        RationalPolynomial((-1 - Fraction(LN_PI.lo), 0, 1)), RationalPolynomial((1,))
    )
    assert Fraction(p.coeffs[0].lo) + 1 <= 0
    assert p.certify_positive(Fraction(1)).verdict == "not-certified"


def test_chain_finite_differences():
    """Each h2 family member's finite difference matches the next
    member: the quotient-rule algebra behind the printed derivative
    table, checked numerically with a curvature-aware tolerance."""
    h = 1e-4
    tail = LOG_PI_POLYS["h2ppp"]
    third = {"h2": tail, "h2p": tail.derivative(),
             "h2pp": tail.derivative().derivative()}
    pairs = [("h2", "h2p"), ("h2p", "h2pp"), ("h2pp", "h2ppp")]
    for x in (1.25, 2.0, 5.0, 12.0):
        for low, high in pairs:
            fd = (ball_root_slope_chain(low, x + h)
                  - ball_root_slope_chain(low, x - h)) / (2 * h)
            d = ball_root_slope_chain(high, x)
            straddle = third[low].eval(Enclosure(x - h, x + h))
            curvature = max(abs(straddle.lo), abs(straddle.hi))
            tol = fd.width + d.width + (h * h / 6) * curvature + 1e-7
            assert abs(fd.mid - d.mid) < tol, (low, x)


# -- ball volumes and the dimension sequence ------------------------

def _oracle_log_omega(n) -> Fraction:
    n = mpmath.mpf(n)
    return _fr(n / 2 * mpmath.log(mpmath.pi) - mpmath.loggamma(1 + n / 2))


def test_unit_ball_volume_small_dimensions():
    def unit_ball_volume(n):
        return volume_sequence_value(n, "unit")

    assert unit_ball_volume(1).contains(Fraction(2)) or (
        unit_ball_volume(1).lo < 2 < unit_ball_volume(1).hi
    )
    assert _contains(unit_ball_volume(2), _fr(mpmath.pi), Fraction(1, 10**10))
    assert _contains(unit_ball_volume(5), _fr(8 * mpmath.pi**2 / 15),
                     Fraction(1, 10**10))
    assert _contains(log_unit_ball_volume(100), _oracle_log_omega(100))


def test_omega_term_equals_decreasing_target_at_half_dimension():
    for n in range(3, 41):
        term = volume_sequence_value(n, "paper")
        direct = ball_volume_root(n / 2)
        assert term.lo == direct.lo and term.hi == direct.hi, n


def test_omega_term_log_form():
    for n in (3, 7, 64, 200):
        want = _oracle_log_big_g(mpmath.mpf(n) / 2)
        assert _contains(log_omega_sequence_term(n), want), n


def test_sequence_modes_against_oracle():
    assert SEQUENCE_MODES == ("unit", "inv_n", "inv_nlnn", "paper")
    assert _contains(log_volume_sequence_value(7, "unit"), _oracle_log_omega(7))
    assert _contains(
        log_volume_sequence_value(5, "inv_n"), _oracle_log_omega(5) / 5
    )
    n = mpmath.mpf(9)
    want = _fr((9 / 2 * mpmath.log(mpmath.pi) - mpmath.loggamma(1 + n / 2))
               / (n * mpmath.log(n)))
    assert _contains(log_volume_sequence_value(9, "inv_nlnn"), want)
    t = volume_sequence_value(2, "inv_nlnn")
    assert _contains(t, _fr(mpmath.pi ** (1 / (2 * mpmath.log(2)))),
                     Fraction(1, 10**10))
    p = volume_sequence_value(4, "paper")
    # n = 4 is x = 2: (pi^2 / Gamma(3)) ^ (1 / ln(5/3))
    assert _contains(p, _fr((mpmath.pi ** 2 / 2) ** (1 / mpmath.log(mpmath.mpf(5) / 3))),
                     Fraction(1, 10**10))


def test_sequence_mode_domain_errors():
    with pytest.raises(DomainError):
        log_volume_sequence_value(1, "inv_nlnn")
    with pytest.raises(DomainError):
        log_volume_sequence_value(2, "paper")
    with pytest.raises(DomainError):
        log_volume_sequence_value(3, "median")
    with pytest.raises(DomainError):
        volume_sequence_value(0, "unit")
    with pytest.raises(DomainError):
        volume_sequence_value(2, "paper")
    with pytest.raises(DomainError):
        volume_sequence_value(True, "unit")
    with pytest.raises(DomainError):
        volume_sequence_value(2.0, "unit")


def test_far_tail_values():
    # n = 10^5: the 1/n root is deep below 1, the 1/(n ln n) root is
    # still near exp(-1/2)
    v = volume_sequence_value(10**5, "inv_n")
    n = mpmath.mpf(10**5)
    want = _fr(mpmath.exp(
        (n / 2 * mpmath.log(mpmath.pi) - mpmath.loggamma(1 + n / 2)) / n
    ))
    assert _contains(v, want, Fraction(1, 10**10))
    w = volume_sequence_value(10**6, "inv_nlnn")
    assert 0.6 < w.lo < w.hi < 0.7


def test_scalar_validation():
    with pytest.raises(DomainError):
        gamma_log_ratio(True)
    with pytest.raises(DomainError):
        fg_ratio(0.25)
    with pytest.raises(DomainError):
        fg_ratio_core("two")


# -- reference oracle: the Fraction argument prelude of F and log G.
# The evaluators take the exact parts of x from as_integer_ratio()
# instead, and must give the same endpoints, or the same exception.

_REF_GUARD = Fraction(GUARD_RADIUS)


def _ref_exact(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise DomainError("bool is not a numeric argument")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        if not math.isfinite(x):
            raise DomainError(f"non-finite argument {x!r}")
        return Fraction(x)
    raise DomainError(f"unsupported scalar type {type(x).__name__}")


def _ref_log_poly_quotient(xq: Fraction, x1: Enclosure) -> Enclosure:
    n, d = xq.numerator, xq.denominator
    try:
        square = _rational_bounds(n * n + d * d, d * d)
    except OverflowError:
        return (Enclosure.from_rational(xq).log() * 2
                + Enclosure.from_rational(1 + 1 / (xq * xq)).log() - x1.log())
    slo, shi = _log_bounds(*square)
    llo, lhi = _log_bounds(x1.lo, x1.hi)
    return Enclosure(math.nextafter(slo - lhi, -math.inf), math.nextafter(shi - llo, math.inf))


def _ref_gamma_log_ratio(x) -> Enclosure:
    xq = _ref_exact(x)
    if xq < 0:
        raise DomainError(f"gamma_log_ratio needs x >= 0, got {x!r}")
    if xq == 0:
        return EULER_GAMMA
    if xq == 1:
        return (Enclosure(1.0, 1.0) - EULER_GAMMA) * 2
    if xq <= _REF_GUARD or abs(xq - 1) <= _REF_GUARD:
        raise GuardZoneError(
            f"x={x!r} is within {GUARD_RADIUS} of a removable singularity; "
            "evaluate at the singular point itself for the exact value"
        )
    x1 = Enclosure.from_rational(xq + 1)
    try:
        lg = ln_gamma(x1)
    except DomainError:
        return x1 * (ln_gamma_over_x(x1) / _ref_log_poly_quotient(xq, x1))
    return lg / _ref_log_poly_quotient(xq, x1)


def _ref_log_ball_volume_root(x) -> Enclosure:
    xq = _ref_exact(x)
    if xq <= 1:
        raise DomainError(f"log_ball_volume_root needs x > 1, got {x!r}")
    if xq - 1 <= _REF_GUARD:
        raise GuardZoneError(
            f"x={x!r} is within {GUARD_RADIUS} of the singular edge at 1, "
            "where the quotient is 0/0"
        )
    x1 = Enclosure.from_rational(xq + 1)
    try:
        lg = ln_gamma(x1)
    except DomainError:
        num = LN_PI * Enclosure.from_rational(xq / (xq + 1)) - ln_gamma_over_x(x1)
        return x1 * (num / _ref_log_poly_quotient(xq, x1))
    return (LN_PI * Enclosure.from_rational(xq) - lg) / _ref_log_poly_quotient(xq, x1)


def _ref_outcome(fn, x) -> str:
    """repr of (lo, hi), or of the exception's type and message; repr
    tells -0.0 from 0.0."""
    try:
        e = fn(x)
    except (ArithmeticError, ValueError) as exc:
        return repr((type(exc), str(exc)))
    return repr((e.lo, e.hi))


def _prelude_arguments() -> list:
    rng = random.Random(1616)
    floats = [rng.uniform(0.0, 60.0) for _ in range(400)]
    lo, hi = math.log(2.0 ** -19), math.log(1.7e308)
    floats += [math.exp(rng.uniform(lo, hi)) for _ in range(400)]
    g = GUARD_RADIUS
    edges = [-0.0, 0.0, 5e-324, 1.0, 2.0 ** 53, 1e306, 1.7976931348623157e308]
    for c in (g, 1.0 - g, 1.0 + g, 1.3407807929942596e154):  # the last: x^2 overflows
        edges += [math.nextafter(c, -math.inf), c, math.nextafter(c, math.inf)]
    ints = [-3, 0, 1, 2, 3, 2 ** 53 - 1, 2 ** 53 + 1, 10 ** 154, 10 ** 155, 10 ** 400]
    fractions = [Fraction(v) for v in floats + edges]
    fractions += [Fraction(7, 2), Fraction(1, 3), Fraction(10 ** 6 + 1, 2),
                  Fraction(10 ** 400, 3), _REF_GUARD + Fraction(1, 10 ** 30),
                  1 - _REF_GUARD - Fraction(1, 10 ** 30), 1 + _REF_GUARD + Fraction(1, 10 ** 30)]
    return floats + edges + ints + fractions


@pytest.mark.parametrize("fn, ref", [
    (gamma_log_ratio, _ref_gamma_log_ratio),
    (log_ball_volume_root, _ref_log_ball_volume_root),
])
def test_argument_prelude_matches_the_fraction_reference(fn, ref):
    args = _prelude_arguments()
    args += [True, math.nan, math.inf, -math.inf, "1.5", Decimal("1.5")]
    for x in args:
        assert _ref_outcome(fn, x) == _ref_outcome(ref, x), x


def test_plus_one_matches_the_fraction_enclosure():
    # fg_ratio, its core and rate, and the chain members h and h1 take
    # x + 1 from _plus_one too
    for x in _prelude_arguments():
        got = _ref_outcome(lambda v: _plus_one(*v.as_integer_ratio()), x)
        assert got == _ref_outcome(lambda v: Enclosure.from_rational(Fraction(v) + 1), x), x
