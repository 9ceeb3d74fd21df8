"""Rigorous special functions against a high-precision oracle.

mpmath at 40 digits is the independent oracle; its values are converted
to exact rationals through their decimal printout so containment checks
are never float-vs-float.
"""

import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from monocert.enclosure import DomainError, Enclosure, EULER_GAMMA, LN_PI
from monocert.specfun import (
    digamma_bounds,
    ln_gamma,
    ln_gamma_over_x,
    log1p_bounds,
    polygamma,
    polygamma_bounds,
)

mpmath.mp.dps = 40


def _oracle(value) -> Fraction:
    return Fraction(mpmath.nstr(value, 30, strip_zeros=False))


def _contains(enc: Enclosure, fr: Fraction, slack=Fraction(1, 10**25)) -> bool:
    # slack absorbs the oracle's own final-digit truncation
    return Fraction(enc.lo) - slack <= fr <= Fraction(enc.hi) + slack


def test_ln_gamma_matches_oracle_across_scales():
    rng = random.Random(11)
    xs = [rng.uniform(1e-3, 100.0) for _ in range(60)] + [1e-3, 0.5, 1.0, 8.0, 100.0]
    for x in xs:
        enc = ln_gamma(x)
        assert _contains(enc, _oracle(mpmath.loggamma(x))), x
        assert enc.width < 1e-10, (x, enc.width)


def test_ln_gamma_exact_factorials():
    for n in range(1, 21):
        enc = ln_gamma(n + 1).exp()
        assert enc.contains(Fraction(math.factorial(n))), n


@pytest.mark.parametrize("x", [0.25, 1.0, 8.0, 1e3, 1e100, 1e306, 1.7e308])
def test_ln_gamma_over_x_holds_oracle(x):
    # finite where ln_gamma itself overflows (from about 2.5e305 on)
    enc = ln_gamma_over_x(x)
    with mpmath.workdps(50):
        t = mpmath.mpf(x)
        assert mpmath.mpf(enc.lo) <= mpmath.loggamma(t) / t <= mpmath.mpf(enc.hi)
    if x >= 1e100:  # the envelope term theta/(12 x^2) is negligible
        assert enc.width < 1e-12 * abs(enc.mid), x


def test_ln_gamma_rejects_nonpositive():
    with pytest.raises(DomainError):
        ln_gamma(0.0)
    with pytest.raises(DomainError):
        ln_gamma(-2.5)
    with pytest.raises(DomainError):
        ln_gamma_over_x(0.0)


@pytest.mark.parametrize("k", [0, 1, 2])
def test_polygamma_matches_oracle(k):
    rng = random.Random(23 + k)
    xs = [rng.uniform(1e-3, 100.0) for _ in range(60)] + [0.01, 1.0, 2.0, 50.0]
    for x in xs:
        enc = polygamma(k, x)
        assert _contains(enc, _oracle(mpmath.psi(k, x))), (k, x)


def test_polygamma_classical_values():
    assert _contains(polygamma(0, 1.0), _oracle(-mpmath.euler))
    assert polygamma(0, 1.0).lo <= -EULER_GAMMA.lo
    assert _contains(polygamma(1, 1.0), _oracle(mpmath.pi**2 / 6))
    assert _contains(polygamma(2, 1.0), _oracle(-2 * mpmath.zeta(3)))


def test_polygamma_rejects_bad_order_and_domain():
    with pytest.raises(DomainError):
        polygamma(3, 1.0)
    with pytest.raises(DomainError):
        polygamma(0, 0.0)
    with pytest.raises(DomainError):
        polygamma(1, -1.0)


def test_wide_input_enclosure_still_contains_all_values():
    wide = Enclosure(2.0, 3.0)
    enc = polygamma(1, wide)
    for x in (2.0, 2.25, 2.5, 2.75, 3.0):
        assert _contains(enc, _oracle(mpmath.psi(1, x))), x
    lg = ln_gamma(wide)
    for x in (2.0, 2.5, 3.0):
        assert _contains(lg, _oracle(mpmath.loggamma(x))), x


@given(st.floats(min_value=1.0, max_value=500.0,
                 allow_nan=False, allow_infinity=False))
@settings(max_examples=80, deadline=None)
def test_digamma_elementary_bounds_bracket_truth(x):
    b = digamma_bounds(x)
    truth = _oracle(mpmath.psi(0, x))
    assert Fraction(b.lower) <= truth <= Fraction(b.upper)


@pytest.mark.parametrize("k", [1, 2])
@given(x=st.floats(min_value=1.0, max_value=500.0,
                   allow_nan=False, allow_infinity=False))
@settings(max_examples=60, deadline=None)
def test_polygamma_elementary_bounds_bracket_truth(k, x):
    b = polygamma_bounds(k, x)
    truth = abs(_oracle(mpmath.psi(k, x)))
    assert Fraction(b.lower) <= truth <= Fraction(b.upper)


@given(st.floats(min_value=1e-6, max_value=1e6,
                 allow_nan=False, allow_infinity=False))
@settings(max_examples=80, deadline=None)
def test_log1p_bounds_bracket_truth(t):
    b = log1p_bounds(t)
    truth = _oracle(mpmath.log1p(t))
    assert Fraction(b.lower) <= truth <= Fraction(b.upper)
    assert b.gap >= 0.0


def test_bound_pair_domain_checks():
    with pytest.raises(DomainError):
        digamma_bounds(0.0)
    with pytest.raises(DomainError):
        polygamma_bounds(0, 1.0)  # elementary pair defined for k >= 1
    with pytest.raises(DomainError):
        log1p_bounds(0.0)


# -- reference oracle: the series and recurrences composed of Enclosure
# operations, one object per step.  The kernels run the same operations
# on float pairs and must give the same endpoints bit for bit.

_REF_BERNOULLI = (Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42),
                  Fraction(-1, 30), Fraction(5, 66), Fraction(-691, 2730))
_REF_SERIES = {
    k: tuple(
        Enclosure.from_rational(
            (-1) ** (k + 1) * b * Fraction(math.factorial(2 * n + k - 1), math.factorial(2 * n))
        )
        for n, b in enumerate(_REF_BERNOULLI, 1)
    )
    for k in (-1, 0, 1, 2)
}
_REF_ONE = Enclosure(1.0, 1.0)
_REF_HALF = Enclosure(0.5, 0.5)
_REF_HALF_LN_TWO_PI = (LN_PI + Enclosure(2.0, 2.0).log()) * _REF_HALF


def _reference_asymptotic(k, y):
    inv = _REF_ONE / y
    inv2 = inv * inv
    if k == -1:
        res = (y - _REF_HALF) * y.log() - y + _REF_HALF_LN_TWO_PI
        p = inv
    elif k == 0:
        res = y.log() - inv * _REF_HALF
        p = inv2
    elif k == 1:
        res = inv + inv2 * _REF_HALF
        p = inv * inv2
    else:
        res = -(inv2 + inv * inv2)
        p = inv2 * inv2
    *terms, tail = _REF_SERIES[k]
    for c in terms:
        res = res + c * p
        p = p * inv2
    r = tail * p
    m = max(abs(r.lo), abs(r.hi))
    return res + Enclosure(-m, m)


def _reference_shift(xe):
    return 0 if xe.lo >= 8.0 else int(math.ceil(8.0 - xe.lo))


def _reference_ln_gamma(x):
    xe = x if isinstance(x, Enclosure) else Enclosure(x, x)
    if xe.lo <= 0.0:
        raise DomainError("nonpositive")
    k = _reference_shift(xe)
    res = _reference_asymptotic(-1, xe + k if k else xe)
    for j in range(k):
        res = res - (xe + j).log()
    return res


def _reference_polygamma(k, x):
    xe = x if isinstance(x, Enclosure) else Enclosure(x, x)
    if xe.lo <= 0.0:
        raise DomainError("nonpositive")
    shift = _reference_shift(xe)
    res = _reference_asymptotic(k, xe + shift if shift else xe)
    numerator = Enclosure.point((-1) ** (k + 1) * math.factorial(k))
    for j in range(shift):
        res = res + numerator / (xe + j).pow_int(k + 1)
    return res


def _outcome(fn, *args):
    try:
        e = fn(*args)
    except (ArithmeticError, ValueError) as exc:
        return type(exc)
    return e.lo, e.hi


def _kernel_arguments():
    rng = random.Random(1409)
    points = [rng.uniform(0.0, 60.0) or 60.0 for _ in range(3000)]
    points += [math.exp(rng.uniform(math.log(8.0), math.log(1e8))) for _ in range(3000)]
    narrow = []
    for _ in range(3000):
        c = rng.choice((8.0, rng.uniform(1e-3, 60.0), math.exp(rng.uniform(0.0, 18.0))))
        r = c * 10.0 ** rng.uniform(-16.0, -3.0)
        lo = c - r if c - r > 0.0 else c
        narrow.append(Enclosure(lo, c + r))  # c = 8 straddles the shift threshold
    return points + narrow


def test_kernels_match_the_enclosure_composed_reference():
    args = _kernel_arguments()
    assert len(args) >= 9000
    assert sum(1 for a in args if isinstance(a, Enclosure) and a.lo < 8.0 < a.hi) >= 100
    for x in args:
        assert _outcome(ln_gamma, x) == _outcome(_reference_ln_gamma, x), x
        for k in (0, 1, 2):
            assert _outcome(polygamma, k, x) == _outcome(_reference_polygamma, k, x), (k, x)


@pytest.mark.parametrize("k, x", [
    (-1, 1e306),           # (y - 1/2) ln y overflows
    (2, 1e-300),           # x^3 underflows, the divisor straddles 0
    (-1, 5e-324),          # the j = 0 step x + 0 reaches down to 0
    (-1, Enclosure(1.0, 1.7976931348623157e308)),  # the shift overflows
    (0, Enclosure(1.0, 1.7976931348623157e308)),
    (1, Enclosure(0.5, 1e200)),  # the recurrence's power overflows
    (2, Enclosure(5e-324, 1e160)),
    (2, Enclosure(1e-170, 1e160)),
    (0, Enclosure(1e-300, 1e300)),
    (-1, Enclosure(1e-3, 1e300)),
    (2, Enclosure(1e-3, 1e100)),
])
def test_kernel_extremes_match_the_reference(k, x):
    got = _outcome(ln_gamma, x) if k == -1 else _outcome(polygamma, k, x)
    want = _outcome(_reference_ln_gamma, x) if k == -1 else _outcome(_reference_polygamma, k, x)
    assert got == want
    if isinstance(x, float):
        assert want is DomainError
