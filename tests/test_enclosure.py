"""Soundness of the outward-rounded interval layer.

The one property everything downstream leans on: the exact real result
of an operation is inside the returned enclosure.  Exact rational
arithmetic on the float endpoints is the oracle.
"""

import math
import random
import sys
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, strategies as st

from monocert.enclosure import (
    CONSTANTS,
    DomainError,
    Enclosure,
    EULER_GAMMA,
    LN_PI,
)

finite = st.floats(
    min_value=-1e12, max_value=1e12, allow_nan=False, allow_infinity=False
)


@st.composite
def enclosures(draw):
    a = draw(finite)
    b = draw(finite)
    return Enclosure(min(a, b), max(a, b))


def test_constructor_rejects_bad_endpoints():
    with pytest.raises(DomainError):
        Enclosure(2.0, 1.0)
    with pytest.raises(DomainError):
        Enclosure(float("nan"), 1.0)
    with pytest.raises(DomainError):
        Enclosure(0.0, float("inf"))


@pytest.mark.parametrize("endpoint, error", [
    ("1", TypeError),
    (True, TypeError),
    (Fraction(1, 3), DomainError),
    (2**53 + 1, DomainError),
])
def test_constructor_rejects_non_numbers_and_rounded_endpoints(endpoint, error):
    # float() would parse the str, turn the bool into 1.0, and round the
    # others to an endpoint that misses the value
    with pytest.raises(error):
        Enclosure(endpoint, 2.0**60)
    with pytest.raises(error):
        Enclosure(-(2.0**60), endpoint)


def test_constructor_accepts_exact_non_float_endpoints():
    e = Enclosure(2**53, Fraction(2**60 + 2**8))
    assert (e.lo, e.hi) == (2.0**53, 2.0**60 + 2.0**8)
    assert type(e.lo) is float and type(e.hi) is float


def test_point_and_from_rational():
    p = Enclosure.point(1.5)
    assert p.lo == p.hi == 1.5
    third = Enclosure.from_rational(Fraction(1, 3))
    assert third.contains(Fraction(1, 3))
    assert third.width > 0.0
    # representable rationals stay exact
    half = Enclosure.from_rational(Fraction(1, 2))
    assert half.lo == half.hi == 0.5


@given(enclosures(), enclosures())
def test_add_sub_mul_contain_exact_result(x, y):
    for fx in (x.lo, x.hi):
        for fy in (y.lo, y.hi):
            exact = Fraction(fx) + Fraction(fy)
            assert (x + y).contains(exact)
            exact = Fraction(fx) - Fraction(fy)
            assert (x - y).contains(exact)
            exact = Fraction(fx) * Fraction(fy)
            assert (x * y).contains(exact)


@given(enclosures(), enclosures())
def test_div_contains_exact_result_or_straddles(x, y):
    if y.lo <= 0.0 <= y.hi:
        with pytest.raises(DomainError):
            x / y
        return
    try:
        q = x / y
    except DomainError:
        # an endpoint quotient left binary64 range; the abort must be
        # justified, never a shortcut around a representable result
        worst = max(
            abs(Fraction(fx) / Fraction(fy))
            for fx in (x.lo, x.hi)
            for fy in (y.lo, y.hi)
        )
        assert worst > Fraction(2**1023)
        return
    for fx in (x.lo, x.hi):
        for fy in (y.lo, y.hi):
            assert q.contains(Fraction(fx) / Fraction(fy))


@given(enclosures(), st.integers(min_value=0, max_value=9))
def test_pow_int_contains_exact_result(x, n):
    p = x.pow_int(n)
    for f in (x.lo, x.hi, x.mid):
        assert p.contains(Fraction(f) ** n)


extreme = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([1.7e308, -1.7e308, sys.float_info.max, -sys.float_info.max,
                     5e-324, -5e-324, 1e-323, sys.float_info.min]),
)


@given(extreme, extreme)
@example(1.7e308, 1.7e308)
@example(-1.7e308, -sys.float_info.max)
@example(1e300, sys.float_info.max)  # overflows with one end below max/2
@example(5e-324, 5e-324)  # where 0.5*lo + 0.5*hi gives 0
def test_mid_is_finite_and_inside(a, b):
    x = Enclosure(min(a, b), max(a, b))
    assert math.isfinite(x.mid) and x.lo <= x.mid <= x.hi
    plain = 0.5 * (x.lo + x.hi)
    if math.isfinite(plain):
        assert x.mid == plain


def test_pow_int_rejects_negative_exponent():
    with pytest.raises(DomainError):
        Enclosure.point(2.0).pow_int(-1)


@given(st.floats(min_value=-700.0, max_value=700.0,
                 allow_nan=False, allow_infinity=False))
def test_exp_contains_math_exp_neighbourhood(v):
    e = Enclosure.point(v).exp()
    assert e.lo <= math.exp(v) <= e.hi
    assert e.lo >= 0.0


def test_exp_deep_negative_clamps_at_zero():
    e = Enclosure.point(-800.0).exp()
    assert e.lo == 0.0
    assert e.hi > 0.0


@given(st.floats(min_value=1e-300, max_value=1e300,
                 allow_nan=False, allow_infinity=False))
def test_log_contains_math_log(v):
    e = Enclosure.point(v).log()
    assert e.lo <= math.log(v) <= e.hi


def test_log_rejects_nonpositive():
    with pytest.raises(DomainError):
        Enclosure(0.0, 1.0).log()
    with pytest.raises(DomainError):
        Enclosure(-2.0, -1.0).log()


def test_exp_log_round_trip_contains_identity():
    x = Enclosure(2.0, 2.0)
    back = x.log().exp()
    assert back.contains(Fraction(2))


@given(enclosures())
def test_negation_mirrors_endpoints(x):
    n = -x
    assert n.lo == -x.hi and n.hi == -x.lo


@given(enclosures(), finite)
def test_scalar_lifting_matches_point_enclosure(x, s):
    assert (x + s).lo == (x + Enclosure.point(s)).lo
    assert (s + x).hi == (x + s).hi
    assert (s - x).lo == (Enclosure.point(s) - x).lo
    assert (x * s).hi == (x * Enclosure.point(s)).hi


def test_fraction_operands_lift():
    x = Enclosure.point(1.0)
    y = x + Fraction(1, 3)
    assert y.contains(Fraction(4, 3))
    z = Fraction(1, 3) * x
    assert z.contains(Fraction(1, 3))


def test_bool_operand_rejected():
    with pytest.raises(TypeError):
        Enclosure.point(1.0) + True


@given(enclosures(), enclosures(), enclosures())
def test_inclusion_monotonicity_for_products(a, b, c):
    # widening one operand can only widen the product
    wide = Enclosure(min(a.lo, b.lo), max(a.hi, b.hi))
    inner = a * c
    outer = wide * c
    assert outer.lo <= inner.lo and inner.hi <= outer.hi


def test_sign_predicates():
    assert Enclosure(0.5, 2.0).strictly_positive
    assert not Enclosure(0.0, 2.0).strictly_positive
    assert Enclosure(-2.0, -0.5).strictly_negative
    assert not Enclosure(-2.0, 0.0).strictly_negative


def _ulps_wide(e: Enclosure) -> int:
    n = 0
    v = e.lo
    while v < e.hi:
        v = math.nextafter(v, math.inf)
        n += 1
        assert n <= 4
    return n


def test_trusted_constants_tight_and_correct():
    for name, tc in CONSTANTS.items():
        assert tc.value.contains(Fraction(tc.literal)), name
        assert _ulps_wide(tc.value) <= 2, name
    # pi itself is not trusted: only ln(pi) and gamma enter a computation
    assert set(CONSTANTS) == {"ln_pi", "euler_gamma"}
    assert LN_PI.contains(Fraction("1.14472988584940017414342735135305871"))
    assert EULER_GAMMA.contains(Fraction("0.57721566490153286060651209008240243"))


def test_json_round_trip_is_exact():
    e = Enclosure.from_rational(Fraction(1, 3))
    obj = e.to_json_obj()
    assert set(obj) == {"lo", "hi"}
    back = Enclosure.from_json_obj(obj)
    assert back.lo == e.lo and back.hi == e.hi


# -- from_rational against the Fraction round trip -------------------

def _round_trip_from_rational(q: Fraction):
    """The Fraction round-trip algorithm from_rational must agree with."""
    f = float(q)
    fq = Fraction(f)
    if fq == q:
        return f, f
    if fq < q:
        return f, math.nextafter(f, math.inf)
    return math.nextafter(f, -math.inf), f


_wide_ints = st.integers(min_value=-(10**40), max_value=10**40)
_denominators = st.integers(min_value=1, max_value=10**40)


@st.composite
def rationals(draw):
    kind = draw(st.sampled_from(("plain", "huge", "tiny", "float", "dyadic")))
    n = draw(_wide_ints)
    d = draw(_denominators)
    if kind == "huge":  # around 1e300, past the top of binary64 too
        return Fraction(n * 10 ** draw(st.integers(260, 310)), d)
    if kind == "tiny":  # subnormal and below
        return Fraction(n, d * 10 ** draw(st.integers(290, 330)))
    if kind == "float":  # exactly representable, subnormals included
        return Fraction(draw(st.floats(allow_nan=False, allow_infinity=False)))
    if kind == "dyadic":
        return Fraction(n, 2 ** draw(st.integers(0, 1200)))
    return Fraction(n, d)


@given(rationals())
def test_from_rational_matches_round_trip(q):
    try:
        expected = _round_trip_from_rational(q)
    except OverflowError:
        with pytest.raises(OverflowError):
            Enclosure.from_rational(q)
        return
    try:
        e = Enclosure.from_rational(q)
    except DomainError:
        # one ulp above the largest float is infinite
        assert math.isinf(expected[1])
        return
    assert (e.lo, e.hi) == expected
    if e.lo == e.hi:
        assert Fraction(e.lo) == q
    else:
        assert Fraction(e.lo) < q < Fraction(e.hi)
        assert e.hi == math.nextafter(e.lo, math.inf)


def test_from_rational_edge_cases():
    tiny = Fraction(1, 3 * 2**1074)  # a third of the least subnormal
    e = Enclosure.from_rational(tiny)
    assert (e.lo, e.hi) == (0.0, 5e-324)
    neg = Enclosure.from_rational(Fraction(-1, 3))
    assert neg.lo < neg.hi < 0.0 and neg.contains(Fraction(-1, 3))
    big = Fraction(10**300) / 7
    e = Enclosure.from_rational(big)
    assert (e.lo, e.hi) == _round_trip_from_rational(big)
    top = Fraction(sys.float_info.max)
    assert Enclosure.from_rational(top) == Enclosure.point(sys.float_info.max)
    with pytest.raises(OverflowError):
        Enclosure.from_rational(top * 2)
    with pytest.raises(DomainError):  # rounds to the top, hi would be inf
        Enclosure.from_rational(top + 1)


# -- arithmetic results: order by construction, overflow still raises -

_OVERFLOWING = (
    lambda x: x * 10,
    lambda x: 10.0 * x,
    lambda x: x * x,
    lambda x: x + x,
    lambda x: x + 1e308,
    lambda x: -x - x,
    lambda x: 0.0 - x - 1e308,
    lambda x: x / 0.1,
    lambda x: -x / 1e-10,
    lambda x: 1e308 / (1 / x),
)


def test_arithmetic_overflow_raises_domain_error():
    big = Enclosure(1e308, 1e308)
    for i, op in enumerate(_OVERFLOWING):
        try:
            op(big)
        except DomainError:
            continue
        pytest.fail(f"overflowing operation {i} did not raise DomainError")


@st.composite
def signed_enclosures(draw):
    ends = st.one_of(finite, st.sampled_from((0.0, -0.0, 5e-324, -5e-324)))
    a, b = draw(ends), draw(ends)
    return Enclosure(min(a, b), max(a, b))


@given(signed_enclosures(), signed_enclosures())
def test_products_equal_the_four_product_rule(x, y):
    # the sign cases of * must give exactly the min/max of all four
    products = [a * b for a in (x.lo, x.hi) for b in (y.lo, y.hi)]
    expected = (math.nextafter(min(products), -math.inf),
                math.nextafter(max(products), math.inf))
    assert ((x * y).lo, (x * y).hi) == expected
    assert ((y * x).lo, (y * x).hi) == expected


# -- the trusted libm base against an independent oracle -------------

_EXP_HARD = (
    2.0**-53, -(2.0**-53), 2.0**-30, 1e-300, -1e-300, 0.5, 1.0,
    math.log(2.0), 709.0, 709.78, 709.782, -708.3964185322641,
    -708.39641853226, -720.0, -740.0, -744.44, -745.0,
)
_LOG_HARD = (
    1.0 + 2.0**-52, 1.0 - 2.0**-53, 1.0 + 2.0**-30, 1.0 - 2.0**-30,
    0.9999999999, 1.0000000001, 5e-324, 1e-320, 2.2250738585072014e-308,
    2.225073858507201e-308, sys.float_info.max, 2.0, 10.0, math.e,
)


def _seeded(n, low, high, seed):
    rng = random.Random(seed)
    return tuple(rng.uniform(low, high) for _ in range(n))


def _check_libm(fn, oracle, enc, v):
    """The enclosure holds the 50-digit value, and libm is within the
    1 ulp the enclosure's 2-ulp widening assumes."""
    with mpmath.workdps(50):
        truth = oracle(mpmath.mpf(v))
        assert mpmath.mpf(enc.lo) <= truth <= mpmath.mpf(enc.hi), v
        r = fn(v)
        assert abs(mpmath.mpf(r) - truth) <= math.ulp(r), v


def test_exp_against_mpmath():
    for v in _EXP_HARD + _seeded(200, -745.0, 709.78, 1):
        _check_libm(math.exp, mpmath.exp, Enclosure.point(v).exp(), v)


def test_log_against_mpmath():
    exponents = random.Random(3).choices(range(-1074, 1024), k=200)
    spread = tuple(map(math.ldexp, _seeded(200, 1.0, 2.0, 2), exponents))
    for v in _LOG_HARD + _seeded(200, 0.5, 2.0, 4) + spread:
        _check_libm(math.log, mpmath.log, Enclosure.point(v).log(), v)
