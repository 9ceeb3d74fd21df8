"""Exact polynomial machinery: shifts, sign rules, Sturm, certificates.

Every result here is exact (the Sturm chain and the Taylor shift run on
integer vectors, scaled by positive constants only), so the oracles are
exact too: root sets built from known factors, evaluation identities, a
plain Fraction Horner evaluation, sympy's root counts, the
Descartes/Sturm agreement on constructed polynomials, and a hash of
certificate verdicts and methods recorded from an earlier implementation.
"""

import hashlib
import json
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from monocert.exactpoly import (
    METHOD_SHIFTED_COEFFS,
    METHOD_STURM,
    RationalPolynomial,
    VERDICT_NOT_CERTIFIED,
    VERDICT_POSITIVE,
    certify_positive_on_ray,
)

rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=20
)
small_polys = st.lists(rationals, min_size=0, max_size=7).map(RationalPolynomial)


def test_trailing_zeros_stripped_and_degree():
    p = RationalPolynomial([1, 2, 0, 0])
    assert p.coeffs == (Fraction(1), Fraction(2))
    assert p.degree == 1
    z = RationalPolynomial([0, 0])
    assert z.is_zero and z.degree == -1 and z.coeffs == ()


def test_eval_at_is_exact():
    p = RationalPolynomial([Fraction(1, 3), 0, 1])  # x^2 + 1/3
    assert p.eval_at(Fraction(1, 2)) == Fraction(7, 12)


@given(small_polys, rationals)
def test_eval_at_matches_fraction_horner(p, x):
    acc = Fraction(0)
    for c in reversed(p.coeffs):
        acc = acc * x + c
    assert p.eval_at(x) == acc


def test_bool_is_not_an_exact_rational():
    with pytest.raises(TypeError):
        RationalPolynomial([1, True])
    with pytest.raises(TypeError):
        RationalPolynomial([1, "1/2"])
    with pytest.raises(TypeError):
        RationalPolynomial([1, 1]).eval_at(False)


@given(small_polys, rationals, rationals)
@settings(max_examples=200)
def test_taylor_shift_evaluation_identity(p, a, x):
    assert p.taylor_shift(a).eval_at(x) == p.eval_at(x + a)


@given(small_polys, rationals)
def test_taylor_shift_round_trip(p, a):
    assert p.taylor_shift(a).taylor_shift(-a) == p


@given(small_polys, small_polys)
def test_derivative_is_linear(p, q):
    lhs = RationalPolynomial(
        [x + y for x, y in zip(
            list(p.coeffs) + [Fraction(0)] * (len(q.coeffs)),
            list(q.coeffs) + [Fraction(0)] * (len(p.coeffs)),
        )]
    ).derivative()
    rhs_coeffs_p = p.derivative().coeffs
    rhs_coeffs_q = q.derivative().coeffs
    width = max(len(rhs_coeffs_p), len(rhs_coeffs_q))
    rhs = RationalPolynomial(
        [
            (rhs_coeffs_p[i] if i < len(rhs_coeffs_p) else Fraction(0))
            + (rhs_coeffs_q[i] if i < len(rhs_coeffs_q) else Fraction(0))
            for i in range(width)
        ]
    )
    assert lhs == rhs


@given(small_polys, small_polys, rationals)
def test_ring_operations_evaluation_identity(p, q, t):
    assert (p + q).eval_at(t) == p.eval_at(t) + q.eval_at(t)
    assert (p - q).eval_at(t) == p.eval_at(t) - q.eval_at(t)
    assert (p * q).eval_at(t) == p.eval_at(t) * q.eval_at(t)


@given(small_polys, rationals, rationals)
def test_ring_operations_with_constants(p, c, t):
    assert (p + c).eval_at(t) == p.eval_at(t) + c
    assert (p - c).eval_at(t) == p.eval_at(t) - c
    assert (c * p).eval_at(t) == (p * c).eval_at(t) == c * p.eval_at(t)


def test_derivative_example():
    p = RationalPolynomial([5, -3, 0, 2])  # 2x^3 - 3x + 5
    assert p.derivative() == RationalPolynomial([-3, 0, 6])


def test_descartes_skips_zero_coefficients():
    assert RationalPolynomial([-1, 0, 0, 1]).descartes_sign_changes() == 1
    assert RationalPolynomial([1, -1, 1]).descartes_sign_changes() == 2
    assert RationalPolynomial([1, 0, 1]).descartes_sign_changes() == 0
    with pytest.raises(ValueError):
        RationalPolynomial([]).descartes_sign_changes()


@st.composite
def root_built_polys(draw):
    """Product of distinct rational linear factors with known roots."""
    roots = draw(
        st.lists(
            st.fractions(min_value=Fraction(-8), max_value=Fraction(8),
                         max_denominator=6),
            min_size=1, max_size=5, unique=True,
        )
    )
    lead = draw(st.fractions(min_value=Fraction(1, 3), max_value=Fraction(5),
                             max_denominator=4))
    p = RationalPolynomial([lead])
    for r in roots:
        factor = RationalPolynomial([-r, 1])
        p = RationalPolynomial(
            [
                sum(
                    p.coeffs[i] * factor.coeffs[j]
                    for i in range(len(p.coeffs))
                    for j in range(len(factor.coeffs))
                    if i + j == k
                )
                for k in range(len(p.coeffs) + 1)
            ]
        )
    return p, sorted(roots)


@given(root_built_polys())
@settings(max_examples=150)
def test_descartes_and_sturm_against_known_roots(built):
    p, roots = built
    positive = [r for r in roots if r > 0]
    changes = p.descartes_sign_changes()
    assert changes >= len(positive)
    assert (changes - len(positive)) % 2 == 0
    # every root lies strictly inside (-b, b)
    b = 1 + max(abs(r) for r in roots)
    if 0 not in roots:
        assert p.sturm_root_count(0, b) == len(positive)
    assert p.sturm_root_count(-b, b) == len(roots)


def test_sturm_rejects_root_endpoints():
    p = RationalPolynomial([2, -3, 1])  # (x-1)(x-2)
    assert p.sturm_root_count(0, 3) == 2
    assert p.sturm_root_count(Fraction(3, 2), 3) == 1
    for a, b in ((1, 2), (1, 3), (0, 2)):
        with pytest.raises(ValueError):
            p.sturm_root_count(a, b)
    # a double root at an end, and roots close to a non-root end
    with pytest.raises(ValueError):
        (p * p).sturm_root_count(0, 1)
    eps = Fraction(1, 1000)
    near_lo = RationalPolynomial([-eps, 1]) * RationalPolynomial([-2 * eps, 1])
    assert near_lo.sturm_root_count(0, 1) == 2
    assert (-near_lo).sturm_root_count(Fraction(3, 2) * eps, 1) == 1


def test_sturm_counts_distinct_roots_once():
    p = RationalPolynomial([1, -2, 1])  # (x-1)^2
    assert p.sturm_root_count(0, 2) == 1


@st.composite
def sturm_cases(draw):
    """(p, a, b): p has rational roots, some repeated, a leading
    coefficient of either sign and sometimes a further factor with
    irrational or no real roots; a and b are often roots of p."""
    roots = draw(st.lists(
        st.fractions(min_value=-6, max_value=6, max_denominator=5), max_size=4
    ))
    lead = draw(rationals.filter(bool))
    p = RationalPolynomial([lead])
    for r in roots:
        for _ in range(draw(st.integers(1, 3))):
            p = p * RationalPolynomial([-r, 1])
    extra = draw(small_polys)
    if not extra.is_zero:
        p = p * extra
    if draw(st.booleans()):  # p(x^2): remainders drop two degrees
        p = RationalPolynomial([c for a in p.coeffs for c in (a, 0)])
    point = st.fractions(min_value=-8, max_value=8, max_denominator=9)
    if roots:
        point = st.one_of(st.sampled_from(roots), point)
    a = draw(point)
    b = draw(point.filter(lambda t: t != a))
    return (p, a, b) if a < b else (p, b, a)


def _sympy_open_count(p, a, b) -> int:
    """sympy's count of distinct real roots in (a, b)."""
    x = sympy.Symbol("x")
    q = sympy.Poly(
        [sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)],
        x,
    )
    if q.is_ground:
        return 0
    closed = q.count_roots(sympy.Rational(a.numerator, a.denominator),
                           sympy.Rational(b.numerator, b.denominator))
    return closed - (p.eval_at(a) == 0) - (p.eval_at(b) == 0)


@given(sturm_cases())
@settings(max_examples=200, deadline=None)
def test_sturm_count_matches_sympy(case):
    p, a, b = case
    if p.eval_at(a) == 0 or p.eval_at(b) == 0:
        with pytest.raises(ValueError):
            p.sturm_root_count(a, b)
    else:
        assert p.sturm_root_count(a, b) == _sympy_open_count(p, a, b)


def test_sturm_counts_with_degree_gaps_and_negative_leads():
    # In the chains of even and odd polynomials each remainder drops two
    # degrees, so some pseudo-divisions run an odd number of steps; with
    # a negative divisor lead, scaling by lc instead of |lc| would flip
    # that chain member's sign.
    even = RationalPolynomial([4, 0, -5, 0, 1])  # (x^2-1)(x^2-4)
    odd = even * RationalPolynomial([0, 1])
    for p, roots in ((even, 4), (odd, 5)):
        for sign in (1, -1):
            assert (sign * p).sturm_root_count(-3, 3) == roots
            assert (sign * p).sturm_root_count(Fraction(1, 2), 3) == 2


def _certificate_corpus(count=300, seed=20261018):
    """Seeded rational polynomials: a leading constant of either sign
    times one to four factors, each a positive-definite quadratic
    (x - c)^2 + w or a linear factor, sometimes squared, whose root may
    lie at 1 or beyond."""
    rng = random.Random(seed)
    for _ in range(count):
        sign = -1 if rng.random() < 0.15 else 1
        p = RationalPolynomial([Fraction(sign * rng.randint(1, 9), rng.randint(1, 7))])
        for _ in range(rng.randint(1, 4)):
            if rng.random() < 0.55:
                c = Fraction(rng.randint(-20, 60), rng.randint(1, 9))
                w = Fraction(rng.randint(1, 30), rng.randint(1, 40))
                f = RationalPolynomial([c * c + w, -2 * c, 1])
            else:
                r = Fraction(rng.randint(-60, 14), rng.randint(1, 12))
                f = RationalPolynomial([-r, 1])
                if rng.random() < 0.3:
                    f = f * f
            p = p * f
        yield p


# SHA-256 of the corpus's [verdict, method] list, recorded with the
# implementation that ran Sturm on the square-free part of p (148 Sturm,
# 92 shifted-coefficient, 60 not certified); that implementation's full
# certificates matched those of the all-Fraction one before it
_CORPUS_SHA256 = "80ddc51df2c6715ead663f6ae7ab3aa7306bb9c361dd46116bc5ce4b4f5a9ca4"


def test_certificates_match_recorded_hash():
    certs = [certify_positive_on_ray(p, 1) for p in _certificate_corpus()]
    blob = json.dumps([[c.verdict, c.method] for c in certs], separators=(",", ":"))
    assert hashlib.sha256(blob.encode()).hexdigest() == _CORPUS_SHA256


def test_sturm_rejects_degenerate_input():
    p = RationalPolynomial([1, 1])
    with pytest.raises(ValueError):
        p.sturm_root_count(2, 2)
    with pytest.raises(ValueError):
        RationalPolynomial([]).sturm_root_count(0, 1)


def test_certificate_shifted_coeffs_method():
    p = RationalPolynomial([-1, -1, 3, 1])
    cert = certify_positive_on_ray(p, Fraction(1))
    assert cert.verdict == VERDICT_POSITIVE
    assert cert.method == METHOD_SHIFTED_COEFFS
    # (x-1)^2 + 1 on [1, oo) shifts to x^2 + 1: nonnegative, not positive
    p = RationalPolynomial([2, -2, 1])
    assert p.taylor_shift(Fraction(1)).coeffs == (1, 0, 1)
    cert = certify_positive_on_ray(p, Fraction(1))
    assert cert.method == METHOD_SHIFTED_COEFFS


def test_certificate_sturm_method():
    # (x-1)^2 + 1/100 is positive everywhere but has negative middle
    # coefficient after the zero shift
    p = RationalPolynomial([Fraction(101, 100), -2, 1])
    cert = certify_positive_on_ray(p, Fraction(0))
    assert cert.verdict == VERDICT_POSITIVE
    assert cert.method == METHOD_STURM


@pytest.mark.parametrize("p, a", [
    # (x+1)((x-3)^2+1): real root -1, complex roots 3 +- i
    (RationalPolynomial([1, 1]) * RationalPolynomial([10, -6, 1]), 1),
    (RationalPolynomial([1, 1]) * RationalPolynomial([10, -6, 1])
     * RationalPolynomial([5, 4, 1]), 1),
    # ((x-5)^2+1)(x^2+1): no real roots at all
    (RationalPolynomial([26, -10, 1]) * RationalPolynomial([1, 0, 1]), 0),
])
def test_certificate_sturm_when_real_roots_lie_below_start(p, a):
    """Every real root lies below a, but complex roots right of a leave
    a negative shifted coefficient, so only the Sturm stage can decide.
    The chain has sign variations at +infinity, so comparing those at a
    with zero instead would refuse these."""
    assert min(p.taylor_shift(a).coeffs) < 0
    cert = certify_positive_on_ray(p, a)
    assert cert.verdict == VERDICT_POSITIVE
    assert cert.method == METHOD_STURM
    assert p.sturm_root_count(a, 10 ** 6) == 0


def test_certificate_refuses_polynomial_negative_at_start():
    p = RationalPolynomial([-1, 0, 1])  # x^2 - 1, negative at 0
    cert = certify_positive_on_ray(p, Fraction(0))
    assert cert.verdict == VERDICT_NOT_CERTIFIED
    assert cert.method is None


def test_certificate_refuses_eventually_negative_polynomial():
    p = RationalPolynomial([10, -1])  # 10 - x
    cert = certify_positive_on_ray(p, Fraction(1))
    assert cert.verdict == VERDICT_NOT_CERTIFIED


def test_certificate_zero_polynomial_not_certified():
    cert = certify_positive_on_ray(RationalPolynomial([]), Fraction(0))
    assert cert.verdict == VERDICT_NOT_CERTIFIED


@given(root_built_polys(), st.fractions(min_value=Fraction(1, 2),
                                        max_value=Fraction(4),
                                        max_denominator=4))
@settings(max_examples=150)
def test_certificate_never_lies(built, offset):
    """Whenever a certificate is issued the polynomial really is
    positive at many points of the ray; whenever the largest real root
    sits at or beyond the ray start, no certificate may be issued."""
    p, roots = built
    a = (max(roots) if roots else Fraction(0)) + offset
    cert = certify_positive_on_ray(p, a)
    if p.coeffs[-1] > 0:
        assert cert.verdict == VERDICT_POSITIVE
        for k in range(12):
            assert p.eval_at(a + Fraction(k, 3)) > 0
    else:
        assert cert.verdict == VERDICT_NOT_CERTIFIED
    beyond = [r for r in roots if r >= a]
    assert not beyond  # construction keeps the ray root-free


def test_certificate_refused_when_root_inside_ray():
    p = RationalPolynomial([6, -5, 1])  # roots 2 and 3
    cert = certify_positive_on_ray(p, Fraction(5, 2))
    assert cert.verdict == VERDICT_NOT_CERTIFIED


def test_one_sign_change_with_positive_start_always_uses_first_method():
    """Single-sign-change polynomials positive at the ray start always
    certify by shifted coefficients (the shift of such a polynomial
    provably has nonnegative coefficients)."""
    cases = [
        (RationalPolynomial([-1, -1, 3, 1]), Fraction(1)),
        (RationalPolynomial([-1, 0, 2, 8, 3]), Fraction(1)),
        (RationalPolynomial([-100, -1, -1, -1, -1, 1]), Fraction(3)),
        (RationalPolynomial([0, 0, -3, 1]), Fraction(4)),
        (RationalPolynomial([-1, 0, 0, 0, 1]), Fraction(2)),
    ]
    for p, a in cases:
        assert p.descartes_sign_changes() == 1
        assert p.eval_at(a) > 0
        cert = certify_positive_on_ray(p, a)
        assert cert.method == METHOD_SHIFTED_COEFFS


@st.composite
def one_sign_change_cases(draw):
    """(p, a) with p's coefficient signs running - then + (zeros
    anywhere), a positive lead, a rational a > 0 and p(a) > 0."""
    low = draw(st.lists(
        st.fractions(min_value=-50, max_value=0, max_denominator=20),
        min_size=1, max_size=6,
    ))
    low[draw(st.integers(0, len(low) - 1))] = draw(
        st.fractions(min_value=-50, max_value=Fraction(-1, 20), max_denominator=20)
    )
    high = draw(st.lists(
        st.fractions(min_value=0, max_value=50, max_denominator=20), max_size=5
    ))
    lead = draw(st.fractions(min_value=Fraction(1, 20), max_value=50, max_denominator=20))
    a = draw(st.fractions(min_value=Fraction(1, 20), max_value=10, max_denominator=20))
    p = RationalPolynomial(low + high + [lead])
    value = p.eval_at(a)
    if value <= 0:
        # raise the lead until p(a) is the drawn margin, often a tiny one
        margin = draw(st.fractions(
            min_value=Fraction(1, 10**6), max_value=10, max_denominator=10**6
        ))
        p = RationalPolynomial(low + high + [lead + (margin - value) / a ** p.degree])
    return p, a


@given(one_sign_change_cases())
@settings(max_examples=300, deadline=None)
def test_one_sign_change_lemma(case):
    """The lemma in certify_positive_on_ray's docstring: one sign
    change, positive lead, a > 0 and p(a) > 0 make every coefficient of
    p(x + a) nonnegative, so no Descartes stage is needed."""
    p, a = case
    assert p.descartes_sign_changes() == 1
    assert p.coeffs[-1] > 0 and a > 0 and p.eval_at(a) > 0
    assert all(c >= 0 for c in p.taylor_shift(a).coeffs)
    assert certify_positive_on_ray(p, a).method == METHOD_SHIFTED_COEFFS
