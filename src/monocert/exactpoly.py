"""Exact rational polynomial arithmetic and positivity certificates.

A polynomial's coefficients are `fractions.Fraction` values stored in
ascending order (constant term first), and every value this module
returns is exact.  A certificate answers "is p > 0 on [a, infinity)?"
with a verdict and the name of the exact stage that settled it.

Every question a certificate asks is a sign question: the signs of the
shifted coefficients, the sign of p at a point, and the sign variations
of a Sturm chain.  Scaling by a positive constant keeps all of them, so
the evaluation, Taylor shift and Sturm machinery run on integer
coefficient vectors: denominators are cleared once, by their positive
lcm; each Sturm chain member is divided by its positive content; a
pseudo-remainder scales by |lc|, never by a possibly negative lc; and a
point n/d with d > 0 is evaluated homogeneously, which scales the value
by d^deg.  Only the rational results are rebuilt as `Fraction`.

The Sturm chain runs on p itself, square-free or not: it ends at
gcd(p, p'), which divides every member and has no zero away from the
roots of p, so between two points that are not roots of p the drop in
sign variations counts the distinct roots (Sturm's theorem in its
Cauchy-index form).  Interval ends must therefore not be roots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from typing import Iterable, Optional

__all__ = [
    "RationalPolynomial",
    "PositivityCertificate",
    "certify_positive_on_ray",
]

METHOD_SHIFTED_COEFFS = "all-shifted-coefficients-nonnegative"
METHOD_STURM = "sturm-zero-roots"

VERDICT_POSITIVE = "positive"
VERDICT_NOT_CERTIFIED = "not-certified"


def _frac(v) -> Fraction:
    if type(v) is Fraction or isinstance(v, Fraction):
        return v
    if isinstance(v, bool):
        raise TypeError("bool is not an exact rational")
    if isinstance(v, int):
        return Fraction(v)
    raise TypeError(f"expected exact rational, got {type(v).__name__}")


def _cleared(coeffs: tuple) -> tuple[list[int], int]:
    """(L*c for each coefficient c, L) for L the lcm of the denominators."""
    lcm = math.lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (lcm // c.denominator) for c in coeffs], lcm


def _homogeneous(cs: list[int], n: int, d: int) -> int:
    """sum of c_i n^i d^(deg-i), which is d^deg times the value at n/d."""
    acc = cs[-1]
    dk = 1
    for c in reversed(cs[:-1]):
        dk *= d
        acc = acc * n + c * dk
    return acc


def _primitive(cs: list[int]) -> list[int]:
    """A nonzero integer vector divided by its (positive) content."""
    g = math.gcd(*cs)
    return cs if g == 1 else [c // g for c in cs]


def _int_derivative(cs: list[int]) -> list[int]:
    return [i * c for i, c in enumerate(cs) if i > 0]


def _prem(a: list[int], b: list[int]) -> list[int]:
    """A positive multiple of the remainder of a by a nonzero b.

    Pseudo-division by b with its leading coefficient made positive, so
    each step scales by |lc(b)|: scaling by a negative lc(b) would flip
    the sign of the remainder wherever an odd number of steps ran.
    """
    if b[-1] < 0:
        b = [-c for c in b]
    lead, db = b[-1], len(b) - 1
    r = list(a)
    while len(r) > db:
        top = r.pop()
        k = len(r) - db
        r = [lead * c for c in r]
        for i in range(db):
            r[k + i] -= top * b[i]
        while r and r[-1] == 0:
            r.pop()
    return r


def _sturm_chain(coeffs: tuple) -> list[list[int]]:
    """Sturm chain of the degree >= 1 polynomial q with these rational
    coefficients: positive integer multiples of the classical q, q',
    -rem(...) members, ending at a multiple of gcd(q, q')."""
    q = _primitive(_cleared(coeffs)[0])
    chain = [q, _primitive(_int_derivative(q))]
    while len(chain[-1]) > 1:
        r = _prem(chain[-2], chain[-1])
        if not r:
            break
        chain.append([-c for c in _primitive(r)])
    return chain


def _variations(chain: list[list[int]], n: int, d: int) -> int:
    """Sign variations of the chain at n/d, zeros skipped; (n, d) = (1, 0)
    is +infinity, where each member's homogeneous value is its lead."""
    signs = [v > 0 for v in (_homogeneous(s, n, d) for s in chain) if v]
    return sum(s != t for s, t in zip(signs, signs[1:]))


def _poly(v) -> "RationalPolynomial":
    return v if isinstance(v, RationalPolynomial) else RationalPolynomial((v,))


class RationalPolynomial:
    """Dense univariate polynomial over the rationals.

    The zero polynomial has an empty coefficient tuple and degree -1.
    Trailing (highest-order) zero coefficients are stripped on
    construction so degree and leading coefficient are canonical.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [_frac(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    # -- basics ------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other) -> bool:
        return isinstance(other, RationalPolynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"RationalPolynomial({list(self.coeffs)!r})"

    # -- ring operations; an int or Fraction operand is a constant ----

    def __neg__(self) -> "RationalPolynomial":
        return RationalPolynomial(-c for c in self.coeffs)

    def __add__(self, other) -> "RationalPolynomial":
        o = _poly(other)
        return RationalPolynomial(
            a + b for a, b in zip_longest(self.coeffs, o.coeffs, fillvalue=0)
        )

    def __sub__(self, other) -> "RationalPolynomial":
        return self + -_poly(other)

    def __mul__(self, other) -> "RationalPolynomial":
        o = _poly(other)
        if self.is_zero or o.is_zero:
            return RationalPolynomial()
        out = [Fraction(0)] * (len(self.coeffs) + len(o.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(o.coeffs):
                out[i + j] += a * b
        return RationalPolynomial(out)

    __rmul__ = __mul__

    # -- exact operations --------------------------------------------

    def eval_at(self, x) -> Fraction:
        """Exact value at a rational point."""
        xq = _frac(x)
        if self.is_zero:
            return Fraction(0)
        ints, lcm = _cleared(self.coeffs)
        d = xq.denominator
        return Fraction(_homogeneous(ints, xq.numerator, d), lcm * d ** self.degree)

    def derivative(self) -> "RationalPolynomial":
        return RationalPolynomial(
            i * c for i, c in enumerate(self.coeffs) if i > 0
        )

    def taylor_shift(self, a) -> "RationalPolynomial":
        """Exact coefficients of x -> p(x + a), ascending.

        With a = n/d and L the lcm of the denominators, R(y) =
        d^deg L p(y/d) has integer coefficients; integer synthetic
        division shifts it to R(y + n), whose k-th coefficient times
        d^k / (d^deg L) is the k-th coefficient of p(x + a).
        """
        aq = _frac(a)
        if self.is_zero:
            return RationalPolynomial()
        ints, lcm = _cleared(self.coeffs)
        n, d = aq.numerator, aq.denominator
        deg = self.degree
        powers = [d ** k for k in range(deg + 1)]
        r = [c * powers[deg - i] for i, c in enumerate(ints)]
        for i in range(deg):
            for j in range(deg - 1, i - 1, -1):
                r[j] += n * r[j + 1]
        den = powers[deg] * lcm
        return RationalPolynomial(
            Fraction(c * powers[k], den) for k, c in enumerate(r)
        )

    def descartes_sign_changes(self) -> int:
        """Sign changes of the coefficient sequence, zeros skipped.

        Bounds the number of positive real roots (counted with
        multiplicity) and matches it modulo 2.
        """
        if self.is_zero:
            raise ValueError("Descartes count of the zero polynomial")
        signs = [1 if c > 0 else -1 for c in self.coeffs if c != 0]
        return sum(1 for s, t in zip(signs, signs[1:]) if s != t)

    def sturm_root_count(self, a, b) -> int:
        """Exact number of distinct real roots in the open interval (a, b).

        Raises ValueError when a or b is itself a root.
        """
        aq, bq = _frac(a), _frac(b)
        if aq >= bq:
            raise ValueError(f"empty interval ({aq}, {bq})")
        if self.is_zero:
            raise ValueError("root count of the zero polynomial")
        if self.degree <= 0:
            return 0
        chain = _sturm_chain(self.coeffs)
        for t in (aq, bq):
            if not _homogeneous(chain[0], t.numerator, t.denominator):
                raise ValueError(f"interval end {t} is a root")
        return (_variations(chain, aq.numerator, aq.denominator)
                - _variations(chain, bq.numerator, bq.denominator))


@dataclass(frozen=True)
class PositivityCertificate:
    """Whether a polynomial is certified positive on [a, infinity), and
    by which stage (None when it is not)."""

    verdict: str
    method: Optional[str]


def certify_positive_on_ray(p: RationalPolynomial, a) -> PositivityCertificate:
    """Try to certify p(x) > 0 for all x >= a, in two exact stages.

    1. Shifted-coefficient test: every coefficient of p(x + a)
       nonnegative with positive constant term.
    2. Sturm: p(a) > 0 and the chain of p has as many sign variations
       at a as at +infinity, so p has no root in (a, +infinity).

    The first stage that succeeds names the certificate's method.

    A Descartes stage (one coefficient sign change, so one positive
    root, pinned below a) would add nothing: if p has exactly one sign
    change, a positive leading coefficient, a > 0 and p(a) > 0, then
    every coefficient of p(x + a) is nonnegative.  With m the index
    where the coefficient signs turn positive, p(x)/x^m increases on
    (0, infinity), so p'(a) > 0 as well; p' has at most one sign change
    and a positive lead, so by induction every derivative is positive
    at a, and those derivatives over k! are the shifted coefficients.
    """
    aq = _frac(a)
    if p.is_zero or p.eval_at(aq) <= 0:
        return PositivityCertificate(VERDICT_NOT_CERTIFIED, None)
    if all(c >= 0 for c in p.taylor_shift(aq).coeffs):
        return PositivityCertificate(VERDICT_POSITIVE, METHOD_SHIFTED_COEFFS)
    chain = _sturm_chain(p.coeffs)
    if _variations(chain, aq.numerator, aq.denominator) == _variations(chain, 1, 0):
        return PositivityCertificate(VERDICT_POSITIVE, METHOD_STURM)
    return PositivityCertificate(VERDICT_NOT_CERTIFIED, None)
