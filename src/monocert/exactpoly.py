"""Exact rational polynomial arithmetic and positivity certificates.

Coefficients are `fractions.Fraction` values stored in ascending order
(constant term first), so every evaluation, derivative, Taylor shift,
Descartes count and Sturm count below is exact integer arithmetic in
disguise.  The certificates turn "p > 0 on [a, infinity)" into a
finite, replayable piece of evidence.
"""

from __future__ import annotations

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
METHOD_DESCARTES = "descartes-one-root-localized"
METHOD_STURM = "sturm-zero-roots"

VERDICT_POSITIVE = "positive"
VERDICT_NOT_CERTIFIED = "not-certified"


def _frac(v) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, str):
        return Fraction(v)
    raise TypeError(f"expected exact rational, got {type(v).__name__}")


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

    @property
    def leading_coefficient(self) -> Fraction:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

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
        """Horner evaluation at an exact rational point."""
        xq = _frac(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * xq + c
        return acc

    def derivative(self) -> "RationalPolynomial":
        return RationalPolynomial(
            i * c for i, c in enumerate(self.coeffs) if i > 0
        )

    def taylor_shift(self, a) -> "RationalPolynomial":
        """Exact coefficients of x -> p(x + a), ascending.

        Computed by repeated synthetic division by (x - a); the k-th
        remainder is p^(k)(a)/k!.
        """
        aq = _frac(a)
        if self.is_zero:
            return RationalPolynomial()
        work = list(reversed(self.coeffs))
        out = []
        for _ in range(len(work)):
            acc = work[0]
            divided = [acc]
            for c in work[1:]:
                acc = acc * aq + c
                divided.append(acc)
            out.append(divided[-1])
            work = divided[:-1]
        return RationalPolynomial(out)

    def descartes_sign_changes(self) -> int:
        """Sign changes of the coefficient sequence, zeros skipped.

        Bounds the number of positive real roots (counted with
        multiplicity) and matches it modulo 2.
        """
        if self.is_zero:
            raise ValueError("Descartes count of the zero polynomial")
        signs = [1 if c > 0 else -1 for c in self.coeffs if c != 0]
        return sum(1 for s, t in zip(signs, signs[1:]) if s != t)

    def cauchy_root_bound(self) -> Fraction:
        """1 + max |c_i / c_deg|: every real root lies in [-B, B]."""
        if self.is_zero:
            raise ValueError("root bound of the zero polynomial")
        lead = abs(self.leading_coefficient)
        rest = [abs(c) / lead for c in self.coeffs[:-1]]
        return 1 + (max(rest) if rest else Fraction(0))

    # -- Sturm machinery ---------------------------------------------

    def _divmod(self, den: "RationalPolynomial"):
        if den.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dn = den.coeffs
        quot = [Fraction(0)] * max(0, len(rem) - len(dn) + 1)
        while len(rem) >= len(dn):
            while rem and rem[-1] == 0:
                rem.pop()
            if len(rem) < len(dn):
                break
            shift = len(rem) - len(dn)
            factor = rem[-1] / dn[-1]
            quot[shift] = factor
            for i, c in enumerate(dn):
                rem[shift + i] -= factor * c
        return RationalPolynomial(quot), RationalPolynomial(rem)

    def _gcd(self, other: "RationalPolynomial") -> "RationalPolynomial":
        a, b = self, other
        while not b.is_zero:
            _, r = a._divmod(b)
            a, b = b, r
        if a.is_zero:
            return a
        lead = a.leading_coefficient
        return RationalPolynomial(c / lead for c in a.coeffs)

    def squarefree_part(self) -> "RationalPolynomial":
        if self.is_zero:
            raise ValueError("square-free part of the zero polynomial")
        if self.degree == 0:
            return RationalPolynomial(self.coeffs)
        g = self._gcd(self.derivative())
        if g.degree <= 0:
            return self
        q, _ = self._divmod(g)
        return q

    def sturm_sequence(self) -> list["RationalPolynomial"]:
        """Canonical Sturm chain of the square-free part."""
        q = self.squarefree_part()
        seq = [q]
        if q.degree >= 1:
            seq.append(q.derivative())
            while seq[-1].degree >= 1:
                _, r = seq[-2]._divmod(seq[-1])
                if r.is_zero:
                    break
                seq.append(-r)
        return seq

    def sturm_root_count(self, a, b) -> int:
        """Exact number of distinct real roots in the open interval (a, b).

        Endpoints that are themselves roots are nudged inward by an
        exact eps = 2**-k, with k grown until the nudge provably skips
        no root (the chain itself validates each nudge).
        """
        aq, bq = _frac(a), _frac(b)
        if aq >= bq:
            raise ValueError(f"empty interval ({aq}, {bq})")
        if self.is_zero:
            raise ValueError("root count of the zero polynomial")
        sqf = self.squarefree_part()
        if sqf.degree <= 0:
            return 0
        seq = sqf.sturm_sequence()

        def variations(t: Fraction) -> int:
            signs = []
            for s in seq:
                v = s.eval_at(t)
                if v != 0:
                    signs.append(1 if v > 0 else -1)
            return sum(1 for s, t2 in zip(signs, signs[1:]) if s != t2)

        lo = aq
        if sqf.eval_at(lo) == 0:
            k = 8
            while True:
                cand = aq + Fraction(1, 2**k)
                if (
                    cand < bq
                    and sqf.eval_at(cand) != 0
                    and variations(aq) - variations(cand) == 0
                ):
                    lo = cand
                    break
                k += 1
        hi = bq
        if sqf.eval_at(hi) == 0:
            k = 8
            while True:
                cand = bq - Fraction(1, 2**k)
                if (
                    cand > lo
                    and sqf.eval_at(cand) != 0
                    and variations(cand) - variations(bq) == 1
                ):
                    hi = cand
                    break
                k += 1
        return variations(lo) - variations(hi)

    # -- serialization -----------------------------------------------

    def to_json_obj(self) -> list[str]:
        return [f"{c.numerator}/{c.denominator}" for c in self.coeffs]

    @classmethod
    def from_json_obj(cls, obj: list[str]) -> "RationalPolynomial":
        return cls(Fraction(s) for s in obj)


@dataclass(frozen=True)
class PositivityCertificate:
    """Replayable evidence that a polynomial is positive on [a, infinity)."""

    polynomial: RationalPolynomial
    domain_start: Fraction
    verdict: str
    method: Optional[str]
    sign_changes: Optional[int]
    endpoint_values: tuple
    localization_point: Optional[Fraction]

    def to_json_obj(self) -> dict:
        return {
            "polynomial": self.polynomial.to_json_obj(),
            "domain_start": f"{self.domain_start.numerator}/{self.domain_start.denominator}",
            "verdict": self.verdict,
            "method": self.method,
            "sign_changes": self.sign_changes,
            "endpoint_values": [
                [f"{p.numerator}/{p.denominator}", f"{v.numerator}/{v.denominator}"]
                for p, v in self.endpoint_values
            ],
            "localization_point": (
                None
                if self.localization_point is None
                else f"{self.localization_point.numerator}/{self.localization_point.denominator}"
            ),
        }


def certify_positive_on_ray(
    p: RationalPolynomial, a, localization: Optional[Fraction] = None
) -> PositivityCertificate:
    """Try to certify p(x) > 0 for all x >= a, in three exact stages.

    1. Shifted-coefficient test: every coefficient of p(x + a)
       nonnegative with positive constant term.
    2. Descartes localization: exactly one coefficient sign change (so
       exactly one positive root), with that root pinned below a by
       p(c) < 0 <= c < a and p(a) > 0, positive leading coefficient.
    3. Sturm: zero distinct roots in (a, B] for the Cauchy bound B,
       together with p(a) > 0.

    The first stage that succeeds names the certificate's method.
    """
    aq = _frac(a)
    if p.is_zero:
        return PositivityCertificate(
            p, aq, VERDICT_NOT_CERTIFIED, None, None, (), None
        )
    value_at_a = p.eval_at(aq)
    changes = p.descartes_sign_changes()
    endpoints = [(aq, value_at_a)]

    shifted = p.taylor_shift(aq)
    if value_at_a > 0 and all(c >= 0 for c in shifted.coeffs):
        return PositivityCertificate(
            p, aq, VERDICT_POSITIVE, METHOD_SHIFTED_COEFFS, changes,
            tuple(endpoints), None,
        )

    c = Fraction(0) if localization is None else _frac(localization)
    if 0 <= c < aq:
        value_at_c = p.eval_at(c)
        endpoints.append((c, value_at_c))
        if (
            changes == 1
            and value_at_a > 0
            and value_at_c < 0
            and p.leading_coefficient > 0
        ):
            return PositivityCertificate(
                p, aq, VERDICT_POSITIVE, METHOD_DESCARTES, changes,
                tuple(endpoints), c,
            )

    if value_at_a > 0:
        bound = p.cauchy_root_bound()
        if bound <= aq or p.sturm_root_count(aq, max(bound, aq + 1)) == 0:
            return PositivityCertificate(
                p, aq, VERDICT_POSITIVE, METHOD_STURM, changes,
                tuple(endpoints), None,
            )

    return PositivityCertificate(
        p, aq, VERDICT_NOT_CERTIFIED, None, changes, tuple(endpoints), None
    )
