"""Rigorous enclosures of log-gamma and polygamma, and their test oracles.

Strategy for every special function here: push the argument up to at
least 8 with the exact recurrences, then sum the Bernoulli asymptotic
series truncated at the B10 term; one table of Bernoulli numbers
gives the coefficients of log Gamma and of every polygamma order.  For
real positive arguments those series envelop the true value
(consecutive Bernoulli terms alternate in sign), so the truncation
error is at most the first omitted term; that term, evaluated in
interval arithmetic, is added symmetrically.  `ln_gamma_over_x`
keeps only the first omitted term's envelope and divides by x, for
arguments at which log Gamma itself overflows.

The elementary two-sided bounds (`digamma_bounds`, `polygamma_bounds`,
`log1p_bounds`) are independent of the series route on purpose: they
are test oracles, against which the suite checks the rigorous
enclosures.  No replay step calls them; the bounds the replay
substitutes are held as polynomials in `targets`, and ROADMAP item 2
will make these functions the source of those substituted bounds.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .enclosure import DomainError, Enclosure, LN_PI, _lift

__all__ = [
    "ln_gamma",
    "ln_gamma_over_x",
    "polygamma",
    "digamma_bounds",
    "polygamma_bounds",
    "log1p_bounds",
    "BoundPair",
]

_SHIFT_THRESHOLD = 8.0

# Bernoulli numbers B_2, B_4, ..., B_12: the only series data.
_BERNOULLI = (
    Fraction(1, 6),
    Fraction(-1, 30),
    Fraction(1, 42),
    Fraction(-1, 30),
    Fraction(5, 66),
    Fraction(-691, 2730),
)


def _series_coefficients(k: int) -> tuple:
    """Enclosures of (-1)^(k+1) B_2n (2n+k-1)!/(2n)! for n = 1..6: the
    coefficient of y^-(2n+k) in the asymptotic series of psi^(k)(y),
    where k = -1 stands for log Gamma(y).  The n = 6 term bounds the
    truncation error."""
    return tuple(
        Enclosure.from_rational(
            (-1) ** (k + 1) * b * Fraction(math.factorial(2 * n + k - 1), math.factorial(2 * n))
        )
        for n, b in enumerate(_BERNOULLI, 1)
    )


_SERIES = {k: _series_coefficients(k) for k in (-1, 0, 1, 2)}

_ONE = Enclosure(1.0, 1.0)
_HALF = Enclosure(0.5, 0.5)
_HALF_LN_TWO_PI = (LN_PI + Enclosure(2.0, 2.0).log()) * _HALF


def _shift_count(x: Enclosure) -> int:
    if x.lo >= _SHIFT_THRESHOLD:
        return 0
    return int(math.ceil(_SHIFT_THRESHOLD - x.lo))


def _symmetric(r: Enclosure) -> Enclosure:
    m = max(abs(r.lo), abs(r.hi))
    return Enclosure(-m, m)


def _asymptotic(k: int, y: Enclosure) -> Enclosure:
    """psi^(k)(y), or log Gamma(y) for k = -1, from the Bernoulli series
    with its first omitted term added symmetrically; needs y >= 8."""
    inv = _ONE / y
    inv2 = inv * inv
    if k == -1:
        res = (y - _HALF) * y.log() - y + _HALF_LN_TWO_PI
        p = inv
    elif k == 0:
        res = y.log() - inv * _HALF
        p = inv2
    elif k == 1:
        res = inv + inv2 * _HALF
        p = inv * inv2
    else:
        res = -(inv2 + inv * inv2)
        p = inv2 * inv2
    *terms, tail = _SERIES[k]
    for c in terms:
        res = res + c * p
        p = p * inv2
    return res + _symmetric(tail * p)


def ln_gamma(x) -> Enclosure:
    """Enclosure of log Gamma(x) for x with positive lower endpoint."""
    xe = _lift(x)
    if xe.lo <= 0.0:
        raise DomainError(f"ln_gamma needs a positive argument, got {xe!r}")
    k = _shift_count(xe)
    res = _asymptotic(-1, xe + k if k else xe)
    # log Gamma(x) = log Gamma(x + k) - sum log(x + j)
    for j in range(k):
        res = res - (xe + j).log()
    return res


def ln_gamma_over_x(x) -> Enclosure:
    """Enclosure of log Gamma(x) / x for x > 0, finite where log Gamma(x)
    overflows: the Bernoulli envelope log Gamma(x) = (x - 1/2) log x - x
    + log(2 pi)/2 + theta/(12x), 0 < theta < 1, divided by x."""
    xe = _lift(x)
    if xe.lo <= 0.0:
        raise DomainError(f"ln_gamma_over_x needs a positive argument, got {xe!r}")
    inv = _ONE / xe
    remainder = Enclosure(0.0, (inv / 12).hi)  # theta/(12x)
    return (_ONE - inv * _HALF) * xe.log() - _ONE + (_HALF_LN_TWO_PI + remainder) * inv


def polygamma(k: int, x) -> Enclosure:
    """Enclosure of psi^(k)(x) for k in {0, 1, 2} and x > 0.

    Uses psi^(k)(x) = psi^(k)(x+1) + (-1)^(k+1) k!/x^(k+1) to reach an
    argument >= 8, then the asymptotic series.
    """
    if k not in (0, 1, 2):
        raise DomainError(f"polygamma order {k} not supported (need 0, 1 or 2)")
    xe = _lift(x)
    if xe.lo <= 0.0:
        raise DomainError(f"polygamma needs a positive argument, got {xe!r}")
    shift = _shift_count(xe)
    res = _asymptotic(k, xe + shift if shift else xe)
    numerator = Enclosure.point((-1) ** (k + 1) * math.factorial(k))
    for j in range(shift):
        res = res + numerator / (xe + j).pow_int(k + 1)
    return res


class BoundPair(NamedTuple):
    """Outer rounding of a two-sided analytic bound: lower down, upper up."""

    lower: float
    upper: float

    @property
    def gap(self) -> float:
        return self.upper - self.lower


def digamma_bounds(x) -> BoundPair:
    """Elementary bracket ln x - 1/x < psi(x) < ln x - 1/(2x), x > 0."""
    xe = _lift(x)
    if xe.lo <= 0.0:
        raise DomainError(f"digamma_bounds needs x > 0, got {xe!r}")
    t = xe.log()
    lower = t - Enclosure(1.0, 1.0) / xe
    upper = t - Enclosure(1.0, 1.0) / (xe * 2)
    return BoundPair(lower.lo, upper.hi)


def polygamma_bounds(k: int, x) -> BoundPair:
    """Elementary bracket of |psi^(k)(x)| for k >= 1 and x > 0:

        (k-1)!/x^k + k!/(2 x^(k+1)) < |psi^(k)(x)| < (k-1)!/x^k + k!/x^(k+1)
    """
    if k < 1:
        raise DomainError(f"polygamma_bounds needs k >= 1, got {k}")
    xe = _lift(x)
    if xe.lo <= 0.0:
        raise DomainError(f"polygamma_bounds needs x > 0, got {xe!r}")
    head = math.factorial(k - 1) / xe.pow_int(k)
    tail = math.factorial(k) / xe.pow_int(k + 1)
    lower = head + tail * _HALF
    upper = head + tail
    return BoundPair(lower.lo, upper.hi)


def log1p_bounds(t) -> BoundPair:
    """Elementary bracket 2t/(2+t) <= ln(1+t) <= t(2+t)/(2(1+t)), t > 0."""
    te = _lift(t)
    if te.lo <= 0.0:
        raise DomainError(f"log1p_bounds needs t > 0, got {te!r}")
    lower = (te * 2) / (te + 2)
    upper = te * (te + 2) / ((te + 1) * 2)
    return BoundPair(lower.lo, upper.hi)
