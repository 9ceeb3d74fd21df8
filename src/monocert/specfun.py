"""Rigorous enclosures of log-gamma and polygamma, and their test oracles.

Strategy for every special function here: push the argument up to at
least 8 with the exact recurrences, then sum the Bernoulli asymptotic
series truncated at the B10 term; one table of Bernoulli numbers
gives the coefficients of log Gamma and of every polygamma order.  For
real positive arguments those series envelop the true value
(consecutive Bernoulli terms alternate in sign), so the truncation
error is at most the first omitted term; that term, evaluated in
interval arithmetic, is added symmetrically.  `ln_gamma_over_x` keeps
only the first omitted term's envelope and divides by x, for arguments
at which log Gamma itself overflows.  The series and the recurrences
run on local (lo, hi) float pairs, one interval operation per step in
the written order, through the rounding rules that `Enclosure`'s own
operations use, and build one Enclosure at the end.

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

from .enclosure import (
    DomainError, Enclosure, LN_PI, _div_bounds, _lift, _log_bounds, _mul_bounds,
    _rational_bounds,
)

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
    """Float pairs around (-1)^(k+1) B_2n (2n+k-1)!/(2n)! for n = 1..6:
    the coefficient of y^-(2n+k) in the asymptotic series of psi^(k)(y),
    where k = -1 stands for log Gamma(y).  The n = 6 term bounds the
    truncation error."""
    coeffs = (
        (-1) ** (k + 1) * b * Fraction(math.factorial(2 * n + k - 1), math.factorial(2 * n))
        for n, b in enumerate(_BERNOULLI, 1)
    )
    return tuple(_rational_bounds(c.numerator, c.denominator) for c in coeffs)


_SERIES = {k: _series_coefficients(k) for k in (-1, 0, 1, 2)}

_ONE = Enclosure(1.0, 1.0)
_HALF = Enclosure(0.5, 0.5)
_HALF_LN_TWO_PI = (LN_PI + Enclosure(2.0, 2.0).log()) * _HALF

_INF = math.inf
_nextafter = math.nextafter


def _shift_count(lo: float) -> int:
    if lo >= _SHIFT_THRESHOLD:
        return 0
    return int(math.ceil(_SHIFT_THRESHOLD - lo))


def _shifted(lo: float, hi: float, j: int) -> tuple:
    """[lo, hi] + j, widened by an ulp at each end even for j = 0."""
    return _nextafter(lo + j, -_INF), _nextafter(hi + j, _INF)


def _asymptotic(k: int, lo: float, hi: float) -> tuple:
    """psi^(k)(y), or log Gamma(y) for k = -1, on y = [lo, hi] >= 8, from
    the Bernoulli series with its first omitted term added symmetrically.

    An endpoint that overflows stays infinite through every later step
    here and in the callers' recurrences (polygamma checks the powers,
    whose quotient would hide it), so the Enclosure built at the end
    raises DomainError wherever an interval step would have."""
    ilo, ihi = _div_bounds(1.0, 1.0, lo, hi)
    i2lo, i2hi = _mul_bounds(ilo, ihi, ilo, ihi)
    if k == -1:  # (y - 1/2) ln y - y + ln(2 pi)/2
        rlo, rhi = _mul_bounds(_nextafter(lo - 0.5, -_INF), _nextafter(hi - 0.5, _INF),
                               *_log_bounds(lo, hi))
        rlo, rhi = _nextafter(rlo - hi, -_INF), _nextafter(rhi - lo, _INF)
        c = _HALF_LN_TWO_PI
        rlo, rhi = _nextafter(rlo + c.lo, -_INF), _nextafter(rhi + c.hi, _INF)
        plo, phi = ilo, ihi
    elif k == 0:  # ln y - 1/(2y)
        llo, lhi = _log_bounds(lo, hi)
        hlo, hhi = _mul_bounds(ilo, ihi, 0.5, 0.5)
        rlo, rhi = _nextafter(llo - hhi, -_INF), _nextafter(lhi - hlo, _INF)
        plo, phi = i2lo, i2hi
    elif k == 1:  # 1/y + 1/(2y^2)
        hlo, hhi = _mul_bounds(i2lo, i2hi, 0.5, 0.5)
        rlo, rhi = _nextafter(ilo + hlo, -_INF), _nextafter(ihi + hhi, _INF)
        plo, phi = _mul_bounds(ilo, ihi, i2lo, i2hi)
    else:  # -(1/y^2 + 1/y^3)
        plo, phi = _mul_bounds(ilo, ihi, i2lo, i2hi)
        rlo, rhi = -_nextafter(i2hi + phi, _INF), -_nextafter(i2lo + plo, -_INF)
        plo, phi = _mul_bounds(i2lo, i2hi, i2lo, i2hi)
    *terms, (tlo, thi) = _SERIES[k]
    for clo, chi in terms:
        mlo, mhi = _mul_bounds(clo, chi, plo, phi)
        rlo, rhi = _nextafter(rlo + mlo, -_INF), _nextafter(rhi + mhi, _INF)
        plo, phi = _mul_bounds(plo, phi, i2lo, i2hi)
    mlo, mhi = _mul_bounds(tlo, thi, plo, phi)
    m = max(abs(mlo), abs(mhi))
    return _nextafter(rlo - m, -_INF), _nextafter(rhi + m, _INF)


def ln_gamma(x) -> Enclosure:
    """Enclosure of log Gamma(x) for x with positive lower endpoint."""
    xe = _lift(x)
    lo, hi = xe.lo, xe.hi
    if lo <= 0.0:
        raise DomainError(f"ln_gamma needs a positive argument, got {xe!r}")
    k = _shift_count(lo)
    rlo, rhi = _asymptotic(-1, *(_shifted(lo, hi, k) if k else (lo, hi)))
    # log Gamma(x) = log Gamma(x + k) - sum log(x + j).  The j = 0 term
    # x + 0 widens x by an ulp before its log, which for x = 5e-324
    # reaches down to 0 and raises.  Dropping it changes the pinned grid
    # values, and in polygamma the theorem1 report, so it stays until
    # those are re-recorded.
    for j in range(k):
        llo, lhi = _log_bounds(*_shifted(lo, hi, j))
        rlo, rhi = _nextafter(rlo - lhi, -_INF), _nextafter(rhi - llo, _INF)
    return Enclosure(rlo, rhi)


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
    lo, hi = xe.lo, xe.hi
    shift = _shift_count(lo)
    rlo, rhi = _asymptotic(k, *(_shifted(lo, hi, shift) if shift else (lo, hi)))
    numerator = float((-1) ** (k + 1) * math.factorial(k))
    for j in range(shift):  # j = 0 widens x by an ulp, as in ln_gamma
        ylo, yhi = plo, phi = _shifted(lo, hi, j)
        for _ in range(k):  # (x + j)^(k + 1)
            plo, phi = _mul_bounds(plo, phi, ylo, yhi)
        if not phi < _INF:  # the quotient below would hide the overflow
            raise DomainError(f"(x + {j})^{k + 1} overflows for x = {xe!r}")
        qlo, qhi = _div_bounds(numerator, numerator, plo, phi)
        rlo, rhi = _nextafter(rlo + qlo, -_INF), _nextafter(rhi + qhi, _INF)
    return Enclosure(rlo, rhi)


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
