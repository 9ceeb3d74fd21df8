"""The functions under certification.

Two continuous targets: `gamma_log_ratio`, which the certification shows
increasing from its exact value at 0, and `ball_volume_root`, shown
decreasing past 1.  The discrete targets are the unit-ball volume
sequence and its fractional-power companions.  Everything else in this
module is scaffolding those proofs walk through: five exact rational
polynomials certified positive, polynomials with a + b*ln(pi)
coefficients, a quotient-derivative core whose positivity drives the
increasing half, and a six-member auxiliary sign chain that drives the
decreasing half.

All evaluators take a scalar (int, float, or Fraction) and return an
Enclosure.  Every polynomial part is exact: it is computed from the
integers of the scalar's as_integer_ratio(), in integer or Fraction
arithmetic, and rounded outward once; only the special functions and
logarithms contribute interval width.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import zip_longest

from .enclosure import DomainError, Enclosure, EULER_GAMMA, LN_PI, _log_bounds, _rational_bounds
from .exactpoly import PositivityCertificate, RationalPolynomial, certify_positive_on_ray
from .specfun import ln_gamma, ln_gamma_over_x, polygamma

__all__ = [
    "GUARD_RADIUS",
    "GuardZoneError",
    "LEMMA_POLYS",
    "LEMMA_VALUE_AT_ONE",
    "RATE_NUMERATOR",
    "LogPiPolynomial",
    "LOG_PI_POLYS",
    "gamma_log_ratio",
    "log_ball_volume_root",
    "ball_volume_root",
    "log_unit_ball_volume",
    "log_omega_sequence_term",
    "SEQUENCE_MODES",
    "log_volume_sequence_value",
    "volume_sequence_value",
    "fg_ratio",
    "fg_ratio_core",
    "fg_ratio_core_rate",
    "fg_ratio_core_rate_lower_bound",
    "ball_root_slope_chain",
]

# Radius of the refuse-to-evaluate zone around the two removable
# singularities of gamma_log_ratio (and the left edge of
# ball_volume_root).  Inside it the defining quotient is 0/0-unstable
# in interval arithmetic; callers get the exact limit value at the
# singular point itself and an error elsewhere in the zone.
GUARD_RADIUS = 2.0 ** -20


class GuardZoneError(DomainError):
    """Argument fell inside a guard zone: too close to a removable
    singularity for a meaningful enclosure, but not exactly on it."""


def _check_scalar(x) -> None:
    """Refuse x unless it is an int, a finite float or a Fraction: all
    three compare exactly with ints and floats, and give their exact
    value as as_integer_ratio() (floats are dyadic rationals)."""
    if isinstance(x, bool):
        raise DomainError("bool is not a numeric argument")
    if isinstance(x, float):
        if not math.isfinite(x):
            raise DomainError(f"non-finite argument {x!r}")
    elif not isinstance(x, (int, Fraction)):
        raise DomainError(f"unsupported scalar type {type(x).__name__}")


def _enc(q: Fraction) -> Enclosure:
    return Enclosure.from_rational(q)


def _plus_one(n: int, d: int) -> Enclosure:
    """Tightest enclosure of n/d + 1, for d > 0: the bounds of
    _enc(Fraction(n, d) + 1), without building the Fraction."""
    return Enclosure(*_rational_bounds(n + d, d))


# --- exact polynomial tables, ascending coefficients ---

_P1 = RationalPolynomial((-1, -1, 3, 1))        # x^3 + 3x^2 - x - 1
_P2 = RationalPolynomial((-1, -1, 3, 1))        # printed identically to p1
_P3 = RationalPolynomial((-1, 0, 2, 8, 3))      # 3x^4 + 8x^3 + 2x^2 - 1
_P4 = RationalPolynomial((-1, 1, 2, 2, 3, 1))   # x^5 + 3x^4 + 2x^3 + 2x^2 + x - 1
_P5 = RationalPolynomial((-1, -3, 0, 6, 5, 1))  # x^5 + 5x^4 + 6x^3 - 3x - 1

LEMMA_POLYS = {"p1": _P1, "p2": _P2, "p3": _P3, "p4": _P4, "p5": _P5}
LEMMA_VALUE_AT_ONE = {"p1": 2, "p2": 2, "p3": 12, "p4": 8, "p5": 8}

# (x+1)(x^2+1) and x^2+2x-1, the pieces of fg_ratio
_CUBIC_NUM = RationalPolynomial((1, 1, 1, 1))
_QUAD_DEN = RationalPolynomial((-1, 2, 1))
# psi-weight of fg_ratio_core, by the quotient rule on fg_ratio
_CORE_PSI_WEIGHT = _CUBIC_NUM.derivative() * _QUAD_DEN - _CUBIC_NUM * _QUAD_DEN.derivative()

# degree-6 numerator of the rational lower bound on the core's rate
RATE_NUMERATOR = RationalPolynomial((8, -2, -31, 8, 86, 66, 13))


class LogPiPolynomial:
    """A polynomial whose coefficients are a + b*ln(pi): the exact
    rational and ln-pi parts, and the coefficient enclosures (ascending,
    built once, since the coefficients are constants)."""

    __slots__ = ("rational", "log_pi", "coeffs")

    def __init__(self, rational: RationalPolynomial, log_pi: RationalPolynomial):
        self.rational = rational
        self.log_pi = log_pi
        self.coeffs = tuple(
            _enc(a) + _enc(b) * LN_PI
            for a, b in zip_longest(rational.coeffs, log_pi.coeffs, fillvalue=Fraction(0))
        )

    def derivative(self) -> "LogPiPolynomial":
        return LogPiPolynomial(self.rational.derivative(), self.log_pi.derivative())

    def __neg__(self) -> "LogPiPolynomial":
        return LogPiPolynomial(-self.rational, -self.log_pi)

    def eval(self, x) -> Enclosure:
        acc = Enclosure(0.0, 0.0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def certify_positive(self, a: Fraction) -> PositivityCertificate:
        """Certify > 0 on [a, infinity) for a >= 0 through the rational
        polynomial of the coefficient lower endpoints: for x >= 0 that
        polynomial never exceeds this one, so its certificate transfers."""
        if a < 0:
            raise DomainError("log-pi polynomial certification requires a >= 0")
        lower = RationalPolynomial(Fraction(c.lo) for c in self.coeffs)
        return certify_positive_on_ray(lower, a)


_X = RationalPolynomial((0, 1))

# rational part of the bound on the slope chain's second member before
# the logarithm inequality is applied, which is
# (MIDDLE - 4 ln(pi) (x+1)^2 p1 + 4 p5 ln(x+1)) / (x+1)^2
_MIDDLE = RationalPolynomial((-2, 11, 0, 18, 26, 7))

# ln(1+x) >= 2x/(2+x) turns that bound into -h2 / ((x+1)^2 (x+2)); the
# chain's polynomial tail h2, its first three derivatives, and the
# lemma's p6 = -h2'''
LOG_PI_POLYS = {"h2": LogPiPolynomial(
    -(_MIDDLE * (_X + 2) + 8 * _X * _P5),
    4 * (_X + 1) * (_X + 1) * (_X + 2) * _P1,
)}
LOG_PI_POLYS["h2p"] = LOG_PI_POLYS["h2"].derivative()
LOG_PI_POLYS["h2pp"] = LOG_PI_POLYS["h2p"].derivative()
LOG_PI_POLYS["h2ppp"] = LOG_PI_POLYS["h2pp"].derivative()
LOG_PI_POLYS["p6"] = -LOG_PI_POLYS["h2ppp"]


# --- the two continuous targets ---


def _log_poly_quotient(n: int, d: int, x1: Enclosure) -> Enclosure:
    """ln(x^2+1) - ln(x+1) for x = n/d exactly, d > 0; x1 is
    _plus_one(n, d), which the callers also hand to the special
    functions.  The difference runs on float pairs, as Enclosure's own
    operations would."""
    try:
        square = _rational_bounds(n * n + d * d, d * d)  # x^2 + 1
    except OverflowError:
        # x^2 + 1 is beyond binary64 though its logarithm is not:
        # ln(x^2 + 1) = 2 ln x + ln(1 + 1/x^2)
        xq = Fraction(n, d)
        return _enc(xq).log() * 2 + _enc(1 + 1 / (xq * xq)).log() - x1.log()
    slo, shi = _log_bounds(*square)
    llo, lhi = _log_bounds(x1.lo, x1.hi)
    return Enclosure(math.nextafter(slo - lhi, -math.inf), math.nextafter(shi - llo, math.inf))


def gamma_log_ratio(x) -> Enclosure:
    """ln Gamma(x+1) / [ln(x^2+1) - ln(x+1)] on x >= 0.

    The quotient has removable singularities at 0 and 1; those two
    points return the exact limit values (the Euler-Mascheroni constant,
    and twice its complement).  Points inside the guard zones around
    them raise GuardZoneError instead of returning a uselessly wide
    interval.
    """
    # The comparisons are exact for every scalar type; for a float, x - 1
    # is exact on [0.5, 2] (Sterbenz) and |x - 1| >= 0.5 outside it.
    _check_scalar(x)
    if x < 0:
        raise DomainError(f"gamma_log_ratio needs x >= 0, got {x!r}")
    if x == 0:
        return EULER_GAMMA
    if x == 1:
        return (Enclosure(1.0, 1.0) - EULER_GAMMA) * 2
    if x <= GUARD_RADIUS or abs(x - 1) <= GUARD_RADIUS:  # x is neither 0 nor 1
        raise GuardZoneError(
            f"x={x!r} is within {GUARD_RADIUS} of a removable singularity; "
            "evaluate at the singular point itself for the exact value"
        )
    n, d = x.as_integer_ratio()
    x1 = _plus_one(n, d)
    try:
        lg = ln_gamma(x1)
    except DomainError:
        # for x + 1 > 1 the only DomainError is ln Gamma(x+1) ~ x ln x
        # overflowing binary64, though F(x) < x does not
        return x1 * (ln_gamma_over_x(x1) / _log_poly_quotient(n, d, x1))
    return lg / _log_poly_quotient(n, d, x1)


def log_ball_volume_root(x) -> Enclosure:
    """ln of ball_volume_root: [x ln pi - ln Gamma(x+1)] / [ln(x^2+1) - ln(x+1)].

    Defined for x > 1 + GUARD_RADIUS; x <= 1 raises DomainError and the
    guard zone 1 < x <= 1 + GUARD_RADIUS raises GuardZoneError.  The log
    form is the workhorse: the value itself overflows binary64 once x
    drops near 1, and the large-n sequence trends only make sense in log
    scale.
    """
    _check_scalar(x)
    if x <= 1:  # exact comparisons, as in gamma_log_ratio
        raise DomainError(f"log_ball_volume_root needs x > 1, got {x!r}")
    if x - 1 <= GUARD_RADIUS:
        raise GuardZoneError(
            f"x={x!r} is within {GUARD_RADIUS} of the singular edge at 1, "
            "where the quotient is 0/0"
        )
    n, d = x.as_integer_ratio()
    x1 = _plus_one(n, d)
    try:
        lg = ln_gamma(x1)
    except DomainError:
        # ln Gamma(x+1) overflows, as in gamma_log_ratio: scale by x + 1,
        # with x / (x + 1) = n / (n + d)
        num = LN_PI * Enclosure(*_rational_bounds(n, n + d)) - ln_gamma_over_x(x1)
        return x1 * (num / _log_poly_quotient(n, d, x1))
    return (LN_PI * Enclosure(*_rational_bounds(n, d)) - lg) / _log_poly_quotient(n, d, x1)


def ball_volume_root(x) -> Enclosure:
    """[pi^x / Gamma(x+1)] ^ (1 / [ln(x^2+1) - ln(x+1)]) for x > 1.

    Computed as exp of log_ball_volume_root; raises OverflowError for x
    so close to 1 that the value exceeds binary64 range (about
    x < 1.0033).
    """
    return log_ball_volume_root(x).exp()


# --- discrete targets ---


def _check_dimension(n, minimum: int, who: str) -> int:
    if isinstance(n, bool) or not isinstance(n, int):
        raise DomainError(f"{who} needs an integer dimension, got {n!r}")
    if n < minimum:
        raise DomainError(f"{who} needs n >= {minimum}, got {n}")
    return n


def log_unit_ball_volume(n) -> Enclosure:
    """ln of the n-dimensional unit-ball volume pi^(n/2) / Gamma(1 + n/2)."""
    n = _check_dimension(n, 1, "log_unit_ball_volume")
    half = Fraction(n, 2)
    return LN_PI * _enc(half) - ln_gamma(_enc(half + 1))


def log_omega_sequence_term(n) -> Enclosure:
    """ln of volume_sequence_value(n, "paper") = ball_volume_root(n/2);
    robust for large n."""
    n = _check_dimension(n, 3, "log_omega_sequence_term")
    return log_ball_volume_root(Fraction(n, 2))


SEQUENCE_MODES = ("unit", "inv_n", "inv_nlnn", "paper")


def log_volume_sequence_value(n, mode: str) -> Enclosure:
    """ln of volume_sequence_value, same modes, same domains."""
    if mode == "unit":
        return log_unit_ball_volume(n)
    if mode == "inv_n":
        n = _check_dimension(n, 1, "sequence mode inv_n")
        return log_unit_ball_volume(n) / n
    if mode == "inv_nlnn":
        n = _check_dimension(n, 2, "sequence mode inv_nlnn")
        return log_unit_ball_volume(n) / (_enc(Fraction(n)).log() * n)
    if mode == "paper":
        return log_omega_sequence_term(n)
    raise DomainError(f"unknown sequence mode {mode!r} (expected one of {SEQUENCE_MODES})")


def volume_sequence_value(n, mode: str) -> Enclosure:
    """One member of the ball-volume sequence family at dimension n.

    mode "unit":     the volume itself, needs n >= 1
    mode "inv_n":    volume^(1/n), needs n >= 1
    mode "inv_nlnn": volume^(1/(n ln n)), needs n >= 2
    mode "paper":    volume^(1/[ln(n^2/4+1) - ln(n/2+1)]), needs n >= 3
    """
    return log_volume_sequence_value(n, mode).exp()


# --- increasing-side scaffolding ---


def _require_at_least_one(x, who: str) -> Fraction:
    _check_scalar(x)
    xq = Fraction(x)
    if xq < 1:
        raise DomainError(f"{who} needs x >= 1, got {x!r}")
    return xq


def fg_ratio(x) -> Enclosure:
    """(x+1)(x^2+1) psi(x+1) / (x^2 + 2x - 1) on x >= 1.

    This is the slope ratio of the two logarithms whose quotient is
    gamma_log_ratio; its strict increase is the hypothesis of the
    monotone-quotient rule that transfers to the target function.
    """
    xq = _require_at_least_one(x, "fg_ratio")
    num = _enc(_CUBIC_NUM.eval_at(xq)) * polygamma(0, _plus_one(xq.numerator, xq.denominator))
    return num / _enc(_QUAD_DEN.eval_at(xq))


def _p4_polygamma(k: int, xq: Fraction, x1: Enclosure) -> Enclosure:
    """p4(x) psi^(k)(x+1) for k = 1 or 2, x exact; x1 is x + 1."""
    p4 = _P4.eval_at(xq)
    try:
        p4_enc = _enc(p4)
    except OverflowError:
        # p4 ~ x^5 is beyond binary64 though p4 psi^(k)(x+1) ~ x^(5-k) is
        # not: p4 = (x+1)(x^2+1)Q, so divide out x+1 exactly
        return _enc(p4 / (xq + 1)) * (x1 * polygamma(k, x1))
    return p4_enc * polygamma(k, x1)


def fg_ratio_core(x) -> Enclosure:
    """Numerator core of d/dx fg_ratio:

        (x^4+4x^3-2x^2-4x-3) psi(x+1) + (x+1)(x^2+1)(x^2+2x-1) psi'(x+1)

    so that fg_ratio'(x) = fg_ratio_core(x) / (x^2+2x-1)^2.  Positivity
    of the core on [1, oo) is what the certification establishes.
    """
    xq = _require_at_least_one(x, "fg_ratio_core")
    x1 = _plus_one(xq.numerator, xq.denominator)
    return _enc(_CORE_PSI_WEIGHT.eval_at(xq)) * polygamma(0, x1) + _p4_polygamma(1, xq, x1)


def fg_ratio_core_rate(x) -> Enclosure:
    """The core's derivative, as the displayed combination

        4 p1(x) psi(x+1) + 2 p3(x) psi'(x+1) + p4(x) psi''(x+1)

    It is d/dx fg_ratio_core exactly because the core's psi-weight W
    satisfies W' = 4 p1 and W + p4' = 2 p3; the test suite checks both
    identities in exact arithmetic.
    """
    xq = _require_at_least_one(x, "fg_ratio_core_rate")
    x1 = _plus_one(xq.numerator, xq.denominator)
    return (
        _enc(4 * _P1.eval_at(xq)) * polygamma(0, x1)
        + _enc(2 * _P3.eval_at(xq)) * polygamma(1, x1)
        + _p4_polygamma(2, xq, x1)
    )


def fg_ratio_core_rate_lower_bound(x) -> Fraction:
    """Rational lower bound on fg_ratio_core_rate, exactly:

        (13x^6+66x^5+86x^4+8x^3-31x^2-2x+8) / ((x+1)^2 (x+2))
    """
    xq = _require_at_least_one(x, "fg_ratio_core_rate_lower_bound")
    return RATE_NUMERATOR.eval_at(xq) / ((xq + 1) ** 2 * (xq + 2))


# --- decreasing-side scaffolding: the auxiliary sign chain ---


def _chain_h(xq: Fraction) -> Enclosure:
    n, d = xq.numerator, xq.denominator
    x1 = _plus_one(n, d)
    weight = _enc(_CUBIC_NUM.eval_at(xq) / _QUAD_DEN.eval_at(xq))
    log_term = LN_PI - polygamma(0, x1)
    return (
        weight * log_term * _log_poly_quotient(n, d, x1)
        - LN_PI * _enc(xq)
        + ln_gamma(x1)
    )


def _chain_h1(xq: Fraction) -> Enclosure:
    x1 = _plus_one(xq.numerator, xq.denominator)
    return _enc(_CORE_PSI_WEIGHT.eval_at(xq)) * (
        polygamma(0, x1) - LN_PI
    ) + _p4_polygamma(1, xq, x1)


def ball_root_slope_chain(which: str, x) -> Enclosure:
    """One member of the sign chain behind the decreasing proof.

    Member "h" has the sign of d/dx log_ball_volume_root (after
    clearing a positive factor); "h1" controls the sign of h's
    derivative the same way; "h2" with its derivatives "h2p", "h2pp",
    "h2ppp" is the polynomial tail of the chain, read from LOG_PI_POLYS.
    All on x >= 1.
    """
    if which not in ("h", "h1") and (which == "p6" or which not in LOG_PI_POLYS):
        raise DomainError(
            f"unknown chain member {which!r} (expected h, h1, h2, h2p, h2pp or h2ppp)"
        )
    xq = _require_at_least_one(x, f"chain member {which!r}")
    if which == "h":
        return _chain_h(xq)
    if which == "h1":
        return _chain_h1(xq)
    return LOG_PI_POLYS[which].eval(_enc(xq))

