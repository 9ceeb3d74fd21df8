"""Outward-rounded interval arithmetic over binary64.

An Enclosure is a closed interval [lo, hi] of floats guaranteed to
contain the exact real value it stands for.  Soundness never relies on
the platform rounding mode: every arithmetic operation widens its
result outward by one ulp per endpoint, and the transcendental
operations (whose libm primitives are close to, but not provably,
correctly rounded) widen by two.  The arithmetic is inclusion
monotone: widening an input never shrinks an output.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "DomainError",
    "Enclosure",
    "TrustedConstant",
    "CONSTANTS",
    "LN_PI",
    "EULER_GAMMA",
]

_INF = math.inf


class DomainError(ValueError):
    """Raised when an operation is asked to leave its mathematical domain."""


def _down(v: float) -> float:
    return math.nextafter(v, -_INF)


def _up(v: float) -> float:
    return math.nextafter(v, _INF)


class Enclosure:
    """Closed float interval [lo, hi] containing one exact real value.

    Instances are immutable by convention; arithmetic returns new
    objects.  Both endpoints must be finite and ordered, and each must
    be a real number that is a float already or converts to one exactly.
    """

    __slots__ = ("lo", "hi")

    def __init__(self, lo: float, hi: float):
        lo = lo if type(lo) is float else _endpoint(lo)
        hi = hi if type(hi) is float else _endpoint(hi)
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise DomainError(f"non-finite enclosure endpoints [{lo}, {hi}]")
        if lo > hi:
            raise DomainError(f"inverted enclosure [{lo}, {hi}]")
        self.lo = lo
        self.hi = hi

    # -- constructors ------------------------------------------------

    @classmethod
    def point(cls, v: float) -> "Enclosure":
        """Exact enclosure of the float v itself."""
        return cls(v, v)

    @classmethod
    def from_rational(cls, q: Fraction) -> "Enclosure":
        """Tightest float enclosure of an exact rational."""
        return cls(*_rational_bounds(q.numerator, q.denominator))

    # -- inspection --------------------------------------------------

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def mid(self) -> float:
        # lo + hi overflows only when both ends share a sign and lie far
        # above the subnormals, so then their halves are exact
        m = 0.5 * (self.lo + self.hi)
        return m if math.isfinite(m) else 0.5 * self.lo + 0.5 * self.hi

    @property
    def strictly_positive(self) -> bool:
        return self.lo > 0.0

    @property
    def strictly_negative(self) -> bool:
        return self.hi < 0.0

    def contains(self, v) -> bool:
        """Exact membership test; Fractions are compared exactly."""
        if isinstance(v, Fraction):
            return Fraction(self.lo) <= v <= Fraction(self.hi)
        return self.lo <= v <= self.hi

    def __repr__(self) -> str:
        return f"Enclosure({self.lo!r}, {self.hi!r})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Enclosure)
            and self.lo == other.lo
            and self.hi == other.hi
        )

    def __hash__(self) -> int:
        return hash((self.lo, self.hi))

    # -- arithmetic --------------------------------------------------

    def __neg__(self) -> "Enclosure":
        return Enclosure(-self.hi, -self.lo)

    def __add__(self, other) -> "Enclosure":
        o = other if type(other) is Enclosure else _lift(other)
        return _outward(self.lo + o.lo, self.hi + o.hi)

    __radd__ = __add__

    def __sub__(self, other) -> "Enclosure":
        o = other if type(other) is Enclosure else _lift(other)
        return _outward(self.lo - o.hi, self.hi - o.lo)

    def __rsub__(self, other) -> "Enclosure":
        return _lift(other) - self

    def __mul__(self, other) -> "Enclosure":
        o = other if type(other) is Enclosure else _lift(other)
        return Enclosure(*_mul_bounds(self.lo, self.hi, o.lo, o.hi))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Enclosure":
        o = other if type(other) is Enclosure else _lift(other)
        return Enclosure(*_div_bounds(self.lo, self.hi, o.lo, o.hi))

    def __rtruediv__(self, other) -> "Enclosure":
        return _lift(other) / self

    def pow_int(self, n: int) -> "Enclosure":
        """Integer power by repeated multiplication, n >= 0.  It starts
        from self, not from 1, since 1 * self widens by an ulp."""
        if n < 0:
            raise DomainError("negative exponent; divide explicitly")
        acc = self if n else Enclosure(1.0, 1.0)
        for _ in range(n - 1):
            acc = acc * self
        return acc

    # -- transcendental ----------------------------------------------

    def exp(self) -> "Enclosure":
        # math.exp raises OverflowError past ~709.78; underflow to 0 is
        # sound for the lower endpoint because exp > 0 everywhere.
        lo = max(0.0, _down(_down(math.exp(self.lo))))
        hi = _up(_up(math.exp(self.hi)))
        return Enclosure(lo, hi)

    def log(self) -> "Enclosure":
        return Enclosure(*_log_bounds(self.lo, self.hi))

    def to_json_obj(self) -> dict:
        # shortest round-trip decimal strings, full binary64 precision
        return {"lo": repr(self.lo), "hi": repr(self.hi)}

    @classmethod
    def from_json_obj(cls, obj: dict) -> "Enclosure":
        return cls(float(obj["lo"]), float(obj["hi"]))


def _endpoint(v) -> float:
    """float(v) for a real v that float() does not round.

    A rounded endpoint could leave out the value it was meant to bound,
    and float() would also parse a str, so both are refused.
    """
    if isinstance(v, bool) or not isinstance(v, numbers.Real):
        raise TypeError(f"enclosure endpoint must be a real number, got {type(v).__name__}")
    f = float(v)
    if math.isfinite(f) and f != v:
        raise DomainError(f"enclosure endpoint {v!r} is not exactly a binary64 value")
    return f


_nextafter = math.nextafter
_log = math.log
_object_new = object.__new__


def _outward(lo: float, hi: float) -> Enclosure:
    """The result of + and -: lo and hi are the rounded-to-nearest
    extremes, each moved one ulp outward here.

    No float() and no order check: the lower extreme rounds an exact
    value no larger than the one the upper extreme rounds, rounding is
    monotone, and moving outward only separates them.  The finite check
    stays, so a result that overflowed still raises DomainError.
    Finite operands never give NaN, and the check would reject one.
    """
    lo = _nextafter(lo, -_INF)
    hi = _nextafter(hi, _INF)
    if not (-_INF < lo and hi < _INF):
        raise DomainError(f"non-finite enclosure endpoints [{lo}, {hi}]")
    e = _object_new(Enclosure)
    e.lo = lo
    e.hi = hi
    return e


# Rounding rules on bare (lo, hi) float pairs, shared by Enclosure's
# operations and the float-local kernels of specfun and targets.  They
# check no finiteness: the Enclosure built from their result does.


def _rational_bounds(n: int, d: int) -> tuple:
    """Tightest float pair around n/d, for d > 0."""
    # int / int is correctly rounded (it is what float(q) computes)
    # and raises OverflowError beyond binary64
    f = n / d
    fn, fd = f.as_integer_ratio()
    # sign of f - n/d, by cross-multiplying over the positive denominators
    diff = fn * d - n * fd
    if diff == 0:
        return f, f
    if diff < 0:
        return f, _up(f)
    return _down(f), f


def _mul_bounds(lo: float, hi: float, olo: float, ohi: float) -> tuple:
    """[lo, hi] * [olo, ohi], each extreme moved one ulp outward."""
    # Sign cases: with o >= 0 the exact extremes of the four products
    # are known, and rounding is monotone, so these give the same floats
    # as min/max below (up to the sign of a zero, which moving outward
    # erases).
    if olo >= 0.0:
        if lo >= 0.0:
            return _nextafter(lo * olo, -_INF), _nextafter(hi * ohi, _INF)
        if hi <= 0.0:
            return _nextafter(lo * ohi, -_INF), _nextafter(hi * olo, _INF)
    a, b, c, d = lo * olo, lo * ohi, hi * olo, hi * ohi
    return _nextafter(min(a, b, c, d), -_INF), _nextafter(max(a, b, c, d), _INF)


def _div_bounds(lo: float, hi: float, olo: float, ohi: float) -> tuple:
    """[lo, hi] / [olo, ohi], each extreme moved one ulp outward."""
    if olo <= 0.0 <= ohi:
        raise DomainError(f"division by enclosure straddling zero Enclosure({olo!r}, {ohi!r})")
    a, b, c, d = lo / olo, lo / ohi, hi / olo, hi / ohi
    return _nextafter(min(a, b, c, d), -_INF), _nextafter(max(a, b, c, d), _INF)


def _log_bounds(lo: float, hi: float) -> tuple:
    """ln [lo, hi], each end moved two ulps outward (libm is not exact)."""
    if lo <= 0.0:
        raise DomainError(f"log of enclosure touching zero Enclosure({lo!r}, {hi!r})")
    return (_nextafter(_nextafter(_log(lo), -_INF), -_INF),
            _nextafter(_nextafter(_log(hi), _INF), _INF))


def _lift(v) -> Enclosure:
    if isinstance(v, Enclosure):
        return v
    if isinstance(v, bool):
        raise TypeError("bool is not a numeric operand")
    if isinstance(v, int):
        if -(2**53) <= v <= 2**53:
            return Enclosure(float(v), float(v))
        return Enclosure.from_rational(Fraction(v))
    if isinstance(v, float):
        return Enclosure(v, v)
    if isinstance(v, Fraction):
        return Enclosure.from_rational(v)
    raise TypeError(f"cannot lift {type(v).__name__} to Enclosure")


# -- trusted constants ----------------------------------------------

@dataclass(frozen=True)
class TrustedConstant:
    """A named constant pinned by a 50-significant-digit decimal literal.

    The enclosure is the tightest float pair around the literal,
    validated at import time to leave more than 1e-40 of slack to each
    endpoint, so the true constant (within 1e-48 of the literal) is
    certainly inside.  Width never exceeds 2 ulp.
    """

    name: str
    literal: str
    value: Enclosure


def _trusted(name: str, literal: str) -> TrustedConstant:
    q = Fraction(literal)
    enc = Enclosure.from_rational(q)
    lo_f, hi_f = Fraction(enc.lo), Fraction(enc.hi)
    slack = Fraction(1, 10**40)
    if lo_f == hi_f or q - lo_f <= slack or hi_f - q <= slack:
        enc = Enclosure(_down(enc.lo), _up(enc.hi))
    return TrustedConstant(name, literal, enc)


_LN_PI = _trusted("ln_pi", "1.1447298858494001741434273513530587116472948129153")
_EULER_GAMMA = _trusted(
    "euler_gamma", "0.57721566490153286060651209008240243104215933593992"
)

CONSTANTS: dict[str, TrustedConstant] = {
    c.name: c for c in (_LN_PI, _EULER_GAMMA)
}

LN_PI = _LN_PI.value
EULER_GAMMA = _EULER_GAMMA.value
