"""Certified monotonicity toolkit.

Rigorous binary64 interval enclosures for log-gamma and polygamma,
exact rational positivity certificates for polynomials, and replayable
verification suites for a gamma-quotient function family and the
unit-ball volume sequence built from it.

The public names live in the submodules `enclosure`, `exactpoly`,
`specfun`, `targets`, `certify` and `cli`; each lists them in its
`__all__`.
"""

__version__ = "0.1.0"
