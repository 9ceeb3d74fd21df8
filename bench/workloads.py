"""Seeded input streams, shared by bench/run.py and bench/worker.py.

run.py and the worker each rebuild the same stream from the same
seed, so the program process receives only generated values while
run.py keeps what it needs to check the outputs (the input itself for
the mpmath oracle, or the truth fixed when a polynomial was built).
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

# Evaluators of the `tail` workload, in the order of their kind index.
TAIL_KINDS = (
    "log_omega_sequence_term",
    "log_volume_sequence_value(inv_nlnn)",
    "log_ball_volume_root",
)
TAIL_N_RANGE = (3, 10 ** 8)
TAIL_X_RANGE = (1.5, 1e6)

EXACT_DEGREES = (3, 10)
# Share of `exact` polynomials built with a zero on [1, oo) or a negative
# leading coefficient, i.e. not positive on [1, oo).
EXACT_NOT_POSITIVE_SHARE = 0.2

# Certifier stages, in the order the certifier tries them; "other" is a
# positive verdict from a method this list does not name.
STAGES = ("shifted", "descartes", "sturm", "not_certified", "other")
STAGE_OF_METHOD = {
    "all-shifted-coefficients-nonnegative": "shifted",
    "descartes-one-root-localized": "descartes",
    "sturm-zero-roots": "sturm",
}


def stage_of(certificate) -> str:
    """The STAGES entry that settled a PositivityCertificate."""
    if certificate.verdict != "positive":
        return "not_certified"
    return STAGE_OF_METHOD.get(certificate.method, "other")


def tail_inputs(seed: int):
    """Endless (kind, argument) pairs: kinds 0 and 1 take an integer
    dimension n, log-uniform in TAIL_N_RANGE; kind 2 takes a float x,
    log-uniform in TAIL_X_RANGE."""
    rng = random.Random(f"tail:{seed}")
    ln_lo, ln_hi = (math.log(v) for v in TAIL_N_RANGE)
    lx_lo, lx_hi = (math.log(v) for v in TAIL_X_RANGE)
    n_lo, n_hi = TAIL_N_RANGE
    while True:
        kind = rng.randrange(len(TAIL_KINDS))
        if kind < 2:
            n = round(math.exp(rng.uniform(ln_lo, ln_hi)))
            yield kind, min(max(n, n_lo), n_hi)
        else:
            yield kind, math.exp(rng.uniform(lx_lo, lx_hi))


def _times(p: list, q: list) -> list:
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def exact_inputs(seed: int):
    """Endless (ascending integer coefficients, positive on [1, oo)) pairs.

    Each polynomial is a product of rational linear factors (b x - a) and
    positive-definite quadratics z (t x - s)^2 + w t^2, so the truth is
    known by construction: it is positive on [1, oo) exactly when its
    leading coefficient is positive and every linear root lies below 1.
    Every polynomial has at least one quadratic; those centred right of 1
    defeat the shifted-coefficient stage and send the certifier on to
    Descartes or Sturm, which settles most of the workload.
    """
    rng = random.Random(f"exact:{seed}")
    while True:
        degree = rng.randint(*EXACT_DEGREES)
        quadratics = rng.randint(1, degree // 2)
        linear = degree - 2 * quadratics
        positive = rng.random() >= EXACT_NOT_POSITIVE_SHARE
        coeffs = [rng.randint(1, 9)]
        for i in range(linear):
            if not positive and i == 0:
                root = 1 + Fraction(rng.randint(0, 100), rng.randint(1, 30))
            else:
                root = 1 - Fraction(rng.randint(1, 200), rng.randint(1, 50))
            coeffs = _times(coeffs, [-root.numerator, root.denominator])
        for _ in range(quadratics):
            s, t = rng.randint(-30, 60), rng.randint(1, 12)
            w, z = rng.randint(1, 40), rng.randint(1, 60)
            coeffs = _times(coeffs, [z * s * s + w * t * t, -2 * z * s * t, z * t * t])
        if not positive and linear == 0:
            coeffs = [-c for c in coeffs]
        yield tuple(coeffs), positive
