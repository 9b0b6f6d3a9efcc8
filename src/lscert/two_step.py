"""The alternating two-step certificate family h = (3 - eta, 1.5).

For every eta in (0, 3) there is an exact multiplier pair certifying the
pattern; the admissible gap cap Delta is not known in closed form, so it is
located by bisection over dyadic rationals in exact arithmetic.
"""
from __future__ import annotations

from fractions import Fraction

from .certificate import Certificate, check_membership, delta_cap
from .exact_linalg import RatMatrix
from .pep_builder import StepsizePattern


def two_step_pattern(eta: Fraction) -> StepsizePattern:
    if not (0 < eta < 3):
        raise ValueError(f"eta={eta} outside (0, 3)")
    return StepsizePattern((3 - eta, Fraction(3, 2)))


def two_step_multipliers(eta: Fraction) -> tuple[RatMatrix, RatMatrix]:
    half = Fraction(1, 2)
    lam = RatMatrix.from_rows([
        [0, 0, 0, 0],
        [0, 0, half, half],
        [0, 0, 0, half],
        [0, 0, 0, 0],
    ])
    s = (6 - eta) / 2
    gam = RatMatrix.from_rows([
        [0, 3 - eta, s, s],
        [0, 0, -s, -s],
        [0, 0, 0, 0],
        [0, 0, 0, 0],
    ])
    return lam, gam


def two_step_certificate(eta: Fraction, Delta: Fraction | None = None) -> Certificate:
    """Certificate for h = (3 - eta, 1.5) with eps = 0.

    When Delta is omitted, the largest passing dyadic found by
    ``bisect_dyadic_delta`` is used.
    """
    pattern = two_step_pattern(eta)
    lam, gam = two_step_multipliers(eta)
    if Delta is None:
        Delta = bisect_dyadic_delta(eta)
    return Certificate(pattern, Delta, Fraction(0), lam, gam)


def bisect_dyadic_delta(eta: Fraction, resolution_bits: int = 16) -> Fraction:
    """Largest dyadic Delta (denominator 2^resolution_bits) passing exact membership.

    Bisects on [0, cap] where cap = 1/(2*sum(h)), maintaining an exactly
    verified passing lower endpoint throughout.
    """
    pattern = two_step_pattern(eta)
    lam, gam = two_step_multipliers(eta)
    cap = delta_cap(pattern)
    unit = Fraction(1, 2 ** resolution_bits)
    hi_n = int(cap / unit)    # largest admissible multiple of the resolution
    # every probe shares the first probe's operator; only Delta changes
    first = Certificate(pattern, hi_n * unit, Fraction(0), lam, gam)

    def passes(d: Fraction) -> bool:
        return check_membership(first.with_delta(d)).overall

    lo_n, fail_n = 0, hi_n + 1   # membership is not defined at 0
    if passes(hi_n * unit):
        return hi_n * unit
    while fail_n - lo_n > 1:
        mid = (lo_n + fail_n) // 2
        if passes(mid * unit):
            lo_n = mid
        else:
            fail_n = mid
    if lo_n == 0:
        raise ValueError(f"no passing dyadic Delta at resolution 2^-{resolution_bits} "
                         f"for eta={eta}")
    return lo_n * unit
