"""Convergence bounds implied by a verified certificate.

The guarantee has two phases: an initial contraction phase of s_bar pattern
applications (factor 1 - sum(h_i - eps) * Delta per application), then a
sublinear phase where the gap is at most L D^2 / ((avg(h) - eps)(T - s_bar t)
+ 1/Delta). Growth-bound variants sharpen the sublinear phase.

s_bar is the number of pattern applications needed to drive the gap below
L D^2 Delta. It is computed exactly: s doubles until the s-th power of the
contraction factor reaches that level, then a bisection finds the smallest
such s. Each comparison uses directed fixed-point interval powers (outward
rounding, exact rational fallback), so the reported bound is never tighter
than the theory allows.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


class UnsupportedRegimeError(ValueError):
    """Parameters outside the regime the guarantee covers."""


def _as_exact(v, name: str) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, float):
        if not math.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v}")
        return Fraction(v)  # binary floats are dyadic rationals: exact
    raise TypeError(f"{name} must be a number, got {type(v).__name__}")


@dataclass(frozen=True)
class ProblemScale:
    """Smoothness constant, level-set radius bound, and initial objective gap."""
    L: Fraction
    D: Fraction
    f0gap: Fraction

    def __post_init__(self):
        object.__setattr__(self, "L", _as_exact(self.L, "L"))
        object.__setattr__(self, "D", _as_exact(self.D, "D"))
        object.__setattr__(self, "f0gap", _as_exact(self.f0gap, "f0gap"))
        if self.L <= 0 or self.D <= 0:
            raise ValueError("L and D must be positive")
        if self.f0gap < 0:
            raise ValueError("f0gap must be nonnegative")

    @property
    def ld2(self) -> Fraction:
        return self.L * self.D * self.D


@dataclass(frozen=True)
class RateGuarantee:
    sum_h_minus_eps: Fraction
    t: int
    Delta: Fraction
    s_bar: int

    def __post_init__(self):
        if self.sum_h_minus_eps <= 0:
            raise ValueError("sum(h_i - eps) must be positive")
        if self.s_bar < 0:
            raise ValueError("s_bar must be nonnegative")

    @property
    def avg_minus_eps(self) -> Fraction:
        return self.sum_h_minus_eps / self.t

    @property
    def contraction_factor(self) -> Fraction:
        return 1 - self.sum_h_minus_eps * self.Delta


@dataclass(frozen=True)
class GrowthSpec:
    """Lower growth bound gap >= (mu/q) * distance^q on the initial level set."""
    q: Fraction
    mu: Fraction

    def __post_init__(self):
        object.__setattr__(self, "q", _as_exact(self.q, "q"))
        object.__setattr__(self, "mu", _as_exact(self.mu, "mu"))
        if self.q < 2:
            raise ValueError("growth exponent q must be at least 2")
        if self.mu <= 0:
            raise ValueError("growth modulus mu must be positive")


# --- exact powers of rationals in (0, 1) via directed fixed-point intervals --

def _pow_interval(base: Fraction, s: int, prec: int) -> tuple[Fraction, Fraction]:
    """[lo, hi] containing base**s, each rounding step directed outward."""
    scale = 1 << prec
    bl = (base.numerator * scale) // base.denominator
    bh = -((-base.numerator * scale) // base.denominator)
    rl, rh = scale, scale
    e = s
    while e:
        if e & 1:
            rl = (rl * bl) >> prec
            rh = -((-rh * bh) >> prec)
        e >>= 1
        if e:
            bl = (bl * bl) >> prec
            bh = -((-bh * bh) >> prec)
    return Fraction(rl, scale), Fraction(rh, scale)


def _pow_leq(base: Fraction, s: int, target: Fraction) -> bool:
    """Decide base**s <= target exactly (base in (0,1), s >= 0)."""
    for prec in (192, 384, 768):
        lo, hi = _pow_interval(base, s, prec)
        if hi <= target:
            return True
        if lo > target:
            return False
    return base ** s <= target  # exact rational fallback for razor-thin cases


def pow_upper(base: Fraction, s: int, prec: int = 192) -> Fraction:
    """An upper bound on base**s (safe side for reporting gap bounds)."""
    if s == 0:
        return Fraction(1)
    return min(_pow_interval(base, s, prec)[1], Fraction(1))


def compute_sbar(scale: ProblemScale, sum_h_minus_eps: Fraction,
                 Delta: Fraction) -> int:
    """Number of pattern applications in the contraction phase, exactly.

    Smallest s >= 0 with (1 - sum(h_i - eps) Delta)^s * f0gap <= L D^2 Delta.
    """
    S = _as_exact(sum_h_minus_eps, "sum_h_minus_eps")
    Delta = _as_exact(Delta, "Delta")
    contraction = S * Delta
    if contraction >= 1:
        raise UnsupportedRegimeError(
            f"sum(h_i - eps) * Delta = {float(contraction):g} >= 1: the contraction "
            "phase is vacuous in this regime")
    if contraction <= 0:
        raise UnsupportedRegimeError("sum(h_i - eps) * Delta must be positive")
    B = 1 - contraction
    threshold = scale.ld2 * Delta
    if scale.f0gap <= threshold:
        return 0
    R = threshold / scale.f0gap

    def done(s: int) -> bool:
        return _pow_leq(B, s, R)

    hi = 1
    while not done(hi):
        hi *= 2
        if hi > 1 << 62:
            raise UnsupportedRegimeError("contraction phase exceeds 2^62 applications")
    lo = hi // 2  # done(lo) is False (or lo == 0)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if done(mid):
            hi = mid
        else:
            lo = mid
    return hi


def rate_guarantee(scale: ProblemScale, pattern_sum_h: Fraction, t: int,
                   epsilon: Fraction, Delta: Fraction) -> RateGuarantee:
    """Bundle certificate data and problem scale into an evaluable guarantee."""
    S = _as_exact(pattern_sum_h, "sum_h") - t * _as_exact(epsilon, "epsilon")
    Delta = _as_exact(Delta, "Delta")
    return RateGuarantee(S, t, Delta, compute_sbar(scale, S, Delta))


def bound_at(T: int, scale: ProblemScale, g: RateGuarantee) -> Fraction:
    """Certified objective-gap bound after T = s*t gradient steps.

    Contraction phase for s <= s_bar, sublinear phase after; the contraction
    power is rounded upward so the result is always a valid bound.
    """
    if T % g.t != 0:
        raise ValueError(f"T={T} is not a multiple of the pattern length t={g.t}")
    s = T // g.t
    if s < 1:
        raise ValueError("need at least one full pattern application (T >= t)")
    if s <= g.s_bar:
        return pow_upper(g.contraction_factor, s) * scale.f0gap
    tail = T - g.s_bar * g.t
    return scale.ld2 / (g.avg_minus_eps * tail + 1 / g.Delta)


def holder_bound(T: int, scale: ProblemScale, g: RateGuarantee,
                 growth: GrowthSpec) -> float:
    """Sharpened sublinear-phase bound under a growth condition.

    Only valid past the contraction phase (s > s_bar); q = 2 gives a linear
    rate, q > 2 an improved sublinear one.
    """
    if T % g.t != 0:
        raise ValueError(f"T={T} is not a multiple of the pattern length t={g.t}")
    s = T // g.t
    if s <= g.s_bar:
        raise UnsupportedRegimeError(
            "growth-bound rates apply after the contraction phase; "
            "use bound_at for s <= s_bar")
    L, D = float(scale.L), float(scale.D)
    avg = float(g.avg_minus_eps)
    if growth.q == 2:
        factor = 1 - float(growth.mu) * avg * g.t / (2 * L)
        if factor <= 0 or float(growth.mu) * avg * g.t / (2 * L) >= 1:
            raise UnsupportedRegimeError(
                "mu * (avg(h) - eps) * t / (2L) >= 1: the q = 2 contraction "
                "factor is not meaningful in this regime")
        return factor ** (s - g.s_bar) * L * D * D * float(g.Delta)
    q = float(growth.q)
    tail = T - g.s_bar * g.t
    inner = L / (float(growth.mu) ** (2 / q) * (q - 2) * avg * tail)
    return q * inner ** (q / (q - 2))
