"""Convergence bounds implied by a verified certificate.

The guarantee has two phases: an initial contraction phase of s_bar pattern
applications (factor 1 - sum(h_i - eps) * Delta per application), then a
sublinear phase where the gap is at most L D^2 / ((avg(h) - eps)(T - s_bar t)
+ 1/Delta). Growth-bound variants sharpen the sublinear phase.

s_bar is the number of pattern applications needed to drive the gap below
L D^2 Delta. It is computed exactly: a float estimate of ceil(ln R / ln B)
is confirmed by two exact comparisons, and on a miss the search gallops
outward from it and bisects. Each comparison uses directed fixed-point
powers (outward rounding at a resolution relative to the target, exact
rational fallback), so the reported bound is never tighter than the theory
allows.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
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

    @cached_property
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

    @cached_property
    def avg_minus_eps(self) -> Fraction:
        return self.sum_h_minus_eps / self.t

    @cached_property
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


# --- exact powers of rationals in (0, 1) via directed fixed-point chains -----

_SBAR_CAP = 1 << 62


def _pow_fixed(base: Fraction, s: int, prec: int, up: bool) -> int:
    """base**s in prec-bit fixed point, every rounding step directed down (or
    up, when up is set), so the result over 2**prec bounds base**s from that
    side."""
    # floor shifts round down; run on negated values they round the magnitude up
    sign = -1 if up else 1
    b = (sign * base.numerator << prec) // base.denominator
    r = sign << prec
    e = s
    while e:
        if e & 1:
            r = (r * abs(b)) >> prec
        e >>= 1
        if e:
            b = (b * abs(b)) >> prec
    return sign * r


def _pow_leq(base: Fraction, s: int, target: Fraction) -> bool:
    """Decide base**s <= target exactly (base in (0,1), s >= 0)."""
    p, q = target.numerator, target.denominator
    # fixed-point error is absolute: every rung gets the bits that target's
    # magnitude lies below 1, so its resolution is relative to target
    below = max(0, q.bit_length() - p.bit_length())
    for prec in (192 + below, 384 + below, 768 + below):
        if _pow_fixed(base, s, prec, up=True) * q <= p << prec:
            return True
        if _pow_fixed(base, s, prec, up=False) * q > p << prec:
            return False
    return base ** s <= target  # exact rational fallback for razor-thin cases


def _ln(x: Fraction) -> float:
    """ln x for a rational x in (0, 1), accurate at both ends: nothing
    underflows near 0 and nothing cancels near 1."""
    if 2 * x.numerator > x.denominator:
        return math.log1p(-float(1 - x))
    return math.log(x.numerator) - math.log(x.denominator)


def pow_upper(base: Fraction, s: int) -> Fraction:
    """An upper bound on base**s (safe side for reporting gap bounds).

    192-bit fixed point while the bound is at least 2^-96; below that, one
    more bit for each bit base**s lies below 2^-96, so the bound keeps about
    96 significant bits at any magnitude.
    """
    if s == 0:
        return Fraction(1)
    prec = 192
    r = _pow_fixed(base, s, prec, up=True)
    if r.bit_length() <= 96:
        prec += max(0, math.ceil(-s * _ln(base) / math.log(2)) - 96)
        r = _pow_fixed(base, s, prec, up=True)
    return min(Fraction(r, 1 << prec), Fraction(1))


def compute_sbar(scale: ProblemScale, sum_h_minus_eps: Fraction,
                 Delta: Fraction) -> int:
    """Number of pattern applications in the contraction phase, exactly.

    Smallest s >= 0 with (1 - sum(h_i - eps) Delta)^s * f0gap <= L D^2 Delta.
    That is ceil(ln R / ln B) for R = L D^2 Delta / f0gap and the contraction
    factor B; the float estimate is confirmed by two exact comparisons, and
    on a miss the search gallops outward from it and bisects the bracket.
    """
    S = _as_exact(sum_h_minus_eps, "sum_h_minus_eps")
    Delta = _as_exact(Delta, "Delta")
    contraction = S * Delta
    if contraction >= 1:
        size = f"= {float(contraction):g}" if contraction < 1e300 else ">= 1e300"
        raise UnsupportedRegimeError(
            f"sum(h_i - eps) * Delta {size} >= 1: the contraction phase is vacuous "
            "in this regime")
    if contraction <= 0:
        raise UnsupportedRegimeError("sum(h_i - eps) * Delta must be positive")
    B = 1 - contraction
    threshold = scale.ld2 * Delta
    if scale.f0gap <= threshold:
        return 0
    R = threshold / scale.f0gap

    def done(s: int) -> bool:  # monotone in s; done(0) is False since R < 1
        return _pow_leq(B, s, R)

    ln_b = _ln(B)
    est = _ln(R) / ln_b if ln_b else math.inf
    guess = max(1, math.ceil(est)) if est < _SBAR_CAP else _SBAR_CAP
    s = _least_done(done, guess, _SBAR_CAP)
    if s is None:
        raise UnsupportedRegimeError("contraction phase exceeds 2^62 applications")
    return s


def _least_done(done, guess: int, cap: int) -> int | None:
    """Least s in [1, cap] with done(s), or None if done(cap) is False.

    done must be monotone in s with done(0) False. Two calls decide a right
    guess; otherwise the search gallops outward from the guess and bisects
    the bracket it finds.
    """
    step = 1
    if done(guess):  # bracket with not done(lo) and done(hi)
        hi = guess
        while hi - step >= 1 and done(hi - step):
            hi -= step
            step *= 2
        lo = max(hi - step, 0)
    else:
        lo = guess
        while True:
            hi = min(lo + step, cap)
            if done(hi):
                break
            if hi == cap:
                return None
            lo = hi
            step *= 2
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
