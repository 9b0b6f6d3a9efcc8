"""The performance-estimation problem written out densely, as in the paper.

Per ordered pair (i, j) of (*, 0, ..., t): A = g_j (.) (x_i - x_j),
B = (x_i - x_j) (.) (x_i - x_j), C = (g_i - g_j) (.) (g_i - g_j) and
a = f_j - f_i, over the basis whose coordinate 0 carries x_0 and whose
coordinate i+1 carries g_i (L = 1). This costs O(t^4) for all pairs; the
tests use it as the definition that pep_builder's pair table and closed
forms must reproduce.

It also keeps the Fraction route of the certificate's linear conditions
(nonnegativity, the gap window, the balance equality at a gap level) and of
the operator's integer blocks, which the certificate's integer forms replaced,
and the rate bounds' first algorithm: s_bar by doubling and
bisection over fixed-point intervals of absolute resolution, and the
contraction-phase bound at 192 bits.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from lscert.certificate import (Certificate, EqualityVerdict, NonnegVerdict, _rhs_gamma,
                                _rhs_lambda)
from lscert.exact_linalg import RatMatrix, integer_rows
from lscert.pep_builder import STAR, StepsizePattern, bordered, index_pairs, index_set, mat_pos
from lscert.rates import ProblemScale, RateGuarantee, UnsupportedRegimeError


def basis(h: StepsizePattern) -> tuple[dict, dict, dict]:
    """Coordinate vectors (g, x, f) of the gradients, iterates and objective
    values; x_i = x_0 - sum_{k<i} h_k g_k, and every starred vector is zero."""
    t = h.t
    dim = t + 2
    g = {STAR: (Fraction(0),) * dim}
    x = {STAR: (Fraction(0),) * dim}
    f = {STAR: (Fraction(0),) * (t + 1)}
    cur = [Fraction(0)] * dim
    cur[0] = Fraction(1)
    for i in range(t + 1):
        if i:
            cur[i] -= h.h[i - 1]  # coordinate i carries g_{i-1}
        x[i] = tuple(cur)
        g[i] = tuple(Fraction(int(k == i + 1)) for k in range(dim))
        f[i] = tuple(Fraction(int(k == i)) for k in range(t + 1))
    return g, x, f


def sym_outer(u: Sequence[Fraction], v: Sequence[Fraction]) -> RatMatrix:
    """u (.) v = (u v' + v u') / 2, adding up the products of nonzero entries."""
    n = len(u)
    out = [[Fraction(0)] * n for _ in range(n)]
    for r, ur in enumerate(u):
        for c, vc in enumerate(v):
            if ur and vc:
                out[r][c] += ur * vc / 2
                out[c][r] += ur * vc / 2
    return RatMatrix.from_rows(out)


def pair_matrices(vectors: tuple[dict, dict, dict], i, j) -> dict:
    """A, B, C and a of the pair (i, j), keyed by name."""
    g, x, f = vectors
    dx = tuple(p - q for p, q in zip(x[i], x[j]))
    dg = tuple(p - q for p, q in zip(g[i], g[j]))
    return {"A": sym_outer(g[j], dx), "B": sym_outer(dx, dx), "C": sym_outer(dg, dg),
            "a": tuple(p - q for p, q in zip(f[j], f[i]))}


def pep_matrices(h: StepsizePattern) -> dict:
    """pair_matrices of every ordered pair, keyed by (i, j)."""
    vectors = basis(h)
    return {(i, j): pair_matrices(vectors, i, j) for i, j in index_pairs(h.t)}


def interpolation_matrix(pm: dict) -> RatMatrix:
    """A + C/2: the Gram part of one pair's interpolation inequality."""
    return pm["A"] + pm["C"].scale(Fraction(1, 2))


@lru_cache(maxsize=None)
def _nonzero_terms(h: StepsizePattern) -> tuple:
    """Per pair: its multiplier position and the nonzero entries of A + C/2."""
    out = []
    for (i, j), pm in pep_matrices(h).items():
        K = interpolation_matrix(pm)
        out.append(((mat_pos(i, h.t), mat_pos(j, h.t)),
                     [(r, s, v) for r in range(K.rows) for s, v in enumerate(K.row(r)) if v]))
    return tuple(out)


def dense_slack(h: StepsizePattern, arg: RatMatrix) -> RatMatrix:
    """sum_{i != j} arg_{i,j} (A_{i,j} + C_{i,j}/2)."""
    n = h.t + 2
    Z = [[Fraction(0)] * n for _ in range(n)]
    for pos, terms in _nonzero_terms(h):
        c = arg.entry(*pos)
        if c:
            for r, s, v in terms:
                Z[r][s] += c * v
    return RatMatrix.from_rows(Z)


def psd_blocks(cert: Certificate) -> tuple[RatMatrix, RatMatrix]:
    """The two bordered membership blocks, [[corner, m(gamma)'], [m(gamma), M]]
    with M the trailing block of the dense slack of lambda and of
    lambda + Delta*gamma, built from the dense pair matrices."""
    h = cert.pattern
    n = h.t + 1
    S_lam = dense_slack(h, cert.lam)
    S_gam = dense_slack(h, cert.gam)

    def trailing(S: RatMatrix) -> RatMatrix:
        return RatMatrix.from_rows([S.row(r)[1:] for r in range(1, n + 1)])

    m_gam = S_gam.row(0)[1:]
    M_lam = trailing(S_lam)
    return (bordered(cert.corner, m_gam, M_lam),
            bordered(cert.corner, m_gam, M_lam + trailing(S_gam).scale(cert.Delta)))


@lru_cache(maxsize=None)
def _balance_terms(h: StepsizePattern) -> tuple:
    """Per pair: its multiplier position and its a_{i,j} = f_j - f_i."""
    return tuple(((mat_pos(i, h.t), mat_pos(j, h.t)), pm["a"])
                 for (i, j), pm in pep_matrices(h).items())


def dense_sums(h: StepsizePattern, arg: RatMatrix) -> tuple[Fraction, ...]:
    """sum_{i != j} arg_{i,j} a_{i,j}, summed pair by pair."""
    out = [Fraction(0)] * (h.t + 1)
    for pos, a in _balance_terms(h):
        c = arg.entry(*pos)
        for k, v in enumerate(a):
            out[k] += c * v
    return tuple(out)


def _trailing(S: RatMatrix) -> list[list[Fraction]]:
    return [list(S.row(r)[1:]) for r in range(1, S.rows)]


def nonneg_verdict(mat: RatMatrix, t: int) -> NonnegVerdict:
    """Whether mat is nonnegative off its diagonal, entry by entry in Fractions."""
    labels = [str(i) for i in index_set(t)]
    bad = tuple((labels[p], labels[q], v) for p in range(t + 2)
                for q, v in enumerate(mat.row(p)) if v < 0 and p != q)
    return NonnegVerdict(not bad, bad)


def linear_verdicts(cert: Certificate) -> dict:
    """The equality and nonnegativity conditions of check_membership, with the
    sums and m taken from the dense pair matrices and lambda + Delta*gamma
    formed as a matrix of Fractions."""
    h, t = cert.pattern, cert.t

    def eq(lhs, rhs):
        residual = tuple(a - b for a, b in zip(lhs, rhs))
        return EqualityVerdict(all(v == 0 for v in residual), residual)

    return {
        "eq_lambda": eq(dense_sums(h, cert.lam), _rhs_lambda(t)),
        "eq_gamma": eq(dense_sums(h, cert.gam), _rhs_gamma(h)),
        "m_lambda_zero": eq(dense_slack(h, cert.lam).row(0)[1:], (Fraction(0),) * (t + 1)),
        "lambda_nonneg": nonneg_verdict(cert.lam, t),
        "lambda_plus_delta_gamma_nonneg": nonneg_verdict(
            cert.lam + cert.gam.scale(cert.Delta), t),
    }


def gap_window(lam: RatMatrix, gam: RatMatrix, Delta: Fraction) -> tuple[Fraction, Fraction]:
    """[lo, hi] in [0, Delta] where lam + delta*gam is nonnegative off the
    diagonal, one Fraction ratio per entry; (1, 0) when a negative lam entry
    meets a zero gam entry."""
    lo, hi = Fraction(0), Delta
    for p in range(lam.rows):
        for q, (lv, gv) in enumerate(zip(lam.row(p), gam.row(p))):
            if p == q:
                continue
            if gv > 0:
                lo = max(lo, -lv / gv)
            elif gv < 0:
                hi = min(hi, lv / -gv)
            elif lv < 0:
                return Fraction(1), Fraction(0)
    return lo, hi


def balanced_at(cert: Certificate, delta: Fraction) -> bool:
    """sum_a(lambda + delta*gamma) equals its right-hand side at gap level delta."""
    h = cert.pattern
    rhs = [Fraction(0)] * (h.t + 1)
    rhs[0], rhs[h.t] = -(1 - 2 * h.sum_h * delta), Fraction(1)
    lam, gam = dense_sums(h, cert.lam), dense_sums(h, cert.gam)
    return tuple(a + delta * b for a, b in zip(lam, gam)) == tuple(rhs)


def operator_block(cert: Certificate, delta: Fraction, *, rescaled: bool):
    """PepOperator.block as Fractions built it: the dense trailing blocks and
    borders of lambda and gamma put over their least common denominator by
    integer_rows, then combined at delta = p/q over q * den."""
    h = cert.pattern
    S_lam, S_gam = dense_slack(h, cert.lam), dense_slack(h, cert.gam)
    n = h.t + 1
    den, rows = integer_rows([*_trailing(S_lam), *_trailing(S_gam),
                              S_lam.row(0)[1:], S_gam.row(0)[1:]])
    A_lam, A_gam, b_lam, b_gam = rows[:n], rows[n:2 * n], rows[2 * n], rows[2 * n + 1]
    p, q = delta.numerator, delta.denominator
    A = [[q * a + p * g for a, g in zip(ra, rg)] for ra, rg in zip(A_lam, A_gam)]
    b = [q * g for g in b_gam] if rescaled else [q * a + p * g for a, g in zip(b_lam, b_gam)]
    return A, b, q * den


def pow_interval(base: Fraction, s: int, prec: int) -> tuple[Fraction, Fraction]:
    """[lo, hi] containing base**s in prec-bit fixed point, rounded outward."""
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


def pow_leq(base: Fraction, s: int, target: Fraction) -> bool:
    """base**s <= target, on the ladder 192/384/768 bits, then exactly."""
    for prec in (192, 384, 768):
        lo, hi = pow_interval(base, s, prec)
        if hi <= target:
            return True
        if lo > target:
            return False
    return base ** s <= target


def doubling_sbar(scale: ProblemScale, S: Fraction, Delta: Fraction) -> int:
    """Smallest s >= 0 with (1 - S Delta)^s f0gap <= L D^2 Delta: s doubles
    until it is enough, then a bisection finds the least such s."""
    contraction = S * Delta
    if not 0 < contraction < 1:
        raise UnsupportedRegimeError("sum(h_i - eps) * Delta outside (0, 1)")
    B = 1 - contraction
    threshold = scale.ld2 * Delta
    if scale.f0gap <= threshold:
        return 0
    R = threshold / scale.f0gap
    hi = 1
    while not pow_leq(B, hi, R):
        hi *= 2
        if hi > 1 << 62:
            raise UnsupportedRegimeError("contraction phase exceeds 2^62 applications")
    lo = hi // 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if pow_leq(B, mid, R):
            hi = mid
        else:
            lo = mid
    return hi


def bound_192(T: int, scale: ProblemScale, g: RateGuarantee) -> Fraction:
    """The gap bound after T steps, its contraction power at 192 bits."""
    s = T // g.t
    if s <= g.s_bar:
        B = 1 - g.sum_h_minus_eps * g.Delta
        return min(pow_interval(B, s, 192)[1], Fraction(1)) * scale.f0gap
    return scale.ld2 / (g.sum_h_minus_eps / g.t * (T - g.s_bar * g.t) + 1 / g.Delta)
