"""Performance-estimation data for cyclic gradient descent, built exactly.

Everything here is normalized to L = D = 1. Index set for one pattern
application of length t: (*, 0, 1, ..., t), where * is the minimizer.
Rows/columns of multiplier matrices and of the dual slack matrix follow
that order, so a multiplier on the pair (0,1) sits at matrix position
(1, 2) counting from zero.

Basis coordinates (dimension t+2): coordinate 0 carries the initial point,
coordinate i+1 carries the gradient at step i. The interpolation inequality
of the pair (i, j) reads F a_{i,j} + Tr(G (A_{i,j} + C_{i,j}/2)) <= 0, with
A_{i,j} = g_j (.) (x_i - x_j), C_{i,j} = (g_i - g_j)(g_i - g_j)' and
a_{i,j} = f_j - f_i. ``pair_table`` is the one explicit form of these terms;
``M_mat``, ``m_vec`` and ``sum_a`` are their multiplier sums in closed form.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import gcd, lcm
from typing import Iterator, Sequence

from .exact_linalg import (
    RatMatrix,
    SchurElimination,
    integer_rows,
    rat_from_decimal,
    rat_to_str,
    schur_eliminate,
)

STAR = "*"


@dataclass(frozen=True)
class StepsizePattern:
    """Normalized stepsizes h applied cyclically; the actual step is h_k / L."""
    h: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.h) < 1:
            raise ValueError("a stepsize pattern needs at least one step")
        for i, v in enumerate(self.h):
            if not isinstance(v, Fraction):
                raise TypeError(f"h[{i}] must be an exact Fraction, got {type(v).__name__}")
            if v <= 0:
                raise ValueError(f"h[{i}] = {v} must be positive")

    @classmethod
    def from_text(cls, text: str) -> "StepsizePattern":
        parts = [p for p in text.replace(";", ",").split(",") if p.strip()]
        return cls(tuple(rat_from_decimal(p) for p in parts))

    @property
    def t(self) -> int:
        return len(self.h)

    @cached_property
    def sum_h(self) -> Fraction:
        return sum(self.h, Fraction(0))

    @cached_property
    def integer_form(self) -> tuple[int, list[int]]:
        """(dh, hs): h as integers hs over their least common denominator dh."""
        dh, (hs,) = integer_rows([self.h])
        return dh, hs

    @property
    def avg_h(self) -> Fraction:
        return self.sum_h / self.t

    def as_text(self) -> str:
        return ",".join(rat_to_str(v) for v in self.h)


def index_set(t: int) -> tuple:
    return (STAR, *range(t + 1))


def index_pairs(t: int) -> Iterator[tuple]:
    for i in index_set(t):
        for j in index_set(t):
            if i != j:
                yield (i, j)


def mat_pos(idx, t: int) -> int:
    """Row/column of an index in the (*, 0, ..., t) matrix ordering."""
    if idx == STAR:
        return 0
    if not (0 <= idx <= t):
        raise ValueError(f"index {idx} outside 0..{t}")
    return idx + 1


@dataclass(frozen=True)
class PairTerms:
    """One pair's interpolation inequality as sparse exact terms (indices count
    0..t); summed, they give a_{i,j} and A_{i,j} + C_{i,j}/2, whose corner is 0."""
    pos: tuple[int, int]                          # matrix position of the multiplier
    balance: tuple[tuple[int, int], ...]          # a_{i,j}: (k, +1 or -1)
    border: tuple[tuple[int, Fraction], ...]      # first column below the corner: (k, v)
    trail: tuple[tuple[int, int, Fraction], ...]  # trailing block: (r, c, v), summed in order

    def entries(self) -> dict[tuple[int, int], Fraction]:
        """A + C/2 as exact sums keyed by (*, 0..t) position; absent entries are zero."""
        out = {}
        for k, v in self.border:
            out[0, k + 1] = out[k + 1, 0] = v
        for r, c, v in self.trail:
            out[r + 1, c + 1] = out.get((r + 1, c + 1), 0) + v
        return out


@dataclass(frozen=True)
class PairTable:
    pattern: StepsizePattern
    pairs: tuple[PairTerms, ...]   # in index_pairs order


def pair_table(h: StepsizePattern) -> PairTable:
    """The terms of every pair. Coordinate k of x_i - x_j is w = h_k for
    i <= k < j (any k < j when i = *), -h_k for j <= k < i, else 0, so
    g_j (.) (x_i - x_j) puts w/2 at (j, k) and at (k, j), and -1/2 in the first
    column at j when i = *. Trailing terms come in a fixed order (the A part
    for k ascending, then C/2), so float sums taken term by term repeat."""
    t = h.t
    half = Fraction(1, 2)
    w_half = [(v / 2, -v / 2) for v in h.h]  # no iterate has a g_t coordinate
    pairs = []
    for i, j in index_pairs(t):
        trail = []
        if j != STAR:
            for k in range(t):
                s = (k < j) - (i != STAR and k < i)
                if s:
                    w = w_half[k][s < 0]
                    trail += [(j, k, w), (k, j, w)]
        # a = f_j - f_i, and C = dg dg' with dg = g_j - g_i (up to sign)
        signs = tuple((k, s) for k, s in ((j, 1), (i, -1)) if k != STAR)
        trail += [(r, c, half * sr * sc) for r, sr in signs for c, sc in signs]
        pairs.append(PairTerms((mat_pos(i, t), mat_pos(j, t)), signs,
                               ((j, -half),) if i == STAR else (), tuple(trail)))
    return PairTable(h, tuple(pairs))


def _check_multiplier_shape(h: StepsizePattern, arg: RatMatrix, name: str) -> None:
    dim = h.t + 2
    if arg.rows != dim or arg.cols != dim:
        raise ValueError(f"{name} must be {dim}x{dim} for t={h.t}, got {arg.rows}x{arg.cols}")


def _balance(a: Sequence[Sequence[int]]) -> list[int]:
    """sum_a of the multiplier a/den, times den: entry k is the off-diagonal
    sum of column k minus that of row k (the diagonal cancels)."""
    return [sum(r[k] for r in a) - sum(a[k]) for k in range(1, len(a))]


def sum_a(h: StepsizePattern, arg: RatMatrix) -> tuple[Fraction, ...]:
    """sum_{i != j} arg_{i,j} a_{i,j}, with a_{i,j} = f_j - f_i."""
    _check_multiplier_shape(h, arg, "multiplier matrix")
    den, a = integer_rows([arg.row(p) for p in range(h.t + 2)])
    return tuple(Fraction(v, den) for v in _balance(a))


def m_vec(h: StepsizePattern, arg: RatMatrix) -> tuple[Fraction, ...]:
    """First column of the dual slack matrix below its corner, as a linear map.

    Only pairs (*, j) touch it: m[j] = -arg_{*,j} / 2.
    """
    _check_multiplier_shape(h, arg, "multiplier matrix")
    t = h.t
    half = Fraction(1, 2)
    return tuple(-half * arg.entry(0, mat_pos(j, t)) for j in range(t + 1))


def M_rows(h: StepsizePattern, a: Sequence[Sequence[int]]) -> list[list[int]]:
    """``M_mat`` in integers: for a multiplier given as integer rows a = arg * da,
    the trailing block times 2 * da * dh, where dh is h's common denominator
    (``h.integer_form``). O(t^2).

    A part: coordinate k of x_i - x_j is h_k when i <= k < j (or i = *, k < j)
    and -h_k when j <= k < i, so column j collects h_k * (T_j - S_j(k)) for
    k < j and -h_k * S_j(k) for k >= j, with S_j(k) = sum_{i > k} arg_{i,j}
    and T_j = arg_{*,j} + sum_i arg_{i,j}. C part: (g_i - g_j)(g_i - g_j)'/2.
    """
    t = h.t
    n = t + 1
    dh, hs = h.integer_form
    M = [[0] * n for _ in range(n)]
    for j in range(n):
        col = [a[i + 1][j + 1] for i in range(n)]  # arg_{i,j}, i = 0..t
        suffix = 0
        w = [0] * n
        for k in range(t, -1, -1):  # suffix = S_j(k)
            w[k] = -suffix
            suffix += col[k]
        total = a[0][j + 1] + suffix
        for k in range(j):
            w[k] += total
        for k in range(t):  # w[t] = 0: no iterate has a g_t coordinate
            c = hs[k] * w[k]
            M[j][k] += c
            M[k][j] += c
        # C part: diagonal from every pair touching j, off-diagonal from (i, j) and (j, i)
        M[j][j] += dh * (sum(col) + sum(a[j + 1]) - 2 * col[j] + a[0][j + 1])
        for i in range(j + 1, n):
            c = dh * (col[i] + a[j + 1][i + 1])
            M[i][j] -= c
            M[j][i] -= c
    return M


def M_mat(h: StepsizePattern, arg: RatMatrix) -> RatMatrix:
    """Trailing (t+1)x(t+1) block of sum arg_{i,j} (A_{i,j} + C_{i,j}/2), in O(t^2)
    through ``M_rows``."""
    _check_multiplier_shape(h, arg, "multiplier matrix")
    n = h.t + 1
    da, a = integer_rows([arg.row(p) for p in range(n + 1)])
    den = 2 * da * h.integer_form[0]
    return RatMatrix(n, n, [Fraction(v, den) for row in M_rows(h, a) for v in row])


def bordered(corner: Fraction, m: Sequence[Fraction], M: RatMatrix) -> RatMatrix:
    """[[corner, m'], [m, M]] as one symmetric matrix."""
    n = M.rows
    if len(m) != n:
        raise ValueError("border length does not match block size")
    rows = [[corner, *m]]
    for i in range(n):
        rows.append([m[i], *M.row(i)])
    return RatMatrix.from_rows(rows)


class PepOperator:
    """M, m and sum_a of one multiplier pair (lambda, gamma), built once from
    their integer rows (``Certificate.integer_form``).

    All three maps are linear in the multiplier, so at any gap level
    M(lambda + delta*gamma) = M(lambda) + delta*M(gamma), and likewise for m
    and sum_a. The trailing blocks and borders are kept as integer rows over
    one common denominator ``den``, so that a gap level costs one integer
    elimination and no Fraction arithmetic. ``den`` is the least common
    denominator of all their entries, the one ``integer_rows`` of the four as
    Fractions would give, so the integers are the same. The sums, which the
    equality conditions read, are kept as integers too: ``sums[k]`` over
    ``sum_dens[k]``, for lambda (k = 0) and gamma (k = 1).
    """

    def __init__(self, h: StepsizePattern, lam: tuple[int, list[list[int]]],
                 gam: tuple[int, list[list[int]]]):
        dh = h.integer_form[0]
        parts = []
        for d, a in (lam, gam):
            # M and m (m_j = -arg_{*,j}/2) over 2 * d * dh, reduced by the gcd
            # of that denominator and all their entries
            M, m = M_rows(h, a), [-x * dh for x in a[0][1:]]
            g = gcd(2 * d * dh, *(v for row in M for v in row), *m)
            parts.append((2 * d * dh // g, g, M, m))
        self.den = lcm(parts[0][0], parts[1][0])
        A, b = [], []
        for den, g, M, m in parts:
            s = self.den // den
            A.append([[v // g * s for v in row] for row in M])
            b.append([v // g * s for v in m])
        self._A, self._b = tuple(A), tuple(b)
        self.sum_dens = (lam[0], gam[0])
        self.sums = (_balance(lam[1]), _balance(gam[1]))

    def block(self, delta: Fraction, *, rescaled: bool) -> tuple[list[list[int]], list[int], int]:
        """(A, b, den): the trailing block M(lambda + delta*gamma) = A/den and a
        border b/den, in integers.

        rescaled=True: the border is m(gamma), as in the membership blocks,
        whose first row and column are Z's divided by delta (given m(lambda)
        = 0). rescaled=False: the border is m(lambda + delta*gamma), as in Z at
        gap level delta.
        """
        p, q = delta.numerator, delta.denominator
        (A_lam, A_gam), (b_lam, b_gam) = self._A, self._b
        A = [[q * a + p * g for a, g in zip(ra, rg)] for ra, rg in zip(A_lam, A_gam)]
        if rescaled:
            b = [q * g for g in b_gam]
        else:
            b = [q * a + p * g for a, g in zip(b_lam, b_gam)]
        return A, b, q * self.den

    def eliminate(self, delta: Fraction, *, rescaled: bool) -> SchurElimination:
        """One elimination of ``block(delta, rescaled=rescaled)``."""
        return schur_eliminate(*self.block(delta, rescaled=rescaled))


def assemble_Z(h: StepsizePattern, eps: Fraction, lam: RatMatrix, delta: Fraction) -> RatMatrix:
    """The dual slack matrix at one gap level delta.

    Z = sum_i (h_i + eps) delta^2 * B_{0,*} + sum_{i != j} lam_{i,j} (A_{i,j} + C_{i,j}/2);
    only the corner is quadratic in delta.
    """
    _check_multiplier_shape(h, lam, "lambda")
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    corner = sum((hi + eps for hi in h.h), Fraction(0)) * delta * delta
    return bordered(corner, m_vec(h, lam), M_mat(h, lam))
