"""Exact rational linear algebra: the trusted kernel under every certificate check.

All scalars are ``fractions.Fraction`` (arbitrary precision, always stored
reduced with positive denominator). Nothing in this module ever touches a
binary float.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from operator import mul
from typing import Callable, Sequence

_DECIMAL_RE = re.compile(r"^[+-]?[0-9]+(\.[0-9]+)?$")
_FRACTION_RE = re.compile(r"^[+-]?[0-9]+/[0-9]+$")


# Longest rational literal accepted, in characters. Bundled certificate entries
# use at most 45, and a slack just below an exact minimum with an 1100-bit
# denominator about 700; CPython refuses to read integers past 4300 digits.
MAX_LITERAL_CHARS = 2000


class RationalParseError(ValueError):
    """A string that should denote an exact rational does not."""


def rat_from_decimal(text: str) -> Fraction:
    """Parse a decimal literal ("2.2") or a "p/q" literal into an exact Fraction.

    Decimal parsing is exact by construction: "2.2" becomes 11/5, never a
    binary-float approximation.
    """
    if not isinstance(text, str):
        raise RationalParseError(f"expected a rational literal string, got {text!r}")
    s = text.strip()
    if len(s) > MAX_LITERAL_CHARS:
        raise RationalParseError(
            f"rational literal of {len(s)} characters exceeds the limit of {MAX_LITERAL_CHARS}")
    if _DECIMAL_RE.match(s):
        whole, _, frac = s.partition(".")
        return Fraction(int(whole + frac), 10 ** len(frac))
    if _FRACTION_RE.match(s):
        num, den = s.split("/")
        if int(den) == 0:
            raise RationalParseError(f"zero denominator in rational literal {text!r}")
        return Fraction(int(num), int(den))
    raise RationalParseError(f"malformed rational literal {text!r}")


def rat_to_str(q: Fraction) -> str:
    """Canonical text form: "p" for integers, "p/q" otherwise."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def _as_fraction(v) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, str):
        return rat_from_decimal(v)
    raise TypeError(f"cannot build an exact Rational from {type(v).__name__}: {v!r}")


class RatMatrix:
    """Dense matrix of Fractions, row major. Treated as immutable after construction."""

    __slots__ = ("rows", "cols", "_e")

    def __init__(self, rows: int, cols: int, entries: Sequence[Fraction]):
        if rows < 0 or cols < 0 or len(entries) != rows * cols:
            raise ValueError(f"entry count {len(entries)} does not match shape {rows}x{cols}")
        self.rows = rows
        self.cols = cols
        self._e = tuple(_as_fraction(v) for v in entries)

    @classmethod
    def from_rows(cls, data: Sequence[Sequence]) -> "RatMatrix":
        rows = len(data)
        cols = len(data[0]) if rows else 0
        flat = []
        for r in data:
            if len(r) != cols:
                raise ValueError("ragged rows")
            flat.extend(r)
        return cls(rows, cols, flat)

    @classmethod
    def zeros(cls, rows: int, cols: int | None = None) -> "RatMatrix":
        cols = rows if cols is None else cols
        return cls(rows, cols, [Fraction(0)] * (rows * cols))

    @classmethod
    def identity(cls, n: int) -> "RatMatrix":
        m = [Fraction(0)] * (n * n)
        for i in range(n):
            m[i * n + i] = Fraction(1)
        return cls(n, n, m)

    def entry(self, i: int, j: int) -> Fraction:
        return self._e[i * self.cols + j]

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self._e[i * self.cols : (i + 1) * self.cols]

    def to_rows(self) -> list[list[Fraction]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def is_symmetric(self) -> bool:
        if self.rows != self.cols:
            return False
        for i in range(self.rows):
            for j in range(i + 1, self.cols):
                if self.entry(i, j) != self.entry(j, i):
                    return False
        return True

    def __add__(self, other: "RatMatrix") -> "RatMatrix":
        self._check_same_shape(other)
        return RatMatrix(self.rows, self.cols, [a + b for a, b in zip(self._e, other._e)])

    def scale(self, c) -> "RatMatrix":
        c = _as_fraction(c)
        return RatMatrix(self.rows, self.cols, [c * a for a in self._e])

    def matvec(self, v: Sequence[Fraction]) -> tuple[Fraction, ...]:
        if len(v) != self.cols:
            raise ValueError(f"vector length {len(v)} does not match {self.rows}x{self.cols}")
        return tuple(
            sum((a * b for a, b in zip(self.row(i), v) if a and b), Fraction(0))
            for i in range(self.rows)
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RatMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self._e == other._e
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self._e))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(rat_to_str(x) for x in self.row(i)) for i in range(min(self.rows, 6)))
        tail = " ..." if self.rows > 6 else ""
        return f"RatMatrix({self.rows}x{self.cols}: {body}{tail})"

    def _check_same_shape(self, other: "RatMatrix") -> None:
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError(
                f"shape mismatch {self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )


def integer_rows(rows: Sequence[Sequence[Fraction]]) -> tuple[int, list[list[int]]]:
    """(den, N) with rows = N / den entrywise and den the least common denominator."""
    den = lcm(*(v.denominator for r in rows for v in r))
    return den, [[v.numerator * (den // v.denominator) for v in r] for r in rows]


def dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    if len(u) != len(v):
        raise ValueError(f"vector length mismatch {len(u)} vs {len(v)}")
    return sum((a * b for a, b in zip(u, v) if a and b), Fraction(0))


def quad_form(M: RatMatrix, v: Sequence[Fraction]) -> Fraction:
    """v' M v, exactly."""
    return dot(v, M.matvec(v))


@dataclass(frozen=True)
class NegativeWitness:
    vector: tuple[Fraction, ...]
    value: Fraction  # v' M v, exactly negative


@dataclass(frozen=True)
class PsdVerdict:
    is_psd: bool
    witness: NegativeWitness | None = None


def psd_check(M: RatMatrix) -> PsdVerdict:
    """Decide positive semidefiniteness exactly.

    Symmetric Gaussian elimination with diagonal pivoting on the largest
    remaining diagonal entry. A negative diagonal entry, or a nonzero row
    whose diagonal has reached zero, produces an explicit direction v with
    v' M v < 0; otherwise elimination ends on an all-zero block and M is PSD.
    """
    if M.rows != M.cols:
        raise ValueError(f"psd_check needs a square matrix, got {M.rows}x{M.cols}")
    if not M.is_symmetric():
        raise ValueError("psd_check needs a symmetric matrix")
    n = M.rows
    S = [list(M.row(i)) for i in range(n)]  # mutated in place under permutation
    perm = list(range(n))
    L = [[Fraction(0)] * n for _ in range(n)]  # unit lower factor, below the diagonal

    def swap(a: int, b: int) -> None:
        if a == b:
            return
        S[a], S[b] = S[b], S[a]
        for r in range(n):
            S[r][a], S[r][b] = S[r][b], S[r][a]
        perm[a], perm[b] = perm[b], perm[a]
        L[a], L[b] = L[b], L[a]

    def lift_witness(k: int, w: dict[int, Fraction]) -> NegativeWitness:
        # w lives on pivoted coordinates >= k; cancel the head via L.
        u = [Fraction(0)] * n
        for idx, val in w.items():
            u[idx] = val
        # back-substitute u_head = -L11^{-T} (L21' w), i.e. solve rows k-1..0
        for i in range(k - 1, -1, -1):
            acc = sum((L[r][i] * u[r] for r in range(i + 1, n) if u[r]), Fraction(0))
            u[i] = -acc
        v = [Fraction(0)] * n
        for pos in range(n):
            v[perm[pos]] = u[pos]
        value = quad_form(M, v)
        assert value < 0
        return NegativeWitness(tuple(v), value)

    for k in range(n):
        p = max(range(k, n), key=lambda i: S[i][i])
        if S[p][p] > 0:
            swap(k, p)
            d = S[k][k]
            col = [S[i][k] for i in range(n)]
            for i in range(k + 1, n):
                L[i][k] = col[i] / d
            for i in range(k + 1, n):
                ci = col[i]
                if ci:
                    fi = ci / d
                    Si = S[i]
                    for j in range(k + 1, n):
                        if col[j]:
                            Si[j] -= fi * col[j]
            for i in range(k + 1, n):
                S[i][k] = Fraction(0)
                S[k][i] = Fraction(0)
            continue
        # All remaining diagonal entries are <= 0.
        for i in range(k, n):
            if S[i][i] < 0:
                return PsdVerdict(False, witness=lift_witness(k, {i: Fraction(1)}))
        for i in range(k, n):
            for j in range(i + 1, n):
                if S[i][j]:
                    sgn = Fraction(1) if S[i][j] > 0 else Fraction(-1)
                    return PsdVerdict(False, witness=lift_witness(k, {i: Fraction(1), j: -sgn}))
        break  # the remaining block is identically zero
    return PsdVerdict(True)


@dataclass(frozen=True)
class SchurElimination:
    """Symmetric fraction-free elimination of ``[A | b]`` for an integer symmetric A.

    Describes the trailing block M = A/den and the border m = b/den of a
    bordered matrix X = [[c, m'], [m, M]], which is PSD exactly when M is
    PSD, m lies in range(M) and c >= m' M^+ m. ``value`` is m' M^+ m when
    the first two hold, else None. The private fields keep the pivot rows and
    the block left when elimination stopped, from which ``bordered`` lifts an
    exact negative witness.
    """
    psd: bool
    in_range: bool
    value: Fraction | None
    den: int
    _pivots: list = field(repr=False, compare=False)  # (index, remaining indices, full row)
    _rest: list = field(repr=False, compare=False)    # upper rows of the block left
    _ids: list = field(repr=False, compare=False)     # its indices, the border last
    _last: int = 1                                    # last pivot: _rest is _last x Schur
    _bad: tuple = ()                                  # not psd: offending (i, j) in _rest

    def _entry(self, i: int, j: int) -> int:
        i, j = min(i, j), max(i, j)
        return self._rest[i][j - i]

    def _lift(self, tail: dict[int, int], rhs: bool = False) -> list[Fraction]:
        """v with v = tail on the remaining indices and each pivot coordinate chosen so
        that its pivot row of A v (of A v - b when rhs) vanishes."""
        n = len(self._ids) - 1 + len(self._pivots)
        v = [Fraction(0)] * n
        for pos, val in tail.items():
            v[self._ids[pos]] = Fraction(val)
        for k, ids, row in reversed(self._pivots):
            acc = sum((c * v[j] for c, j in zip(row, ids[:-1]) if c and j != k), Fraction(0))
            v[k] = ((row[-1] if rhs else 0) - acc) / row[ids.index(k)]
        return v

    def bordered(self, corner: Fraction) -> PsdVerdict:
        """Decide X = [[corner, m'], [m, M]]; a reject carries v with v' X v < 0."""
        scale = Fraction(1, self.den * self._last)
        if not self.psd:
            # the block left has a negative diagonal at i, or a nonzero (i, j)
            # between two zero diagonals
            i, j = self._bad
            if i == j:
                w, q = {i: 1}, self._entry(i, i)
            else:
                sgn = 1 if self._entry(i, j) > 0 else -1
                w, q = {i: 1, j: -sgn}, -2 * abs(self._entry(i, j))
            return PsdVerdict(False, witness=NegativeWitness(
                (Fraction(0), *self._lift(w)), q * scale))
        if not self.in_range:
            # null vector z of M with m'z != 0; v = (1, tau z) gives c + 2 tau m'z
            border = len(self._ids) - 1
            f = next(i for i in range(border) if self._entry(i, border))
            mz = self._entry(f, border) * scale
            tau = -(abs(corner) + 1) / mz
            return PsdVerdict(False, witness=NegativeWitness(
                (Fraction(1), *(tau * x for x in self._lift({f: 1}))),
                corner - 2 * (abs(corner) + 1)))
        if corner >= self.value:
            return PsdVerdict(True)
        # v = (1, -x) with M x = m gives c - m'x
        return PsdVerdict(False, witness=NegativeWitness(
            (Fraction(1), *(-x for x in self._lift({}, rhs=True))), corner - self.value))


def schur_eliminate(A: Sequence[Sequence[int]], b: Sequence[int], den: int) -> SchurElimination:
    """Decide M = A/den PSD (den > 0), m = b/den in range(M), and m' M^+ m, in integers.

    Bareiss's fraction-free elimination (every division exact) on the upper
    triangle of the symmetric matrix [[A, b], [b', 0]], pivoting on the
    largest remaining diagonal entry of A as ``psd_check`` does; the border
    row and column are carried along and never pivoted on. After a pivot d
    the remaining entries are d times the Schur complement, d > 0, so every
    sign test reads the Schur complement directly and the final corner is
    -d * m' M^+ m times den.
    """
    n = len(A)
    if len(b) != n or any(len(r) != n for r in A):
        raise ValueError("schur_eliminate needs a square block and a matching border")
    ids = list(range(n + 1))
    R = [[*A[i][i:], b[i]] for i in range(n)]
    R.append([0])
    pivots = []
    prev = 1
    while len(ids) > 1:
        p = max(range(len(ids) - 1), key=lambda i: R[i][0])
        d = R[p][0]
        if d <= 0:
            break
        top = [R[i][p - i] for i in range(p)] + R[p]
        pivots.append((ids[p], ids, top))
        rest = []
        for i, row in enumerate(R):
            if i == p:
                continue
            f = top[i]
            if f:
                row = [(d * x - f * c) // prev for x, c in zip(row, top[i:])]
            elif d != prev:
                row = [d * x // prev for x in row]
            if i < p:
                del row[p - i]
            rest.append(row)
        R, ids, prev = rest, ids[:p] + ids[p + 1:], d
    done = dict(_pivots=pivots, _rest=R, _ids=ids, _last=prev)
    m = len(ids) - 1
    for i in range(m):
        if R[i][0] < 0:
            return SchurElimination(False, False, None, den, **done, _bad=(i, i))
    for i in range(m):
        for j in range(1, m - i):
            if R[i][j]:
                return SchurElimination(False, False, None, den, **done, _bad=(i, i + j))
    if any(R[i][m - i] for i in range(m)):
        return SchurElimination(True, False, None, den, **done)
    return SchurElimination(True, True, Fraction(-R[m][0], prev * den), den, **done)


def prove_psd(N: Sequence[Sequence[int]],
              propose: Callable[[list[list[int]]], tuple[list, list[int]] | None]) -> bool:
    """True only when the symmetric integer matrix N is proved PSD; False
    decides nothing.

    Rows and columns that are all zero are dropped, which keeps the decision.
    ``propose`` gets the block K left and returns None or (L, e): integer rows
    of a factor (trailing zeros may be left off) and one power-of-two exponent
    per row. With D = diag(2^e), the proof holds when E = D K D - L L' has a
    nonnegative diagonal and is diagonally dominant. Then E is PSD, and so is
    K, congruent to L L' + E. Both tests run on E times 4^-min(e, 0), which is
    an integer matrix, so whatever ``propose`` returns, an accept is exact.
    """
    keep = [i for i, row in enumerate(N) if any(row)]
    K = [[N[i][j] for j in keep] for i in keep]
    if not K:
        return True
    proposal = propose(K)
    if proposal is None:
        return False
    L, e = proposal
    if len(L) != len(K) or len(e) != len(K):
        raise ValueError("a proposed factor needs one row and one exponent per kept row")
    up = -2 * min(0, *e)
    off = [0] * len(K)  # off-diagonal absolute row sums of E * 4^-min(e, 0)
    diag = []
    for i, (Ki, Li) in enumerate(zip(K, L)):
        s = e[i] + up
        for j, (k, Lj) in enumerate(zip(Ki[:i], L)):
            x = abs((k << (s + e[j])) - (sum(map(mul, Li, Lj)) << up))
            off[i] += x
            off[j] += x
        diag.append((Ki[i] << (s + e[i])) - (sum(map(mul, Li, Li)) << up))
    for d, o in zip(diag, off):
        if d < 0:
            return False
        if abs(d) < o:  # dominance as defined, |E_ii| >= sum_j |E_ij|
            return False
    return True


@dataclass(frozen=True)
class InRangeFailure:
    """b is not in the range of M: no x solves M x = b."""
    detail: str = "right-hand side outside the range of the matrix"


def rref(A: RatMatrix) -> tuple[RatMatrix, tuple[int, ...]]:
    """Exact reduced row echelon form and the (strictly increasing) pivot columns."""
    m, n = A.rows, A.cols
    R = [list(A.row(i)) for i in range(m)]
    pivots: list[int] = []
    r = 0
    for c in range(n):
        if r == m:
            break
        p = next((i for i in range(r, m) if R[i][c]), None)
        if p is None:
            continue
        R[r], R[p] = R[p], R[r]
        pv = R[r][c]
        if pv != 1:
            R[r] = [x / pv for x in R[r]]
        for i in range(m):
            if i != r and R[i][c]:
                f = R[i][c]
                Ri, Rr = R[i], R[r]
                for j in range(c, n):
                    if Rr[j]:
                        Ri[j] -= f * Rr[j]
        pivots.append(c)
        r += 1
    return RatMatrix.from_rows(R) if m else A, tuple(pivots)


def solve_exact(M: RatMatrix, b: Sequence[Fraction]) -> tuple[Fraction, ...] | InRangeFailure:
    """Solve M x = b exactly, or report that b is outside range(M).

    Returns one solution (free coordinates zeroed). For symmetric M the
    quadratic form b' x is independent of which solution is returned.
    """
    if len(b) != M.rows:
        raise ValueError(f"rhs length {len(b)} does not match {M.rows}x{M.cols}")
    bf = [_as_fraction(x) for x in b]
    aug = RatMatrix(
        M.rows, M.cols + 1,
        [x for i in range(M.rows) for x in (*M.row(i), bf[i])],
    )
    R, pivots = rref(aug)
    if M.cols in pivots:
        return InRangeFailure()
    x = [Fraction(0)] * M.cols
    for r, c in enumerate(pivots):
        x[c] = R.entry(r, M.cols)
    return tuple(x)
