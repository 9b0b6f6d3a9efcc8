"""Numerical search for certificate multipliers, plus exact rounding.

The pipeline mirrors how the long certificates were produced: solve a dense
SDP feasibility problem for an approximate multiplier pair, round it to
rationals satisfying the equality conditions exactly, then hand the result
to the exact verifier. Floats are only ever a search heuristic; exact
arithmetic is the arbiter.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np

from .certificate import (
    Certificate,
    Infeasible,
    MembershipReport,
    PreconditionError,
    _eps_min,
    _rhs_gamma,
    _rhs_lambda,
    check_membership,
    delta_cap,
)
# bound here as well, where the benchmark's tracer rebinds it
from .certificate import minimal_epsilon  # noqa: F401
from .conelp import (
    ConeDims,
    SolverOptions,
    solve_conic,
    svec_pack,
    svec_unpack,
)
from .exact_linalg import RatMatrix, rat_to_str, rref
from .pep_builder import PairTable, StepsizePattern, pair_table

DEFAULT_GENERATION_MAX_T = 31   # longest pattern any float solve here accepts


class NotFound(Exception):
    """The numerical search exhausted its budget without an approximate member.

    This is NOT a proof of emptiness; it reports the best residuals reached
    and, in ``solver``, how the solve ended (``ConicResult.summary``).
    """

    def __init__(self, message: str, residuals: dict | None = None,
                 solver: dict | None = None):
        super().__init__(message)
        self.residuals = residuals or {}
        self.solver = solver or {}


class RoundingFailure(Exception):
    """Rounding produced an exactly-infeasible point (try more denominator bits)."""


@dataclass(frozen=True)
class SolveOptions:
    max_iters: int = 200
    tol: float = 1e-8

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError(f"max_iters={self.max_iters} must be at least 1")
        if self.tol <= 0:
            raise ValueError("tolerance must be positive")


def _equality_systems(table: PairTable) -> tuple[tuple[RatMatrix, tuple[Fraction, ...]], ...]:
    """Exact equalities (E, rhs) on lambda, then on gamma: the multiplier
    balance rows (sum_a), and for lambda also the first-column rows (m = 0)."""
    t = table.pattern.t
    E = [[Fraction(0)] * len(table.pairs) for _ in range(2 * (t + 1))]
    for col, p in enumerate(table.pairs):
        for k, s in p.balance:
            E[k][col] += s
        for k, v in p.border:
            E[t + 1 + k][col] += v
    return ((RatMatrix.from_rows(E), _rhs_lambda(t) + (Fraction(0),) * (t + 1)),
            (RatMatrix.from_rows(E[:t + 1]), _rhs_gamma(table.pattern)))


@dataclass(frozen=True)
class _AffineSpace:
    """Exact solution set {x : E x = rhs}: the free coordinates are arbitrary,
    and pivot r is particular[pivots[r]] - sum_k coef[r][k] * x[free[k]]."""
    particular: tuple[Fraction, ...]        # the solution with every free coordinate 0
    pivots: tuple[int, ...]                 # original column indices
    free: tuple[int, ...]                   # original column indices
    coef: tuple[tuple[Fraction, ...], ...]  # one row per pivot, over ``free``

    def solve(self, free_values: Sequence[Fraction]) -> list[Fraction]:
        """The solution with x[free[k]] = free_values[k], pivots filled exactly."""
        x = list(self.particular)
        for f, v in zip(self.free, free_values):
            x[f] = v
        for c, row in zip(self.pivots, self.coef):
            acc = self.particular[c]
            for a, v in zip(row, free_values):
                if a:
                    acc -= a * v
            x[c] = acc
        return x

    def float_basis(self) -> np.ndarray:
        """Nullspace basis as floats, one column per free coordinate: 1 at that
        coordinate, minus the pivot rows' coefficients at the pivot coordinates."""
        k, p = len(self.free), len(self.pivots)
        basis = np.zeros((k, len(self.particular)))
        basis[range(k), self.free] = 1.0
        rows = [[float(a) for a in row] for row in self.coef]
        # 0.0 - v keeps an exact zero positive, as float(-Fraction(0)) does
        basis[:, list(self.pivots)] = 0.0 - np.array(rows).reshape(p, k).T
        return basis.T


def _affine_space(E: RatMatrix, rhs: Sequence[Fraction],
                  priority: Sequence[float] | None = None) -> _AffineSpace:
    """Row-reduce [E | rhs]. With ``priority`` given, columns are scanned in
    order of decreasing priority so pivots land on high-priority coordinates;
    all reported indices refer to the original column order."""
    n = E.cols
    if priority is None:
        order = list(range(n))
    else:
        order = sorted(range(n), key=lambda i: (-priority[i], i))
    aug = RatMatrix(E.rows, n + 1,
                    [x for i in range(E.rows)
                     for x in (*(E.entry(i, cc) for cc in order), rhs[i])])
    R, piv = rref(aug)
    if n in piv:
        raise ValueError("equality system is inconsistent")
    free_sorted = sorted(set(range(n)) - set(piv))
    particular = [Fraction(0)] * n
    for r, c in enumerate(piv):
        particular[order[c]] = R.entry(r, n)
    return _AffineSpace(tuple(particular), tuple(order[c] for c in piv),
                        tuple(order[c] for c in free_sorted),
                        tuple(tuple(R.entry(r, f) for f in free_sorted) for r in range(len(piv))))


def _pair_block_maps(table: PairTable) -> tuple[np.ndarray, np.ndarray]:
    """Per-pair svec rows of the bordered PSD blocks.

    Returns (BM, Bm), each (n_pairs, svec_dim) for blocks of size t+2:
    BM[e] is the trailing-block contribution of a unit multiplier on pair e,
    Bm[e] the border (first column) contribution. Each entry adds the
    table's terms one float at a time, in the table's order.
    """
    dim = table.pattern.t + 2
    at = {rc: n for n, rc in enumerate((r, c) for r in range(dim) for c in range(r, dim))}
    BM = np.zeros((len(table.pairs), len(at)))
    Bm = np.zeros_like(BM)
    for e, p in enumerate(table.pairs):
        for r, c, v in p.trail:
            if r <= c:  # svec reads the upper triangle
                BM[e, at[r + 1, c + 1]] += float(v)
        for k, v in p.border:
            Bm[e, at[0, k + 1]] += float(v)
    w = svec_pack(np.ones((dim, dim)))
    return BM * w, Bm * w


def _pair_rows(table: PairTable, vec: Sequence, zero) -> list[list]:
    """The multiplier matrix, as rows, with vec[e] at pair e's position."""
    dim = table.pattern.t + 2
    rows = [[zero] * dim for _ in range(dim)]
    for v, p in zip(vec, table.pairs):
        rows[p.pos[0]][p.pos[1]] = v
    return rows


class _SearchPlan(NamedTuple):
    """What a search, its float residuals and its rounding read of one
    pattern. ``_search_plan`` builds it once per pattern; its arrays are
    read-only because every caller shares them."""
    table: PairTable
    systems: tuple              # _equality_systems(table): on lambda, then on gamma
    lam0: np.ndarray            # the unprioritised affine spaces of the two systems:
    gam0: np.ndarray            # the particular solutions floated,
    Nl: np.ndarray              # and the float nullspace bases
    Ng: np.ndarray
    BM: np.ndarray              # _pair_block_maps(table)
    Bm: np.ndarray
    pos: tuple[np.ndarray, np.ndarray]  # matrix row and column of each pair

    def vec(self, mat: np.ndarray) -> np.ndarray:
        """The multipliers of a float multiplier matrix, one per pair."""
        return mat[self.pos]

    def matrix(self, vec: np.ndarray) -> np.ndarray:
        """The float multiplier matrix with vec[e] at pair e's position."""
        dim = self.table.pattern.t + 2
        out = np.zeros((dim, dim))
        out[self.pos] = vec
        return out


@functools.lru_cache(maxsize=8)
def _search_plan(pattern: StepsizePattern) -> _SearchPlan:
    table = pair_table(pattern)
    systems = _equality_systems(table)
    (El, rl), (Eg, rg) = systems
    sp_l = _affine_space(El, rl)
    sp_g = _affine_space(Eg, rg)
    plan = _SearchPlan(table, systems,
                       np.array([float(v) for v in sp_l.particular]),
                       np.array([float(v) for v in sp_g.particular]),
                       sp_l.float_basis(), sp_g.float_basis(), *_pair_block_maps(table),
                       tuple(np.array(rc, dtype=np.intp) for rc in zip(*(p.pos for p in table.pairs))))
    for a in (plan.lam0, plan.gam0, plan.Nl, plan.Ng, plan.BM, plan.Bm, *plan.pos):
        a.flags.writeable = False
    return plan


def _balance_residual(table: PairTable, vec: np.ndarray, rhs: np.ndarray) -> float:
    """Largest violation of the balance rows, summed pair by pair."""
    acc = np.zeros(table.pattern.t + 1)
    for p, v in zip(table.pairs, vec):
        for k, s in p.balance:
            acc[k] += s * v
    return float(np.max(np.abs(acc - rhs)))


def recompute_residuals(pattern: StepsizePattern, Delta: float,
                        lam: np.ndarray, gam: np.ndarray) -> dict[str, float]:
    """Float feasibility diagnostics for an approximate multiplier pair."""
    t = pattern.t
    plan = _search_plan(pattern)
    sum_h = sum(float(v) for v in pattern.h)
    rhs_l = np.array([float(v) for v in _rhs_lambda(t)])
    rhs_g = np.zeros(t + 1)
    rhs_g[0] = 2.0 * sum_h  # the float sum of h, as in the PSD corner below

    BM, Bm = plan.BM, plan.Bm
    lam_vec = plan.vec(lam)
    gam_vec = plan.vec(gam)
    corner = np.zeros((t + 2, t + 2))
    corner[0, 0] = sum_h
    base = svec_pack(corner) + BM.T @ lam_vec + Bm.T @ gam_vec
    X1 = svec_unpack(base, t + 2)
    X2 = svec_unpack(base + Delta * (BM.T @ gam_vec), t + 2)
    lam_plus = lam_vec + Delta * gam_vec

    def min_eig(M: np.ndarray) -> float:
        if not np.all(np.isfinite(M)):
            return float("-inf")
        try:
            return float(np.linalg.eigvalsh(M)[0])
        except np.linalg.LinAlgError:
            return float("-inf")

    return {
        "eq_lambda_inf": _balance_residual(plan.table, lam_vec, rhs_l),
        "eq_gamma_inf": _balance_residual(plan.table, gam_vec, rhs_g),
        "m_lambda_inf": float(np.max(np.abs(lam[0, 1:]))) / 2.0,
        "min_lambda": float(lam_vec.min()),
        "min_lambda_plus_delta_gamma": float(lam_plus.min()),
        "min_eig_psd_at_zero": min_eig(X1),
        "min_eig_psd_at_delta": min_eig(X2),
    }


@dataclass(frozen=True)
class FloatCertificate:
    """Approximate multiplier pair from the numerical solver.

    ``residuals`` is always recomputed from the stored matrices at
    construction time, never carried over stale.
    """
    pattern: StepsizePattern
    Delta: float
    lam: np.ndarray
    gam: np.ndarray
    residuals: dict[str, float] = field(default_factory=dict)
    solver: dict = field(default_factory=dict)     # ConicResult.summary()

    def __post_init__(self):
        object.__setattr__(self, "lam", np.ascontiguousarray(self.lam, dtype=float))
        object.__setattr__(self, "gam", np.ascontiguousarray(self.gam, dtype=float))
        object.__setattr__(
            self, "residuals",
            recompute_residuals(self.pattern, self.Delta, self.lam, self.gam))

    def tobytes(self) -> bytes:
        return self.lam.tobytes() + self.gam.tobytes()

    def worst_violation(self) -> float:
        r = self.residuals
        return max(r["eq_lambda_inf"], r["eq_gamma_inf"], r["m_lambda_inf"],
                   -r["min_lambda"], -r["min_lambda_plus_delta_gamma"],
                   -r["min_eig_psd_at_zero"], -r["min_eig_psd_at_delta"], 0.0)


def _validate_search_inputs(pattern: StepsizePattern,
                            Delta: Fraction | float | None = None) -> None:
    """The one scale cap of every float solve, and the gap cap when Delta is given."""
    if pattern.t > DEFAULT_GENERATION_MAX_T:
        raise PreconditionError(f"pattern length {pattern.t} exceeds the supported scale "
                                f"(t <= {DEFAULT_GENERATION_MAX_T})")
    if Delta is None:
        return
    # compared exactly: sum h and Delta may lie past the float range
    cap = delta_cap(pattern)
    if not 0 < Delta < cap + Fraction(1, 10 ** 15):
        raise PreconditionError(
            f"Delta={Delta} outside (0, min(1/2, 1/(2 sum h))={float(cap):.6g})")
    if float(Delta) == 0:
        raise PreconditionError(
            f"Delta={Delta} is below the smallest positive float, so the float search "
            "cannot use it")


def solve_approx(pattern: StepsizePattern, Delta: float,
                 opts: SolveOptions | None = None, *,
                 verbose: bool = False) -> FloatCertificate:
    """Find an approximate multiplier pair by pure-feasibility path following.

    The equality conditions are built into the parameterization (exact
    nullspace basis, floated), and the interior-point iteration follows the
    central path of the remaining cone constraints toward their analytic
    center. Exact certificates sit on the PSD boundary (a strictly positive
    corner-Schur slack would beat the true one-dimensional worst case), so
    no margin is forced on the PSD blocks. Deterministic for fixed inputs.

    Scaling notes, load-bearing for t ~ 31: multipliers pinned to zero by the
    first-column equality get no cone rows at all, the (*, j) rows of
    lambda + Delta*gamma are carried as gamma_(*,j) >= 0 (the same constraint,
    scaled 1/Delta), and gamma is boxed directly so every search direction is
    visible in the Schur system at unit scale.
    """
    opts = opts or SolveOptions()
    _validate_search_inputs(pattern, Delta)
    t = pattern.t
    plan = _search_plan(pattern)
    table = plan.table
    n_pairs = len(table.pairs)
    Df = float(Delta)

    lam0, gam0, Nl, Ng, BM, Bm = plan.lam0, plan.gam0, plan.Nl, plan.Ng, plan.BM, plan.Bm
    kl, kg = Nl.shape[1], Ng.shape[1]
    m = kl + kg

    dim = t + 2
    sum_h = float(pattern.sum_h)
    box = 1e4 * (1.0 + sum_h)

    star_rows = [e for e, p in enumerate(table.pairs) if p.pos[0] == 0]
    rest = [e for e, p in enumerate(table.pairs) if p.pos[0] != 0]
    n_rest = len(rest)

    # the problem is written block by block into one A and one c
    l_rows = 4 * n_rest + len(star_rows) + n_pairs
    dims = ConeDims(l_rows, (dim, dim))
    A = np.empty((dims.total, m))
    c = np.empty(dims.total)
    at = 0

    def add_rows(cs: np.ndarray, As: np.ndarray) -> None:
        nonlocal at
        A[at:at + len(cs)] = As
        c[at:at + len(cs)] = cs
        at += len(cs)

    Az = np.concatenate([Nl, np.zeros((n_pairs, kg))], axis=1)
    Gz = np.concatenate([np.zeros((n_pairs, kl)), Ng], axis=1)
    # lambda_e >= 0 on entries not pinned to zero by the first-column equality
    add_rows(lam0[rest], -Az[rest])
    # (lambda + Delta*gamma)_e >= 0 away from the starred row
    add_rows(lam0[rest] + Df * gam0[rest], -(Az[rest] + Df * Gz[rest]))
    # on the starred row lambda is pinned to zero: the same constraint is
    # gamma_(*,j) >= 0 after dividing by Delta (unit-scale coefficients)
    add_rows(gam0[star_rows], -Gz[star_rows])
    # boxes keep the search region compact; slack in practice
    add_rows(np.full(n_rest, box) - lam0[rest], Az[rest])
    add_rows(np.full(n_pairs, box) - gam0, Gz)
    add_rows(np.full(n_rest, box) + gam0[rest], -Gz[rest])
    del Az, Gz

    corner = np.zeros((dim, dim))
    corner[0, 0] = sum_h
    corner_svec = svec_pack(corner)
    # PSD block at gap 0: corner + M(lambda) + border(gamma)
    add_rows(corner_svec + BM.T @ lam0 + Bm.T @ gam0,
             -np.concatenate([BM.T @ Nl, Bm.T @ Ng], axis=1))
    # PSD block at gap Delta: trailing block shifts by Delta*M(gamma)
    add_rows(corner_svec + BM.T @ lam0 + (Bm + Df * BM).T @ gam0,
             -np.concatenate([BM.T @ Nl, (Bm + Df * BM).T @ Ng], axis=1))
    res = solve_conic(A, np.zeros(m), c, dims,
                      SolverOptions(max_iters=opts.max_iters, tol=min(1e-9, opts.tol / 10),
                                    verbose=verbose),
                      init_scale=max(1.0, sum_h))

    z = res.y
    lam_vec = lam0 + (Nl @ z[:kl] if kl else 0.0)
    gam_vec = gam0 + (Ng @ z[kl:kl + kg] if kg else 0.0)
    fc = FloatCertificate(
        pattern=pattern,
        Delta=Df,
        lam=plan.matrix(lam_vec),
        gam=plan.matrix(gam_vec),
        solver=res.summary(),
    )
    viol = fc.worst_violation()
    if not viol <= opts.tol:  # a NaN residual fails too
        raise NotFound(
            f"no approximate certificate for h=({pattern.as_text()}) at "
            f"Delta={Df:g}: worst violation {viol:.3e} "
            f"(solver {res.status} after {res.iterations} iterations); "
            "this is not a proof of emptiness",
            residuals=fc.residuals, solver=fc.solver,
        )
    return fc


def _dyadic(v: float, bits: int) -> Fraction:
    scale = 1 << bits
    return Fraction(round(float(v) * scale), scale)


def _check_denom_bits(denom_bits: int) -> None:
    if denom_bits < 1:
        raise PreconditionError(f"denom_bits={denom_bits} must be at least 1")


def round_to_exact(approx: FloatCertificate, denom_bits: int = 53,
                   exact_delta: Fraction | None = None) -> Certificate:
    """Round an approximate pair to exact rationals satisfying the equalities.

    Non-pivot entries become nearest dyadic rationals with denominator
    2^denom_bits (entries of lambda that would round negative are clamped to
    zero first); pivot entries, chosen by the rref of the stacked equality
    system, are then solved exactly.
    """
    _check_denom_bits(denom_bits)
    if not all(np.isfinite(v) for v in approx.residuals.values()):
        raise PreconditionError("approximate certificate has non-finite residuals")
    pattern = approx.pattern
    plan = _search_plan(pattern)
    table = plan.table
    # a float gap cap is a dyadic rational, so it carries over exactly
    Delta = exact_delta if exact_delta is not None else Fraction(approx.Delta)

    lam_f = plan.vec(approx.lam)
    gam_f = plan.vec(approx.gam)
    (El, rl), (Eg, rg) = plan.systems

    # entries below solver noise are meant to sit on the boundary: snap them
    # to exact zero so pivot entries tied to them by the equalities follow
    snap = 2.0 ** (-(denom_bits // 2))

    def round_entry(v: float) -> Fraction:
        return Fraction(0) if abs(v) <= snap else _dyadic(v, denom_bits)

    # pivots go to large-magnitude entries, so the exact corrections from the
    # pivot solve cannot flip the sign of a boundary (near-zero) multiplier;
    # entries that still solve negative get demoted to free coordinates (which
    # free_value keeps feasible) and the system is re-pivoted
    def repivot(E, rhs, floats, free_value, bad_at, failure: str) -> list[Fraction]:
        prio = np.abs(floats)
        for _ in range(8):
            space = _affine_space(E, rhs, priority=prio)
            x = space.solve([free_value(f) for f in space.free])
            bad = bad_at(x)  # entry -> its negative value
            if not bad:
                return x
            prio[list(bad)] = -1.0
        raise RoundingFailure(
            f"re-pivoting left {failure.format(len(bad))} (worst "
            f"{float(min(bad.values())):.3e}); retry with larger denom_bits")

    def negatives(values: list[Fraction]) -> dict[int, Fraction]:
        return {e: v for e, v in enumerate(values) if v < 0}

    lam_vec = repivot(El, rl, lam_f, lambda f: max(Fraction(0), round_entry(lam_f[f])),
                      negatives, "{} negative lambda entries")

    def gam_free(f: int) -> Fraction:
        g = round_entry(gam_f[f])
        # lift to the boundary of the nonnegativity face
        return g if lam_vec[f] + Delta * g >= 0 else -lam_vec[f] / Delta

    gam_vec = repivot(Eg, rg, gam_f, gam_free,
                      lambda x: negatives([v + Delta * g for v, g in zip(lam_vec, x)]),
                      "nonnegativity of lambda + Delta*gamma violated at {} entries")

    return Certificate(pattern, Delta, Fraction(0),
                       RatMatrix.from_rows(_pair_rows(table, lam_vec, Fraction(0))),
                       RatMatrix.from_rows(_pair_rows(table, gam_vec, Fraction(0))))


DENOM_BITS_LADDER = (53, 80)


def _tidy_eps_ceiling(em: Fraction) -> Fraction:
    """Smallest d * 10^k >= em with a single significant digit d (0 if em <= 0).

    Stored slacks stay human-readable; validity is monotone in eps, so any
    ceiling of the minimal slack verifies.
    """
    if em <= 0:
        return Fraction(0)
    unit = Fraction(1)
    while unit < em:
        unit *= 10
    while unit / 10 >= em:
        unit /= 10
    step = unit / 10  # step < em <= unit
    d = -((-em.numerator * step.denominator) // (em.denominator * step.numerator))
    return d * step


def generate(pattern: StepsizePattern, Delta: Fraction | float,
             opts: SolveOptions | None = None, *,
             denom_bits: int | None = None,
             verbose: bool = False) -> tuple[Certificate, MembershipReport, Fraction]:
    """Full pipeline: numerical solve, exact rounding, exact verification.

    Returns only exactly-verified certificates (with epsilon set to the
    computed minimal slack when that is positive). Raises NotFound or
    RoundingFailure otherwise.
    """
    opts = opts or SolveOptions()
    _validate_search_inputs(pattern, Delta)
    if denom_bits is not None:
        _check_denom_bits(denom_bits)  # refused before the solve
    Delta_exact = Delta if isinstance(Delta, Fraction) else Fraction(Delta)
    cap = delta_cap(pattern)
    if Delta_exact > cap:
        raise PreconditionError(
            f"Delta={rat_to_str(Delta_exact)} exceeds min(1/2, 1/(2 sum h))={rat_to_str(cap)}")
    approx = solve_approx(pattern, float(Delta_exact), opts, verbose=verbose)
    ladder = (denom_bits,) if denom_bits is not None else DENOM_BITS_LADDER
    last_error: Exception | None = None
    for bits in ladder:
        try:
            cert0 = round_to_exact(approx, bits, exact_delta=Delta_exact)
        except RoundingFailure as e:
            last_error = e
            continue
        # cert0 holds eps = 0; its eliminations decide every eps, so the final
        # certificate and its report reuse them. The equality and nonnegativity
        # conditions hold by construction and are checked in the report.
        em = _eps_min(cert0)
        if isinstance(em, Infeasible):
            last_error = RoundingFailure(
                f"rounded pair admits no finite epsilon ({em.reason}); retry with "
                "larger denom_bits")
            continue
        cert = cert0.with_epsilon(_tidy_eps_ceiling(em))  # validity is monotone in eps
        report = check_membership(cert)
        if report.overall:
            return cert, report, em
        last_error = RoundingFailure(
            f"exact verification failed after rounding at {bits} bits: "
            f"{report.failed_conditions()}")
    raise last_error if last_error else RoundingFailure("rounding ladder exhausted")


@dataclass(frozen=True)
class PrimalValue:
    """Numerical optimum of the worst-case-gap SDP at one gap level."""
    value: float
    gram_eigenvalues: np.ndarray
    numerical_rank: int
    status: str


def evaluate_primal(pattern: StepsizePattern, delta: float,
                    opts: SolveOptions | None = None, *,
                    verbose: bool = False) -> PrimalValue:
    """Solve the worst-case final-gap SDP (upper bound on the true worst case).

    Maximizes the final objective value over Gram-matrix relaxations with
    unit initial distance and initial gap at most delta; also reports the
    numerical rank of the optimal Gram matrix.
    """
    opts = opts or SolveOptions()
    if delta < 0:
        raise PreconditionError(f"delta={delta} must be nonnegative")
    _validate_search_inputs(pattern)
    t = pattern.t
    table = pair_table(pattern)
    n_pairs = len(table.pairs)
    dim = t + 2
    sd = dim * (dim + 1) // 2
    nf = t + 1
    m = nf + sd  # variables: objective values F, then svec of the Gram matrix

    big = 100.0 * (1.0 + float(pattern.sum_h)) ** 2
    l_rows = n_pairs + 2 + 2 * nf + dim
    A = np.zeros((l_rows + sd, m))
    c = np.zeros(l_rows + sd)
    # one row per pair: a, then A + C/2 summed exactly and floated
    K = np.zeros((n_pairs, dim, dim))
    for e, p in enumerate(table.pairs):
        for k, s in p.balance:
            A[e, k] = s
        for rc, v in p.entries().items():
            K[(e, *rc)] = float(v)
    A[:n_pairs, nf:] = svec_pack(K)
    row = n_pairs
    # Tr(G B_{0,*}) <= 1: the initial-distance constraint
    B0 = np.zeros((dim, dim))
    B0[0, 0] = 1.0
    A[row, nf:] = svec_pack(B0)
    c[row] = 1.0
    row += 1
    # initial gap at most delta
    A[row, 0] = 1.0
    c[row] = float(delta)
    row += 1
    # loose boxes guarantee compactness
    for k in range(nf):
        A[row, k] = 1.0
        c[row] = big
        row += 1
        A[row, k] = -1.0
        c[row] = big
        row += 1
    for k in range(dim):
        E = np.zeros((dim, dim))
        E[k, k] = 1.0
        A[row, nf:] = svec_pack(E)
        c[row] = big
        row += 1
    # PSD block: the Gram matrix itself
    A[l_rows:, nf:] = -np.eye(sd)

    b = np.zeros(m)
    b[t] = 1.0  # maximize the final objective value
    res = solve_conic(A, b, c, ConeDims(l_rows, (dim,)),
                      SolverOptions(max_iters=opts.max_iters, tol=min(1e-9, opts.tol / 10),
                                    verbose=verbose),
                      init_scale=1.0)
    G = svec_unpack(res.y[nf:], dim)
    eigs = np.linalg.eigvalsh(G)
    lead = max(float(eigs[-1]), 0.0)
    rank = int(np.sum(eigs > 1e-6 * max(lead, 1e-300)))
    return PrimalValue(value=res.objective, gram_eigenvalues=eigs,
                       numerical_rank=rank, status=res.status)
