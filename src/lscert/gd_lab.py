"""Gradient descent with cyclic stepsize patterns on generated problems.

Includes the exact one-dimensional worst-case recurrence (the envelope the
certificates promise), a seeded least-squares problem generator, and CSV
trajectory output. Random numbers come from PCG64 uniforms pushed through a
Box-Muller transform, so trajectories are reproducible from (kind, n, seed).
"""
from __future__ import annotations

import csv
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .pep_builder import StepsizePattern


class DivergedError(RuntimeError):
    def __init__(self, iterate: int):
        super().__init__(f"non-finite objective or gradient at iteration {iterate}")
        self.iterate = iterate


@dataclass
class SmoothProblem:
    n: int
    oracle: Callable[[np.ndarray], tuple[float, np.ndarray]]  # x -> (f(x), grad f(x))
    L: float
    f_star: float
    x_star: np.ndarray
    descriptor: dict = field(default_factory=dict)


@dataclass
class TrajectoryRecord:
    gaps: np.ndarray            # objective gaps, length T + 1
    pattern_id: str
    seed: int | None
    T: int
    L: float

    def __post_init__(self):
        if len(self.gaps) != self.T + 1:
            raise ValueError(f"expected {self.T + 1} gaps, got {len(self.gaps)}")
        scale = max(abs(float(self.gaps[0])), 1.0)
        if float(self.gaps.min()) < -1e-12 * scale:
            raise ValueError(f"negative objective gap beyond the numerical floor: "
                             f"{self.gaps.min()}")


def run_gd(problem: SmoothProblem, pattern: StepsizePattern, T: int,
           x0: np.ndarray | None = None, pattern_id: str = "") -> TrajectoryRecord:
    """Iterate x <- x - (h_(k mod t) / L) grad f(x) for T steps, recording gaps.

    One oracle call per iterate x_0, ..., x_T gives both its gap and the
    gradient of the next step.
    """
    if T < 1:
        raise ValueError("T must be at least 1")
    if not (np.isfinite(problem.L) and problem.L > 0):
        raise ValueError(f"problem smoothness constant must be finite and positive, "
                         f"got {problem.L}")
    try:
        steps = [float(h) / problem.L for h in pattern.h]
    except OverflowError:
        raise ValueError("a stepsize lies past the float range, so its steps cannot "
                         "be simulated") from None
    x = np.zeros(problem.n) if x0 is None else np.array(x0, dtype=float)
    gaps = np.empty(T + 1)
    val, g = problem.oracle(x)
    gaps[0] = val - problem.f_star
    for k in range(T):
        if not np.all(np.isfinite(g)):
            raise DivergedError(k)
        x = x - steps[k % pattern.t] * g
        val, g = problem.oracle(x)
        if not np.isfinite(val):
            raise DivergedError(k + 1)
        gaps[k + 1] = val - problem.f_star
    return TrajectoryRecord(gaps=gaps, pattern_id=pattern_id,
                            seed=problem.descriptor.get("seed"), T=T, L=problem.L)


# --- the one-dimensional worst case (L = D = 1) -----------------------------

def worstcase_gap_threshold(pattern: StepsizePattern) -> Fraction:
    return 1 / pattern.sum_h


def one_d_worstcase(delta0: Fraction, pattern: StepsizePattern,
                    periods: int) -> tuple[Fraction, ...]:
    """Exact gap sequence at pattern boundaries for the hardest 1-D instance.

    Applies delta <- delta - sum(h) * delta^2 once per pattern application,
    re-instantiating the worst one-dimensional slope for the current gap at
    the start of each period.
    """
    if not isinstance(delta0, Fraction):
        raise TypeError("delta0 must be an exact Fraction")
    cap = worstcase_gap_threshold(pattern)
    if not (0 <= delta0 <= cap):
        raise ValueError(
            f"delta0={delta0} outside [0, 1/sum(h)={cap}]: the one-dimensional "
            "recurrence only holds for small enough initial gaps")
    out = [delta0]
    s = pattern.sum_h
    d = delta0
    for _ in range(periods):
        d = d - s * d * d
        out.append(d)
    return tuple(out)


def kink_descent_gap(delta: Fraction, pattern: StepsizePattern) -> Fraction:
    """One pattern application of subgradient descent on f(x) = max(delta*x, 0).

    Starts at x0 = 1 (unit distance, L = D = 1) and returns the exact final
    gap; agrees with one step of the one_d_worstcase recurrence.
    """
    cap = worstcase_gap_threshold(pattern)
    if not (0 <= delta <= cap):
        raise ValueError(f"delta={delta} outside [0, 1/sum(h)={cap}]")
    x = Fraction(1)
    for h in pattern.h:
        slope = delta if x > 0 else Fraction(0)
        x = x - h * slope
    return delta * x if x > 0 else Fraction(0)


# --- seeded least-squares instances ------------------------------------------

def _box_muller_normals(rng: np.random.Generator, count: int) -> np.ndarray:
    pairs = (count + 1) // 2
    u1 = 1.0 - rng.random(pairs)  # in (0, 1]: keeps the log finite
    u2 = rng.random(pairs)
    r = np.sqrt(-2.0 * np.log(u1))
    z = np.concatenate([r * np.cos(2 * np.pi * u2), r * np.sin(2 * np.pi * u2)])
    return z[:count]


def _top_singular_value_sq(A: np.ndarray, tol: float = 1e-10,
                           max_iters: int = 100000) -> float:
    """Largest eigenvalue of A'A by power iteration to relative tol."""
    n = A.shape[1]
    v = np.ones(n) + 1e-3 * np.arange(n) / max(n - 1, 1)  # deterministic, non-degenerate
    v /= np.linalg.norm(v)
    prev = 0.0
    for _ in range(max_iters):
        w = A.T @ (A @ v)
        lam = float(v @ w)
        nrm = np.linalg.norm(w)
        if nrm == 0.0:
            return 0.0
        v = w / nrm
        if abs(lam - prev) <= tol * max(lam, 1e-300):
            return lam
        prev = lam
    return prev


def gen_least_squares(n: int, seed: int, ridge: bool) -> SmoothProblem:
    """Random square least-squares instance, optionally ridge-regularized.

    Deterministic per (n, seed, ridge): entries of A and b are standard
    normals from PCG64 + Box-Muller. The smoothness constant is computed,
    not assumed, with a 1 + 1e-8 safety factor on the power-iteration
    estimate (underestimating it would void the guarantees).
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    rng = np.random.Generator(np.random.PCG64(seed))
    z = _box_muller_normals(rng, n * n + n)
    A = z[: n * n].reshape(n, n)
    b = z[n * n:]

    def oracle(x: np.ndarray) -> tuple[float, np.ndarray]:
        r = A @ x - b  # one residual for both: two matrix-vector products
        val = float(r @ r)
        g = 2.0 * (A.T @ r)
        if ridge:
            val += float(x @ x)
            g = g + 2.0 * x
        return val, g

    sigma_sq = _top_singular_value_sq(A)
    L = 2.0 * sigma_sq * (1.0 + 1e-8) + (2.0 if ridge else 0.0)
    descriptor = {"kind": "lsq-ridge" if ridge else "lsq", "n": n, "seed": seed,
                  "generator": "pcg64-box-muller"}
    if ridge:
        x_star = np.linalg.solve(A.T @ A + np.eye(n), A.T @ b)
    else:
        x_star, _, rank, _ = np.linalg.lstsq(A, b, rcond=None)
        if rank < n:
            descriptor["solver"] = "min-norm-least-squares"
    return SmoothProblem(n=n, oracle=oracle, L=L, f_star=oracle(x_star)[0], x_star=x_star,
                         descriptor=descriptor)


def emit_csv(record: TrajectoryRecord, path: str | Path) -> Path:
    """Write the trajectory as "iter,gap" rows, 17 significant digits."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iter", "gap"])
        for k, gap in enumerate(record.gaps):
            writer.writerow([k, format(float(gap), ".17g")])
    return path


def is_monotone_decreasing(gaps: Sequence[float], tol: float = 0.0) -> bool:
    arr = np.asarray(gaps, dtype=float)
    return bool(np.all(arr[1:] <= arr[:-1] + tol))
