"""Spans around the calls into each lscert layer, recorded from outside.

``Tracer.install`` rebinds each traced function at every module that looks it
up at call time (its defining module and the modules that import it by name),
so calls made inside the library nest under the caller's span. Nothing in the
library changes; ``uninstall`` restores the original functions.

A span is (name, start, end, parent span id, request id). Spans stay in memory
until ``write`` dumps them as JSON lines.
"""
from __future__ import annotations

import contextlib
import functools
import json
from pathlib import Path
from time import perf_counter

# span name -> modules (under lscert) whose global of that name is rebound
TRACED = {
    "pep_builder.M_mat": ("pep_builder", "certificate"),
    "pep_builder.assemble_Z": ("pep_builder", "certificate"),
    "exact_linalg.psd_check": ("exact_linalg", "certificate"),
    "exact_linalg.solve_exact": ("exact_linalg", "certificate"),
    "exact_linalg.rref": ("exact_linalg", "sdp_search"),
    "certificate.check_membership": ("certificate", "two_step", "sdp_search"),
    "certificate.minimal_epsilon": ("certificate", "sdp_search"),
    "certificate.check_pointwise": ("certificate",),
    "two_step.bisect_dyadic_delta": ("two_step",),
    "sdp_search.generate": ("sdp_search",),
    "sdp_search.solve_approx": ("sdp_search",),
    "sdp_search.round_to_exact": ("sdp_search",),
    "sdp_search.evaluate_primal": ("sdp_search",),
    "conelp.solve_conic": ("conelp", "sdp_search"),
    "gd_lab.gen_least_squares": ("gd_lab",),
    "gd_lab.run_gd": ("gd_lab",),
    "gd_lab.one_d_worstcase": ("gd_lab",),
    "gd_lab.kink_descent_gap": ("gd_lab",),
    "rates.rate_guarantee": ("rates",),
    "rates.bound_at": ("rates",),
}


def _entry_bits(M) -> int:
    best = 0
    for i in range(M.rows):
        for v in M.row(i):
            best = max(best, v.numerator.bit_length(), v.denominator.bit_length())
    return best


def conic_flops(n: int, m: int, dims) -> int:
    """Computed flops of one interior-point iteration, from the problem shape.

    Model of a dense Nesterov-Todd iteration on n cone rows and m variables:
    Schur matrix H = A' W^2 A (2*l*m^2 for the LP rows; per PSD block of order
    p with s = p(p+1)/2, 4*m*p^3 for the congruences and 2*m^2*s for the
    products), 15*p^3 per block for the scaling factorizations, one Cholesky of
    H (m^3/3) and 8*n*m for the matrix-vector products with A.
    """
    f = 2 * dims.nonneg * m * m + m ** 3 // 3 + 8 * n * m
    for p, s in zip(dims.psd, dims.svec_dims):
        f += 4 * m * p ** 3 + 2 * m * m * s + 15 * p ** 3
    return f


def gd_flops_per_step(n: int) -> int:
    """Computed flops of one least-squares gradient step: three n x n
    matrix-vector products (2n^2 each) plus 6n vector operations."""
    return 6 * n * n + 6 * n


class Tracer:
    def __init__(self):
        self.spans: list = []          # [name, start, end, parent, request]
        self.stack: list[int] = []
        self.request: int | None = None
        self.active = False
        self.counts: dict[str, int] = {}
        self._saved: list = []

    def _count(self, key: str, v: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + v

    def _max(self, key: str, v: int) -> None:
        self.counts[key] = max(self.counts.get(key, 0), v)

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around a driver-side step."""
        if not self.active:
            yield
            return
        sid = self.open_span(name)
        try:
            yield
        finally:
            self.close_span(sid)

    def open_span(self, name: str) -> int:
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, perf_counter(), None, parent, self.request])
        self.stack.append(sid)
        return sid

    def close_span(self, sid: int) -> None:
        self.spans[sid][2] = perf_counter()
        self.stack.pop()

    # --- per-layer counts taken at the boundary ---------------------------
    def _before(self, name: str, args) -> None:
        if name == "exact_linalg.psd_check":
            M = args[0]
            self._count("exact_linalg.psd_check.order_sum", M.rows)
            self._max("exact_linalg.entry_bits_max", _entry_bits(M))
        elif name == "certificate.check_membership":
            if self.stack and self.spans[self.stack[-1]][0] == "two_step.bisect_dyadic_delta":
                self._count("two_step.membership_checks")
        elif name == "gd_lab.run_gd":
            problem, T = args[0], args[2]
            self._count("gd_lab.steps", T)
            self._count("gd_lab.flops", gd_flops_per_step(problem.n) * T)

    def _after(self, name: str, args, result) -> None:
        if name == "conelp.solve_conic":
            A, dims = args[0], args[3]
            n, m = A.shape
            self._count("conelp.solves")
            self._count("conelp.iterations", result.iterations)
            self._count("conelp.flops", conic_flops(n, m, dims) * result.iterations)
            self._max("conelp.schur_dim", m)
            self._max("conelp.rows", n)
            if result.status == "optimal":
                self._count("conelp.optimal")
        elif name == "certificate.check_membership":
            # the verdict on a document a verify request submitted
            if self.stack and self.spans[self.stack[-1]][0].startswith("request:verify."):
                self._count("certificate.verdicts")
                self._count("certificate.rejects", not result.overall)
        elif name == "sdp_search.generate":
            self._count("sdp_search.generated")
        elif name == "rates.rate_guarantee":
            self._count("rates.s_bar_sum", result.s_bar)

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            self._before(name, args)
            sid = self.open_span(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close_span(sid)
            self._after(name, args, result)
            return result
        return traced

    def install(self, lib) -> None:
        """Rebind every traced function in the lscert modules held by ``lib``."""
        for name, sites in TRACED.items():
            home, attr = name.split(".")
            wrapped = self._wrap(name, getattr(getattr(lib, home), attr))
            for site in sites:
                mod = getattr(lib, site)
                if not hasattr(mod, attr):
                    raise AttributeError(f"lscert.{site} has no {attr} to trace")
                self._saved.append((mod, attr, getattr(mod, attr)))
                setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    # --- aggregation --------------------------------------------------------
    def times(self) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
        """Total ms, self ms and call count per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        total: dict[str, float] = {}
        own: dict[str, float] = {}
        calls: dict[str, int] = {}
        for sid, (name, start, end, _, _) in enumerate(self.spans):
            d = end - start
            total[name] = total.get(name, 0.0) + 1e3 * d
            own[name] = own.get(name, 0.0) + 1e3 * (d - child[sid])
            calls[name] = calls.get(name, 0) + 1
        return total, own, calls

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as f:
            for sid, (name, start, end, parent, request) in enumerate(self.spans):
                f.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                    "parent": parent, "request": request}) + "\n")

