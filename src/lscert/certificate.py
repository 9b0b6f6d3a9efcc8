"""Certificates that a cyclic stepsize pattern contracts the objective gap.

A certificate is a multiplier pair (lambda, gamma) together with the gap cap
Delta and a slack eps. Membership in the certificate set is decided in exact
rational arithmetic; a passing certificate proves the eps-relaxed descent
guarantee for every normalized initial gap in [0, Delta]. Floats may propose
the factor of an exact PSD proof (``_proved_psd``); they never decide.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from math import lcm
from pathlib import Path
from typing import Sequence

import numpy as np

from .exact_linalg import (PsdVerdict, RatMatrix, RationalParseError, SchurElimination,
                           integer_rows, prove_psd, rat_from_decimal, rat_to_str)
from .pep_builder import PepOperator, StepsizePattern, index_set

# The Fraction route the integer forms replaced (M_mat, assemble Z, then LDL'
# and rref) stays importable from here, where the benchmark's tracer rebinds it.
from .exact_linalg import psd_check, solve_exact  # noqa: F401
from .pep_builder import M_mat, assemble_Z  # noqa: F401


# Longest pattern a certificate file may declare: the verifier's supported range.
MAX_T = 127

# Smallest bordered block (order t + 2) on which a PSD accept is first tried as
# an exact proof from a float-proposed factor: below it one elimination is
# faster than the proposal (see README "Notes on exactness").
PROOF_MIN_ORDER = 8


# (den, N): the matrix N/den, as integer rows over one denominator
ScaledRows = tuple[int, list[list[int]]]


class CertificateError(ValueError):
    """Structural problem with a certificate (dimensions, ranges, file schema)."""


class PreconditionError(CertificateError):
    """An operation's stated precondition is violated."""


@dataclass(frozen=True)
class Infeasible:
    """No finite eps makes this multiplier pair a member of the certificate set."""
    reason: str


def _require_zero_diagonal(mat: RatMatrix, name: str) -> None:
    for i in range(mat.rows):
        if mat.entry(i, i) != 0:
            raise CertificateError(f"{name} must have a zero diagonal; entry ({i},{i}) is "
                                   f"{rat_to_str(mat.entry(i, i))}")


@dataclass(frozen=True)
class Certificate:
    pattern: StepsizePattern
    Delta: Fraction
    epsilon: Fraction
    lam: RatMatrix
    gam: RatMatrix

    def __post_init__(self):
        dim = self.pattern.t + 2
        for name, mat in (("lambda", self.lam), ("gamma", self.gam)):
            if mat.rows != dim or mat.cols != dim:
                raise CertificateError(
                    f"{name} must be {dim}x{dim} for t={self.pattern.t}, "
                    f"got {mat.rows}x{mat.cols}")
            _require_zero_diagonal(mat, name)
        if not (0 < self.Delta <= Fraction(1, 2)):
            raise CertificateError(f"Delta={rat_to_str(self.Delta)} outside (0, 1/2]")
        if self.epsilon < 0:
            raise CertificateError(f"epsilon={rat_to_str(self.epsilon)} must be nonnegative")

    @property
    def t(self) -> int:
        return self.pattern.t

    @property
    def corner(self) -> Fraction:
        """sum_i (h_i + eps): the corner of both membership blocks."""
        return self.pattern.sum_h + self.t * self.epsilon

    def with_epsilon(self, epsilon: Fraction) -> Certificate:
        """The same pair at another eps. eps enters only the corner, so the copy
        shares whatever integer forms, operator, eliminations and nonnegativity
        levels this certificate has computed."""
        return self._sharing(replace(self, epsilon=epsilon),
                             (*_PAIR_FORMS, "eliminations", "nonneg_levels"))

    def with_delta(self, Delta: Fraction) -> Certificate:
        """The same pair at another gap cap, sharing this certificate's operator
        (built here if it was not yet) and integer forms: they do not depend on
        Delta, the eliminations and the nonnegativity levels do."""
        cert = replace(self, Delta=Delta)
        cert.__dict__["operator"] = self.operator
        return self._sharing(cert, _PAIR_FORMS)

    def _sharing(self, cert: Certificate, names: Sequence[str]) -> Certificate:
        for name in names:
            if name in self.__dict__:
                cert.__dict__[name] = self.__dict__[name]
        return cert

    @cached_property
    def integer_form(self) -> tuple[ScaledRows, ScaledRows]:
        """((d_lam, L), (d_gam, G)): lambda = L/d_lam and gamma = G/d_gam as
        integer rows over their least common denominators. Every linear
        condition is decided on these."""
        return (integer_rows([self.lam.row(p) for p in range(self.lam.rows)]),
                integer_rows([self.gam.row(p) for p in range(self.gam.rows)]))

    @cached_property
    def operator(self) -> PepOperator:
        """The operator of the multiplier pair, from its integer form."""
        return PepOperator(self.pattern, *self.integer_form)

    @cached_property
    def balance(self) -> tuple[tuple[int, list[int]], tuple[int, list[int]]]:
        """((D_lam, E_lam), (D_gam, E_gam)): the residuals of the two equality
        conditions, sum_a(lambda) - rhs_lambda = E_lam/D_lam and
        sum_a(gamma) - rhs_gamma = E_gam/D_gam, in integers. At a gap level
        delta the multiplier equality reads E_lam/D_lam + delta E_gam/D_gam = 0."""
        op = self.operator
        return (_residual(op.sums[0], op.sum_dens[0], _rhs_lambda(self.t)),
                _residual(op.sums[1], op.sum_dens[1], _rhs_gamma(self.pattern)))

    @cached_property
    def eliminations(self) -> tuple[SchurElimination, SchurElimination]:
        """The trailing blocks of the two membership blocks, at gap 0 and at
        Delta, each eliminated once with the border m(gamma). eps enters only
        the corner, so membership at any eps and eps_min both read these."""
        op = self.operator
        return op.eliminate(Fraction(0), rescaled=True), op.eliminate(self.Delta, rescaled=True)

    @cached_property
    def nonneg_levels(self) -> tuple[Fraction, Fraction]:
        """[lo, hi]: the gap levels in [0, Delta] at which lambda + delta*gamma is
        nonnegative off the diagonal, exactly (empty when lo > hi)."""
        return _gap_window(*self.integer_form, self.Delta)


# Cached forms of a Certificate that depend on the multiplier pair alone.
_PAIR_FORMS = ("integer_form", "operator", "balance")


@dataclass(frozen=True)
class EqualityVerdict:
    ok: bool
    residual: tuple[Fraction, ...]  # exact LHS - RHS, reported as a vector


@dataclass(frozen=True)
class NonnegVerdict:
    ok: bool
    violations: tuple[tuple[str, str, Fraction], ...]  # (i, j, offending value)


@dataclass(frozen=True)
class MembershipReport:
    """Exact verdicts for every condition defining the certificate set."""
    eq_lambda: EqualityVerdict
    eq_gamma: EqualityVerdict
    m_lambda_zero: EqualityVerdict
    lambda_nonneg: NonnegVerdict
    lambda_plus_delta_gamma_nonneg: NonnegVerdict
    psd_at_zero: PsdVerdict
    psd_at_delta: PsdVerdict
    cert: Certificate = field(repr=False, compare=False)

    @cached_property
    def eps_min(self) -> Fraction | Infeasible:
        """Smallest eps at which both PSD blocks hold, read off the
        certificate's two eliminations (run here on first read, if no accept
        needed them)."""
        return _eps_min(self.cert)

    @property
    def overall(self) -> bool:
        return all(self.condition_flags().values())

    def condition_flags(self) -> dict[str, bool]:
        return {
            "eq_lambda": self.eq_lambda.ok,
            "eq_gamma": self.eq_gamma.ok,
            "m_lambda_zero": self.m_lambda_zero.ok,
            "lambda_nonneg": self.lambda_nonneg.ok,
            "lambda_plus_delta_gamma_nonneg": self.lambda_plus_delta_gamma_nonneg.ok,
            "psd_at_zero": self.psd_at_zero.is_psd,
            "psd_at_delta": self.psd_at_delta.is_psd,
        }

    def failed_conditions(self) -> list[str]:
        return [k for k, v in self.condition_flags().items() if not v]


def delta_cap(pattern: StepsizePattern) -> Fraction:
    """Largest Delta the verifier accepts: the fixed multiplier on the initial
    gap, 1 - 2 sum(h) delta, must stay nonnegative on [0, Delta]."""
    return min(Fraction(1, 2), 1 / (2 * pattern.sum_h))


def _check_delta_precondition(cert: Certificate, allow_large_delta: bool) -> None:
    cap = delta_cap(cert.pattern)
    if cert.Delta > cap and not allow_large_delta:
        raise PreconditionError(
            f"Delta={rat_to_str(cert.Delta)} exceeds 1/(2*sum(h))={rat_to_str(cap)}; "
            "pass allow_large_delta=True to experiment beyond the supported range")


def _rhs_lambda(t: int) -> tuple[Fraction, ...]:
    out = [Fraction(0)] * (t + 1)
    out[t] += 1   # a_{*,t}
    out[0] -= 1   # -a_{*,0}
    return tuple(out)


def _rhs_gamma(pattern: StepsizePattern) -> tuple[Fraction, ...]:
    out = [Fraction(0)] * (pattern.t + 1)
    out[0] = 2 * pattern.sum_h
    return tuple(out)


def _residual(sums: Sequence[int], den: int, rhs: Sequence[Fraction]) -> tuple[int, list[int]]:
    """(D, E) with sums/den - rhs = E/D entrywise, in integers."""
    D = den * lcm(*(r.denominator for r in rhs))
    return D, [v * (D // den) - r.numerator * (D // r.denominator) for v, r in zip(sums, rhs)]


def _equality_verdict(residual: Sequence[int], den: int) -> EqualityVerdict:
    """The verdict on an integer residual over den, reported as Fractions."""
    return EqualityVerdict(not any(residual), tuple(Fraction(v, den) for v in residual))


def _nonneg_verdict(rows: Sequence[Sequence[int]], den: int, t: int) -> NonnegVerdict:
    """Whether rows/den is nonnegative off its diagonal: a sign test per entry,
    and a Fraction only for an offending one."""
    labels = [str(i) for i in index_set(t)]
    bad = tuple((labels[p], labels[q], Fraction(v, den)) for p, row in enumerate(rows)
                for q, v in enumerate(row) if v < 0 and p != q)
    return NonnegVerdict(not bad, bad)


def _gap_window(lam: ScaledRows, gam: ScaledRows, Delta: Fraction) -> tuple[Fraction, Fraction]:
    """``Certificate.nonneg_levels`` of lambda = L/d_lam and gamma = G/d_gam.

    Each bound is a ratio -L_pq / G_pq times d_gam / d_lam, so the ratios are
    compared as cross-multiplied integers, and one Fraction is built per end."""
    (d_lam, L), (d_gam, G) = lam, gam
    # lo = 0 and hi = Delta, as ratios (levels times d_lam / d_gam)
    lo_n, lo_d = 0, 1
    hi_n, hi_d = Delta.numerator * d_lam, Delta.denominator * d_gam
    for p, (row_l, row_g) in enumerate(zip(L, G)):
        for q, (lv, gv) in enumerate(zip(row_l, row_g)):
            if p == q:
                continue
            if gv > 0:
                if -lv * lo_d > lo_n * gv:
                    lo_n, lo_d = -lv, gv
            elif gv < 0:
                if lv * hi_d < hi_n * -gv:
                    hi_n, hi_d = lv, -gv
            elif lv < 0:
                return Fraction(1), Fraction(0)
    return Fraction(lo_n * d_gam, lo_d * d_lam), Fraction(hi_n * d_gam, hi_d * d_lam)


def _balanced_at(cert: Certificate, delta: Fraction) -> bool:
    """The multiplier equality at gap level delta,
    sum_a(lambda + delta*gamma) = rhs_lambda + delta*rhs_gamma, in integers."""
    (D_lam, E_lam), (D_gam, E_gam) = cert.balance
    ql, pg = delta.denominator * D_gam, delta.numerator * D_lam
    return not any(ql * el + pg * eg for el, eg in zip(E_lam, E_gam))


def _linear_verdicts(cert: Certificate) -> dict:
    """The equality and nonnegativity conditions, keyed as in MembershipReport,
    decided on the certificate's integer form."""
    (d_lam, L), (d_gam, G) = cert.integer_form
    (D_lam, E_lam), (D_gam, E_gam) = cert.balance
    # lambda + Delta*gamma over q*d_lam*d_gam, for Delta = p/q
    p, q = cert.Delta.numerator, cert.Delta.denominator
    ql, pg = q * d_gam, p * d_lam
    combined = [[ql * a + pg * g for a, g in zip(ra, rg)] for ra, rg in zip(L, G)]
    t = cert.t
    return {
        "eq_lambda": _equality_verdict(E_lam, D_lam),
        "eq_gamma": _equality_verdict(E_gam, D_gam),
        "m_lambda_zero": _equality_verdict([-v for v in L[0][1:]], 2 * d_lam),
        "lambda_nonneg": _nonneg_verdict(L, d_lam, t),
        "lambda_plus_delta_gamma_nonneg": _nonneg_verdict(combined, q * d_lam * d_gam, t),
    }


def _eps_min(cert: Certificate) -> Fraction | Infeasible:
    """Schur complement of the corner in the two bordered blocks,
    eps_min = max(m' M0^+ m, m' MD^+ m) / t - avg(h), when m lies in the range
    of both trailing blocks and both are PSD; otherwise no finite eps works."""
    values = []
    for name, e in zip(("trailing block at 0", "trailing block at Delta"), cert.eliminations):
        if not e.psd:
            return Infeasible(f"{name} is not positive semidefinite")
        if not e.in_range:
            return Infeasible(f"m(gamma) is outside the range of the {name}")
        values.append(e.value)
    return max(values) / cert.t - cert.pattern.avg_h


def _propose_factor(K: list[list[int]]) -> tuple[list[list[int]], list[int]] | None:
    """A factor for ``exact_linalg.prove_psd``, or None.

    Scale K by powers of two to a diagonal in [1/2, 2), take the float
    Cholesky factor of that minus s I, and round it to integers on a 2^-52
    grid. The float errors (the conversion, Cholesky's backward error and the
    rounding) are bounded through the unit-size diagonal, whatever the
    conditioning of K, and move a row of the remainder by at most about
    ((n + 1)^2 + 1.5 n^1.5) 2^-52. The shift s = (n + 1)^2 2^-50 leaves at
    least twice that on the remainder's diagonal.
    """
    e = []
    for i, row in enumerate(K):
        if row[i] <= 0:
            return None
        e.append(-(row[i].bit_length() // 2))
    n = len(K)
    try:
        F = np.ldexp(np.array(K, dtype=float), np.add.outer(e, e))
        C = np.linalg.cholesky(F - np.ldexp((n + 1) ** 2, -50) * np.eye(n))
    except (OverflowError, np.linalg.LinAlgError):
        return None
    L = np.rint(np.ldexp(C, 52)).astype(np.int64).tolist()
    return [row[:i + 1] for i, row in enumerate(L)], [x + 52 for x in e]


def _proved_psd(cert: Certificate, delta: Fraction, rescaled: bool, corner: Fraction) -> bool:
    """Whether [[corner, m'], [m, M]], with M = A/den and m = b/den from
    ``cert.operator.block(delta, rescaled=rescaled)``, is proved PSD from a
    float-proposed factor; False decides nothing. Blocks of order below
    PROOF_MIN_ORDER are not tried."""
    if cert.t + 2 < PROOF_MIN_ORDER:
        return False
    A, b, den = cert.operator.block(delta, rescaled=rescaled)
    # den times the block's congruence by diag(q, 1, ..., 1), corner = p/q
    p, q = corner.numerator, corner.denominator
    N = [[p * q * den, *(q * x for x in b)]]
    N += [[q * x, *row] for x, row in zip(b, A)]
    return prove_psd(N, _propose_factor)


def check_membership(cert: Certificate, *, allow_large_delta: bool = False) -> MembershipReport:
    """Decide membership of (lambda, gamma) in the certificate set, exactly.

    overall=True proves the pattern is epsilon-straightforward with
    parameter Delta: the worst-case gap after one pattern application is at
    most delta - sum(h_i - eps) * delta^2 for every normalized initial gap
    delta in [0, Delta]. Each bordered block is accepted by an exact proof
    from a float-proposed factor, or else decided through its trailing block
    by one integer elimination; a reject carries an exact witness. A
    certificate that already holds its eliminations is decided by them alone.
    ``eps_min`` is read off the two eliminations when it is first read.
    """
    _check_delta_precondition(cert, allow_large_delta)
    psd = []
    for k, delta in enumerate((Fraction(0), cert.Delta)):
        if "eliminations" not in cert.__dict__ and _proved_psd(cert, delta, True, cert.corner):
            psd.append(PsdVerdict(True))
        else:
            psd.append(cert.eliminations[k].bordered(cert.corner))
    return MembershipReport(**_linear_verdicts(cert), psd_at_zero=psd[0], psd_at_delta=psd[1],
                            cert=cert)


def check_pointwise(cert: Certificate, delta: Fraction) -> bool:
    """Verify lambda + delta*gamma lies in the single-gap dual feasibility set.

    This cross-checks the interval certificate at one gap level on the dual
    slack matrix Z itself, with border m(lambda + delta*gamma) and corner
    sum_i (h_i + eps) delta^2, instead of the rescaled membership blocks.
    """
    if not (0 <= delta <= cert.Delta):
        raise PreconditionError(
            f"delta={rat_to_str(delta)} outside [0, Delta={rat_to_str(cert.Delta)}]")
    if not _balanced_at(cert, delta):
        return False
    lo, hi = cert.nonneg_levels
    if not lo <= delta <= hi:
        return False
    corner = cert.corner * delta * delta
    return (_proved_psd(cert, delta, False, corner)
            or cert.operator.eliminate(delta, rescaled=False).bordered(corner).is_psd)


def minimal_epsilon(
    pattern: StepsizePattern,
    Delta: Fraction,
    lam: RatMatrix,
    gam: RatMatrix,
    *,
    check_preconditions: bool = True,
) -> Fraction | Infeasible:
    """Smallest eps for which (lambda, gamma) certifies the pattern at this Delta.

    The ``eps_min`` of ``check_membership`` on the pair at eps = 0. The
    preconditions are the equality and nonnegativity conditions of
    ``check_membership`` (and its Delta cap); they are checked on the same
    probe certificate.
    """
    probe = Certificate(pattern, Delta, Fraction(0), lam, gam)
    if check_preconditions:
        _check_delta_precondition(probe, False)
        failures = [c for c, v in _linear_verdicts(probe).items() if not v.ok]
        if failures:
            raise PreconditionError(
                "minimal_epsilon requires the equality and nonnegativity conditions; "
                "failing: " + ", ".join(failures))
    return _eps_min(probe)


@dataclass(frozen=True)
class GuaranteeStatement:
    """Everything needed to quote the certified rate: gap shrinks per pattern
    application by at least sum(h_i - eps)/LD^2 times the squared gap."""
    pattern: StepsizePattern
    avg_minus_eps: Fraction
    Delta: Fraction
    provenance: str  # hash of the certificate this was derived from

    @property
    def rate_coefficient(self) -> Fraction:
        return self.avg_minus_eps


def certificate_digest(cert: Certificate) -> str:
    return hashlib.sha256(
        json.dumps(_cert_to_obj(cert), sort_keys=True).encode()).hexdigest()


def guarantee_of(cert: Certificate, report: MembershipReport) -> GuaranteeStatement:
    if not report.overall:
        raise PreconditionError(
            "refusing to state a guarantee for an unverified certificate; failing "
            "conditions: " + ", ".join(report.failed_conditions()))
    return GuaranteeStatement(
        pattern=cert.pattern,
        avg_minus_eps=cert.pattern.avg_h - cert.epsilon,
        Delta=cert.Delta,
        provenance=certificate_digest(cert),
    )


# ---------------------------------------------------------------------------
# serialization
#
# Schema: { "t": int, "h": [rational-string...], "delta": rational-string,
#           "epsilon": rational-string, "lambda": [[rational-string...]...],
#           "gamma": [[...]...] }
# rational-string is "p/q" or a decimal literal; matrices use the
# (*, 0, ..., t) row/column order.
# ---------------------------------------------------------------------------

def _cert_to_obj(cert: Certificate) -> dict:
    return {
        "t": cert.t,
        "h": [rat_to_str(v) for v in cert.pattern.h],
        "delta": rat_to_str(cert.Delta),
        "epsilon": rat_to_str(cert.epsilon),
        "lambda": [[rat_to_str(v) for v in cert.lam.row(i)] for i in range(cert.lam.rows)],
        "gamma": [[rat_to_str(v) for v in cert.gam.row(i)] for i in range(cert.gam.rows)],
    }


def _parse_rat(obj, where: str) -> Fraction:
    if not isinstance(obj, str):
        raise CertificateError(f"{where}: expected a rational string, got {obj!r}")
    try:
        return rat_from_decimal(obj)
    except RationalParseError as e:
        raise CertificateError(f"{where}: {e}") from None


def _parse_matrix(obj, dim: int, where: str) -> RatMatrix:
    if not isinstance(obj, list) or len(obj) != dim:
        got = len(obj) if isinstance(obj, list) else type(obj).__name__
        raise CertificateError(f"{where}: expected {dim} rows, got {got}")
    rows = []
    for i, row in enumerate(obj):
        if not isinstance(row, list) or len(row) != dim:
            got = len(row) if isinstance(row, list) else type(row).__name__
            raise CertificateError(f"{where}[{i}]: expected {dim} entries, got {got}")
        rows.append([_parse_rat(v, f"{where}[{i}][{j}]") for j, v in enumerate(row)])
    return RatMatrix.from_rows(rows)


def certificate_from_obj(obj: dict, where: str = "certificate") -> Certificate:
    for key in ("t", "h", "delta", "epsilon", "lambda", "gamma"):
        if key not in obj:
            raise CertificateError(f"{where}: missing key {key!r}")
    t = obj["t"]
    if isinstance(t, bool) or not isinstance(t, int) or t < 1:
        raise CertificateError(f"{where}.t: expected a positive integer, got {t!r}")
    if t > MAX_T:
        raise CertificateError(f"{where}.t: {t} exceeds the longest supported pattern, t = {MAX_T}")
    hs = obj["h"]
    if not isinstance(hs, list) or len(hs) != t:
        raise CertificateError(f"{where}.h: expected {t} stepsizes, got "
                               f"{len(hs) if isinstance(hs, list) else hs!r}")
    try:
        return Certificate(
            pattern=StepsizePattern(
                tuple(_parse_rat(v, f"{where}.h[{i}]") for i, v in enumerate(hs))),
            Delta=_parse_rat(obj["delta"], f"{where}.delta"),
            epsilon=_parse_rat(obj["epsilon"], f"{where}.epsilon"),
            lam=_parse_matrix(obj["lambda"], t + 2, f"{where}.lambda"),
            gam=_parse_matrix(obj["gamma"], t + 2, f"{where}.gamma"),
        )
    except CertificateError:
        raise
    except ValueError as e:
        raise CertificateError(f"{where}: {e}") from None


def load_certificate(path: str | Path) -> Certificate:
    path = Path(path)
    text = path.read_text()
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise CertificateError(f"{path}: not valid JSON ({e})") from None
    except ValueError:
        # the only other refusal: an integer literal past CPython's digit limit
        raise CertificateError(f"{path}: a JSON number has too many digits") from None
    except RecursionError:
        raise CertificateError(f"{path}: JSON nested too deeply") from None
    if not isinstance(obj, dict):
        raise CertificateError(f"{path}: expected a JSON object at top level")
    return certificate_from_obj(obj, where=str(path))


def save_certificate(cert: Certificate, path: str | Path) -> None:
    Path(path).write_text(json.dumps(_cert_to_obj(cert), indent=1) + "\n")
