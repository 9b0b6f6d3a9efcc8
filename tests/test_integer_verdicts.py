"""The certificate's integer forms against the Fraction route and against sympy.

The linear conditions of membership and of the pointwise check (lambda >= 0,
lambda + Delta*gamma >= 0, the gap window, the balance equality at a gap
level) and the operator's integer blocks are decided on integer rows. Each is
compared with the Fraction route kept in ``oracles`` and with sympy
``Rational`` arithmetic, on the bundled certificates, two-step certificates,
seeded alterations that hit the edge cases (an exactly zero entry of
lambda + Delta*gamma, empty gap windows, a negative lambda entry where gamma
is 0, a balance that holds at one gap level only) and hostile copies with
2000-character literals.
"""
from __future__ import annotations

import json
import random
from fractions import Fraction as F

import pytest
import sympy as sp

import oracles
from lscert.bundled import certificate_path
from lscert.certificate import (Certificate, _balanced_at, _gap_window, _linear_verdicts,
                                _nonneg_verdict, certificate_from_obj)
from lscert.exact_linalg import RatMatrix, integer_rows, rat_from_decimal, rat_to_str
from lscert.pep_builder import index_set
from lscert.two_step import two_step_multipliers, two_step_pattern

BASES = ("t2", "t3", "t7", "t15")


def _obj(cert: Certificate) -> dict:
    mat = lambda M: [[rat_to_str(v) for v in M.row(i)] for i in range(M.rows)]  # noqa: E731
    return {"t": cert.t, "h": [rat_to_str(v) for v in cert.pattern.h],
            "delta": rat_to_str(cert.Delta), "epsilon": rat_to_str(cert.epsilon),
            "lambda": mat(cert.lam), "gamma": mat(cert.gam)}


def _two_step(eta: F, Delta: F) -> dict:
    lam, gam = two_step_multipliers(eta)
    return _obj(Certificate(two_step_pattern(eta), Delta, F(0), lam, gam))


def _off_diagonal(obj: dict, which: str, test) -> list[tuple[int, int]]:
    n = obj["t"] + 2
    return [(i, j) for i in range(n) for j in range(n)
            if i != j and test(rat_from_decimal(obj[which][i][j]))]


def _alterations(name: str, base: dict, rng: random.Random) -> dict[str, dict]:
    out = {}
    Delta = rat_from_decimal(base["delta"])

    def copy():
        return json.loads(json.dumps(base))

    def put(obj, which, i, j, v):
        obj[which][i][j] = rat_to_str(v)

    positive = _off_diagonal(base, "lambda", lambda v: v > 0)
    if positive:
        # lambda + Delta*gamma exactly zero at one entry
        obj = copy()
        i, j = rng.choice(positive)
        put(obj, "gamma", i, j, -rat_from_decimal(obj["lambda"][i][j]) / Delta)
        out[f"{name}_zero_sum"] = obj
        # an empty window: lo = 2 Delta > hi = Delta
        obj = copy()
        put(obj, "lambda", i, j, -2 * Delta)
        put(obj, "gamma", i, j, F(1))
        out[f"{name}_window_past_delta"] = obj
        # the balance holds at Delta/2 only: lambda moves by c, gamma by -2c/Delta
        obj = copy()
        c = F(rng.randrange(1, 2 ** 20), 2 ** 30)
        put(obj, "lambda", i, j, rat_from_decimal(obj["lambda"][i][j]) + c)
        put(obj, "gamma", i, j, rat_from_decimal(obj["gamma"][i][j]) - 2 * c / Delta)
        out[f"{name}_balanced_at_half"] = obj
    zero_gamma = _off_diagonal(base, "gamma", lambda v: v == 0)
    if zero_gamma:
        # a negative lambda entry where gamma is 0: the window is empty
        obj = copy()
        i, j = rng.choice(zero_gamma)
        put(obj, "lambda", i, j, F(-1, 3))
        out[f"{name}_negative_lambda_zero_gamma"] = obj
    for k in range(2):
        obj = copy()
        which = rng.choice(("lambda", "gamma"))
        i, j = rng.sample(range(base["t"] + 2), 2)
        move = F(rng.randrange(1, 2 ** 20), 2 ** 30) * rng.choice((1, -1))
        put(obj, which, i, j, rat_from_decimal(obj[which][i][j]) + move)
        out[f"{name}_moved_{k}"] = obj
    return out


def _hostile(name: str, base: dict) -> dict[str, dict]:
    """Copies whose literals are 2000 characters long."""
    out = {}
    for key, text in (("gamma", "9" * 2000), ("lambda", "1/" + "7" * 1998),
                      ("epsilon", "1" + "0" * 1999), ("delta", "1/" + "3" * 1998)):
        obj = json.loads(json.dumps(base))
        if key in ("gamma", "lambda"):
            obj[key][1][3] = text
        else:
            obj[key] = text
        out[f"{name}_{key}_2000_chars"] = obj
    return out


def _documents() -> dict[str, dict]:
    rng = random.Random(20231)
    docs = {pid: json.loads(certificate_path(pid).read_text()) for pid in BASES}
    docs["two_step_1/2"] = _two_step(F(1, 2), F(1, 64))
    docs["two_step_29/10"] = _two_step(F(29, 10), F(3, 1024))
    for name in list(docs):
        docs.update(_alterations(name, docs[name], rng))
    for pid in ("t3", "t7"):
        docs.update(_hostile(pid, docs[pid]))
    return docs


DOCS = _documents()


@pytest.fixture(scope="module")
def certs():
    return {name: certificate_from_obj(obj) for name, obj in DOCS.items()}


def test_the_edge_cases_occur(certs):
    # each alteration meant to reach an edge does reach it
    levels = {name: c.nonneg_levels for name, c in certs.items()}
    assert all(levels[n][0] > levels[n][1] for n in certs if "window" in n or "zero_gamma" in n)
    for name in (n for n in certs if n.endswith("_zero_sum")):
        c = certs[name]
        combined = c.lam + c.gam.scale(c.Delta)
        assert any(combined.entry(i, j) == 0 and c.lam.entry(i, j) > 0
                   for i in range(c.t + 2) for j in range(c.t + 2) if i != j)
    half = [n for n in certs if n.endswith("_balanced_at_half")]
    assert half and all(_balanced_at(certs[n], certs[n].Delta / 2)
                        and not _balanced_at(certs[n], certs[n].Delta) for n in half)


# --- against the Fraction route ---------------------------------------------------

def _levels_to_probe(cert: Certificate) -> list[F]:
    lo, hi = cert.nonneg_levels
    return sorted({F(0), cert.Delta, cert.Delta / 2, cert.Delta / 3,
                   *(v for v in (lo, hi) if 0 <= v <= cert.Delta)})


@pytest.mark.parametrize("name", list(DOCS))
def test_linear_verdicts_match_the_fraction_route(certs, name):
    cert = certs[name]
    assert _linear_verdicts(cert) == oracles.linear_verdicts(cert)
    assert cert.nonneg_levels == oracles.gap_window(cert.lam, cert.gam, cert.Delta)
    for delta in _levels_to_probe(cert):
        assert _balanced_at(cert, delta) == oracles.balanced_at(cert, delta)


@pytest.mark.parametrize("name", list(DOCS))
def test_operator_blocks_match_the_fraction_route(certs, name):
    cert = certs[name]
    for delta in (F(0), cert.Delta, cert.Delta / 3):
        for rescaled in (True, False):
            assert (cert.operator.block(delta, rescaled=rescaled)
                    == oracles.operator_block(cert, delta, rescaled=rescaled))


# --- against sympy -------------------------------------------------------------------

def _sym(v: F) -> sp.Rational:
    return sp.Rational(v.numerator, v.denominator)


def _sym_rows(M: RatMatrix) -> list[list[sp.Rational]]:
    return [[_sym(v) for v in M.row(i)] for i in range(M.rows)]


def _sym_sums(cert: Certificate, M: RatMatrix) -> list[sp.Rational]:
    """sum_{i != j} arg_{i,j} (f_j - f_i) over the (*, 0..t) positions, where
    f_* carries no coordinate."""
    rows = _sym_rows(M)
    out = [sp.Integer(0)] * (cert.t + 1)
    for p, row in enumerate(rows):
        for q, v in enumerate(row):
            if p != q:
                if q:
                    out[q - 1] += v
                if p:
                    out[p - 1] -= v
    return out


@pytest.mark.parametrize("name", list(DOCS))
def test_linear_conditions_match_sympy(certs, name):
    cert = certs[name]
    n = cert.t + 2
    labels = [str(i) for i in index_set(cert.t)]
    lam, gam, Delta = _sym_rows(cert.lam), _sym_rows(cert.gam), _sym(cert.Delta)
    rep = _linear_verdicts(cert)
    for key, mat in (("lambda_nonneg", lam),
                     ("lambda_plus_delta_gamma_nonneg",
                      [[a + Delta * g for a, g in zip(ra, rg)] for ra, rg in zip(lam, gam)])):
        bad = [(labels[p], labels[q], mat[p][q]) for p in range(n) for q in range(n)
               if p != q and mat[p][q] < 0]
        got = rep[key]
        assert got.ok == (not bad)
        assert [(i, j, _sym(v)) for i, j, v in got.violations] == bad
    # the gap window
    pairs = [(lam[p][q], gam[p][q]) for p in range(n) for q in range(n) if p != q]
    if any(g == 0 and a < 0 for a, g in pairs):
        window = (sp.Integer(1), sp.Integer(0))
    else:
        window = (max([sp.Integer(0)] + [-a / g for a, g in pairs if g > 0]),
                  min([Delta] + [a / -g for a, g in pairs if g < 0]))
    assert tuple(_sym(v) for v in cert.nonneg_levels) == window
    # the balance: residuals, and the equality at each probed gap level
    two_h = 2 * _sym(cert.pattern.sum_h)
    res_lam = _sym_sums(cert, cert.lam)
    res_lam[0] += 1
    res_lam[-1] -= 1
    res_gam = _sym_sums(cert, cert.gam)
    res_gam[0] -= two_h
    assert [_sym(v) for v in rep["eq_lambda"].residual] == res_lam
    assert [_sym(v) for v in rep["eq_gamma"].residual] == res_gam
    assert [_sym(v) for v in rep["m_lambda_zero"].residual] == [-v / 2 for v in lam[0][1:]]
    for delta in _levels_to_probe(cert):
        d = _sym(delta)
        assert _balanced_at(cert, delta) == all(a + d * b == 0 for a, b in zip(res_lam, res_gam))


@pytest.mark.parametrize("name", [n for n in DOCS if "_moved_" not in n])
def test_operator_blocks_match_sympy(certs, name):
    # A/den and b/den are the dense blocks combined in sympy, and den is the
    # least common denominator of the lambda and gamma blocks and borders
    cert = certs[name]
    h = cert.pattern
    S_lam, S_gam = oracles.dense_slack(h, cert.lam), oracles.dense_slack(h, cert.gam)
    parts = [_sym_rows(S) for S in (S_lam, S_gam)]
    entries = [v for S in parts for row in S[1:] for v in row[1:]]
    entries += [v for S in parts for v in S[0][1:]]
    least = sp.ilcm(*(v.q for v in entries))
    for delta in (F(0), cert.Delta):
        A, b, den = cert.operator.block(delta, rescaled=False)
        assert sp.Rational(den, delta.denominator) == least
        d = _sym(delta)
        for r, row in enumerate(A):
            assert [sp.Rational(v, den) for v in row] == [
                x + d * y for x, y in zip(parts[0][r + 1][1:], parts[1][r + 1][1:])]
        assert [sp.Rational(v, den) for v in b] == [
            x + d * y for x, y in zip(parts[0][0][1:], parts[1][0][1:])]


# --- the helpers on matrices with a nonzero diagonal ---------------------------------

@pytest.mark.parametrize("seed", range(40))
def test_helpers_skip_the_diagonal(seed):
    rng = random.Random(seed)
    t = rng.randrange(1, 6)
    n = t + 2

    def matrix():
        return RatMatrix.from_rows([[F(rng.randrange(-3, 4), rng.randrange(1, 5))
                                     for _ in range(n)] for _ in range(n)])

    lam, gam = matrix(), matrix()
    Delta = F(rng.randrange(1, 9), 16)
    rows = lambda M: integer_rows([M.row(p) for p in range(n)])  # noqa: E731
    d_lam, L = rows(lam)
    assert _nonneg_verdict(L, d_lam, t) == oracles.nonneg_verdict(lam, t)
    assert _gap_window(rows(lam), rows(gam), Delta) == oracles.gap_window(lam, gam, Delta)
