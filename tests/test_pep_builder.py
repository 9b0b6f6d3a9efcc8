import random
from fractions import Fraction

import pytest

from lscert.exact_linalg import RatMatrix, psd_check, rat_from_decimal
from lscert.pep_builder import (
    STAR,
    StepsizePattern,
    assemble_Z,
    bordered,
    index_pairs,
    m_vec,
    M_mat,
    mat_pos,
    pair_table,
    sum_a,
)
from oracles import basis, interpolation_matrix, pair_matrices, pep_matrices

F = Fraction


def pattern(*vals):
    return StepsizePattern(tuple(rat_from_decimal(v) for v in vals))


@pytest.fixture
def h29_15():
    return pattern("2.9", "1.5")


def two_step_family(eta: Fraction):
    """The alternating-pattern multiplier pair, parameterized by the long-step slack."""
    h = StepsizePattern((3 - eta, F(3, 2)))
    half = F(1, 2)
    lam = RatMatrix.from_rows([
        [0, 0, 0, 0],
        [0, 0, half, half],
        [0, 0, 0, half],
        [0, 0, 0, 0],
    ])
    s = (6 - eta) / 2
    gam = RatMatrix.from_rows([
        [0, 3 - eta, s, s],
        [0, 0, -s, -s],
        [0, 0, 0, 0],
        [0, 0, 0, 0],
    ])
    return h, lam, gam


class TestPattern:
    def test_positivity_enforced(self):
        with pytest.raises(ValueError):
            StepsizePattern((F(0),))
        with pytest.raises(ValueError):
            StepsizePattern((F(1), F(-1, 2)))

    def test_from_text(self):
        h = StepsizePattern.from_text("2.9, 1.5")
        assert h.h == (F(29, 10), F(3, 2))
        assert h.sum_h == F(22, 5)
        assert h.avg_h == F(11, 5)


class TestBasis:
    # the dense test oracle's coordinates: (g, x, f)
    def test_x1_x2(self, h29_15):
        _, x, _ = basis(h29_15)
        assert x[1] == (F(1), F(-29, 10), F(0), F(0))
        assert x[2] == (F(1), F(-29, 10), F(-3, 2), F(0))

    def test_starred_entries_zero(self, h29_15):
        g, x, f = basis(h29_15)
        assert all(v == 0 for v in g[STAR])
        assert all(v == 0 for v in f[STAR])
        assert all(v == 0 for v in x[STAR])

    def test_x0_is_e1(self, h29_15):
        assert basis(h29_15)[1][0] == (F(1), F(0), F(0), F(0))


class TestPepData:
    # the dense A/B/C/a of the test oracle, against the paper's definitions
    def test_B_0_star(self, h29_15):
        B = pep_matrices(h29_15)[0, STAR]["B"]
        expect = RatMatrix.zeros(4).to_rows()
        expect[0][0] = F(1)
        assert B == RatMatrix.from_rows(expect)

    def test_A_star_0(self, h29_15):
        A = pep_matrices(h29_15)[STAR, 0]["A"]
        rows = RatMatrix.zeros(4).to_rows()
        rows[0][1] = rows[1][0] = F(-1, 2)
        assert A == RatMatrix.from_rows(rows)

    def test_a_vectors(self, h29_15):
        d = pep_matrices(h29_15)
        t = 2
        assert d[STAR, t]["a"] == (F(0), F(0), F(1))
        assert d[STAR, 0]["a"] == (F(1), F(0), F(0))

    def test_B_and_C_are_psd(self, h29_15):
        d = pep_matrices(h29_15)
        for ij in index_pairs(2):
            assert psd_check(d[ij]["B"]).is_psd
            assert psd_check(d[ij]["C"]).is_psd

    def test_trace_oracle(self, h29_15):
        # Tr(G B_{i,j}) equals ||H x_i - H x_j||^2 for G = H'H, exactly
        rng = random.Random(5)
        d = pep_matrices(h29_15)
        _, x, _ = basis(h29_15)
        n = 4
        H = [[F(rng.randrange(-3, 4)) for _ in range(n)] for _ in range(n)]
        Hm = RatMatrix.from_rows(H)
        G = RatMatrix.from_rows([[sum((H[k][r] * H[k][c] for k in range(n)), F(0))
                                  for c in range(n)] for r in range(n)])
        for i, j in index_pairs(2):
            dx = tuple(p - q for p, q in zip(x[i], x[j]))
            img = Hm.matvec(dx)
            norm2 = sum((v * v for v in img), F(0))
            B = d[i, j]["B"]
            tr = sum((G.entry(r, c) * B.entry(c, r) for r in range(n) for c in range(n)), F(0))
            assert tr == norm2


class TestZAssembly:
    def test_zero_multipliers_zero_delta(self, h29_15):
        Z = assemble_Z(h29_15, F(0), RatMatrix.zeros(4), F(0))
        assert Z == RatMatrix.zeros(4)

    def test_only_corner_term(self):
        h = pattern("1")
        Z = assemble_Z(h, F(0), RatMatrix.zeros(3), F(1))
        rows = RatMatrix.zeros(3).to_rows()
        rows[0][0] = F(1)
        assert Z == RatMatrix.from_rows(rows)

    def test_two_step_trailing_block_at_eta_1(self):
        h, lam, _ = two_step_family(F(1))
        Z = assemble_Z(h, F(0), lam, F(1))
        M = M_mat(h, lam)
        assert M == RatMatrix.from_rows([
            [F(1, 2), F(1, 4), F(1, 4)],
            [F(1, 4), F(1, 2), F(1, 2)],
            [F(1, 4), F(1, 2), F(1, 2)],
        ])
        # and it is exactly the trailing block of Z
        for i in range(3):
            for j in range(3):
                assert Z.entry(i + 1, j + 1) == M.entry(i, j)

    def test_two_step_m_of_gamma(self):
        eta = F(2)
        h, _, gam = two_step_family(eta)
        assert m_vec(h, gam) == (-(3 - eta) / 2, -(6 - eta) / 4, -(6 - eta) / 4)

    def test_two_step_m_of_lambda_vanishes(self):
        h, lam, _ = two_step_family(F(1))
        assert m_vec(h, lam) == (F(0), F(0), F(0))

    def test_equality_sums_match_dense_pep_data(self, h29_15):
        # sparse accumulators and the O(t^2) M_mat agree with the dense A/B/C/a
        # construction; past t = 7 a seeded sample of 64 pairs carries the
        # multipliers, since dense matrices for every pair take minutes there
        rng = random.Random(9)
        patterns = [h29_15] + [
            StepsizePattern(tuple(F(rng.randrange(1, 60), rng.randrange(1, 9)) for _ in range(t)))
            for t in (1, 2, 3, 7, 15, 31)]
        for h in patterns:
            t = h.t
            vectors = basis(h)
            pairs = list(index_pairs(t))
            if t > 7:
                pairs = rng.sample(pairs, 64)
            arg_rows = [[F(0)] * (t + 2) for _ in range(t + 2)]
            for i, j in pairs:
                arg_rows[mat_pos(i, t)][mat_pos(j, t)] = F(rng.randrange(-5, 6), rng.randrange(1, 4))
            arg = RatMatrix.from_rows(arg_rows)
            dense_sum = [F(0)] * (t + 1)
            dense_Z = RatMatrix.zeros(t + 2)
            for i, j in pairs:
                pm = pair_matrices(vectors, i, j)
                c = arg.entry(mat_pos(i, t), mat_pos(j, t))
                dense_sum = [s + c * a for s, a in zip(dense_sum, pm["a"])]
                dense_Z = dense_Z + interpolation_matrix(pm).scale(c)
            assert sum_a(h, arg) == tuple(dense_sum)
            assert assemble_Z(h, F(0), arg, F(0)) == dense_Z

    def test_pair_table_sums_match_dense_pair_data(self, h29_15):
        # every pair's sparse terms add up to its dense a and A + C/2, up to t = 7
        rng = random.Random(21)
        patterns = [h29_15] + [
            StepsizePattern(tuple(F(rng.randrange(1, 60), rng.randrange(1, 9)) for _ in range(t)))
            for t in (1, 2, 3, 7)]
        for h in patterns:
            t = h.t
            vectors = basis(h)
            table = pair_table(h)
            assert len(table.pairs) == (t + 2) * (t + 1)
            for (i, j), p in zip(index_pairs(t), table.pairs):
                pm = pair_matrices(vectors, i, j)
                assert p.pos == (mat_pos(i, t), mat_pos(j, t))
                a = [F(0)] * (t + 1)
                for k, s in p.balance:
                    a[k] += s
                assert tuple(a) == pm["a"]
                K = [[F(0)] * (t + 2) for _ in range(t + 2)]
                for (r, c), v in p.entries().items():
                    K[r][c] = v
                assert RatMatrix.from_rows(K) == interpolation_matrix(pm)

    @pytest.mark.parametrize("t", [1, 2, 3, 7, 15, 31])
    def test_closed_forms_match_pair_table_on_every_pair(self, t):
        # M_mat, m_vec and sum_a against the table applied to seeded random
        # multipliers on every pair (the dense reference above stops at t = 7)
        rng = random.Random(100 + t)
        h = StepsizePattern(tuple(F(rng.randrange(1, 60), rng.randrange(1, 9)) for _ in range(t)))
        table = pair_table(h)
        arg_rows = [[F(0)] * (t + 2) for _ in range(t + 2)]
        M = [[F(0)] * (t + 1) for _ in range(t + 1)]
        m = [F(0)] * (t + 1)
        a = [F(0)] * (t + 1)
        for p in table.pairs:
            c = F(rng.randrange(-5, 6), rng.randrange(1, 4))
            arg_rows[p.pos[0]][p.pos[1]] = c
            for k, s in p.balance:
                a[k] += c * s
            for k, v in p.border:
                m[k] += c * v
            for r, cc, v in p.trail:
                M[r][cc] += c * v
        arg = RatMatrix.from_rows(arg_rows)
        assert M_mat(h, arg) == RatMatrix.from_rows(M)
        assert m_vec(h, arg) == tuple(m)
        assert sum_a(h, arg) == tuple(a)

    def test_linearity_of_m_and_M(self, h29_15):
        rng = random.Random(13)

        def rand_arg():
            rows = [[F(0)] * 4 for _ in range(4)]
            for i, j in index_pairs(2):
                rows[mat_pos(i, 2)][mat_pos(j, 2)] = F(rng.randrange(-6, 7), rng.randrange(1, 5))
            return RatMatrix.from_rows(rows)

        for _ in range(10):
            lam, gam = rand_arg(), rand_arg()
            c = F(rng.randrange(-4, 5), rng.randrange(1, 4))
            combo = lam + gam.scale(c)
            assert m_vec(h29_15, combo) == tuple(
                a + c * b for a, b in zip(m_vec(h29_15, lam), m_vec(h29_15, gam)))
            assert M_mat(h29_15, combo) == M_mat(h29_15, lam) + M_mat(h29_15, gam).scale(c)

    def test_rescaling_identity(self):
        # with m(lam) = 0: Z(lam + d*gam, d) psd iff the rescaled bordered matrix is psd
        h, lam, gam = two_step_family(F(1))
        for d in (F(1, 100), F(1, 16), F(1, 7)):
            Z = assemble_Z(h, F(0), lam + gam.scale(d), d)
            resc = bordered(
                h.sum_h,
                m_vec(h, gam),
                M_mat(h, lam) + M_mat(h, gam).scale(d),
            )
            assert psd_check(Z).is_psd == psd_check(resc).is_psd

    def test_dimension_mismatch(self, h29_15):
        with pytest.raises(ValueError):
            assemble_Z(h29_15, F(0), RatMatrix.zeros(5), F(0))
