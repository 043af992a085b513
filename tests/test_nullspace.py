"""The randomized drivers: minimal vectors, the 2n case, the general case."""

import importlib

import numpy as np
import pytest

from polynull import (
    Fail,
    FieldSpec,
    IndependenceLost,
    KappaMismatch,
    NotRowReduced,
    Poly,
    PolyMatrix,
    RandomPlan,
    RankCandidateWrong,
    SingularAtZero,
    const_kernel,
    const_random,
    is_row_reduced,
    kernel_linearized,
    kronecker_indices,
    monte_carlo_rank_compress,
    nullspace,
    nullspace_minimal_vectors,
    pm_mul,
    pm_random,
    rank_oracle,
    rows_annihilate,
    vstack,
)
from polynull.nullspace import MinimalVectorsResult, _reconstruction_order
from polynull.polymat import const_rank

from conftest import log2_ceil, make_rng, planted_rank, poly


# the attribute polynull.nullspace is the re-exported function, not the module
nullspace_module = importlib.import_module("polynull.nullspace")


def full_column_rank(field, n, p_extra, d, rng):
    while True:
        m = pm_random(n + p_extra, n, d, field, rng)
        if rank_oracle(m) == n:
            return m


def companion_column(field, extra_zero_rows=0):
    """[A; e1; 0...] with A companion-like: one Kronecker index equal to n*d."""
    x = Poly.x(field)
    mone = -Poly.one(field)
    z = Poly.zero(field)
    rows = [[x, mone, z], [z, x, mone], [z, z, x], [Poly.one(field), z, z]]
    rows += [[z, z, z] for _ in range(extra_zero_rows)]
    return PolyMatrix.from_polys(rows)


def annihilation_case(field, rng, rows_deg, m_deg, m_cols):
    """m = L @ B with L constant 3 x m_cols, and rows mixing multiples of
    left-kernel rows of L (which annihilate m), a zero row and random rows."""
    left = const_random(3, m_cols, field, rng)
    m = PolyMatrix.from_const(field, left) @ pm_random(m_cols, m_cols, m_deg, field, rng)
    kern = PolyMatrix.from_const(field, const_kernel(left, field.p))
    good = pm_random(2, kern.rows, rows_deg, field, rng) @ kern
    bad = pm_random(2, 3, rows_deg, field, rng)
    return vstack(good, PolyMatrix.zeros(field, 1, 3), bad), m


def scalar_annihilates(rows, m):
    """Row-by-row test of row @ m == 0 from scalar Poly arithmetic only."""
    zero = Poly.zero(m.field)
    return [
        all(
            sum((rows.poly(i, k) * m.poly(k, j) for k in range(m.rows)), zero).is_zero()
            for j in range(m.cols)
        )
        for i in range(rows.rows)
    ]


class TestRowsAnnihilate:
    def test_matches_direct_product(self, field):
        rng = make_rng(1)
        for _ in range(6):
            m = pm_random(3, 2, 2, field, rng)
            cand = pm_random(4, 3, 7, field, rng)
            direct = [pm_mul(cand.take_rows([i]), m).is_zero() for i in range(4)]
            assert rows_annihilate(cand, m) == direct
        # (rows degree, m degree, m columns): rows above and below m (both
        # loop orientations of the truncated product), constant m, constant
        # rows, a row degree that is no multiple of deg m + 1, no columns
        for rows_deg, m_deg, m_cols in [(7, 2, 2), (1, 5, 2), (4, 0, 2), (0, 3, 2), (4, 2, 2), (3, 2, 0)]:
            cand, m = annihilation_case(field, rng, rows_deg, m_deg, m_cols)
            want = [True] * 5 if m_cols == 0 else [True] * 3 + [False] * 2
            assert scalar_annihilates(cand, m) == want
            assert rows_annihilate(cand, m) == want
        m = pm_random(3, 2, 2, field, rng)
        assert rows_annihilate(PolyMatrix(field, np.zeros((0, 3, 1), dtype=np.int64)), m) == []
        # x^5 * x^2 is nonzero only in its top coefficient, which a product
        # truncated below full order would miss
        x5, x2 = (PolyMatrix.from_polys([[poly(field, *[0] * e, 1)]]) for e in (5, 2))
        assert rows_annihilate(x5, x2) == [False]

    def test_true_kernel_rows(self, field):
        rng = make_rng(2)
        m = planted_rank(field, 5, 3, 2, 2, rng)
        kern = kernel_linearized(m, 4)
        assert kern.rows
        assert all(rows_annihilate(kern, m))


class TestReconstructionOrder:
    def test_paper_formula(self):
        # delta + d + ceil(n d / p) in the compressed regime
        assert _reconstruction_order(8, 2, 4, 2) == 14

    def test_uncompressed_regime(self):
        assert _reconstruction_order(3, 2, 2, 4) == 3 + 2 * 2

    def test_floor_at_delta_plus_one(self):
        assert _reconstruction_order(5, 0, 3, 1) == 6


class TestMinimalVectors:
    def test_column_one_x(self, field):
        m = PolyMatrix.from_polys([[Poly.one(field)], [Poly.x(field)]])
        res = nullspace_minimal_vectors(m, 1, RandomPlan(7))
        assert res.kappa == 1
        assert res.degrees == (1,)
        row = res.vectors.row_polys(0)
        assert row[0] == -(row[1] * Poly.x(field))

    def test_generic_two_n_case(self, field):
        rng = make_rng(3)
        n, d = 4, 2
        m = pm_random(2 * n, n, d, field, rng)
        res = nullspace_minimal_vectors(m, d, RandomPlan(8))
        assert res.kappa == n
        assert res.degrees == (d,) * n

    def test_degrees_match_oracle_sweep(self, field):
        rng = make_rng(4)
        for trial in range(12):
            n = rng.randrange(1, 7)
            p_extra = rng.randrange(1, n + 1)
            d = rng.randrange(4)
            m = full_column_rank(field, n, p_extra, d, rng)
            profile = kronecker_indices(m)
            for delta in sorted({0, d, 2 * d, n * d}):
                res = nullspace_minimal_vectors(m, delta, RandomPlan(rng.randrange(2**63)))
                want = tuple(i for i in profile.indices if i <= delta)
                assert res.kappa == len(want)
                assert res.degrees == want
                assert all(rows_annihilate(res.vectors, m))
                if res.kappa:
                    assert is_row_reduced(res.vectors)

    def test_vectors_sorted_ascending(self, field):
        m = companion_column(field)
        res = nullspace_minimal_vectors(m, 3, RandomPlan(9))
        assert list(res.degrees) == sorted(res.degrees)

    def test_rank_deficient_input_fails(self, field):
        # duplicated columns: rank 1 < n = 2, so every conditioned pivot
        # block is singular identically and the run must fail, not lie
        x = Poly.x(field)
        one = Poly.one(field)
        m = PolyMatrix.from_polys([[x, x], [one, one], [x * x, x * x]])
        with pytest.raises(SingularAtZero):
            nullspace_minimal_vectors(m, 2, RandomPlan(10, max_retries=2))

    def test_retries_used_counts_failed_attempts(self):
        # at p = 101 about 30% of attempts on 9x3 inputs fail; on this input
        # plan seed 15 fails its first attempt and seed 36 its first two
        m = pm_random(9, 3, 2, FieldSpec(101), make_rng(0))
        assert nullspace_minimal_vectors(m, 4, RandomPlan(14)).retries_used == 0
        assert nullspace_minimal_vectors(m, 4, RandomPlan(15)).retries_used == 1
        assert nullspace_minimal_vectors(m, 4, RandomPlan(36)).retries_used == 2

    def test_input_validation(self, field):
        square = PolyMatrix.identity(field, 2)
        with pytest.raises(ValueError):
            nullspace_minimal_vectors(square, 1, RandomPlan(1))
        tall = PolyMatrix.from_polys([[Poly.one(field)], [Poly.x(field)]])
        with pytest.raises(ValueError):
            nullspace_minimal_vectors(tall, -1, RandomPlan(1))


@pytest.fixture
def reconstructions(monkeypatch):
    """Orders of the minimal-vectors calls' ``sigma_basis`` runs."""
    orders = []
    real_basis = nullspace_module.sigma_basis

    def basis(g, order, t):
        orders.append(order)
        return real_basis(g, order, t)

    monkeypatch.setattr(nullspace_module, "sigma_basis", basis)
    return orders


def edited(field, shape, seed, edit):
    """A generic matrix, with its last row zeroed or set to a copy of row 1."""
    c = pm_random(*shape, field, make_rng(seed)).coeffs.copy()
    if edit == "zero":
        c[-1] = 0
    elif edit == "duplicate":
        c[-1] = c[1]
    return PolyMatrix(field, c)


class TestGenericThresholdFirst:
    """An (n+p) x n block is reconstructed first at delta0 = ceil(nd/p), where a
    generic block's p balanced minimal indices all lie; a block with an index
    above it is lifted and reconstructed again at delta's order."""

    # 32 x 20 at d = 32: delta0 = ceil(640/12) = 54 at order 140, delta =
    # ceil(2*640/12) = 107 at order 193, the halving pass of lift-deep's shape
    SHAPE, DELTA = (32, 20, 32), 107

    def test_generic_block_one_basis_at_the_generic_order(self, field, reconstructions):
        assert [_reconstruction_order(t, 32, 20, 12) for t in (54, 107)] == [140, 193]
        m = edited(field, self.SHAPE, 51, None)
        res = nullspace_minimal_vectors(m, self.DELTA, RandomPlan(52, max_retries=0))
        assert reconstructions == [140]
        assert res.degrees == (53,) * 8 + (54,) * 4  # balanced: 8 * 53 + 4 * 54 = 640
        assert all(rows_annihilate(res.vectors, m))

    @pytest.mark.parametrize("edit", ["zero", "duplicate"])
    def test_unbalanced_block_continues(self, field, reconstructions, edit):
        m = edited(field, self.SHAPE, 51, edit)
        res = nullspace_minimal_vectors(m, self.DELTA, RandomPlan(53, max_retries=0))
        assert reconstructions == [140, 193]
        # kronecker_indices(m) on both inputs (6-7 s per input at this size on
        # one BLAS thread, which Tier-1 cannot spend twice, so the small case
        # below runs the oracle itself): the zero or repeated row gives index 0
        # and the other 11 share 640 as 9 * 58 + 2 * 59
        assert res.degrees == (0,) + (58,) * 9 + (59,) * 2
        assert all(rows_annihilate(res.vectors, m)) and is_row_reduced(res.vectors)

    def test_one_compression_serves_both_passes(self, field, monkeypatch, reconstructions):
        # p = 12 < n = 20 compresses: the draw comes once, after the first lift,
        # so both passes reduce by the same matrix and the draws after it stay put
        draws, real = [], RandomPlan.poly_matrix

        def counted(plan, m, n, d, fld):
            draws.append((m, n, d))
            return real(plan, m, n, d, fld)

        monkeypatch.setattr(RandomPlan, "poly_matrix", counted)
        m = edited(field, self.SHAPE, 51, "zero")
        res = nullspace_minimal_vectors(m, self.DELTA, RandomPlan(53, max_retries=0))
        assert reconstructions == [140, 193]
        assert draws == [(20, 12, 31)]
        assert res.degrees == (0,) + (58,) * 9 + (59,) * 2

    @pytest.mark.parametrize("edit", ["zero", "duplicate"])
    def test_unbalanced_small_block_matches_oracle(self, field, reconstructions, edit):
        # 8 x 5 at d = 4: delta0 = 7, delta = 14; the indices are 0, 10, 10
        m = edited(field, (8, 5, 4), 54, edit)
        res = nullspace_minimal_vectors(m, 14, RandomPlan(55, max_retries=0))
        assert reconstructions == [18, 25]
        assert res.degrees == kronecker_indices(m).indices == (0, 10, 10)

    @pytest.mark.parametrize(
        "fail", [KappaMismatch, NotRowReduced], ids=["not-annihilating", "not-row-reduced"]
    )
    def test_certificates_bite_at_the_generic_order(
        self, field, monkeypatch, reconstructions, fail
    ):
        # 9 x 6 at d = 3: delta0 = 6, each generic index, and delta = 12.  The
        # injection trades the last kept row of L for one outside the kernel, or
        # keeps the first row twice in place of the last: all annihilate, but
        # the stack is not row-reduced
        real = nullspace_module.select_low_rows

        def wrong(basis, delta):
            kappa, picked = real(basis, delta)
            if fail is KappaMismatch:
                return kappa, picked[:-1] + [min(set(range(basis.L.rows)) - set(picked))]
            return kappa, picked[:1] + picked[:-1]

        m = edited(field, (9, 6, 3), 56, None)
        assert nullspace_minimal_vectors(m, 12, RandomPlan(57, max_retries=0)).degrees == (6, 6, 6)
        assert reconstructions == [15]
        monkeypatch.setattr(nullspace_module, "select_low_rows", wrong)
        with pytest.raises(fail):
            nullspace_minimal_vectors(m, 12, RandomPlan(57, max_retries=0))
        assert reconstructions == [15, 15]


class TestNullspace2n:
    """``nullspace`` on full column-rank inputs with at most twice as many
    rows as columns: only halving passes run."""

    def test_single_missing_vector(self, field, harvests):
        x = Poly.x(field)
        one = Poly.one(field)
        z = Poly.zero(field)
        m = PolyMatrix.from_polys([[one, z], [z, one], [x * x, x]])
        res = nullspace(m, RandomPlan(11))
        assert harvests() == 1
        assert res.rank == 2
        assert res.degrees == (2,)
        row = res.basis.row_polys(0)
        # proportional to [-x^2, -x, 1]
        assert row[0] == -(row[2] * x * x)
        assert row[1] == -(row[2] * x)

    def test_multi_pass_unbalanced(self, field, harvests):
        # the attempt itself: nullspace would split this input to 4 rows first
        m = companion_column(field, extra_zero_rows=2)
        res = nullspace_module._nullspace_once(m, RandomPlan(12))
        assert sorted(res.degrees) == [0, 0, 3]
        assert harvests() == 2
        assert all(rows_annihilate(res.basis, m))

    def test_degree_sum_and_pass_bounds(self, field, harvests):
        rng = make_rng(6)
        for _ in range(10):
            n = rng.randrange(1, 7)
            q = rng.randrange(1, n + 1)
            d = rng.randrange(4)
            m = full_column_rank(field, n, q, d, rng)
            res = nullspace(m, RandomPlan(rng.randrange(2**63)))
            assert res.rank == n
            assert res.basis.rows == q
            assert all(rows_annihilate(res.basis, m))
            assert res.degree_sum <= n * d * log2_ceil(q)
            assert harvests() <= log2_ceil(q)
            a = rng.randrange(1, field.p)
            assert const_rank(res.basis.eval(a), field.p) == q


class TestMonteCarloCompress:
    def test_zero_matrix(self, field):
        r0, compressed = monte_carlo_rank_compress(PolyMatrix.zeros(field, 3, 2), RandomPlan(13))
        assert r0 == 0
        assert compressed.rows == 3 and compressed.cols == 0

    def test_identity(self, field):
        r0, compressed = monte_carlo_rank_compress(PolyMatrix.identity(field, 4), RandomPlan(14))
        assert r0 == 4
        assert (compressed.rows, compressed.cols) == (4, 4)
        # I @ R is the constant R, which this seed draws nonsingular
        assert compressed.degree == 0
        assert const_rank(compressed.eval(field.p - 1), field.p) == 4

    def test_planted_rank_hit_rate(self, field):
        rng = make_rng(7)
        hits = 0
        for seed in range(100):
            m = planted_rank(field, 6, 5, 3, 2, rng)
            r0, _ = monte_carlo_rank_compress(m, RandomPlan(seed))
            hits += r0 == 3
        assert hits >= 95


class TestNullspaceDriver:
    def test_identity_early_return(self, field):
        res = nullspace(PolyMatrix.identity(field, 4), RandomPlan(15))
        assert res.rank == 4
        assert res.basis.rows == 0
        assert res.degree_sum == 0

    def test_embedded_column(self, field):
        one = Poly.one(field)
        x = Poly.x(field)
        z = Poly.zero(field)
        m = PolyMatrix.from_polys([[one], [x], [z], [z]])
        res = nullspace(m, RandomPlan(16))
        assert res.rank == 1
        assert res.basis.rows == 3
        assert sorted(res.degrees) == [0, 0, 1]
        assert all(rows_annihilate(res.basis, m))
        a = 12345
        assert const_rank(res.basis.eval(a), field.p) == 3

    def test_zero_matrix(self, field):
        res = nullspace(PolyMatrix.zeros(field, 3, 2), RandomPlan(17))
        assert res.rank == 0
        assert res.basis == PolyMatrix.identity(field, 3)

    def test_no_columns(self, field):
        res = nullspace(PolyMatrix.zeros(field, 3, 0), RandomPlan(18))
        assert res.rank == 0
        assert res.basis == PolyMatrix.identity(field, 3)

    def test_wide_matrix(self, field):
        rng = make_rng(8)
        m = pm_random(3, 9, 2, field, rng)
        res = nullspace(m, RandomPlan(19))
        assert res.rank == rank_oracle(m)
        assert res.basis.rows == 3 - res.rank

    def test_planted_fuzz_matches_oracle(self, field):
        rng = make_rng(9)
        for trial in range(40):
            m_rows = rng.randrange(1, 11)
            n_cols = rng.randrange(1, 8)
            d = rng.randrange(4)
            r = rng.randrange(min(m_rows, n_cols) + 1)
            m = planted_rank(field, m_rows, n_cols, r, d, rng)
            res = nullspace(m, RandomPlan(rng.randrange(2**63)))
            assert res.rank == rank_oracle(m), trial
            assert all(rows_annihilate(res.basis, m)), trial
            rr = res.rank
            bound = rr * d * log2_ceil(rr) + max(0, m_rows - 2 * rr) * d
            assert res.degree_sum <= bound, trial

    @pytest.mark.parametrize("shape", [(7, 4, 2), (4, 3, 2)])
    def test_short_harvest_raises_kappa_mismatch(self, field, monkeypatch, shape):
        # (7, 4, 2) opens with a 7 x 2 row block, which must find at least
        # 7 - 2*2 = 3 vectors, (4, 3, 2) with a halving pass, which must find 1;
        # each gets one fewer, so the first harvest raises
        real, calls = nullspace_module._minimal_vectors_once, []

        def short(m, delta, plan):
            res = real(m, delta, plan)
            calls.append(res.kappa)
            k = min(res.kappa, max(m.rows - 2 * m.cols, 1) - 1)
            return MinimalVectorsResult(k, res.vectors.take_rows(range(k)), res.degrees[:k])

        monkeypatch.setattr(nullspace_module, "_minimal_vectors_once", short)
        m = planted_rank(field, *shape, 2, make_rng(12))
        with pytest.raises(KappaMismatch):
            nullspace(m, RandomPlan(22, max_retries=0))
        assert len(calls) == 1

    def test_unbalanced_through_driver(self, field):
        m = companion_column(field, extra_zero_rows=3)
        res = nullspace(m, RandomPlan(20))
        assert res.rank == 3
        assert sorted(res.degrees) == [0, 0, 0, 3]
        assert all(rows_annihilate(res.basis, m))


class TestDegreeZeroSplit:
    """``nullspace`` eliminates the transposed coefficient stack [M_0 | ... | M_d]
    once: its pivots are the stack's row rank profile P, the constant kernel C
    is read off it, and the attempts run on M's own rows P, unless |P| = m."""

    @pytest.fixture
    def attempts(self, monkeypatch):
        """The heights of the matrices the attempts were made on."""
        real, heights = nullspace_module._nullspace_once, []

        def recorded(m, plan):
            heights.append(m.rows)
            return real(m, plan)

        monkeypatch.setattr(nullspace_module, "_nullspace_once", recorded)
        return heights

    def test_zero_matrix_needs_no_attempt(self, field, attempts):
        res = nullspace(PolyMatrix.zeros(field, 4, 3), RandomPlan(60))
        assert attempts == []
        assert res.rank == 0 and res.degrees == (0,) * 4
        assert res.basis == PolyMatrix.identity(field, 4)

    def test_constant_input_answered_by_the_elimination(self, field, harvests):
        # d = 0: the stack is M_0, so C is its whole kernel and M's rows P have
        # full row rank, which the attempt returns before any harvest
        m = planted_rank(field, 7, 4, 3, 0, make_rng(61))
        res = nullspace(m, RandomPlan(62))
        assert harvests() == 0
        assert res.rank == 3 and res.degrees == (0,) * 4
        assert res.basis == PolyMatrix.from_const(field, const_kernel(m.coeffs[:, :, 0], field.p))
        assert certified(res, m)

    def test_full_row_rank_stack_takes_the_attempt_unchanged(self, field, attempts):
        # 8 x 4 at d = 2: the 8 x 12 stack has full row rank, so nothing splits
        m = pm_random(8, 4, 2, field, make_rng(63))
        res = nullspace(m, RandomPlan(64))
        once = nullspace_module._nullspace_once(m, RandomPlan(64))
        assert attempts == [8, 8]
        assert res.retries_used == 0
        assert (res.rank, res.degrees, res.seed) == (once.rank, once.degrees, once.seed)
        assert res.basis == once.basis

    @pytest.mark.parametrize("seed", [65, 66, 67])
    def test_tall_planted_input_reaches_the_minimal_degree_sum(self, field, attempts, seed):
        # 14 x 3, rank 2, d = 2: m > r(d+1) = 6, so at least 8 indices are 0
        m = planted_rank(field, 14, 3, 2, 2, make_rng(seed))
        res = nullspace(m, RandomPlan(seed))
        assert certified(res, m)
        assert attempts and all(h <= 6 for h in attempts)
        assert res.degrees[: 14 - attempts[-1]] == (0,) * (14 - attempts[-1])
        assert res.degree_sum == sum(kronecker_indices(m).indices)
        assert_kernel_leads(res, m, attempts[-1])

    def test_blocked_elimination_splits_a_tall_input(self, field, attempts):
        # 120 x 24, rank 20, d = 4 (wide-harvest's shape): the transposed stack
        # is 120 x 120, so the split goes by column panels; the stack has rank 100
        m = planted_rank(field, 120, 24, 20, 4, make_rng(35))
        res = nullspace(m, RandomPlan(36))
        assert attempts == [100]
        assert res.degrees[:20] == (0,) * 20
        assert certified(res, m)
        assert_kernel_leads(res, m, 100)

    @pytest.fixture
    def eliminations(self, monkeypatch):
        """The heights of the arrays the split eliminated."""
        real, heights = nullspace_module._eliminate, []

        def recorded(aug, p, cols):
            heights.append(aug.shape[0])
            return real(aug, p, cols)

        monkeypatch.setattr(nullspace_module, "_eliminate", recorded)
        return heights

    def test_full_row_rank_certified_on_2m_rows(self, field, attempts, eliminations):
        # 8 x 6 at d = 4: 2m = 16 < 30 rows of the transposed stack, and those
        # 16 rows have rank 8, so no full elimination runs and nothing splits
        m = pm_random(8, 6, 4, field, make_rng(68))
        res = nullspace(m, RandomPlan(69))
        assert eliminations == [16]
        assert attempts == [8]
        once = nullspace_module._nullspace_once(m, RandomPlan(69))
        assert (res.rank, res.degrees, res.retries_used) == (once.rank, once.degrees, 0)
        assert res.basis == once.basis

    def test_planted_constant_kernel_fails_the_certificate(self, field, attempts, eliminations):
        # the same shape with row 7 = 2 row 0 + 3 row 1: 16 rows of rank 7 do
        # not certify, the full elimination finds |P| = 7 and the split answers
        c = pm_random(8, 6, 4, field, make_rng(70)).coeffs.copy()
        c[7] = (2 * c[0] + 3 * c[1]) % field.p
        m = PolyMatrix(field, c)
        res = nullspace(m, RandomPlan(71))
        assert eliminations == [16, 30]
        assert attempts and all(h < 8 for h in attempts)
        assert res.degrees[0] == 0
        assert certified(res, m)
        assert_kernel_leads(res, m, attempts[-1])

    def test_understated_stack_rank_raises(self, field, monkeypatch):
        # an elimination that reports one pivot too few reads that row off P with
        # zero coordinates: the exact check X @ stack[P] = stack[off P] rejects it
        real = nullspace_module._eliminate
        monkeypatch.setattr(nullspace_module, "_eliminate", lambda *args: real(*args)[:-1])
        m = planted_rank(field, 14, 3, 2, 2, make_rng(65))
        with pytest.raises(RankCandidateWrong, match="constant kernel"):
            nullspace(m, RandomPlan(65))


def assert_kernel_leads(res, m, s):
    """The basis's first m - s rows are the constant kernel of the coefficient stack."""
    kernel = const_kernel(m.coeffs.reshape(m.rows, -1), m.field.p)
    assert res.basis.block(0, m.rows - s, 0, m.rows) == PolyMatrix.from_const(m.field, kernel)


def certified(res, m):
    """The answer's rank is the oracle's, and its basis has m - rank rows that
    annihilate m and are independent (full rank at some point of the field)."""
    p = m.field.p
    if res.rank != rank_oracle(m) or res.basis.rows != m.rows - res.rank:
        return False
    if not all(rows_annihilate(res.basis, m)):
        return False
    return any(const_rank(res.basis.eval(a), p) == res.basis.rows for a in range(min(p, 256)))


class TestWideHarvest:
    """Below a low-rank top a harvest opens up to ``_HARVEST_ROWS`` rows, not 2r."""

    def test_tall_rank_one_in_two_harvests(self, field, harvests):
        m_rows, r, d = 24, 1, 2
        m = planted_rank(field, m_rows, 3, r, d, make_rng(30))
        res = nullspace(m, RandomPlan(31))
        assert harvests() <= 2
        assert certified(res, m)
        assert res.degree_sum <= (m_rows - r) * d

    def test_harvest_rows_capped(self, field, monkeypatch):
        cap, top = nullspace_module._HARVEST_ROWS, 2
        m = planted_rank(field, cap + 40, 4, top, 1, make_rng(32))
        real, heights = nullspace_module._minimal_vectors_once, []

        def recorded(sub, delta, plan):
            heights.append(sub.rows)
            return real(sub, delta, plan)

        monkeypatch.setattr(nullspace_module, "_minimal_vectors_once", recorded)
        # the attempt itself: nullspace would split this input to 2 rows first
        res = nullspace_module._nullspace_once(m, RandomPlan(33))
        assert certified(res, m)
        # every harvest within the cap, and the widest at it
        assert max(heights) == top + max(2 * top, cap)

    def test_row_blocks_keep_every_vector(self, field, monkeypatch):
        # wide-harvest's shape: a 64-row block finds 64 vectors and keeps all
        # of them, not 64 - 20, so the 36 rows left close in a second harvest
        m = planted_rank(field, 120, 24, 20, 4, make_rng(35))
        real_mv, real_harvest = nullspace_module._minimal_vectors_once, nullspace_module._harvest
        found, kept = [], []

        def recorded_mv(sub, delta, plan):
            res = real_mv(sub, delta, plan)
            found.append(res.kappa)
            return res

        def recorded_harvest(*args):
            stacks = real_harvest(*args)
            kept.extend(h.rows for h in stacks)
            return stacks

        monkeypatch.setattr(nullspace_module, "_minimal_vectors_once", recorded_mv)
        monkeypatch.setattr(nullspace_module, "_harvest", recorded_harvest)
        # the attempt itself: nullspace would split this input to 100 rows first
        res = nullspace_module._nullspace_once(m, RandomPlan(36, max_retries=0))
        assert certified(res, m)
        assert len(found) == 2
        assert kept == found

    def test_small_prime_tall_low_rank_all_certified(self):
        # a failure-rate regression at one small prime: few, wide harvests
        # draw few random points, so every call answers within the default
        # retry budget
        small = FieldSpec(101)
        rng = make_rng(34)
        for trial in range(60):
            n_cols = rng.randrange(1, 9)
            m_rows = rng.randrange(n_cols + 1, 25)
            r = rng.randrange(1, min(3, n_cols) + 1)
            m = planted_rank(small, m_rows, n_cols, r, rng.randrange(4), rng)
            res = nullspace(m, RandomPlan(rng.randrange(2**63)))
            assert certified(res, m), trial


class TestCertificates:
    """The basis's rank rests on the harvests' independence certificates and
    the final exact annihilation, with no point drawn after the harvests: a
    wrong intermediate injected upstream must raise the named ``Fail``, never
    come back as an answer."""

    @pytest.mark.parametrize("shape", [(7, 4, 2), (4, 3, 2)])
    def test_repeated_vector_raises_independence_lost(self, field, monkeypatch, shape):
        # (7, 4, 2) keeps 3 vectors of a row block, (4, 3, 2) 2 of a halving pass
        real = nullspace_module._minimal_vectors_once

        def repeated(m, delta, plan):
            res = real(m, delta, plan)
            order = [0, 0, *range(2, res.kappa)]
            degrees = tuple(res.degrees[i] for i in order)
            return MinimalVectorsResult(res.kappa, res.vectors.take_rows(order), degrees)

        monkeypatch.setattr(nullspace_module, "_minimal_vectors_once", repeated)
        m = planted_rank(field, *shape, 2, make_rng(12))
        with pytest.raises(IndependenceLost):
            nullspace(m, RandomPlan(22, max_retries=0))

    @pytest.mark.parametrize("rank", [2, 1])
    def test_undershot_rank_raises_rank_candidate_wrong(self, field, monkeypatch, rank):
        # rank 2 undershoots to a basis one vector too big, rank 1 to r0 = 0
        real = nullspace_module.monte_carlo_rank_compress

        def undershot(m, plan):
            r0, compressed = real(m, plan)
            return r0 - 1, compressed.block(0, compressed.rows, 0, r0 - 1)

        monkeypatch.setattr(nullspace_module, "monte_carlo_rank_compress", undershot)
        m = planted_rank(field, 7, 4, rank, 2, make_rng(13))
        with pytest.raises(RankCandidateWrong):
            nullspace(m, RandomPlan(23, max_retries=0))

    def test_no_draw_after_the_last_harvest(self, field, monkeypatch, harvests):
        m = planted_rank(field, 70, 4, 2, 2, make_rng(14))
        plan = RandomPlan(24, max_retries=0)
        points, shapes = [], []
        point, constant = plan.field_point, plan.constant

        def logged_point(f):
            points.append(harvests())
            return point(f)

        def logged_constant(rows, cols, f):
            shapes.append((rows, cols))
            return constant(rows, cols, f)

        monkeypatch.setattr(plan, "field_point", logged_point)
        monkeypatch.setattr(plan, "constant", logged_constant)
        # the attempt itself: nullspace would split this input to 2 rows first
        res = nullspace_module._nullspace_once(m, plan)
        h = harvests()
        assert h >= 2 and certified(res, m)
        # the rank guess and the probe, then each harvest's shift and
        # independence point: 2 + 2h draws, none after the last harvest
        assert points == [0, 0] + [k for k in range(1, h + 1) for _ in (0, 1)]
        # the compression, then the mix [I | S] drawn as S alone
        assert shapes[:2] == [(4, 2), (2, 68)]


class TestSmallField:
    def test_sound_over_small_prime(self):
        # collisions are frequent at p = 101; failures are fine, wrong
        # answers are not, and the multiplication fallback must engage
        from polynull import FieldSpec

        small = FieldSpec(101)
        rng = make_rng(11)
        wrong = 0
        succeeded = 0
        for trial in range(25):
            m_rows = rng.randrange(1, 7)
            n_cols = rng.randrange(1, 5)
            d = rng.randrange(3)
            r = rng.randrange(min(m_rows, n_cols) + 1)
            m = planted_rank(small, m_rows, n_cols, r, d, rng)
            try:
                res = nullspace(m, RandomPlan(rng.randrange(2**63)))
            except Fail:
                continue
            succeeded += 1
            if res.rank != rank_oracle(m) or not all(rows_annihilate(res.basis, m)):
                wrong += 1
        assert wrong == 0
        assert succeeded > 0


class TestRandomPlan:
    def test_seed_replay(self, field):
        a, b = RandomPlan(42), RandomPlan(42)
        draws = [
            (
                plan.field_point(field),
                plan.constant(3, 3, field),
                plan.poly_matrix(2, 2, 3, field),
            )
            for plan in (a, b)
        ]
        (xa, qa, pa), (xb, qb, pb) = draws
        assert xa == xb
        assert np.array_equal(qa, qb)
        assert pa == pb

    def test_same_seed_same_result(self, field):
        rng = make_rng(10)
        m = planted_rank(field, 6, 4, 2, 2, rng)
        r1 = nullspace(m, RandomPlan(777))
        r2 = nullspace(m, RandomPlan(777))
        assert r1.rank == r2.rank
        assert r1.basis == r2.basis
        assert r1.degrees == r2.degrees

    def test_entropy_seed_recorded(self, field):
        plan = RandomPlan()
        assert isinstance(plan.seed, int)

    def test_negative_retry_budget_rejected(self):
        with pytest.raises(ValueError, match="retry budget"):
            RandomPlan(1, max_retries=-1)

    def test_zero_retry_budget_runs_one_attempt(self, field):
        m = pm_random(3, 2, 1, field, make_rng(4))
        assert nullspace(m, RandomPlan(3, max_retries=0)).retries_used == 0

    def test_retries_surface_last_failure(self, field, monkeypatch):
        x = Poly.x(field)
        one = Poly.one(field)
        m = PolyMatrix.from_polys([[x, x], [one, one], [x * x, x * x]])
        plan = RandomPlan(21, max_retries=3)
        shapes = []
        draw = plan.constant

        def logged(m, n, field):
            shapes.append((m, n))
            return draw(m, n, field)

        monkeypatch.setattr(plan, "constant", logged)
        with pytest.raises(Fail):
            nullspace_minimal_vectors(m, 1, plan)
        # four failed attempts drew four conditioning matrices
        assert shapes == [(3, 3)] * 4
