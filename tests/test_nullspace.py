"""The randomized drivers: minimal vectors, the 2n case, the general case."""

import numpy as np
import pytest

from polynull import (
    Fail,
    FieldSpec,
    Poly,
    PolyMatrix,
    RandomPlan,
    SingularAtZero,
    is_row_reduced,
    kronecker_indices,
    monte_carlo_rank_compress,
    nullspace,
    nullspace_2n,
    nullspace_minimal_vectors,
    pm_mul,
    pm_random,
    rank_oracle,
    rows_annihilate,
)
from polynull.nullspace import _reconstruction_order
from polynull.polymat import const_rank

from conftest import log2_ceil, make_rng, planted_rank, poly


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


class TestRowsAnnihilate:
    def test_matches_direct_product(self, field):
        rng = make_rng(1)
        for _ in range(6):
            m = pm_random(3, 2, 2, field, rng)
            cand = pm_random(4, 3, 7, field, rng)
            direct = [pm_mul(cand.take_rows([i]), m).is_zero() for i in range(4)]
            assert rows_annihilate(cand, m) == direct

    def test_true_kernel_rows(self, field):
        rng = make_rng(2)
        m = planted_rank(field, 5, 3, 2, 2, rng)
        kern = kronecker_indices(m).basis
        if kern.rows:
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
            profile = kronecker_indices(m, include_basis=False)
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

    def test_denominator_block_is_row_reduced_with_same_degrees(self, field):
        rng = make_rng(5)
        for _ in range(6):
            n = rng.randrange(1, 6)
            p_extra = rng.randrange(1, n + 1)
            d = rng.randrange(1, 4)
            m = full_column_rank(field, n, p_extra, d, rng)
            res = nullspace_minimal_vectors(m, n * d, RandomPlan(rng.randrange(2**63)))
            if res.kappa == 0:
                continue
            assert is_row_reduced(res.s_block)
            s_degs = tuple(int(res.s_block.row_degree(i)) for i in range(res.kappa))
            assert s_degs == res.degrees

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


class TestNullspace2n:
    def test_single_missing_vector(self, field):
        x = Poly.x(field)
        one = Poly.one(field)
        z = Poly.zero(field)
        m = PolyMatrix.from_polys([[one, z], [z, one], [x * x, x]])
        res = nullspace_2n(m, RandomPlan(11))
        assert res.passes == 1
        assert res.degrees == (2,)
        row = res.rows.row_polys(0)
        # proportional to [-x^2, -x, 1]
        assert row[0] == -(row[2] * x * x)
        assert row[1] == -(row[2] * x)

    def test_multi_pass_unbalanced(self, field):
        m = companion_column(field, extra_zero_rows=2)
        res = nullspace_2n(m, RandomPlan(12))
        assert sorted(res.degrees) == [0, 0, 3]
        assert res.passes == 2
        assert all(rows_annihilate(res.rows, m))

    def test_degree_sum_and_pass_bounds(self, field):
        rng = make_rng(6)
        for _ in range(10):
            n = rng.randrange(1, 7)
            q = rng.randrange(1, n + 1)
            d = rng.randrange(4)
            m = full_column_rank(field, n, q, d, rng)
            res = nullspace_2n(m, RandomPlan(rng.randrange(2**63)))
            assert res.rows.rows == q
            assert all(rows_annihilate(res.rows, m))
            assert res.degree_sum <= n * d * log2_ceil(q)
            assert res.passes <= log2_ceil(q)
            a = rng.randrange(1, field.p)
            assert const_rank(res.rows.eval(a), field.p) == q

    def test_input_validation(self, field):
        too_tall = PolyMatrix.zeros(field, 5, 2)
        with pytest.raises(ValueError):
            nullspace_2n(too_tall, RandomPlan(1))


class TestMonteCarloCompress:
    def test_zero_matrix(self, field):
        r0, compressed, right = monte_carlo_rank_compress(
            PolyMatrix.zeros(field, 3, 2), RandomPlan(13)
        )
        assert r0 == 0
        assert compressed.rows == 3 and compressed.cols == 0
        assert right.shape == (2, 0)

    def test_identity(self, field):
        r0, compressed, right = monte_carlo_rank_compress(
            PolyMatrix.identity(field, 4), RandomPlan(14)
        )
        assert r0 == 4
        assert compressed == PolyMatrix.from_const(field, right)

    def test_planted_rank_hit_rate(self, field):
        rng = make_rng(7)
        hits = 0
        for seed in range(100):
            m = planted_rank(field, 6, 5, 3, 2, rng)
            r0, _, _ = monte_carlo_rank_compress(m, RandomPlan(seed))
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

    def test_unbalanced_through_driver(self, field):
        m = companion_column(field, extra_zero_rows=3)
        res = nullspace(m, RandomPlan(20))
        assert res.rank == 3
        assert sorted(res.degrees) == [0, 0, 0, 3]
        assert all(rows_annihilate(res.basis, m))


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
        for plan in (a, b):
            plan.field_point(field, "x0")
            plan.constant(3, 3, field, "Q")
            plan.poly_matrix(2, 2, 3, field, "P")
        assert a.samples[0] == b.samples[0]
        assert np.array_equal(a.samples[1][1], b.samples[1][1])
        assert a.samples[2][1] == b.samples[2][1]

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

    def test_retries_surface_last_failure(self, field):
        x = Poly.x(field)
        one = Poly.one(field)
        m = PolyMatrix.from_polys([[x, x], [one, one], [x * x, x * x]])
        plan = RandomPlan(21, max_retries=3)
        with pytest.raises(Fail):
            nullspace_minimal_vectors(m, 1, plan)
        # four failed attempts drew four Q samples and four x0 samples
        assert sum(1 for label, _ in plan.samples if label == "x0") == 4
