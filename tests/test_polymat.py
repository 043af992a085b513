"""Polynomial matrices, constant linear algebra, degree predicates."""

import numpy as np
import pytest

from polynull import (
    NEG_INF,
    DimensionMismatch,
    FieldSpec,
    Poly,
    PolyMatrix,
    const_kernel,
    const_rank,
    is_row_reduced,
    pm_mul,
    pm_mul_mod,
    pm_random,
    rank_oracle,
    tdeg_row,
)
from polynull.polymat import _EXACT, _LIMB_K_MAX, mat_mul_mod

from conftest import make_rng, planted_rank, poly, poly_level_matmul, schoolbook_mul

# 2^21 - 9, a prime whose single-dgemm bound K * (p-1)^2 < 2^53 ends at K = 2048
SWITCH_PRIME = 2097143


class TestMatMulMod:
    def test_against_bigint_reference(self, field):
        rng = make_rng(1)
        p = field.p
        for _ in range(10):
            m, k, n = rng.randrange(1, 9), rng.randrange(1, 9), rng.randrange(1, 9)
            a = np.array([[rng.randrange(p) for _ in range(k)] for _ in range(m)])
            b = np.array([[rng.randrange(p) for _ in range(n)] for _ in range(k)])
            want = [
                [sum(int(a[i, t]) * int(b[t, j]) for t in range(k)) % p for j in range(n)]
                for i in range(m)
            ]
            assert mat_mul_mod(a, b, p).tolist() == want

    def test_near_modulus_entries(self, field):
        # worst-case magnitudes for the 16-bit split accumulation
        p = field.p
        a = np.full((64, 64), p - 1, dtype=np.int64)
        got = mat_mul_mod(a, a, p)
        assert int(got[0, 0]) == 64 * (p - 1) * (p - 1) % p

    @pytest.mark.parametrize("p", [2**31 - 1, 1009, 2])
    @pytest.mark.parametrize("extra", [0, 1])
    def test_limb_bound_all_entries_top(self, p, extra):
        k = _LIMB_K_MAX + extra
        a = np.full((1, k), p - 1, dtype=np.int64)
        b = np.full((k, 1), p - 1, dtype=np.int64)
        assert int(mat_mul_mod(a, b, p)[0, 0]) == k * (p - 1) ** 2 % p

    def test_chunk_past_limb_bound_is_exact(self):
        # lo = 0xFFFF is the largest limb: one unchunked lo.lo dgemm at
        # K = bound + 1 would sum an odd integer above 2^53 and round
        p = 2**31 - 1
        v = (1 << 31) - 1 - (1 << 16)
        k = _LIMB_K_MAX + 1
        assert k * (v & 0xFFFF) ** 2 > _EXACT and k % 2 == 1
        a = np.full((1, k), v, dtype=np.int64)
        b = np.full((k, 1), v, dtype=np.int64)
        assert int(mat_mul_mod(a, b, p)[0, 0]) == k * v * v % p

    @pytest.mark.parametrize("k", [2048, 2049])
    def test_both_sides_of_single_dgemm_switch(self, k):
        p = SWITCH_PRIME
        assert (k * (p - 1) ** 2 < _EXACT) == (k == 2048)
        a = np.full((2, k), p - 1, dtype=np.int64)
        b = np.full((k, 2), p - 1, dtype=np.int64)
        # one odd term: past the switch the exact sum is odd and above 2^53,
        # so a single float64 dgemm could not hold it
        a[1, 0] = b[0, 1] = p - 2
        want = [
            [sum(int(a[i, t]) * int(b[t, j]) for t in range(k)) % p for j in range(2)]
            for i in range(2)
        ]
        if k == 2049:
            assert (k - 1) * (p - 1) ** 2 + (p - 2) ** 2 > _EXACT
        assert mat_mul_mod(a, b, p).tolist() == want

    @pytest.mark.parametrize("shape", [(0, 3, 2), (2, 0, 3), (2, 3, 0)])
    def test_empty_dimensions(self, field, shape):
        m, k, n = shape
        a = np.zeros((m, k), dtype=np.int64)
        b = np.zeros((k, n), dtype=np.int64)
        got = mat_mul_mod(a, b, field.p)
        assert got.shape == (m, n) and got.dtype == np.int64 and not got.any()


class TestPmMul:
    def test_identity(self, field):
        rng = make_rng(2)
        a = pm_random(4, 4, 3, field, rng)
        assert pm_mul(a, PolyMatrix.identity(field, 4)) == a

    def test_column_times_row(self, field):
        a = PolyMatrix.from_polys([[Poly.x(field)], [Poly.one(field)]])
        b = PolyMatrix.from_polys([[poly(field, 1, 1)]])
        want = PolyMatrix.from_polys([[poly(field, 0, 1, 1)], [poly(field, 1, 1)]])
        assert pm_mul(a, b) == want

    def test_matches_poly_level_product(self, field):
        rng = make_rng(3)
        a = pm_random(4, 4, 3, field, rng)
        b = pm_random(4, 4, 3, field, rng)
        assert pm_mul(a, b) == poly_level_matmul(a, b)

    def test_small_field_fallback(self):
        # p = 5 cannot host the 2d+1 point grid for d = 4
        small = FieldSpec(5)
        rng = make_rng(4)
        a = pm_random(3, 3, 4, small, rng)
        b = pm_random(3, 2, 4, small, rng)
        assert pm_mul(a, b) == poly_level_matmul(a, b)

    def test_dimension_mismatch(self, field):
        with pytest.raises(DimensionMismatch):
            pm_mul(PolyMatrix.zeros(field, 2, 3), PolyMatrix.zeros(field, 2, 3))

    def test_eval_homomorphism(self, field):
        rng = make_rng(5)
        a = pm_random(3, 4, 2, field, rng)
        b = pm_random(4, 2, 3, field, rng)
        for pt in (0, 1, rng.randrange(field.p)):
            want = mat_mul_mod(a.eval(pt), b.eval(pt), field.p)
            assert np.array_equal(pm_mul(a, b).eval(pt), want)


class TestPmMulMod:
    def test_order_zero(self, field):
        rng = make_rng(6)
        a = pm_random(2, 2, 3, field, rng)
        assert pm_mul_mod(a, a, 0).is_zero()

    def test_large_order_is_full_product(self, field):
        rng = make_rng(7)
        a = pm_random(3, 3, 2, field, rng)
        b = pm_random(3, 3, 2, field, rng)
        assert pm_mul_mod(a, b, 10) == pm_mul(a, b)

    def test_matches_truncated_product(self, field):
        rng = make_rng(8)
        for _ in range(5):
            a = pm_random(3, 2, 4, field, rng)
            b = pm_random(2, 3, 4, field, rng)
            k = rng.randrange(1, 8)
            assert pm_mul_mod(a, b, k) == pm_mul(a, b).truncate(k)

    @pytest.mark.parametrize("da, db", [(1, 5), (3, 3), (5, 1), (0, 4), (4, 0)])
    def test_both_orientations_against_poly_level(self, field, da, db):
        # da <= db loops over the slabs of a, da > db over those of b
        rng = make_rng(100 + 10 * da + db)
        a = pm_random(3, 4, da, field, rng)
        b = pm_random(4, 2, db, field, rng)
        full = poly_level_matmul(a, b)
        for order in sorted({1, min(da, db), min(da, db) + 1, da + db, da + db + 1, da + db + 4}):
            if order:
                assert pm_mul_mod(a, b, order) == full.truncate(order)

    def test_scalar_entries_against_schoolbook(self, field):
        rng = make_rng(16)
        p = field.p
        for da, db in ((2, 6), (6, 2)):
            fa = [rng.randrange(1, p) for _ in range(da + 1)]
            fb = [rng.randrange(1, p) for _ in range(db + 1)]
            a = PolyMatrix.from_polys([[Poly(field, fa)]])
            b = PolyMatrix.from_polys([[Poly(field, fb)]])
            want = schoolbook_mul(fa, fb, p)
            for order in range(1, da + db + 3):
                assert pm_mul_mod(a, b, order).poly(0, 0) == Poly(field, want[:order])

    def test_all_zero_slabs(self, field):
        rng = make_rng(17)
        for da, db in ((2, 6), (6, 2)):
            a = pm_random(3, 3, da, field, rng).coeffs.copy()
            b = pm_random(3, 3, db, field, rng).coeffs.copy()
            a[:, :, 1] = 0
            b[:, :, 0] = 0
            b[:, :, 2] = 0
            a, b = PolyMatrix(field, a), PolyMatrix(field, b)
            full = poly_level_matmul(a, b)
            for order in (1, 2, 3, 5, da + db + 1):
                assert pm_mul_mod(a, b, order) == full.truncate(order)

    @pytest.mark.parametrize("m, s, n", [(0, 3, 2), (2, 3, 0), (2, 0, 3)])
    def test_empty_operands(self, field, m, s, n):
        a = PolyMatrix(field, np.ones((m, s, 3), dtype=np.int64))
        b = PolyMatrix(field, np.ones((s, n, 2), dtype=np.int64))
        got = pm_mul_mod(a, b, 4)
        assert (got.rows, got.cols) == (m, n)
        assert got.is_zero()


class TestConstRank:
    def test_identity(self, field):
        assert const_rank(np.eye(5, dtype=np.int64), field.p) == 5

    def test_zero(self, field):
        assert const_rank(np.zeros((3, 4), dtype=np.int64), field.p) == 0

    def test_proportional_rows_mod_7(self):
        assert const_rank([[1, 2], [2, 4]], 7) == 1


class TestConstKernel:
    def test_identity_has_empty_kernel(self, field):
        assert const_kernel(np.eye(4, dtype=np.int64), field.p).shape == (0, 4)

    def test_zero_matrix(self, field):
        kern = const_kernel(np.zeros((2, 3), dtype=np.int64), field.p)
        assert kern.shape == (2, 2)
        assert const_rank(kern, field.p) == 2

    def test_rank_three_matrix(self, field):
        rng = make_rng(9)
        left = np.array([[rng.randrange(field.p) for _ in range(3)] for _ in range(6)])
        right = np.array([[rng.randrange(field.p) for _ in range(4)] for _ in range(3)])
        m0 = mat_mul_mod(left, right, field.p)
        assert const_rank(m0, field.p) == 3
        kern = const_kernel(m0, field.p)
        assert kern.shape[0] == 3
        assert not mat_mul_mod(kern, m0, field.p).any()
        assert const_rank(kern, field.p) == 3


class TestShiftedDegrees:
    def test_plain_max(self, field):
        v = [poly(field, 0, 0, 1), Poly.one(field)]
        assert tdeg_row(v, [0, 0]) == 2

    def test_shift_dominance(self, field):
        v = [poly(field, 0, 0, 1), Poly.one(field)]
        assert tdeg_row(v, [3, 0]) == 0

    def test_zero_row(self, field):
        v = [Poly.zero(field), Poly.zero(field)]
        assert tdeg_row(v, [0, 0]) is NEG_INF

    def test_length_mismatch(self, field):
        with pytest.raises(DimensionMismatch):
            tdeg_row([Poly.one(field)], [0, 0])


class TestRowReduced:
    def test_identity(self, field):
        assert is_row_reduced(PolyMatrix.identity(field, 3))

    def test_singular_leading_matrix(self, field):
        m = PolyMatrix.from_polys(
            [
                [Poly.one(field), Poly.x(field)],
                [Poly.x(field), poly(field, 0, 0, 1)],
            ]
        )
        assert not is_row_reduced(m)

    def test_single_nonzero_row(self, field):
        m = PolyMatrix.from_polys([[Poly.x(field), Poly.zero(field)]])
        assert is_row_reduced(m)

    def test_zero_row_rejected(self, field):
        m = PolyMatrix.zeros(field, 2, 2)
        with pytest.raises(ValueError, match="zero"):
            is_row_reduced(m)

    def test_permutations_preserve_predicate(self, field):
        rng = make_rng(10)
        m = pm_random(3, 3, 2, field, rng)
        perm = np.eye(3, dtype=np.int64)[[2, 0, 1]]
        assert is_row_reduced(m) == is_row_reduced(m.mul_const_left(perm))


class TestEntrywiseOps:
    def test_eval_scales_identity(self, field):
        xi = PolyMatrix.from_polys(
            [
                [Poly.x(field), Poly.zero(field)],
                [Poly.zero(field), Poly.x(field)],
            ]
        )
        assert np.array_equal(xi.eval(2), 2 * np.eye(2, dtype=np.int64))

    def test_zero_shift_is_identity(self, field):
        rng = make_rng(11)
        m = pm_random(3, 3, 4, field, rng)
        assert m.shift_var(0) == m

    def test_shift_matches_entrywise_poly_shift(self, field):
        rng = make_rng(12)
        m = pm_random(3, 2, 5, field, rng)
        x0 = rng.randrange(field.p)
        shifted = m.shift_var(x0)
        for i in range(3):
            for j in range(2):
                assert shifted.poly(i, j) == m.poly(i, j).shift_var(x0)

    def test_random_shape_and_degree(self, field):
        m = pm_random(3, 2, 4, field, make_rng(13))
        assert (m.rows, m.cols) == (3, 2)
        assert m.degree <= 4

    def test_degree_cache_matches_entries(self, field):
        rng = make_rng(14)
        m = pm_random(4, 3, 3, field, rng)
        expected = max(m.entry_degree(i, j) for i in range(4) for j in range(3))
        assert m.degree == expected


class TestEvaluationRank:
    def test_evaluation_never_exceeds_rational_rank(self, field):
        rng = make_rng(15)
        for _ in range(10):
            m = planted_rank(field, 4, 3, rng.randrange(4), 2, rng)
            r = rank_oracle(m)
            for pt in (0, 1, rng.randrange(field.p)):
                assert const_rank(m.eval(pt), field.p) <= r
