"""Brute-force oracle: linearized kernels, Kronecker indices, rank."""

import numpy as np
import pytest

from polynull import (
    DEFAULT_PRIME,
    FieldSpec,
    FieldTooSmall,
    Poly,
    PolyMatrix,
    TooLarge,
    const_random,
    const_rank,
    kernel_linearized,
    kronecker_indices,
    pm_mul,
    pm_random,
    rank_oracle,
)

from conftest import make_rng, planted_rank, poly


def planted_indices(field, rng, degs=None):
    """U @ diag([1; b_1], ..., [1; b_k], 0) @ V with constant U, V and deg b_i = e_i >= 1.

    Each 2 x 1 block [1; b] has the one minimal nullspace vector [b, -1]
    of degree deg b, a trailing zero row (when drawn) adds an index 0,
    and constant invertible U and full row-rank V keep the indices while
    mixing every row.  ``degs`` fixes the e_i and leaves out the zero row;
    by default they are drawn.  Returns the matrix and its sorted indices.
    """
    if degs is None:
        degs = [rng.randrange(1, 5) for _ in range(rng.randrange(1, 3))]
        zero_row = rng.random() < 0.5
    else:
        degs, zero_row = list(degs), False
    k = len(degs)
    rows = 2 * k + zero_row
    d = np.zeros((rows, k, max(degs) + 1), dtype=np.int64)
    for i, e in enumerate(degs):
        d[2 * i, i, 0] = 1
        d[2 * i + 1, i, : e + 1] = [rng.randrange(field.p) for _ in range(e + 1)]
        d[2 * i + 1, i, e] = rng.randrange(1, field.p)
    while True:
        u = const_random(rows, rows, field, rng)
        v = const_random(k, k + rng.randrange(2), field, rng)
        if const_rank(u, field.p) == rows and const_rank(v, field.p) == k:
            break
    m = PolyMatrix.from_const(field, u) @ PolyMatrix(field, d) @ PolyMatrix.from_const(field, v)
    return m, tuple(sorted(degs + [0] * zero_row))


class TestKernelLinearized:
    def test_identity_has_no_kernel(self, field):
        m = PolyMatrix.identity(field, 3)
        for delta in range(4):
            assert kernel_linearized(m, delta).rows == 0

    def test_column_one_x(self, field):
        m = PolyMatrix.from_polys([[Poly.one(field)], [Poly.x(field)]])
        assert kernel_linearized(m, 0).rows == 0
        kern = kernel_linearized(m, 1)
        assert kern.rows == 1
        row = kern.row_polys(0)
        # proportional to [x, -1]
        assert row[0] == -(row[1] * Poly.x(field))

    def test_dimension_sweep_is_monotone_and_stabilizes(self, field):
        rng = make_rng(1)
        m = planted_rank(field, 4, 3, 2, 2, rng)
        r = rank_oracle(m)
        dims = [kernel_linearized(m, delta).rows for delta in range(3 * 2 + 2)]
        assert dims == sorted(dims)
        growth = [b - a for a, b in zip(dims, dims[1:])]
        assert growth[-1] == m.rows - r  # one new shift per generator, settled

    def test_rows_annihilate(self, field):
        rng = make_rng(2)
        m = planted_rank(field, 5, 3, 2, 2, rng)
        kern = kernel_linearized(m, 4)
        assert pm_mul(kern, m).is_zero()

    def test_size_guard(self, field):
        m = PolyMatrix.zeros(field, 10, 2)
        with pytest.raises(TooLarge):
            kernel_linearized(m, 2000)


class TestKroneckerIndices:
    def test_column_one_x(self, field):
        m = PolyMatrix.from_polys([[Poly.one(field)], [Poly.x(field)]])
        profile = kronecker_indices(m)
        assert profile.indices == (1,)
        assert profile.rank == 1

    def test_nonsingular_square(self, field):
        rng = make_rng(3)
        while True:
            m = pm_random(3, 3, 2, field, rng)
            if rank_oracle(m) == 3:
                break
        profile = kronecker_indices(m)
        assert profile.indices == ()

    def test_generic_tall_matrix(self, field):
        rng = make_rng(4)
        n, d = 4, 2
        m = pm_random(2 * n, n, d, field, rng)
        profile = kronecker_indices(m)
        assert profile.indices == (d,) * n

    def test_unbalanced_indices(self, field):
        # companion-style column: single index n*d
        x = Poly.x(field)
        mone = -Poly.one(field)
        z = Poly.zero(field)
        m = PolyMatrix.from_polys(
            [[x, mone, z], [z, x, mone], [z, z, x], [Poly.one(field), z, z]]
        )
        profile = kronecker_indices(m)
        assert profile.indices == (3,)

    @pytest.mark.parametrize("p", [DEFAULT_PRIME, 101])
    def test_self_consistency_and_basis(self, p):
        field = FieldSpec(p)
        rng = make_rng(5)
        drawn = []
        for _ in range(8):
            m_rows = rng.randrange(1, 6)
            n_cols = rng.randrange(1, 5)
            d = rng.randrange(3)
            r = rng.randrange(min(m_rows, n_cols) + 1)
            drawn.append((planted_rank(field, m_rows, n_cols, r, d, rng), None))
        # a sweep row lost at bound delta only shows while some row is
        # still independent there, so the sweep needs indices above delta
        for _ in range(8):
            drawn.append(planted_indices(field, rng))
        # every index above 3, so the sweep still gains rank at delta = 3
        drawn.append(planted_indices(field, rng, degs=(4, 6)))
        for m, planted in drawn:
            profile = kronecker_indices(m)
            if planted is not None:
                assert profile.indices == planted
            assert len(profile.indices) == m.rows - profile.rank
            assert profile.indices == tuple(sorted(profile.indices))
            # the rank-profile sweep against const_kernel at each bound delta,
            # where index e contributes the delta - e + 1 shifts of its vector
            for delta in range(max(profile.indices, default=0) + 2):
                want = sum(max(0, delta - e + 1) for e in profile.indices)
                assert kernel_linearized(m, delta).rows == want, delta

    def test_size_guard(self, field):
        # indices (2, 5) on 4 rows: the sweep tries bounds 0, 1 and 3, all short
        # of 5, then doubles to 7 (32 rows); it must raise exactly when the
        # largest index's 4 * (5 + 1) = 24 rows pass the guard, also for a
        # guard below the 4 rows of bound 0, and answer at 24 <= g < 32
        m, planted = planted_indices(field, make_rng(7), degs=(2, 5))
        assert m.rows == 4
        for g in range(40):
            if m.rows * (max(planted) + 1) > g:
                with pytest.raises(TooLarge):
                    kronecker_indices(m, max_rows=g)
            else:
                assert kronecker_indices(m, max_rows=g).indices == planted

    def test_zero_matrix(self, field):
        m = PolyMatrix.zeros(field, 3, 2)
        profile = kronecker_indices(m)
        assert profile.rank == 0
        assert profile.indices == (0, 0, 0)


class TestRankOracle:
    def test_identity(self, field):
        assert rank_oracle(PolyMatrix.identity(field, 4)) == 4

    def test_single_column(self, field):
        m = PolyMatrix.from_polys([[Poly.x(field)], [poly(field, 0, 0, 1)]])
        assert rank_oracle(m) == 1

    def test_planted_rank(self, field):
        rng = make_rng(6)
        for _ in range(10):
            r = rng.randrange(4)
            m = planted_rank(field, 5, 4, r, 3, rng)
            assert rank_oracle(m) == r

    @staticmethod
    def planted_3x9(p):
        """3 x 2 by 2 x 9 at degree 2 each: rank 2, degree 4."""
        field, rng = FieldSpec(p), make_rng(p)
        m = pm_mul(pm_random(3, 2, 2, field, rng), pm_random(2, 9, 2, field, rng))
        assert m.degree == 4
        return m

    def test_points_from_the_smaller_dimension(self):
        # min(3, 9) * 4 + 1 = 13 points fit in p = 31; 9 * 4 + 1 = 37 would not
        m = self.planted_3x9(31)
        assert rank_oracle(m) == 2
        profile = kronecker_indices(m)
        assert profile.rank == 2 and len(profile.indices) == 1

    def test_too_small_a_field_raises(self):
        # 13 points do not fit in p = 11
        m = self.planted_3x9(11)
        with pytest.raises(FieldTooSmall):
            rank_oracle(m)
        with pytest.raises(FieldTooSmall):
            kronecker_indices(m)
