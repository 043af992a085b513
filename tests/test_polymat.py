"""Polynomial matrices, constant linear algebra, degree predicates."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polynull import (
    NEG_INF,
    DimensionMismatch,
    FieldSpec,
    Poly,
    PolyMatrix,
    const_kernel,
    const_random,
    const_rank,
    is_row_reduced,
    leading_row_matrix,
    pm_mul,
    pm_mul_mod,
    pm_random,
    rank_oracle,
)
from polynull import polymat
from polynull.polymat import _EXACT, _randrange_draws, const_inv, independent_columns, mat_mul_mod, row_tdegs

from conftest import make_rng, planted_rank, poly, poly_level_matmul, schoolbook_mul, tdeg_row

# 2^21 - 9, a prime whose single-dgemm bound K * (p-1)^2 < 2^53 ends at K = 2048
SWITCH_PRIME = 2097143
MERSENNE = 2**31 - 1


def widest_k(w, p):
    """Largest inner size K with K * (2^w - 1) * (p - 1) < 2^53: the last K
    at which w-bit limbs stay exact, so limbs narrow past it."""
    return (_EXACT - 1) // (((1 << w) - 1) * (p - 1))


# At p = 2^31 - 1 (31-bit values) the limb count goes 2 -> 3 past w = 16,
# 3 -> 4 past w = 11, and past w = 8 a fifth limb would be needed, so the
# inner size is cut into chunks of CHUNK.  At SWITCH_PRIME (21 bits) it goes
# 2 -> 3 past w = 11; its 3 -> 4 switch (w = 7, K = 33,818,801) is too large
# to hold in a test.
LIMB_SWITCHES = [(MERSENNE, 16), (MERSENNE, 11), (MERSENNE, 8), (SWITCH_PRIME, 11)]
CHUNK = widest_k(8, MERSENNE)


def tail_uniform_product(a, b, p):
    """Exact (a @ b) mod p for operands whose inner index 1, 2, ... repeats index 1."""
    k = a.shape[1]
    return [
        [(int(a[i, 0]) * int(b[0, j]) + (k - 1) * int(a[i, 1]) * int(b[1, j])) % p for j in range(b.shape[1])]
        for i in range(a.shape[0])
    ]


def top_entries_with_odd_term(shape_a, shape_b, p):
    """All entries p - 1, except a[:, 0] = b[0, :] = p - 2: every exact sum
    is odd, so a float64 dgemm could not hold one above 2^53."""
    a = np.full(shape_a, p - 1, dtype=np.int64)
    b = np.full(shape_b, p - 1, dtype=np.int64)
    a[:, 0] = b[0, :] = p - 2
    return a, b


# The operand with fewer entries is cut into limbs: a when it has fewer rows
# than b has columns, b otherwise.
ORIENTATIONS = {"a-cut": (1, 2), "b-cut": (2, 1)}


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
        # worst-case magnitudes for every limb and for the Horner recombination
        p = field.p
        a = np.full((64, 64), p - 1, dtype=np.int64)
        got = mat_mul_mod(a, a, p)
        assert int(got[0, 0]) == 64 * (p - 1) * (p - 1) % p

    @pytest.mark.parametrize("p", [MERSENNE, 1009, 2])
    @pytest.mark.parametrize("extra", [0, 1])
    def test_limb_bound_all_entries_top(self, p, extra):
        # at the largest chunk and one past it at 2^31 - 1; the small
        # primes take one dgemm at the same size
        k = CHUNK + extra
        a = np.full((1, k), p - 1, dtype=np.int64)
        b = np.full((k, 1), p - 1, dtype=np.int64)
        assert int(mat_mul_mod(a, b, p)[0, 0]) == k * (p - 1) ** 2 % p

    def test_chunk_past_limb_bound_is_exact(self):
        # two whole chunks and a one-index tail, in both orientations: each
        # chunk's sum is nonzero mod p, so a dropped or repeated chunk
        # changes the answer
        p = MERSENNE
        k = 2 * CHUNK + 1
        assert CHUNK % p and (k - 1) * (p - 1) ** 2 > _EXACT
        for m, n in ORIENTATIONS.values():
            a, b = top_entries_with_odd_term((m, k), (k, n), p)
            assert mat_mul_mod(a, b, p).tolist() == tail_uniform_product(a, b, p)

    @pytest.mark.parametrize("p, w", LIMB_SWITCHES)
    @pytest.mark.parametrize("extra", [0, 1])
    @pytest.mark.parametrize("orientation", sorted(ORIENTATIONS))
    def test_each_limb_count_switch(self, p, w, extra, orientation):
        k = widest_k(w, p) + extra
        m, n = ORIENTATIONS[orientation]
        a, b = top_entries_with_odd_term((m, k), (k, n), p)
        assert k * (p - 1) ** 2 > _EXACT
        assert mat_mul_mod(a, b, p).tolist() == tail_uniform_product(a, b, p)

    @pytest.mark.parametrize("p, w", LIMB_SWITCHES)
    @pytest.mark.parametrize("orientation", sorted(ORIENTATIONS))
    def test_limb_width_is_the_widest_exact(self, p, w, orientation):
        # the cut operand's entries are 2^(w+1) - 1: w-bit limbs are exact at
        # this K, but one (w+1)-bit limb dgemm would sum an odd integer
        # above 2^53 and round
        k = widest_k(w, p)
        top = (1 << (w + 1)) - 1
        m, n = ORIENTATIONS[orientation]
        a, b = top_entries_with_odd_term((m, k), (k, n), p)
        if m < n:
            a[:] = top
        else:
            b[:] = top
        odd_sum = top * ((k - 1) * (p - 1) + (p - 2))
        assert odd_sum % 2 == 1 and odd_sum > _EXACT
        assert mat_mul_mod(a, b, p).tolist() == tail_uniform_product(a, b, p)

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

    @pytest.mark.parametrize("p", [1009, MERSENNE])
    @pytest.mark.parametrize("k", [1, 32, 33, 64, 65, 129, CHUNK + 1])
    @pytest.mark.parametrize("t", [1, 3])
    @pytest.mark.parametrize("orientation", sorted(ORIENTATIONS))
    def test_stack_equals_stacked_2d_calls(self, p, k, t, orientation):
        # at 2^31 - 1, k up to 64 takes two limbs, 65 three of 15 bits, 129
        # three of 14 bits, and past CHUNK the inner size is cut into chunks;
        # a 2-D left operand broadcasts against the stack
        rng = np.random.default_rng([p, k, t])
        m, n = (3 * x for x in ORIENTATIONS[orientation])
        a = rng.integers(p - 4, p, size=(t, m, k))
        b = rng.integers(0, p, size=(t, k, n))
        want = np.stack([mat_mul_mod(a[i], b[i], p) for i in range(t)])
        assert np.array_equal(mat_mul_mod(a, b, p), want)
        want = np.stack([mat_mul_mod(a[0], b[i], p) for i in range(t)])
        assert np.array_equal(mat_mul_mod(a[0], b, p), want)

    @pytest.mark.parametrize("shape", [(0, 3, 2), (2, 0, 3), (2, 3, 0)])
    def test_empty_dimensions(self, field, shape):
        m, k, n = shape
        a = np.zeros((m, k), dtype=np.int64)
        b = np.zeros((k, n), dtype=np.int64)
        got = mat_mul_mod(a, b, field.p)
        assert got.shape == (m, n) and got.dtype == np.int64 and not got.any()


class TestInt64Envelope:
    def test_float_entries_are_refused(self):
        # a cast would truncate them to [1, 2] and to the identity's rank
        with pytest.raises(ValueError):
            PolyMatrix(FieldSpec(7), np.array([[[1.5, 2.9]]]))
        with pytest.raises(ValueError):
            const_rank([[1.7, 0], [0, 1]], 7)

    @pytest.mark.parametrize(
        "coeffs",
        [np.array([[[2**64 - 1]]], dtype=np.uint64), np.array([[[2**63]]], dtype=np.uint64), [[[2**64]]]],
    )
    def test_values_outside_int64_are_refused(self, coeffs):
        # 2^64 - 1 would wrap to -1, stored as 6 mod 7; its residue is 1
        with pytest.raises(ValueError):
            PolyMatrix(FieldSpec(7), coeffs)
        with pytest.raises(ValueError):
            const_rank(np.asarray(coeffs)[:, :, 0], 7)

    def test_int64_and_plain_int_lists_are_accepted(self):
        f = FieldSpec(7)
        want = [[[1, 6, 0, 3]]]
        assert PolyMatrix(f, [[[8, -1, 7, 2**63 - 5]]]).coeffs.tolist() == want
        assert PolyMatrix(f, np.array([[[8, -1, 7, 2**63 - 5]]], dtype=np.int64)).coeffs.tolist() == want
        assert PolyMatrix(f, np.array([[[8, 6, 7, 2**63 - 5]]], dtype=np.uint64)).coeffs.tolist() == want
        assert const_rank([[1, 0], [0, 8]], 7) == 2

    @pytest.mark.parametrize("p", [0, 1, 2**31, 2**61 - 1])
    def test_modulus_outside_kernel_range_is_refused(self, p):
        # at 2^61 - 1 the int64 products wrapped: const_inv(a) @ a was not I
        a = np.array([[1, 2], [3, 5]], dtype=np.int64)
        for fn in (const_rank, const_kernel, const_inv, lambda m, q: independent_columns(m, q, 2)):
            with pytest.raises(ValueError, match="modulus"):
                fn(a, p)

    def test_kernel_names_a_modulus_past_31_bits(self):
        big = np.full((3, 3), 2**40, dtype=np.int64)
        with pytest.raises(ValueError, match="modulus"):
            mat_mul_mod(big, big, 2**61 - 1)


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

    @pytest.mark.parametrize("p", [2**31 - 1, 5])
    @pytest.mark.parametrize("da, db", [(0, 3), (3, 0), (0, 0), (3, 3)])
    def test_path_selection(self, monkeypatch, p, da, db):
        # eval/interp only when both degrees are positive and p >= npts;
        # constant factors and small fields take the slab convolution
        small = FieldSpec(p)
        rng = make_rng(200 + 10 * da + db)
        a = pm_random(3, 4, da, small, rng)
        b = pm_random(4, 2, db, small, rng)
        calls = []
        eval_interp = polymat._mul_eval_interp

        def counted(x, y):
            calls.append((x, y))
            return eval_interp(x, y)

        monkeypatch.setattr(polymat, "_mul_eval_interp", counted)
        assert pm_mul(a, b) == poly_level_matmul(a, b)
        assert len(calls) == int(da > 0 and db > 0 and da + db + 1 <= p)

    def test_eval_homomorphism(self, field):
        rng = make_rng(5)
        a = pm_random(3, 4, 2, field, rng)
        b = pm_random(4, 2, 3, field, rng)
        for pt in (0, 1, rng.randrange(field.p)):
            want = mat_mul_mod(a.eval(pt), b.eval(pt), field.p)
            assert np.array_equal(pm_mul(a, b).eval(pt), want)

    @pytest.mark.parametrize("da, db", [(4, 4), (3, 4), (1, 6)])
    def test_eval_interp_inverts_one_vandermonde(self, monkeypatch, field, da, db):
        # points 0, +-1, ..., +-h: (c_e - c(0))/y and c_o both interpolate on
        # y_1..y_h (y_j = j^2), through one inverse of powers 0..h-1
        p, h = field.p, (da + db + 1) // 2
        rng = make_rng(210 + 10 * da + db)
        a, b = pm_random(2, 3, da, field, rng), pm_random(3, 2, db, field, rng)
        inverted, real_inv = [], polymat.const_inv
        monkeypatch.setattr(polymat, "const_inv", lambda m0, q: inverted.append(m0) or real_inv(m0, q))
        assert pm_mul(a, b) == poly_level_matmul(a, b)
        vand = [[pow(j * j, k, p) for k in range(h)] for j in range(1, h + 1)]
        assert len(inverted) == 1
        assert np.array_equal(inverted[0], vand)

    def test_points_in_several_stacks(self, field):
        # the 64x64 output is the largest operand: 4 points per stacked call, so
        # the 13 points take 4 calls
        rng = make_rng(215)
        a, b = pm_random(64, 2, 6, field, rng), pm_random(2, 64, 6, field, rng)
        assert polymat._STACK_ENTRIES // (64 * 64) * 3 < 13
        assert pm_mul(a, b) == pm_mul_mod(a, b, 13)


@st.composite
def eval_interp_factors(draw):
    """(a, b) with npts = da + db + 1 <= p: odd and even point counts, unequal
    degrees down to 0 and 1 (an empty or one-slab odd half), whole zero slabs,
    and npts = p at small primes, where 0, +-1, ..., +-h is every residue."""
    p = draw(st.sampled_from((3, 5, 7, 11, MERSENNE)))
    npts = draw(st.one_of(st.just(min(p, 12)), st.integers(1, min(p, 12))))
    da = draw(st.integers(0, npts - 1))
    m, s, n = (draw(st.integers(1, 3)) for _ in range(3))
    factors = []
    for rows, cols, k in ((m, s, da + 1), (s, n, npts - da)):
        size = rows * cols * k
        c = np.array(draw(st.lists(st.integers(0, p - 1), min_size=size, max_size=size)))
        c = c.reshape(rows, cols, k)
        c[:, :, sorted(draw(st.sets(st.integers(0, k - 1))))] = 0
        factors.append(PolyMatrix(FieldSpec(p), c))
    return factors


@settings(max_examples=300, deadline=None)
@given(eval_interp_factors())
def test_eval_interp_against_convolution(factors):
    a, b = factors
    npts = a.coeffs.shape[2] + b.coeffs.shape[2] - 1
    assert polymat._mul_eval_interp(a, b) == pm_mul_mod(a, b, npts)


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


@st.composite
def truncated_products(draw):
    """(a, b, order): nonzero random factors with whole zero slabs, and orders
    from 0 to two past the product's length."""
    p = draw(st.sampled_from((1009, MERSENNE)))  # few zero entries: a lost slab pair shows
    m, s, n = (draw(st.integers(1, 3)) for _ in range(3))
    factors = []
    for rows, cols in ((m, s), (s, n)):
        k = draw(st.integers(1, 6))
        size = rows * cols * k
        c = np.array(draw(st.lists(st.integers(0, p - 1), min_size=size, max_size=size)))
        c = c.reshape(rows, cols, k)
        zeroed = draw(st.sets(st.integers(0, k - 1), max_size=k - 1))
        c[:, :, list(zeroed)] = 0
        factors.append(PolyMatrix(FieldSpec(p), c))
    order = draw(st.integers(0, factors[0].coeffs.shape[2] + factors[1].coeffs.shape[2] + 1))
    return factors[0], factors[1], order


@settings(max_examples=200, deadline=None)
@given(truncated_products())
def test_windowed_product_against_scalar_polys(case):
    a, b, order = case
    full = poly_level_matmul(a, b).coeffs
    want = PolyMatrix(a.field, full[:, :, :order])  # no slabs: the zero matrix
    got = pm_mul_mod(a, b, order)
    assert (got.rows, got.cols) == (a.rows, b.cols)
    assert got == want


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
        assert is_row_reduced(m) == is_row_reduced(PolyMatrix.from_const(field, perm) @ m)


def reference_leading(m, t):
    """Leading matrix read from Poly rows through tdeg_row."""
    out = np.zeros((m.rows, m.cols), dtype=np.int64)
    for i in range(m.rows):
        td = tdeg_row(m.row_polys(i), t)
        for j in range(m.cols):
            out[i, j] = m.poly(i, j).coefficient(int(td) + t[j])
    return out


class TestTensorDegrees:
    """row_tdegs, leading_row_matrix and is_row_reduced against Poly rows."""

    def test_random_shifts_match_poly_rows(self):
        rng = make_rng(20)
        for p in (2, 1009, 2**31 - 1):
            field = FieldSpec(p)
            for _ in range(40):
                rows, cols, k = rng.randrange(1, 5), rng.randrange(1, 5), rng.randrange(1, 5)
                c = np.array([rng.randrange(p) for _ in range(rows * cols * k)])
                c = c.reshape(rows, cols, k)
                c[np.array([rng.random() < 0.4 for _ in range(rows * cols)]).reshape(rows, cols)] = 0
                m = PolyMatrix(field, c)
                t = [rng.randrange(-4, 5) for _ in range(cols)]
                want = [tdeg_row(m.row_polys(i), t) for i in range(rows)]
                assert row_tdegs(m, t).tolist() == want
                if NEG_INF in want:
                    zero = want.index(NEG_INF)
                    with pytest.raises(ValueError, match=f"row {zero} is zero"):
                        leading_row_matrix(m, t)
                    continue
                lead = leading_row_matrix(m, t)
                assert np.array_equal(lead, reference_leading(m, t))
                assert is_row_reduced(m, t) == (const_rank(lead, p) == rows)

    def test_leading_index_outside_stored_slabs(self, field):
        # row 0 is [x^2, x^2]: the non-leading column reads x^7 (t = [0, 5])
        # or x^7 again (t = [-5, 0]), past the k = 3 stored slabs, so 0 and
        # not the stored x^2 coefficient; row 1's zero entry reads x^-5
        sq = poly(field, 0, 0, 1)
        m = PolyMatrix.from_polys([[sq, sq], [Poly.zero(field), poly(field, 3)]])
        assert m.coeffs.shape[2] == 3
        assert leading_row_matrix(m, [0, 5]).tolist() == [[1, 0], [0, 3]]
        assert leading_row_matrix(m, [-5, 0]).tolist() == [[1, 0], [0, 3]]
        for t in ([0, 5], [-5, 0]):
            assert np.array_equal(leading_row_matrix(m, t), reference_leading(m, t))

    def test_zero_row_named(self, field):
        m = PolyMatrix.from_polys(
            [[Poly.x(field), Poly.one(field)], [Poly.zero(field), Poly.zero(field)]]
        )
        with pytest.raises(ValueError, match="row 1 is zero"):
            leading_row_matrix(m, [1, 0])
        with pytest.raises(ValueError, match="row 1 is zero"):
            is_row_reduced(m)

    def test_no_rows(self, field):
        m = PolyMatrix(field, np.zeros((0, 3, 1), dtype=np.int64))
        assert is_row_reduced(m, [0, 1, 2])
        assert leading_row_matrix(m, [0, 1, 2]).shape == (0, 3)
        assert row_tdegs(m, [0, 1, 2]).shape == (0,)

    def test_empty_coefficient_axis(self, field):
        # an (m, n, 0) tensor stores no slab; it is the zero matrix with one zero slab
        m = PolyMatrix(field, np.zeros((2, 3, 0), dtype=np.int64))
        assert m.coeffs.shape == (2, 3, 1)
        assert m == PolyMatrix.zeros(field, 2, 3) and m.is_zero()
        assert row_tdegs(m, [0, 1, 2]).tolist() == [NEG_INF, NEG_INF]
        with pytest.raises(ValueError, match="row 0 is zero"):
            leading_row_matrix(m)
        with pytest.raises(ValueError, match="row 0 is zero"):
            is_row_reduced(m)

    def test_one_slab_matrix(self, field):
        m = PolyMatrix.from_const(field, np.array([[1, 2, 0], [0, 0, 5], [4, 0, 0]]))
        assert m.coeffs.shape[2] == 1
        assert np.array_equal(leading_row_matrix(m), m.coeffs[:, :, 0])
        assert is_row_reduced(m)
        t = [0, 1, 2]
        # tdeg picks the entry with the smallest shift; larger shifts read x^(>0) = 0
        assert row_tdegs(m, t).tolist() == [0, -2, 0]
        assert leading_row_matrix(m, t).tolist() == [[1, 0, 0], [0, 0, 5], [4, 0, 0]]
        assert np.array_equal(leading_row_matrix(m, t), reference_leading(m, t))


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
        expected = max(m.poly(i, j).degree for i in range(4) for j in range(3))
        assert m.degree == expected


class TestEvaluationRank:
    def test_evaluation_never_exceeds_rational_rank(self, field):
        rng = make_rng(15)
        for _ in range(10):
            m = planted_rank(field, 4, 3, rng.randrange(4), 2, rng)
            r = rank_oracle(m)
            for pt in (0, 1, rng.randrange(field.p)):
                assert const_rank(m.eval(pt), field.p) <= r


class TestRandomDraws:
    # the draws reproduce CPython's randrange, which keeps the top bits of
    # each 32-bit word and redraws past p: the values and the state after
    @pytest.mark.parametrize("p", [2, 3, 5, 7, 31, 1009, 65537, MERSENNE])
    @pytest.mark.parametrize("count", [0, 1, 3, 4099])
    def test_same_values_and_state_as_randrange(self, p, count):
        ref, rng = make_rng(p + count), make_rng(p + count)
        want = [ref.randrange(p) for _ in range(count)]
        got = _randrange_draws(rng, p, count)
        assert got.dtype == np.int64 and got.tolist() == want
        assert rng.getstate() == ref.getstate()

    def test_matrices_draw_row_major(self):
        field = FieldSpec(1009)
        ref, rng = make_rng(16), make_rng(16)
        want = [ref.randrange(field.p) for _ in range(2 * 3 + 2 * 3 * 4)]
        c = const_random(2, 3, field, rng)
        m = pm_random(2, 3, 3, field, rng)
        assert c.tolist() == np.reshape(want[:6], (2, 3)).tolist()
        assert m == PolyMatrix(field, np.reshape(want[6:], (2, 3, 4)))
        assert rng.getstate() == ref.getstate()
