"""x-adic expansion of B * A^(-1)."""

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polynull import (
    FieldSpec,
    Poly,
    PolyMatrix,
    SingularAtZero,
    left_quotient_series,
    pm_mul_mod,
    pm_random,
)
from polynull import polymat
from polynull.polymat import const_inv, const_rank

from conftest import make_rng, poly, poly_level_matmul, series_inverse


def invertible_at_zero(field, n, d, rng):
    while True:
        a = pm_random(n, n, d, field, rng)
        if const_rank(a.eval(0), field.p) == n:
            return a


class TestSeriesInverse:
    def test_geometric_series(self, field):
        a = PolyMatrix.from_polys([[poly(field, 1, field.p - 1)]])
        inv = series_inverse(a, 3)
        assert inv.poly(0, 0) == poly(field, 1, 1, 1)

    def test_constant_matrix_every_order(self, field):
        rng = make_rng(1)
        a = invertible_at_zero(field, 3, 0, rng)
        for eta in (1, 2, 7):
            inv = series_inverse(a, eta)
            assert inv.degree <= 0
            assert pm_mul_mod(a, inv, eta) == PolyMatrix.identity(field, 3)

    def test_residual_is_zero_both_sides(self, field):
        rng = make_rng(2)
        a = invertible_at_zero(field, 5, 3, rng)
        inv = series_inverse(a, 20)
        ident = PolyMatrix.identity(field, 5)
        assert pm_mul_mod(a, inv, 20) == ident
        assert pm_mul_mod(inv, a, 20) == ident

    def test_singular_at_zero(self, field):
        a = PolyMatrix.from_polys([[Poly.x(field)]])
        with pytest.raises(SingularAtZero):
            series_inverse(a, 4)

    def test_truncation_under_order(self, field):
        rng = make_rng(3)
        a = invertible_at_zero(field, 4, 2, rng)
        inv = series_inverse(a, 12)
        assert inv.degree < 12


class TestLeftQuotient:
    def test_self_quotient_is_identity(self, field):
        rng = make_rng(4)
        a = invertible_at_zero(field, 4, 3, rng)
        h = left_quotient_series(a, a, 9)
        assert h == PolyMatrix.identity(field, 4)

    def test_zero_numerator(self, field):
        rng = make_rng(5)
        a = invertible_at_zero(field, 3, 2, rng)
        h = left_quotient_series(PolyMatrix.zeros(field, 2, 3), a, 8)
        assert h.is_zero()

    def test_hand_series_division(self, field):
        # x / (1 - x) mod x^4 = x + x^2 + x^3
        b = PolyMatrix.from_polys([[Poly.x(field)]])
        a = PolyMatrix.from_polys([[poly(field, 1, field.p - 1)]])
        h = left_quotient_series(b, a, 4)
        assert h.poly(0, 0) == poly(field, 0, 1, 1, 1)

    def test_exact_residual(self, field):
        rng = make_rng(6)
        for _ in range(5):
            n = rng.randrange(1, 5)
            rows = rng.randrange(1, 4)
            a = invertible_at_zero(field, n, rng.randrange(4), rng)
            b = pm_random(rows, n, rng.randrange(4), field, rng)
            eta = rng.randrange(1, 25)
            h = left_quotient_series(b, a, eta)
            assert pm_mul_mod(h, a, eta) == b.truncate(eta)

    def test_order_monotonicity(self, field):
        rng = make_rng(7)
        a = invertible_at_zero(field, 3, 3, rng)
        b = pm_random(2, 3, 3, field, rng)
        long = left_quotient_series(b, a, 24)
        for eta in (1, 5, 13):
            assert long.truncate(eta) == left_quotient_series(b, a, eta)


# 2 and 3 take the one-dgemm branch of the kernel, 2^31 - 1 the limb one
PRIMES = (2, 3, 1009, 2**31 - 1)
# doubling boundaries: 2^j ends a step exactly, 2^j + 1 adds a one-slab step
DOUBLING_ETAS = (1, 2, 3, 4, 5, 8, 9, 16, 17, 32, 33)


def newton_referee(a: PolyMatrix, eta: int) -> PolyMatrix:
    """The full-residual Newton iteration X <- X(2I - AX) mod x^k, k doubling."""
    if eta == 0:
        return PolyMatrix.zeros(a.field, a.rows, a.rows)
    x = PolyMatrix.from_const(a.field, const_inv(a.eval(0), a.field.p))
    two_i = 2 * np.eye(a.rows, dtype=np.int64)
    k = 1
    while k < eta:
        k = min(2 * k, eta)
        residual = -pm_mul_mod(a.truncate(k), x, k).coeffs
        residual[:, :, 0] += two_i
        x = pm_mul_mod(x, PolyMatrix(a.field, residual), k)
    return x


def _entries(draw, p, shape):
    """Random entries with 0, 1 and p - 1 favoured, or all p - 1."""
    size = int(np.prod(shape))
    if not draw(st.booleans()):
        return np.full(shape, p - 1, dtype=np.int64)
    entry = st.one_of(st.integers(0, p - 1), st.sampled_from((0, 1, p - 1)))
    return np.array(draw(st.lists(entry, min_size=size, max_size=size)), dtype=np.int64).reshape(shape)


@st.composite
def lifting_cases(draw):
    """(a, b, eta): A n x n with A(0) invertible, zeroed middle slabs; B 0..2n+1 rows x n."""
    p = draw(st.sampled_from(PRIMES))
    field = FieldSpec(p)
    n, da = draw(st.integers(1, 5)), draw(st.integers(0, 8))
    c = _entries(draw, p, (n, n, da + 1))
    middle = max(da - 1, 0)
    for e, zeroed in enumerate(draw(st.lists(st.booleans(), min_size=middle, max_size=middle)), 1):
        if zeroed:
            c[:, :, e] = 0
    # A(0) = L U with L unit lower and U upper with a nonzero diagonal
    c0 = c[:, :, 0].astype(object)
    diag = np.diag([v if v else 1 for v in np.diag(c0)])
    lower = np.tril(c0, -1) + np.eye(n, dtype=np.int64).astype(object)
    upper = np.triu(c0, 1) + diag
    c[:, :, 0] = (lower @ upper % p).astype(np.int64)
    eta = draw(st.one_of(st.integers(0, 40), st.sampled_from(DOUBLING_ETAS), st.integers(0, da)))
    # B with no rows up to more rows than A (the wide harvests lift 64 x 20), stored past eta
    b = _entries(draw, p, (draw(st.integers(0, 2 * n + 1)), n, draw(st.integers(1, eta + 3))))
    return PolyMatrix(field, c), PolyMatrix(field, b), eta


@settings(max_examples=150, deadline=None)
@given(lifting_cases())
def test_lifting_properties(case):
    a, b, eta = case
    ident = PolyMatrix.identity(a.field, a.rows).truncate(eta)
    x = series_inverse(a, eta)
    assert x.degree < eta
    assert poly_level_matmul(a, x).truncate(eta) == ident
    assert poly_level_matmul(x, a).truncate(eta) == ident
    referee = newton_referee(a, eta)
    assert x == referee
    h = left_quotient_series(b, a, eta)
    assert (h.rows, h.cols) == (b.rows, a.cols) and h.degree < eta
    if b.rows:  # the scalar product needs at least one entry
        assert poly_level_matmul(h, a).truncate(eta) == b.truncate(eta)
    assert h == pm_mul_mod(b, referee, eta)


@st.composite
def limb_switch_cases(draw):
    """(a, b, eta) at 2^31 - 1 whose inner size da * n is 64 or just past it:
    S's limbs are two of 16 bits up to K = 64 and three of 15 bits past it."""
    field = FieldSpec(2**31 - 1)
    n = draw(st.sampled_from((1, 2, 3, 4, 8, 16)))
    da = 64 // n + draw(st.integers(0, 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    top = draw(st.booleans())  # all entries near p - 1, or uniform
    low = field.p - 3 if top else 0
    a = rng.integers(low, field.p, size=(n, n, da + 1))
    a[:, :, 0] = np.eye(n, dtype=np.int64) + np.triu(rng.integers(0, field.p, size=(n, n)), 1)
    b = rng.integers(low, field.p, size=(draw(st.integers(1, 3)), n, draw(st.integers(1, da + 2))))
    eta = da + draw(st.integers(1, 4))
    return PolyMatrix(field, a), PolyMatrix(field, b), eta


@settings(max_examples=30, deadline=None)
@given(limb_switch_cases())
def test_lifting_across_limb_switch(case):
    a, b, eta = case
    da = a.coeffs.shape[2] - 1
    width = polymat._width(da * a.rows, a.field.p)
    assert width == (16 if da * a.rows <= 64 else 15)
    assert left_quotient_series(b, a, eta) == pm_mul_mod(b, newton_referee(a, eta), eta)


def test_lifting_at_workload_scale():
    """lift-deep's lift: B 12 x 20 over A 20 x 20 of degree 32 to order 193.

    The recurrence's windows reach inner size 32 * 20 = 640, the kernel's
    three-limb branch at p = 2^31 - 1.
    """
    field = FieldSpec(2**31 - 1)
    rng = np.random.default_rng(193)
    a = PolyMatrix(field, rng.integers(0, field.p, size=(20, 20, 33)))
    b = PolyMatrix(field, rng.integers(0, field.p, size=(12, 20, 33)))
    assert const_rank(a.eval(0), field.p) == 20
    h = left_quotient_series(b, a, 193)
    assert h == pm_mul_mod(b, newton_referee(a, 193), 193)
    assert pm_mul_mod(h, a, 193) == b


@pytest.mark.parametrize(
    "rows, n, deg_a, eta, width",
    [(5, 3, 4, 12, 14), (3, 4, 9, 5, 2), (0, 2, 3, 6, 1), (2, 3, 0, 7, 3), (4, 2, 2, 1, 3)],
)
def test_lifting_kernel_work(monkeypatch, rows, n, deg_a, eta, width):
    """Two kernel calls, for the S_j (A's slabs clipped below eta) and every
    stored B_k below eta, then one product of S's limbs per order k >= 1 over
    the last min(k, da) slabs of H."""
    field, rng = FieldSpec(1009), make_rng(17)
    a = invertible_at_zero(field, n, deg_a, rng)
    b = PolyMatrix(field, np.ones((rows, n, width), dtype=np.int64))
    calls, steps = [], []
    series = sys.modules["polynull.series"]
    kernel, step = series.mat_mul_mod, series._mul_limbs

    def counted(x, y, p):
        calls.append(x.shape[0] * x.shape[1] * y.shape[1])
        return kernel(x, y, p)

    def counted_step(x, cut, w, p):
        steps.append(x.shape[0] * x.shape[1] * cut.shape[2])
        return step(x, cut, w, p)

    monkeypatch.setattr(series, "mat_mul_mod", counted)
    monkeypatch.setattr(series, "_mul_limbs", counted_step)
    left_quotient_series(b, a, eta)
    da = min(a.coeffs.shape[2] - 1, eta - 1)
    assert calls == [da * n * n * n, min(width, eta) * rows * n * n]
    assert steps == [rows * min(k, da) * n * n for k in range(1, eta) if da]
