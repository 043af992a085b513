"""Shifted order basis computation and row selection."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polynull import (
    FieldSpec,
    PolyMatrix,
    kernel_linearized,
    pm_mul,
    pm_mul_mod,
    pm_random,
    select_low_rows,
    sigma_basis,
)
from polynull import orderbasis
from polynull.polymat import const_rank, is_row_reduced, row_tdegs, vstack

from conftest import make_rng, poly, poly_level_matmul, series_inverse, tdeg_row

# 2 and 3 take the one-dgemm branch of the update product, 2^31 - 1 the limb one
PRIMES = (2, 3, 1009, 2**31 - 1)


def random_series(field, q, s, order, rng):
    return pm_random(q, s, order - 1, field, rng)


def pade_generator(field, order):
    """[-1; h] with h = 1/(1-x), whose only low-degree annihilator is [1, 1-x]."""
    one_minus_x = PolyMatrix.from_polys([[poly(field, 1, field.p - 1)]])
    h = series_inverse(one_minus_x, order)
    minus_one = PolyMatrix.from_polys([[poly(field, field.p - 1)]])
    return vstack(minus_one, h)


class TestSigmaBasis:
    def test_zero_input_gives_identity(self, field):
        g = PolyMatrix.zeros(field, 3, 2)
        basis = sigma_basis(g, 6, [1, 0, 2])
        assert basis.L == PolyMatrix.identity(field, 3)
        assert basis.tdegs == (-1, 0, -2)

    def test_pade_reconstruction(self, field):
        basis = sigma_basis(pade_generator(field, 8), 8, [0, 0])
        kappa, rows = select_low_rows(basis, 1)
        assert kappa == 1
        row = basis.L.row_polys(rows[0])
        # proportional to [1, 1 - x]: cross-multiply
        assert row[1] == row[0] * poly(field, 1, field.p - 1)
        assert basis.tdegs[rows[0]] == 1

    def test_annihilation_exact(self, field):
        rng = make_rng(1)
        g = random_series(field, 4, 2, 12, rng)
        basis = sigma_basis(g, 12, [0] * 4)
        assert pm_mul(basis.L, g).truncate(12).is_zero()

    def test_no_lower_degree_annihilator_than_basis_minimum(self, field):
        rng = make_rng(2)
        for trial in range(5):
            q, s = rng.randrange(2, 5), rng.randrange(1, 3)
            order = rng.randrange(4, 12)
            t = [rng.randrange(3) for _ in range(q)]
            g = random_series(field, q, s, order, rng)
            basis = sigma_basis(g, order, t)
            exact = kernel_linearized(g, 6)
            for i in range(exact.rows):
                assert tdeg_row(exact.row_polys(i), t) >= min(basis.tdegs)

    def test_bounded_annihilator_dimension_matches_tdegs(self, field):
        # the generating property: the space of v with v*G = O(x^order)
        # and shifted degree <= tau has dimension sum max(0, tau - tdeg_i + 1)
        rng = make_rng(3)
        for trial in range(5):
            q, s = rng.randrange(2, 5), rng.randrange(1, 3)
            order = rng.randrange(3, 9)
            t = [rng.randrange(3) for _ in range(q)]
            g = random_series(field, q, s, order, rng)
            basis = sigma_basis(g, order, t)
            for tau in range(0, order + 2):
                dim = _bounded_annihilator_dim(g, t, tau, order)
                want = sum(max(0, tau - td + 1) for td in basis.tdegs)
                assert dim == want, (trial, tau, basis.tdegs)

    def test_rows_evaluate_nonsingular(self, field):
        rng = make_rng(4)
        g = random_series(field, 4, 2, 10, rng)
        basis = sigma_basis(g, 10, [0, 1, 0, 2])
        a = rng.randrange(1, field.p)
        assert const_rank(basis.L.eval(a), field.p) == 4

    def test_deterministic(self, field):
        rng1, rng2 = make_rng(5), make_rng(5)
        g1 = random_series(field, 3, 2, 9, rng1)
        g2 = random_series(field, 3, 2, 9, rng2)
        b1 = sigma_basis(g1, 9, [1, 0, 0])
        b2 = sigma_basis(g2, 9, [1, 0, 0])
        assert b1.L == b2.L
        assert b1.tdegs == b2.tdegs
        assert np.array_equal(b1.L.coeffs, b2.L.coeffs)

    def test_tdegs_are_exact(self, field):
        rng = make_rng(6)
        g = random_series(field, 4, 2, 8, rng)
        t = [2, 0, 1, 0]
        basis = sigma_basis(g, 8, t)
        for i in range(4):
            assert basis.tdegs[i] == tdeg_row(basis.L.row_polys(i), t)

    def test_input_validation(self, field):
        g = random_series(field, 2, 1, 4, make_rng(7))
        with pytest.raises(ValueError):
            sigma_basis(g, -1, [0, 0])
        with pytest.raises(Exception):
            sigma_basis(g, 4, [0])  # shift length


@st.composite
def series_cases(draw):
    """(g, order, t): q x s matrix with zero slabs, stored up to two slabs past the order.

    Whole slabs are zeroed across all rows, and each row also loses a drawn
    prefix of slabs, so some rows turn live only after others have pivoted."""
    p = draw(st.sampled_from(PRIMES))
    q, s = draw(st.integers(1, 6)), draw(st.integers(0, 8))
    order = draw(st.integers(0, 6))
    width = draw(st.integers(1, order + 2))  # stored slabs; the rest are zero
    if draw(st.booleans()):
        entry = st.one_of(st.integers(0, p - 1), st.sampled_from((0, 1, p - 1)))
        flat = draw(st.lists(entry, min_size=q * s * width, max_size=q * s * width))
        c = np.array(flat, dtype=np.int64).reshape(q, s, width)
    else:
        c = np.full((q, s, width), p - 1, dtype=np.int64)
    for e in draw(st.sets(st.integers(0, width - 1), max_size=width)):
        c[:, :, e] = 0
    for i, lag in enumerate(draw(st.lists(st.integers(0, width), min_size=q, max_size=q))):
        c[i, :, :lag] = 0
    t = draw(st.lists(st.integers(-3, 4), min_size=q, max_size=q))
    return PolyMatrix(FieldSpec(p), c), order, t


@settings(max_examples=300, deadline=None)
@given(series_cases())
def test_sigma_basis_properties(case):
    g, order, t = case
    basis = sigma_basis(g, order, t)
    assert (basis.L.rows, basis.L.cols) == (g.rows, g.rows)
    if g.cols:  # the scalar-Poly reference needs at least one entry
        assert poly_level_matmul(basis.L, g).truncate(order).is_zero()
    assert basis.tdegs == tuple(int(d) for d in row_tdegs(basis.L, t))
    assert is_row_reduced(basis.L, t)
    # the rows generate every annihilator without raising its shifted degree
    for tau in range(min(basis.tdegs) - 1, max(basis.tdegs) + 2):
        want = sum(max(0, tau - td + 1) for td in basis.tdegs)
        assert _bounded_annihilator_dim(g, t, tau, order) == want, tau


def _scale_cases():
    """(g, order, t) at the sizes the workloads reach (p = 2^31 - 1), then mid-run jumps."""
    field, rng = FieldSpec(), make_rng(41)
    d = 32  # the nullspace's generator [-I; H] with its compression shift
    h = random_series(field, 12, 12, 97, rng)
    gen = vstack(-PolyMatrix.identity(field, 12), h)
    yield pytest.param(gen, 97, [d - 1] * 12 + [0] * 12, id="nullspace-24x12")
    t = [rng.randrange(-3, 5) for _ in range(60)]
    yield pytest.param(random_series(field, 60, 20, 16, rng), 16, t, id="60x20")
    yield pytest.param(random_series(field, 5, 1, 30, rng), 30, [0, 2, 1, 0, 3], id="5x1")
    late = random_series(field, 8, 3, 14, rng).coeffs.copy()
    late[:, :, :4] = 0  # the residual is zero for the first orders
    yield pytest.param(PolyMatrix(field, late), 14, [1, 0, 0, 2, 0, 1, 0, 0], id="zero-first-slabs")
    # rows :s are a full-rank residual from x^0 on, so they pivot alone and the
    # loop jumps to x^lag, where rows s: turn live; the shift puts those rows
    # last, so the jumped rows pivot again and must reduce them with their x^lag
    for (q, s, lag, order), p in itertools.product(
        [(3, 1, 3, 9), (8, 3, 4, 14), (24, 12, 5, 40)], (1009, 2**31 - 1)
    ):
        c = random_series(FieldSpec(p), q, s, order, make_rng(q + lag)).coeffs.copy()
        c[s:, :, :lag] = 0
        t = [0] * s + [-(lag + 2)] * (q - s)
        yield pytest.param(PolyMatrix(FieldSpec(p), c), order, t, id=f"jump-{q}x{s}-lag{lag}-p{p}")


@pytest.mark.parametrize("g, order, t", list(_scale_cases()))
def test_sigma_basis_at_workload_scale(g, order, t):
    basis = sigma_basis(g, order, t)
    assert pm_mul_mod(basis.L, g, order).is_zero()
    assert is_row_reduced(basis.L, t)
    assert basis.tdegs == tuple(int(d) for d in row_tdegs(basis.L, t))


def assert_same_basis(got, want):
    """Bit for bit: the same L tensor (both trimmed) and the same shifted degrees."""
    assert np.array_equal(got.L.coeffs, want.L.coeffs)
    assert got.tdegs == want.tdegs


@st.composite
def head_cases(draw):
    """(g, order, t): G = [-I_c ; F] with shift t0 on -I_c; F's rows lose drawn
    prefixes of slabs and whole slabs, so forced runs start below the head's order and
    cross it.  t0 - max t[c:] runs from -2 (no head) up, and t = 0 is nullspace's d = 0."""
    p = draw(st.sampled_from((7, 2**31 - 1)))
    c, rest = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    order = draw(st.integers(0, 12))
    width = draw(st.integers(1, order + 2))
    entry = st.one_of(st.integers(0, p - 1), st.sampled_from((0, 1, p - 1)))
    flat = draw(st.lists(entry, min_size=rest * c * width, max_size=rest * c * width))
    f = np.array(flat, dtype=np.int64).reshape(rest, c, width)
    for e in draw(st.sets(st.integers(0, width - 1), max_size=width)):
        f[:, :, e] = 0
    for j, lag in enumerate(draw(st.lists(st.integers(0, width), min_size=rest, max_size=rest))):
        f[j, :, :lag] = 0
    field = FieldSpec(p)
    g = vstack(-PolyMatrix.identity(field, c), PolyMatrix(field, f))
    if draw(st.booleans()):
        t = [0] * (c + rest)
    else:
        low = draw(st.lists(st.integers(-3, 3), min_size=rest, max_size=rest))
        t = [max(low) + draw(st.integers(-2, 8))] * c + low
    return g, order, t


@settings(max_examples=300, deadline=None)
@given(head_cases())
def test_head_is_the_plain_loop(case):
    g, order, t = case
    c = g.cols
    want_k = min(order, t[0] - max(t[c:]) + 1)
    assert orderbasis._head(g, order, t) == max(want_k, 0)
    headed = sigma_basis(g, order, t)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(orderbasis, "_head", lambda *args: 0)
        plain = sigma_basis(g, order, t)
    assert_same_basis(headed, plain)


def test_head_skips_its_eliminations(monkeypatch, field):
    # lift-deep's generator shape: 24x12, order 140, t0 = d - 1 = 31, so K = 32
    gen = vstack(-PolyMatrix.identity(field, 12), random_series(field, 12, 12, 140, make_rng(43)))
    t = [31] * 12 + [0] * 12
    assert orderbasis._head(gen, 140, t) == 32
    calls, eliminate = [], orderbasis._eliminate

    def counted(*args):
        calls.append(args)
        return eliminate(*args)

    monkeypatch.setattr(orderbasis, "_eliminate", counted)
    headed = sigma_basis(gen, 140, t)
    headed_calls = len(calls)
    calls.clear()
    monkeypatch.setattr(orderbasis, "_head", lambda *args: 0)
    plain = sigma_basis(gen, 140, t)
    assert_same_basis(headed, plain)
    assert len(calls) == headed_calls + 32


class TestSelectLowRows:
    def test_none_selected(self, field):
        basis = sigma_basis(pade_generator(field, 8), 8, [0, 0])
        kappa, rows = select_low_rows(basis, 0)
        assert kappa == 0 and rows == []

    def test_infinite_threshold_selects_all(self, field):
        rng = make_rng(8)
        g = random_series(field, 4, 2, 10, rng)
        basis = sigma_basis(g, 10, [0] * 4)
        kappa, rows = select_low_rows(basis, math.inf)
        assert kappa == 4
        assert sorted(rows) == [0, 1, 2, 3]

    def test_rows_sorted_by_shifted_degree(self, field):
        rng = make_rng(9)
        g = random_series(field, 5, 2, 12, rng)
        basis = sigma_basis(g, 12, [0] * 5)
        _, rows = select_low_rows(basis, math.inf)
        degs = [basis.tdegs[i] for i in rows]
        assert degs == sorted(degs)


def _bounded_annihilator_dim(g, t, tau, order):
    """Dimension of {v : v*G = O(x^order), deg v_i <= tau + t_i} by linearization."""
    field = g.field
    q, s = g.rows, g.cols
    widths = [max(0, tau + ti + 1) for ti in t]
    total = sum(widths)
    if total == 0:
        return 0
    rows = []
    for i in range(q):
        for k in range(widths[i]):
            # residual coefficients of x^k * e_i * G up to x^order
            row = np.zeros(s * order, dtype=np.int64)
            entry = g.coeffs[i]  # (s, width)
            for j in range(s):
                for e in range(k, order):
                    if e - k < entry.shape[1]:
                        row[j * order + e] = entry[j, e - k]
            rows.append(row)
    mat = np.array(rows, dtype=np.int64)
    return total - const_rank(mat, field.p)
