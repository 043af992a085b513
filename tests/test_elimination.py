"""Property tests of the one Gauss-Jordan routine behind const_rank,
independent_columns, const_kernel and const_inv, against a pure-int reference."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polynull import DimensionMismatch, SingularMatrix, const_kernel, const_rank
from polynull.polymat import _BLOCK_MIN, _PANEL, _eliminate, const_inv, independent_columns

from conftest import gauss_jordan, int_matmul

PRIMES = (2, 3, 1009, 2**31 - 1)


@st.composite
def matrices(draw):
    """(p, a): a 0..6 x 0..6 matrix mod p, often rank-deficient."""
    p = draw(st.sampled_from(PRIMES))
    m, n = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    kind = draw(st.sampled_from(("entries", "low-rank", "zero", "all-max")))
    if kind == "zero":
        return p, np.zeros((m, n), dtype=np.int64)
    if kind == "all-max":
        return p, np.full((m, n), p - 1, dtype=np.int64)
    entry = st.one_of(st.integers(0, p - 1), st.sampled_from((0, 1, p - 1)))

    def block(rows, cols):
        return np.array(draw(st.lists(entry, min_size=rows * cols, max_size=rows * cols)),
                        dtype=np.int64).reshape(rows, cols)

    if kind == "entries":
        return p, block(m, n)
    r = draw(st.integers(0, min(m, n)))
    return p, np.array(int_matmul(block(m, r), block(r, n), p), dtype=np.int64).reshape(m, n)


@settings(max_examples=300, deadline=None)
@given(matrices())
def test_rank_and_pivot_columns(case):
    p, a = case
    before = a.copy()
    _, pivots = gauss_jordan(a, p)
    assert const_rank(a, p) == len(pivots)
    for count in range(a.shape[1] + 2):
        want = pivots[:count] if count <= len(pivots) else None
        assert independent_columns(a, p, count) == want
    assert np.array_equal(a, before)


@settings(max_examples=300, deadline=None)
@given(matrices())
def test_kernel_rows(case):
    p, a = case
    m = a.shape[0]
    rank = len(gauss_jordan(a, p)[1])
    kern = const_kernel(a, p)
    assert kern.shape == (m - rank, m)
    assert not any(any(row) for row in int_matmul(kern, a, p))
    assert len(gauss_jordan(kern, p)[1]) == m - rank
    # the row-profile form: one row per row j of a off the reference profile of
    # a.T's columns, with a 1 at j, 0 at the other rows off it, last nonzero at j
    profile = gauss_jordan(a.T, p)[1]
    off = [j for j in range(m) if j not in profile]
    assert len(off) == kern.shape[0]
    for row, j in zip(kern.tolist(), off):
        assert row[j] == 1 and not any(row[i] for i in off if i != j)
        assert not any(row[j + 1 :])


@settings(max_examples=300, deadline=None)
@given(matrices())
def test_inverse(case):
    p, a = case
    m, n = a.shape
    if m != n:
        with pytest.raises(DimensionMismatch):
            const_inv(a, p)
    elif len(gauss_jordan(a, p)[1]) < n:
        with pytest.raises(SingularMatrix):
            const_inv(a, p)
    else:
        assert int_matmul(const_inv(a, p), a, p) == np.eye(n, dtype=np.int64).tolist()


@pytest.mark.parametrize("p", PRIMES)
def test_edge_shapes(p):
    for m, n in ((0, 4), (4, 0), (0, 0)):
        a = np.zeros((m, n), dtype=np.int64)
        assert const_rank(a, p) == 0
        assert const_kernel(a, p).shape == (m, m)
        assert independent_columns(a, p, 0) == []
        assert independent_columns(a, p, 1) is None
    assert const_inv(np.zeros((0, 0), dtype=np.int64), p).shape == (0, 0)
    full = np.full((3, 3), p - 1, dtype=np.int64)
    assert const_rank(full, p) == 1
    assert independent_columns(full, p, 1) == [0]
    with pytest.raises(SingularMatrix):
        const_inv(full, p)


def _blocked_case(rng):
    """(p, a) at 40..140 rows and up to twice as many columns, or a panel edge."""
    p = int(rng.choice(PRIMES))
    m = int(rng.integers(40, 141))
    edges = (_PANEL - 1, _PANEL, _PANEL + 1, 2 * _PANEL, 2 * _PANEL + 1, 3 * _PANEL)
    n = int(rng.choice(edges)) if rng.random() < 0.3 else int(rng.integers(1, 2 * m + 1))
    kind = rng.choice(("entries", "low-rank", "sparse", "zero-lines", "all-max", "zero"))
    if kind == "zero":
        return p, np.zeros((m, n), dtype=np.int64)
    if kind == "all-max":
        return p, np.full((m, n), p - 1, dtype=np.int64)
    a = rng.integers(0, p, (m, n))
    if kind == "low-rank":  # rank at most r; int64 holds r * p * 2^20 < 2^63
        r = int(rng.integers(0, min(m, n) + 1))
        a = rng.integers(0, p, (m, r)) @ rng.integers(0, min(p, 1 << 20), (r, n)) % p
    elif kind == "sparse":
        a *= rng.random((m, n)) < 0.05
    elif kind == "zero-lines":
        a[rng.random(m) < 0.3] = 0
        a[:, rng.random(n) < 0.3] = 0
    return p, a.astype(np.int64)


def test_blocked_elimination_matches_reference():
    """Panels and the in-place loop both reproduce the reference array for array."""
    rng = np.random.default_rng(2013)
    paths = set()
    for _ in range(20):
        p, a = _blocked_case(rng)
        for aug in (a, np.concatenate([a, np.eye(a.shape[0], dtype=np.int64)], axis=1)):
            rows, width = aug.shape
            paths.add(width > 2 * _PANEL and rows * width >= _BLOCK_MIN)
            want, want_pivots = gauss_jordan(aug, p, a.shape[1])
            got = aug.copy()
            assert _eliminate(got, p, a.shape[1]) == want_pivots, (p, aug.shape)
            assert got.tolist() == want, (p, aug.shape)
    assert paths == {True, False}


def test_blocked_elimination_stops_without_pivots(monkeypatch):
    """Once a short panel leaves no pivot to the right, no further panel runs."""
    import polynull.polymat as polymat

    p, rng = 2**31 - 1, np.random.default_rng(60)
    a = (rng.integers(0, p, (120, 60)) @ rng.integers(0, 1 << 20, (60, 120)) % p).astype(np.int64)
    want = a.copy()
    want_pivots = polymat._pivot_loop(want, p, 120)
    assert len(want_pivots) == 60
    panels, loop = [], polymat._pivot_loop

    def counted(*args):
        panels.append(args[2])
        return loop(*args)

    monkeypatch.setattr(polymat, "_pivot_loop", counted)
    got = a.copy()
    assert _eliminate(got, p, 120) == want_pivots
    assert np.array_equal(got, want)
    assert 1 <= len(panels) <= 4
