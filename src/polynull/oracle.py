"""Brute-force ground truth for tiny instances.

Bounded-degree kernels come from the constant left kernel of a
block-Toeplitz coefficient matrix; Kronecker indices from that matrix's
row rank profile, one elimination per doubled degree bound; rank from
enough evaluation points to dodge every minor's root set.  It shares only
the constant elimination with the fast path (checked on its own against
a pure-int reference), nothing with lifting or order bases: it is the
referee, not a fast path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FieldTooSmall, TooLarge
from .field import NEG_INF, FieldSpec
from .polymat import PolyMatrix, _eliminate, const_kernel, const_rank

#: Default ceiling on block-Toeplitz rows; this is a test oracle.
DEFAULT_MAX_ROWS = 4096


@dataclass(frozen=True)
class KroneckerProfile:
    """Sorted minimal nullspace degrees (Kronecker indices) and K(x)-rank of a matrix."""

    indices: tuple[int, ...]
    rank: int


def _toeplitz(m: PolyMatrix, delta: int) -> np.ndarray:
    """Linearization of v -> v*M over rows v of degree at most delta.

    Row (k, i) <-> coefficient of x^k in v_i; column (e, j) <->
    coefficient of x^e in (v*M)_j.  Columns are degree-major so that
    growing delta only appends rows and columns.
    """
    rows, cols = m.rows, m.cols
    d = int(m.degree) if m.degree is not NEG_INF else 0
    out = np.zeros(((delta + 1) * rows, (delta + d + 1) * cols), dtype=np.int64)
    c = m.coeffs
    dd = c.shape[2]
    for k in range(delta + 1):
        for e in range(k, k + dd):
            out[k * rows : (k + 1) * rows, e * cols : (e + 1) * cols] = c[:, :, e - k]
    return out


def _delinearize(field: FieldSpec, flat: np.ndarray, m: int, delta: int) -> PolyMatrix:
    """Rebuild polynomial rows from flattened (k, i) coefficient vectors."""
    return PolyMatrix(field, flat.reshape(flat.shape[0], delta + 1, m).transpose(0, 2, 1))


def kernel_linearized(
    m: PolyMatrix, delta: int, *, max_rows: int = DEFAULT_MAX_ROWS
) -> PolyMatrix:
    """Basis of {v : deg v <= delta, v*M = 0}, as stacked polynomial rows."""
    if delta < 0:
        raise ValueError("degree bound must be nonnegative")
    if m.rows * (delta + 1) > max_rows:
        raise TooLarge(
            f"linearized kernel would have {m.rows * (delta + 1)} rows "
            f"(guard is {max_rows})"
        )
    kern = const_kernel(_toeplitz(m, delta), m.field.p)
    return _delinearize(m.field, kern, m.rows, delta)


def rank_oracle(m: PolyMatrix) -> int:
    """Rank over K(x) as the max constant rank over min(m, n)*d + 1 points."""
    if m.rows == 0 or m.cols == 0:
        return 0
    d = int(m.degree) if m.degree is not NEG_INF else 0
    cap = min(m.rows, m.cols)
    npts = cap * d + 1  # a nonzero r x r minor has at most r*d roots: one point misses them
    if npts > m.field.p:
        raise FieldTooSmall(f"rank oracle needs {npts} points but p = {m.field.p}")
    best = 0
    for a in range(npts):
        best = max(best, const_rank(m.eval(a), m.field.p))
        if best == cap:
            break
    return best


def kronecker_indices(m: PolyMatrix, *, max_rows: int = DEFAULT_MAX_ROWS) -> KroneckerProfile:
    """Minimal nullspace degrees from the Toeplitz matrix's row rank profile.

    Row block e of ``_toeplitz(m, delta)`` is x^e * M and meets no column
    past (e + d + 1) * n, so the kernel dimension k_e at every bound e <=
    delta is (e + 1) * m less the profile's entries below (e + 1) * m; the
    profile is the pivot columns of one elimination of the transpose.
    Index nu adds e - nu + 1 shifts to k_e, so k_e - k_(e-1) counts the
    indices <= e.  delta starts at 0 and doubles, clipped to n*d (which
    bounds every index) and to the guard, until that count is m - rank.
    Raises TooLarge exactly when m * (largest index + 1) > ``max_rows``.
    """
    rank = rank_oracle(m)
    target = m.rows - rank
    if target == 0:
        return KroneckerProfile((), rank)
    d = int(m.degree) if m.degree is not NEG_INF else 0
    cap = m.cols * d
    top = max_rows // m.rows - 1  # the largest bound the guard admits
    delta = 0
    while True:
        if delta > top:
            raise TooLarge(
                f"index sweep reached {m.rows * (delta + 1)} linearized rows "
                f"(guard is {max_rows})"
            )
        t = np.ascontiguousarray(_toeplitz(m, delta).T)
        profile = _eliminate(t, m.field.p, t.shape[1])
        ends = m.rows * np.arange(1, delta + 2)
        counts = np.diff(ends - np.searchsorted(profile, ends), prepend=0)  # indices <= e
        if counts[-1] >= target or delta == cap:
            break
        # double, but try the guard's own bound before going past it
        delta = min(2 * delta + 1, cap, max(top, delta + 1))
    if counts[-1] != target:
        raise RuntimeError("index sweep did not converge; rank oracle inconsistent")
    indices = np.repeat(np.arange(delta + 1), np.diff(counts, prepend=0))
    return KroneckerProfile(tuple(int(e) for e in indices), rank)
