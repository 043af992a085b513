"""Brute-force ground truth for tiny instances.

Bounded-degree kernels come from the constant left kernel of a
block-Toeplitz coefficient matrix; Kronecker indices from a degree
sweep of those kernel dimensions; rank from enough evaluation points
to dodge every minor's root set.  None of this shares logic with the
lifting or order-basis paths, which is the point: it is the referee, not
a fast path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FieldTooSmall, TooLarge
from .field import NEG_INF, FieldSpec
from .polymat import PolyMatrix, const_kernel, const_rank

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
    count = flat.shape[0]
    out = np.zeros((count, m, delta + 1), dtype=np.int64)
    for k in range(delta + 1):
        out[:, :, k] = flat[:, k * m : (k + 1) * m]
    return PolyMatrix(field, out)


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
    """Rank over K(x) as the max constant rank over n*d + 1 points."""
    if m.rows == 0 or m.cols == 0:
        return 0
    d = int(m.degree) if m.degree is not NEG_INF else 0
    npts = m.cols * d + 1
    if npts > m.field.p:
        raise FieldTooSmall(f"rank oracle needs {npts} points but p = {m.field.p}")
    best = 0
    cap = min(m.rows, m.cols)
    for a in range(npts):
        best = max(best, const_rank(m.eval(a), m.field.p))
        if best == cap:
            break
    return best


class _Echelon:
    """Incremental row echelon over F_p: feed rows, track rank."""

    def __init__(self, width: int, p: int):
        self.width = width
        self.p = p
        self.pivots: dict[int, np.ndarray] = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def add(self, row: np.ndarray) -> bool:
        """Insert a row; True if it increased the rank."""
        row = row % self.p
        while True:
            nz = np.nonzero(row)[0]
            if nz.size == 0:
                return False
            lead = int(nz[0])
            piv = self.pivots.get(lead)
            if piv is None:
                self.pivots[lead] = row * pow(int(row[lead]), -1, self.p) % self.p
                return True
            row = (row - row[lead] * piv) % self.p


def kronecker_indices(m: PolyMatrix, *, max_rows: int = DEFAULT_MAX_ROWS) -> KroneckerProfile:
    """Minimal nullspace degrees by sweeping the linearized kernel dimension.

    The kernel dimension at degree bound delta grows by the number of
    indices <= delta when delta increases by one; first differences of
    that count locate every index.
    """
    rank = rank_oracle(m)
    target = m.rows - rank
    if target == 0:
        return KroneckerProfile((), rank)

    d = int(m.degree) if m.degree is not NEG_INF else 0
    cap = max(m.cols * d, 0)  # every index is at most n*d
    ech = _Echelon(m.cols * (cap + d + 1), m.field.p)
    indices: list[int] = []
    c = m.coeffs
    for delta in range(cap + 1):
        if m.rows * (delta + 1) > max_rows:
            raise TooLarge(
                f"index sweep reached {m.rows * (delta + 1)} linearized rows "
                f"(guard is {max_rows})"
            )
        # the m rows the Toeplitz linearization gains at this degree
        fresh = np.zeros((m.rows, ech.width), dtype=np.int64)
        for e in range(c.shape[2]):
            fresh[:, (delta + e) * m.cols : (delta + e + 1) * m.cols] = c[:, :, e]
        for row in fresh:
            ech.add(row)
        # kernel dimension at this bound, minus what the indices found
        # so far explain (each contributes delta - index + 1 shifts),
        # leaves exactly the count of fresh indices equal to delta
        dim = m.rows * (delta + 1) - ech.rank
        new = dim - sum(delta - di + 1 for di in indices)
        indices.extend([delta] * new)
        if len(indices) == target:
            break
    if len(indices) != target:
        raise RuntimeError("index sweep did not converge; rank oracle inconsistent")
    return KroneckerProfile(tuple(indices), rank)
