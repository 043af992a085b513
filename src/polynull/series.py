"""Truncated x-adic expansion of B * A^(-1), the lifting phase.

``series_inverse`` runs Newton iteration from the constant inverse
A(0)^(-1), doubling the attained order each step (von zur Gathen and
Gerhard, Modern Computer Algebra, Alg. 9.3).  Invariant: before a step,
X == A^(-1) mod x^h exactly.  Then A*X == I mod x^h, and with E the
slabs h..k-1 of A*X (k = min(2h, eta)), X - X*E*x^h is exact mod x^k:
its slabs below h are X's, and its new slabs h..k-1 are
-(X mod x^(k-h)) * E mod x^(k-h).  Only those new slabs are computed,
by two truncated products per step, into one preallocated tensor.  The
left quotient then follows by one truncated product.  Both return a
plain ``PolyMatrix`` of degree below the order the caller supplies.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, SingularAtZero, SingularMatrix
from .field import FieldSpec
from .polymat import PolyMatrix, const_inv, pm_mul_mod


def series_inverse(a: PolyMatrix, eta: int) -> PolyMatrix:
    """X with X*A == A*X == I mod x^eta, as a matrix of degree below eta.

    Requires A square with A(0) invertible; raises SingularAtZero
    otherwise, which usually means the surrounding matrix does not have
    full column rank.
    """
    if a.rows != a.cols:
        raise DimensionMismatch("series inverse needs a square matrix")
    if eta < 0:
        raise ValueError("order must be nonnegative")
    try:
        inv0 = const_inv(a.eval(0), a.field.p)
    except SingularMatrix as exc:
        raise SingularAtZero(f"constant term of {a.rows}x{a.rows} matrix is singular") from exc
    if eta == 0:
        return PolyMatrix.zeros(a.field, a.rows, a.rows)
    field, n = a.field, a.rows
    da = a.coeffs.shape[2] - 1
    x = np.zeros((n, n, eta), dtype=np.int64)
    x[:, :, 0] = inv0
    h = 1
    while h < eta:  # x holds X mod x^h: exact below h, zero from h on
        k = min(2 * h, eta)
        o = max(0, h - da)
        # slabs h..k-1 of A*X; A's da+1 slabs reach them only from X_o..X_(h-1)
        e = _slabs(field, pm_mul_mod(a, _slabs(field, x, o, h), k - o).coeffs, h - o, k - o)
        new = pm_mul_mod(_slabs(field, x, 0, k - h), e, k - h).coeffs
        x[:, :, h : h + new.shape[2]] = -new % field.p
        h = k
    return PolyMatrix(field, x)


def _slabs(field: FieldSpec, c: np.ndarray, lo: int, hi: int) -> PolyMatrix:
    """Slabs lo..hi-1 of a reduced tensor as an untrimmed view; an empty range is zero."""
    return PolyMatrix(field, c[:, :, lo:hi], _normalized=True)


def left_quotient_series(b: PolyMatrix, a: PolyMatrix, eta: int) -> PolyMatrix:
    """Expansion of B * A^(-1) mod x^eta, as a matrix of degree below eta."""
    if b.cols != a.rows:
        raise DimensionMismatch(f"B has {b.cols} columns but A is {a.rows}x{a.cols}")
    return pm_mul_mod(b, series_inverse(a, eta), eta)
