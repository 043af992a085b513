"""Truncated x-adic expansion of B * A^(-1), the lifting phase.

``series_inverse`` runs Newton iteration X -> X(2I - AX), doubling the
attained order each step from the constant inverse A(0)^(-1); the left
quotient then follows by one truncated product.  Truncation orders are
always supplied by the caller.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DimensionMismatch, SingularAtZero, SingularMatrix
from .polymat import PolyMatrix, const_inv, pm_mul_mod


@dataclass(frozen=True)
class SeriesMatrix:
    """A polynomial matrix read as a power series known mod x^order."""

    matrix: PolyMatrix
    order: int

    def __post_init__(self):
        if self.order < 0:
            raise ValueError("series order must be nonnegative")
        if self.matrix.degree >= self.order:
            # canonicalize: a series never carries slabs past its order
            object.__setattr__(self, "matrix", self.matrix.truncate(self.order))

    @property
    def rows(self) -> int:
        return self.matrix.rows

    @property
    def cols(self) -> int:
        return self.matrix.cols

    def truncate(self, order: int) -> SeriesMatrix:
        if order > self.order:
            raise ValueError(f"cannot extend a series from order {self.order} to {order}")
        return SeriesMatrix(self.matrix.truncate(order), order)


def series_inverse(a: PolyMatrix, eta: int) -> SeriesMatrix:
    """X with X*A == A*X == I mod x^eta.

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
    x = PolyMatrix.from_const(a.field, inv0)
    if eta == 0:
        return SeriesMatrix(PolyMatrix.zeros(a.field, a.rows, a.rows), 0)
    two_i = PolyMatrix.identity(a.field, a.rows).scale(2)
    k = 1
    while k < eta:
        k = min(2 * k, eta)
        residual = two_i - pm_mul_mod(a.truncate(k), x, k)
        x = pm_mul_mod(x, residual, k)
    return SeriesMatrix(x, eta)


def left_quotient_series(b: PolyMatrix, a: PolyMatrix, eta: int) -> SeriesMatrix:
    """Expansion of B * A^(-1) mod x^eta."""
    if b.cols != a.rows:
        raise DimensionMismatch(f"B has {b.cols} columns but A is {a.rows}x{a.cols}")
    inv = series_inverse(a, eta)
    return SeriesMatrix(pm_mul_mod(b, inv.matrix, eta), eta)
