"""Shifted order bases (sigma bases) by order-by-order elimination.

Given a series matrix G (q x s, known mod x^order) and a shift t, the
computed L is a q x q polynomial matrix whose rows generate every
polynomial row v with v*G = O(x^order), with shifted degrees under
control: L*G == 0 mod x^order, and any such v decomposes over the rows
of L without raising the shifted degree.

The iteration processes one power of x at a time and, within it, one
column of G at a time.  The residual rows with a nonzero coefficient
are cleared against a pivot row of minimal shifted degree (ties broken
by row index, which makes the output deterministic); the pivot row is
then multiplied by x.  Eliminating against a strictly smaller shifted
degree cannot touch a row's leading block, and ties cannot cancel it
because the leading blocks stay independent, so the tracked shifted
degrees remain exact and L stays row-reduced for t throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .polymat import PolyMatrix, Shift, row_tdegs
from .series import SeriesMatrix


@dataclass(frozen=True)
class SigmaBasis:
    """Order basis with per-row shifted degrees.

    ``L`` is square and nonsingular over K(x); row i has shifted degree
    ``tdegs[i]`` with respect to ``shift``.
    """

    L: PolyMatrix
    tdegs: tuple[int, ...]
    order: int
    shift: tuple[int, ...]

    @property
    def size(self) -> int:
        return self.L.rows


def sigma_basis(g: SeriesMatrix, order: int, t: Shift) -> SigmaBasis:
    """Shifted order basis for ``g`` at the given order."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    if g.order < order:
        raise ValueError(f"series is only known mod x^{g.order}, need order {order}")
    q, s = g.rows, g.cols
    if len(t) != q:
        raise DimensionMismatch(f"shift length {len(t)} does not match {q} rows")
    field = g.matrix.field
    p = field.p

    if order == 0 or s == 0:
        ident = PolyMatrix.identity(field, q)
        return SigmaBasis(ident, tuple(-ti for ti in t), order, tuple(t))

    # residual = L*G mod x^order, updated in lockstep with L
    resid = np.zeros((q, s, order), dtype=np.int64)
    width = min(g.matrix.coeffs.shape[2], order)
    resid[:, :, :width] = g.matrix.coeffs[:, :, :width]

    cap = max(4, order * s // max(q, 1) + 2)
    basis = np.zeros((q, q, cap), dtype=np.int64)
    basis[np.arange(q), np.arange(q), 0] = 1
    tdegs = [-ti for ti in t]
    row_len = [1] * q  # coefficients in use per row of `basis`

    for k in range(order):
        for j in range(s):
            col = resid[:, j, k]
            nz = np.nonzero(col)[0]
            if nz.size == 0:
                continue
            piv = int(min(nz, key=lambda i: (tdegs[i], i)))
            others = nz[nz != piv]
            if others.size:
                factors = col[others] * pow(int(col[piv]), -1, p) % p
                span = row_len[piv]
                basis[others, :, :span] = (
                    basis[others, :, :span] - factors[:, None, None] * basis[piv, :, :span]
                ) % p
                resid[others, :, k:] = (
                    resid[others, :, k:] - factors[:, None, None] * resid[piv, :, k:]
                ) % p
                for i in others:
                    row_len[i] = max(row_len[i], span)
            if row_len[piv] == cap:
                grown = np.zeros((q, q, 2 * cap), dtype=np.int64)
                grown[:, :, :cap] = basis
                basis = grown
                cap *= 2
            basis[piv, :, 1 : row_len[piv] + 1] = basis[piv, :, : row_len[piv]].copy()
            basis[piv, :, 0] = 0
            row_len[piv] += 1
            resid[piv, :, k + 1 :] = resid[piv, :, k:-1].copy()
            # x * row has zero residual at the current order: its
            # coefficient here equals the already-cleared one below
            resid[piv, :, k] = 0
            tdegs[piv] += 1

    l_mat = PolyMatrix(field, basis)
    exact = tuple(int(d) for d in row_tdegs(l_mat, t))
    return SigmaBasis(l_mat, exact, order, tuple(t))


def select_low_rows(basis: SigmaBasis, delta: int | float) -> tuple[int, list[int]]:
    """Count and list the rows with shifted degree at most delta.

    Returns (kappa, indices), indices sorted by ascending shifted
    degree with row order breaking ties.
    """
    picked = [i for i in range(basis.size) if basis.tdegs[i] <= delta]
    picked.sort(key=lambda i: (basis.tdegs[i], i))
    return len(picked), picked


__all__ = ["SigmaBasis", "sigma_basis", "select_low_rows"]
