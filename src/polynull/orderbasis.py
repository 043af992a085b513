"""Shifted order bases (sigma bases) by one elimination per order.

Given a polynomial matrix G (q x s, read mod x^order) and a shift t, the
computed L is a q x q polynomial matrix whose rows generate every
polynomial row v with v*G = O(x^order), with shifted degrees under
control: L*G == 0 mod x^order, and any such v decomposes over the rows
of L without raising the shifted degree.

M-Basis (Beckermann and Labahn 1994; Giorgi, Jeannerod and Villard
2003) keeps only L.  At order k, L*G vanishes below x^k, and one product
gives its x^k coefficient.  One constant elimination over the rows with
a nonzero coefficient, in (shifted degree, index) order, finds their row
rank profile: every other row loses its combination of earlier pivot
rows, and the pivot rows are multiplied by x.

Invariant: a row is reduced only by earlier pivot rows, whose shifted
degree is at most its own.  Lower ones miss its leading block, equal ones
cannot cancel it because L's leading blocks are independent, and x keeps
it.  So the tracked shifted degrees stay exact and L stays row-reduced.

Entry (i, j) of L has degree at most tdegs[i] + t_j, so L's degree grows
only while its pivot rows' shifted degrees allow; the products read L's
slabs only up to that bound, which on nullspace inputs is L's degree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .polymat import PolyMatrix, Shift, _eliminate, mat_mul_mod, row_tdegs


@dataclass(frozen=True)
class SigmaBasis:
    """Order basis with per-row shifted degrees.

    ``L`` is square and nonsingular over K(x); row i has shifted degree
    ``tdegs[i]`` with respect to the shift it was computed for.
    """

    L: PolyMatrix
    tdegs: tuple[int, ...]


def sigma_basis(g: PolyMatrix, order: int, t: Shift) -> SigmaBasis:
    """Shifted order basis for ``g`` mod x^order; slabs from x^order on are ignored."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    q, s = g.rows, g.cols
    if len(t) != q:
        raise DimensionMismatch(f"shift length {len(t)} does not match {q} rows")
    field = g.field
    p = field.p

    if order == 0 or s == 0 or q == 0:
        ident = PolyMatrix.identity(field, q)
        return SigmaBasis(ident, tuple(-ti for ti in t))

    # rev[width-1-e] = G_e; in (L*G)_k, L_lo..L_top meet rev[lo+width-1-k:top+width-k]
    # (G_e for e >= width is zero or at or past x^order, beyond every k, so
    # the slabs below lo would meet only zeros)
    width = min(g.coeffs.shape[2], order)
    rev = np.ascontiguousarray(g.coeffs[:, :, width - 1 :: -1].transpose(2, 0, 1))
    basis = np.zeros((q, order + 1, q), dtype=np.int64)  # (row, slab, column)
    basis[np.arange(q), 0, np.arange(q)] = 1
    tdegs = [-ti for ti in t]
    tmax = max(t)
    top = 0  # bounds deg L

    for k in range(order):
        # L*G vanishes below x^k
        lo = max(0, k - width + 1)
        if lo > top:
            continue
        n = top + 1 - lo
        resid = mat_mul_mod(
            basis[:, lo : top + 1].reshape(q, n * q),
            rev[lo + width - 1 - k : top + width - k].reshape(n * q, s),
            p,
        )
        # a stable sort of ascending indices: (shifted degree, index) order
        live = sorted(resid.any(axis=1).nonzero()[0].tolist(), key=tdegs.__getitem__)
        if not live:
            continue
        # the live rows as columns: their column rank profile is the row one
        aug = np.ascontiguousarray(resid[live].T)
        cols = _eliminate(aug, p, len(live))
        piv = [live[c] for c in cols]
        if len(piv) < len(live):
            # column c of the reduced aug holds row c's coordinates on the pivots
            dep_cols = [c for c in range(len(live)) if c not in cols]
            dep = [live[c] for c in dep_cols]
            coords = aug[: len(cols), dep_cols].T
            span = mat_mul_mod(coords, basis[piv, : top + 1].reshape(len(piv), -1), p)
            basis[dep, : top + 1] = (basis[dep, : top + 1] - span.reshape(len(dep), top + 1, q)) % p
        for i in piv:  # multiply by x; per-row basic slices beat a fancy index on small q
            basis[i, 1 : top + 2] = basis[i, : top + 1]
            basis[i, 0] = 0
            tdegs[i] += 1
        # other rows stay within top; a pivot row gains one degree, and
        # deg L_ij <= tdegs[i] + t_j, largest at the last pivot in live order
        top = max(top, min(top + 1, tdegs[piv[-1]] + tmax))

    l_mat = PolyMatrix(field, basis.transpose(0, 2, 1))
    exact = tuple(int(d) for d in row_tdegs(l_mat, t))
    return SigmaBasis(l_mat, exact)


def select_low_rows(basis: SigmaBasis, delta: int | float) -> tuple[int, list[int]]:
    """Count and list the rows with shifted degree at most delta.

    Returns (kappa, indices), indices sorted by ascending shifted
    degree with row order breaking ties.
    """
    picked = [i for i in range(basis.L.rows) if basis.tdegs[i] <= delta]
    picked.sort(key=lambda i: (basis.tdegs[i], i))
    return len(picked), picked


__all__ = ["SigmaBasis", "sigma_basis", "select_low_rows"]
