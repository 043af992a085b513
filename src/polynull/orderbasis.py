"""Shifted order bases (sigma bases) by one elimination per order.

Given a polynomial matrix G (q x s, read mod x^order) and a shift t, the
computed L is a q x q polynomial matrix whose rows generate every
polynomial row v with v*G = O(x^order), with shifted degrees under
control: L*G == 0 mod x^order, and any such v decomposes over the rows
of L without raising the shifted degree.

M-Basis (Beckermann and Labahn 1994; Giorgi, Jeannerod and Villard
2003) carries the residual beside L: row i of one int64 array is
[(L*G)_i mod x^order | L_i], each half slab-major.  Every step is a row
operation (subtract a combination of rows, multiply a row by x), and
v -> v*G is linear and commutes with x, so the same operation on a whole
row keeps its left half equal to the new row times G mod x^order.  At
order k, L*G vanishes below x^k and its x^k slab is read off the array,
with no product.  One constant elimination over the rows with a nonzero
residual, in (shifted degree, index) order, finds their row rank
profile: every other row loses its combination of earlier pivot rows,
and the pivot rows are multiplied by x.

Invariant: a row is reduced only by earlier pivot rows, whose shifted
degree is at most its own.  Lower ones miss its leading block, equal ones
cannot cancel it because L's leading blocks are independent, and x keeps
it.  So the tracked shifted degrees stay exact and L stays row-reduced.

Entry (i, j) of L has degree at most tdegs[i] + t_j, so L's degree grows
only while its pivot rows' shifted degrees allow; the update reads L's
slabs only up to that bound, which on nullspace inputs is L's degree,
and L*G's only from x^(k+1) on.

Forced runs: if every live row pivots at order k, times x the live block
is the next residual, so until slab j, the first where another row has a
residual, every order pivots the same rows in the same order; they are
multiplied by x^(j-k) at once.  Per order the bound goes to max(top,
min(top + 1, b)) with b rising by one: it holds top until b passes it,
then adds one, so over n orders it is max(top, min(top + n, b_n)).

Head: on nullspace's generator G = [-I_s ; F], one shift t0 on -I_s, the
first K = min(order, t0 - max t[s:] + 1) orders are closed-form.  At k < K
a -I row's tdeg -t0 + k is at most -max t[s:], so at most every other row's
(ties go to the lower index): the -I rows lead the live rows, their residual
-I has rank s, so they pivot, and each other live row j loses its x^k slab,
F_j's, changing no later slab.  At K, row i < s is x^K e_i, residual -e_i,
tdeg -t0 + K; row j is e_j + F_j mod x^K, L*G from slab K on still G's; the
other tdegs stay, top = K, and a forced run across K goes on as one run would.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .polymat import PolyMatrix, Shift, _eliminate, _reduce, _trim, mat_mul_mod


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
    if len(t) != g.rows:
        raise DimensionMismatch(f"shift length {len(t)} does not match {g.rows} rows")
    q, s, tdegs = g.rows, g.cols, [-int(ti) for ti in t]
    if order == 0 or s == 0 or q == 0:
        return SigmaBasis(PolyMatrix.identity(g.field, q), tuple(tdegs))
    field, p = g.field, g.field.p

    # row i is [(L*G)_i mod x^order | L_i], slab-major: slab e of L*G at e*s,
    # slab e of L at rw + e*q; one row operation on L is the same on L*G.
    # At order 0, L = I and L*G is G
    rw, width = order * s, min(g.coeffs.shape[2], order)
    w = np.zeros((q, rw + (order + 1) * q), dtype=np.int64)
    w[:, : width * s] = g.coeffs[:, :, :width].transpose(0, 2, 1).reshape(q, width * s)
    w[:, rw : rw + q] = np.eye(q, dtype=np.int64)
    tmax = max(t)
    k = top = 0  # the order, and a bound on deg L
    if head := _head(g, order, t):
        # the generator's head at order K (module docstring): row i < s is x^K e_i,
        # residual -e_i (none if K = order: slab K would be L's), row j e_j + F_j mod x^K
        k = top = head
        i, width = np.arange(s), min(g.coeffs.shape[2], k)
        w[i, rw + i], w[i, rw + k * q + i] = 0, 1
        if k < order:
            w[i, k * s + i] = p - 1
        lf = w[s:, rw : rw + width * q].reshape(q - s, width, q)  # a view of L's slabs ..width
        lf[:, :, :s] = g.coeffs[s:, :, :width].transpose(0, 2, 1)
        tdegs[:s] = [d + k for d in tdegs[:s]]

    while k < order:
        # L*G vanishes below x^k, so its x^k coefficient is the residual
        resid = w[:, k * s : (k + 1) * s]
        # a stable sort of ascending indices: (shifted degree, index) order
        live = sorted(resid.any(axis=1).nonzero()[0].tolist(), key=tdegs.__getitem__)
        if not live:
            k += 1
            continue
        # the live rows as columns: their column rank profile is the row one
        aug = np.ascontiguousarray(resid[live].T)
        cols = _eliminate(aug, p, len(live))
        piv = [live[c] for c in cols]
        # L*G's slabs k+1.. and L's slabs ..top are adjacent: one span covers both
        lo, hi = (k + 1) * s, rw + (top + 1) * q
        step = 1
        if len(piv) < len(live):
            # column c of the reduced aug holds row c's coordinates on the pivots
            dep_cols = [c for c in range(len(live)) if c not in cols]
            dep = [live[c] for c in dep_cols]
            coords = aug[: len(cols), dep_cols].T
            span = mat_mul_mod(coords, w[piv, lo:hi], p)
            w[dep, lo:hi] = _reduce(w[dep, lo:hi] - span, p)
        else:  # a forced run to slab k + step, the first where another row is live
            rest = np.delete(w[:, lo:rw], piv, axis=0).any(axis=0)
            step = int(rest.argmax()) // s + 1 if rest.any() else order - k
        for i in piv:  # multiply by x^step; per-row basic slices beat a fancy index on small q
            w[i, (k + step) * s : rw] = w[i, k * s : rw - step * s]
            w[i, rw + step * q : hi + step * q] = w[i, rw:hi]
            w[i, rw : rw + step * q] = 0
            tdegs[i] += step
        # other rows stay within top; a pivot row gains a degree per order, and
        # deg L_ij <= tdegs[i] + t_j, largest at the last pivot in live order
        top = max(top, min(top + step, tdegs[piv[-1]] + tmax))
        k += step

    # L's slabs past top are zero and its entries reduced: trim, no % p
    l_mat = w[:, rw : rw + (top + 1) * q].reshape(q, top + 1, q).transpose(0, 2, 1)
    return SigmaBasis(PolyMatrix(field, _trim(l_mat), _normalized=True), tuple(tdegs))


def _head(g: PolyMatrix, order: int, t: Shift) -> int:
    """K = min(order, t0 - max t[s:] + 1) if G is [-I_s ; F] with one shift t0 on -I_s, else 0."""
    s, c = g.cols, g.coeffs[: g.cols]
    k = min(order, int(t[0]) - int(max(t[s:])) + 1) if 0 < s < g.rows and len(set(t[:s])) == 1 else 0
    neg = (g.field.p - 1) * np.eye(s, dtype=np.int64)
    return k if k > 0 and not c[:, :, 1:].any() and np.array_equal(c[:, :, 0], neg) else 0


def select_low_rows(basis: SigmaBasis, delta: int | float) -> tuple[int, list[int]]:
    """Count and list the rows with shifted degree at most delta.

    Returns (kappa, indices), indices sorted by ascending shifted
    degree with row order breaking ties.
    """
    picked = [i for i in range(basis.L.rows) if basis.tdegs[i] <= delta]
    picked.sort(key=lambda i: (basis.tdegs[i], i))
    return len(picked), picked


__all__ = ["SigmaBasis", "sigma_basis", "select_low_rows"]
