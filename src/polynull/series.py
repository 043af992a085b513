"""Truncated x-adic expansion of B * A^(-1), the lifting phase.

Linear lifting from the constant inverse A(0)^(-1) (Moenck and Carter,
EUROSAM 1979; Dixon, Numer. Math. 1982).  With H = B * A^(-1) and
da = min(deg A, eta - 1), reading H * A == B at x^k gives

    H_k = B_k * A(0)^(-1) + sum_{j=1..min(k, da)} H_(k-j) * S_j,   S_j = -A_j * A(0)^(-1),

so each slab is fixed exactly by B_k and the slabs before it: H mod
x^eta is the only solution once A(0) is invertible, and slabs of A past
eta - 1 never reach an order below eta.  H is kept in reverse slab
order, so the window H_(k-1), ..., H_(k-da) is one basic slice, laid
side by side against the S_j stacked once: one kernel call per order,
of inner size at most da * n.  It returns a plain ``PolyMatrix`` of
degree below the order the caller supplies.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, ModulusMismatch, SingularAtZero, SingularMatrix
from .polymat import PolyMatrix, const_inv, mat_mul_mod


def left_quotient_series(b: PolyMatrix, a: PolyMatrix, eta: int) -> PolyMatrix:
    """Expansion of B * A^(-1) mod x^eta, as a matrix of degree below eta."""
    if a.field.p != b.field.p:
        raise ModulusMismatch("mixed moduli")
    if a.rows != a.cols or b.cols != a.rows:
        raise DimensionMismatch(f"A is {a.rows}x{a.cols}, not square with B's {b.cols} columns")
    if eta < 0:
        raise ValueError("order must be nonnegative")
    try:
        inv0 = const_inv(a.eval(0), a.field.p)
    except SingularMatrix as exc:
        raise SingularAtZero(f"constant term of {a.rows}x{a.rows} matrix is singular") from exc
    if eta == 0:
        return PolyMatrix.zeros(b.field, b.rows, a.cols)
    p, m, n = a.field.p, b.rows, a.rows
    da, kb = min(a.coeffs.shape[2] - 1, eta - 1), min(b.coeffs.shape[2], eta)
    s = mat_mul_mod(a.coeffs[:, :, 1 : da + 1].transpose(2, 0, 1).reshape(da * n, n), inv0, p)
    s = (p - s) % p  # S_1..S_da stacked
    bt = mat_mul_mod(b.coeffs[:, :, :kb].transpose(2, 0, 1).reshape(kb * m, n), inv0, p)
    out = np.zeros((m, eta, n), dtype=np.int64)  # slab k at position eta - 1 - k
    out[:, eta - kb :] = bt.reshape(kb, m, n)[::-1].transpose(1, 0, 2)
    flat = out.reshape(m, eta * n)
    for k in range(1, eta if da else 1):
        r, w = eta - 1 - k, min(k, da)
        out[:, r] += mat_mul_mod(flat[:, (r + 1) * n : (r + 1 + w) * n], s[: w * n], p)
        out[:, r] %= p
    return PolyMatrix(a.field, out[:, ::-1].transpose(0, 2, 1))
