"""Dense polynomial matrices and constant-matrix linear algebra over F_p.

A matrix is stored as an (m, n, k) int64 coefficient tensor with values
in [0, p); slab e holds the coefficient matrix of x^e.  Constant
matrices are plain 2-D int64 arrays; input that int64 cannot hold
exactly is refused, as is a modulus outside 2 <= p < 2^31.  Products
route through ``mat_mul_mod``, an exact float64 BLAS kernel: one dgemm
while K * (p-1)^2 < 2^53 for inner size K, else one dgemm per limb of
the operand with fewer entries, the limbs as wide as that bound allows,
joined mod p in int64.  One Gauss-Jordan routine, blocked above a
measured size, gives rank, kernel, inverse and independent columns.

Row degrees may be shifted: the t-degree of a row v is
max_j (deg v_j - t_j), and a matrix is row-reduced for a shift when the
matrix of t-leading coefficients has full row rank.
"""

from __future__ import annotations

import random
from typing import Sequence, Union

import numpy as np

from .errors import DimensionMismatch, ModulusMismatch, SingularMatrix
from .field import _MAX_MODULUS_BITS, NEG_INF, FieldSpec, Poly

#: Per-row (or per-column) integer degree shifts.
Shift = Sequence[int]

# float64 holds every integer below 2^53 exactly.  A dgemm over nonnegative
# integer entries only ever adds nonnegative products, so every partial sum
# it forms (with or without FMA, in any order) is at most the final sum, and
# the product is exact when K * (largest entry)^2 < 2^53 for inner size K.
# Past that, limbs of w bits with K * (2^w-1) * (p-1) < 2^53 keep each limb
# dgemm exact, and Horner's rule from the top limb keeps the int64 accumulator
# below p * 2^w + 2^53 < 2^63, as 2^w < p whenever one dgemm is not exact.
_EXACT = 1 << 53
_MAX_LIMBS = 4  # where more would be needed, the inner size is cut into chunks
# pm_mul's pointwise products go in stacks whose largest operand has about this many entries.
# Medians, one BLAS thread, p = 2^31 - 1: 129 points of 32x32 took 1.47 ms in stacks of 16,
# 3.64 ms one per call and 3.50 ms in one stack; 33 points of 64x64 1.64 ms in stacks of 4.
_STACK_ENTRIES = 1 << 14


def mat_mul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Exact (a @ b) mod p for int64 arrays with entries in [0, p), p < 2^31, or
    for stacks (..., m, K) and (..., K, n) broadcast as in ``@``.

    One float64 dgemm when K * (p-1)^2 < 2^53 for inner size K.  Otherwise
    one dgemm per limb of the operand with fewer entries per matrix, recombined
    mod p in int64, over chunks of the inner size with at most ``_MAX_LIMBS`` limbs.
    """
    k = a.shape[-1]
    if k * (p - 1) ** 2 < _EXACT:
        return (a.astype(np.float64) @ b.astype(np.float64)).astype(np.int64) % p
    bits = (p - 1).bit_length()
    if bits > _MAX_MODULUS_BITS:
        raise ValueError(f"modulus {p} exceeds {_MAX_MODULUS_BITS} bits")
    chunk = (_EXACT - 1) // (((1 << -(-bits // _MAX_LIMBS)) - 1) * (p - 1))
    if k > chunk:
        parts = (mat_mul_mod(a[..., s : s + chunk], b[..., s : s + chunk, :], p) for s in range(0, k, chunk))
        return _reduce(sum(parts), p)
    w = ((_EXACT - 1) // (k * (p - 1)) + 1).bit_length() - 1
    cut_a = a.shape[-2] <= b.shape[-1]
    cut, other = (a, b.astype(np.float64)) if cut_a else (b, a.astype(np.float64))
    acc = None
    for shift in range((bits - 1) // w * w, -1, -w):
        limb = (cut >> shift) & ((1 << w) - 1)
        prod = limb.astype(np.float64) @ other if cut_a else other @ limb.astype(np.float64)
        if acc is None:
            acc = prod.astype(np.int64)
        else:
            acc = _reduce(acc, p)
            acc <<= w
            acc += prod.astype(np.int64)
    return _reduce(acc, p)


def _reduce(x: np.ndarray, p: int) -> np.ndarray:
    # x mod p in place; on int64 these three passes cost about half of one %
    q = x // p
    q *= p
    x -= q
    return x


def _int64(x: np.ndarray | Sequence) -> np.ndarray:
    """``x`` as int64, refusing what a cast would truncate (floats) or wrap (uint64 past 2^63)."""
    a = np.asarray(x)
    if a.dtype == np.int64:
        return a
    if a.dtype.kind not in "biu" or (a.dtype == np.uint64 and a.size and int(a.max()) >> 63):
        raise ValueError(f"entries must be integers that int64 holds, got dtype {a.dtype}")
    return a.astype(np.int64)


def _as_array(m0: np.ndarray | Sequence[Sequence[int]], p: int) -> np.ndarray:
    if not 2 <= p < 1 << _MAX_MODULUS_BITS:
        raise ValueError(f"modulus {p} is outside 2 <= p < 2^{_MAX_MODULUS_BITS}")
    a = _int64(m0)
    if a.ndim != 2:
        raise DimensionMismatch(f"expected a 2-D constant matrix, got ndim={a.ndim}")
    return a % p


# Panels once the array has _BLOCK_MIN entries and is wider than a panel's copy.
# Medians in ms, one BLAS thread, p = 2^31 - 1, loop -> panels of 16 (of 32):
# [V | I] for the 129-point Vandermonde 35.0 -> 11.8 (12.5), const_rank 100x120
# 10.6 -> 5.6 (6.3), 64x64 3.0 -> 2.8 (3.1); below 4096 entries, panels of 16
# lost up to 1.6x (40x60 by 1.2x, 24x48 by 1.5x, 20x60 by 1.6x).
_PANEL, _BLOCK_MIN = 16, 4096


def _eliminate(aug: np.ndarray, p: int, cols: int) -> list[int]:
    """Gauss-Jordan elimination of ``aug`` in place; returns the pivot columns.

    Pivots are taken in the first ``cols`` columns only, each the first
    nonzero entry at or below the current row, so the pivot columns are
    the rank profile, left to right.  Every row operation spans the full
    width, so a right-hand block records the transform.

    Large arrays go by column panels c0.. at rank r, rows r.. zero left of
    c0: the pivot loop on rows r.. of the panel and a coefficient block
    leaves each row as itself (if no pivot) plus coefficients times the
    new pivot rows, one ``mat_mul_mod`` with aug[r:] in the loop's row
    order; rows above r take old - old[:, J] @ pivots, J the pivot columns.
    Given J and the row order, each row is the one sum of itself and pivot
    rows that is unit (pivots) or zero (others) on J: the loop's, exactly.
    """
    if aug.shape[1] <= 2 * _PANEL or aug.size < _BLOCK_MIN:
        return _pivot_loop(aug, p, cols)
    pivots: list[int] = []
    for c0 in range(0, cols, _PANEL):
        r, b = len(pivots), min(_PANEL, cols - c0)
        if r < c0 and not aug[r:, c0:cols].any():  # after a short panel: no pivot left
            break
        panel = np.concatenate([aug[r:, c0 : c0 + b], np.zeros_like(aug[r:, :b])], axis=1)
        order = list(range(len(panel)))
        found = [c0 + j for j in _pivot_loop(panel, p, b, order)]
        if not found:
            continue
        k = len(found)
        old = aug[r:, c0:][order]
        new = mat_mul_mod(panel[:, b : b + k], old[:k], p)
        new[k:] += old[k:]
        _reduce(new[k:], p)
        above = aug[:r, c0:]
        above -= mat_mul_mod(aug[:r, found], new[:k], p)
        _reduce(above, p)
        aug[r:, c0:] = new
        pivots += found
    return pivots


def _pivot_loop(aug: np.ndarray, p: int, cols: int, order: list[int] | None = None) -> list[int]:
    """The pivot loop over the full width, in place.  With ``order`` (a panel) it
    mirrors row swaps there and puts a 1 in column cols + j of pivot row j."""
    rows = aug.shape[0]
    pivots: list[int] = []
    for c in range(cols):
        rank = len(pivots)
        if rank == rows:
            break
        for piv in range(rank, rows):
            if aug[piv, c]:
                break
        else:
            continue
        if piv != rank:
            aug[[rank, piv]] = aug[[piv, rank]]
        if order is not None:
            order[rank], order[piv] = order[piv], order[rank]
            aug[rank, cols + rank] = 1
        aug[rank] = aug[rank] * pow(int(aug[rank, c]), -1, p) % p
        col = aug[:, c].copy()
        col[rank] = 0
        aug -= col[:, None] * aug[rank]  # rows with a zero in column c do not change
        aug %= p
        pivots.append(c)
    return pivots


def const_rank(m0: np.ndarray | Sequence[Sequence[int]], p: int) -> int:
    """Rank over F_p by Gaussian elimination."""
    a = _as_array(m0, p)
    return len(_eliminate(a, p, a.shape[1]))


def const_kernel(m0: np.ndarray | Sequence[Sequence[int]], p: int) -> np.ndarray:
    """Row basis of the left kernel {v : v @ m0 = 0} over F_p, (m - rank) x m: one row per row j
    of m0 off its row rank profile, a 1 at j, 0 at every other row off it, last nonzero at j."""
    t = _as_array(m0, p).T.copy()
    return _profile_kernel(t, _eliminate(t, p, t.shape[1]), p)[1]


def _profile_kernel(t: np.ndarray, pivots: list[int], p: int) -> tuple[np.ndarray, np.ndarray]:
    """The rows j of a = t.T off its row rank profile P and a's kernel rows e_j - X_j, from t
    reduced by ``_eliminate`` with pivots P, whose column j, X_j, is row j's coordinates on P."""
    off = np.ones(t.shape[1], dtype=bool)  # a mask: np.setdiff1d costs tens of µs a call
    off[pivots] = False
    off = np.flatnonzero(off)
    kernel = np.zeros((len(off), t.shape[1]), dtype=np.int64)
    kernel[:, pivots] = -t[: len(pivots), off].T % p
    kernel[np.arange(len(off)), off] = 1
    return off, kernel


def const_inv(m0: np.ndarray, p: int) -> np.ndarray:
    """Inverse over F_p; raises SingularMatrix when none exists."""
    a = _as_array(m0, p)
    n = a.shape[0]
    if a.shape[1] != n:
        raise DimensionMismatch("inverse needs a square matrix")
    aug = np.concatenate([a, np.eye(n, dtype=np.int64)], axis=1)
    if len(_eliminate(aug, p, n)) < n:
        raise SingularMatrix(f"singular {n}x{n} matrix mod {p}")
    return aug[:, n:].copy()


def independent_columns(m0: np.ndarray, p: int, count: int) -> list[int] | None:
    """First ``count`` column indices of m0 that are independent over F_p.

    Scans left to right; returns None when fewer than ``count`` exist.
    """
    a = _as_array(m0, p)
    pivots = _eliminate(a, p, a.shape[1])
    return pivots[:count] if len(pivots) >= count else None


def const_random(m: int, n: int, field: FieldSpec, rng: random.Random) -> np.ndarray:
    return _randrange_draws(rng, field.p, m * n).reshape(m, n)


def _randrange_draws(rng: random.Random, p: int, count: int) -> np.ndarray:
    """``count`` values of ``rng.randrange(p)``, p < 2^32, leaving ``rng`` as that loop would.

    randrange keeps the top p.bit_length() bits of the next 32-bit word and
    redraws while the value is >= p; getrandbits(32 * n) returns the next n
    words, the first in the lowest bits.  Drawing only as many words as
    values are still needed never draws past the loop's last word.
    """
    out = np.empty(0, dtype=np.int64)
    while out.size < count:
        need = count - out.size
        words = np.frombuffer(rng.getrandbits(32 * need).to_bytes(4 * need, "little"), dtype="<u4")
        vals = (words >> (32 - p.bit_length())).astype(np.int64)
        out = np.concatenate([out, vals[vals < p]])
    return out


class PolyMatrix:
    """Immutable m x n matrix of polynomials sharing one modulus."""

    __slots__ = ("field", "rows", "cols", "_c", "_degree", "_row_degrees")

    def __init__(self, field: FieldSpec, coeffs: np.ndarray, *, _normalized: bool = False):
        c = _int64(coeffs)
        if c.ndim != 3:
            raise DimensionMismatch("coefficient tensor must be 3-D")
        if c.shape[2] == 0:
            c = np.zeros(c.shape[:2] + (1,), dtype=np.int64)  # one zero slab, as zeros() keeps
        if not _normalized:
            c = c % field.p
            c = _trim(c)
        self.field = field
        self.rows, self.cols = int(c.shape[0]), int(c.shape[1])
        self._c = c
        self._c.flags.writeable = False
        self._degree = _tensor_degree(c)
        self._row_degrees = None  # unshifted, filled by the first row_tdegs

    # -- constructors ------------------------------------------------

    @classmethod
    def zeros(cls, field: FieldSpec, m: int, n: int) -> PolyMatrix:
        return cls(field, np.zeros((m, n, 1), dtype=np.int64), _normalized=True)

    @classmethod
    def identity(cls, field: FieldSpec, n: int) -> PolyMatrix:
        c = np.zeros((n, n, 1), dtype=np.int64)
        c[np.arange(n), np.arange(n), 0] = 1
        return cls(field, c, _normalized=True)

    @classmethod
    def from_const(cls, field: FieldSpec, m0: np.ndarray) -> PolyMatrix:
        a = _as_array(m0, field.p)
        return cls(field, a[:, :, None])

    @classmethod
    def from_polys(cls, rows: Sequence[Sequence[Poly]]) -> PolyMatrix:
        if not rows or not rows[0]:
            raise DimensionMismatch("from_polys needs at least one entry")
        field = rows[0][0].field
        m, n = len(rows), len(rows[0])
        k = 1
        for row in rows:
            if len(row) != n:
                raise DimensionMismatch("ragged rows")
            for f in row:
                if f.field.p != field.p:
                    raise ModulusMismatch("entries over different moduli")
                k = max(k, len(f.coeffs))
        c = np.zeros((m, n, k), dtype=np.int64)
        for i, row in enumerate(rows):
            for j, f in enumerate(row):
                if f.coeffs:
                    c[i, j, : len(f.coeffs)] = f.coeffs
        return cls(field, c, _normalized=True)

    # -- basic queries -----------------------------------------------

    @property
    def degree(self) -> Union[int, float]:
        """Max entry degree, NEG_INF for the zero matrix (cached)."""
        return self._degree

    @property
    def coeffs(self) -> np.ndarray:
        """Read-only (rows, cols, degree+1) coefficient tensor."""
        return self._c

    def poly(self, i: int, j: int) -> Poly:
        return Poly(self.field, self._c[i, j].tolist())

    def row_polys(self, i: int) -> list[Poly]:
        return [self.poly(i, j) for j in range(self.cols)]

    def is_zero(self) -> bool:
        return self._degree is NEG_INF

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        if self.field.p != other.field.p or (self.rows, self.cols) != (other.rows, other.cols):
            return False
        ka, kb = self._c.shape[2], other._c.shape[2]
        k = max(ka, kb)
        a = np.zeros((self.rows, self.cols, k), dtype=np.int64)
        b = np.zeros_like(a)
        a[:, :, :ka] = self._c
        b[:, :, :kb] = other._c
        return bool(np.array_equal(a, b))

    def __repr__(self) -> str:
        return f"PolyMatrix({self.rows}x{self.cols}, degree={self._degree}, p={self.field.p})"

    # -- structural ops: slices of reduced data are trimmed, not reduced --

    def take_rows(self, idx: Sequence[int]) -> PolyMatrix:
        return PolyMatrix(self.field, _trim(self._c[list(idx)]), _normalized=True)

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> PolyMatrix:
        c = self._c[np.ix_(list(row_idx), list(col_idx))]
        return PolyMatrix(self.field, _trim(c), _normalized=True)

    def block(self, r0: int, r1: int, c0: int, c1: int) -> PolyMatrix:
        return PolyMatrix(self.field, _trim(self._c[r0:r1, c0:c1]), _normalized=True)

    # -- arithmetic ---------------------------------------------------

    def __neg__(self) -> PolyMatrix:
        return PolyMatrix(self.field, (self.field.p - self._c) % self.field.p)

    def __matmul__(self, other: PolyMatrix) -> PolyMatrix:
        return pm_mul(self, other)

    def truncate(self, order: int) -> PolyMatrix:
        if order < 0:
            raise ValueError("truncation order must be nonnegative")
        if order == 0:
            return PolyMatrix.zeros(self.field, self.rows, self.cols)
        return PolyMatrix(self.field, _trim(self._c[:, :, :order]), _normalized=True)

    def shift_var(self, x0: int) -> PolyMatrix:
        """Substitute x -> x + x0 in every entry."""
        a = int(x0) % self.field.p
        if a == 0 or self.is_zero():
            return self
        p = self.field.p
        k = self._c.shape[2]
        # Pascal-style transform: new[j] = sum_i old[i] * C(i, j) * x0^(i-j)
        trans = np.zeros((k, k), dtype=np.int64)
        trans[0, 0] = 1
        for i in range(1, k):
            trans[i, 0] = trans[i - 1, 0] * a % p
            trans[i, 1:i + 1] = (trans[i - 1, 1:i + 1] * a + trans[i - 1, 0:i]) % p
        flat = self._c.reshape(self.rows * self.cols, k)
        out = mat_mul_mod(flat, trans, p).reshape(self.rows, self.cols, k)
        return PolyMatrix(self.field, out)

    def eval(self, a: int) -> np.ndarray:
        """Constant matrix self(a), by Horner over coefficient slabs."""
        v = int(a) % self.field.p
        p = self.field.p
        out = np.zeros((self.rows, self.cols), dtype=np.int64)
        for e in range(self._c.shape[2] - 1, -1, -1):
            out = (out * v + self._c[:, :, e]) % p
        return out


def _trim(c: np.ndarray) -> np.ndarray:
    k = c.shape[2]
    while k > 1 and not c[:, :, k - 1].any():
        k -= 1
    return np.ascontiguousarray(c[:, :, :k])


def _tensor_degree(c: np.ndarray) -> Union[int, float]:
    for e in range(c.shape[2] - 1, -1, -1):
        if c[:, :, e].any():
            return e
    return NEG_INF


def hstack(a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    if a.field.p != b.field.p:
        raise ModulusMismatch("mixed moduli")
    if a.rows != b.rows:
        raise DimensionMismatch("hstack needs equal row counts")
    k = max(a.coeffs.shape[2], b.coeffs.shape[2])
    out = np.zeros((a.rows, a.cols + b.cols, k), dtype=np.int64)
    out[:, : a.cols, : a.coeffs.shape[2]] = a.coeffs
    out[:, a.cols :, : b.coeffs.shape[2]] = b.coeffs
    return PolyMatrix(a.field, out, _normalized=True)


def vstack(*parts: PolyMatrix) -> PolyMatrix:
    """Rows of every part, top to bottom; at least one part."""
    first = parts[0]
    if any(b.field.p != first.field.p for b in parts):
        raise ModulusMismatch("mixed moduli")
    if any(b.cols != first.cols for b in parts):
        raise DimensionMismatch("vstack needs equal column counts")
    k = max(b.coeffs.shape[2] for b in parts)
    out = np.zeros((sum(b.rows for b in parts), first.cols, k), dtype=np.int64)
    r = 0
    for b in parts:
        out[r : r + b.rows, :, : b.coeffs.shape[2]] = b.coeffs
        r += b.rows
    return PolyMatrix(first.field, out, _normalized=True)


def pm_random(m: int, n: int, d: int, field: FieldSpec, rng: random.Random) -> PolyMatrix:
    """Uniform random m x n matrix of degree at most d."""
    return PolyMatrix(field, _randrange_draws(rng, field.p, m * n * (d + 1)).reshape(m, n, d + 1))


def _mul_eval_interp(a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    """a @ b by evaluation at 0, +-1, ..., +-h (h = npts // 2), pointwise products in
    stacks of about ``_STACK_ENTRIES`` entries per operand, and one Vandermonde inverse."""
    p = a.field.p
    da, db = a.coeffs.shape[2] - 1, b.coeffs.shape[2] - 1
    npts = da + db + 1
    h = npts // 2
    m, n = a.rows, b.cols
    # 2h + 1 >= npts points; pm_mul sends npts > p elsewhere, so 2h < p: p is odd and the
    # y_j = j^2 (j = 0..h) are distinct mod p.  f = f_e(x^2) + x*f_o(x^2) gives f(+-j) =
    # f_e(y_j) +- j*f_o(y_j); row j of the table of j^e has y_j^k and j*y_j^k at 2k, 2k + 1.
    pts, table = np.arange(h + 1, dtype=np.int64), np.ones((h + 1, 2 * h + 1), dtype=np.int64)
    for e in range(1, 2 * h + 1):
        table[:, e] = table[:, e - 1] * pts % p
    vals = []  # f(j) and f(-j) in row j
    for f, deg in ((a, da), (b, db)):
        c = f.coeffs.reshape(-1, deg + 1)
        even, odd = (mat_mul_mod(table[:, e : deg + 1 : 2], c[:, e::2].T, p) for e in (0, 1))
        even += odd
        odd *= -2
        odd += even  # f(j) - 2j*f_o(y_j)
        vals.append([_reduce(x, p).reshape(h + 1, *f.coeffs.shape[:2]) for x in (even, odd)])
    prods = np.empty((2 * h + 1, m * n), dtype=np.int64)  # c at 0, 1..h, then -1..-h
    step = max(1, _STACK_ENTRIES // max(m * n, m * a.cols, a.cols * n))
    for side, rows in enumerate((prods[: h + 1], prods[h + 1 :])):
        va, vb = vals[0][side][side:], vals[1][side][side:]  # c(-0) is c(0)
        for s in range(0, h + 1 - side, step):
            rows[s : s + step] = mat_mul_mod(va[s : s + step], vb[s : s + step], p).reshape(-1, m * n)
    del vals  # the evaluations: tracemalloc peak 6.24 -> 5.73 MiB at 32x32, d = 64
    # c = c_e(x^2) + x*c_o(x^2) with c_e(0) = c(0): g = (c_e - c(0))/y and c_o have degree < h,
    # g(y_j) = (c(j) + c(-j) - 2c(0))/2y_j and c_o(y_j) = (c(j) - c(-j))/2j on y_1..y_h.
    plus, minus = prods[1 : h + 1], prods[h + 1 :]
    plus += minus
    minus *= -2
    minus += plus  # c(j) - c(-j)
    plus -= 2 * prods[0]
    _reduce(prods[1:], p)
    inv_o = const_inv(table[1:, 0 : 2 * h : 2], p) * [pow(2 * j, -1, p) for j in range(1, h + 1)] % p
    inv_g = inv_o * [pow(j, -1, p) for j in range(1, h + 1)] % p
    out = np.empty((2 * h + 1, m * n), dtype=np.int64)  # row e = coeff of x^e
    out[0] = prods[0]
    out[2::2] = mat_mul_mod(inv_g, plus, p)
    out[1::2] = mat_mul_mod(inv_o, minus, p)
    return PolyMatrix(a.field, _trim(out[:npts].T.reshape(m, n, npts)), _normalized=True)


def pm_mul(a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    """Exact product.

    Evaluation/interpolation on the grid 0, +-1, ..., +-h (h = npts // 2)
    when both factors have positive degree and p >= npts, the number of
    product coefficients: even and odd halves at y = x^2, pointwise products
    in stacks, one inverse of the h x h Vandermonde in y_1..y_h.  Otherwise
    ``pm_mul_mod`` at full order, a slab convolution that makes one
    ``mat_mul_mod`` call when either factor is constant.
    """
    if a.field.p != b.field.p:
        raise ModulusMismatch("mixed moduli")
    if a.cols != b.rows:
        raise DimensionMismatch(f"inner dimensions {a.cols} and {b.rows} differ")
    if a.is_zero() or b.is_zero():
        return PolyMatrix.zeros(a.field, a.rows, b.cols)
    npts = a.coeffs.shape[2] + b.coeffs.shape[2] - 1
    if a.degree == 0 or b.degree == 0 or npts > a.field.p:
        return pm_mul_mod(a, b, npts)
    return _mul_eval_interp(a, b)


def pm_mul_mod(a: PolyMatrix, b: PolyMatrix, order: int) -> PolyMatrix:
    """(a @ b) mod x^order by truncated coefficient convolution.

    One ``mat_mul_mod`` call per coefficient slab of the shorter factor,
    against the slabs of the other factor that it meets below ``order``,
    laid side by side: O(min(ka, kb)) calls doing exactly the slab pairs
    i + j < order, with no Toeplitz copy of either factor.
    """
    if a.field.p != b.field.p:
        raise ModulusMismatch("mixed moduli")
    if a.cols != b.rows:
        raise DimensionMismatch(f"inner dimensions {a.cols} and {b.rows} differ")
    if order < 0:
        raise ValueError("order must be nonnegative")
    p = a.field.p
    m, s, n = a.rows, a.cols, b.cols
    ka, kb = a.coeffs.shape[2], b.coeffs.shape[2]
    k = min(order, ka + kb - 1)
    if k == 0 or a.is_zero() or b.is_zero():
        return PolyMatrix.zeros(a.field, m, n)
    out = np.zeros((k, m, n), dtype=np.int64)  # slab-major; sums of < k values below p
    if ka <= kb:
        wide = np.ascontiguousarray(b.coeffs.transpose(0, 2, 1))  # (s, kb, n)
        for i in range(min(ka, k)):
            cnt = min(kb, k - i)
            if a.coeffs[:, :, i].any():
                prod = mat_mul_mod(a.coeffs[:, :, i], wide[:, :cnt].reshape(s, cnt * n), p)
                out[i : i + cnt] += prod.reshape(m, cnt, n).transpose(1, 0, 2)
    else:
        tall = np.ascontiguousarray(a.coeffs.transpose(2, 0, 1))  # (ka, m, s)
        for j in range(min(kb, k)):
            cnt = min(ka, k - j)
            if b.coeffs[:, :, j].any():
                prod = mat_mul_mod(tall[:cnt].reshape(cnt * m, s), b.coeffs[:, :, j], p)
                out[j : j + cnt] += prod.reshape(cnt, m, n)
    return PolyMatrix(a.field, out.transpose(1, 2, 0))


# -- shifted degrees and row reduction --------------------------------


def row_tdegs(n: PolyMatrix, t: Shift) -> np.ndarray:
    """Shifted degree of every row, as floats; NEG_INF for a zero row.

    Read off the coefficient tensor; a matrix keeps its unshifted row
    degrees, so they are read once.
    """
    if n._row_degrees is None or any(t):
        nz = n.coeffs != 0
        # index of the last nonzero coefficient of each entry
        deg = np.where(nz.any(axis=2), nz.shape[2] - 1 - np.argmax(nz[:, :, ::-1], axis=2), NEG_INF)
        td = np.max(deg - np.asarray(t, dtype=np.int64), axis=1, initial=NEG_INF)
        if any(t):
            return td
        n._row_degrees = td
    return n._row_degrees.copy()


def leading_row_matrix(n: PolyMatrix, t: Shift | None = None) -> np.ndarray:
    """Matrix of t-leading coefficients, one row per matrix row.

    Entry (i, j) is the coefficient of x^(tdeg_i + t_j) in n[i, j],
    where tdeg_i is the shifted degree of row i.  Rows must be nonzero.
    """
    if t is None:
        t = [0] * n.cols
    if len(t) != n.cols:
        raise DimensionMismatch("shift length does not match column count")
    td = row_tdegs(n, t)
    zero = np.flatnonzero(td == NEG_INF)
    if zero.size:
        raise ValueError(f"row {zero[0]} is zero; leading matrix undefined")
    k = n.coeffs.shape[2]
    idx = td.astype(np.int64)[:, None] + np.asarray(t, dtype=np.int64)
    inside = (idx >= 0) & (idx < k)
    lead = np.take_along_axis(n.coeffs, np.clip(idx, 0, k - 1)[:, :, None], axis=2)[:, :, 0]
    return np.where(inside, lead, 0)


def is_row_reduced(n: PolyMatrix, t: Shift | None = None) -> bool:
    """True iff the t-shifted leading row coefficient matrix has full row rank."""
    if n.rows == 0:
        return True
    lead = leading_row_matrix(n, t)
    return const_rank(lead, n.field.p) == n.rows
