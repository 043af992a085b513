"""Dense polynomial matrices and constant-matrix linear algebra over F_p.

A matrix is stored as an (m, n, k) int64 coefficient tensor with values
in [0, p); slab e holds the coefficient matrix of x^e.  Constant
matrices are plain 2-D int64 arrays.  All products route through
``mat_mul_mod``, an exact float64 BLAS kernel: one dgemm while
K * (p-1)^2 < 2^53 for inner size K, else three dgemms on 16-bit limbs,
each exact up to K = 2^53 / (2^16-1)^2 (about 2^21), with larger inner
sizes cut into chunks.  Results return to int64 mod p.

Row degrees may be shifted: the t-degree of a row v is
max_j (deg v_j - t_j), and a matrix is row-reduced for a shift when the
matrix of t-leading coefficients has full row rank.
"""

from __future__ import annotations

import random
from typing import Sequence, Union

import numpy as np

from .errors import DimensionMismatch, FieldTooSmall, ModulusMismatch, SingularMatrix
from .field import NEG_INF, FieldElement, FieldSpec, Poly

#: Per-row (or per-column) integer degree shifts.
Shift = Sequence[int]

# float64 holds every integer below 2^53 exactly.  A dgemm over nonnegative
# integer entries only ever adds nonnegative products, so every partial sum
# it forms (with or without FMA, in any order) is at most the final sum, and
# the product is exact when K * (largest entry)^2 < 2^53 for inner size K.
_EXACT = 1 << 53
_LIMB = 16
_LIMB_MASK = (1 << _LIMB) - 1
# Limb branch: for p < 2^31, hi = v >> 16 < 2^15 and lo = v & 0xFFFF < 2^16.
# Its three dgemms sum at most K * (2^15-1)^2 (hi.hi), K * 2 (2^15-1)(2^16-1)
# ([hi|lo].[lo;hi], inner size 2K) and K * (2^16-1)^2 (lo.lo); lo.lo is the
# largest, so one limb dgemm is exact up to K = 2,097,216 (about 2^21).
_LIMB_K_MAX = (_EXACT - 1) // _LIMB_MASK**2


def mat_mul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Exact (a @ b) mod p for int64 arrays with entries in [0, p), p < 2^31.

    One float64 dgemm when K * (p-1)^2 < 2^53 for inner size K; otherwise
    three dgemms on 16-bit limbs, over chunks of at most ``_LIMB_K_MAX``
    inner indices, recombined mod p in int64.
    """
    k = a.shape[1]
    if k * (p - 1) ** 2 < _EXACT:
        return (a.astype(np.float64) @ b.astype(np.float64)).astype(np.int64) % p
    if k <= _LIMB_K_MAX:
        return _limb_mul(a, b, p)
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    for s in range(0, k, _LIMB_K_MAX):
        out += _limb_mul(a[:, s : s + _LIMB_K_MAX], b[s : s + _LIMB_K_MAX], p)
    return out % p


def _limb_mul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    # a2 = [hi | lo] and b2 = [lo ; hi], so a2 @ b2 is the middle term and
    # its blocks give hi.hi and lo.lo without further copies.
    k = a.shape[1]
    a2 = np.empty((a.shape[0], 2 * k))
    a2[:, :k] = a >> _LIMB
    a2[:, k:] = a & _LIMB_MASK
    b2 = np.empty((2 * k, b.shape[1]))
    b2[:k] = b & _LIMB_MASK
    b2[k:] = b >> _LIMB
    out = (a2[:, :k] @ b2[k:]).astype(np.int64) % p
    out <<= _LIMB
    out += (a2 @ b2).astype(np.int64)
    out %= p
    out <<= _LIMB
    out += (a2[:, k:] @ b2[:k]).astype(np.int64)
    out %= p
    return out


def _as_array(m0: np.ndarray | Sequence[Sequence[int]], p: int) -> np.ndarray:
    a = np.asarray(m0, dtype=np.int64)
    if a.ndim != 2:
        raise DimensionMismatch(f"expected a 2-D constant matrix, got ndim={a.ndim}")
    return a % p


def const_rank(m0: np.ndarray | Sequence[Sequence[int]], p: int) -> int:
    """Rank over F_p by Gaussian elimination."""
    a = _as_array(m0, p)
    rows, cols = a.shape
    rank = 0
    for c in range(cols):
        piv = None
        for r in range(rank, rows):
            if a[r, c]:
                piv = r
                break
        if piv is None:
            continue
        if piv != rank:
            a[[rank, piv]] = a[[piv, rank]]
        inv = pow(int(a[rank, c]), -1, p)
        a[rank] = a[rank] * inv % p
        col = a[rank + 1 :, c].copy()
        nz = np.nonzero(col)[0]
        if nz.size:
            a[rank + 1 + nz] = (a[rank + 1 + nz] - col[nz, None] * a[rank]) % p
        rank += 1
        if rank == rows:
            break
    return rank


def const_kernel(m0: np.ndarray | Sequence[Sequence[int]], p: int) -> np.ndarray:
    """Row basis of the left kernel {v : v @ m0 = 0} over F_p.

    Returns a (m - rank) x m array; empty (0, m) when m0 has full row rank.
    """
    a = _as_array(m0, p)
    rows, cols = a.shape
    aug = np.concatenate([a, np.eye(rows, dtype=np.int64)], axis=1)
    rank = 0
    for c in range(cols):
        piv = None
        for r in range(rank, rows):
            if aug[r, c]:
                piv = r
                break
        if piv is None:
            continue
        if piv != rank:
            aug[[rank, piv]] = aug[[piv, rank]]
        inv = pow(int(aug[rank, c]), -1, p)
        aug[rank] = aug[rank] * inv % p
        col = aug[:, c].copy()
        col[rank] = 0
        nz = np.nonzero(col)[0]
        if nz.size:
            aug[nz] = (aug[nz] - col[nz, None] * aug[rank]) % p
        rank += 1
        if rank == rows:
            break
    return aug[rank:, cols:].copy()


def const_inv(m0: np.ndarray, p: int) -> np.ndarray:
    """Inverse over F_p; raises SingularMatrix when none exists."""
    a = _as_array(m0, p)
    n = a.shape[0]
    if a.shape[1] != n:
        raise DimensionMismatch("inverse needs a square matrix")
    aug = np.concatenate([a, np.eye(n, dtype=np.int64)], axis=1)
    for c in range(n):
        piv = None
        for r in range(c, n):
            if aug[r, c]:
                piv = r
                break
        if piv is None:
            raise SingularMatrix(f"singular {n}x{n} matrix mod {p}")
        if piv != c:
            aug[[c, piv]] = aug[[piv, c]]
        inv = pow(int(aug[c, c]), -1, p)
        aug[c] = aug[c] * inv % p
        col = aug[:, c].copy()
        col[c] = 0
        nz = np.nonzero(col)[0]
        if nz.size:
            aug[nz] = (aug[nz] - col[nz, None] * aug[c]) % p
    return aug[:, n:].copy()


def independent_columns(m0: np.ndarray, p: int, count: int) -> list[int] | None:
    """First ``count`` column indices of m0 that are independent over F_p.

    Scans left to right; returns None when fewer than ``count`` exist.
    """
    if count == 0:
        return []
    a = _as_array(m0, p)
    rows, cols = a.shape
    chosen: list[int] = []
    rank = 0
    for c in range(cols):
        piv = None
        for r in range(rank, rows):
            if a[r, c]:
                piv = r
                break
        if piv is None:
            continue
        if piv != rank:
            a[[rank, piv]] = a[[piv, rank]]
        inv = pow(int(a[rank, c]), -1, p)
        a[rank] = a[rank] * inv % p
        col = a[:, c].copy()
        col[rank] = 0
        nz = np.nonzero(col)[0]
        if nz.size:
            a[nz] = (a[nz] - col[nz, None] * a[rank]) % p
        chosen.append(c)
        rank += 1
        if rank == count:
            return chosen
    return None


def const_random(m: int, n: int, field: FieldSpec, rng: random.Random) -> np.ndarray:
    data = [rng.randrange(field.p) for _ in range(m * n)]
    return np.array(data, dtype=np.int64).reshape(m, n)


def _eval_grid(field: FieldSpec, npoints: int) -> np.ndarray:
    # Deterministic grid 0, 1, 2, ...; needs npoints distinct residues.
    if npoints > field.p:
        raise FieldTooSmall(
            f"need {npoints} distinct evaluation points but p = {field.p}"
        )
    return np.arange(npoints, dtype=np.int64)


def _power_table(points: np.ndarray, degree: int, p: int) -> np.ndarray:
    """(len(points), degree + 1) table of point powers mod p."""
    table = np.empty((points.size, degree + 1), dtype=np.int64)
    table[:, 0] = 1
    for e in range(1, degree + 1):
        table[:, e] = table[:, e - 1] * points % p
    return table


class PolyMatrix:
    """Immutable m x n matrix of polynomials sharing one modulus."""

    __slots__ = ("field", "rows", "cols", "_c", "_degree")

    def __init__(self, field: FieldSpec, coeffs: np.ndarray, *, _normalized: bool = False):
        c = np.asarray(coeffs, dtype=np.int64)
        if c.ndim != 3:
            raise DimensionMismatch("coefficient tensor must be 3-D")
        if not _normalized:
            c = c % field.p
            c = _trim(c)
        self.field = field
        self.rows, self.cols = int(c.shape[0]), int(c.shape[1])
        self._c = c
        self._c.flags.writeable = False
        self._degree = _tensor_degree(c)

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

    def entry_degree(self, i: int, j: int) -> Union[int, float]:
        nz = np.nonzero(self._c[i, j])[0]
        return int(nz[-1]) if nz.size else NEG_INF

    def row_degree(self, i: int) -> Union[int, float]:
        nz = np.nonzero(self._c[i])
        return int(nz[1].max()) if nz[0].size else NEG_INF

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

    # -- structural ops ----------------------------------------------

    def take_rows(self, idx: Sequence[int]) -> PolyMatrix:
        return PolyMatrix(self.field, self._c[list(idx)])

    def take_cols(self, idx: Sequence[int]) -> PolyMatrix:
        return PolyMatrix(self.field, self._c[:, list(idx)])

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> PolyMatrix:
        return PolyMatrix(self.field, self._c[np.ix_(list(row_idx), list(col_idx))])

    def block(self, r0: int, r1: int, c0: int, c1: int) -> PolyMatrix:
        return PolyMatrix(self.field, self._c[r0:r1, c0:c1])

    # -- arithmetic ---------------------------------------------------

    def _check_compatible(self, other: PolyMatrix, *, same_shape: bool) -> None:
        if self.field.p != other.field.p:
            raise ModulusMismatch(f"mixed moduli {self.field.p} and {other.field.p}")
        if same_shape and (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch(
                f"shapes {self.rows}x{self.cols} and {other.rows}x{other.cols} differ"
            )

    def __add__(self, other: PolyMatrix) -> PolyMatrix:
        self._check_compatible(other, same_shape=True)
        k = max(self._c.shape[2], other._c.shape[2])
        out = np.zeros((self.rows, self.cols, k), dtype=np.int64)
        out[:, :, : self._c.shape[2]] = self._c
        out[:, :, : other._c.shape[2]] += other._c
        return PolyMatrix(self.field, out % self.field.p)

    def __neg__(self) -> PolyMatrix:
        return PolyMatrix(self.field, (self.field.p - self._c) % self.field.p)

    def __sub__(self, other: PolyMatrix) -> PolyMatrix:
        return self + (-other)

    def __matmul__(self, other: PolyMatrix) -> PolyMatrix:
        return pm_mul(self, other)

    def scale(self, c: int) -> PolyMatrix:
        return PolyMatrix(self.field, self._c * (c % self.field.p) % self.field.p)

    def truncate(self, order: int) -> PolyMatrix:
        if order < 0:
            raise ValueError("truncation order must be nonnegative")
        if order == 0:
            return PolyMatrix.zeros(self.field, self.rows, self.cols)
        return PolyMatrix(self.field, self._c[:, :, :order])

    def mul_const_left(self, q: np.ndarray) -> PolyMatrix:
        """q @ self for a constant matrix q."""
        a = _as_array(q, self.field.p)
        if a.shape[1] != self.rows:
            raise DimensionMismatch("constant factor has wrong width")
        k = self._c.shape[2]
        flat = self._c.reshape(self.rows, self.cols * k)
        out = mat_mul_mod(a, flat, self.field.p).reshape(a.shape[0], self.cols, k)
        return PolyMatrix(self.field, out)

    def mul_const_right(self, q: np.ndarray) -> PolyMatrix:
        """self @ q for a constant matrix q."""
        a = _as_array(q, self.field.p)
        if a.shape[0] != self.cols:
            raise DimensionMismatch("constant factor has wrong height")
        k = self._c.shape[2]
        # move the coefficient axis out of the way: (k*m, n) @ (n, n')
        flat = np.ascontiguousarray(self._c.transpose(2, 0, 1)).reshape(k * self.rows, self.cols)
        out = mat_mul_mod(flat, a, self.field.p).reshape(k, self.rows, a.shape[1])
        return PolyMatrix(self.field, np.ascontiguousarray(out.transpose(1, 2, 0)))

    def shift_var(self, x0: int | FieldElement) -> PolyMatrix:
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

    def eval(self, a: int | FieldElement) -> np.ndarray:
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


def vstack(a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    if a.field.p != b.field.p:
        raise ModulusMismatch("mixed moduli")
    if a.cols != b.cols:
        raise DimensionMismatch("vstack needs equal column counts")
    k = max(a.coeffs.shape[2], b.coeffs.shape[2])
    out = np.zeros((a.rows + b.rows, a.cols, k), dtype=np.int64)
    out[: a.rows, :, : a.coeffs.shape[2]] = a.coeffs
    out[a.rows :, :, : b.coeffs.shape[2]] = b.coeffs
    return PolyMatrix(a.field, out, _normalized=True)


def pm_random(m: int, n: int, d: int, field: FieldSpec, rng: random.Random) -> PolyMatrix:
    """Uniform random m x n matrix of degree at most d."""
    data = [rng.randrange(field.p) for _ in range(m * n * (d + 1))]
    return PolyMatrix(field, np.array(data, dtype=np.int64).reshape(m, n, d + 1))


def _mul_convolution(a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    return pm_mul_mod(a, b, a.coeffs.shape[2] + b.coeffs.shape[2] - 1)


def _mul_eval_interp(a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    p = a.field.p
    da, db = a.coeffs.shape[2] - 1, b.coeffs.shape[2] - 1
    npts = da + db + 1
    pts = _eval_grid(a.field, npts)
    va = _power_table(pts, da, p)  # (npts, da+1)
    vb = _power_table(pts, db, p)
    evals_a = mat_mul_mod(a.coeffs.reshape(-1, da + 1), va.T, p)  # (m*kin, npts)
    evals_b = mat_mul_mod(b.coeffs.reshape(-1, db + 1), vb.T, p)
    m, kin, n = a.rows, a.cols, b.cols
    prods = np.empty((npts, m * n), dtype=np.int64)
    for t in range(npts):
        am = evals_a[:, t].reshape(m, kin)
        bm = evals_b[:, t].reshape(kin, n)
        prods[t] = mat_mul_mod(am, bm, p).reshape(-1)
    vand_inv = const_inv(_power_table(pts, npts - 1, p), p)
    out = mat_mul_mod(vand_inv, prods, p)  # (npts, m*n), row e = coeff of x^e
    return PolyMatrix(a.field, np.ascontiguousarray(out.T.reshape(m, n, npts)))


def pm_mul(a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    """Exact product, by evaluation/interpolation on the grid 0, 1, 2, ...

    Falls back to coefficient convolution when the field has fewer
    points than the product degree requires.  Constant factors take a
    direct slab path.
    """
    if a.field.p != b.field.p:
        raise ModulusMismatch("mixed moduli")
    if a.cols != b.rows:
        raise DimensionMismatch(f"inner dimensions {a.cols} and {b.rows} differ")
    if a.is_zero() or b.is_zero():
        return PolyMatrix.zeros(a.field, a.rows, b.cols)
    if a.degree == 0:
        return b.mul_const_left(a.coeffs[:, :, 0])
    if b.degree == 0:
        return a.mul_const_right(b.coeffs[:, :, 0])
    npts = a.coeffs.shape[2] + b.coeffs.shape[2] - 1
    if npts > a.field.p:
        return _mul_convolution(a, b)
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
    if order == 0 or a.is_zero() or b.is_zero():
        return PolyMatrix.zeros(a.field, a.rows, b.cols)
    p = a.field.p
    m, s, n = a.rows, a.cols, b.cols
    ka, kb = a.coeffs.shape[2], b.coeffs.shape[2]
    k = min(order, ka + kb - 1)
    out = np.zeros((k, m, n), dtype=np.int64)  # slab-major; sums of < k values below p
    if ka <= kb:
        wide = np.ascontiguousarray(b.coeffs.transpose(0, 2, 1))  # (s, kb, n)
        for i in range(min(ka, k)):
            ai = a.coeffs[:, :, i]
            if not ai.any():
                continue
            cnt = min(kb, k - i)
            prod = mat_mul_mod(ai, wide[:, :cnt].reshape(s, cnt * n), p)
            out[i : i + cnt] += prod.reshape(m, cnt, n).transpose(1, 0, 2)
    else:
        tall = np.ascontiguousarray(a.coeffs.transpose(2, 0, 1))  # (ka, m, s)
        for j in range(min(kb, k)):
            bj = b.coeffs[:, :, j]
            if not bj.any():
                continue
            cnt = min(ka, k - j)
            prod = mat_mul_mod(tall[:cnt].reshape(cnt * m, s), bj, p)
            out[j : j + cnt] += prod.reshape(cnt, m, n)
    return PolyMatrix(a.field, out.transpose(1, 2, 0))


def pm_shift_var(m: PolyMatrix, x0: int | FieldElement) -> PolyMatrix:
    return m.shift_var(x0)


def pm_eval(m: PolyMatrix, a: int | FieldElement) -> np.ndarray:
    return m.eval(a)


# -- shifted degrees and row reduction --------------------------------


def tdeg_row(v: Sequence[Poly], t: Shift) -> Union[int, float]:
    """Shifted degree max_j (deg v_j - t_j); NEG_INF for a zero row."""
    if len(v) != len(t):
        raise DimensionMismatch(f"row length {len(v)} does not match shift length {len(t)}")
    best: Union[int, float] = NEG_INF
    for f, tj in zip(v, t):
        if not f.is_zero():
            cand = len(f.coeffs) - 1 - tj
            if best is NEG_INF or cand > best:
                best = cand
    return best


def leading_row_matrix(n: PolyMatrix, t: Shift | None = None) -> np.ndarray:
    """Matrix of t-leading coefficients, one row per matrix row.

    Entry (i, j) is the coefficient of x^(tdeg_i + t_j) in n[i, j],
    where tdeg_i is the shifted degree of row i.  Rows must be nonzero.
    """
    if t is None:
        t = [0] * n.cols
    if len(t) != n.cols:
        raise DimensionMismatch("shift length does not match column count")
    out = np.zeros((n.rows, n.cols), dtype=np.int64)
    for i in range(n.rows):
        row = n.row_polys(i)
        td = tdeg_row(row, t)
        if td == NEG_INF:
            raise ValueError(f"row {i} is zero; leading matrix undefined")
        for j, f in enumerate(row):
            out[i, j] = f.coefficient(int(td) + t[j])
    return out


def is_row_reduced(n: PolyMatrix, t: Shift | None = None) -> bool:
    """True iff the t-shifted leading row coefficient matrix has full row rank."""
    if n.rows == 0:
        return True
    lead = leading_row_matrix(n, t)
    return const_rank(lead, n.field.p) == n.rows
