"""Rank and small-degree left nullspace bases, Las Vegas style.

Three levels:

* ``nullspace_minimal_vectors`` finds every nullspace vector of degree
  at most a threshold for a full column-rank (n+p) x n input.  It
  premultiplies by a random constant to pull the dominant degrees into
  the last columns, shifts x by a random point so the top block is
  invertible at 0, expands B*A^(-1) as a series, compresses by a random
  polynomial matrix when p < n, reconstructs denominator rows with a
  shifted order basis, and certifies the harvest by exact annihilation
  and a row-reducedness check.

* ``nullspace_2n`` stacks such calls while the number of missing
  vectors halves each pass, trading dimension for degree so the
  degree threshold 2nd/p keeps the work balanced.

* ``nullspace`` handles any m x n input: a Monte Carlo evaluation
  guesses the rank, a random column compression reduces to full column
  rank, fixed-size row blocks harvest the m - 2r cheap vectors, the
  2n-driver finishes, and one exact product plus an evaluation-rank
  certificate either proves the answer or rejects the attempt.

Every certified return is correct; bad random draws surface as ``Fail``
and the public wrappers resample up to ``plan.max_retries`` times.
"""

from __future__ import annotations

import dataclasses
import random
import secrets
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    Fail,
    IndependenceLost,
    KappaMismatch,
    NotRowReduced,
    RankCandidateWrong,
    SingularAtZero,
)
from .field import NEG_INF, FieldSpec
from .orderbasis import select_low_rows, sigma_basis
from .polymat import (
    PolyMatrix,
    const_rank,
    const_random,
    hstack,
    independent_columns,
    is_row_reduced,
    pm_mul,
    pm_mul_mod,
    pm_random,
    vstack,
)
from .series import SeriesMatrix, left_quotient_series


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


class RandomPlan:
    """Seeded randomness supply; replaying a seed replays every sample.

    Draws are logged in ``samples`` as (label, value) pairs so a failed
    run can be reconstructed exactly.
    """

    def __init__(self, seed: int | None = None, max_retries: int = 4):
        if seed is None:
            seed = secrets.randbits(64)
        self.seed = seed
        self.max_retries = max_retries
        self.samples: list[tuple[str, object]] = []
        self._rng = random.Random(seed)

    def field_point(self, field: FieldSpec, label: str) -> int:
        v = self._rng.randrange(field.p)
        self.samples.append((label, v))
        return v

    def constant(self, m: int, n: int, field: FieldSpec, label: str) -> np.ndarray:
        q = const_random(m, n, field, self._rng)
        self.samples.append((label, q))
        return q

    def poly_matrix(self, m: int, n: int, d: int, field: FieldSpec, label: str) -> PolyMatrix:
        pm = pm_random(m, n, d, field, self._rng)
        self.samples.append((label, pm))
        return pm

    def __repr__(self) -> str:
        return f"RandomPlan(seed={self.seed}, max_retries={self.max_retries})"


@dataclass(frozen=True)
class MinimalVectorsResult:
    """The kappa lowest-degree nullspace vectors under a threshold."""

    kappa: int
    vectors: PolyMatrix  # kappa x (n+p), ascending degree
    degrees: tuple[int, ...]
    s_block: PolyMatrix  # matching denominator rows from the order basis
    retries_used: int = 0


@dataclass(frozen=True)
class Nullspace2nResult:
    rows: PolyMatrix
    degrees: tuple[int, ...]
    degree_sum: int
    passes: int
    retries_used: int = 0


@dataclass(frozen=True)
class NullspaceResult:
    rank: int
    basis: PolyMatrix  # (m - rank) x m
    degrees: tuple[int, ...]
    degree_sum: int
    seed: int
    retries_used: int = 0


def _retry(plan: RandomPlan, attempt_fn):
    last: Fail | None = None
    for attempt in range(plan.max_retries + 1):
        try:
            return attempt_fn(), attempt
        except Fail as exc:
            last = exc
    assert last is not None
    raise last


def _degree_int(m: PolyMatrix) -> int:
    return int(m.degree) if m.degree is not NEG_INF else 0


def rows_annihilate(rows: PolyMatrix, m: PolyMatrix) -> list[bool]:
    """Exact per-row test of row @ m == 0.

    Large-degree rows are split into degree-d slabs stacked into one
    matrix so the whole test costs a single product of degree-d
    matrices instead of one high-degree product per row.
    """
    count = rows.rows
    if count == 0:
        return []
    if rows.cols != m.rows:
        raise DimensionMismatch(
            f"rows have length {rows.cols} but matrix has {m.rows} rows"
        )
    p = m.field.p
    slab = _degree_int(m) + 1
    c = rows.coeffs
    k = c.shape[2]
    nslabs = _ceil_div(k, slab)
    stacked = np.zeros((count * nslabs, rows.cols, slab), dtype=np.int64)
    for t in range(nslabs):
        chunk = c[:, :, t * slab : (t + 1) * slab]
        stacked[t * count : (t + 1) * count, :, : chunk.shape[2]] = chunk
    prod = pm_mul(PolyMatrix(m.field, stacked), m)
    pc = prod.coeffs
    acc = np.zeros((count, m.cols, (nslabs - 1) * slab + pc.shape[2]), dtype=np.int64)
    for t in range(nslabs):
        acc[:, :, t * slab : t * slab + pc.shape[2]] += pc[t * count : (t + 1) * count]
    acc %= p
    return [not acc[i].any() for i in range(count)]


def _reconstruction_order(delta: int, d: int, n: int, p: int) -> int:
    # delta + d + ceil(nd/p) in the compressed regime; without the
    # compression the right denominator degree is only bounded by d,
    # so the uncompressed branch needs delta + 2d.  Never drop below
    # delta + 1, where truncation artifacts could pass as annihilators.
    if p < n:
        eta = delta + d + _ceil_div(n * d, p)
    else:
        eta = delta + 2 * d
    return max(eta, delta + 1)


def _minimal_vectors_once(
    m: PolyMatrix, delta: int, plan: RandomPlan
) -> MinimalVectorsResult:
    rows, n = m.rows, m.cols
    p_dim = rows - n
    if p_dim < 1:
        raise ValueError("input must have more rows than columns")
    if delta < 0:
        raise ValueError("degree threshold must be nonnegative")
    field = m.field
    d = _degree_int(m)

    q_cond = plan.constant(rows, rows, field, "Q")
    shifted = m.mul_const_left(q_cond)
    x0 = plan.field_point(field, "x0")
    shifted = shifted.shift_var(x0)
    a_block = shifted.block(0, n, 0, n)
    b_block = shifted.block(n, rows, 0, n)
    if const_rank(a_block.eval(0), field.p) < n:
        raise SingularAtZero("pivot block singular at 0; rank is probably below n")

    eta = _reconstruction_order(delta, d, n, p_dim)
    expansion = left_quotient_series(b_block, a_block, eta)

    if p_dim < n:
        compress = plan.poly_matrix(n, p_dim, max(d - 1, 0), field, "P")
        compressed = pm_mul_mod(expansion.matrix, compress, eta)
        c_dim = p_dim
    else:
        compressed = expansion.matrix
        c_dim = n
    gen = SeriesMatrix(vstack(-PolyMatrix.identity(field, c_dim), compressed), eta)
    # the first block absorbs the compression's degree-(d-1) inflation;
    # for a constant input the compression is constant and the shift is 0
    shift = [max(d - 1, 0)] * c_dim + [0] * p_dim
    basis = sigma_basis(gen, eta, shift)
    kappa, picked = select_low_rows(basis, delta)
    if kappa == 0:
        empty = PolyMatrix(field, np.zeros((0, rows, 1), dtype=np.int64))
        empty_s = PolyMatrix(field, np.zeros((0, p_dim, 1), dtype=np.int64))
        return MinimalVectorsResult(0, empty, (), empty_s)

    s_rows = basis.L.submatrix(picked, range(c_dim, c_dim + p_dim))
    left_part = pm_mul_mod(s_rows, expansion.matrix, delta + 1)
    candidates = hstack(left_part, -s_rows.truncate(delta + 1))
    candidates = candidates.shift_var(-x0).mul_const_right(q_cond)

    flags = rows_annihilate(candidates, m)
    if sum(flags) != kappa:
        raise KappaMismatch(f"{sum(flags)} of {kappa} candidates annihilate the input")
    degrees = [candidates.row_degree(i) for i in range(kappa)]
    if any(deg is NEG_INF for deg in degrees):
        raise NotRowReduced("zero row among candidates")
    if not is_row_reduced(candidates):
        raise NotRowReduced("candidate stack is not row-reduced")

    order = sorted(range(kappa), key=lambda i: (degrees[i], i))
    return MinimalVectorsResult(
        kappa,
        candidates.take_rows(order),
        tuple(int(degrees[i]) for i in order),
        s_rows.take_rows(order),
    )


def nullspace_minimal_vectors(
    m: PolyMatrix, delta: int, plan: RandomPlan
) -> MinimalVectorsResult:
    """First minimal nullspace vectors of degree at most ``delta``.

    Requires full column rank with more rows than columns.  Retries
    with fresh randomness up to ``plan.max_retries`` times, then
    surfaces the last ``Fail``.
    """
    result, retries = _retry(plan, lambda: _minimal_vectors_once(m, delta, plan))
    return dataclasses.replace(result, retries_used=retries)


def _embed_rows(
    vectors: PolyMatrix, positions: list[int], total_cols: int
) -> PolyMatrix:
    c = vectors.coeffs
    out = np.zeros((c.shape[0], total_cols, c.shape[2]), dtype=np.int64)
    out[:, positions, :] = c
    return PolyMatrix(vectors.field, out)


def _select_certified_columns(
    stack: PolyMatrix, columns: list[int], count: int, plan: RandomPlan
) -> list[int]:
    """``count`` columns among ``columns`` where ``stack`` is provably independent.

    Independence of the evaluated columns at one point already proves
    independence of the polynomial columns (evaluation only loses rank).
    """
    point = plan.field_point(stack.field, "column_select")
    ev = stack.eval(point)[:, columns]
    local = independent_columns(ev, stack.field.p, count)
    if local is None:
        raise IndependenceLost("could not certify enough independent columns")
    return [columns[i] for i in local]


def _nullspace_2n_once(m: PolyMatrix, plan: RandomPlan) -> Nullspace2nResult:
    rows, n = m.rows, m.cols
    q = rows - n
    if not 1 <= q <= n:
        raise ValueError(f"need n < rows <= 2n, got {rows} x {n}")
    field = m.field
    d = _degree_int(m)

    q_cond = plan.constant(rows, rows, field, "Q2n")
    conditioned = m.mul_const_left(q_cond)
    x0 = plan.field_point(field, "x0_2n")
    if const_rank(conditioned.block(0, n, 0, n).eval(x0), field.p) < n:
        raise SingularAtZero("top block evaluated singular; rank is probably below n")

    used: set[int] = set()
    harvested: list[PolyMatrix] = []
    passes = 0
    while len(used) < q:
        passes += 1
        open_idx = [j for j in range(n, rows) if j not in used]
        p_dim = len(open_idx)
        delta = _ceil_div(2 * n * d, p_dim)
        block = conditioned.take_rows(list(range(n)) + open_idx)
        sub = _minimal_vectors_once(block, delta, plan)
        if sub.kappa == 0:
            raise Fail("no vectors under the degree threshold; conditioning failed")
        embedded = _embed_rows(sub.vectors, list(range(n)) + open_idx, rows)
        chosen = _select_certified_columns(embedded, open_idx, sub.kappa, plan)
        used.update(chosen)
        harvested.append(embedded)

    stack = harvested[0]
    for part in harvested[1:]:
        stack = vstack(stack, part)
    result = stack.mul_const_right(q_cond)
    point = plan.field_point(field, "rank_certificate_2n")
    if const_rank(result.eval(point), field.p) != q:
        raise IndependenceLost("evaluation rank certificate failed")
    degrees = tuple(int(result.row_degree(i)) for i in range(q))
    return Nullspace2nResult(result, degrees, sum(degrees), passes)


def nullspace_2n(m: PolyMatrix, plan: RandomPlan) -> Nullspace2nResult:
    """All q = rows - n nullspace vectors of a full column-rank input.

    The degree sum stays below n*d*ceil(log2 q) because each pass keeps
    every vector under the threshold 2nd/p and at least halves the
    missing count.
    """
    result, retries = _retry(plan, lambda: _nullspace_2n_once(m, plan))
    return dataclasses.replace(result, retries_used=retries)


def monte_carlo_rank_compress(
    m: PolyMatrix, plan: RandomPlan
) -> tuple[int, PolyMatrix, np.ndarray]:
    """Probable rank r0 and a compression M @ R to r0 columns.

    Never certifies: r0 can undershoot the true rank and the compressed
    nullspace can be too big, but downstream exact checks catch both.
    """
    x0 = plan.field_point(m.field, "rank_probe")
    r0 = const_rank(m.eval(x0), m.field.p)
    right = plan.constant(m.cols, r0, m.field, "R")
    return r0, m.mul_const_right(right), right


def _nullspace_once(m: PolyMatrix, plan: RandomPlan) -> NullspaceResult:
    rows, cols = m.rows, m.cols
    field = m.field

    r0, compressed, _ = monte_carlo_rank_compress(m, plan)
    if r0 == rows:
        basis = PolyMatrix(field, np.zeros((0, rows, 1), dtype=np.int64))
        return NullspaceResult(rows, basis, (), 0, plan.seed)
    if r0 == 0:
        basis = PolyMatrix.identity(field, rows)
        if not all(rows_annihilate(basis, m)):
            raise RankCandidateWrong("matrix is nonzero but evaluated to rank 0")
        return NullspaceResult(0, basis, (0,) * rows, 0, plan.seed)

    # make the top r0 x r0 block nonsingular, touching only the top rows
    mix = plan.constant(r0, rows, field, "Qc")
    top = compressed.mul_const_left(mix)
    conditioned = vstack(top, compressed.take_rows(range(r0, rows)))
    probe = plan.field_point(field, "conditioning_probe")
    if const_rank(conditioned.block(0, r0, 0, r0).eval(probe), field.p) < r0:
        raise SingularAtZero("conditioned top block still evaluates singular")
    d = _degree_int(conditioned)

    used: set[int] = set()
    pool = list(range(r0, rows))
    harvested: list[PolyMatrix] = []
    if rows > 2 * r0:
        blocks = _ceil_div(rows - 2 * r0, r0)
        for k in range(1, blocks + 1):
            take = 2 * r0 if k < blocks else rows - blocks * r0
            chunk = [i for i in pool if i not in used][:take]
            positions = list(range(r0)) + chunk
            sub = _minimal_vectors_once(conditioned.take_rows(positions), d, plan)
            need = take - r0
            if sub.kappa < need:
                raise Fail(f"block {k} produced {sub.kappa} vectors, needed {need}")
            kept = sub.vectors.take_rows(range(need))
            embedded = _embed_rows(kept, positions, rows)
            chosen = _select_certified_columns(embedded, chunk, need, plan)
            used.update(chosen)
            harvested.append(embedded)
        remaining = [i for i in pool if i not in used]
        last_positions = list(range(r0)) + remaining
    else:
        last_positions = list(range(rows))
    sub2 = _nullspace_2n_once(conditioned.take_rows(last_positions), plan)
    harvested.append(_embed_rows(sub2.rows, last_positions, rows))

    stack = harvested[0]
    for part in harvested[1:]:
        stack = vstack(stack, part)
    uncondition = np.zeros((rows, rows), dtype=np.int64)
    uncondition[:r0] = mix
    uncondition[np.arange(r0, rows), np.arange(r0, rows)] = 1
    basis = stack.mul_const_right(uncondition)

    if not all(rows_annihilate(basis, m)):
        raise RankCandidateWrong("candidate basis does not annihilate the input")
    point = plan.field_point(field, "rank_certificate")
    if const_rank(basis.eval(point), field.p) != rows - r0:
        raise RankCandidateWrong("evaluation rank certificate failed")
    degrees = tuple(int(basis.row_degree(i)) for i in range(rows - r0))
    return NullspaceResult(r0, basis, degrees, sum(degrees), plan.seed)


def nullspace(m: PolyMatrix, plan: RandomPlan) -> NullspaceResult:
    """Certified rank and m - rank independent left nullspace vectors.

    The returned basis satisfies basis @ m == 0 coefficient-exactly and
    evaluates to full row rank at a fresh random point, which proves
    both the rank and the independence.  Fails (after retries) rather
    than ever returning an uncertified answer.
    """
    result, retries = _retry(plan, lambda: _nullspace_once(m, plan))
    return dataclasses.replace(result, retries_used=retries)
