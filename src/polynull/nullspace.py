"""Rank and small-degree left nullspace bases, Las Vegas style.

Two levels:

* ``nullspace_minimal_vectors`` finds every nullspace vector of degree
  at most a threshold for a full column-rank (n+p) x n input.  It
  premultiplies by a random constant to pull the dominant degrees into
  the last columns, shifts x by a random point so the top block is
  invertible at 0, expands B*A^(-1) as a series, compresses by a random
  polynomial matrix when p < n, reconstructs denominator rows with a
  shifted order basis, and certifies the harvest by exact annihilation
  and a row-reducedness check.

* ``nullspace`` handles any m x n input.  One elimination of the transposed
  coefficient stack [M_0 | ... | M_d] first gives its row rank profile P,
  |P| <= r(d+1), and splits off the constant kernel, a direct summand
  (Forney 1975); the attempts run on M's rows P.  Then one conditioning, one
  harvest and one certificate per attempt: a Monte Carlo evaluation guesses
  the rank r, a random column compression reduces to r columns, a random mix
  of the lower rows added into the top r makes them independent, and
  ``_harvest`` stacks minimal-vectors calls, each keeping every vector it
  finds, until the m - r rows below the top are closed: up to
  c = max(2r, ``_HARVEST_ROWS``) open rows at the input's degree, closing at
  least c - r, while more than r are open, then halving passes whose
  threshold doubles as the open count halves (the paper's 2n x n step).  The
  harvests' structure gives the basis rank m - r, so one exact annihilation
  product proves the answer or rejects it.

Reconstruction runs to eta(delta0), delta0 = min(delta, ceil(nd/p)), and
again to eta(delta) only if fewer than p rows reach delta0: a generic
block's p minimal indices sum to at most nd and are balanced (Zhou,
Labahn and Storjohann, ISSAC 2012).  A kept row whose candidate [u | -v]
annihilates has u = v*B*A^(-1) of degree <= delta0, annihilates the
generator and keeps a zero residual, so a run at delta keeps it and
certifies no other row (L is nonsingular, the kernel has rank p); rows under
delta0 at eta(delta0) are exact and carry their degree on v on the draws the
reconstruction and the conditioning rest on: harvests close as before.

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
    _eliminate,
    _profile_kernel,
    const_rank,
    const_random,
    hstack,
    independent_columns,
    is_row_reduced,
    mat_mul_mod,
    pm_mul_mod,
    pm_random,
    row_tdegs,
    vstack,
)
from .series import left_quotient_series


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


class RandomPlan:
    """Seeded randomness supply; replaying a seed replays every draw."""

    def __init__(self, seed: int | None = None, max_retries: int = 4):
        if max_retries < 0:
            raise ValueError(f"retry budget must be nonnegative, got {max_retries}")
        if seed is None:
            seed = secrets.randbits(64)
        self.seed = seed
        self.max_retries = max_retries
        self._rng = random.Random(seed)

    def field_point(self, field: FieldSpec) -> int:
        return self._rng.randrange(field.p)

    def constant(self, m: int, n: int, field: FieldSpec) -> np.ndarray:
        return const_random(m, n, field, self._rng)

    def poly_matrix(self, m: int, n: int, d: int, field: FieldSpec) -> PolyMatrix:
        return pm_random(m, n, d, field, self._rng)

    def __repr__(self) -> str:
        return f"RandomPlan(seed={self.seed}, max_retries={self.max_retries})"


@dataclass(frozen=True)
class MinimalVectorsResult:
    """The kappa lowest-degree nullspace vectors under a threshold."""

    kappa: int
    vectors: PolyMatrix  # kappa x (n+p), ascending degree
    degrees: tuple[int, ...]
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
            return dataclasses.replace(attempt_fn(), retries_used=attempt)
        except Fail as exc:
            last = exc
    assert last is not None
    raise last


def _degree_int(m: PolyMatrix) -> int:
    return int(m.degree) if m.degree is not NEG_INF else 0


def rows_annihilate(rows: PolyMatrix, m: PolyMatrix) -> list[bool]:
    """Exact per-row test of row @ m == 0.

    One product ``pm_mul_mod`` at full order: a kernel call per slab of
    the shorter factor, each over all rows at once.
    """
    order = rows.coeffs.shape[2] + m.coeffs.shape[2] - 1
    prod = pm_mul_mod(rows, m, order).coeffs
    return (~prod.any(axis=(1, 2))).tolist()


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


def _minimal_vectors_once(m: PolyMatrix, delta: int, plan: RandomPlan) -> MinimalVectorsResult:
    rows, n = m.rows, m.cols
    p_dim = rows - n
    if p_dim < 1:
        raise ValueError("input must have more rows than columns")
    if delta < 0:
        raise ValueError("degree threshold must be nonnegative")
    field = m.field
    d = _degree_int(m)

    q_cond = plan.constant(rows, rows, field)
    shifted = PolyMatrix.from_const(field, q_cond) @ m
    x0 = plan.field_point(field)
    shifted = shifted.shift_var(x0)
    top, low = shifted.block(0, n, 0, n), shifted.block(n, rows, 0, n)
    c_dim = min(p_dim, n)
    neg = -PolyMatrix.identity(field, c_dim)
    # the first block absorbs the compression's degree-(d-1) inflation (0 for a constant
    # input's constant one), which lets sigma_basis write its first max(d, 1) orders
    shift = [max(d - 1, 0)] * c_dim + [0] * p_dim
    compress = None
    # first at the generic index bound: a balanced block closes all p rows
    # there, with the answer one run at delta gives (module docstring)
    for threshold in sorted({min(delta, _ceil_div(n * d, p_dim)), delta}):
        eta = _reconstruction_order(threshold, d, n, p_dim)
        # raises SingularAtZero when the pivot block is singular at 0
        expansion = left_quotient_series(low, top, eta)
        if compress is None and p_dim < n:  # drawn once, after the first lift: both passes share it
            compress = plan.poly_matrix(n, p_dim, max(d - 1, 0), field)
        compressed = expansion if compress is None else pm_mul_mod(expansion, compress, eta)
        basis = sigma_basis(vstack(neg, compressed), eta, shift)
        kappa, picked = select_low_rows(basis, threshold)
        if kappa >= p_dim:
            break
    if kappa == 0:
        return MinimalVectorsResult(0, PolyMatrix.zeros(field, 0, rows), ())

    s_rows = basis.L.submatrix(picked, range(c_dim, c_dim + p_dim))
    left_part = pm_mul_mod(s_rows, expansion, threshold + 1)
    candidates = hstack(left_part, -s_rows.truncate(threshold + 1))
    candidates = candidates.shift_var(-x0) @ PolyMatrix.from_const(field, q_cond)

    flags = rows_annihilate(candidates, m)
    if sum(flags) != kappa:
        raise KappaMismatch(f"{sum(flags)} of {kappa} candidates annihilate the input")
    degrees = row_tdegs(candidates, [0] * rows).tolist()
    if NEG_INF in degrees:
        raise NotRowReduced("zero row among candidates")
    if not is_row_reduced(candidates):
        raise NotRowReduced("candidate stack is not row-reduced")

    order = sorted(range(kappa), key=lambda i: (degrees[i], i))
    degrees = tuple(int(degrees[i]) for i in order)
    return MinimalVectorsResult(kappa, candidates.take_rows(order), degrees)


def nullspace_minimal_vectors(
    m: PolyMatrix, delta: int, plan: RandomPlan
) -> MinimalVectorsResult:
    """First minimal nullspace vectors of degree at most ``delta``.

    Requires full column rank with more rows than columns.  Retries
    with fresh randomness up to ``plan.max_retries`` times, then
    surfaces the last ``Fail``.
    """
    return _retry(plan, lambda: _minimal_vectors_once(m, delta, plan))


# Open rows per harvest below a low-rank top (2*top once that is more); after the split it
# binds only past top + 64 stack rows. tools/ladder.py height rung, m x 24, rank 20, 64 ->
# no cap: d = 16 (s = 180) m = 480 0.44-0.48 -> 0.41-0.42 s, m = 960 0.81-0.84 -> 0.71-0.76,
# degree sums 480 -> 160; d = 32 (s = 340) m = 480 2.7-3.0 -> 4.3-4.4 s (3.2-3.3 without
# the split): one order basis's work grows as its rows squared.
_HARVEST_ROWS = 64


def _harvest(conditioned: PolyMatrix, top: int, d: int, plan: RandomPlan) -> list[PolyMatrix]:
    """Nullspace vectors of ``conditioned`` at full width, one stack per
    harvest, until every row below the first ``top`` is closed.

    A harvest keeps every vector it finds on the top rows and the first c
    open rows, c <= max(2*top, ``_HARVEST_ROWS``): at least c - top under
    ``d`` while more than ``top`` rows are open, since the (top + c) x top
    block has full column rank (its top block is nonsingular at a random
    point), so its c left minimal indices sum to at most top*d and fewer
    than top exceed d; then at least one under ``ceil(2*top*d / c)``.
    Each kept vector closes one open row: a kernel vector of the block
    that is zero on the chunk rows is zero on the nonsingular top block
    too, so the vectors stay independent there; their block on the rows
    they close is nonsingular at a random point, hence over K(x), and
    they are zero on the rows that earlier harvests closed.
    """
    field = conditioned.field
    open_rows = list(range(top, conditioned.rows))
    harvested: list[PolyMatrix] = []
    while open_rows:
        chunk = open_rows[: max(2 * top, _HARVEST_ROWS)]
        delta = d if len(open_rows) > top else _ceil_div(2 * top * d, len(chunk))
        positions = list(range(top)) + chunk
        sub = _minimal_vectors_once(conditioned.take_rows(positions), delta, plan)
        need, least = sub.kappa, max(len(chunk) - top, 1)
        if need < least:
            raise KappaMismatch(f"{need} vectors under degree {delta}, needed {least}")
        out = np.zeros((need, conditioned.rows, sub.vectors.coeffs.shape[2]), dtype=np.int64)
        out[:, positions] = sub.vectors.coeffs
        on_chunk = sub.vectors.block(0, need, top, len(positions)).eval(plan.field_point(field))
        local = independent_columns(on_chunk, field.p, need)
        if local is None:
            raise IndependenceLost("could not certify enough independent columns")
        closed = {chunk[i] for i in local}
        open_rows = [i for i in open_rows if i not in closed]
        harvested.append(PolyMatrix(field, out, _normalized=True))
    return harvested


def monte_carlo_rank_compress(m: PolyMatrix, plan: RandomPlan) -> tuple[int, PolyMatrix]:
    """Probable rank r0 and a compression M @ R to r0 columns.

    Never certifies: r0 can undershoot the true rank and the compressed
    nullspace can be too big, but downstream exact checks catch both.
    """
    x0 = plan.field_point(m.field)
    r0 = const_rank(m.eval(x0), m.field.p)
    right = plan.constant(m.cols, r0, m.field)
    return r0, m @ PolyMatrix.from_const(m.field, right)


def _nullspace_once(m: PolyMatrix, plan: RandomPlan) -> NullspaceResult:
    """One attempt; its basis has rank m - r0 by construction.

    The mix is U = [[I, S], [0, I]], S random, so det U = 1 and the
    stacked harvests H give the basis H @ U = [H1 | H2 + H1 @ S].  By
    ``_harvest``, H2 is block upper triangular with nonsingular diagonal
    blocks (rows by harvest, columns by the harvest that closed them), so
    rank basis = rank H = m - r0, and the exact ``rows_annihilate`` gives
    rank M <= r0 = rank M(x0) <= rank M.  The probe keeps its
    Schwartz-Zippel bound: by Cauchy-Binet, det([I | S] @ C) for the
    compression C of rank r0 is a nonzero polynomial of degree <= r0 in
    S, since [I | S] has a minor 1 and its minors are linearly independent.
    """
    rows, field = m.rows, m.field
    r0, compressed = monte_carlo_rank_compress(m, plan)
    if r0 == rows:
        return NullspaceResult(rows, PolyMatrix.zeros(field, 0, rows), (), 0, plan.seed)
    if r0 == 0:  # m is nonzero: ``nullspace`` answers the zero matrix by its split
        raise RankCandidateWrong("matrix is nonzero but evaluated to rank 0")

    # make the top r0 x r0 block nonsingular, touching only the top rows
    mix = np.hstack([np.eye(r0, dtype=np.int64), plan.constant(r0, rows - r0, field)])
    top = PolyMatrix.from_const(field, mix) @ compressed
    conditioned = vstack(top, compressed.take_rows(range(r0, rows)))
    probe = plan.field_point(field)
    if const_rank(conditioned.block(0, r0, 0, r0).eval(probe), field.p) < r0:
        raise SingularAtZero("conditioned top block still evaluates singular")

    # uncondition: H @ U adds H1 @ S to the columns below the top
    h = vstack(*_harvest(conditioned, r0, _degree_int(conditioned), plan))
    tail = (h.block(0, h.rows, 0, r0) @ PolyMatrix.from_const(field, mix[:, r0:])).coeffs
    c = h.coeffs.copy()
    c[:, r0:, : tail.shape[2]] += tail
    basis = PolyMatrix(field, c)
    if not all(rows_annihilate(basis, m)):
        raise RankCandidateWrong("candidate basis does not annihilate the input")
    degrees = tuple(row_tdegs(basis, [0] * rows).astype(np.int64).tolist())
    return NullspaceResult(r0, basis, degrees, sum(degrees), plan.seed)


def nullspace(m: PolyMatrix, plan: RandomPlan) -> NullspaceResult:
    """Certified rank and m - rank independent left nullspace vectors.

    One elimination of stack.T, stack = [M_0 | ... | M_d], gives the stack's
    row rank profile P and each row j off P as X_j @ stack[P] (checked).  With
    C = [I off P | -X on P] and D the selection of the rows P, U = [C ; D] is
    a permutation of [[-X, I], [I, 0]], so det U = +-1 and U @ M = [0 ; M[P]].
    A kernel vector v = w @ U needs only w2 @ M[P] = 0, so [C ; N' @ D] (N'
    at the columns P) is a basis for any basis N' of M[P]'s kernel, and
    rank M = rank M[P].  The constant part is a direct summand: w -> w @ U
    keeps every row degree and the rank of the leading coefficients, so
    independence and minimality carry over.  At |P| = m nothing splits.

    The attempts certify N' against M[P]: exact annihilation, and the
    harvests' structure makes it independent, which proves the rank; fails
    (after retries) rather than ever returning an uncertified answer.
    """
    rows, field, width = m.rows, m.field, m.cols * m.coeffs.shape[2]
    stack = m.coeffs.reshape(rows, width)
    t = stack.T.copy()
    # rank m on 2m rows proves |P| = m cheaply; else all of t goes on (the RREF is unique)
    if (2 * rows < width and len(_eliminate(t[: 2 * rows], field.p, rows)) == rows
            or len(pivots := _eliminate(t, field.p, rows)) == rows):
        return _retry(plan, lambda: _nullspace_once(m, plan))
    off, kernel = _profile_kernel(t, pivots, field.p)
    if not np.array_equal(mat_mul_mod(t[: len(pivots), off].T, stack[pivots], field.p), stack[off]):
        raise RankCandidateWrong("a constant kernel row does not annihilate the coefficient stack")
    if not pivots:
        return NullspaceResult(0, PolyMatrix.from_const(field, kernel), (0,) * rows, 0, plan.seed)
    res = _retry(plan, lambda: _nullspace_once(m.take_rows(pivots), plan))
    c = np.zeros((rows - res.rank, rows, res.basis.coeffs.shape[2]), dtype=np.int64)
    c[: len(off), :, 0], c[len(off) :, pivots] = kernel, res.basis.coeffs
    basis = PolyMatrix(field, c, _normalized=True)
    return dataclasses.replace(res, basis=basis, degrees=(0,) * len(off) + res.degrees)
