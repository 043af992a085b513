"""Shared fixtures and small independent reference implementations."""

import importlib
import math
import random

import pytest

from polynull import (
    NEG_INF,
    DimensionMismatch,
    FieldSpec,
    Poly,
    PolyMatrix,
    left_quotient_series,
    pm_mul,
    pm_random,
)


@pytest.fixture(scope="session")
def field():
    return FieldSpec()


@pytest.fixture
def harvests(monkeypatch):
    """Reader of the harvests (minimal-vectors calls) the last ``nullspace``
    attempt made; attempts that failed and were retried are not counted."""
    # the attribute polynull.nullspace is the re-exported function, not the module
    module = importlib.import_module("polynull.nullspace")
    real_attempt, real_harvest = module._nullspace_once, module._minimal_vectors_once
    count = 0

    def attempt(*args):
        nonlocal count
        count = 0
        return real_attempt(*args)

    def harvest(*args):
        nonlocal count
        count += 1
        return real_harvest(*args)

    monkeypatch.setattr(module, "_nullspace_once", attempt)
    monkeypatch.setattr(module, "_minimal_vectors_once", harvest)
    return lambda: count


def log2_ceil(k: int) -> int:
    """ceil(log2 k), floored at 1 so singleton cases keep a budget."""
    return max(1, math.ceil(math.log2(k))) if k >= 1 else 0


def make_rng(seed: int) -> random.Random:
    return random.Random(seed)


def poly(field, *coeffs) -> Poly:
    return Poly(field, coeffs)


def schoolbook_mul(a, b, p):
    """Reference polynomial product on raw coefficient lists."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    while out and out[-1] == 0:
        out.pop()
    return out


def poly_level_matmul(a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    """Reference matrix product built from scalar Poly arithmetic only."""
    rows = []
    for i in range(a.rows):
        row = []
        for j in range(b.cols):
            acc = Poly.zero(a.field)
            for k in range(a.cols):
                acc = acc + a.poly(i, k) * b.poly(k, j)
            row.append(acc)
        rows.append(row)
    return PolyMatrix.from_polys(rows)


def series_inverse(a: PolyMatrix, eta: int) -> PolyMatrix:
    """X with X*A == A*X == I mod x^eta: the left quotient of the identity by A."""
    return left_quotient_series(PolyMatrix.identity(a.field, a.rows), a, eta)


def tdeg_row(v, t):
    """Shifted degree max_j (deg v_j - t_j) of a row of Polys; NEG_INF for a
    zero row.  The Poly-level referee for ``row_tdegs``."""
    if len(v) != len(t):
        raise DimensionMismatch(f"row length {len(v)} does not match shift length {len(t)}")
    best = NEG_INF
    for f, tj in zip(v, t):
        if not f.is_zero():
            cand = len(f.coeffs) - 1 - tj
            if best is NEG_INF or cand > best:
                best = cand
    return best


def planted_rank(field, m, n, r, d, rng):
    """Matrix of rank at most r (and equal to r with high probability)."""
    if r == 0 or m == 0 or n == 0:
        return PolyMatrix.zeros(field, m, n)
    dl = rng.randrange(d + 1)
    return pm_mul(pm_random(m, r, dl, field, rng), pm_random(r, n, d - dl, field, rng))


def gauss_jordan(a, p, cols=None):
    """Reference reduced row echelon form over F_p on Python ints.

    Takes a 2-D array and pivots in its first ``cols`` columns (all by
    default); returns (reduced rows as lists, pivot columns).
    """
    rows = [[int(x) % p for x in row] for row in a.tolist()]
    pivots = []
    for c in range(a.shape[1] if cols is None else cols):
        r = len(pivots)
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][c], -1, p)
        rows[r] = [x * inv % p for x in rows[r]]
        for i in range(len(rows)):
            f = rows[i][c]
            if i != r and f:
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
    return rows, pivots


def int_matmul(a, b, p):
    """(a @ b) mod p of two 2-D arrays on Python ints, as a list of rows."""
    al, bl = a.tolist(), b.tolist()
    return [
        [sum(al[i][t] * bl[t][j] for t in range(a.shape[1])) % p for j in range(b.shape[1])]
        for i in range(a.shape[0])
    ]
