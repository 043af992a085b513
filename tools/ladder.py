"""Time ``nullspace`` on the degree ladder, with its lifting and order-basis
shares, and ``pm_mul`` on the product rung, with its Vandermonde inverse.

Usage (from any directory):

    python3 tools/ladder.py TREE

TREE is a checkout of this repository; its ``src/polynull`` is imported
without writing bytecode into TREE.  The ladder's input is a planted 32x24
matrix of rank 20 over p = 2^31 - 1, M = A @ B with A of degree d // 2 and
B of degree d - d // 2, for d = 8, 16, 32 and 64; the input seed and the
``RandomPlan`` seed are fixed, so two trees solve the same problems.  The
product rung multiplies two fixed 32x32 matrices of degree d over the same
p, for d = 16, 32, 64 and 128 (33 to 257 evaluation points).

Prints one JSON line per d and rung: ``total_s`` is the wall time of the
call; for ``nullspace``, ``lifting_s`` is the time inside
``left_quotient_series``, ``sigma_basis_s`` the time inside
``sigma_basis`` (on older trees each with its continuation) and
``certify_s`` the time inside the certificates ``rows_annihilate`` and
``is_row_reduced``; for ``pm_mul``, ``const_inv_s`` is the time inside
``const_inv``; each summed over the call and the median of three calls.
On ``nullspace`` lines, ``order_sum`` is the sum of the orders of the
call's ``sigma_basis`` runs, both passes' orders for a harvest that ran
two (older trees counted a continued one once, to the order it reached),
``continued`` how many harvests ran ``sigma_basis`` more than once, past
the generic order eta(ceil(nd/p)) (on older trees: continued it), and
``basis_eliminations`` how many constant eliminations the order bases
ran (calls to ``orderbasis._eliminate``, on trees that have it, also
on the height rung); all three are from the last call and repeat
exactly for the fixed seeds.
Each ``nullspace`` line also times one 32x24 by 24x24 ``pm_mul`` of the
same degree d in the same process (``pm_mul_s``, median of nine: a median
of three moved by up to 1.5x between rounds on one tree) and gives
``mm_ratio``, the ``nullspace`` median over that product's: the paper puts
``nullspace`` at a constant times one such product, up to logarithmic
factors, so a ratio that grows with d measures the distance.  The
dimension axis prints the same columns for planted m x n inputs at d = 16
with n = 12, 24, 48 and 96, m = 4n/3 and rank 5n/6, each ``pm_mul_s``
from an m x n by n x n product, so a ratio that grows with n measures it
in n.

The height rung solves planted m x 24 inputs of degree 4 at rank 2 and 20,
for m = 48, 96, 192, 384, 480 and 960, and at rank 20 of degree 16 for
m = 480 and 960 and of degree 32 for m = 480: ``total_s`` and ``certify_s``
(medians of three), the number of harvests (minimal-vectors calls,
retries included) in the last call and its ``degree_sum``.  On trees that
split off the degree-0 kernel first, it also prints ``split_rows``, the
rank s of the coefficient stack (the rows left to the attempts, s = m when
nothing splits), and ``split_s``, the seconds of the split's constant
elimination (median of three); the degree and dimension axes print
``split_s`` too.  Where the split first certifies s = m on 2m rows of the
transposed stack, both sum over the split's eliminations, the certificate
and the full one: ``split_rows`` is then the certificate's rank plus s
when the certificate fails.  It is the measurement behind
``nullspace``'s ``_HARVEST_ROWS``, the rows a harvest may open below a
low-rank top, and its 480 -> 960 step shows how far the cost of a tall
input is from linear in m.
BLAS runs on one thread unless the environment says otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path

M, N, RANK = 32, 24, 20
DEGREES = (8, 16, 32, 64)
# the dimension axis: planted (4n/3) x n inputs of rank 5n/6 at d = 16
DIMENSIONS, DIMENSION_D = (12, 24, 48, 96), 16
PRODUCT_SIZE, PRODUCT_DEGREES = 32, (16, 32, 64, 128)
HEIGHTS = (48, 96, 192, 384, 480, 960)
# (rank, d, heights); at d = 16 and 32 a harvest still opens more than
# _HARVEST_ROWS rows after the split (stack ranks 180 and 340, rank 20)
HEIGHT_N, HEIGHT_D = 24, 4
HEIGHT_RUNGS = ((2, 4, HEIGHTS), (20, 4, HEIGHTS), (20, 16, (480, 960)), (20, 32, (480,)))
REPEATS, PRODUCT_REPEATS = 3, 9
INPUT_SEED, PLAN_SEED = 2005, 11


def _timed(fn, acc: dict, key: str):
    def wrapper(*args):
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            acc[key] += time.perf_counter() - t0

    return wrapper


def _counted(fn, acc: dict, key: str):
    def wrapper(*args):
        acc[key] += 1
        return fn(*args)

    return wrapper


def _continued(fn, acc: dict):
    """Count in ``acc["continued"]`` the calls of ``fn`` that ran ``sigma_basis``
    more than once, by its runs in ``acc["bases"]``."""

    def wrapper(*args):
        before = acc["bases"]
        try:
            return fn(*args)
        finally:
            acc["continued"] += acc["bases"] - before > 1

    return wrapper


def _ordered(fn, acc: dict, key: str, orders):
    """Add ``orders(*args)``, the orders a call reconstructs, to ``acc[key]``."""

    def wrapper(*args):
        acc[key] += orders(*args)
        return fn(*args)

    return wrapper


def _ranked(fn, acc: dict, key: str):
    """Add the rank ``fn`` returns, its list of pivots, to ``acc[key]``."""

    def wrapper(*args):
        pivots = fn(*args)
        acc[key] += len(pivots)
        return pivots

    return wrapper


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("tree", type=Path, help="repository checkout to import")
    args = ap.parse_args(argv)
    tree = args.tree.resolve()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(tree / "src"))
    import numpy as np

    import polynull

    if Path(polynull.__file__).resolve() != tree / "src" / "polynull" / "__init__.py":
        sys.exit(f"ladder: imported {polynull.__file__}, not the tree under {tree}")
    ns = sys.modules["polynull.nullspace"]
    pm = sys.modules["polynull.polymat"]
    acc = {"lifting_s": 0.0, "sigma_basis_s": 0.0, "certify_s": 0.0, "const_inv_s": 0.0, "harvests": 0,
           "order_sum": 0, "continued": 0, "bases": 0, "split_s": 0.0, "split_rows": 0}
    ns.left_quotient_series = _timed(ns.left_quotient_series, acc, "lifting_s")
    ns.sigma_basis = _ordered(_timed(ns.sigma_basis, acc, "sigma_basis_s"), acc, "order_sum",
                              lambda g, order, t: order)
    ns.sigma_basis = _counted(ns.sigma_basis, acc, "bases")
    if hasattr(ns, "_basis_from"):  # older trees continue the first run instead of a second
        ns._lift_from = _timed(ns._lift_from, acc, "lifting_s")
        basis_from = _timed(ns._basis_from, acc, "sigma_basis_s")
        basis_from = _ordered(basis_from, acc, "order_sum", lambda g, basis, t, start, order: order - start)
        ns._basis_from = _counted(basis_from, acc, "continued")
    ns.rows_annihilate = _timed(ns.rows_annihilate, acc, "certify_s")
    ns.is_row_reduced = _timed(ns.is_row_reduced, acc, "certify_s")
    pm.const_inv = _timed(pm.const_inv, acc, "const_inv_s")
    ns._minimal_vectors_once = _continued(_counted(ns._minimal_vectors_once, acc, "harvests"), acc)
    split = hasattr(ns, "_eliminate")  # older trees run every row through the attempts
    if split:
        ns._eliminate = _ranked(_timed(ns._eliminate, acc, "split_s"), acc, "split_rows")
    split_keys = ("split_s",) if split else ()
    ob = sys.modules["polynull.orderbasis"]
    counts = ()
    if hasattr(ob, "_eliminate"):  # older trees eliminate through another name
        acc["basis_eliminations"] = 0
        ob._eliminate = _counted(ob._eliminate, acc, "basis_eliminations")
        counts = ("basis_eliminations",)

    field = polynull.FieldSpec(polynull.DEFAULT_PRIME)
    for d in DEGREES:
        _cost_line(polynull, acc, field, np.random.default_rng([INPUT_SEED, d]), {}, M, N, RANK, d, split_keys,
                   counts)
    for n in DIMENSIONS:
        rng = np.random.default_rng([INPUT_SEED, n, DIMENSION_D])
        _cost_line(polynull, acc, field, rng, {"rung": "dimension"}, 4 * n // 3, n, 5 * n // 6, DIMENSION_D,
                   split_keys, counts)
    for rank, d, heights in HEIGHT_RUNGS:
        for m_rows in heights:
            # the d = 4 inputs keep the seeds of earlier ladders
            rng = np.random.default_rng([INPUT_SEED, m_rows, rank] + ([d] if d != HEIGHT_D else []))
            m = _planted(polynull, field, rng, m_rows, HEIGHT_N, rank, d)
            runs, ans = _runs(acc, lambda: polynull.nullspace(m, polynull.RandomPlan(seed=PLAN_SEED)))
            line = {"call": "nullspace", "rung": "height", "m": m_rows, "n": HEIGHT_N,
                    "rank": ans.rank, "p": field.p, "d": d}
            extra = {"split_rows": runs[-1]["split_rows"]} if split else {}
            extra.update((key, runs[-1][key]) for key in counts)
            _print(line, runs, ("total_s", "certify_s") + split_keys,
                   harvests=runs[-1]["harvests"], order_sum=runs[-1]["order_sum"],
                   continued=runs[-1]["continued"], degree_sum=ans.degree_sum, **extra)
    for d in PRODUCT_DEGREES:
        rng = np.random.default_rng([INPUT_SEED, PRODUCT_SIZE, d])
        a, b = (polynull.PolyMatrix(field, rng.integers(0, field.p, size=(PRODUCT_SIZE,) * 2 + (d + 1,)))
                for _ in range(2))
        runs, _ = _runs(acc, lambda: polynull.pm_mul(a, b))
        line = {"call": "pm_mul", "m": PRODUCT_SIZE, "n": PRODUCT_SIZE, "p": field.p, "d": d}
        _print(line, runs, ("total_s", "const_inv_s"))
    return 0


def _cost_line(polynull, acc: dict, field, rng, line: dict, rows: int, cols: int, rank: int, d: int,
               split_keys: tuple, counts: tuple) -> None:
    """Print one ``nullspace`` line on a planted rows x cols input, with ``split_keys``, the
    last call's ``counts``, and ``pm_mul_s`` and ``mm_ratio`` from a rows x cols by cols x cols
    product of degree d."""
    m = _planted(polynull, field, rng, rows, cols, rank, d)
    runs, ans = _runs(acc, lambda: polynull.nullspace(m, polynull.RandomPlan(seed=PLAN_SEED)))
    a, b = (polynull.PolyMatrix(field, rng.integers(0, field.p, size=(r, cols, d + 1))) for r in (rows, cols))
    mm_runs, _ = _runs(acc, lambda: polynull.pm_mul(a, b), PRODUCT_REPEATS)
    mm_s = statistics.median(r["total_s"] for r in mm_runs)
    line = {"call": "nullspace", **line, "m": rows, "n": cols, "rank": ans.rank, "p": field.p, "d": d}
    total_s = statistics.median(r["total_s"] for r in runs)
    _print(line, runs, ("total_s", "lifting_s", "sigma_basis_s", "certify_s") + split_keys,
           pm_mul_s=round(mm_s, 4), mm_ratio=round(total_s / mm_s, 1),
           order_sum=runs[-1]["order_sum"], continued=runs[-1]["continued"],
           **{key: runs[-1][key] for key in counts})


def _planted(polynull, field, rng, rows: int, cols: int, rank: int, d: int):
    """A @ B with A rows x rank of degree d // 2 and B rank x cols of degree d - d // 2."""
    left = polynull.PolyMatrix(field, rng.integers(0, field.p, size=(rows, rank, d // 2 + 1)))
    right = polynull.PolyMatrix(field, rng.integers(0, field.p, size=(rank, cols, d - d // 2 + 1)))
    return polynull.pm_mul(left, right)


def _runs(acc: dict, call, repeats: int = REPEATS):
    """``repeats`` timed calls, each with ``acc`` zeroed first; (runs, last answer)."""
    runs = []
    for _ in range(repeats):
        acc.update(dict.fromkeys(acc, 0))
        t0 = time.perf_counter()
        ans = call()
        runs.append({"total_s": time.perf_counter() - t0, **acc})
    return runs, ans


def _print(line: dict, runs: list, keys, **extra) -> None:
    for key in keys:
        line[key] = round(statistics.median(r[key] for r in runs), 4)
    line.update(extra)
    print(json.dumps(line), flush=True)


if __name__ == "__main__":
    sys.exit(main())
