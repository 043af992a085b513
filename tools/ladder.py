"""Time ``nullspace`` on the degree ladder, with its lifting and order-basis shares.

Usage (from any directory):

    python3 tools/ladder.py TREE

TREE is a checkout of this repository; its ``src/polynull`` is imported
without writing bytecode into TREE.  The input is a planted 32x24 matrix of
rank 20 over p = 2^31 - 1, M = A @ B with A of degree d // 2 and B of
degree d - d // 2, for d = 8, 16, 32 and 64; the input seed and the
``RandomPlan`` seed are fixed, so two trees solve the same problems.

Prints one JSON line per d: ``total_s`` is the wall time of the
``nullspace`` call, ``lifting_s`` the time inside ``left_quotient_series``
and ``sigma_basis_s`` the time inside ``sigma_basis`` (both summed over the
call), each the median of three calls.  BLAS runs on one thread unless the
environment says otherwise.
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
REPEATS = 3
INPUT_SEED, PLAN_SEED = 2005, 11


def _timed(fn, acc: dict, key: str):
    def wrapper(*args):
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            acc[key] += time.perf_counter() - t0

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
    acc = {"lifting_s": 0.0, "sigma_basis_s": 0.0}
    ns.left_quotient_series = _timed(ns.left_quotient_series, acc, "lifting_s")
    ns.sigma_basis = _timed(ns.sigma_basis, acc, "sigma_basis_s")

    field = polynull.FieldSpec(polynull.DEFAULT_PRIME)
    for d in DEGREES:
        rng = np.random.default_rng([INPUT_SEED, d])
        left = polynull.PolyMatrix(field, rng.integers(0, field.p, size=(M, RANK, d // 2 + 1)))
        right = polynull.PolyMatrix(field, rng.integers(0, field.p, size=(RANK, N, d - d // 2 + 1)))
        m = polynull.pm_mul(left, right)
        runs = []
        for _ in range(REPEATS):
            acc.update(lifting_s=0.0, sigma_basis_s=0.0)
            t0 = time.perf_counter()
            ans = polynull.nullspace(m, polynull.RandomPlan(seed=PLAN_SEED))
            runs.append({"total_s": time.perf_counter() - t0, **acc})
        line = {"m": M, "n": N, "rank": ans.rank, "p": field.p, "d": d}
        for key in ("total_s", "lifting_s", "sigma_basis_s"):
            line[key] = round(statistics.median(r[key] for r in runs), 4)
        print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
