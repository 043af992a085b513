"""Print a digest of every benchmark workload call's answer, one line per call.

Usage (from any directory):

    python3 tools/answer_digest.py TREE --seeds 7 8

TREE is a checkout of this repository: its ``src/polynull`` is imported,
and its ``perfbench/workloads.py`` supplies the inputs and the
``RandomPlan`` seeds, exactly as the first pass of ``perfbench/run.py``
makes them (call i of a pass uses ``plan_seed(workload, seed, i)``).
Nothing is written into TREE.

Each line is ``workload seed call`` followed by, for ``nullspace``, the
rank, the sorted degrees, ``retries_used`` and the SHA-256 of the basis
coefficients; for ``pm_mul``, the SHA-256 of the product coefficients; or
the name of the ``Fail`` subclass raised.  Run it on two trees and
``diff`` the outputs to compare their answers.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

import numpy as np


def _sha(m) -> str:
    c = np.ascontiguousarray(m.coeffs, dtype=np.int64)
    return hashlib.sha256(repr(c.shape).encode() + c.tobytes()).hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("tree", type=Path, help="repository checkout to import")
    ap.add_argument("--seeds", type=int, nargs="+", default=[7, 8])
    args = ap.parse_args(argv)
    tree = args.tree.resolve()
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    import polynull
    import workloads

    if Path(polynull.__file__).resolve() != tree / "src" / "polynull" / "__init__.py":
        sys.exit(f"answer_digest: imported {polynull.__file__}, not the tree under {tree}")
    for name, workload in workloads.WORKLOADS.items():
        for seed in args.seeds:
            for i, inp in enumerate(workloads.make_inputs(workload, seed)):
                plan = workloads.plan_seed(workload, seed, i)
                try:
                    ans = workloads.call(workload, inp, plan)
                except polynull.Fail as exc:
                    digest = type(exc).__name__
                else:
                    if workload.kind == "pm_mul":
                        digest = _sha(ans)
                    else:
                        degrees = ",".join(map(str, sorted(ans.degrees)))
                        digest = f"{ans.rank} [{degrees}] {ans.retries_used} {_sha(ans.basis)}"
                print(name, seed, i, digest, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
