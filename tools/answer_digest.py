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
``diff`` the outputs to compare their answers, or count the differences:

    python3 tools/answer_digest.py --compare BEFORE.txt AFTER.txt

reads two saved outputs and prints one line per workload: the calls in
both files, how many lines are bit-identical, how many ranks are equal
(of the calls that answered on both sides), how many degree sums rose,
fell or stayed equal from BEFORE to AFTER, and the ``Fail`` lines in
each file.
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


def _read(path: Path) -> dict:
    """Map (workload, seed, call) to the rest of the line's fields."""
    lines = (line.split() for line in path.read_text().splitlines() if line.strip())
    return {tuple(f[:3]): f[3:] for f in lines}


def _answer(fields: list) -> tuple[int, int] | None:
    """(rank, degree sum) of a ``nullspace`` answer; None for a product or a ``Fail``."""
    if len(fields) != 4:
        return None
    degrees = fields[1].strip("[]")
    return int(fields[0]), sum(int(e) for e in degrees.split(",") if e)


def _is_fail(fields: list) -> bool:
    return len(fields) == 1 and not all(ch in "0123456789abcdef" for ch in fields[0])


def compare(before: Path, after: Path) -> None:
    old, new = _read(before), _read(after)
    for name in dict.fromkeys(key[0] for key in [*old, *new]):
        keys = [k for k in old if k[0] == name and k in new]
        same = sum(old[k] == new[k] for k in keys)
        pairs = [(a, b) for a, b in ((_answer(old[k]), _answer(new[k])) for k in keys) if a and b]
        ranks = sum(a[0] == b[0] for a, b in pairs)
        rose = sum(b[1] > a[1] for a, b in pairs)
        fell = sum(b[1] < a[1] for a, b in pairs)
        fails = [sum(_is_fail(f) for k, f in side.items() if k[0] == name) for side in (old, new)]
        print(
            f"{name}: {len(keys)} calls in both, {same} identical, ranks equal {ranks} of "
            f"{len(pairs)}, degree sums rose {rose} fell {fell} equal {len(pairs) - rose - fell}, "
            f"Fail {fails[0]} -> {fails[1]}"
        )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("tree", type=Path, nargs="?", help="repository checkout to import")
    ap.add_argument("--seeds", type=int, nargs="+", default=[7, 8])
    ap.add_argument("--compare", type=Path, nargs=2, metavar=("BEFORE", "AFTER"),
                    help="count the differences between two saved outputs instead")
    args = ap.parse_args(argv)
    if args.compare:
        compare(*args.compare)
        return 0
    if args.tree is None:
        ap.error("give a TREE or --compare BEFORE AFTER")
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
