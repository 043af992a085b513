"""Self-test of the benchmark itself; run from the repository root:

    python3 perfbench/selftest.py [workload ...]

For each workload (all by default) it makes two traced runs with the
same seed and checks that

* the metric names match ``BENCHMARK.json`` in both modes;
* every counter the workload requires is nonzero (``run.py --trace 1``
  exits 1 instead of printing a result otherwise);
* the exact counts repeat: call counts, ``polymat.mat_mul_mod.macs``,
  ``orderbasis.sigma_basis.steps``, ``series.left_quotient_series.order_sum``
  and ``nullspace.attempts``.

Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 7
EXACT = (
    "polymat.mat_mul_mod.calls",
    "polymat.mat_mul_mod.macs",
    "polymat.pm_mul.calls",
    "polymat.pm_mul_mod.calls",
    "polymat.const_inv.calls",
    "series.left_quotient_series.calls",
    "series.left_quotient_series.order_sum",
    "orderbasis.sigma_basis.calls",
    "orderbasis.sigma_basis.steps",
    "nullspace.attempts",
    "nullspace.attempt_ok_ratio",
    "trace.calls",
)


def run(workload: str, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode:
        raise SystemExit(f"{workload} --trace {trace}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} --trace {trace}: wrong answer")
    return result["metrics"]


def main(names: list[str]) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: [m["name"] for m in spec["end_to_end"]],
        1: [m["name"] for m in spec["per_layer"]],
    }
    for name in names or [w["name"] for w in spec["workloads"]]:
        e2e = run(name, 0)
        first, second = run(name, 1), run(name, 1)
        for trace, metrics in ((0, e2e), (1, first)):
            if sorted(metrics) != sorted(declared[trace]):
                raise SystemExit(f"{name} --trace {trace}: metrics differ from BENCHMARK.json")
        moved = [k for k in EXACT if first[k]["value"] != second[k]["value"]]
        if moved:
            raise SystemExit(f"{name}: counts differ between runs of seed {SEED}: {moved}")
        print(f"{name}: ok ({len(first)} per-layer metrics, counts repeat)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
