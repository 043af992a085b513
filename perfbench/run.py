"""polynull benchmark: one workload, one closed-loop caller, every answer gated.

Usage (from the repository root):

    python3 perfbench/run.py --workload lift-deep --seed 1 --seconds 30 --trace 0

One caller: the next public call (``nullspace`` or ``pm_mul``)
starts when the previous one returns.  The caller cycles through the
workload's inputs in passes until the timed calls add up to ``--seconds``;
each pass is then checked by the correctness gate, outside the timed region.

``--trace 0`` reports the end-to-end metrics.  The first pass runs alone;
after it, every call is paired with the same call on the pinned baseline
copy of polynull (``baseline/polynull``, loaded into this process), made
right before or after it, and ``--seconds`` counts both sides.  The
declared timing metrics are ratios of the two, because the shared host's
speed drifts by a third and more from minute to minute and cancels only in
a ratio; the wall-clock figures go to the report line.

``--trace 1`` first runs one traced pass (spans around every layer function,
see ``spans.py``), then untraced passes, and reports the per-layer metrics of
the traced pass and the tracing overhead.  Counts in a traced run repeat
exactly for a seed.

Output: a report line (environment, every end-to-end metric including the
wall-clock ``solve_s_p50``, ``solves_per_s``, ``fail_ratio`` and, on
workloads with at least 100 calls, ``solve_s_p90``, and in trace mode the
self-time table), then, as the last line, the result object ``{"correct",
"attempted", "failed", "metrics"}``.  A wrong answer prints ``"correct":
false`` and exits 1.  A checkout without ``src/polynull`` exits 1 before
printing anything.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
BASELINE = "polynull_baseline"

if not (SRC / "polynull" / "__init__.py").is_file():
    sys.exit(f"perfbench: no polynull source tree under {SRC}")
# One caller, one thread: a BLAS pool would contend with the caller for the
# host's few cores.  Set before numpy is imported; an explicit setting wins.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
# The tree under test, never an installed copy: a parent-vs-change
# comparison must not measure the same package twice.
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import polynull  # noqa: E402

if Path(polynull.__file__).resolve() != SRC / "polynull" / "__init__.py":
    sys.exit(f"perfbench: imported {polynull.__file__}, not the tree under {SRC}")

from gate import Gate, WrongAnswer  # noqa: E402
from spans import Tracer, per_layer_report, self_time_table  # noqa: E402
from workloads import WORKLOADS, call, make_inputs, plan_seed, warmup_input  # noqa: E402


def environment(workload, seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "polynull_file": polynull.__file__,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {
            k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "nproc": len(os.sched_getaffinity(0)),
        "threads": threads(),
        "prime": workload.prime,
        "seed": seed,
    }


def threads() -> int:
    """Threads of this process now: the caller plus BLAS workers, at most nproc."""
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("Threads:"))


def set_up(workload, seed: int) -> tuple[list, float]:
    """The inputs, and the set-up time: a fresh interpreter that imports the
    tree under test, then input generation and a warm-up call on a miniature
    input, each the median of SETUP_REPEATS repeats."""
    importing = [sys.executable, "-c", f"import sys; sys.path.insert(0, {str(SRC)!r}); import polynull"]
    imports, times = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(importing, check=True)
        imports.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        inputs = make_inputs(workload, seed)
        call(workload, warmup_input(workload, seed), seed)
        times.append(time.perf_counter() - t0)
    return inputs, statistics.median(imports) + statistics.median(times)


def load_baseline():
    """The pinned baseline, imported as ``polynull_baseline``.

    ``baseline/polynull`` is a verbatim copy of ``src/polynull`` (without the
    CLI) as it stood when the benchmark was defined, and is never edited:
    it is the clock every timed call of the tree under test is compared with.
    """
    init = HERE / "baseline" / "polynull" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        BASELINE, init, submodule_search_locations=[str(init.parent)]
    )
    lib = importlib.util.module_from_spec(spec)
    sys.modules[BASELINE] = lib
    spec.loader.exec_module(lib)
    return lib


class Loop:
    """Closed loop over passes of the inputs; gates each pass after it is timed.

    After ``pair``, every call is paired with the same call on the pinned
    baseline, made right before or after it (alternating), and the budget
    counts both sides.  The baseline's answers are not gated."""

    def __init__(self, workload, seed: int, inputs: list):
        self.workload, self.seed, self.inputs = workload, seed, inputs
        self.gate = Gate(workload.prime, random.Random(f"gate:{seed}"))
        self.times: list[float] = []
        self.failed: list[bool] = []
        self.base_lib = None
        self.base_inputs: list = []
        self.base_times: list[float] = []
        self.base_failed: list[bool] = []
        self.paired_from = 0  # index of the first call made with a baseline twin

    def pair(self, lib) -> None:
        """Pair every later call with ``lib``; its inputs and warm-up are untimed."""
        self.base_lib = lib
        self.base_inputs = make_inputs(self.workload, self.seed, lib)
        call(self.workload, warmup_input(self.workload, self.seed, lib), self.seed, lib)
        self.paired_from = len(self.times)

    def one_pass(
        self, first_call: int, budget: float = math.inf, tracer: Tracer | None = None
    ) -> list[tuple[float, object]]:
        """Timed calls over the inputs in order until ``budget`` seconds are
        spent (at least one call), then the gate: (seconds, answer) per call."""
        done = []
        spent = 0.0
        with tracer.bound() if tracer else contextlib.nullcontext():
            for i, inp in enumerate(self.inputs):
                if done and spent >= budget:
                    break
                n = first_call + i
                plan = plan_seed(self.workload, self.seed, n)
                if self.base_lib and n % 2:
                    spent += self._base(i, plan)
                t0 = time.perf_counter()
                try:
                    answer = call(self.workload, inp, plan)
                except polynull.Fail as exc:
                    answer = exc
                done.append((time.perf_counter() - t0, answer))
                spent += done[-1][0]
                if self.base_lib and not n % 2:
                    spent += self._base(i, plan)
        for i, (_, answer) in enumerate(done):
            self.gate.check(i, self.inputs[i], answer)
        return done

    def _base(self, index: int, plan: int) -> float:
        lib = self.base_lib
        t0 = time.perf_counter()
        try:
            call(self.workload, self.base_inputs[index], plan, lib)
            failed = False
        except lib.Fail:
            failed = True
        self.base_times.append(time.perf_counter() - t0)
        self.base_failed.append(failed)
        return self.base_times[-1]

    def record(self, done: list[tuple[float, object]]) -> None:
        self.times += [t for t, _ in done]
        self.failed += [isinstance(answer, polynull.Fail) for _, answer in done]

    def until(self, seconds: float) -> None:
        """Calls until they add up to ``seconds`` with the ones already made
        (at least one more call); the last pass stops early, so a run's length
        does not depend on the length of a pass."""
        while True:
            spent = sum(self.times) + sum(self.base_times)
            self.record(self.one_pass(len(self.times), seconds - spent))
            if sum(self.times) + sum(self.base_times) >= seconds:
                return


def max_rss_mb() -> float:
    """Peak resident memory of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def rate(times: list[float], failed: list[bool]) -> float:
    """Certified answers per second of call time; a ``Fail`` is not an answer."""
    return (len(times) - sum(failed)) / sum(times)


def end_to_end(loop: Loop, setup_s: float, peak_rss_mb: float) -> tuple[dict, dict]:
    """Declared end-to-end metrics, and the wall-clock ones for the report line.

    The declared timing metrics compare each call with the same call on the
    pinned baseline, made right next to it: host speed, which on a shared
    host drifts by a third and more over minutes, cancels in the ratio."""
    times = sorted(loop.times)
    fails = sum(loop.failed)
    metrics = {"setup_s": (setup_s, "s"), "peak_rss_mb": (peak_rss_mb, "MB")}
    if loop.base_times:
        paired, paired_failed = loop.times[loop.paired_from :], loop.failed[loop.paired_from :]
        metrics["rel_solve_p50"] = (
            statistics.median(t / b for t, b in zip(paired, loop.base_times)),
            "ratio",
        )
        metrics["rel_solves_per_s"] = (
            rate(paired, paired_failed) / rate(loop.base_times, loop.base_failed),
            "ratio",
        )
    wall = {
        "solve_s_p50": (statistics.median(times), "s"),
        "solves_per_s": (rate(loop.times, loop.failed), "1/s"),
        "fail_ratio": (fails / len(times), "ratio"),
        "calls": (len(times), "count"),
    }
    if len(times) >= 100:
        wall["solve_s_p90"] = (times[math.ceil(0.9 * len(times)) - 1], "s")
    if loop.base_times:
        wall["baseline_solve_s_p50"] = (statistics.median(loop.base_times), "s")
    return _with_units(metrics), _with_units(wall)


def _with_units(metrics: dict) -> dict:
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def top_layer_verdict(workload, table: list[tuple[str, float]]) -> str:
    total = sum(s for _, s in table)
    top, top_s = table[0]
    share = f"{top} has {100 * top_s / total:.0f}% of traced self time"
    if workload.top_layer is None:
        return f"no prediction; {share}"
    if top == workload.top_layer:
        return f"confirmed: {share}"
    return f"mismatch: predicted {workload.top_layer}, but {share}"


def traced(loop: Loop, seconds: float, report: dict) -> tuple[dict, list[str]]:
    """One traced pass, then untraced passes; per-layer metrics and zero counters."""
    workload = loop.workload
    tracer = Tracer()
    traced_times = [t for t, _ in loop.one_pass(0, tracer=tracer)]
    loop.until(seconds - sum(traced_times))
    layers = tracer.layer_metrics()
    metrics = per_layer_report(layers, traced_times, loop.times)
    table = self_time_table(layers)
    report["top_layer"] = top_layer_verdict(workload, table)
    report["self_time_s"] = dict(table)
    return metrics, [name for name in workload.required if not layers.get(name)]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]

    inputs, setup_s = set_up(workload, args.seed)
    loop = Loop(workload, args.seed, inputs)
    report = {"workload": workload.name}
    try:
        if args.trace:
            metrics, missing = traced(loop, args.seconds, report)
        else:
            # The first pass runs alone, so the memory peak is the tree's own.
            loop.record(loop.one_pass(0))
            peak_rss_mb = max_rss_mb()
            loop.pair(load_baseline())
            loop.until(args.seconds)
            missing = []
    except WrongAnswer as exc:
        print(f"perfbench: WRONG ANSWER on {workload.name}: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": max(len(loop.times), 1), "failed": sum(loop.failed), "metrics": {}}))
        return 1

    e2e, extra = end_to_end(loop, setup_s, max_rss_mb() if args.trace else peak_rss_mb)
    report["end_to_end"] = {**e2e, **extra}
    report["environment"] = environment(workload, args.seed)
    print(json.dumps(report))
    for name, m in report["end_to_end"].items():
        print(f"{workload.name:>13} {name:<14} {m['value']:>12.6g} {m['unit']}", file=sys.stderr)
    if args.trace:
        print(f"{workload.name:>13} top layer: {report['top_layer']}", file=sys.stderr)
    if missing:
        print(f"perfbench: per-layer counters are zero on {workload.name}: {missing}", file=sys.stderr)
        return 1
    result = {
        "correct": True,
        "attempted": len(loop.times),
        "failed": sum(loop.failed),
        "metrics": metrics if args.trace else e2e,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
