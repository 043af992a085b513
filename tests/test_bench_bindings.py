"""The benchmark's tracer still reaches every layer its workloads require.

``perfbench/spans.py`` rebinds layer functions by name; a renamed function
or a lost call path leaves a required counter at zero.  This runs each
workload's miniature warm-up input under the tracer, the check that
``perfbench/selftest.py`` makes on full runs, in well under a second.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import spans  # noqa: E402
import workloads  # noqa: E402

SEED = 7


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_required_counters_nonzero(name):
    workload = workloads.WORKLOADS[name]
    inp = workloads.warmup_input(workload, SEED)
    tracer = spans.Tracer()
    with tracer.bound():
        workloads.call(workload, inp, workloads.plan_seed(workload, SEED, 0))
    metrics = tracer.layer_metrics()
    assert [k for k in workload.required if not metrics.get(k)] == []
