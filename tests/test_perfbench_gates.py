"""The benchmark's correctness gates, run once as ordinary tests.

Each workload in perfbench/workloads.py runs one round on seed 1 and its
check must find nothing wrong; the bundled-scenario gate must pass too.
A broken gate (for example tsa.replay disagreeing with the live ledger)
then fails here, not first in a benchmark run. perfbench/ is only read.

The tracer wraps settlement functions by name, so one traced round pins
the counts in perfbench/op_counts.json: removing, renaming or aliasing a
traced boundary fails here rather than in a `--trace 1` run.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def workloads():
    name = "perfbench_workloads"
    spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses resolve their module by name
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[name]


@pytest.mark.parametrize("workload", ["treasury", "settlement", "audit"])
def test_one_round_passes_its_check(workloads, workload):
    setup, run, check = workloads.WORKLOADS[workload]
    state = setup(1, 0)
    rnd = run(state)
    assert check(state, rnd, True) == []


def test_every_workload_is_gated(workloads):
    assert sorted(workloads.WORKLOADS) == ["audit", "settlement", "treasury"]


def test_bundled_scenarios_pass_their_gate(workloads):
    assert workloads.bundled_gate(ROOT) == []


def test_tracer_counts_one_settlement_round(workloads):
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    setup, run, _ = workloads.WORKLOADS["settlement"]
    state = setup(1, 0)
    with tracer.Tracer() as tr:
        run(state)
    assert {name: tr.counts[name] for name in ("settlement.settle", "settlement.novate", "settlement.match")} == {
        "settlement.settle": 485,
        "settlement.novate": 485,
        "settlement.match": 3000,
    }
