"""The benchmark's correctness gates, run once as ordinary tests.

Each workload in perfbench/workloads.py runs one round on seed 1 (audit
also on seeds 2-4); its check must find nothing wrong, no operation may
fail, and the seed-1 settlement and treasury digests must not move. The
bundled-scenario gate must pass too.
A broken gate (for example tsa.replay disagreeing with the live ledger)
then fails here, not first in a benchmark run. perfbench/ is only read.

The tracer wraps functions by name, so one traced round of each workload
pins its counts: removing, renaming or aliasing a traced boundary, or
signing, verifying, hashing a Merkle root or sealing once more per block
or transaction, fails here rather than in a `--trace 1` run.
"""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# Audit seeds 1-4 tamper with the approval, a payload, a transaction
# signature and the merkle root in their first round, so every branch of
# audit_check runs.
# The seed-1 outputs in full: the settlement report digest and the treasury
# chain tip. Audit's depend on a key fresh to each round.
SEED1_DIGESTS = {
    "settlement": "a218ca171b5ae5b502d7d919b1261d1795bbf5950d48406d157127a27c6ee88c",
    "treasury": "9b8778aa260f6586c9fbd9376614662cbfc4859c48190fb57fb26452757aa1d6",
}


@pytest.mark.parametrize(
    "workload, seed",
    [("treasury", 1), ("settlement", 1), ("audit", 1), ("audit", 2), ("audit", 3), ("audit", 4)],
)
def test_one_round_passes_its_check(workloads, workload, seed):
    setup, run, check = workloads.WORKLOADS[workload]
    state = setup(seed, 0)
    rnd = run(state)
    assert check(state, rnd, True) == []
    assert rnd.failed == 0
    if seed == 1 and workload in SEED1_DIGESTS:
        assert rnd.digest == SEED1_DIGESTS[workload]


def test_every_workload_is_gated(workloads):
    assert sorted(workloads.WORKLOADS) == ["audit", "settlement", "treasury"]


def test_bundled_scenarios_pass_their_gate(workloads):
    assert workloads.bundled_gate(ROOT) == []


def traced_counts(workloads, name):
    """The tracer's call counts over one seed-1 round of workload `name`."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    setup, run, _ = workloads.WORKLOADS[name]
    state = setup(1, 0)
    with tracer.Tracer() as tr:
        run(state)
    return tr.counts


# the boundaries every sealed block passes through
SEAL_COUNTS = (
    "crypto.sign", "crypto.verify", "crypto.merkle_root", "chain.build_block", "chain.approve_and_append",
)


def test_tracer_counts_one_settlement_round(workloads):
    counts = traced_counts(workloads, "settlement")
    assert {name: counts[name] for name in ("settlement.settle", "settlement.novate", "settlement.match")} == {
        "settlement.settle": 485,
        "settlement.novate": 485,
        "settlement.match": 3000,
    }
    # one signature and one verify per transaction and per block approval,
    # one Merkle root per block
    assert {name: counts[name] for name in SEAL_COUNTS} == {
        "crypto.sign": 1959,
        "crypto.verify": 1959,
        "crypto.merkle_root": 17,
        "chain.build_block": 17,
        "chain.approve_and_append": 17,
    }


def test_tracer_counts_one_treasury_round(workloads):
    counts = traced_counts(workloads, "treasury")
    assert {name: counts[name] for name in SEAL_COUNTS} == {
        "crypto.sign": 3300,
        "crypto.verify": 3300,
        "crypto.merkle_root": 100,
        "chain.build_block": 100,
        "chain.approve_and_append": 100,
    }


def test_tracer_counts_one_audit_round(workloads):
    # An imported chain hashes each block's root once, in its first verify,
    # and verifies each of its 1,111 transactions and 31 approvals once.
    counts = traced_counts(workloads, "audit")
    assert {name: counts[name] for name in ("crypto.sign", "crypto.verify", "crypto.merkle_root")} == {
        "crypto.sign": 0,
        "crypto.verify": 1142,
        "crypto.merkle_root": 31,
    }
