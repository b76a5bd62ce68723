"""ledgerstack benchmark.

    python3 perfbench/run.py --workload treasury --seed 1 --seconds 35 --trace 0

Runs rounds of one workload (see workloads.py) for --seconds, checks every
gate, prints a readable report, and prints as its last line one JSON
object with `correct`, `attempted`, `failed` and `metrics`.

--trace 0 reports the end-to-end metrics with no tracer installed.
--trace 1 alternates untraced and traced rounds and reports per-layer
metrics from the traced ones, plus the tracing overhead and how much of
each timed region the top-level spans cover.

The package is imported from src/ of the checkout this file sits in, so
the benchmark always measures the source next to it.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

MIN_ROUNDS = 3  # per kind of round, whatever --seconds says
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

# (name, unit, better, bound) -- mirrors BENCHMARK.json
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("throughput", "1/s", "higher", 0.25),
    ("op_p50_ms", "ms", "lower", 0.25),
    ("op_tail_ms", "ms", "lower", 0.25),
    ("stage1_s", "s", "lower", 0.25),
    ("stage2_s", "s", "lower", 0.25),
)

# What the generic end-to-end names mean on each workload.
LABELS = {
    "treasury": ("recorded tx", "day", "days_s", "replay_s"),
    "settlement": ("trades", "match", "match_s", "cycle_s"),
    "audit": ("chain tx + trail records", "action", "chain_verify_s", "policy_s"),
}


def _calls(name):
    return lambda s: s["counts"].get(name, 0)


def _self(name):
    return lambda s: s["self_s"].get(name, 0.0)


def _ratio(num, den):
    return lambda s: num(s) / den(s) if den(s) else 0.0


_distinct = lambda s: s["distinct_verifies"]  # noqa: E731
_guarded = lambda s: _calls("integrity.execute_tp")(s) + _calls("integrity.alter_authorization")(s)  # noqa: E731

# (name, unit, better, value from one traced round's Tracer.summary())
PER_LAYER = (
    ("crypto.verify.calls", "count", "lower", _calls("crypto.verify")),
    ("crypto.verify.distinct", "count", "lower", _distinct),
    ("crypto.verify.self_s", "s", "lower", _self("crypto.verify")),
    ("crypto.verify.useful_ratio", "ratio", "higher", _ratio(_distinct, _calls("crypto.verify"))),
    ("crypto.sign.calls", "count", "lower", _calls("crypto.sign")),
    ("crypto.sign.self_s", "s", "lower", _self("crypto.sign")),
    ("crypto.keygen.calls", "count", "lower", _calls("crypto.keygen")),
    ("crypto.sha256d.calls", "count", "lower", _calls("crypto.sha256d")),
    ("crypto.sha256d.bytes", "bytes", "lower", _calls("crypto.sha256d.bytes")),
    ("crypto.sha256d.self_s", "s", "lower", _self("crypto.sha256d")),
    ("crypto.canonical_json.calls", "count", "lower", _calls("crypto.canonical_json")),
    ("crypto.canonical_json.self_s", "s", "lower", _self("crypto.canonical_json")),
    ("crypto.merkle_root.calls", "count", "lower", _calls("crypto.merkle_root")),
    ("crypto.merkle_root.self_s", "s", "lower", _self("crypto.merkle_root")),
    ("chain.Transaction.create.calls", "count", "lower", _calls("chain.Transaction.create")),
    ("chain.Transaction.create.self_s", "s", "lower", _self("chain.Transaction.create")),
    ("chain.build_block.calls", "count", "lower", _calls("chain.build_block")),
    ("chain.build_block.self_s", "s", "lower", _self("chain.build_block")),
    ("chain.approve_and_append.calls", "count", "lower", _calls("chain.approve_and_append")),
    ("chain.approve_and_append.self_s", "s", "lower", _self("chain.approve_and_append")),
    ("chain.block_id.calls", "count", "lower", _calls("chain.block_id")),
    ("chain.verify_chain.self_s", "s", "lower", _self("chain.verify_chain")),
    ("chain.from_jsonl.self_s", "s", "lower", _self("chain.from_jsonl")),
    ("tsa.record.calls", "count", "lower", _calls("tsa.record")),
    ("tsa.record.self_s", "s", "lower", _self("tsa.record")),
    ("tsa.end_of_day_sweep.self_s", "s", "lower", _self("tsa.end_of_day_sweep")),
    ("tsa.day_close.self_s", "s", "lower", _self("tsa.day_close")),
    ("tsa.replay.self_s", "s", "lower", _self("tsa.replay")),
    ("contracts.invoke.calls", "count", "lower", _calls("contracts.invoke")),
    ("contracts.invoke.self_s", "s", "lower", _self("contracts.invoke")),
    ("contracts.steps_used", "count", "lower", _calls("contracts.steps_used")),
    ("settlement.match.calls", "count", "lower", _calls("settlement.match")),
    ("settlement.match.self_s", "s", "lower", _self("settlement.match")),
    ("settlement.match.failed", "count", "lower", _calls("settlement.match.failed")),
    ("settlement.trades_from_csv.self_s", "s", "lower", _self("settlement.trades_from_csv")),
    ("settlement.run_cycle.self_s", "s", "lower", _self("settlement.run_cycle")),
    ("settlement.novate.calls", "count", "lower", _calls("settlement.novate")),
    ("settlement.net_positions.self_s", "s", "lower", _self("settlement.net_positions")),
    ("settlement.settle.attempts", "count", "lower", _calls("settlement.settle")),
    (
        "settlement.settle.useful_ratio",
        "ratio",
        "higher",
        _ratio(_calls("settlement.settle.settled"), _calls("settlement.settle")),
    ),
    ("integrity.execute_tp.calls", "count", "lower", _calls("integrity.execute_tp")),
    ("integrity.execute_tp.self_s", "s", "lower", _self("integrity.execute_tp")),
    ("integrity.alter_authorization.calls", "count", "lower", _calls("integrity.alter_authorization")),
    ("integrity.audit_append.calls", "count", "lower", _calls("integrity.audit_append")),
    ("integrity.audit_append.self_s", "s", "lower", _self("integrity.audit_append")),
    ("integrity.audit_verify.self_s", "s", "lower", _self("integrity.audit_verify")),
    ("integrity.allowed_ratio", "ratio", "higher", _ratio(_calls("integrity.allowed"), _guarded)),
    ("engine.report_bytes.self_s", "s", "lower", _self("engine.report_bytes")),
    # the two below are filled in by main(): the bundled-scenario gate and
    # the comparison of traced with untraced rounds
    ("engine.run_scenario.self_s", "s", "lower", None),
    ("trace.overhead_s", "s", "lower", None),
    ("trace.coverage", "ratio", "higher", None),
)


def use_checkout_source() -> None:
    """Import ledgerstack from this checkout's src/, or exit non-zero."""
    if not (SRC / "ledgerstack" / "__init__.py").is_file():
        sys.exit(f"perfbench: no ledgerstack source under {SRC}")
    sys.path.insert(0, str(SRC))
    import ledgerstack

    if not Path(ledgerstack.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: imported ledgerstack from {ledgerstack.__file__}, not {SRC}")


def tail(samples: list[float]) -> tuple[float, float]:
    """Highest ladder percentile with at least ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in TAIL_LADDER:
        rank = math.ceil(p / 100 * n)
        if n - rank >= 10:
            return p, ordered[rank - 1]
    return 50.0, statistics.median(ordered)


def end_to_end(rounds, workload: str) -> tuple[dict[str, float], list[str]]:
    unit_name, op_name, stage1, stage2 = LABELS[workload]
    per_round = len(rounds[0].op_samples)
    p = tail(rounds[0].op_samples)[0]
    values = {
        "setup_s": statistics.median(r.setup_s for r in rounds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "throughput": statistics.median(r.throughput for r in rounds),
        "op_p50_ms": statistics.median(statistics.median(r.op_samples) for r in rounds) * 1e3,
        "op_tail_ms": statistics.median(tail(r.op_samples)[1] for r in rounds) * 1e3,
        "stage1_s": statistics.median(r.stage1_s for r in rounds),
        "stage2_s": statistics.median(r.stage2_s for r in rounds),
    }
    scale, unit = (1, "ms") if op_name == "day" else (1e3, "us")
    beyond = per_round - math.ceil(p / 100 * per_round)
    of_rounds = f"median of {len(rounds)} rounds"
    notes = {
        "setup_s": f"median of {len(rounds)} set-ups",
        "peak_rss_mb": "peak resident set of this process",
        "throughput": f"{unit_name} per second over both stages, {of_rounds}",
        "op_p50_ms": f"{op_name}_p50_{unit} = {values['op_p50_ms'] * scale:.4f} {unit}; "
        f"per-round p50 of {per_round} samples, {of_rounds}",
        "op_tail_ms": f"{op_name}_tail_{unit} = {values['op_tail_ms'] * scale:.4f} {unit}; per-round p{p:g} "
        f"of {per_round} samples ({beyond} beyond), {of_rounds}",
        "stage1_s": f"{stage1}, {of_rounds}",
        "stage2_s": f"{stage2}, {of_rounds}",
    }
    lines = [f"{name:<14} {values[name]:>14.6f} {unit_:<4} {notes[name]}" for name, unit_, _, _ in END_TO_END]
    return values, lines


def per_layer(traced, untraced, gate_summary) -> tuple[dict[str, float], list[str]]:
    summaries = [s for _, s in traced]
    values = {}
    for name, unit, _, get in PER_LAYER:
        if get is None:
            continue
        if unit == "s":
            values[name] = statistics.median(get(s) for s in summaries)
        else:
            values[name] = get(summaries[0])
    values["engine.run_scenario.self_s"] = gate_summary["self_s"].get("engine.run_scenario", 0.0)
    traced_wall = statistics.median(r.timed_s for r, _ in traced)
    values["trace.overhead_s"] = traced_wall - statistics.median(r.timed_s for r in untraced)
    values["trace.coverage"] = statistics.median(s["top_level_s"] / r.timed_s for r, s in traced)
    units = {name: unit for name, unit, _, _ in PER_LAYER}
    lines = [f"{name:<38} {values[name]:>16.6f} {units[name]}" for name, _, _, _ in PER_LAYER]
    lines.append(
        f"(medians of {len(traced)} traced rounds; counts are per round; "
        f"overhead is traced minus untraced timed wall of {len(untraced)} untraced rounds)"
    )
    return values, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("treasury", "settlement", "audit"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    use_checkout_source()
    import tracer
    import workloads

    setup, run, check = workloads.WORKLOADS[args.workload]
    errors: list[str] = []
    gate_tracer = tracer.Tracer()
    with gate_tracer if args.trace else nullcontext():
        errors += workloads.bundled_gate(ROOT)

    untraced, traced = [], []
    deadline = time.perf_counter() + args.seconds
    round_no = 0
    while True:
        t0 = time.perf_counter()
        state = setup(args.seed, round_no)
        setup_s = time.perf_counter() - t0
        gc.collect()
        tr = tracer.Tracer() if args.trace and round_no % 2 == 1 else None
        with tr or nullcontext():
            rnd = run(state)
        rnd.setup_s = setup_s
        errors += check(state, rnd, round_no == 0)
        if tr:
            traced.append((rnd, tr.summary()))
        else:
            untraced.append(rnd)
        del state, tr
        round_no += 1
        enough = len(untraced) >= MIN_ROUNDS and (not args.trace or len(traced) >= MIN_ROUNDS)
        if enough and time.perf_counter() >= deadline:
            break

    rounds = untraced + [r for r, _ in traced]
    digests = {r.digest for r in rounds}
    if len(digests) != 1:
        errors.append(f"determinism: {len(digests)} distinct output digests across {len(rounds)} rounds")
    counts = [(s["counts"], s["distinct_verifies"]) for _, s in traced]
    if any(c != counts[0] for c in counts):
        errors.append("determinism: operation counts differ between traced rounds")

    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    print(
        f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
        f"rounds={len(untraced)} untraced, {len(traced)} traced"
    )
    if args.trace:
        metrics, lines = per_layer(traced, untraced, gate_tracer.summary())
        spec = {name: unit for name, unit, _, _ in PER_LAYER}
    else:
        metrics, lines = end_to_end(untraced, args.workload)
        spec = {name: unit for name, unit, _, _ in END_TO_END}
    print("\n".join(lines))
    print(f"failed_share   {failed / attempted:.6f} ({failed} of {attempted} operations failed)")
    print(f"digest         {rounds[0].digest}")
    for err in errors:
        print(f"GATE FAILED: {err}", file=sys.stderr)
    print("correct" if not errors else f"INCORRECT: {len(errors)} gate(s) failed")
    print(
        json.dumps(
            {
                "correct": not errors,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in spec.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
