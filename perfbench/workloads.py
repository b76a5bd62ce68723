"""Seeded inputs, timed rounds and correctness gates for the three workloads.

Each workload is a closed loop: one caller in one thread issues each
operation after the previous one returns. A round is set-up (untimed,
reported as setup_s), then the timed stages, then the gates. Inputs depend
only on the seed, so every round of a run replays the same inputs, except
that each audit round verifies a chain signed under a fresh key.

Stage 1 and stage 2 per workload:

    treasury    business days          tsa.replay of the whole chain
    settlement  OrderBook.match stream CSV text -> run_cycle -> report bytes
    audit       Chain.from_jsonl+verify guarded actions + audit_verify
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from ledgerstack import chain, crypto, engine, integrity, settlement, tsa

clock = time.perf_counter


@dataclass
class Round:
    """What one round measured. Times are seconds."""

    stage1_s: float
    stage2_s: float
    op_samples: list[float]  # per-operation latency: a day, a match, an action
    units: int  # numerator of throughput
    attempted: int
    failed: int
    digest: str
    setup_s: float = 0.0

    @property
    def timed_s(self) -> float:
        return self.stage1_s + self.stage2_s

    @property
    def throughput(self) -> float:
        return self.units / self.timed_s


def _seed_bytes(label: str) -> bytes:
    return hashlib.sha256(label.encode("utf-8")).digest()


# ---------------------------------------------------------------------------
# treasury

# Every account kind, a few hundred accounts in all.
ACCOUNT_MIX = (("zba", 90), ("transit", 60), ("correspondent", 30), ("imprest", 45), ("subsidiary", 75))


@dataclass(frozen=True)
class TreasuryInputs:
    accounts: list[tuple[str, str, int | None]]  # (id, kind, cap)
    days: list[tuple[list[tuple[str, str, int, str]], int]]  # (ops, buffer requirement)


def treasury_inputs(seed: int, label: str = "treasury", scale: int = 1, days: int = 100) -> TreasuryInputs:
    """Accounts of every kind and a stream of business days.

    A day is receipts then disbursements. A disbursement never takes more
    than the account received earlier the same day, so no op overdraws
    whatever the sweeps did before.
    """
    rng = random.Random(f"{label}:{seed}")
    kinds = [kind for kind, n in ACCOUNT_MIX for _ in range(n // scale)]
    rng.shuffle(kinds)
    accounts: list[tuple[str, str, int | None]] = [("main", "main", None)]
    for i, kind in enumerate(kinds):
        cap = rng.randrange(50_000, 500_000) if kind == "imprest" else None
        accounts.append((f"{kind[:3]}{i:04d}", kind, cap))
    ids = [a[0] for a in accounts]
    stream = []
    for day in range(1, days + 1):
        ops: list[tuple[str, str, int, str]] = []
        available: dict[str, int] = {}
        for j in range(20):
            acct = rng.choice(ids)
            amount = rng.randrange(1_000, 1_000_000)
            available[acct] = available.get(acct, 0) + amount
            ops.append(("receipt", acct, amount, f"rcpt-{day}-{j}"))
        for j in range(10):
            acct = rng.choice(sorted(a for a, v in available.items() if v > 0))
            amount = rng.randrange(1, available[acct] // 2 + 2)
            available[acct] -= amount
            ops.append(("disburse", acct, amount, f"disb-{day}-{j}"))
        stream.append((ops, rng.randrange(0, 20_000_000)))
    return TreasuryInputs(accounts, stream)


def open_accounts(ledger: tsa.TsaLedger, inputs: TreasuryInputs) -> None:
    for acct_id, kind, cap in inputs.accounts:
        ledger.open_account(acct_id, kind, cap=cap)
    ledger.day_close()


def business_day(ledger: tsa.TsaLedger, ops: list[tuple[str, str, int, str]], requirement: int) -> None:
    for op, acct, amount, memo in ops:
        if op == "receipt":
            ledger.record_receipt(acct, amount, memo)
        else:
            ledger.record_disbursement(acct, amount, memo)
    ledger.end_of_day_sweep()
    ledger.check_buffer(requirement)
    ledger.day_close()


@dataclass
class TreasuryState:
    inputs: TreasuryInputs
    ledger: tsa.TsaLedger
    replayed: dict[str, Any] | None = None


def treasury_setup(seed: int, round_no: int) -> TreasuryState:
    inputs = treasury_inputs(seed)
    ledger = tsa.TsaLedger(operator_seed=_seed_bytes(f"treasury-operator:{seed}"))
    open_accounts(ledger, inputs)
    return TreasuryState(inputs, ledger)


def treasury_run(st: TreasuryState) -> Round:
    ledger = st.ledger
    opened = len(ledger.chain.blocks)
    samples = []
    for ops, requirement in st.inputs.days:
        t0 = clock()
        business_day(ledger, ops, requirement)
        samples.append(clock() - t0)
    t0 = clock()
    st.replayed = tsa.replay(ledger.chain.blocks, ledger.chain.config)
    replay_s = clock() - t0
    recorded = sum(len(b.txs) for b in ledger.chain.blocks[opened:])
    return Round(
        stage1_s=sum(samples),
        stage2_s=replay_s,
        op_samples=samples,
        units=recorded,
        attempted=sum(len(ops) + 3 for ops, _ in st.inputs.days) + 1,
        failed=0,
        digest=ledger.chain.tip.block_id.hex(),
    )


def treasury_check(st: TreasuryState, rnd: Round, first: bool) -> list[str]:
    if st.replayed != st.ledger.state():
        return ["treasury: tsa.replay(...) differs from ledger.state()"]
    return []


# ---------------------------------------------------------------------------
# settlement

MEMBERS = 200
MAKERS = 150  # the other 50 members are takers
ASSETS = (("BOND", 1000), ("BILL", 500), ("NOTE", 2000), ("EQTY", 250))
ORDERS = 3000
TRADE_DAYS = 5
CYCLE = settlement.CycleConfig(lag_days=2, mode=settlement.MODE_CCP, leg_mode=settlement.DVP)


def settlement_inputs(seed: int) -> list[tuple[str, str, str, str, int, int, int]]:
    """A clearing day's order stream.

    Sides alternate and assets rotate, so every book side gets the same
    number of orders. One run of eight orders in ten is aggressive and
    crosses up to twenty ticks; the rest quote passively around the mid
    and rest.

    Market makers send the passive quotes. Their activity is Zipf-skewed,
    so active makers hold several resting orders per side. Takers send the
    aggressive orders, each at most one per asset and side, so no member
    ever has two resting orders on the side an order of its own crosses:
    `OrderBook.match` raises in that case, and a workload must not fail.
    """
    rng = random.Random(f"settlement:{seed}")
    makers = [f"M{i:03d}" for i in range(MAKERS)]
    weights = [1.0 / (i + 1) for i in range(MAKERS)]
    free = {}  # (asset, side) -> takers that have not sent that order yet
    orders = []
    for i in range(ORDERS):
        side = settlement.BUY if i % 2 == 0 else settlement.SELL
        asset, mid = ASSETS[(i // 2) % len(ASSETS)]
        sign = 1 if side == settlement.BUY else -1
        if (i // 8) % 10 == 9:
            price = mid + sign * rng.randrange(0, 20)
            pool = free.setdefault((asset, side), [f"M{n:03d}" for n in range(MAKERS, MEMBERS)])
            member = pool.pop(rng.randrange(len(pool)))
        else:
            price = mid - sign * rng.randrange(1, 60)
            member = rng.choices(makers, weights)[0]
        orders.append((f"O{i:05d}", member, side, asset, rng.randrange(1, 50), price, i * TRADE_DAYS // ORDERS))
    return orders


@dataclass
class SettlementState:
    orders: list[settlement.Order]
    trades: list[settlement.Trade] = field(default_factory=list)
    csv_text: str = ""
    report: settlement.CycleReport | None = None
    report_bytes: bytes = b""


def settlement_setup(seed: int, round_no: int) -> SettlementState:
    return SettlementState([settlement.Order(*row) for row in settlement_inputs(seed)])


def trades_csv(trades: list[settlement.Trade]) -> str:
    rows = ["id,buyer,seller,asset,quantity,price,day\n"]
    rows += [f"{t.id},{t.buyer},{t.seller},{t.asset},{t.quantity},{t.price},{t.trade_day}\n" for t in trades]
    return "".join(rows)


def settlement_run(st: SettlementState) -> Round:
    book = settlement.OrderBook()
    samples, failed = [], 0
    for order in st.orders:
        t0 = clock()
        try:
            st.trades.extend(book.match(order))
        except settlement.SettlementError:
            failed += 1
        samples.append(clock() - t0)
    st.csv_text = trades_csv(st.trades)
    t0 = clock()
    parsed = settlement.trades_from_csv(st.csv_text)
    st.report = settlement.run_cycle(parsed, CYCLE)
    st.report_bytes = engine.report_bytes(st.report.to_obj())
    cycle_s = clock() - t0
    return Round(
        stage1_s=sum(samples),
        stage2_s=cycle_s,
        op_samples=samples,
        units=len(st.trades),
        attempted=len(st.orders) + 1,
        failed=failed,
        digest=hashlib.sha256(st.report_bytes).hexdigest(),
    )


def brute_force_netting(trades: list[settlement.Trade]) -> list[tuple[str, str, int, int]]:
    """Per (member, asset): quantity bought minus sold, cash received minus paid."""
    members = sorted({t.buyer for t in trades} | {t.seller for t in trades})
    assets = sorted({t.asset for t in trades})
    rows = []
    for member in members:
        mine = [t for t in trades if member in (t.buyer, t.seller)]
        for asset in assets:
            qty = cash = 0
            for t in mine:
                if t.asset != asset:
                    continue
                if t.buyer == member:
                    qty, cash = qty + t.quantity, cash - t.quantity * t.price
                else:
                    qty, cash = qty - t.quantity, cash + t.quantity * t.price
            if qty or cash:
                rows.append((member, asset, qty, cash))
    return rows


def settlement_check(st: SettlementState, rnd: Round, first: bool) -> list[str]:
    errors = []
    report = st.report
    # Unpinned cycles fund each seller's asset leg, each buyer's cash leg and
    # the CCP with both; settlement only moves value between members.
    cash = 2 * sum(t.quantity * t.price for t in st.trades)
    assets: dict[str, int] = {}
    for t in st.trades:
        assets[t.asset] = assets.get(t.asset, 0) + 2 * t.quantity
    held_cash = sum(e["cash"] for e in report.final_holdings.values())
    held: dict[str, int] = {}
    for entry in report.final_holdings.values():
        for sym, qty in entry["assets"].items():
            held[sym] = held.get(sym, 0) + qty
    if held_cash != cash:
        errors.append(f"settlement: cash not conserved ({held_cash} held, {cash} funded)")
    if held != assets:
        errors.append(f"settlement: assets not conserved ({held} held, {assets} funded)")
    expected = brute_force_netting(st.trades)
    got = [(p.member, p.asset, p.net_quantity, p.net_cash) for p in settlement.net_positions(settlement.trades_from_csv(st.csv_text))]
    if got != expected:
        errors.append("settlement: net_positions differs from brute-force netting")
    net = sum(max(0, -q) + max(0, -c) for _, _, q, c in expected)
    if report.net_obligations != net:
        errors.append(f"settlement: net obligations {report.net_obligations}, brute force {net}")
    return errors


# ---------------------------------------------------------------------------
# audit

AUDIT_SCALE = 2  # the audit chain has half the treasury workload's accounts
AUDIT_DAYS = 30
ACTIONS = 8000
PERFBENCH = Path(__file__).resolve().parent


def audit_operator_seed(seed: int, round_no: int) -> bytes:
    # A fresh key per round: the timed verify never sees a signature this
    # process has verified before, as in a fresh `ledgerstack chain verify`.
    return _seed_bytes(f"audit-operator:{seed}:{round_no}")


def audit_chain_inputs(seed: int) -> TreasuryInputs:
    return treasury_inputs(seed, label="audit", scale=AUDIT_SCALE, days=AUDIT_DAYS)


def write_audit_chain(seed: int, round_no: int) -> str:
    """Run chain_writer.py in its own process; return the JSONL it writes."""
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "chain_writer.py"), str(seed), str(round_no)],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return proc.stdout


TELLERS = [f"teller{i:02d}" for i in range(16)]
CLERKS = [f"clerk{i:02d}" for i in range(8)]
ITEMS = [f"acct{i:02d}" for i in range(48)]
TPS = ("credit", "debit")


def policy_inputs(seed: int) -> tuple[dict[str, Any], list[tuple]]:
    """A policy document and a stream of guarded actions.

    Each teller is granted both procedures over a home set of items and
    mostly acts there; clerks hold no grants. Certifiers never receive
    grants and every id is registered, so no action raises: denials (no
    triple, level, predicate, not privileged) are ordinary outcomes.
    """
    rng = random.Random(f"audit-policy:{seed}")
    home = {s: rng.sample(ITEMS, 6) for s in TELLERS}
    subjects = [{"id": "admin0", "biba_level": 3, "privileged": True}, {"id": "admin1", "biba_level": 3, "privileged": True}]
    subjects += [{"id": "certifier", "biba_level": 3}]
    subjects += [{"id": s, "biba_level": rng.choice((1, 2, 2))} for s in TELLERS + CLERKS]
    items = [{"id": i, "biba_level": rng.choice((1, 2)), "value": rng.randrange(10_000, 1_000_000)} for i in ITEMS]
    doc = {
        "subjects": subjects,
        "items": items,
        "tps": [{"id": tp, "builtin": tp, "certified_by": "certifier"} for tp in TPS],
        "ivps": [{"item": i, "builtin": "non_negative_int"} for i in ITEMS],
        "triples": [{"subject": s, "tp": tp, "cdis": home[s]} for s in TELLERS for tp in TPS],
    }
    actors = TELLERS + CLERKS
    actions: list[tuple] = []
    for _ in range(ACTIONS):
        actor = rng.choice(actors)
        if rng.random() < 0.9:
            pool = home[actor] if actor in home and rng.random() < 0.85 else ITEMS
            targets = rng.sample(pool, rng.choice((1, 1, 2)))
            amount = rng.randrange(1, 200_000)
            actions.append(("execute_tp", actor, rng.choice(TPS), targets, {"amount": amount}))
        else:
            admin = rng.choice(("admin0", "admin1", rng.choice(TELLERS)))
            triple = integrity.Triple.of(actor, rng.choice(TPS), rng.sample(ITEMS, 4))
            actions.append(("alter_authorization", admin, triple, rng.choice((integrity.GRANT, integrity.REVOKE))))
    return doc, actions


@dataclass
class AuditState:
    seed: int
    jsonl: str
    config: chain.ChainConfig
    policy: integrity.PolicyState
    actions: list[tuple]
    imported: chain.Chain | None = None
    chain_result: chain.VerifyResult | None = None
    trail_result: integrity.AuditResult | None = None


def audit_setup(seed: int, round_no: int) -> AuditState:
    operator = crypto.keygen(audit_operator_seed(seed, round_no))
    config = chain.ChainConfig(mode="quorum", validators=(operator.public,), quorum_m=1)
    doc, actions = policy_inputs(seed)
    return AuditState(seed, write_audit_chain(seed, round_no), config, integrity.load_policy(doc), actions)


def audit_run(st: AuditState) -> Round:
    t0 = clock()
    st.imported = chain.Chain.from_jsonl(st.jsonl, st.config)
    st.chain_result = st.imported.verify()
    verify_s = clock() - t0
    ps = st.policy
    samples = []
    t1 = clock()
    for action in st.actions:
        t = clock()
        if action[0] == "execute_tp":
            ps.execute_tp(action[1], action[2], action[3], action[4])
        else:
            ps.alter_authorization(action[1], action[2], action[3])
        samples.append(clock() - t)
    st.trail_result = integrity.audit_verify(ps.audit.records)
    policy_s = clock() - t1
    txs = sum(len(b.txs) for b in st.imported.blocks)
    return Round(
        stage1_s=verify_s,
        stage2_s=policy_s,
        op_samples=samples,
        units=txs + len(ps.audit),
        attempted=len(st.actions) + 2,
        failed=0,
        digest=ps.audit.records[-1].record_hash.hex(),
    )


def _flip(data: bytes, rng: random.Random) -> bytes:
    pos = rng.randrange(len(data))
    return data[:pos] + bytes([data[pos] ^ rng.randrange(1, 256)]) + data[pos + 1 :]


def audit_check(st: AuditState, rnd: Round, first: bool) -> list[str]:
    errors = []
    if not st.chain_result.valid:
        errors.append(f"audit: chain invalid: {st.chain_result}")
    if not st.trail_result.valid:
        errors.append(f"audit: trail invalid at {st.trail_result.first_bad_seq}")
    if not first:
        return errors
    rng = random.Random(f"audit-tamper:{st.seed}")
    blocks = list(st.imported.blocks)
    height = rng.randrange(1, len(blocks))
    block = blocks[height]
    field_name = rng.choice(("payload", "signature", "merkle_root", "approval"))
    if field_name in ("payload", "signature"):
        t = rng.randrange(len(block.txs))
        tx = block.txs[t]
        hurt = dataclasses.replace(tx, **{field_name: _flip(getattr(tx, field_name), rng)})
        block = chain.Block(block.header, block.txs[:t] + (hurt,) + block.txs[t + 1 :], block.approvals)
    elif field_name == "merkle_root":
        header = dataclasses.replace(block.header, merkle_root=_flip(block.header.merkle_root, rng))
        block = chain.Block(header, block.txs, block.approvals)
    else:
        ap = block.approvals[0]
        block = chain.Block(block.header, block.txs, (dataclasses.replace(ap, signature=_flip(ap.signature, rng)),))
    blocks[height] = block
    result = chain.verify_chain(blocks, st.config)
    if result.valid or result.first_bad_height is None or result.first_bad_height > height:
        errors.append(f"audit: {field_name} flip at height {height} reported as {result}")
    records = list(st.policy.audit.records)
    seq = rng.randrange(len(records))
    records[seq] = dataclasses.replace(records[seq], detail=records[seq].detail + "!")
    trail = integrity.audit_verify(records)
    if trail.valid or trail.first_bad_seq != seq:
        errors.append(f"audit: record {seq} mutated, trail reported {trail}")
    return errors


# ---------------------------------------------------------------------------
# bundled scenarios


def bundled_gate(root: Path) -> list[str]:
    """Run every bundled scenario twice: reports must be byte-identical,
    and tsa_day_cycle must match the committed golden report."""
    scenarios = root / "src" / "ledgerstack" / "scenarios"
    errors = []
    for path in sorted(scenarios.glob("*.jsonl")):
        text = path.read_text(encoding="utf-8")
        runs = [engine.report_bytes(engine.run_scenario(text, name=path.stem)) for _ in range(2)]
        if runs[0] != runs[1]:
            errors.append(f"bundled: {path.name} report differs between runs")
        if path.stem == "tsa_day_cycle":
            golden = (root / "tests" / "golden" / "tsa_day_cycle.report.json").read_bytes()
            if runs[0] != golden:
                errors.append("bundled: tsa_day_cycle report differs from tests/golden")
    text = (scenarios / "trades_sample.csv").read_text(encoding="utf-8")
    runs = [
        engine.report_bytes(settlement.run_cycle(settlement.trades_from_csv(text), CYCLE).to_obj())
        for _ in range(2)
    ]
    if runs[0] != runs[1]:
        errors.append("bundled: trades_sample.csv settle report differs between runs")
    return errors


WORKLOADS = {
    "treasury": (treasury_setup, treasury_run, treasury_check),
    "settlement": (settlement_setup, settlement_run, settlement_check),
    "audit": (audit_setup, audit_run, audit_check),
}
