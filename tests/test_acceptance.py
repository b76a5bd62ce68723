"""Acceptance gate: twelve properties, one printed line each.

Run with `pytest tests/test_acceptance.py -v` and read the PASS/FAIL
lines. Each criterion body is self-contained so a failure points at the
property, not at test plumbing.
"""

import copy
import dataclasses
import itertools
import random
import time
from importlib import resources

from oracles import net_positions_oracle, sha256d_pure

from ledgerstack import bank_ledger as bank
from ledgerstack import chain as chain_mod
from ledgerstack import crypto
from ledgerstack import engine
from ledgerstack import escrow as es
from ledgerstack import integrity
from ledgerstack import settlement as st
from ledgerstack import tsa


def _run(request, label, budget_s, body):
    reporter = request.config.pluginmanager.get_plugin("terminalreporter")

    def line(text):
        if reporter is not None:
            reporter.write_line(text)
        else:
            print(text)

    t0 = time.perf_counter()
    try:
        body()
    except BaseException:
        line(f"FAIL  {label}")
        raise
    elapsed = time.perf_counter() - t0
    within = budget_s is None or elapsed < budget_s
    verdict = "PASS" if within else "FAIL"
    budget = "" if budget_s is None else f", budget {budget_s:g}s"
    line(f"{verdict}  {label} ({elapsed:.2f}s{budget})")
    assert within, f"{label}: {elapsed:.2f}s exceeded the {budget_s:g}s budget"


# -- 1 -----------------------------------------------------------------------


def test_01_hashing_golden_suite(request):
    def body():
        rng = random.Random(0xF1F5)
        vectors = [
            b"",
            b"abc",
            b"hello",
            bytes(range(256)),
            b"a" * 55,  # one byte short of the first padding boundary
            b"a" * 56,
            b"a" * 63,
            b"a" * 64,
            b"a" * 65,
            b"The quick brown fox jumps over the lazy dog",
            b"\x00" * 32,
            b"\xff" * 100,
        ]
        while len(vectors) < 20:
            vectors.append(rng.randbytes(rng.randrange(1, 300)))
        assert len(vectors) == 20
        for v in vectors:
            assert crypto.sha256d(v) == sha256d_pure(v)

    _run(request, "1. double-hash matches an independent implementation", 1.0, body)


# -- 2 -----------------------------------------------------------------------


def _ten_block_chain(operator):
    config = chain_mod.ChainConfig(
        mode="quorum", validators=(operator.public,), quorum_m=1
    )
    ch = chain_mod.Chain(config)
    for h in range(1, 11):
        txs = [
            chain_mod.Transaction.create("note", {"h": h, "i": i}, operator)
            for i in range(2)
        ]
        ch.seal(txs, h, operator)
    return ch


def _flip_byte(raw, rng):
    idx = rng.randrange(len(raw))
    out = bytearray(raw)
    out[idx] ^= 1 << rng.randrange(8)
    return bytes(out)


def test_02_tamper_localization(request):
    def body():
        rng = random.Random(0x7A3B)
        operator = crypto.keygen(b"\x51" * 32)
        pristine = _ten_block_chain(operator)
        for _ in range(200):
            blocks = copy.deepcopy(pristine.blocks)
            h = rng.randrange(1, 11)
            block = blocks[h]
            kind = rng.choice(("payload", "merkle_root", "prev_hash", "signature"))
            if kind == "payload":
                t = rng.randrange(len(block.txs))
                tx = block.txs[t]
                hurt = dataclasses.replace(tx, payload=_flip_byte(tx.payload, rng))
                block.txs = block.txs[:t] + (hurt,) + block.txs[t + 1 :]
            elif kind == "merkle_root":
                block.header = dataclasses.replace(
                    block.header, merkle_root=_flip_byte(block.header.merkle_root, rng)
                )
            elif kind == "prev_hash":
                block.header = dataclasses.replace(
                    block.header, prev_hash=_flip_byte(block.header.prev_hash, rng)
                )
            else:
                a = block.approvals[0]
                block.approvals = (
                    dataclasses.replace(a, signature=_flip_byte(a.signature, rng)),
                )
            result = chain_mod.verify_chain(blocks, pristine.config)
            assert not result.valid
            assert result.first_bad_height is not None
            assert result.first_bad_height <= h

    _run(request, "2. single-byte tampering is localized at or before its block", 10.0, body)


# -- 3 -----------------------------------------------------------------------


def _policy():
    ps = integrity.PolicyState()
    ps.register_subject(integrity.Subject("admin", biba_level=2, privileged=True))
    ps.register_subject(integrity.Subject("teller", biba_level=1))
    ps.register_subject(integrity.Subject("clerk", biba_level=1))
    ps.register_subject(integrity.Subject("auditor", biba_level=2))
    ps.register_item(integrity.DataItem("acct_a", integrity.CDI, 1, b"1000"))
    ps.register_item(integrity.DataItem("acct_b", integrity.CDI, 1, b"500"))
    ps.register_item(integrity.DataItem("inbox", integrity.UDI, 1, b"42"))
    ps.register_tp("credit", integrity.tp_credit, certified_by="auditor")
    ps.register_tp("debit", integrity.tp_debit, certified_by="auditor")
    ps.register_tp("sanitize", integrity.tp_sanitize_int, certified_by="auditor")
    ps.register_ivp("acct_a", integrity.ivp_non_negative_int)
    ps.register_ivp("acct_b", integrity.ivp_non_negative_int)
    ps.register_ivp("inbox", integrity.ivp_non_negative_int)
    ps.add_triple(integrity.Triple.of("teller", "credit", {"acct_a", "acct_b"}))
    ps.add_triple(integrity.Triple.of("teller", "debit", {"acct_a", "acct_b"}))
    ps.add_triple(integrity.Triple.of("clerk", "sanitize", {"inbox"}))
    return ps


def test_03_certified_transformation_conformance(request):
    def body():
        # one check per enforcement rule
        ps = _policy()
        # validation predicates hold the line: a debit below zero is denied
        denied = ps.execute_tp("teller", "debit", ["acct_a"], {"target": "acct_a", "amount": 2000})
        assert not denied.allowed and denied.reason.startswith("ivp_failed")
        assert ps.get_item("acct_a").value == b"1000"
        # certified procedures move constrained items valid state to valid state
        ok = ps.execute_tp("teller", "credit", ["acct_a"], {"target": "acct_a", "amount": 50})
        assert ok.allowed and ps.get_item("acct_a").value == b"1050"
        # access runs through authorization triples only
        no_triple = ps.execute_tp("clerk", "credit", ["acct_a"], {"target": "acct_a", "amount": 1})
        assert not no_triple.allowed and no_triple.reason == "no_matching_triple"
        # the certifier of a procedure may not execute it
        try:
            ps.add_triple(integrity.Triple.of("auditor", "credit", {"acct_a"}))
            raise AssertionError("separation of duty not enforced")
        except integrity.SeparationOfDuty:
            pass
        # every guarded decision, allowed or denied, lands in the audit log
        count = len(ps.audit)
        ps.execute_tp("teller", "credit", ["acct_b"], {"target": "acct_b", "amount": 1})
        ps.execute_tp("clerk", "credit", ["acct_b"], {"target": "acct_b", "amount": 1})
        assert len(ps.audit) == count + 2
        # unconstrained input enters only through a sanitizing procedure
        promoted = ps.promote_udi("clerk", "sanitize", "inbox")
        assert promoted.allowed and ps.get_item("inbox").item_class == integrity.CDI

        # randomized allow/deny exercise, then the chain must verify
        rng = random.Random(0xC1A5)
        ps = _policy()
        subjects = ("teller", "clerk", "admin")
        for _ in range(10_000):
            roll = rng.random()
            subject = rng.choice(subjects)
            item = rng.choice(("acct_a", "acct_b"))
            if roll < 0.45:
                ps.execute_tp(subject, "credit", [item], {"target": item, "amount": rng.randrange(1, 100)})
            elif roll < 0.9:
                ps.execute_tp(subject, "debit", [item], {"target": item, "amount": rng.randrange(1, 5000)})
            else:
                triple = integrity.Triple.of("clerk", "credit", {item})
                ps.alter_authorization("admin", triple, rng.choice((integrity.GRANT, integrity.REVOKE)))
        records = list(ps.audit.records)
        assert len(records) >= 10_000
        assert integrity.audit_verify(records).valid

        # deleting any interior record, or mutating any record, is caught
        n = len(records)
        for i in list(range(0, n - 1, 97)) + [0, n - 2]:
            assert not integrity.audit_verify(records[:i] + records[i + 1 :]).valid
        for i in list(range(0, n, 89)) + [n - 1]:
            bent = dataclasses.replace(records[i], detail=records[i].detail + "!")
            assert not integrity.audit_verify(records[:i] + [bent] + records[i + 1 :]).valid
        # recomputing the forged record's own hash still breaks the link
        mid = n // 2
        forged = integrity.AuditRecord(
            seq=records[mid].seq,
            actor="ghost",
            action=records[mid].action,
            outcome=records[mid].outcome,
            detail=records[mid].detail,
            prev_hash=records[mid].prev_hash,
            record_hash=integrity._record_hash(
                records[mid].seq, "ghost", records[mid].action,
                records[mid].outcome, records[mid].detail, records[mid].prev_hash,
            ),
        )
        assert not integrity.audit_verify(records[:mid] + [forged] + records[mid + 1 :]).valid

    _run(request, "3. certified-transformation rules hold and the audit chain is tamper-evident", 30.0, body)


# -- 4 -----------------------------------------------------------------------


def test_04_level_decision_table(request):
    def body():
        levels = (0, 1, 2)
        # reading up is allowed, reading down is not
        assert all(integrity.biba_check(s, o, integrity.READ) for s in levels for o in levels if o > s)
        assert all(integrity.biba_check(s, o, integrity.READ) for s in levels for o in levels if o == s)
        assert not any(integrity.biba_check(s, o, integrity.READ) for s in levels for o in levels if o < s)
        # writing down is allowed, writing up is not
        assert all(integrity.biba_check(s, o, integrity.WRITE) for s in levels for o in levels if o < s)
        assert all(integrity.biba_check(s, o, integrity.WRITE) for s in levels for o in levels if o == s)
        assert not any(integrity.biba_check(s, o, integrity.WRITE) for s in levels for o in levels if o > s)
        # invocation reaches equal or lower levels only
        assert all(integrity.biba_check(s, o, integrity.INVOKE) for s in levels for o in levels if o < s)
        assert all(integrity.biba_check(s, o, integrity.INVOKE) for s in levels for o in levels if o == s)
        assert not any(integrity.biba_check(s, o, integrity.INVOKE) for s in levels for o in levels if o > s)

    _run(request, "4. three-level decision table matches the three axioms", None, body)


# -- 5 -----------------------------------------------------------------------


def test_05_treasury_conservation(request):
    def body():
        rng = random.Random(0x75A0)
        for trial in range(50):
            led = tsa.TsaLedger()
            cap = rng.randrange(50, 200)
            led.open_account("main", tsa.KIND_MAIN)
            led.open_account("zba_1", tsa.KIND_ZBA)
            led.open_account("zba_2", tsa.KIND_ZBA)
            led.open_account("transit", tsa.KIND_TRANSIT)
            led.open_account("nostro", tsa.KIND_CORRESPONDENT)
            led.open_account("petty", tsa.KIND_IMPREST, cap=cap)
            led.open_account("fund", tsa.KIND_SUBSIDIARY)
            ids = list(led.accounts)
            for _ in range(10):
                for _ in range(rng.randrange(1, 5)):
                    led.record_receipt(rng.choice(ids), rng.randrange(1, 500))
                for _ in range(rng.randrange(0, 3)):
                    acct = rng.choice(ids)
                    bal = led.accounts[acct].balance
                    if bal > 0:
                        led.record_disbursement(acct, rng.randrange(1, bal + 1))
                before = led.consolidated_position()
                led.end_of_day_sweep()
                assert led.consolidated_position() == before
                for acct in led.accounts.values():
                    if acct.kind in (tsa.KIND_ZBA, tsa.KIND_TRANSIT, tsa.KIND_CORRESPONDENT):
                        assert acct.balance == 0
                    if acct.kind == tsa.KIND_IMPREST:
                        assert acct.balance <= acct.cap
                led.day_close()
            rebuilt = tsa.replay(led.chain.blocks, led.chain.config)
            assert rebuilt == led.state()

    _run(request, "5. treasury sweeps conserve cash and replay exactly (500 day cycles)", 30.0, body)


# -- 6 -----------------------------------------------------------------------


def test_06_double_entry_soundness(request):
    def body():
        rng = random.Random(0xD0B1)
        accounts = sorted(bank.CHART)
        ledger = bank.GeneralLedger()
        for _ in range(10_000):
            total = rng.randrange(1, 10_000)
            debit_side = rng.sample(accounts, rng.randrange(1, 3))
            credit_side = rng.sample(accounts, rng.randrange(1, 3))
            lines = []
            for group, side in ((debit_side, bank.DEBIT), (credit_side, bank.CREDIT)):
                remaining = total
                for i, acct in enumerate(group):
                    amount = remaining if i == len(group) - 1 else rng.randrange(1, remaining + 1)
                    remaining -= amount
                    if amount > 0:
                        lines.append(bank.EntryLine(acct, side, amount))
                if remaining > 0:  # random split landed a zero; top up the last line
                    lines[-1] = bank.EntryLine(lines[-1].account, side, lines[-1].amount + remaining)
            ledger.post(bank.JournalEntry(date="2026-01-01", lines=tuple(lines)))
        assert sum(ledger.trial_balance().values()) == 0

        # randomized prime-book days must reconcile to the controls
        books = bank.PrimeBooks()
        counterparties = ("acme", "bolt", "crab", "dune", "echo")
        dates = [f"2026-02-{d:02d}" for d in range(1, 6)]
        for date in dates:
            for _ in range(rng.randrange(20, 40)):
                books.post(
                    bank.PrimeEntry(
                        book=rng.choice(bank.BOOKS),
                        date=date,
                        counterparty=rng.choice(counterparties),
                        amount=rng.randrange(1, 900),
                    )
                )
        day_ledger = bank.GeneralLedger()
        for date in books.dates():
            bank.summarize_and_post(books, day_ledger, date)
        assert sum(day_ledger.trial_balance().values()) == 0
        for which in (bank.RECEIVABLES, bank.PAYABLES):
            result = day_ledger.reconcile_subledger(which)
            assert result.ok, f"{which}: {result}"

    _run(request, "6. trial balance zeroes out and subledgers reconcile", 30.0, body)


# -- 7 -----------------------------------------------------------------------


def test_07_classification_and_provision(request):
    def body():
        table = {
            (True, bank.HOLD_TO_COLLECT): bank.AMORTIZED_COST,
            (True, bank.HOLD_TO_COLLECT_AND_SELL): bank.FVOCI,
            (True, bank.OTHER_MODEL): bank.FVTPL,
            (False, bank.HOLD_TO_COLLECT): bank.FVTPL,
            (False, bank.HOLD_TO_COLLECT_AND_SELL): bank.FVTPL,
            (False, bank.OTHER_MODEL): bank.FVTPL,
        }
        for (sppi, model), want in table.items():
            assert bank.classify_ifrs9(sppi, model) == want

        rng = random.Random(0xEC1)
        for _ in range(1000):
            exposure = rng.randrange(0, 2_000_000)
            pd_12m = round(rng.random(), 4)
            pd_life = round(rng.random(), 4)
            lgd = round(rng.random(), 4)
            stage = rng.choice((1, 2, 3))
            base = bank.ecl_provision(exposure, pd_12m, pd_life, lgd, stage)
            grown = (
                bank.ecl_provision(exposure + rng.randrange(1, 10_000), pd_12m, pd_life, lgd, stage),
                bank.ecl_provision(exposure, min(1.0, round(pd_12m + 0.05, 4)), pd_life, lgd, stage),
                bank.ecl_provision(exposure, pd_12m, min(1.0, round(pd_life + 0.05, 4)), lgd, stage),
                bank.ecl_provision(exposure, pd_12m, pd_life, min(1.0, round(lgd + 0.05, 4)), stage),
            )
            assert all(later >= base for later in grown)

    _run(request, "7. classification table exact; provision monotone on a 1000-point grid", 5.0, body)


# -- 8 -----------------------------------------------------------------------


def _random_trades(rng, n):
    members = ("alice", "bob", "carol", "dave")
    assets = ("BOND", "BILL", "NOTE")
    trades = []
    for i in range(n):
        buyer, seller = rng.sample(members, 2)
        trades.append(
            st.Trade(
                id=f"T{i}",
                buyer=buyer,
                seller=seller,
                asset=rng.choice(assets),
                quantity=rng.randrange(1, 50),
                price=rng.randrange(1, 200),
                trade_day=0,
            )
        )
    return trades


def test_08_netting_oracle(request):
    def body():
        rng = random.Random(0x0E77)
        for _ in range(100):
            trades = _random_trades(rng, 50)
            positions = st.net_positions(trades)
            got = [dataclasses.asdict(p) for p in positions]
            assert got == net_positions_oracle(
                [
                    {
                        "buyer": t.buyer, "seller": t.seller, "asset": t.asset,
                        "quantity": t.quantity, "price": t.price,
                    }
                    for t in trades
                ]
            )
            per_asset_qty = {}
            per_asset_cash = {}
            for p in positions:
                per_asset_qty[p.asset] = per_asset_qty.get(p.asset, 0) + p.net_quantity
                per_asset_cash[p.asset] = per_asset_cash.get(p.asset, 0) + p.net_cash
            assert all(v == 0 for v in per_asset_qty.values())
            assert all(v == 0 for v in per_asset_cash.values())
            assert st.gross_obligation_sum(trades) >= st.net_obligation_sum(positions)

    _run(request, "8. netting matches a brute-force oracle and is zero-sum", 10.0, body)


# -- 9 -----------------------------------------------------------------------


def test_09_dvp_atomicity(request):
    def body():
        rng = random.Random(0xD07)
        members = ("alice", "bob", "carol")
        assets = ("BOND", "BILL")
        for i in range(10_000):
            holdings = {
                m: {
                    "cash": rng.randrange(0, 500),
                    "assets": {a: rng.randrange(0, 10) for a in assets},
                }
                for m in members
            }
            seller, buyer = rng.sample(members, 2)
            instr = st.SettlementInstruction(
                id=f"I{i}",
                from_member=seller,
                to_member=buyer,
                asset=rng.choice(assets),
                quantity=rng.randrange(1, 12),
                cash=rng.randrange(0, 600),
            )
            before = crypto.canonical_json(holdings)
            cash_total = sum(h["cash"] for h in holdings.values())
            asset_totals = {
                a: sum(h["assets"][a] for h in holdings.values()) for a in assets
            }
            result = st.settle_dvp(holdings, instr)
            if result.status == st.SETTLED:
                assert holdings[seller]["assets"][instr.asset] >= 0
                assert holdings[buyer]["cash"] >= 0
                assert holdings[buyer]["assets"][instr.asset] >= instr.quantity
                assert holdings[seller]["cash"] >= instr.cash
            else:
                # a failed attempt moves neither leg
                assert crypto.canonical_json(holdings) == before
            assert sum(h["cash"] for h in holdings.values()) == cash_total
            assert {
                a: sum(h["assets"][a] for h in holdings.values()) for a in assets
            } == asset_totals

    _run(request, "9. delivery-versus-payment never strands one leg (10k attempts)", 20.0, body)


# -- 10 ----------------------------------------------------------------------


def _constant_flow(days):
    # two unit trades of notional 100 per day: N = 200
    trades = []
    for d in range(days):
        trades.append(st.Trade(f"A{d}", "alice", "bob", "BOND", 1, 100, d))
        trades.append(st.Trade(f"B{d}", "bob", "carol", "BOND", 1, 100, d))
    return trades


def test_10_exposure_closed_form(request):
    def body():
        days, n = 8, 200
        totals = []
        for lag in (0, 1, 2, 3):
            report = st.run_cycle(_constant_flow(days), st.CycleConfig(lag_days=lag))
            series = report.exposure_series
            if lag == 0:
                assert series == [0] * days
            else:
                horizon = days + lag
                expected = [
                    n * (min(d, days - 1) - max(0, d - lag + 1) + 1)
                    for d in range(horizon)
                ]
                assert series == expected
                assert max(series) == lag * n  # steady state, exactly
                assert series.count(lag * n) == days - lag + 1
            totals.append(report.exposure_total)
        assert totals == sorted(totals)
        assert totals[0] < totals[1] < totals[2] < totals[3]

    _run(request, "10. settlement-lag exposure hits the closed form exactly", 5.0, body)


# -- 11 ----------------------------------------------------------------------


def test_11_escrow_exhaustion(request):
    def body():
        kps = {
            "buyer": crypto.keygen(b"\x61" * 32),
            "seller": crypto.keygen(b"\x62" * 32),
            "arbiter": crypto.keygen(b"\x63" * 32),
        }
        amount, fee = 600, 30
        seen = set()
        case_count = 0
        for size in range(4):
            for subset in itertools.combinations(("buyer", "seller", "arbiter"), size):
                for dispositions in itertools.product(es.DISPOSITIONS, repeat=size):
                    assignment = dict(zip(subset, dispositions))
                    for order in itertools.permutations(subset):
                        case_count += 1
                        balances = {kps["buyer"].public: amount}
                        escrow = es.open_escrow(
                            balances,
                            kps["buyer"].public,
                            kps["seller"].public,
                            kps["arbiter"].public,
                            amount,
                            fee,
                            nonce=case_count,
                        )
                        backers = {d: set() for d in es.DISPOSITIONS}
                        resolved = False
                        for role in order:
                            d = assignment[role]
                            sig = crypto.sign(
                                kps[role].secret, es.signing_bytes(escrow.address, d)
                            )
                            if resolved:
                                try:
                                    es.sign_disposition(balances, escrow, kps[role].public, sig, d)
                                    raise AssertionError("vote accepted after finality")
                                except es.AlreadyFinal:
                                    continue
                            es.sign_disposition(balances, escrow, kps[role].public, sig, d)
                            backers[d].add(role)
                            if len(backers[d]) == 2:
                                resolved = True
                        # threshold exactness: resolved iff two distinct
                        # parties backed one disposition, never earlier
                        assert (escrow.status != es.OPEN) == resolved
                        assert sum(balances.values()) == amount
                        if resolved:
                            assert balances[escrow.address] == 0
                        seen.add(escrow.status)
        assert seen == {es.OPEN, es.RELEASED, es.REFUNDED, es.ARBITRATED}
        assert case_count == 79

    _run(request, "11. every signer subset and disposition path behaves", 5.0, body)


# -- 12 ----------------------------------------------------------------------


def test_12_determinism(request):
    def body():
        for name in ("tsa_day_cycle.jsonl", "tsa_distributed_day.jsonl", "escrow_paths.jsonl"):
            text = (resources.files("ledgerstack") / "scenarios" / name).read_text()
            first = engine.report_bytes(engine.run_scenario(text, name))
            second = engine.report_bytes(engine.run_scenario(text, name))
            assert first == second, name
        config = st.CycleConfig(lag_days=2, mode=st.MODE_CCP)
        a = engine.report_bytes(st.run_cycle(_constant_flow(4), config).to_obj())
        b = engine.report_bytes(st.run_cycle(_constant_flow(4), config).to_obj())
        assert a == b
        led_a, led_b = tsa.TsaLedger(), tsa.TsaLedger()
        for led in (led_a, led_b):
            led.open_account("main", tsa.KIND_MAIN)
            led.record_receipt("main", 77)
            led.day_close()
        assert led_a.chain.to_jsonl() == led_b.chain.to_jsonl()

    _run(request, "12. scenario reports and chain exports are byte-identical across runs", 30.0, body)
