"""Treasury account structure, day cycle, and replay tests."""

import dataclasses

import pytest

from ledgerstack import chain as chain_mod
from ledgerstack import crypto
from ledgerstack import tsa


def ledger_with_main(main_balance=0):
    led = tsa.TsaLedger()
    led.open_account("main", tsa.KIND_MAIN)
    if main_balance:
        led.record_receipt("main", main_balance)
    return led


class TestOpenAccount:
    def test_duplicate_id(self):
        led = ledger_with_main()
        with pytest.raises(tsa.DuplicateId):
            led.open_account("main", tsa.KIND_ZBA)

    def test_unknown_kind(self):
        led = tsa.TsaLedger()
        with pytest.raises(tsa.TsaError):
            led.open_account("x", "slush")

    def test_second_main_rejected(self):
        led = ledger_with_main()
        with pytest.raises(tsa.SecondMain):
            led.open_account("main2", tsa.KIND_MAIN)

    @pytest.mark.parametrize("cap", [None, 0, -5])
    def test_imprest_needs_positive_cap(self, cap):
        led = ledger_with_main()
        with pytest.raises(tsa.CapMissing):
            led.open_account("petty", tsa.KIND_IMPREST, cap=cap)

    def test_cap_only_on_imprest(self):
        led = ledger_with_main()
        with pytest.raises(tsa.TsaError):
            led.open_account("z", tsa.KIND_ZBA, cap=100)

    def test_open_is_recorded(self):
        led = tsa.TsaLedger()
        led.open_account("main", tsa.KIND_MAIN)
        tx = led.pending_txs[-1]
        assert tx.kind == tsa.TX_OPEN
        assert tx.payload_obj() == {"id": "main", "kind": "main", "cap": None, "day": 0}


class TestFlows:
    def test_receipt_and_disbursement(self):
        led = ledger_with_main()
        assert led.record_receipt("main", 300) == 300
        assert led.record_disbursement("main", 120, memo="payroll") == 180
        assert led.accounts["main"].balance == 180

    @pytest.mark.parametrize("amount", [0, -10])
    def test_non_positive_amounts(self, amount):
        led = ledger_with_main(100)
        with pytest.raises(tsa.NonPositiveAmount):
            led.record_receipt("main", amount)
        with pytest.raises(tsa.NonPositiveAmount):
            led.record_disbursement("main", amount)

    def test_overdraft(self):
        led = ledger_with_main(100)
        with pytest.raises(tsa.Overdraft):
            led.record_disbursement("main", 101)
        assert led.accounts["main"].balance == 100

    def test_unknown_account(self):
        led = ledger_with_main()
        with pytest.raises(tsa.UnknownAccount):
            led.record_receipt("ghost", 10)
        with pytest.raises(tsa.UnknownAccount):
            led.record_disbursement("ghost", 10)

    def test_consolidated_position_sums_everything(self):
        led = ledger_with_main(100)
        led.open_account("sub", tsa.KIND_SUBSIDIARY)
        led.record_receipt("sub", 55)
        assert led.consolidated_position() == 155


class TestSweep:
    def structure(self):
        led = ledger_with_main(100)
        led.open_account("customs", tsa.KIND_ZBA)
        led.open_account("transit", tsa.KIND_TRANSIT)
        led.open_account("nostro", tsa.KIND_CORRESPONDENT)
        led.open_account("petty", tsa.KIND_IMPREST, cap=50)
        led.open_account("fund", tsa.KIND_SUBSIDIARY)
        return led

    def test_concentration(self):
        led = self.structure()
        led.record_receipt("customs", 40)
        led.record_receipt("transit", 25)
        led.record_receipt("nostro", 10)
        led.record_receipt("petty", 70)
        led.record_receipt("fund", 999)
        before = led.consolidated_position()
        plan = led.end_of_day_sweep()
        # sorted account ids, collections only: everything else is at rest
        assert plan == [
            {"from": "customs", "to": "main", "amount": 40},
            {"from": "nostro", "to": "main", "amount": 10},
            {"from": "petty", "to": "main", "amount": 20},
            {"from": "transit", "to": "main", "amount": 25},
        ]
        assert led.accounts["main"].balance == 195
        assert led.accounts["petty"].balance == 50
        assert led.accounts["fund"].balance == 999  # subsidiary keeps its cash
        assert led.accounts["customs"].balance == 0
        assert led.accounts["nostro"].balance == 0  # correspondent sweeps like transit
        assert led.consolidated_position() == before

    def test_refill_tops_imprest_back_to_cap(self):
        led = self.structure()
        led.record_receipt("petty", 50)
        led.record_disbursement("petty", 30)
        plan = led.end_of_day_sweep()
        assert plan == [{"from": "main", "to": "petty", "amount": 30}]
        assert led.accounts["petty"].balance == 50
        assert led.accounts["main"].balance == 70

    def test_refill_limited_by_main_balance(self):
        led = tsa.TsaLedger()
        led.open_account("main", tsa.KIND_MAIN)
        led.open_account("petty", tsa.KIND_IMPREST, cap=100)
        led.record_receipt("main", 25)
        plan = led.end_of_day_sweep()
        assert plan == [{"from": "main", "to": "petty", "amount": 25}]
        assert led.accounts["main"].balance == 0

    def test_quiet_day_emits_no_sweep_tx(self):
        led = self.structure()
        led.record_receipt("petty", 50)  # already at cap, nothing to plan
        count = len(led.pending_txs)
        assert led.end_of_day_sweep() == []
        assert len(led.pending_txs) == count

    def test_sweep_needs_main(self):
        led = tsa.TsaLedger()
        led.open_account("z", tsa.KIND_ZBA)
        with pytest.raises(tsa.TsaError):
            led.end_of_day_sweep()

    def test_sweep_is_recorded(self):
        led = self.structure()
        led.record_receipt("customs", 40)
        plan = led.end_of_day_sweep()
        tx = led.pending_txs[-1]
        assert tx.kind == tsa.TX_SWEEP
        assert tx.payload_obj() == {"transfers": plan, "day": 0}


class TestBuffer:
    def test_ok_and_gap(self):
        led = ledger_with_main(500)
        status = led.check_buffer(400)
        assert status == tsa.BufferStatus(ok=True, required=400, available=500, gap=0)
        status = led.check_buffer(800)
        assert status == tsa.BufferStatus(ok=False, required=800, available=500, gap=300)

    def test_without_main_nothing_is_available(self):
        led = tsa.TsaLedger()
        status = led.check_buffer(10)
        assert status.available == 0
        assert status.gap == 10

    def test_requirement_must_be_non_negative(self):
        with pytest.raises(tsa.TsaError):
            ledger_with_main().check_buffer(-1)


class TestDayClose:
    def test_block_carries_the_day(self):
        led = ledger_with_main(100)
        led.record_disbursement("main", 30)
        pending = len(led.pending_txs)
        block = led.day_close()
        assert block.header.height == 1
        assert block.header.wall_time == 0
        assert len(block.txs) == pending + 1
        closing = block.txs[-1]
        assert closing.kind == tsa.TX_DAY_CLOSE
        assert closing.payload_obj() == {
            "day": 0,
            "consolidated": 70,
            "balances": {"main": 70},
        }
        assert led.pending_txs == []
        assert led.day == 1

    def test_days_accumulate(self):
        led = ledger_with_main(10)
        for expected_height in (1, 2, 3):
            led.record_receipt("main", 5)
            block = led.day_close()
            assert block.header.height == expected_height
            assert block.header.wall_time == expected_height - 1
        assert led.day == 3
        assert led.chain.verify().valid

    def test_close_without_activity_still_seals_a_block(self):
        led = ledger_with_main()
        led.day_close()
        block = led.day_close()  # nothing happened on day 1
        assert len(block.txs) == 1
        assert block.txs[0].kind == tsa.TX_DAY_CLOSE


def run_two_days(led=None):
    led = led or tsa.TsaLedger()
    led.open_account("main", tsa.KIND_MAIN)
    led.open_account("customs", tsa.KIND_ZBA)
    led.open_account("petty", tsa.KIND_IMPREST, cap=50)
    led.record_receipt("main", 1000)
    led.record_receipt("customs", 400)
    led.end_of_day_sweep()
    led.day_close()
    led.record_disbursement("main", 250)
    led.record_receipt("customs", 80)
    led.end_of_day_sweep()
    led.day_close()
    return led


class TestReplay:
    def test_replay_matches_live_state(self):
        led = run_two_days()
        rebuilt = tsa.replay(led.chain.blocks, led.chain.config)
        assert rebuilt == led.state()
        assert rebuilt["day"] == 2
        # 1000 + 400 swept - 50 imprest refill - 250 paid + 80 swept
        assert rebuilt["accounts"]["main"]["balance"] == 1180

    def test_tampered_payload_fails_chain_verification(self):
        led = run_two_days()
        victim = led.chain.blocks[1]
        fat = dataclasses.replace(
            victim.txs[3], payload=b'{"amount":999999,"day":0,"id":"main","memo":""}'
        )
        victim.txs = victim.txs[:3] + (fat,) + victim.txs[4:]
        with pytest.raises(tsa.TsaError, match="chain invalid at height 1"):
            tsa.replay(led.chain.blocks, led.chain.config)

    def test_forged_snapshot_is_caught_even_on_a_valid_chain(self):
        led = tsa.TsaLedger()
        led.open_account("main", tsa.KIND_MAIN)
        led.record_receipt("main", 50)
        # a properly signed, properly sealed day close lying about balances
        led._emit(
            tsa.TX_DAY_CLOSE,
            {"day": 0, "consolidated": 999, "balances": {"main": 999}},
        )
        block = led.chain.build_block(led.pending_txs, wall_time=0)
        approval = chain_mod.Approval(
            led.operator.public, crypto.sign(led.operator.secret, block.block_id)
        )
        led.chain.approve_and_append(block, [approval])
        assert led.chain.verify().valid
        with pytest.raises(tsa.TsaError, match="replay mismatch"):
            tsa.replay(led.chain.blocks, led.chain.config)

    def test_duplicate_open_is_rejected_on_replay(self):
        led = tsa.TsaLedger()
        led.open_account("main", tsa.KIND_MAIN)
        led._emit(tsa.TX_OPEN, {"id": "main", "kind": "zba", "cap": None, "day": 0})
        led.day_close()
        with pytest.raises(tsa.TsaError, match="duplicate open"):
            tsa.replay(led.chain.blocks, led.chain.config)

    def test_unknown_kind_is_rejected_on_replay(self):
        led = ledger_with_main()
        led._emit("tsa_adjustment", {"id": "main", "amount": 1})
        led.day_close()
        with pytest.raises(tsa.TsaError, match="unknown transaction kind"):
            tsa.replay(led.chain.blocks, led.chain.config)


def test_replay_of_the_live_chain_verifies_nothing_again(monkeypatch):
    led = run_two_days()
    calls = []
    real = crypto.verify
    monkeypatch.setattr(crypto, "verify", lambda *a: calls.append(a) or real(*a))
    assert tsa.replay(led.chain.blocks, led.chain.config) == led.state()
    assert calls == []


class TestDeterminism:
    def test_same_operations_export_identical_bytes(self):
        a = run_two_days()
        b = run_two_days()
        assert a.chain.to_jsonl() == b.chain.to_jsonl()
