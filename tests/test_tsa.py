"""Treasury account structure, day cycle, and replay tests."""

import dataclasses
import random

import pytest

from ledgerstack import chain as chain_mod
from ledgerstack import crypto
from ledgerstack import tsa


def emit(led, kind, payload):
    """Append a signed transaction the ledger itself would refuse, as a
    dishonest operator could; it reaches the chain at the next day close."""
    led.pending_txs.append(chain_mod.Transaction.create(kind, payload, led.operator))


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

    def test_a_repeat_of_a_pending_transaction_is_refused(self):
        # before: both were recorded, and the day close refused the block as duplicate_tx,
        # leaving the day's transactions unsealable
        led = ledger_with_main()
        led.record_receipt("main", 50)
        with pytest.raises(tsa.TsaError, match="repeats a transaction already recorded on day 0"):
            led.record_receipt("main", 50)
        assert led.accounts["main"].balance == 50
        assert led.record_receipt("main", 50, memo="second") == 100
        led.day_close()
        assert tsa.replay(led.chain.blocks, led.chain.config) == led.state()
        assert led.record_receipt("main", 50) == 150  # the next day is another transaction

    def test_a_refused_transaction_is_not_pending(self):
        # the duplicate check knows only what was recorded: the same
        # disbursement, refused once as an overdraft, records once covered
        led = ledger_with_main(100)
        with pytest.raises(tsa.Overdraft):
            led.record_disbursement("main", 101)
        led.record_receipt("main", 1)
        assert led.record_disbursement("main", 101) == 0
        assert [tx.kind for tx in led.pending_txs] == [tsa.TX_OPEN, tsa.TX_RECEIPT, tsa.TX_RECEIPT, tsa.TX_DISBURSEMENT]

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
        emit(
            led,
            tsa.TX_DAY_CLOSE,
            {"day": 0, "consolidated": 999, "balances": {"main": 999}},
        )
        led.chain.seal(led.pending_txs, 0, led.operator)
        assert led.chain.verify().valid
        with pytest.raises(tsa.TsaError, match="replay mismatch"):
            tsa.replay(led.chain.blocks, led.chain.config)

    def test_duplicate_open_is_rejected_on_replay(self):
        led = tsa.TsaLedger()
        led.open_account("main", tsa.KIND_MAIN)
        emit(led, tsa.TX_OPEN, {"id": "main", "kind": "zba", "cap": None, "day": 0})
        led.day_close()
        with pytest.raises(tsa.TsaError, match="duplicate open"):
            tsa.replay(led.chain.blocks, led.chain.config)

    def test_unknown_kind_is_rejected_on_replay(self):
        led = ledger_with_main()
        emit(led, "tsa_adjustment", {"id": "main", "amount": 1})
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


# ---------------------------------------------------------------------------
# one state machine: the ledger and replay refuse the same transitions


def seal(led, balances, day=0):
    """Sign a day close that agrees with `balances` and seal the pending
    transactions into a block, as a dishonest operator could."""
    emit(
        led,
        tsa.TX_DAY_CLOSE,
        {"day": day, "consolidated": sum(balances.values()), "balances": balances},
    )
    led.chain.seal(led.pending_txs, day, led.operator)
    led.pending_txs = []
    assert led.chain.verify().valid


def forged_chain(emits, balances):
    """A chain opening "main" with 10, then the signed transitions `emits`
    ([(kind, payload)], day 0), closed with the snapshot `balances`."""
    led = ledger_with_main(10)
    for kind, payload in emits:
        emit(led, kind, payload)
    seal(led, balances)
    return led.chain


class TestReplayRefusesWhatTheLedgerRefuses:
    @pytest.mark.parametrize(
        "emits, balances, error, tx_index",
        [
            (  # overdraw to -5
                [(tsa.TX_DISBURSEMENT, {"id": "main", "amount": 15, "memo": "", "day": 0})],
                {"main": -5},
                tsa.Overdraft,
                2,
            ),
            (
                [(tsa.TX_RECEIPT, {"id": "main", "amount": 1.5, "memo": "", "day": 0})],
                {"main": 11.5},
                tsa.NonPositiveAmount,
                2,
            ),
            (
                [(tsa.TX_RECEIPT, {"id": "main", "amount": -5, "memo": "", "day": 0})],
                {"main": 5},
                tsa.NonPositiveAmount,
                2,
            ),
            (
                [(tsa.TX_RECEIPT, {"id": "main", "amount": True, "memo": "", "day": 0})],
                {"main": 11},
                tsa.NonPositiveAmount,
                2,
            ),
            (
                [(tsa.TX_OPEN, {"id": "main2", "kind": "main", "cap": None, "day": 0})],
                {"main": 10, "main2": 0},
                tsa.SecondMain,
                2,
            ),
            (
                [(tsa.TX_OPEN, {"id": "z", "kind": "zba", "cap": 7, "day": 0})],
                {"main": 10, "z": 0},
                tsa.TsaError,
                2,
            ),
            (
                [(tsa.TX_OPEN, {"id": "p", "kind": "imprest", "cap": 2.5, "day": 0})],
                {"main": 10, "p": 0},
                tsa.CapMissing,
                2,
            ),
            (
                [(tsa.TX_RECEIPT, {"id": "ghost", "amount": 5, "memo": "", "day": 0})],
                {"main": 10},
                tsa.UnknownAccount,
                2,
            ),
            (
                [(tsa.TX_SWEEP, {"transfers": [{"from": "main", "to": "ghost", "amount": 5}], "day": 0})],
                {"main": 5},
                tsa.UnknownAccount,
                2,
            ),
            (  # each row fits on its own; together they overdraw main
                [
                    (tsa.TX_OPEN, {"id": "z", "kind": "zba", "cap": None, "day": 0}),
                    (
                        tsa.TX_SWEEP,
                        {
                            "transfers": [
                                {"from": "main", "to": "z", "amount": 6},
                                {"from": "main", "to": "z", "amount": 6},
                            ],
                            "day": 0,
                        },
                    ),
                ],
                {"main": -2, "z": 12},
                tsa.Overdraft,
                3,
            ),
            (
                [(tsa.TX_SWEEP, {"transfers": [{"from": "main", "to": "main", "amount": 0}], "day": 0})],
                {"main": 10},
                tsa.NonPositiveAmount,
                2,
            ),
        ],
    )
    def test_forged_transition_is_refused(self, emits, balances, error, tx_index):
        ch = forged_chain(emits, balances)
        with pytest.raises(error, match=f"^replay at height 1 tx {tx_index}: ") as info:
            tsa.replay(ch.blocks, ch.config)
        assert type(info.value) is error

    def test_unknown_account_kind_is_refused(self):
        ch = forged_chain(
            [(tsa.TX_OPEN, {"id": "b", "kind": "bogus", "cap": None, "day": 0})],
            {"main": 10, "b": 0},
        )
        with pytest.raises(tsa.TsaError, match="unknown account kind 'bogus'"):
            tsa.replay(ch.blocks, ch.config)

    @pytest.mark.parametrize(
        "kind, payload",
        [
            (tsa.TX_RECEIPT, {"day": 0}),
            (tsa.TX_RECEIPT, {"id": "main", "day": 0}),
            (tsa.TX_RECEIPT, ["main", 5]),
            (tsa.TX_RECEIPT, {"id": ["main"], "amount": 5, "day": 0}),
            (tsa.TX_RECEIPT, {"id": "main", "amount": 5, "day": 3}),
            (tsa.TX_RECEIPT, {"id": "main", "amount": 5}),
            (tsa.TX_OPEN, {"kind": "zba", "cap": None, "day": 0}),
            (tsa.TX_OPEN, {"id": {"x": 1}, "kind": "zba", "cap": None, "day": 0}),
            (tsa.TX_OPEN, {"id": "z", "kind": ["zba"], "cap": None, "day": 0}),
            (tsa.TX_SWEEP, {"day": 0}),
            (tsa.TX_SWEEP, {"transfers": {"from": "main"}, "day": 0}),
            (tsa.TX_SWEEP, {"transfers": [["main", "main", 1]], "day": 0}),
            (tsa.TX_SWEEP, {"transfers": [{"to": "main", "amount": 1}], "day": 0}),
            (tsa.TX_DAY_CLOSE, {"day": 0, "consolidated": 10}),
            (tsa.TX_DAY_CLOSE, {"day": 0, "balances": {"main": 10}}),
        ],
    )
    def test_malformed_payload_is_a_tsa_error(self, kind, payload):
        ch = forged_chain([(kind, payload)], {"main": 10})
        with pytest.raises(tsa.TsaError, match="^replay at height 1 tx 2: "):
            tsa.replay(ch.blocks, ch.config)

    def test_messages_keep_their_phrases(self):
        led = ledger_with_main()
        emit(led, tsa.TX_OPEN, {"id": "main", "kind": "zba", "cap": None, "day": 0})
        led.day_close()
        with pytest.raises(tsa.DuplicateId, match="^replay at height 1 tx 1: .*duplicate open"):
            tsa.replay(led.chain.blocks, led.chain.config)


class TestApply:
    def test_refused_transition_leaves_accounts_unchanged(self):
        accounts = {}
        assert tsa.apply(accounts, 0, tsa.TX_OPEN, {"id": "m", "kind": "main", "cap": None, "day": 0}) == 0
        assert tsa.apply(accounts, 0, tsa.TX_OPEN, {"id": "z", "kind": "zba", "cap": None, "day": 0}) == 0
        assert tsa.apply(accounts, 0, tsa.TX_RECEIPT, {"id": "m", "amount": 8, "memo": "", "day": 0}) == 0
        before = {k: dataclasses.replace(v) for k, v in accounts.items()}
        rows = [{"from": "m", "to": "z", "amount": 5}, {"from": "m", "to": "z", "amount": 5}]
        with pytest.raises(tsa.Overdraft):
            tsa.apply(accounts, 0, tsa.TX_SWEEP, {"transfers": rows, "day": 0})
        rows = [{"from": "m", "to": "z", "amount": 5}, {"from": "z", "to": "ghost", "amount": 1}]
        with pytest.raises(tsa.UnknownAccount):
            tsa.apply(accounts, 0, tsa.TX_SWEEP, {"transfers": rows, "day": 0})
        assert accounts == before

    def test_day_close_returns_the_next_day(self):
        accounts = {}
        tsa.apply(accounts, 4, tsa.TX_OPEN, {"id": "m", "kind": "main", "cap": None, "day": 4})
        close = {"day": 4, "consolidated": 0, "balances": {"m": 0}}
        assert tsa.apply(accounts, 4, tsa.TX_DAY_CLOSE, close) == 5

    def test_snapshot_with_a_wrong_total_is_refused(self):
        accounts = {}
        tsa.apply(accounts, 0, tsa.TX_OPEN, {"id": "m", "kind": "main", "cap": None, "day": 0})
        with pytest.raises(tsa.TsaError, match="replay mismatch"):
            tsa.apply(accounts, 0, tsa.TX_DAY_CLOSE, {"day": 0, "consolidated": 3, "balances": {"m": 0}})


class TestLiveLedgerRefusals:
    @pytest.mark.parametrize("amount", [1.5, True, "5", None])
    def test_amount_must_be_an_int(self, amount):
        led = ledger_with_main(100)
        before, pending = led.state(), list(led.pending_txs)
        with pytest.raises(tsa.NonPositiveAmount):
            led.record_receipt("main", amount)
        with pytest.raises(tsa.NonPositiveAmount):
            led.record_disbursement("main", amount)
        assert led.state() == before
        assert led.pending_txs == pending

    def test_imprest_cap_must_be_an_int(self):
        led = ledger_with_main()
        with pytest.raises(tsa.CapMissing):
            led.open_account("petty", tsa.KIND_IMPREST, cap=2.5)
        assert "petty" not in led.accounts

    @pytest.mark.parametrize("memo", ["\ud800", float("nan"), {1, 2}])
    def test_payload_without_canonical_json_changes_nothing(self, memo):
        led = ledger_with_main(100)
        before, pending = led.state(), list(led.pending_txs)
        with pytest.raises(tsa.TsaError):
            led.record_receipt("main", 5, memo=memo)
        assert led.state() == before
        assert led.pending_txs == pending
        led.day_close()
        assert tsa.replay(led.chain.blocks, led.chain.config) == led.state()

    def test_account_id_must_be_text(self):
        led = ledger_with_main()
        with pytest.raises(tsa.TsaError):
            led.open_account(7, tsa.KIND_ZBA)
        assert list(led.accounts) == ["main"]


def _random_call(led, rng):
    """One ledger call drawn from a mix of valid and refused ones."""
    ids = ["main", "m2", "z", "t", "p", "c", "ghost"]
    amounts = [1, 7, 40, 250, 1000, 0, -3, 1.5, True, float("nan"), "9"]
    memos = ["", "payroll", "\ud800", "x y"]
    op = rng.choice(["open", "open", "receipt", "receipt", "receipt", "disburse", "disburse", "sweep"])
    if op == "open":
        kind = rng.choice(list(tsa.KINDS) + ["bogus"])
        cap = rng.choice([None, 50, 0, 2.5]) if rng.random() < 0.7 else 60
        return lambda: led.open_account(rng.choice(ids), kind, cap=cap)
    if op == "sweep":
        return led.end_of_day_sweep
    method = led.record_receipt if op == "receipt" else led.record_disbursement
    acct, amount, memo = rng.choice(ids), rng.choice(amounts), rng.choice(memos)
    return lambda: method(acct, amount, memo=memo)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_differential_ledger_against_replay(seed):
    rng = random.Random(seed)
    led = tsa.TsaLedger()
    refused = closes = 0
    for _ in range(120):
        if rng.random() < 0.1:
            led.day_close()
            closes += 1
            assert tsa.replay(led.chain.blocks, led.chain.config) == led.state()
            continue
        call = _random_call(led, rng)
        before, pending = led.state(), list(led.pending_txs)
        try:
            call()
        except tsa.TsaError:
            refused += 1
            assert led.state() == before
            assert led.pending_txs == pending
    led.day_close()
    assert tsa.replay(led.chain.blocks, led.chain.config) == led.state()
    assert refused and closes
