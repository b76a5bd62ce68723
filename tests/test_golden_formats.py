"""Committed chain and stamp files in today's formats.

Three files under golden/ were written by the builders below:

- tsa_ledger.chain.jsonl: three treasury days recorded by TsaLedger
  (opens, receipts, disbursements, sweeps and day closes), one operator;
- quorum_2of3.chain.jsonl: three treasury days sealed with Chain.seal by a
  different pair of three validators each day, authored by a validator
  and by an outside clerk;
- tsa_distributed_day.stamps.jsonl: the period-stamp chain of the
  anchor_day ops in the bundled tsa_distributed_day scenario, one period
  per line: the stamp's header fields, its block_id and its anchored
  items.

Each file must import and verify, re-export byte for byte, replay to the
pinned state (or, for the stamps, to the stamps the scenario reports),
and fail at a pinned height (period) with a pinned reason once a single
byte is flipped. A change that alters one of these formats keeps these
tests or declares which expectation changed and why. The last test,
that today's writer still produces each file, is the one a format change
is meant to break.
"""

import json
import pathlib
from dataclasses import replace
from importlib import resources

import pytest

from ledgerstack import crypto, engine, tsa
from ledgerstack.chain import BadImport, BlockHeader, Chain, ChainConfig, Transaction, verify_stamps

GOLDEN = pathlib.Path(__file__).parent / "golden"

TSA_FILE = GOLDEN / "tsa_ledger.chain.jsonl"
QUORUM_FILE = GOLDEN / "quorum_2of3.chain.jsonl"
STAMPS_FILE = GOLDEN / "tsa_distributed_day.stamps.jsonl"

VALIDATORS = [crypto.keygen(bytes([0x60 + i]) * 32) for i in range(3)]
CLERK = crypto.keygen(b"\x6f" * 32)
QUORUM_CONFIG = ChainConfig(validators=tuple(k.public for k in VALIDATORS), quorum_m=2)
TSA_CONFIG = ChainConfig(validators=(crypto.keygen(tsa.DEFAULT_OPERATOR_SEED).public,))

TSA_STATE = {
    "day": 3,
    "accounts": {
        "customs": {"kind": "zba", "cap": None, "balance": 0},
        "main": {"kind": "main", "cap": None, "balance": 355},
        "petty": {"kind": "imprest", "cap": 50, "balance": 50},
    },
}
QUORUM_STATE = {
    "day": 3,
    "accounts": {
        "field": {"kind": "imprest", "cap": 100, "balance": 10},
        "main": {"kind": "main", "cap": None, "balance": 665},
    },
}


# -- builders ------------------------------------------------------------------


def build_tsa_ledger() -> tsa.TsaLedger:
    led = tsa.TsaLedger()
    led.open_account("main", tsa.KIND_MAIN)
    led.open_account("customs", tsa.KIND_ZBA)
    led.open_account("petty", tsa.KIND_IMPREST, cap=50)
    led.record_receipt("customs", 400, "duties")
    led.record_receipt("petty", 80)
    led.end_of_day_sweep()
    led.day_close()
    led.record_disbursement("main", 120, "salaries")
    led.record_receipt("customs", 35)
    led.record_disbursement("petty", 20, "stamps")
    led.end_of_day_sweep()
    led.day_close()
    led.record_receipt("customs", 60)
    led.record_disbursement("main", 30)
    led.end_of_day_sweep()
    led.day_close()
    return led


def build_quorum_chain() -> Chain:
    days = [
        (
            VALIDATORS[0],
            (VALIDATORS[0], VALIDATORS[1]),
            [
                (tsa.TX_OPEN, {"id": "main", "kind": "main", "cap": None}),
                (tsa.TX_OPEN, {"id": "field", "kind": "imprest", "cap": 100}),
                (tsa.TX_RECEIPT, {"id": "main", "amount": 700, "memo": ""}),
                (tsa.TX_RECEIPT, {"id": "field", "amount": 40, "memo": "float"}),
                (tsa.TX_DAY_CLOSE, {"consolidated": 740, "balances": {"main": 700, "field": 40}}),
            ],
        ),
        (
            CLERK,
            (VALIDATORS[1], VALIDATORS[2]),
            [
                (tsa.TX_SWEEP, {"transfers": [{"from": "main", "to": "field", "amount": 60}]}),
                (tsa.TX_DISBURSEMENT, {"id": "field", "amount": 90, "memo": "equipment"}),
                (tsa.TX_DAY_CLOSE, {"consolidated": 650, "balances": {"main": 640, "field": 10}}),
            ],
        ),
        (
            VALIDATORS[2],
            (VALIDATORS[2], VALIDATORS[0]),
            [
                (tsa.TX_RECEIPT, {"id": "main", "amount": 25, "memo": ""}),
                (tsa.TX_DAY_CLOSE, {"consolidated": 675, "balances": {"main": 665, "field": 10}}),
            ],
        ),
    ]
    chain = Chain(QUORUM_CONFIG)
    for day, (author, signers, rows) in enumerate(days):
        txs = [Transaction.create(kind, {**payload, "day": day}, author) for kind, payload in rows]
        chain.seal(txs, day, *signers)
    return chain


def build_stamps() -> list[tuple[BlockHeader, list[bytes]]]:
    state = engine.ScenarioState()
    text = (resources.files("ledgerstack") / "scenarios" / "tsa_distributed_day.jsonl").read_text()
    for line in text.split("\n"):
        if line.strip() and not line.startswith("#"):
            doc = json.loads(line)
            engine.HANDLERS[doc["op"]](state, doc)
    return state.stamps


# -- stamp file codec ----------------------------------------------------------


def dump_stamps(periods) -> str:
    return "".join(
        crypto.canonical_json(
            {
                "height": s.height,
                "prev_hash": s.prev_hash.hex(),
                "merkle_root": s.merkle_root.hex(),
                "wall_time": s.wall_time,
                "tx_count": s.tx_count,
                "nonce": s.nonce,
                "block_id": s.block_id.hex(),
                "items": [item.hex() for item in items],
            }
        ).decode("utf-8")
        + "\n"
        for s, items in periods
    )


def load_stamps(text: str) -> list[tuple[BlockHeader, list[bytes]]]:
    periods = []
    for lineno, line in enumerate(text.split("\n"), 1):
        if line:
            obj = json.loads(line)
            stamp = BlockHeader(
                height=obj["height"],
                prev_hash=bytes.fromhex(obj["prev_hash"]),
                merkle_root=bytes.fromhex(obj["merkle_root"]),
                wall_time=obj["wall_time"],
                tx_count=obj["tx_count"],
                nonce=obj["nonce"],
            )
            if stamp.block_id != bytes.fromhex(obj["block_id"]):
                raise BadImport(lineno, "stated block_id does not match recomputed header hash")
            periods.append((stamp, [bytes.fromhex(item) for item in obj["items"]]))
    return periods


# -- helpers -------------------------------------------------------------------


def flip(text: str, line: int, key: str, nth: int = 0) -> str:
    """Change one character: the first of the nth value of key on line
    (1-based), a hex digit or a decimal digit."""
    lines = text.split("\n")
    row = lines[line - 1]
    at = -1
    for _ in range(nth + 1):
        at = row.index(f'"{key}":', at + 1)
    at += len(key) + 3
    while row[at] in '["':
        at += 1
    lines[line - 1] = row[:at] + ("2" if row[at] == "1" else "1") + row[at + 1 :]
    return "\n".join(lines)


def first_failure(text: str, config: ChainConfig) -> tuple[int, str] | None:
    """(height, reason) of the first refusal, from the import or the verify."""
    try:
        chain = Chain.from_jsonl(text, config)
    except BadImport as exc:
        return exc.line - 1, f"import: {exc}"  # line n holds height n - 1
    result = chain.verify()
    return None if result.valid else (result.first_bad_height, result.reason)


def first_bad_period(text: str) -> tuple[int, str] | None:
    """(period, reason) of the first refusal, from the load or the verify."""
    try:
        periods = load_stamps(text)
    except BadImport as exc:
        return exc.line - 1, f"load: {exc}"  # line n holds period n - 1
    result = verify_stamps(periods)
    return None if result.valid else (result.first_bad_height, result.reason)


# -- the pins ------------------------------------------------------------------


CHAINS = [(TSA_FILE, TSA_CONFIG, TSA_STATE), (QUORUM_FILE, QUORUM_CONFIG, QUORUM_STATE)]


@pytest.mark.parametrize("path,config,state", CHAINS, ids=["tsa", "quorum"])
class TestChainFiles:
    def test_imports_and_verifies(self, path, config, state):
        chain = Chain.from_jsonl(path.read_text(), config)
        assert chain.height == 3
        assert chain.verify().valid

    def test_canonical_reexport_is_byte_identical(self, path, config, state):
        text = path.read_text()
        assert Chain.from_jsonl(text, config).to_jsonl() == text

    def test_replay_rebuilds_the_pinned_state(self, path, config, state):
        chain = Chain.from_jsonl(path.read_text(), config)
        assert tsa.replay(chain.blocks, config) == state


@pytest.mark.parametrize(
    "path,config,line,key,nth,height,reason",
    [
        (TSA_FILE, TSA_CONFIG, 3, "signature", 1, 2, "bad_tx_signature"),
        (TSA_FILE, TSA_CONFIG, 4, "signature", 0, 3, "bad_approval_signature"),
        (TSA_FILE, TSA_CONFIG, 4, "validator_pk", 0, 3, "unknown_validator"),
        (TSA_FILE, TSA_CONFIG, 2, "amount", 0, 1, "import: line 2: stated tx_id mismatch"),
        (TSA_FILE, TSA_CONFIG, 3, "prev_hash", 0, 2, "import: line 3: stated block_id does not match"),
        (QUORUM_FILE, QUORUM_CONFIG, 3, "signature", 2, 2, "bad_tx_signature"),
        (QUORUM_FILE, QUORUM_CONFIG, 2, "signature", 1, 1, "bad_approval_signature"),
        (QUORUM_FILE, QUORUM_CONFIG, 4, "validator_pk", 0, 3, "unknown_validator"),
        (QUORUM_FILE, QUORUM_CONFIG, 3, "merkle_root", 0, 2, "import: line 3: stated block_id does not match"),
    ],
)
def test_one_flipped_byte_fails_at_its_height(path, config, line, key, nth, height, reason):
    text = path.read_text()
    tampered = flip(text, line, key, nth)
    assert len(tampered) == len(text) and tampered != text
    got_height, got_reason = first_failure(tampered, config)
    assert got_height == height and got_reason.startswith(reason)


class TestStampFile:
    def test_imports_and_verifies(self):
        periods = load_stamps(STAMPS_FILE.read_text())
        assert [len(items) for _, items in periods] == [2, 2]
        assert verify_stamps(periods).valid

    def test_canonical_reexport_is_byte_identical(self):
        text = STAMPS_FILE.read_text()
        assert dump_stamps(load_stamps(text)) == text

    def test_stamps_are_the_ones_the_scenario_reports(self):
        text = (resources.files("ledgerstack") / "scenarios" / "tsa_distributed_day.jsonl").read_text()
        report = engine.run_scenario(text, "tsa_distributed_day")
        reported = [op["result"]["stamp"] for op in report["ops"] if op["op"] == "anchor_day"]
        assert [s.block_id.hex() for s, _ in load_stamps(STAMPS_FILE.read_text())] == reported

    @pytest.mark.parametrize(
        "line,key,period,reason",
        [
            (2, "items", 1, "merkle_mismatch"),
            (1, "items", 0, "merkle_mismatch"),
            (1, "block_id", 0, "load: line 1: stated block_id does not match"),
            (2, "merkle_root", 1, "load: line 2: stated block_id does not match"),
            (1, "wall_time", 0, "load: line 1: stated block_id does not match"),
            (2, "wall_time", 1, "load: line 2: stated block_id does not match"),
        ],
    )
    def test_one_flipped_byte_fails_at_its_period(self, line, key, period, reason):
        text = STAMPS_FILE.read_text()
        tampered = flip(text, line, key)
        assert len(tampered) == len(text) and tampered != text
        got_period, got_reason = first_bad_period(tampered)
        assert got_period == period and got_reason.startswith(reason)

    def test_a_rewritten_wall_time_with_its_id_restated_breaks_the_next_link(self):
        # before: the stamp did not commit to wall_time, so this verified
        (s0, items0), period1 = load_stamps(STAMPS_FILE.read_text())
        rewritten = dump_stamps([(replace(s0, wall_time=s0.wall_time + 1), items0), period1])
        assert first_bad_period(rewritten) == (1, "link_broken")


@pytest.mark.parametrize(
    "path,written",
    [
        (TSA_FILE, lambda: build_tsa_ledger().chain.to_jsonl()),
        (QUORUM_FILE, lambda: build_quorum_chain().to_jsonl()),
        (STAMPS_FILE, lambda: dump_stamps(build_stamps())),
    ],
    ids=["tsa", "quorum", "stamps"],
)
def test_todays_writer_still_writes_the_file(path, written):
    assert written() == path.read_text()
