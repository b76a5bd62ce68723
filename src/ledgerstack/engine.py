"""Scenario runner: a JSON-lines op vocabulary over the whole stack.

Each scenario line is one JSON object with an "op" field. Ops act on
shared state: treasury ledgers (one per named agency), a key/balance
pool for escrow, prime entry books feeding a general ledger, a contract
state, and a period-stamp chain for cross-agency anchoring.

A line may carry "expected": every key in it must match the op result
exactly (top-level subset), compared as canonical JSON, so true is not 1
and 5.0 is not 5. A line may instead carry "expect_error" with
an error class name; the op must then raise exactly that. Failures raise
AssertionFailed with the line number, expected, and actual values.

Reports are deterministic: no wall-clock reads, all randomness comes from
scenario-supplied seeds, and serialization sorts keys, so the same
scenario always produces byte-identical report files.
"""

from __future__ import annotations

import json
import math
import string
from dataclasses import dataclass, field
from typing import Any, Callable

from . import bank_ledger as bank
from . import chain as chain_mod
from . import contracts as contracts_mod
from . import crypto
from . import escrow as escrow_mod
from . import tsa as tsa_mod


class EngineError(Exception):
    """A scenario run failed; `line` is the scenario line, once known."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class ParseError(EngineError):
    def __init__(self, line: int, message: str):
        super().__init__(message, line)


class _OpLine(dict):
    """One scenario line; reading a field it lacks raises ParseError."""

    def __init__(self, doc: dict, line: int):
        super().__init__(doc)
        self.line = line

    def __missing__(self, key: str) -> Any:
        raise ParseError(self.line, f"missing field {key!r}")


class AssertionFailed(EngineError):
    def __init__(self, line: int, expected: Any, actual: Any):
        super().__init__(
            f"expected {json.dumps(expected, sort_keys=True)}, "
            f"got {json.dumps(actual, sort_keys=True, default=str)}",
            line,
        )
        self.expected = expected
        self.actual = actual


DEFAULT_AGENCY = "default"


@dataclass
class ScenarioState:
    ledgers: dict[str, tsa_mod.TsaLedger] = field(default_factory=dict)
    keys: dict[str, crypto.KeyPair] = field(default_factory=dict)
    balances: escrow_mod.Balances = field(default_factory=dict)
    escrows: dict[str, escrow_mod.Escrow] = field(default_factory=dict)
    contracts: contracts_mod.ContractState = field(default_factory=contracts_mod.ContractState)
    contract_aliases: dict[str, bytes] = field(default_factory=dict)
    books: bank.PrimeBooks = field(default_factory=bank.PrimeBooks)
    gl: bank.GeneralLedger = field(default_factory=bank.GeneralLedger)
    # (stamp, the tips it anchors) per period
    stamps: list[tuple[chain_mod.BlockHeader, list[bytes]]] = field(default_factory=list)

    def ledger(self, doc: dict) -> tsa_mod.TsaLedger:
        agency = doc.get("agency", DEFAULT_AGENCY)
        if agency not in self.ledgers:
            raise EngineError(f"no treasury ledger for agency {agency!r}; run tsa_init")
        return self.ledgers[agency]

    def key(self, name: str) -> crypto.KeyPair:
        if name not in self.keys:
            raise EngineError(f"no key named {name!r}; run keygen")
        return self.keys[name]


# ---------------------------------------------------------------------------
# treasury ops


def _op_tsa_init(state: ScenarioState, doc: dict) -> dict:
    agency = doc.get("agency", DEFAULT_AGENCY)
    if agency in state.ledgers:
        raise EngineError(f"agency {agency!r} already initialized")
    seed = doc.get("operator_seed", tsa_mod.DEFAULT_OPERATOR_SEED.hex())
    state.ledgers[agency] = tsa_mod.TsaLedger(operator_seed=bytes.fromhex(seed))
    return {"agency": agency}


def _op_open(state: ScenarioState, doc: dict) -> dict:
    acct = state.ledger(doc).open_account(doc["id"], doc["kind"], doc.get("cap"))
    return {"id": acct.id, "kind": acct.kind, "cap": acct.cap}


def _op_receipt(state: ScenarioState, doc: dict) -> dict:
    balance = state.ledger(doc).record_receipt(
        doc["id"], doc["amount"], doc.get("memo", "")
    )
    return {"id": doc["id"], "balance": balance}


def _op_disburse(state: ScenarioState, doc: dict) -> dict:
    balance = state.ledger(doc).record_disbursement(
        doc["id"], doc["amount"], doc.get("memo", "")
    )
    return {"id": doc["id"], "balance": balance}


def _op_sweep(state: ScenarioState, doc: dict) -> dict:
    ledger = state.ledger(doc)
    transfers = ledger.end_of_day_sweep()
    main = ledger.main_id
    return {
        "transfers": transfers,
        "main_balance": ledger.accounts[main].balance if main else 0,
    }


def _op_buffer_check(state: ScenarioState, doc: dict) -> dict:
    status = state.ledger(doc).check_buffer(doc["requirement"])
    return {
        "ok": status.ok,
        "required": status.required,
        "available": status.available,
        "gap": status.gap,
    }


def _op_day_close(state: ScenarioState, doc: dict) -> dict:
    ledger = state.ledger(doc)
    closed_day = ledger.day
    consolidated = ledger.consolidated_position()
    block = ledger.day_close()
    return {
        "day": closed_day,
        "consolidated": consolidated,
        "height": block.header.height,
        "txs": len(block.txs),
    }


def _op_chain_verify(state: ScenarioState, doc: dict) -> dict:
    ledger = state.ledger(doc)
    result = ledger.chain.verify()
    out: dict[str, Any] = {"valid": result.valid, "height": ledger.chain.height}
    if not result.valid:
        out["first_bad_height"] = result.first_bad_height
        out["reason"] = result.reason
    return out


def _op_replay_check(state: ScenarioState, doc: dict) -> dict:
    ledger = state.ledger(doc)
    rebuilt = tsa_mod.replay(ledger.chain.blocks, ledger.chain.config)
    return {"match": rebuilt == ledger.state(), "day": rebuilt["day"]}


def _op_anchor_day(state: ScenarioState, doc: dict) -> dict:
    """Stamp the tips of every agency chain into the period chain."""
    if not state.ledgers:
        raise EngineError("no treasury ledgers to anchor")
    items = [
        state.ledgers[agency].chain.tip.block_id for agency in sorted(state.ledgers)
    ]
    prev = state.stamps[-1][0] if state.stamps else None
    wall = prev.wall_time + 1 if prev else 0
    stamp = chain_mod.stamp_period(items, prev, wall_time=wall)
    state.stamps.append((stamp, items))
    return {
        "period_index": stamp.height,
        "stamp": stamp.block_id.hex(),
        "anchored": len(items),
    }


def _op_stamp_verify(state: ScenarioState, doc: dict) -> dict:
    result = chain_mod.verify_stamps(state.stamps)
    out: dict[str, Any] = {"valid": result.valid, "periods": len(state.stamps)}
    if not result.valid:
        out["first_bad_period"] = result.first_bad_height
        out["reason"] = result.reason
    return out


# ---------------------------------------------------------------------------
# keys and escrow ops


def _op_keygen(state: ScenarioState, doc: dict) -> dict:
    name = doc["name"]
    if name in state.keys:
        raise EngineError(f"key {name!r} already exists")
    state.keys[name] = crypto.keygen(bytes.fromhex(doc["seed"]))
    return {"name": name, "public": state.keys[name].public.hex()}


def _op_fund(state: ScenarioState, doc: _OpLine) -> dict:
    pk = state.key(doc["name"]).public
    amount = doc["amount"]
    if not crypto.is_money(amount):
        raise ParseError(doc.line, f"fund amount must be a positive integer, got {amount!r}")
    state.balances[pk] = state.balances.get(pk, 0) + amount
    return {"name": doc["name"], "balance": state.balances[pk]}


def _op_open_escrow(state: ScenarioState, doc: dict) -> dict:
    es = escrow_mod.open_escrow(
        state.balances,
        state.key(doc["buyer"]).public,
        state.key(doc["seller"]).public,
        state.key(doc["arbiter"]).public,
        doc["amount"],
        doc.get("fee", 0),
        doc.get("nonce", 0),
    )
    alias = doc.get("as", es.address.hex())
    state.escrows[alias] = es
    return {"escrow": alias, "address": es.address.hex(), "status": es.status}


def _op_escrow_sign(state: ScenarioState, doc: dict) -> dict:
    es = state.escrows.get(doc["escrow"])
    if es is None:
        raise EngineError(f"no escrow {doc['escrow']!r}")
    signer = state.key(doc["signer"])
    disposition = doc["disposition"]
    signature = crypto.sign(
        signer.secret, escrow_mod.signing_bytes(es.address, disposition)
    )
    escrow_mod.sign_disposition(state.balances, es, signer.public, signature, disposition)
    out: dict[str, Any] = {"status": es.status, "votes": len(es.votes)}
    if es.outcome is not None:
        out["disposition"] = es.outcome["disposition"]
        out["payouts"] = dict(sorted(es.outcome["payouts"].items()))
    return out


def _op_balances(state: ScenarioState, doc: dict) -> dict:
    named = {
        name: state.balances.get(kp.public, 0) for name, kp in sorted(state.keys.items())
    }
    held = {
        alias: state.balances.get(es.address, 0)
        for alias, es in sorted(state.escrows.items())
    }
    return {"parties": named, "escrows": held}


# ---------------------------------------------------------------------------
# bank ops


def _op_prime_entry(state: ScenarioState, doc: dict) -> dict:
    state.books.post(
        bank.PrimeEntry(
            book=doc["book"],
            date=doc["date"],
            counterparty=doc["counterparty"],
            amount=doc["amount"],
        )
    )
    return {"count": len(state.books)}


def _op_post_books(state: ScenarioState, doc: dict) -> dict:
    if "date" in doc:
        dates = [doc["date"]]
    else:
        dates = [d for d in state.books.dates() if d not in state.gl.posted_dates]
    posted = 0
    for date in dates:
        posted += len(bank.summarize_and_post(state.books, state.gl, date))
    return {"entries": posted}


def _op_trial_balance(state: ScenarioState, doc: dict) -> dict:
    balances = state.gl.trial_balance()
    return {"total": sum(balances.values()), "balances": balances}


def _op_reconcile(state: ScenarioState, doc: dict) -> dict:
    result = state.gl.reconcile_subledger(doc["control"])
    return {
        "ok": result.ok,
        "control_total": result.control_total,
        "subledger_total": result.subledger_total,
    }


def _op_classify(state: ScenarioState, doc: dict) -> dict:
    category = bank.classify_ifrs9(doc["sppi_pass"], doc["business_model"])
    return {"category": category}


def _op_ecl(state: ScenarioState, doc: dict) -> dict:
    keys = ("exposure", "pd_12m", "pd_lifetime", "lgd", "stage")
    return {"provision": bank.ecl_provision(*(doc[key] for key in keys))}


def _op_depreciate(state: ScenarioState, doc: dict) -> dict:
    asset = bank.FixedAsset(
        cost=doc["cost"],
        salvage=doc.get("salvage", 0),
        life_periods=doc["life_periods"],
        periods_elapsed=doc.get("periods_elapsed", 0),
    )
    return {"amount": bank.depreciate(asset), "period": asset.periods_elapsed + 1}


# ---------------------------------------------------------------------------
# contract ops


def _op_deploy(state: ScenarioState, doc: dict) -> dict:
    budget = contracts_mod.StepBudget(limit=doc.get("budget", 1000))
    address = state.contracts.deploy(
        doc["code_id"], doc.get("init", {}), budget, doc.get("height", 0)
    )
    alias = doc.get("as", address.hex())
    state.contract_aliases[alias] = address
    return {"contract": alias, "address": address.hex(), "steps_used": budget.used}


def _op_invoke(state: ScenarioState, doc: dict) -> dict:
    target = doc["target"]
    address = state.contract_aliases.get(target)
    if address is None:
        try:
            address = bytes.fromhex(target)
        except ValueError:
            raise EngineError(f"no contract {target!r}") from None
    budget = contracts_mod.StepBudget(limit=doc.get("budget", 1000))
    result = state.contracts.invoke(address, doc["method"], doc.get("args", {}), budget)
    return {"result": result, "steps_used": budget.used}


HANDLERS: dict[str, Callable[[ScenarioState, dict], dict]] = {
    "tsa_init": _op_tsa_init,
    "open": _op_open,
    "receipt": _op_receipt,
    "disburse": _op_disburse,
    "sweep": _op_sweep,
    "buffer_check": _op_buffer_check,
    "day_close": _op_day_close,
    "chain_verify": _op_chain_verify,
    "replay_check": _op_replay_check,
    "anchor_day": _op_anchor_day,
    "stamp_verify": _op_stamp_verify,
    "keygen": _op_keygen,
    "fund": _op_fund,
    "open_escrow": _op_open_escrow,
    "escrow_sign": _op_escrow_sign,
    "balances": _op_balances,
    "prime_entry": _op_prime_entry,
    "post_books": _op_post_books,
    "trial_balance": _op_trial_balance,
    "reconcile": _op_reconcile,
    "classify": _op_classify,
    "ecl": _op_ecl,
    "depreciate": _op_depreciate,
    "deploy": _op_deploy,
    "invoke": _op_invoke,
}

_HEX = frozenset(string.hexdigits)
_TEXT = (lambda v: type(v) is str, "text")
_INT = (lambda v: type(v) is int, "an integer")

# what a field must hold, in whichever op carries it: (predicate, description)
FIELDS: dict[str, tuple[Callable[[Any], bool], str]] = {
    **dict.fromkeys("agency id kind memo name buyer seller arbiter as escrow signer disposition".split(), _TEXT),
    **dict.fromkeys("book date counterparty control business_model code_id target method".split(), _TEXT),
    **dict.fromkeys("amount fee nonce requirement cost salvage life_periods periods_elapsed".split(), _INT),
    **dict.fromkeys(("budget", "height"), (crypto.is_money_or_zero, "an integer >= 0")),
    **dict.fromkeys(
        ("seed", "operator_seed"), (lambda v: type(v) is str and len(v) == 64 and set(v) <= _HEX, "64 hex characters")
    ),
    **dict.fromkeys(
        ("exposure", "pd_12m", "pd_lifetime", "lgd"),
        (lambda v: type(v) is int or type(v) is float and math.isfinite(v), "a finite number"),
    ),
    "stage": (lambda v: type(v) is int and v in (1, 2, 3), "1, 2 or 3"),
    **dict.fromkeys(("init", "args", "expected"), (lambda v: type(v) is dict, "an object")),
    "sppi_pass": (lambda v: type(v) is bool, "a bool"),
    "cap": (lambda v: v is None or type(v) is int, "an integer or null"),
}

# a refusal raised by a module the ops drive: its base class or any direct
# subclass, named by class, is what a scenario may declare with expect_error
_DOMAIN_ERRORS = (tsa_mod.TsaError, escrow_mod.EscrowError, contracts_mod.ContractsError, bank.BankLedgerError)
_EXPECTED_ERRORS: frozenset[str] = frozenset(
    cls.__name__ for base in _DOMAIN_ERRORS for cls in (base, *base.__subclasses__())
)


def _check_expected(line_no: int, expected: dict, actual: dict) -> None:
    for key, want in expected.items():
        if key not in actual or crypto.canonical_json(actual[key]) != crypto.canonical_json(want):
            raise AssertionFailed(line_no, expected, actual)


def _refuse_constant(name: str) -> None:
    # NaN and the infinities have no canonical JSON form
    raise ValueError(f"{name} is not a JSON number")


def run_scenario(text: str, name: str = "scenario") -> dict:
    """Execute a JSON-lines scenario; returns the report object."""
    state = ScenarioState()
    ops: list[dict[str, Any]] = []
    for line_no, raw in enumerate(text.split("\n"), 1):  # U+2028 may sit raw in a string
        raw = raw.strip()
        if not raw or raw.startswith("#"):
            continue
        try:
            doc = json.loads(raw, parse_constant=_refuse_constant)
        except json.JSONDecodeError as exc:
            raise ParseError(line_no, f"bad json: {exc.msg}") from None
        except ValueError as exc:
            raise ParseError(line_no, f"bad json: {exc}") from None
        if not isinstance(doc, dict) or not isinstance(doc.get("op"), str):
            raise ParseError(line_no, "each line must be an object with an op")
        doc = _OpLine(doc, line_no)
        handler = HANDLERS.get(doc["op"])
        if handler is None:
            raise ParseError(line_no, f"unknown op {doc['op']!r}")
        expect_error = doc.get("expect_error")
        if expect_error is not None and (type(expect_error) is not str or expect_error not in _EXPECTED_ERRORS):
            raise ParseError(line_no, f"unknown error class {expect_error!r}")
        for key, value in doc.items():
            check = FIELDS.get(key)
            if check is not None and not check[0](value):
                raise ParseError(line_no, f"{key} must be {check[1]}, got {value!r}")
        try:
            result = handler(state, doc)
        except EngineError as exc:  # a run-state refusal (no key, ledger or escrow by that name) gains its line
            raise exc if exc.line is not None else EngineError(str(exc), line_no) from None
        except _DOMAIN_ERRORS as exc:
            if type(exc).__name__ != expect_error:
                raise AssertionFailed(
                    line_no,
                    {"expect_error": expect_error} if expect_error else {"ok": True},
                    {"error": type(exc).__name__, "detail": str(exc)},
                ) from exc
            result = {"error": expect_error}
        else:
            if expect_error is not None:
                raise AssertionFailed(
                    line_no, {"expect_error": expect_error}, {"ok": True, "result": result}
                )
        if "expected" in doc:
            _check_expected(line_no, doc["expected"], result)
        ops.append({"line": line_no, "op": doc["op"], "result": result})
    return {"scenario": name, "ops": ops, "summary": {"op_count": len(ops)}}


def report_bytes(report: dict) -> bytes:
    """Canonical report serialization; byte-identical across runs."""
    return (json.dumps(report, indent=2, sort_keys=True) + "\n").encode("utf-8")
