"""Deterministic contract catalog with step metering.

Contracts here are not user-supplied bytecode. The catalog is a fixed set
of audited routines; deployment instantiates one with init parameters and
derives its address from code id, canonical init bytes, and deploy
height, so the same deployment at a different height gets a different
address.

Execution is metered: deploying costs a flat 10 steps, invoking costs 10
plus 1 per storage access (reads and writes alike; init-time storage is
covered by the flat deploy charge). Some stateless routines charge per
input row instead, noted in their cost notes. Exceeding the budget raises
OutOfSteps with the budget fully consumed.

Invocation is atomic. A method runs against a copy of the instance
storage and the copy is committed only on success; any failure, including
running out of steps, leaves the stored state byte-for-byte unchanged
while the steps stay spent.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from typing import Any, Callable, Mapping

from . import crypto
from .settlement import SettlementError, net_over_dicts

FIXED_DEPLOY_STEPS = 10
FIXED_INVOKE_STEPS = 10

ACCOUNT_KINDS = ("main", "subsidiary", "zba", "imprest", "transit", "correspondent")


class ContractsError(Exception):
    pass


class UnknownCode(ContractsError):
    pass


class UnknownAddress(ContractsError):
    pass


class InvalidParams(ContractsError):
    pass


class OutOfSteps(ContractsError):
    pass


class Dead(ContractsError):
    pass


class ContractError(ContractsError):
    """Raised by contract code itself; reason is a short machine tag."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class StepBudget:
    """Hard execution limit. Overrunning consumes the remainder and
    raises; a failed call is still paid for."""

    def __init__(self, limit: int):
        if limit < 0:
            raise ValueError("step limit must be non-negative")
        self.limit = limit
        self.used = 0

    def consume(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError("cannot consume negative steps")
        if self.used + n > self.limit:
            self.used = self.limit
            raise OutOfSteps(f"step budget of {self.limit} exhausted")
        self.used += n


class MeteredStorage:
    """Byte-valued key store charging one step per access."""

    def __init__(self, data: dict[str, bytes], budget: StepBudget | None):
        self._data = data
        self._budget = budget

    def _charge(self) -> None:
        if self._budget is not None:
            self._budget.consume(1)

    def get(self, key: str) -> bytes | None:
        self._charge()
        return self._data.get(key)

    def __setitem__(self, key: str, value: bytes) -> None:
        if not isinstance(value, bytes):
            raise TypeError("storage values are bytes")
        self._charge()
        self._data[key] = value


@dataclass
class InvokeContext:
    args: dict[str, Any]
    storage: MeteredStorage
    budget: StepBudget
    destroyed: bool = False

    def self_destruct(self) -> None:
        self.destroyed = True

    def charge(self, n: int = 1) -> None:
        self.budget.consume(n)

    # storage holds bytes; routines store canonical json
    def load(self, key: str, default: Any = None) -> Any:
        raw = self.storage.get(key)
        if raw is None:
            return default
        return json.loads(raw.decode("utf-8"))

    def store(self, key: str, obj: Any) -> None:
        self.storage[key] = crypto.canonical_json(obj)


@dataclass(frozen=True)
class ContractCode:
    code_id: str
    description: str
    cost_note: str
    init: Callable[[InvokeContext], None]
    methods: Mapping[str, Callable[[InvokeContext], Any]]


@dataclass
class _Instance:
    code_id: str
    storage: dict[str, bytes]
    dead: bool = False


def _no_init(ctx: InvokeContext) -> None:
    if ctx.args:
        raise InvalidParams("this contract takes no init parameters")


# ---------------------------------------------------------------------------
# counter


def _counter_init(ctx: InvokeContext) -> None:
    start = ctx.args.get("start", 0)
    if not isinstance(start, int) or isinstance(start, bool):
        raise InvalidParams("start must be an integer")
    ctx.store("value", start)


def _counter_inc(ctx: InvokeContext) -> Any:
    step = ctx.args.get("step", 1)
    if not isinstance(step, int) or isinstance(step, bool):
        raise ContractError("bad_step")
    value = ctx.load("value") + step
    ctx.store("value", value)
    return {"value": value}


def _counter_get(ctx: InvokeContext) -> Any:
    return {"value": ctx.load("value")}


def _counter_destroy(ctx: InvokeContext) -> Any:
    ctx.self_destruct()
    return {"destroyed": True}


# ---------------------------------------------------------------------------
# conditional_payment


def _condpay_init(ctx: InvokeContext) -> None:
    args = ctx.args
    for key in ("payer", "payee"):
        if not isinstance(args.get(key), str) or not args[key]:
            raise InvalidParams(f"{key} must be a non-empty string")
    amount = args.get("amount")
    if not crypto.is_money(amount):
        raise InvalidParams("amount must be a positive integer")
    cond = args.get("condition_hash")
    try:
        raw = bytes.fromhex(cond)
    except (TypeError, ValueError):
        raise InvalidParams("condition_hash must be hex") from None
    if len(raw) != crypto.HASH_LEN:
        raise InvalidParams("condition_hash must be 32 bytes")
    ctx.store("payer", args["payer"])
    ctx.store("payee", args["payee"])
    ctx.store("amount", amount)
    ctx.store("condition_hash", cond.lower())
    ctx.store("paid", False)


def _condpay_claim(ctx: InvokeContext) -> Any:
    if ctx.load("paid"):
        raise ContractError("already_paid")
    try:
        preimage = bytes.fromhex(ctx.args.get("preimage", ""))
    except ValueError:
        raise ContractError("bad_preimage") from None
    if crypto.sha256d(preimage).hex() != ctx.load("condition_hash"):
        raise ContractError("bad_preimage")
    ctx.store("paid", True)
    return {
        "pay": {
            "from": ctx.load("payer"),
            "to": ctx.load("payee"),
            "amount": ctx.load("amount"),
        }
    }


def _condpay_status(ctx: InvokeContext) -> Any:
    return {"paid": ctx.load("paid"), "amount": ctx.load("amount")}


# ---------------------------------------------------------------------------
# zba_sweep


def plan_sweep(
    balances: Mapping[str, int],
    kinds: Mapping[str, str],
    caps: Mapping[str, int],
) -> list[dict[str, Any]]:
    """Plan end-of-day concentration transfers.

    Zero-balance, transit, and correspondent accounts sweep fully into the
    main account; imprest accounts are brought back to their cap in either
    direction; subsidiary accounts keep their balances. Collections run
    before refills so refills draw on the concentrated balance. Refills
    never overdraw the main account.
    """
    mains = [a for a in sorted(kinds) if kinds[a] == "main"]
    if len(mains) != 1:
        raise ContractError("need_exactly_one_main")
    main = mains[0]
    for acct in kinds:
        if kinds[acct] not in ACCOUNT_KINDS:
            raise ContractError(f"unknown_kind:{kinds[acct]}")
    transfers: list[dict[str, Any]] = []
    main_bal = balances.get(main, 0)
    for acct in sorted(kinds):
        if acct == main:
            continue
        kind = kinds[acct]
        bal = balances.get(acct, 0)
        if kind in ("zba", "transit", "correspondent"):
            if bal > 0:
                transfers.append({"from": acct, "to": main, "amount": bal})
                main_bal += bal
        elif kind == "imprest":
            cap = caps.get(acct)
            if cap is None or cap < 0:
                raise ContractError(f"cap_missing:{acct}")
            if bal > cap:
                transfers.append({"from": acct, "to": main, "amount": bal - cap})
                main_bal += bal - cap
    for acct in sorted(kinds):
        if kinds[acct] != "imprest":
            continue
        bal = balances.get(acct, 0)
        cap = caps[acct]
        if bal < cap:
            amount = min(cap - bal, main_bal)
            if amount > 0:
                transfers.append({"from": main, "to": acct, "amount": amount})
                main_bal -= amount
    return transfers


def _sweep_run(ctx: InvokeContext) -> Any:
    balances = ctx.args.get("balances")
    kinds = ctx.args.get("kinds")
    caps = ctx.args.get("caps", {})
    if not isinstance(balances, dict) or not isinstance(kinds, dict):
        raise ContractError("invalid_args")
    ctx.charge(len(kinds))
    return {"transfers": plan_sweep(balances, kinds, caps)}


# ---------------------------------------------------------------------------
# net


def _net_run(ctx: InvokeContext) -> Any:
    trades = ctx.args.get("trades")
    if not isinstance(trades, list):
        raise ContractError("invalid_args")
    ctx.charge(len(trades))
    try:
        return {"positions": net_over_dicts(trades)}
    except (SettlementError, KeyError, TypeError):
        raise ContractError("invalid_trades") from None


# ---------------------------------------------------------------------------
# catalog

CATALOG: dict[str, ContractCode] = {
    code.code_id: code
    for code in (
        ContractCode(
            code_id="counter",
            description="integer counter with settable start and step",
            cost_note="deploy 10; inc 12; get 11; destroy 10",
            init=_counter_init,
            methods={"inc": _counter_inc, "get": _counter_get, "destroy": _counter_destroy},
        ),
        ContractCode(
            code_id="conditional_payment",
            description="single-shot hash-locked payment directive",
            cost_note="deploy 10; claim 10 + 6 storage; status 10 + 2 storage",
            init=_condpay_init,
            methods={"claim": _condpay_claim, "status": _condpay_status},
        ),
        ContractCode(
            code_id="zba_sweep",
            description="plans end-of-day concentration transfers into the main account",
            cost_note="deploy 10; sweep 10 + 1 per account",
            init=_no_init,
            methods={"sweep": _sweep_run},
        ),
        ContractCode(
            code_id="net",
            description="multilateral netting of trade lists into member positions",
            cost_note="deploy 10; net 10 + 1 per trade",
            init=_no_init,
            methods={"net": _net_run},
        ),
    )
}


def contract_listing() -> list[dict[str, str]]:
    return [
        {
            "code_id": code.code_id,
            "description": code.description,
            "cost_note": code.cost_note,
        }
        for code in sorted(CATALOG.values(), key=lambda c: c.code_id)
    ]


def derive_address(code_id: str, init_params: Any, height: int) -> bytes:
    return crypto.sha256d(
        code_id.encode("utf-8")
        + crypto.canonical_json(init_params)
        + struct.pack(">Q", height)
    )


class ContractState:
    """All deployed instances plus deploy/invoke entry points."""

    def __init__(self):
        self._instances: dict[bytes, _Instance] = {}

    def _instance(self, address: bytes) -> _Instance:
        inst = self._instances.get(address)
        if inst is None:
            raise UnknownAddress(address.hex())
        return inst

    def deploy(
        self, code_id: str, init_params: Any, budget: StepBudget, height: int
    ) -> bytes:
        code = CATALOG.get(code_id)
        if code is None:
            raise UnknownCode(f"no contract code {code_id!r}")
        budget.consume(FIXED_DEPLOY_STEPS)
        try:
            address = derive_address(code_id, init_params, height)
        except (ValueError, struct.error) as exc:  # NaN, a lone surrogate, a height outside 64 bits
            raise InvalidParams(f"no address for these init parameters and height: {exc}") from None
        if address in self._instances:
            raise ContractError("already_deployed")
        storage: dict[str, bytes] = {}
        ctx = InvokeContext(
            args=dict(init_params) if isinstance(init_params, Mapping) else {},
            storage=MeteredStorage(storage, None),
            budget=budget,
        )
        code.init(ctx)
        self._instances[address] = _Instance(code_id=code_id, storage=storage)
        return address

    def invoke(
        self, address: bytes, method: str, args: Mapping[str, Any], budget: StepBudget
    ) -> Any:
        inst = self._instance(address)
        if inst.dead:
            raise Dead(f"contract at {address.hex()} was destroyed")
        code = CATALOG[inst.code_id]
        budget.consume(FIXED_INVOKE_STEPS)
        fn = code.methods.get(method)
        if fn is None:
            raise ContractError("unknown_method")
        # run against a copy; commit only on success
        work = dict(inst.storage)
        ctx = InvokeContext(
            args=dict(args),
            storage=MeteredStorage(work, budget),
            budget=budget,
        )
        try:
            result = fn(ctx)
        except ContractsError:
            raise
        except Exception as exc:
            raise ContractError(f"contract_fault:{type(exc).__name__}") from exc
        inst.storage = work
        if ctx.destroyed:
            inst.dead = True
        return result
