"""Treasury single account structure over a permissioned chain.

One main account concentrates government cash. Around it sit subsidiary
ledgers, zero-balance accounts, imprest floats with fixed caps, transit
collection accounts, and correspondent accounts; correspondents sweep
like transit accounts. Every balance change is recorded as a signed
transaction, batched into one block per business day that the operator
seals, so the whole account state replays from the chain alone.

The end-of-day sweep is not hand-rolled here: the ledger deploys the
zba_sweep contract once and asks it to plan the concentration transfers
from the day's closing balances, then applies and records the plan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from . import chain as chain_mod
from . import contracts as contracts_mod
from .chain import Block, Chain, ChainConfig, Transaction
from .crypto import is_money, keygen

KINDS = contracts_mod.ACCOUNT_KINDS

KIND_MAIN = "main"
KIND_SUBSIDIARY = "subsidiary"
KIND_ZBA = "zba"
KIND_IMPREST = "imprest"
KIND_TRANSIT = "transit"
KIND_CORRESPONDENT = "correspondent"

TX_OPEN = "tsa_open"
TX_RECEIPT = "tsa_receipt"
TX_DISBURSEMENT = "tsa_disbursement"
TX_SWEEP = "tsa_sweep"
TX_DAY_CLOSE = "tsa_day_close"
TX_KINDS = (TX_OPEN, TX_RECEIPT, TX_DISBURSEMENT, TX_SWEEP, TX_DAY_CLOSE)

DEFAULT_OPERATOR_SEED = b"\x42" * 32


class TsaError(Exception):
    pass


class DuplicateId(TsaError):
    pass


class UnknownAccount(TsaError):
    pass


class CapMissing(TsaError):
    pass


class SecondMain(TsaError):
    pass


class NonPositiveAmount(TsaError):
    pass


class Overdraft(TsaError):
    pass


@dataclass
class TsaAccount:
    id: str
    kind: str
    balance: int = 0
    cap: int | None = None


@dataclass(frozen=True)
class BufferStatus:
    ok: bool
    required: int
    available: int
    gap: int  # 0 when ok, else the shortfall


def _leg(accounts: dict[str, TsaAccount], fields: dict, key: str) -> tuple[TsaAccount, int]:
    """One money leg: the account named by fields[key], and fields' amount."""
    try:
        acct = accounts[fields.get(key)]
    except (KeyError, TypeError):  # TypeError: an unhashable id
        raise UnknownAccount(f"no account {fields.get(key)!r}") from None
    if not is_money(fields.get("amount")):
        raise NonPositiveAmount(f"amounts must be positive integers, got {fields.get('amount')!r}")
    return acct, fields["amount"]


def apply(accounts: dict[str, TsaAccount], day: int, kind: str, payload: Any) -> int:
    """Check one transition against every treasury rule, apply it, and
    return the business day after it. The live ledger and replay both fold
    it. A refusal (a bad field too) raises TsaError and changes nothing."""
    if kind not in TX_KINDS:
        raise TsaError(f"unknown transaction kind {kind!r}")
    if type(payload) is not dict or payload.get("day") != day:
        raise TsaError(f"{kind} payload must be an object for day {day}")
    if kind == TX_RECEIPT:
        acct, amount = _leg(accounts, payload, "id")
        acct.balance += amount
    elif kind == TX_DISBURSEMENT:
        acct, amount = _leg(accounts, payload, "id")
        if acct.balance < amount:
            raise Overdraft(f"account {acct.id!r} holds {acct.balance}, cannot pay {amount}")
        acct.balance -= amount
    elif kind == TX_SWEEP:
        rows = payload.get("transfers")
        if type(rows) is not list or not all(type(row) is dict for row in rows):
            raise TsaError("a sweep carries a list of transfer objects")
        net: dict[str, int] = {}  # checked row by row, applied at the end
        for row in rows:
            (src, amount), (dst, _) = _leg(accounts, row, "from"), _leg(accounts, row, "to")
            net[src.id] = net.get(src.id, 0) - amount
            if src.balance + net[src.id] < 0:
                raise Overdraft(f"sweep would overdraw {src.id!r}")
            net[dst.id] = net.get(dst.id, 0) + amount
        for acct_id, change in net.items():
            accounts[acct_id].balance += change
    elif kind == TX_OPEN:
        acct_id, acct_kind, cap = payload.get("id"), payload.get("kind"), payload.get("cap")
        if type(acct_id) is not str:
            raise TsaError(f"account id must be text, got {acct_id!r}")
        if acct_id in accounts:
            raise DuplicateId(f"duplicate open of account {acct_id!r}")
        if acct_kind not in KINDS:
            raise TsaError(f"unknown account kind {acct_kind!r}")
        if acct_kind == KIND_MAIN and any(a.kind == KIND_MAIN for a in accounts.values()):
            raise SecondMain("the structure has exactly one main account")
        if acct_kind == KIND_IMPREST and not is_money(cap):
            raise CapMissing(f"imprest account {acct_id!r} needs a positive cap")
        if acct_kind != KIND_IMPREST and cap is not None:
            raise TsaError("only imprest accounts carry a cap")
        accounts[acct_id] = TsaAccount(id=acct_id, kind=acct_kind, cap=cap)
    else:
        rebuilt = {acct_id: acct.balance for acct_id, acct in accounts.items()}
        recorded = payload.get("balances")
        if recorded != rebuilt or payload.get("consolidated") != sum(rebuilt.values()):
            raise TsaError(f"replay mismatch on day {day}: recorded {recorded}, rebuilt {rebuilt}")
        return day + 1
    return day


def _snapshot(accounts: dict[str, TsaAccount], day: int) -> dict[str, Any]:
    rows = {k: {"kind": a.kind, "cap": a.cap, "balance": a.balance} for k, a in accounts.items()}
    return {"day": day, "accounts": dict(sorted(rows.items()))}


class TsaLedger:
    def __init__(self, operator_seed: bytes = DEFAULT_OPERATOR_SEED):
        self.operator = keygen(operator_seed)
        self.chain = Chain(ChainConfig(validators=(self.operator.public,)))
        self.accounts: dict[str, TsaAccount] = {}
        self.day = 0
        self.pending_txs: list[Transaction] = []
        self._pending_ids: set[bytes] = set()  # tx ids of pending_txs recorded through _record
        self._contracts = contracts_mod.ContractState()
        self._sweep_addr = self._contracts.deploy(
            "zba_sweep", {}, contracts_mod.StepBudget(limit=contracts_mod.FIXED_DEPLOY_STEPS), height=0
        )

    # -- recording ---------------------------------------------------------

    def _record(self, kind: str, payload: dict[str, Any]) -> int:
        # sign first: a payload with no canonical JSON form changes nothing
        try:
            tx = Transaction.create(kind, payload, self.operator)
        except (TypeError, ValueError) as exc:
            raise TsaError(f"{kind} payload has no canonical JSON form: {exc}") from None
        if tx.tx_id in self._pending_ids:  # the day's block could not hold both
            raise TsaError(f"{kind} repeats a transaction already recorded on day {self.day}")
        next_day = apply(self.accounts, self.day, kind, payload)
        self.pending_txs.append(tx)
        self._pending_ids.add(tx.tx_id)
        return next_day

    @property
    def main_id(self) -> str | None:
        return next((a.id for a in self.accounts.values() if a.kind == KIND_MAIN), None)

    def open_account(self, acct_id: str, kind: str, cap: int | None = None) -> TsaAccount:
        self._record(TX_OPEN, {"id": acct_id, "kind": kind, "cap": cap, "day": self.day})
        return self.accounts[acct_id]

    def record_receipt(self, acct_id: str, amount: int, memo: str = "") -> int:
        self._record(TX_RECEIPT, dict(id=acct_id, amount=amount, memo=memo, day=self.day))
        return self.accounts[acct_id].balance

    def record_disbursement(self, acct_id: str, amount: int, memo: str = "") -> int:
        self._record(TX_DISBURSEMENT, dict(id=acct_id, amount=amount, memo=memo, day=self.day))
        return self.accounts[acct_id].balance

    # -- end of day --------------------------------------------------------

    def end_of_day_sweep(self) -> list[dict[str, Any]]:
        """Plan transfers through the zba_sweep contract, apply, record."""
        if self.main_id is None:
            raise TsaError("cannot sweep without a main account")
        balances = {a.id: a.balance for a in self.accounts.values()}
        kinds = {a.id: a.kind for a in self.accounts.values()}
        caps = {a.id: a.cap for a in self.accounts.values() if a.cap is not None}
        budget = contracts_mod.StepBudget(
            limit=contracts_mod.FIXED_INVOKE_STEPS + len(kinds) + 10
        )
        plan = self._contracts.invoke(
            self._sweep_addr,
            "sweep",
            {"balances": balances, "kinds": kinds, "caps": caps},
            budget,
        )["transfers"]
        if plan:
            self._record(TX_SWEEP, {"transfers": plan, "day": self.day})
        return plan

    def check_buffer(self, requirement: int) -> BufferStatus:
        """Is the concentrated balance enough for tomorrow's obligations?"""
        if requirement < 0:
            raise TsaError("requirement must be non-negative")
        main = self.main_id
        available = self.accounts[main].balance if main else 0
        gap = max(0, requirement - available)
        return BufferStatus(ok=gap == 0, required=requirement, available=available, gap=gap)

    def consolidated_position(self) -> int:
        return sum(a.balance for a in self.accounts.values())

    def day_close(self) -> Block:
        """Seal the day's transactions into one block and advance the day. The
        closing snapshot rides in the day-close transaction for replay to check."""
        balances = {acct_id: a.balance for acct_id, a in self.accounts.items()}
        close = {"day": self.day, "consolidated": sum(balances.values()), "balances": balances}
        next_day = self._record(TX_DAY_CLOSE, close)
        accepted = self.chain.seal(self.pending_txs, self.day, self.operator)
        self.pending_txs = []
        self._pending_ids.clear()
        self.day = next_day
        return accepted

    def state(self) -> dict[str, Any]:
        return _snapshot(self.accounts, self.day)


def replay(blocks: Sequence[Block], config: ChainConfig) -> dict[str, Any]:
    """Rebuild account state from the verified chain by folding apply over
    its transactions, so replay accepts exactly what the ledger accepts. A
    refusal re-raises its class, prefixed with block height and tx index."""
    result = chain_mod.verify_chain(blocks, config)
    if not result.valid:
        raise TsaError(f"chain invalid at height {result.first_bad_height}: {result.reason}")
    accounts, day = {}, 0
    for block in blocks:
        for i, tx in enumerate(block.txs):
            try:
                day = apply(accounts, day, tx.kind, tx.payload_obj())
            except TsaError as exc:
                raise type(exc)(f"replay at height {block.header.height} tx {i}: {exc}") from None
    return _snapshot(accounts, day)
