"""Trade matching, novation, multilateral netting, and settlement.

The cycle runner wires three chains into a pipeline: trades are recorded
and block-verified on an exchange chain, per-day netting results land on a
clearing chain, and settlement instructions plus their outcomes land on a
settlement chain. A block finalized on one chain is what triggers
transaction creation on the next; netting reads the finalized exchange
block rather than the in-memory trade list.

Settlement operates on a holdings map: member -> {"cash": int, "assets":
{symbol: quantity}}. Every obligation moves through one exchange that
checks both legs and then moves both or neither. Delivery-versus-payment
exchanges both legs; free-of-payment exchanges the asset leg only and
leaves the cash obligation visible in the report until a matching payment
arrives. Every amount that enters settlement passes the money rule.

The exposure metric is settlement-lag risk: at the end of each day the
cash value of every still-pending obligation is summed; the cumulative
total therefore equals the sum over instructions of notional multiplied
by days outstanding. With a constant daily notional N and lag L the
per-day series plateaus at exactly L * N.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import asdict, dataclass, field
from typing import Any, Iterable, Mapping, Sequence

from . import chain as chain_mod
from .chain import Chain, ChainConfig, Transaction
from .crypto import is_money, is_money_or_zero, keygen, sign

BUY = "buy"
SELL = "sell"

DVP = "dvp"
FOP = "fop"

MODE_BILATERAL = "bilateral"
MODE_CCP = "ccp"
MODE_CONSORTIUM = "consortium"

PENDING = "pending"
SETTLED = "settled"
FAILED = "failed"

INSUFFICIENT_ASSET = "insufficient_asset"
INSUFFICIENT_CASH = "insufficient_cash"


class SettlementError(Exception):
    pass


class NonPositiveQuantity(SettlementError):
    pass


class CcpIsParty(SettlementError):
    pass


class AlreadyNovated(SettlementError):
    pass


# ---------------------------------------------------------------------------
# Orders and trades


@dataclass(frozen=True)
class Order:
    id: str
    member: str
    side: str
    asset: str
    quantity: int
    price: int
    day: int

    def __post_init__(self):
        if self.side not in (BUY, SELL):
            raise SettlementError(f"unknown side {self.side!r}")
        if not is_money(self.quantity):
            raise NonPositiveQuantity("order quantity must be positive")
        if not is_money(self.price):
            raise SettlementError("order price must be positive")


@dataclass
class Trade:
    id: str
    buyer: str
    seller: str
    asset: str
    quantity: int
    price: int
    trade_day: int
    superseded: bool = False

    def __post_init__(self):
        if self.buyer == self.seller:
            raise SettlementError("buyer and seller must differ")
        if not is_money(self.quantity):
            raise NonPositiveQuantity("trade quantity must be positive")
        if not is_money(self.price):
            raise SettlementError("trade price must be positive")
        if type(self.trade_day) is not int or not 0 <= self.trade_day <= chain_mod.U64_MAX:
            raise SettlementError(f"trade day must be an int in 0..2^64-1, got {self.trade_day!r}")

    @property
    def notional(self) -> int:
        return self.quantity * self.price


@dataclass(order=True)
class _Resting:
    priority: tuple[int, int]  # (price, seq) for asks, (-price, seq) for bids
    order: Order = field(compare=False)
    remaining: int = field(compare=False)


class OrderBook:
    """Price-time priority book, one instance covering all assets.

    Each (asset, side) queue is kept sorted best first: lowest ask or
    highest bid, then oldest.
    """

    def __init__(self):
        self._queues: dict[tuple[str, str], list[_Resting]] = {}
        self._seq = 0
        self._trade_seq = 0

    def depth(self, asset: str) -> tuple[int, int]:
        bids, asks = (self._queues.get((asset, side), []) for side in (BUY, SELL))
        return (sum(r.remaining for r in bids), sum(r.remaining for r in asks))

    def match(self, order: Order) -> list[Trade]:
        """Match an incoming order; the unfilled remainder rests.

        Crossing executes at the resting order's price. Better prices fill
        first; ties fill oldest first. A member never crosses with itself:
        its own resting orders are passed over and stay resting.
        """
        self._seq += 1
        buy = order.side == BUY
        queue = self._queues.get((order.asset, SELL if buy else BUY), [])
        remaining = order.quantity
        trades: list[Trade] = []
        i = 0
        while remaining and i < len(queue):
            resting = queue[i]
            price = resting.order.price
            crosses = price <= order.price if buy else price >= order.price
            if not crosses:
                break
            if resting.order.member == order.member:
                i += 1
                continue
            qty = min(remaining, resting.remaining)
            self._trade_seq += 1
            trades.append(
                Trade(
                    id=f"T{self._trade_seq:06d}",
                    buyer=order.member if buy else resting.order.member,
                    seller=resting.order.member if buy else order.member,
                    asset=order.asset,
                    quantity=qty,
                    price=price,
                    trade_day=order.day,
                )
            )
            remaining -= qty
            resting.remaining -= qty
            if not resting.remaining:
                del queue[i]
        if remaining:
            priority = (-order.price if buy else order.price, self._seq)
            queue = self._queues.setdefault((order.asset, order.side), [])
            insort(queue, _Resting(priority, order, remaining))
        return trades


# ---------------------------------------------------------------------------
# Novation


def novate(trade: Trade, ccp_id: str) -> tuple[Trade, Trade]:
    """Replace a bilateral trade with two trades against the central
    counterparty: seller sells to the CCP, the CCP sells to the buyer.
    The original is marked superseded and drops out of netting."""
    if trade.superseded:
        raise AlreadyNovated(f"trade {trade.id!r} was already novated")
    if ccp_id in (trade.buyer, trade.seller):
        raise CcpIsParty(f"{ccp_id!r} is a party to trade {trade.id!r}")
    seller_leg = Trade(
        id=f"{trade.id}/s",
        buyer=ccp_id,
        seller=trade.seller,
        asset=trade.asset,
        quantity=trade.quantity,
        price=trade.price,
        trade_day=trade.trade_day,
    )
    buyer_leg = Trade(
        id=f"{trade.id}/b",
        buyer=trade.buyer,
        seller=ccp_id,
        asset=trade.asset,
        quantity=trade.quantity,
        price=trade.price,
        trade_day=trade.trade_day,
    )
    trade.superseded = True
    return seller_leg, buyer_leg


# ---------------------------------------------------------------------------
# Netting


@dataclass(frozen=True)
class NetPosition:
    member: str
    asset: str
    net_quantity: int  # bought minus sold
    net_cash: int  # received minus paid


def _netting(rows: Iterable[tuple[str, str, str, int, int]]) -> list[NetPosition]:
    """The one netting loop over (buyer, seller, asset, quantity, price)
    rows: one position per (member, asset) with non-zero quantity or cash,
    sorted."""
    acc: dict[tuple[str, str], list[int]] = {}
    for buyer, seller, asset, qty, price in rows:
        if not is_money(qty) or not is_money(price):
            raise NonPositiveQuantity("trade quantity and price must be positive integers")
        if buyer == seller:
            raise SettlementError(f"buyer and seller must differ, got {buyer!r} on both sides")
        cash = qty * price
        bought = acc.setdefault((buyer, asset), [0, 0])
        sold = acc.setdefault((seller, asset), [0, 0])
        bought[0] += qty
        bought[1] -= cash
        sold[0] -= qty
        sold[1] += cash
    return [
        NetPosition(member, asset, qty, cash)
        for (member, asset), (qty, cash) in sorted(acc.items())
        if qty or cash
    ]


def net_over_dicts(trades: Sequence[Mapping[str, Any]]) -> list[dict[str, Any]]:
    """Multilateral netting over plain trade dicts.

    Each dict needs buyer, seller, asset, quantity, price. Returns one row
    per (member, asset) with non-zero quantity or cash, sorted.
    """
    rows = (
        (str(t["buyer"]), str(t["seller"]), str(t["asset"]), t["quantity"], t["price"])
        for t in trades
    )
    return [asdict(p) for p in _netting(rows)]


def net_positions(trades: Sequence[Trade]) -> list[NetPosition]:
    """Net positions over live (non-superseded) trades."""
    return _netting(
        (t.buyer, t.seller, t.asset, t.quantity, t.price) for t in trades if not t.superseded
    )


def gross_obligation_sum(trades: Sequence[Trade]) -> int:
    """Absolute sum of bilateral gross obligations: every live trade binds
    the seller for quantity and the buyer for notional."""
    return sum(t.quantity + t.notional for t in trades if not t.superseded)


def net_obligation_sum(positions: Sequence[NetPosition]) -> int:
    """Absolute sum of what members still owe after multilateral netting."""
    return sum(
        max(0, -p.net_quantity) + max(0, -p.net_cash) for p in positions
    )


# ---------------------------------------------------------------------------
# Holdings and settlement instructions


Holdings = dict[str, dict[str, Any]]


def new_holdings() -> Holdings:
    return {}


def fund(holdings: Holdings, member: str, cash: int = 0, assets: Mapping[str, int] | None = None) -> None:
    entry = holdings.setdefault(member, {"cash": 0, "assets": {}})
    entry["cash"] += cash
    for sym, qty in (assets or {}).items():
        entry["assets"][sym] = entry["assets"].get(sym, 0) + qty


def holdings_from(entries: Mapping[str, Mapping[str, Any]]) -> Holdings:
    """A fresh holdings map from member -> {"cash": int, "assets": {symbol:
    int}}, a missing leg reading as empty. Refuses any amount that is not
    an int (nor a bool) at or above zero, and an entry or `assets` that is
    not an object."""
    holdings = new_holdings()
    for member, entry in entries.items():
        if not isinstance(entry, Mapping) or not isinstance(entry.get("assets", {}), Mapping):
            raise SettlementError(f"holdings of {member!r} must be an object with an assets object")
        cash, assets = entry.get("cash", 0), entry.get("assets", {})
        if not is_money_or_zero(cash) or not all(map(is_money_or_zero, assets.values())):
            raise SettlementError(f"holdings of {member!r} must be integers >= 0")
        holdings[member] = {"cash": cash, "assets": dict(assets)}
    return holdings


def _cash(holdings: Holdings, member: str) -> int:
    return holdings.get(member, {}).get("cash", 0)

def _asset(holdings: Holdings, member: str, asset: str) -> int:
    return holdings.get(member, {}).get("assets", {}).get(asset, 0)


def _exchange(
    holdings: Holdings, deliverer: str, payer: str, asset: str, quantity: int, cash: int
) -> str | None:
    """The one settlement money move: deliverer hands `quantity` of `asset`
    to payer, who pays `cash` back. Both legs are checked before either
    moves, so both move or neither does. A zero leg does not move. Returns
    the reason the short leg fails, or None once both have moved."""
    if _asset(holdings, deliverer, asset) < quantity:
        return INSUFFICIENT_ASSET
    if _cash(holdings, payer) < cash:
        return INSUFFICIENT_CASH
    fund(holdings, deliverer, cash, {asset: -quantity} if quantity else None)
    fund(holdings, payer, -cash, {asset: quantity} if quantity else None)
    return None


@dataclass
class SettlementInstruction:
    """One settlement obligation.

    from_member delivers `quantity` of `asset` to to_member. In dvp mode
    to_member pays `cash` back atomically. In fop mode cash must be 0; the
    separately arranged payment is carried in unpaid_cash and reported as
    an open obligation until pay_fop applies it.
    """

    id: str
    from_member: str
    to_member: str
    asset: str
    quantity: int
    cash: int
    mode: str = DVP
    trade_day: int = 0
    due_day: int = 0
    unpaid_cash: int = 0
    cash_paid: bool = False
    status: str = PENDING
    reason: str | None = None

    def __post_init__(self):
        if not is_money(self.quantity):
            raise NonPositiveQuantity("instruction quantity must be a positive integer")
        if self.mode not in (DVP, FOP):
            raise SettlementError(f"unknown settlement mode {self.mode!r}")
        if not is_money_or_zero(self.cash) or not is_money_or_zero(self.unpaid_cash):
            raise SettlementError("cash legs must be integers >= 0")
        if self.mode == FOP and self.cash != 0:
            raise SettlementError("a fop instruction carries the asset leg only")

    @property
    def notional(self) -> int:
        return self.cash + self.unpaid_cash


@dataclass(frozen=True)
class SettlementResult:
    instruction_id: str
    status: str
    reason: str | None = None


def settle_dvp(holdings: Holdings, instr: SettlementInstruction) -> SettlementResult:
    """Atomic two-leg settlement: both legs move or neither does.

    Failure returns a result naming the short leg; holdings are untouched
    (checked before any mutation, so also bit-identical on failure).
    """
    if instr.mode != DVP:
        raise SettlementError("settle_dvp requires a dvp instruction")
    reason = _exchange(
        holdings, instr.from_member, instr.to_member, instr.asset, instr.quantity, instr.cash
    )
    instr.status, instr.reason = FAILED if reason else SETTLED, reason
    return SettlementResult(instr.id, instr.status, reason)


def settle_fop(holdings: Holdings, instr: SettlementInstruction) -> SettlementResult:
    """Free-of-payment: deliver the asset leg only."""
    if instr.mode != FOP:
        raise SettlementError("settle_fop requires a fop instruction")
    reason = _exchange(holdings, instr.from_member, instr.to_member, instr.asset, instr.quantity, 0)
    instr.status, instr.reason = FAILED if reason else SETTLED, reason
    return SettlementResult(instr.id, instr.status, reason)


def pay_fop(holdings: Holdings, instr: SettlementInstruction) -> SettlementResult:
    """Apply the separately arranged cash leg of a fop delivery."""
    if instr.mode != FOP:
        raise SettlementError("pay_fop requires a fop instruction")
    if instr.cash_paid or instr.unpaid_cash == 0:
        return SettlementResult(instr.id, SETTLED)
    reason = _exchange(
        holdings, instr.from_member, instr.to_member, instr.asset, 0, instr.unpaid_cash
    )
    instr.cash_paid = reason is None
    return SettlementResult(instr.id, FAILED if reason else SETTLED, reason)


@dataclass
class CashTransfer:
    """Cash-only obligation produced when netting leaves a pure cash
    residual (same asset bought and sold at different prices)."""

    id: str
    from_member: str
    to_member: str
    amount: int
    due_day: int
    status: str = PENDING

    def apply(self, holdings: Holdings) -> bool:
        # a cash-only exchange: the payee delivers nothing
        settled = _exchange(holdings, self.to_member, self.from_member, "", 0, self.amount) is None
        self.status = SETTLED if settled else FAILED
        return settled


# ---------------------------------------------------------------------------
# Cycle runner


@dataclass(frozen=True)
class CycleConfig:
    lag_days: int = 2
    mode: str = MODE_BILATERAL
    leg_mode: str = DVP
    ccp_id: str = "CCP"
    pool_id: str = "CONSORTIUM"
    operator_seed: bytes = b"\x11" * 32
    initial_holdings: Mapping[str, Mapping[str, Any]] | None = None

    def __post_init__(self):
        if self.lag_days < 0:
            raise SettlementError("lag_days must be non-negative")
        if self.mode not in (MODE_BILATERAL, MODE_CCP, MODE_CONSORTIUM):
            raise SettlementError(f"unknown cycle mode {self.mode!r}")
        if self.leg_mode not in (DVP, FOP):
            raise SettlementError(f"unknown leg mode {self.leg_mode!r}")

    @property
    def hub(self) -> str | None:
        """The counterparty every member settles against, if the mode has one."""
        return {MODE_CCP: self.ccp_id, MODE_CONSORTIUM: self.pool_id}.get(self.mode)


@dataclass
class CycleReport:
    mode: str
    lag_days: int
    days: list[dict[str, Any]] = field(default_factory=list)
    exposure_series: list[int] = field(default_factory=list)
    exposure_total: int = 0
    gross_obligations: int = 0
    net_obligations: int = 0
    chains: dict[str, dict[str, int]] = field(default_factory=dict)
    instruction_counts: dict[str, int] = field(default_factory=dict)
    unpaid_deliveries: list[dict[str, Any]] = field(default_factory=list)
    final_holdings: dict[str, Any] = field(default_factory=dict)

    def to_obj(self) -> dict[str, Any]:
        return asdict(self)


def run_cycle(trades: Sequence[Trade], config: CycleConfig) -> CycleReport:
    """Run the full lifecycle over three chains and report exposure.

    Each day records its trades on the exchange chain, clears the
    finalized block into obligations on the clearing chain, settles what
    is due on the settlement chain, and reports its end-of-day exposure.
    The caller's trades are left unchanged.
    """
    if not trades:
        raise SettlementError("run_cycle needs at least one trade")
    by_day: dict[int, list[Trade]] = {}
    for t in sorted(trades, key=lambda t: (t.trade_day, t.id)):
        if t.superseded:
            raise SettlementError(f"trade {t.id!r} is already superseded")
        by_day.setdefault(t.trade_day, []).append(t)
    cycle = _Cycle(config, _opening_holdings(trades, config))
    days: list[dict[str, Any]] = []
    for day in range(min(by_day), max(by_day) + config.lag_days + 1):
        todays = by_day.get(day, [])
        created, transfers = cycle.clear(day, cycle.record(day, todays)) if todays else ([], [])
        settled, failed = cycle.settle(day, created)
        days.append(
            {
                "day": day,
                "trades": len(todays),
                "instructions_created": len(created) + len(transfers),
                "settled": settled,
                "failed": failed,
                "pending_eod": len(cycle.open_instructions) + len(cycle.open_transfers),
                "exposure_eod": cycle.exposure(),
            }
        )
    return cycle.report(trades, days)


def _opening_holdings(trades: Sequence[Trade], config: CycleConfig) -> Holdings:
    """The caller's pinned holdings, else gross obligations pre-funded so
    settlement succeeds; hubs are funded for both sides."""
    if config.initial_holdings is not None:
        return holdings_from(config.initial_holdings)
    holdings = new_holdings()
    for t in trades:
        fund(holdings, t.seller, assets={t.asset: t.quantity})
        fund(holdings, t.buyer, cash=t.notional)
        if config.hub:
            fund(holdings, config.hub, cash=t.notional, assets={t.asset: t.quantity})
    return holdings


class _Cycle:
    """One run of the cycle: its three chains, holdings and obligations.

    `instructions` and `transfers` hold every obligation ever created;
    the open lists hold those not yet settled. All four keep creation
    order, which decides which instruction meets short holdings first.
    """

    def __init__(self, config: CycleConfig, holdings: Holdings):
        self.config = config
        self.holdings = holdings
        self.operator = keygen(config.operator_seed)
        chain_cfg = ChainConfig(mode="quorum", validators=(self.operator.public,), quorum_m=1)
        self.chains = {name: Chain(chain_cfg) for name in ("exchange", "clearing", "settlement")}
        self.instructions: list[SettlementInstruction] = []
        self.transfers: list[CashTransfer] = []
        self.open_instructions: list[SettlementInstruction] = []
        self.open_transfers: list[CashTransfer] = []
        if config.mode == MODE_CONSORTIUM:
            # Netting is administered through the deployed netting contract.
            from . import contracts  # lazy: contracts imports this module

            self.net_contract = contracts.ContractState()
            self.net_addr = self.net_contract.deploy("net", {}, contracts.StepBudget(limit=100), height=0)

    def _seal(self, which: str, kinds_payloads: list[tuple[str, dict]], day: int) -> Any:
        target = self.chains[which]
        txs = [Transaction.create(kind, payload, self.operator) for kind, payload in kinds_payloads]
        block = target.build_block(txs, wall_time=day)
        approval = chain_mod.Approval(self.operator.public, sign(self.operator.secret, block.block_id))
        return target.approve_and_append(block, [approval])

    def record(self, day: int, todays: list[Trade]) -> list[dict[str, Any]]:
        """Seal the day's trades on the exchange chain and read them back
        from the finalized block, which is what drives clearing."""
        block = self._seal(
            "exchange",
            [
                (
                    "trade",
                    {
                        "id": t.id,
                        "buyer": t.buyer,
                        "seller": t.seller,
                        "asset": t.asset,
                        "quantity": t.quantity,
                        "price": t.price,
                        "trade_day": t.trade_day,
                    },
                )
                for t in todays
            ],
            day,
        )
        return [tx.payload_obj() for tx in block.txs]

    def clear(
        self, day: int, block_trades: list[dict[str, Any]]
    ) -> tuple[list[SettlementInstruction], list[CashTransfer]]:
        """Turn a finalized exchange block into obligations due after the
        lag, seal them on the clearing chain and return the new ones."""
        first_instruction, first_transfer = len(self.instructions), len(self.transfers)
        if self.config.mode == MODE_BILATERAL:
            leg_mode = self.config.leg_mode
            for bt in block_trades:
                qty, notional = bt["quantity"], bt["quantity"] * bt["price"]
                self._instruct(day, bt["seller"], bt["buyer"], bt["asset"], qty, notional, leg_mode)
            payloads = [
                ("gross_obligation", {"instruction": i.id, "cash": i.notional, "day": day})
                for i in self.instructions[first_instruction:]
            ]
        else:
            positions = self._net(block_trades)
            for pos in positions:
                self._obligate(day, pos)
            payloads = [
                (
                    "net_position",
                    {
                        "member": p.member,
                        "asset": p.asset,
                        "net_quantity": p.net_quantity,
                        "net_cash": p.net_cash,
                        "day": day,
                    },
                )
                for p in positions
            ]
        if payloads:
            self._seal("clearing", payloads, day)
        return self.instructions[first_instruction:], self.transfers[first_transfer:]

    def _net(self, block_trades: list[dict[str, Any]]) -> list[NetPosition]:
        if self.config.mode == MODE_CCP:
            # novate fresh Trade objects rebuilt from the block, never the caller's
            legs: list[Trade] = []
            for bt in block_trades:
                legs.extend(novate(Trade(**bt), self.config.ccp_id))
            return net_positions(legs)
        from . import contracts

        budget = contracts.StepBudget(limit=10_000)
        rows = self.net_contract.invoke(self.net_addr, "net", {"trades": block_trades}, budget)
        return [NetPosition(**r) for r in rows["positions"]]

    def _obligate(self, day: int, pos: NetPosition) -> None:
        """Decompose one net position into obligations against the hub.

        A member that net-bought (receives assets, owes cash) gets one
        instruction from the hub; a member that net-sold, one to the hub.
        Residual same-sign combinations split into an asset-only dvp
        instruction plus a cash transfer.
        """
        hub, member, qty, cash = self.config.hub, pos.member, pos.net_quantity, pos.net_cash
        if member == hub:
            return
        if qty > 0 and cash <= 0:
            self._instruct(day, hub, member, pos.asset, qty, -cash, self.config.leg_mode)
        elif qty < 0 and cash >= 0:
            self._instruct(day, member, hub, pos.asset, -qty, cash, self.config.leg_mode)
        else:
            if qty:
                src, dst = (hub, member) if qty > 0 else (member, hub)
                self._instruct(day, src, dst, pos.asset, abs(qty), 0, DVP)
            if cash:
                src, dst = (member, hub) if cash < 0 else (hub, member)
                transfer = CashTransfer(
                    id=f"C{len(self.transfers) + 1:05d}",
                    from_member=src,
                    to_member=dst,
                    amount=abs(cash),
                    due_day=day + self.config.lag_days,
                )
                self.transfers.append(transfer)
                self.open_transfers.append(transfer)

    def _instruct(
        self, day: int, src: str, dst: str, asset: str, quantity: int, cash: int, mode: str
    ) -> None:
        """Open an instruction: src delivers `quantity` of `asset` to dst,
        who owes `cash` for it. A dvp instruction pays the cash atomically;
        a fop one carries it as unpaid_cash."""
        fop = mode == FOP
        instr = SettlementInstruction(
            id=f"I{len(self.instructions) + 1:05d}",
            from_member=src,
            to_member=dst,
            asset=asset,
            quantity=quantity,
            cash=0 if fop else cash,
            unpaid_cash=cash if fop else 0,
            mode=mode,
            trade_day=day,
            due_day=day + self.config.lag_days,
        )
        self.instructions.append(instr)
        self.open_instructions.append(instr)

    def settle(self, day: int, created: list[SettlementInstruction]) -> tuple[int, int]:
        """Attempt every open obligation that is due, instructions first,
        each in creation order, and seal the day's new instructions and
        all outcomes on the settlement chain. Returns the instructions
        settled and failed today."""
        payloads: list[tuple[str, dict]] = [
            (
                "settle_instruction",
                {
                    "id": instr.id,
                    "from": instr.from_member,
                    "to": instr.to_member,
                    "asset": instr.asset,
                    "quantity": instr.quantity,
                    "cash": instr.cash,
                    "unpaid_cash": instr.unpaid_cash,
                    "mode": instr.mode,
                    "due_day": instr.due_day,
                },
            )
            for instr in created
        ]
        settled = failed = 0
        for instr in self.open_instructions:
            if instr.due_day > day:
                continue
            result = (settle_dvp if instr.mode == DVP else settle_fop)(self.holdings, instr)
            if result.status == SETTLED:
                settled += 1
            else:
                failed += 1
            outcome = {"id": instr.id, "status": result.status, "reason": result.reason, "day": day}
            payloads.append(("settle_result", outcome))
        for transfer in self.open_transfers:
            if transfer.due_day > day:
                continue
            reason = None if transfer.apply(self.holdings) else INSUFFICIENT_CASH
            outcome = {"id": transfer.id, "status": transfer.status, "reason": reason, "day": day}
            payloads.append(("settle_result", outcome))
        if payloads:
            self._seal("settlement", payloads, day)
        self.open_instructions = [i for i in self.open_instructions if i.status != SETTLED]
        self.open_transfers = [t for t in self.open_transfers if t.status != SETTLED]
        return settled, failed

    def exposure(self) -> int:
        return sum(i.notional for i in self.open_instructions) + sum(t.amount for t in self.open_transfers)

    def report(self, trades: Sequence[Trade], days: list[dict[str, Any]]) -> CycleReport:
        counts: dict[str, int] = {}
        for obligation in [*self.instructions, *self.transfers]:
            counts[obligation.status] = counts.get(obligation.status, 0) + 1
        for name, c in self.chains.items():
            result = c.verify()
            if not result.valid:  # pragma: no cover - defensive
                raise SettlementError(f"{name} chain failed verification: {result}")
        series = [row["exposure_eod"] for row in days]
        return CycleReport(
            mode=self.config.mode,
            lag_days=self.config.lag_days,
            days=days,
            exposure_series=series,
            exposure_total=sum(series),
            # novation preserves members' quantities and prices and the hub
            # nets flat, so both sums are taken over the input trades
            gross_obligations=gross_obligation_sum(trades),
            net_obligations=net_obligation_sum(net_positions(trades)),
            chains={
                name: {"blocks": len(c.blocks), "txs": sum(len(b.txs) for b in c.blocks)}
                for name, c in self.chains.items()
            },
            instruction_counts=dict(sorted(counts.items())),
            unpaid_deliveries=[
                {"id": i.id, "payer": i.to_member, "payee": i.from_member, "amount": i.unpaid_cash}
                for i in self.instructions
                if i.mode == FOP and i.status == SETTLED and not i.cash_paid and i.unpaid_cash
            ],
            final_holdings={
                member: {"cash": entry["cash"], "assets": dict(sorted(entry["assets"].items()))}
                for member, entry in sorted(self.holdings.items())
            },
        )


def trades_from_csv(text: str) -> list[Trade]:
    """Columns: id,buyer,seller,asset,quantity,price,day."""
    import csv as _csv
    import io as _io

    rows = []
    for n, row in enumerate(_csv.DictReader(_io.StringIO(text)), 2):
        try:
            rows.append(
                Trade(
                    id=row["id"].strip(),
                    buyer=row["buyer"].strip(),
                    seller=row["seller"].strip(),
                    asset=row["asset"].strip(),
                    quantity=int(row["quantity"]),
                    price=int(row["price"]),
                    trade_day=int(row["day"]),
                )
            )
        except SettlementError as exc:  # the Trade's own refusal keeps its class
            raise type(exc)(f"trades row {n}: {exc}") from None
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise SettlementError(f"trades row {n}: {exc}") from None
    return rows
