"""Double-entry bank ledger: prime entry books, general ledger postings,
subledger reconciliation, and financial-instrument helpers.

Seven books of prime entry feed the general ledger. The day books and the
journal sit outside the double entry system (their day totals are posted
in summary); the cash book and petty cash book are themselves part of it.

All money amounts are integers in minor units. GL balances are signed,
debit-positive, so a trial balance over balanced postings sums to zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .crypto import is_money

SALES_DAY = "sales_day"
PURCHASE_DAY = "purchase_day"
SALES_RETURNS = "sales_returns"
PURCHASE_RETURNS = "purchase_returns"
CASH = "cash"
PETTY_CASH = "petty_cash"
JOURNAL = "journal"

BOOKS = (
    SALES_DAY,
    PURCHASE_DAY,
    SALES_RETURNS,
    PURCHASE_RETURNS,
    CASH,
    PETTY_CASH,
    JOURNAL,
)

DEBIT = "debit"
CREDIT = "credit"

RECEIVABLES = "receivables"
PAYABLES = "payables"


class BankLedgerError(Exception):
    pass


class UnknownBook(BankLedgerError):
    pass


class UnknownAccount(BankLedgerError):
    pass


class NonPositiveAmount(BankLedgerError):
    pass


class UnbalancedEntry(BankLedgerError):
    pass


class InvalidProbability(BankLedgerError):
    """PD/LGD outside [0, 1] or negative exposure."""


class FullyDepreciated(BankLedgerError):
    pass


# ---------------------------------------------------------------------------
# Prime entry


@dataclass(frozen=True)
class PrimeEntry:
    book: str
    date: str
    counterparty: str
    amount: int

    def __post_init__(self):
        if self.book not in BOOKS:
            raise UnknownBook(f"unknown book {self.book!r}")
        if not is_money(self.amount):
            raise NonPositiveAmount(f"amount must be a positive integer, got {self.amount!r}")


class PrimeBooks:
    """The seven books, each an append-only list of prime entries."""

    def __init__(self):
        self._books: dict[str, list[PrimeEntry]] = {book: [] for book in BOOKS}

    def post(self, entry: PrimeEntry) -> PrimeEntry:
        self._books[entry.book].append(entry)
        return entry

    def entries(self, book: str, date: str | None = None) -> list[PrimeEntry]:
        if book not in BOOKS:
            raise UnknownBook(f"unknown book {book!r}")
        rows = self._books[book]
        if date is None:
            return list(rows)
        return [e for e in rows if e.date == date]

    def dates(self) -> list[str]:
        return sorted({e.date for rows in self._books.values() for e in rows})

    def __len__(self) -> int:
        return sum(len(rows) for rows in self._books.values())


# ---------------------------------------------------------------------------
# Journal entries and the general ledger


@dataclass(frozen=True)
class EntryLine:
    account: str
    side: str
    amount: int


@dataclass(frozen=True)
class JournalEntry:
    date: str
    lines: tuple[EntryLine, ...]

    def __post_init__(self):
        if len(self.lines) < 2:
            raise UnbalancedEntry("a journal entry needs at least two lines")
        debits = credits = 0
        for line in self.lines:
            if line.side not in (DEBIT, CREDIT):
                raise UnbalancedEntry(f"unknown side {line.side!r}")
            if not is_money(line.amount):
                raise NonPositiveAmount("entry line amounts must be positive integers")
            if line.side == DEBIT:
                debits += line.amount
            else:
                credits += line.amount
        if debits != credits:
            raise UnbalancedEntry(f"debits {debits} != credits {credits}")


def simple_entry(date: str, debit_account: str, credit_account: str, amount: int) -> JournalEntry:
    return JournalEntry(
        date=date,
        lines=(
            EntryLine(debit_account, DEBIT, amount),
            EntryLine(credit_account, CREDIT, amount),
        ),
    )


# Chart of accounts that the posting map posts to; receivables_control and
# payables_control are the two control accounts.
CHART = frozenset(
    "receivables_control payables_control sales sales_returns purchases purchase_returns "
    "cash_at_bank petty_cash_float sundry_expense accruals".split()
)

# Day-total posting rule per book: (debit account, credit account,
# subledger name or None, subledger sign). The standard meanings: credit
# sales raise receivables, credit purchases raise payables, returns unwind
# them, the cash book records customer receipts into the bank account, the
# petty cash book records small cash payments out of the float, and the
# journal sweeps sundry accrual items.
POSTING_MAP: Mapping[str, tuple[str, str, str | None, int]] = {
    SALES_DAY: ("receivables_control", "sales", RECEIVABLES, +1),
    PURCHASE_DAY: ("purchases", "payables_control", PAYABLES, +1),
    SALES_RETURNS: ("sales_returns", "receivables_control", RECEIVABLES, -1),
    PURCHASE_RETURNS: ("payables_control", "purchase_returns", PAYABLES, -1),
    CASH: ("cash_at_bank", "receivables_control", RECEIVABLES, -1),
    PETTY_CASH: ("sundry_expense", "petty_cash_float", None, 0),
    JOURNAL: ("sundry_expense", "accruals", None, 0),
}


@dataclass(frozen=True)
class ReconcileResult:
    ok: bool
    control_total: int
    subledger_total: int


class GeneralLedger:
    def __init__(self):
        self.balances: dict[str, int] = {}  # per opened account, signed, debit positive
        self.receivables: dict[str, int] = {}
        self.payables: dict[str, int] = {}

    def _account(self, account_id: str) -> int:
        """The account's balance, opening it at zero on first use."""
        if account_id not in CHART:
            raise UnknownAccount(f"account {account_id!r} is not in the chart")
        return self.balances.setdefault(account_id, 0)

    def post(self, entry: JournalEntry) -> JournalEntry:
        # Validate every account before touching any balance.
        for line in entry.lines:
            self._account(line.account)
        for line in entry.lines:
            self.balances[line.account] += line.amount if line.side == DEBIT else -line.amount
        return entry

    def trial_balance(self) -> dict[str, int]:
        return dict(sorted(self.balances.items()))

    def reconcile_subledger(self, which: str) -> ReconcileResult:
        """Compare a control account with the sum of its subledger rows.

        Receivables run a debit balance, payables a credit balance; both
        totals are reported as positive magnitudes.
        """
        if which == RECEIVABLES:
            control = self._account("receivables_control")
            sub = sum(self.receivables.values())
        elif which == PAYABLES:
            control = -self._account("payables_control")
            sub = sum(self.payables.values())
        else:
            raise BankLedgerError(f"unknown subledger {which!r}")
        return ReconcileResult(control == sub, control, sub)


def summarize_and_post(
    books: PrimeBooks, ledger: GeneralLedger, date: str
) -> list[JournalEntry]:
    """Post each book's day total as one balanced journal entry.

    Books are processed in their declared order and counterparties in
    sorted order, so a replay over the same prime entries reproduces the
    ledger exactly. Books with no entries for the date are skipped.
    """
    posted: list[JournalEntry] = []
    for book in BOOKS:
        rows = books.entries(book, date)
        if not rows:
            continue
        total = sum(e.amount for e in rows)
        debit_acct, credit_acct, subledger, sign = POSTING_MAP[book]
        entry = simple_entry(date, debit_acct, credit_acct, total)
        ledger.post(entry)
        posted.append(entry)
        if subledger:
            target = ledger.receivables if subledger == RECEIVABLES else ledger.payables
            by_cp: dict[str, int] = {}
            for e in rows:
                by_cp[e.counterparty] = by_cp.get(e.counterparty, 0) + e.amount
            for cp in sorted(by_cp):
                target[cp] = target.get(cp, 0) + sign * by_cp[cp]
    return posted


# ---------------------------------------------------------------------------
# Financial instrument classification and measurement


AMORTIZED_COST = "amortized_cost"
FVOCI = "fvoci"
FVTPL = "fvtpl"

HOLD_TO_COLLECT = "hold_to_collect"
HOLD_TO_COLLECT_AND_SELL = "hold_to_collect_and_sell"
OTHER_MODEL = "other"

BUSINESS_MODELS = (HOLD_TO_COLLECT, HOLD_TO_COLLECT_AND_SELL, OTHER_MODEL)


def classify_ifrs9(sppi_pass: bool, business_model: str) -> str:
    """Classification from the two tests.

    An instrument failing the cash-flow characteristics test lands at fair
    value through profit or loss regardless of business model. Passing it,
    hold-to-collect measures at amortized cost, hold-to-collect-and-sell
    at fair value through other comprehensive income, anything else at
    fair value through profit or loss.
    """
    if business_model not in BUSINESS_MODELS:
        raise BankLedgerError(f"unknown business model {business_model!r}")
    if not sppi_pass:
        return FVTPL
    if business_model == HOLD_TO_COLLECT:
        return AMORTIZED_COST
    if business_model == HOLD_TO_COLLECT_AND_SELL:
        return FVOCI
    return FVTPL


def _round_half_up(value: Fraction) -> int:
    # exact at any size, where a Decimal quantize overflows its 28 digits
    return (value + Fraction(1, 2)) // 1


def ecl_provision(
    exposure: int,
    pd_12m: float,
    pd_lifetime: float,
    lgd: float,
    stage: int,
) -> int:
    """Expected credit loss provision, rounded half-up to minor units.

    Stage 1 uses the 12-month default probability; stages 2 and 3 the
    lifetime probability.
    """
    if not 0 <= pd_12m <= 1 or not 0 <= pd_lifetime <= 1 or not 0 <= lgd <= 1:
        raise InvalidProbability("pd and lgd must lie in [0, 1]")
    if exposure < 0:
        raise InvalidProbability("exposure must be non-negative")
    if stage not in (1, 2, 3):
        raise BankLedgerError(f"stage must be 1, 2, or 3, got {stage!r}")
    pd = pd_12m if stage == 1 else pd_lifetime
    return _round_half_up(Fraction(exposure) * Fraction(str(pd)) * Fraction(str(lgd)))


@dataclass(frozen=True)
class FixedAsset:
    cost: int
    salvage: int
    life_periods: int
    periods_elapsed: int

    def __post_init__(self):
        if self.cost < 0 or self.salvage < 0 or self.salvage > self.cost:
            raise BankLedgerError("need 0 <= salvage <= cost")
        if self.life_periods < 1:
            raise BankLedgerError("life_periods must be at least 1")
        if self.periods_elapsed < 0:
            raise BankLedgerError("periods_elapsed must be non-negative")


def depreciate(asset: FixedAsset) -> int:
    """Straight-line charge for the current period.

    The regular charge is (cost - salvage) / life rounded half-up; the
    final period absorbs the remainder so the total equals cost - salvage
    exactly. Raises FullyDepreciated once every period has been taken.
    """
    if asset.periods_elapsed >= asset.life_periods:
        raise FullyDepreciated(
            f"period {asset.periods_elapsed + 1} of a {asset.life_periods}-period life"
        )
    base = asset.cost - asset.salvage
    regular = _round_half_up(Fraction(base, asset.life_periods))
    if asset.periods_elapsed == asset.life_periods - 1:
        return base - regular * (asset.life_periods - 1)
    return regular
