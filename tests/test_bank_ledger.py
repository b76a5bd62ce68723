"""Prime books, posting, reconciliation, and instrument helper tests.

Expected provision and depreciation figures are frozen from independent
hand arithmetic; the comments next to each show the calculation.
"""

import random

import pytest

from ledgerstack import bank_ledger as bank
from ledgerstack.crypto import canonical_json


def sample_books() -> bank.PrimeBooks:
    books = bank.PrimeBooks()
    rows = [
        ("sales_day", "2025-03-01", "acme", 100),
        ("sales_day", "2025-03-01", "bolt", 250),
        ("purchase_day", "2025-03-01", "mill", 90),
        ("sales_day", "2025-03-02", "acme", 75),
        ("sales_returns", "2025-03-02", "bolt", 50),
        ("purchase_returns", "2025-03-02", "mill", 30),
        ("cash", "2025-03-02", "acme", 100),
        ("petty_cash", "2025-03-02", "office", 20),
        ("journal", "2025-03-02", "misc", 15),
    ]
    for book, date, cp, amount in rows:
        books.post(bank.PrimeEntry(book, date, cp, amount))
    return books


def post_all(books: bank.PrimeBooks, ledger: bank.GeneralLedger) -> int:
    posted = 0
    for date in books.dates():
        posted += len(bank.summarize_and_post(books, ledger, date))
    return posted


class TestPrimeBooks:
    def test_seven_books_exist(self):
        assert len(bank.BOOKS) == 7
        books = bank.PrimeBooks()
        for book in bank.BOOKS:
            assert books.entries(book) == []

    def test_unknown_book_rejected(self):
        with pytest.raises(bank.UnknownBook):
            bank.PrimeEntry("ledger_of_dreams", "2025-01-01", "x", 1)
        with pytest.raises(bank.UnknownBook):
            bank.PrimeBooks().entries("nope")

    def test_amount_must_be_positive_int(self):
        for bad in (0, -5, True):
            with pytest.raises(bank.BankLedgerError):
                bank.PrimeEntry("cash", "2025-01-01", "x", bad)

    def test_dates_sorted_unique(self):
        books = sample_books()
        assert books.dates() == ["2025-03-01", "2025-03-02"]
        assert len(books) == 9

class TestJournalEntries:
    def test_balanced_required(self):
        with pytest.raises(bank.UnbalancedEntry):
            bank.JournalEntry(
                date="d",
                lines=(
                    bank.EntryLine("sales", bank.DEBIT, 10),
                    bank.EntryLine("cash_at_bank", bank.CREDIT, 9),
                ),
            )

    def test_needs_two_lines(self):
        with pytest.raises(bank.UnbalancedEntry):
            bank.JournalEntry(date="d", lines=(bank.EntryLine("sales", bank.DEBIT, 10),))

    def test_line_amounts_positive(self):
        with pytest.raises(bank.NonPositiveAmount):
            bank.JournalEntry(
                date="d",
                lines=(
                    bank.EntryLine("sales", bank.DEBIT, 0),
                    bank.EntryLine("cash_at_bank", bank.CREDIT, 0),
                ),
            )

    def test_bad_side_rejected(self):
        with pytest.raises(bank.UnbalancedEntry):
            bank.JournalEntry(
                date="d",
                lines=(
                    bank.EntryLine("sales", "sideways", 10),
                    bank.EntryLine("cash_at_bank", bank.CREDIT, 10),
                ),
            )

    def test_multi_line_split_ok(self):
        entry = bank.JournalEntry(
            date="d",
            lines=(
                bank.EntryLine("sundry_expense", bank.DEBIT, 7),
                bank.EntryLine("purchases", bank.DEBIT, 3),
                bank.EntryLine("accruals", bank.CREDIT, 10),
            ),
        )
        assert len(entry.lines) == 3

    def test_unknown_account_rejected_before_any_mutation(self):
        ledger = bank.GeneralLedger()
        bad = bank.JournalEntry(
            date="d",
            lines=(
                bank.EntryLine("sales", bank.DEBIT, 10),
                bank.EntryLine("moon_dust", bank.CREDIT, 10),
            ),
        )
        with pytest.raises(bank.UnknownAccount):
            ledger.post(bad)
        # the valid first line must not have leaked into a balance
        assert ledger.trial_balance().get("sales", 0) == 0


class TestPostingAndReconciliation:
    def test_day_totals_posted_per_book(self):
        books = sample_books()
        ledger = bank.GeneralLedger()
        assert post_all(books, ledger) == 8  # 2 books on day one, 6 on day two

    def test_a_posted_date_is_refused_by_name(self):
        books = sample_books()
        ledger = bank.GeneralLedger()
        post_all(books, ledger)
        before = ledger.trial_balance()
        with pytest.raises(bank.BankLedgerError, match="2025-03-01 is already posted"):
            bank.summarize_and_post(books, ledger, "2025-03-01")
        assert ledger.trial_balance() == before

    def test_trial_balance_sums_to_zero(self):
        books = sample_books()
        ledger = bank.GeneralLedger()
        post_all(books, ledger)
        balances = ledger.trial_balance()
        assert sum(balances.values()) == 0

    def test_control_account_balances(self):
        books = sample_books()
        ledger = bank.GeneralLedger()
        post_all(books, ledger)
        balances = ledger.trial_balance()
        # receivables: 350 sales + 75 sales - 50 returns - 100 cash = 275
        assert balances["receivables_control"] == 275
        # payables run a credit balance: -(90 - 30) = -60
        assert balances["payables_control"] == -60
        assert balances["cash_at_bank"] == 100
        assert balances["sales"] == -425
        assert balances["sundry_expense"] == 35

    def test_subledgers_reconcile(self):
        books = sample_books()
        ledger = bank.GeneralLedger()
        post_all(books, ledger)
        recv = ledger.reconcile_subledger(bank.RECEIVABLES)
        assert recv.ok and recv.control_total == 275 and recv.subledger_total == 275
        assert ledger.receivables == {"acme": 75, "bolt": 200}
        pay = ledger.reconcile_subledger(bank.PAYABLES)
        assert pay.ok and pay.control_total == 60 and pay.subledger_total == 60
        assert ledger.payables == {"mill": 60}

    def test_injected_subledger_drift_detected(self):
        books = sample_books()
        ledger = bank.GeneralLedger()
        post_all(books, ledger)
        ledger.receivables["phantom"] = 5
        result = ledger.reconcile_subledger(bank.RECEIVABLES)
        assert not result.ok
        assert result.subledger_total == 280 and result.control_total == 275

    def test_unknown_subledger(self):
        with pytest.raises(bank.BankLedgerError):
            bank.GeneralLedger().reconcile_subledger("inventory")

    def test_posting_map_covers_every_book(self):
        assert set(bank.POSTING_MAP) == set(bank.BOOKS)
        for debit, credit, _, _ in bank.POSTING_MAP.values():
            assert debit in bank.CHART and credit in bank.CHART

    def test_replay_is_byte_identical(self):
        books = sample_books()
        first, second = bank.GeneralLedger(), bank.GeneralLedger()
        post_all(books, first)
        post_all(books, second)
        assert canonical_json(first.trial_balance()) == canonical_json(second.trial_balance())
        assert first.receivables == second.receivables
        assert first.payables == second.payables

    def test_random_day_books_always_balance(self):
        rng = random.Random(813)
        books = bank.PrimeBooks()
        for _ in range(400):
            books.post(
                bank.PrimeEntry(
                    book=rng.choice(bank.BOOKS),
                    date=f"2025-04-{rng.randrange(1, 5):02d}",
                    counterparty=rng.choice(["a", "b", "c", "d"]),
                    amount=rng.randrange(1, 10_000),
                )
            )
        ledger = bank.GeneralLedger()
        post_all(books, ledger)
        assert sum(ledger.trial_balance().values()) == 0


class TestClassification:
    # full truth table of (cash-flow test, business model) -> category
    @pytest.mark.parametrize(
        "sppi,model,want",
        [
            (True, "hold_to_collect", bank.AMORTIZED_COST),
            (True, "hold_to_collect_and_sell", bank.FVOCI),
            (True, "other", bank.FVTPL),
            (False, "hold_to_collect", bank.FVTPL),
            (False, "hold_to_collect_and_sell", bank.FVTPL),
            (False, "other", bank.FVTPL),
        ],
    )
    def test_truth_table(self, sppi, model, want):
        assert bank.classify_ifrs9(sppi, model) == want

    def test_unknown_model(self):
        with pytest.raises(bank.BankLedgerError):
            bank.classify_ifrs9(True, "hold_and_hope")


class TestEclProvision:
    def test_provision_is_exact_beyond_28_digits(self):
        # before: decimal.InvalidOperation once the product passed 28 digits
        provision = bank.ecl_provision(10**40 + 3, 0.5, 0.5, 0.5, stage=1)
        assert provision == (10**40 + 3) // 4 + 1

    def test_stage_one_uses_twelve_month_pd(self):
        # 1_000_000 * 0.02 * 0.45 = 9000
        assert bank.ecl_provision(1_000_000, 0.02, 0.35, 0.45, stage=1) == 9000

    def test_stages_two_and_three_use_lifetime_pd(self):
        # 125_000 * 0.17 * 0.40 = 8500
        for stage in (2, 3):
            assert bank.ecl_provision(125_000, 0.02, 0.17, 0.40, stage=stage) == 8500

    def test_half_up_rounding(self):
        # 10 * 0.1 * 0.5 = 0.50 exactly; half-up gives 1, not banker's 0
        assert bank.ecl_provision(10, 0.1, 0.1, 0.5, stage=1) == 1
        # 333 * 0.5 * 0.5 = 83.25 rounds down
        assert bank.ecl_provision(333, 0.5, 0.5, 0.5, stage=1) == 83

    def test_decimal_arithmetic_not_float(self):
        # 100 * 0.615 * 1.0 = 61.5 -> 62; binary float gives 61.4999...
        assert bank.ecl_provision(100, 0.615, 0.615, 1.0, stage=1) == 62

    def test_zero_provision_posts_nothing(self):
        assert bank.ecl_provision(100, 0.0, 0.0, 0.9, stage=1) == 0

    def test_probability_bounds(self):
        for kwargs in (
            dict(pd_12m=1.5, pd_lifetime=0.1, lgd=0.1),
            dict(pd_12m=0.1, pd_lifetime=-0.2, lgd=0.1),
            dict(pd_12m=0.1, pd_lifetime=0.1, lgd=2.0),
        ):
            with pytest.raises(bank.InvalidProbability):
                bank.ecl_provision(100, stage=1, **kwargs)
        with pytest.raises(bank.InvalidProbability):
            bank.ecl_provision(-1, 0.1, 0.1, 0.1, stage=1)

    def test_bad_stage(self):
        with pytest.raises(bank.BankLedgerError):
            bank.ecl_provision(100, 0.1, 0.1, 0.1, stage=4)


class TestDepreciation:
    def test_charge_is_exact_beyond_28_digits(self):
        # before: decimal.InvalidOperation from the quantize
        assert bank.depreciate(bank.FixedAsset(10**40, 0, 3, 0)) == (10**40 + 1) // 3

    def run_schedule(self, cost, salvage, life):
        amounts = []
        for elapsed in range(life):
            amounts.append(bank.depreciate(bank.FixedAsset(cost, salvage, life, elapsed)))
        return amounts

    def test_remainder_goes_to_final_period(self):
        # 100 over 3 periods: 33 + 33 + 34
        assert self.run_schedule(100, 0, 3) == [33, 33, 34]

    def test_salvage_reduces_base(self):
        # (1000 - 100) / 7 = 128.57 -> 129 regular, final absorbs 126
        schedule = self.run_schedule(1000, 100, 7)
        assert schedule == [129] * 6 + [126]
        assert sum(schedule) == 900

    def test_schedule_always_sums_to_base(self):
        rng = random.Random(99)
        for _ in range(50):
            cost = rng.randrange(1, 100_000)
            salvage = rng.randrange(0, cost + 1)
            life = rng.randrange(1, 40)
            assert sum(self.run_schedule(cost, salvage, life)) == cost - salvage

    def test_zero_charge_posts_nothing(self):
        assert bank.depreciate(bank.FixedAsset(500, 500, 4, 0)) == 0

    def test_fully_depreciated(self):
        with pytest.raises(bank.FullyDepreciated):
            bank.depreciate(bank.FixedAsset(100, 0, 3, 3))

    def test_validation(self):
        with pytest.raises(bank.BankLedgerError):
            bank.FixedAsset(100, 200, 3, 0)  # salvage above cost
        with pytest.raises(bank.BankLedgerError):
            bank.FixedAsset(100, 0, 0, 0)  # no life
