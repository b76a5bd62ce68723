"""Matching, novation, netting, and settlement cycle tests.

Netting results are checked against the quadratic recount in oracles.py;
exposure series are checked against the closed form for constant flow.
"""

import dataclasses
import hashlib
import pathlib
import random
from importlib import resources

import pytest

from ledgerstack import engine
from ledgerstack import settlement as st
from ledgerstack.crypto import canonical_json

from oracles import match_oracle, net_positions_oracle

GOLDEN = pathlib.Path(__file__).parent / "golden"


def trade(id, buyer, seller, qty=1, price=100, asset="BOND", day=0):
    return st.Trade(
        id=id, buyer=buyer, seller=seller, asset=asset, quantity=qty, price=price, trade_day=day
    )


def resting(book, asset):
    """(bid quantity, ask quantity) resting in the book for asset."""
    return tuple(sum(row[3] for row in book._queues.get((asset, side), [])) for side in (st.BUY, st.SELL))


def constant_flow(days, per_day=2, price=100):
    """per_day unit trades a->b and b->c every day; daily notional fixed."""
    out = []
    pairs = [("a", "b"), ("b", "c")][:per_day]
    for d in range(days):
        for i, (buyer, seller) in enumerate(pairs):
            out.append(trade(f"T{d}-{i}", buyer, seller, day=d, price=price))
    return out


class TestOrdersAndTrades:
    def test_order_validation(self):
        with pytest.raises(st.NonPositiveQuantity):
            st.Order("O1", "a", st.BUY, "BOND", 0, 100, 0)
        with pytest.raises(st.SettlementError):
            st.Order("O1", "a", st.BUY, "BOND", 1, 0, 0)
        with pytest.raises(st.SettlementError):
            st.Order("O1", "a", "hold", "BOND", 1, 100, 0)

    def test_trade_validation(self):
        with pytest.raises(st.SettlementError):
            trade("T1", "a", "a")
        with pytest.raises(st.NonPositiveQuantity):
            trade("T1", "a", "b", qty=0)
        assert trade("T1", "a", "b", qty=3, price=7).notional == 21

    def test_money_fields_must_be_ints(self):
        # before: all three were accepted and the trade had notional 3.0
        with pytest.raises(st.SettlementError, match="order price must be positive"):
            st.Order("O1", "a", st.BUY, "BOND", 1, 1.5, 0)
        with pytest.raises(st.NonPositiveQuantity, match="order quantity must be positive"):
            st.Order("O1", "a", st.BUY, "BOND", True, 100, 0)
        with pytest.raises(st.NonPositiveQuantity, match="trade quantity must be positive"):
            trade("T1", "a", "b", qty=1.5, price=2)
        with pytest.raises(st.SettlementError, match="trade price must be positive"):
            trade("T1", "a", "b", price=True)

    @pytest.mark.parametrize("day", [-5, 2**64, 1.5, True, "3", None])
    def test_trade_day_must_be_a_u64_int(self, day):
        # before: accepted, and run_cycle raised ChainError from _Cycle._seal
        with pytest.raises(st.SettlementError, match="trade day must be an int in 0..2\\^64-1"):
            trade("T1", "a", "b", day=day)

    def test_trade_day_at_the_u64_bounds_is_accepted(self):
        assert [trade("T1", "a", "b", day=d).trade_day for d in (0, 2**64 - 1)] == [0, 2**64 - 1]


class TestMatching:
    def test_crossing_executes_at_resting_price(self):
        book = st.OrderBook()
        book.match(st.Order("O1", "bob", st.SELL, "BOND", 5, 98, 0))
        book.match(st.Order("O2", "carol", st.SELL, "BOND", 5, 99, 0))
        trades = book.match(st.Order("O3", "alice", st.BUY, "BOND", 7, 99, 0))
        assert [(t.seller, t.quantity, t.price) for t in trades] == [
            ("bob", 5, 98),
            ("carol", 2, 99),
        ]
        assert all(t.buyer == "alice" for t in trades)
        assert resting(book, "BOND") == (0, 3)  # carol's remainder rests

    def test_time_priority_on_equal_price(self):
        book = st.OrderBook()
        book.match(st.Order("O1", "first", st.SELL, "BOND", 1, 100, 0))
        book.match(st.Order("O2", "second", st.SELL, "BOND", 1, 100, 0))
        trades = book.match(st.Order("O3", "buyer", st.BUY, "BOND", 1, 100, 0))
        assert [t.seller for t in trades] == ["first"]

    def test_no_cross_rests(self):
        book = st.OrderBook()
        book.match(st.Order("O1", "a", st.SELL, "BOND", 5, 101, 0))
        trades = book.match(st.Order("O2", "b", st.BUY, "BOND", 5, 100, 0))
        assert trades == []
        assert resting(book, "BOND") == (5, 5)

    def test_sell_side_matches_best_bid_first(self):
        book = st.OrderBook()
        book.match(st.Order("O1", "low", st.BUY, "BOND", 1, 99, 0))
        book.match(st.Order("O2", "high", st.BUY, "BOND", 1, 101, 0))
        trades = book.match(st.Order("O3", "seller", st.SELL, "BOND", 2, 99, 0))
        assert [(t.buyer, t.price) for t in trades] == [("high", 101), ("low", 99)]

    def test_own_orders_never_cross(self):
        book = st.OrderBook()
        book.match(st.Order("O1", "alice", st.SELL, "BOND", 1, 100, 0))
        book.match(st.Order("O2", "bob", st.SELL, "BOND", 1, 100, 0))
        trades = book.match(st.Order("O3", "alice", st.BUY, "BOND", 1, 100, 0))
        assert [(t.buyer, t.seller) for t in trades] == [("alice", "bob")]

    def test_two_own_resting_orders_are_skipped(self):
        book = st.OrderBook()
        book.match(st.Order("O1", "alice", st.SELL, "BOND", 2, 99, 0))
        book.match(st.Order("O2", "alice", st.SELL, "BOND", 3, 100, 0))
        book.match(st.Order("O3", "bob", st.SELL, "BOND", 4, 101, 0))
        trades = book.match(st.Order("O4", "alice", st.BUY, "BOND", 4, 101, 0))
        assert [(t.buyer, t.seller, t.quantity, t.price) for t in trades] == [
            ("alice", "bob", 4, 101)
        ]
        assert resting(book, "BOND") == (0, 5)  # both own asks still rest

    def test_matches_oracle_with_frequent_self_crossing(self):
        rng = random.Random(8191)
        for _ in range(40):
            orders = [
                st.Order(
                    f"O{i}",
                    rng.choice(["a", "b", "c"]),
                    rng.choice([st.BUY, st.SELL]),
                    rng.choice(["BOND", "BILL"]),
                    rng.randrange(1, 10),
                    rng.randrange(95, 106),
                    i // 50,
                )
                for i in range(150)
            ]
            self._assert_matches_oracle(orders)

    def _assert_matches_oracle(self, orders):
        """Match orders in one book; trades and every depth equal the oracle's."""
        book = st.OrderBook()
        got = [
            (t.id, t.buyer, t.seller, t.asset, t.quantity, t.price, t.trade_day)
            for o in orders
            for t in book.match(o)
        ]
        want, depth = match_oracle([(o.member, o.side, o.asset, o.quantity, o.price, o.day) for o in orders])
        assert got == want
        assert {a: resting(book, a) for a in depth} == depth
        return got

    @pytest.mark.parametrize("seed", [1, 2])
    def test_deep_tied_book_matches_oracle(self, seed):
        # 1,600 orders on three price levels from 24 members. Bids lean low
        # and asks high, so queues grow to about 160 tied rows; Zipf weights
        # make about one order in four meet a crossing row of its own member.
        rng = random.Random(f"deep-ties:{seed}")
        members = [f"m{i:02d}" for i in range(24)]
        weights = [1.0 / (i + 1) for i in range(len(members))]
        orders = []
        for i in range(1600):
            side = rng.choice([st.BUY, st.SELL])
            member = rng.choices(members, weights)[0]
            price = rng.choice([99, 99, 100, 101] if side == st.BUY else [99, 100, 101, 101])
            asset = rng.choice(["BOND", "BILL"])
            orders.append(st.Order(f"O{i}", member, side, asset, rng.randrange(1, 30), price, i // 400))
        assert len(self._assert_matches_oracle(orders)) > 500

    def test_partly_filled_head_keeps_its_place_before_an_equal_price(self):
        orders = [
            st.Order("O1", "a", st.SELL, "BOND", 10, 100, 0),
            st.Order("O2", "b", st.SELL, "BOND", 5, 100, 0),
            st.Order("O3", "c", st.BUY, "BOND", 4, 100, 0),  # a's head row keeps 6
            st.Order("O4", "d", st.SELL, "BOND", 3, 100, 0),  # rests behind b
            st.Order("O5", "e", st.BUY, "BOND", 12, 100, 0),
        ]
        got = self._assert_matches_oracle(orders)
        assert [(buyer, seller, qty) for _, buyer, seller, _, qty, _, _ in got] == [
            ("c", "a", 4),
            ("e", "a", 6),
            ("e", "b", 5),
            ("e", "d", 1),
        ]

    def test_assets_isolated(self):
        book = st.OrderBook()
        book.match(st.Order("O1", "a", st.SELL, "BOND", 1, 100, 0))
        trades = book.match(st.Order("O2", "b", st.BUY, "BILL", 1, 100, 0))
        assert trades == []
        assert resting(book, "BILL") == (1, 0)

    def test_buyer_seller_set_by_incoming_side(self):
        book = st.OrderBook()
        book.match(st.Order("O1", "resting", st.BUY, "BOND", 1, 100, 0))
        [t] = book.match(st.Order("O2", "incoming", st.SELL, "BOND", 1, 100, 0))
        assert (t.buyer, t.seller) == ("resting", "incoming")


class TestNovation:
    def test_legs_preserve_terms(self):
        original = trade("T9", "alice", "bob", qty=4, price=25, day=3)
        s_leg, b_leg = st.novate(original, "CCP")
        assert original.superseded
        assert (s_leg.buyer, s_leg.seller) == ("CCP", "bob")
        assert (b_leg.buyer, b_leg.seller) == ("alice", "CCP")
        for leg in (s_leg, b_leg):
            assert (leg.quantity, leg.price, leg.trade_day) == (4, 25, 3)
        assert {s_leg.id, b_leg.id} == {"T9/s", "T9/b"}

    def test_double_novation_rejected(self):
        original = trade("T1", "a", "b")
        st.novate(original, "CCP")
        with pytest.raises(st.AlreadyNovated):
            st.novate(original, "CCP")

    def test_ccp_cannot_be_party(self):
        with pytest.raises(st.CcpIsParty):
            st.novate(trade("T1", "CCP", "b"), "CCP")
        with pytest.raises(st.CcpIsParty):
            st.novate(trade("T1", "a", "CCP"), "CCP")

    def test_netting_neutral_for_members(self):
        trades = [trade(f"T{i}", "a", "b", qty=i + 1, price=10 * (i + 1)) for i in range(4)]
        before = {
            (p.member, p.asset): (p.net_quantity, p.net_cash)
            for p in st.net_positions(trades)
        }
        legs = []
        for t in trades:
            legs.extend(st.novate(t, "HUB"))
        after = st.net_positions(trades + legs)  # originals now superseded
        # the hub nets flat, so it produces no rows; members are unchanged
        assert all(p.member != "HUB" for p in after)
        assert {
            (p.member, p.asset): (p.net_quantity, p.net_cash) for p in after
        } == before

    def test_superseded_trades_drop_out_of_netting(self):
        t = trade("T1", "a", "b")
        st.novate(t, "HUB")
        assert st.net_positions([t]) == []


class TestNetting:
    def test_refuses_a_row_whose_buyer_is_its_seller(self):
        # before: the row netted to nothing and no error was raised
        with pytest.raises(st.SettlementError, match="buyer and seller must differ"):
            st.net_over_dicts([{"buyer": "a", "seller": "a", "asset": "X", "quantity": 2, "price": 5}])

    def test_matches_oracle_on_random_sets(self):
        rng = random.Random(4711)
        members = ["m1", "m2", "m3", "m4", "m5"]
        assets = ["BOND", "BILL", "NOTE"]
        for _ in range(30):
            trades = []
            for i in range(50):
                buyer, seller = rng.sample(members, 2)
                trades.append(
                    {
                        "buyer": buyer,
                        "seller": seller,
                        "asset": rng.choice(assets),
                        "quantity": rng.randrange(1, 50),
                        "price": rng.randrange(1, 500),
                    }
                )
            assert st.net_over_dicts(trades) == net_positions_oracle(trades)

    def test_zero_sum_invariants(self):
        rng = random.Random(929)
        trades = []
        for i in range(200):
            buyer, seller = rng.sample(["a", "b", "c", "d"], 2)
            trades.append(
                {
                    "buyer": buyer,
                    "seller": seller,
                    "asset": rng.choice(["X", "Y"]),
                    "quantity": rng.randrange(1, 9),
                    "price": rng.randrange(1, 99),
                }
            )
        rows = st.net_over_dicts(trades)
        for asset in ("X", "Y"):
            assert sum(r["net_quantity"] for r in rows if r["asset"] == asset) == 0
        assert sum(r["net_cash"] for r in rows) == 0

    def test_gross_never_below_net(self):
        rng = random.Random(31337)
        for _ in range(20):
            trades = []
            for i in range(40):
                buyer, seller = rng.sample(["a", "b", "c"], 2)
                trades.append(
                    trade(f"T{i}", buyer, seller, qty=rng.randrange(1, 20), price=rng.randrange(1, 200))
                )
            gross = st.gross_obligation_sum(trades)
            net = st.net_obligation_sum(st.net_positions(trades))
            assert gross >= net

    @pytest.mark.parametrize("field,value", [("quantity", 1.5), ("quantity", "3"), ("price", True)])
    def test_refuses_values_that_are_not_money(self, field, value):
        # before: 1.5 netted as 1 unit, "3" as 3 and a price of True as 1
        row = {"buyer": "a", "seller": "b", "asset": "X", "quantity": 2, "price": 5, field: value}
        with pytest.raises(st.NonPositiveQuantity):
            st.net_over_dicts([row])

    def test_offsetting_trades_net_to_nothing(self):
        trades = [trade("T1", "a", "b", qty=5, price=10), trade("T2", "b", "a", qty=5, price=10)]
        assert st.net_positions(trades) == []
        assert st.net_obligation_sum(st.net_positions(trades)) == 0
        assert st.gross_obligation_sum(trades) == 110  # but gross still counts both


class TestInstructionsAndSettlement:
    def holdings(self):
        h = {}
        st.fund(h, "seller", cash=0, assets={"BOND": 10})
        st.fund(h, "buyer", cash=1000)
        return h

    def instr(self, qty=10, cash=1000, mode=st.DVP, **kwargs):
        return st.SettlementInstruction(
            id="I1",
            from_member="seller",
            to_member="buyer",
            asset="BOND",
            quantity=qty,
            cash=cash,
            mode=mode,
            **kwargs,
        )

    def test_validation(self):
        with pytest.raises(st.NonPositiveQuantity):
            self.instr(qty=0)
        with pytest.raises(st.SettlementError):
            self.instr(mode="maybe")
        with pytest.raises(st.SettlementError):
            self.instr(mode=st.FOP, cash=5)
        with pytest.raises(st.SettlementError):
            self.instr(cash=-1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"qty": True},
            {"qty": 1.5},
            {"cash": 0.5},
            {"cash": True},
            {"cash": 0.0},
            {"cash": False},
            {"cash": 0, "mode": st.FOP, "unpaid_cash": 2.5},
        ],
    )
    def test_money_rule_on_instructions(self, kwargs):
        # before: each was accepted, so settle_dvp could move 1.5 units or 0.5 cash
        with pytest.raises(st.SettlementError):
            self.instr(**kwargs)

    def test_dvp_moves_both_legs(self):
        h = self.holdings()
        result = st.settle_dvp(h, self.instr())
        assert result.status == st.SETTLED
        assert h["buyer"]["assets"]["BOND"] == 10 and h["buyer"]["cash"] == 0
        assert h["seller"]["cash"] == 1000 and h["seller"]["assets"]["BOND"] == 0

    def test_dvp_insufficient_asset_changes_nothing(self):
        h = self.holdings()
        before = canonical_json(h)
        result = st.settle_dvp(h, self.instr(qty=11, cash=1000))
        assert result.status == st.FAILED and result.reason == st.INSUFFICIENT_ASSET
        assert canonical_json(h) == before

    def test_dvp_insufficient_cash_changes_nothing(self):
        h = self.holdings()
        before = canonical_json(h)
        result = st.settle_dvp(h, self.instr(cash=1001))
        assert result.status == st.FAILED and result.reason == st.INSUFFICIENT_CASH
        assert canonical_json(h) == before

    def test_fop_moves_asset_only(self):
        h = self.holdings()
        instr = self.instr(cash=0, mode=st.FOP, unpaid_cash=1000)
        result = st.settle_fop(h, instr)
        assert result.status == st.SETTLED
        assert h["buyer"]["assets"]["BOND"] == 10
        assert h["buyer"]["cash"] == 1000  # untouched
        assert h["seller"]["cash"] == 0  # the cash leg is arranged apart

    def test_cash_transfer_moves_cash_only_or_nothing(self):
        h = self.holdings()
        before = canonical_json(h)
        short = st.CashTransfer("C1", "buyer", "seller", 1001, 0)
        assert not short.apply(h) and short.status == st.FAILED
        assert canonical_json(h) == before
        assert st.CashTransfer("C2", "buyer", "newcomer", 1000, 0).apply(h)
        assert h["buyer"] == {"cash": 0, "assets": {}}
        assert h["newcomer"] == {"cash": 1000, "assets": {}}

    def test_mode_mismatch_raises(self):
        h = self.holdings()
        with pytest.raises(st.SettlementError):
            st.settle_fop(h, self.instr())
        with pytest.raises(st.SettlementError):
            st.settle_dvp(h, self.instr(cash=0, mode=st.FOP))


class TestRunCycle:
    def expected_series(self, days, lag, daily_notional):
        horizon = days + lag  # day indexes 0 .. days-1+lag
        series = []
        for d in range(horizon if lag else days):
            pending = sum(
                1 for c in range(days) if c <= d and c + lag > d
            )
            series.append(pending * daily_notional)
        return series

    def test_exposure_matches_closed_form(self):
        for lag in (0, 1, 2, 3):
            trades = constant_flow(days=6)
            report = st.run_cycle(trades, st.CycleConfig(lag_days=lag))
            daily = 200  # two unit trades at 100 per day
            assert report.exposure_series == self.expected_series(6, lag, daily)
            assert report.exposure_total == daily * lag * 6

    def test_plateau_is_lag_times_daily_notional(self):
        report = st.run_cycle(constant_flow(days=8), st.CycleConfig(lag_days=3))
        assert max(report.exposure_series) == 3 * 200
        # the full window spans days lag-1 through days-1
        assert report.exposure_series.count(600) == 8 - 3 + 1

    def test_zero_lag_means_zero_exposure(self):
        report = st.run_cycle(constant_flow(days=5), st.CycleConfig(lag_days=0))
        assert report.exposure_series == [0] * 5
        assert report.exposure_total == 0

    def test_exposure_monotone_in_lag(self):
        totals = [
            st.run_cycle(constant_flow(days=5), st.CycleConfig(lag_days=lag)).exposure_total
            for lag in range(4)
        ]
        assert totals == sorted(totals)
        assert totals[2] == 2 * totals[1]  # linear in lag for constant flow

    def test_all_modes_settle_everything(self):
        for mode in (st.MODE_BILATERAL, st.MODE_CCP, st.MODE_CONSORTIUM):
            report = st.run_cycle(constant_flow(days=4), st.CycleConfig(lag_days=2, mode=mode))
            assert set(report.instruction_counts) == {st.SETTLED}
            assert report.gross_obligations >= report.net_obligations

    @pytest.mark.parametrize("mode", [st.MODE_BILATERAL, st.MODE_CCP, st.MODE_CONSORTIUM])
    def test_each_signature_is_verified_once(self, mode, monkeypatch):
        from ledgerstack import crypto

        calls = []
        real = crypto.verify
        monkeypatch.setattr(crypto, "verify", lambda *a: calls.append(a) or real(*a))
        st.run_cycle(constant_flow(days=4), st.CycleConfig(lag_days=2, mode=mode))
        assert calls and len(calls) == len(set(calls))

    def test_three_chains_populated(self):
        report = st.run_cycle(constant_flow(days=3), st.CycleConfig(lag_days=1))
        assert set(report.chains) == {"exchange", "clearing", "settlement"}
        # exchange: genesis + one block per trading day
        assert report.chains["exchange"]["blocks"] == 4
        assert report.chains["exchange"]["txs"] == 6
        assert report.chains["clearing"]["blocks"] == 4
        # settlement chain carries instruction and result txs
        assert report.chains["settlement"]["txs"] >= 12

    def test_cash_conservation(self):
        for mode in (st.MODE_BILATERAL, st.MODE_CCP, st.MODE_CONSORTIUM):
            trades = constant_flow(days=3)
            report = st.run_cycle(trades, st.CycleConfig(lag_days=2, mode=mode))
            total_cash = sum(h["cash"] for h in report.final_holdings.values())
            total_assets = {}
            for h in report.final_holdings.values():
                for sym, qty in h["assets"].items():
                    total_assets[sym] = total_assets.get(sym, 0) + qty
            # prefunding grants each buyer the notional and each seller the
            # quantity (hub both); settlement only moves value around
            hub_rows = 2 if mode != st.MODE_BILATERAL else 1
            assert total_cash == sum(t.notional for t in trades) * hub_rows
            assert total_assets == {"BOND": sum(t.quantity for t in trades) * hub_rows}

    def test_underfunded_seller_fails_and_is_reported(self):
        trades = [trade("T1", "buyer", "seller", qty=5, price=10)]
        holdings = {"buyer": {"cash": 50, "assets": {}}, "seller": {"cash": 0, "assets": {"BOND": 1}}}
        report = st.run_cycle(
            trades, st.CycleConfig(lag_days=1, initial_holdings=holdings)
        )
        assert report.instruction_counts == {st.FAILED: 1}
        assert report.exposure_series[-1] == 50  # still outstanding at horizon
        day_rows = {row["day"]: row for row in report.days}
        assert day_rows[1]["failed"] == 1

    @pytest.mark.parametrize(
        "entry",
        [
            {"cash": 1.9, "assets": {}},
            {"cash": 0, "assets": {"BOND": 0.5}},
            {"cash": True},
            {"cash": -1},
        ],
    )
    def test_initial_holdings_must_be_integral(self, entry):
        # before: cash 1.9 was truncated to 1 and a BOND quantity of 0.5 was kept
        holdings = {"buyer": {"cash": 50, "assets": {}}, "seller": entry}
        config = st.CycleConfig(lag_days=1, initial_holdings=holdings)
        with pytest.raises(st.SettlementError):
            st.run_cycle([trade("T1", "buyer", "seller", qty=5, price=10)], config)

    def test_holdings_from_fills_missing_legs_and_copies(self):
        entries = {"a": {}, "b": {"cash": 3, "assets": {"BOND": 0}}}
        holdings = st.holdings_from(entries)
        assert holdings == {"a": {"cash": 0, "assets": {}}, "b": {"cash": 3, "assets": {"BOND": 0}}}
        holdings["b"]["assets"]["BOND"] = 9
        assert entries["b"]["assets"] == {"BOND": 0}

    @pytest.mark.parametrize("entry", [{"cash": 10.5}, {"cash": 1, "assets": {"BOND": 0.5}}, {"cash": False}])
    def test_holdings_from_refuses_amounts_that_are_not_integral(self, entry):
        with pytest.raises(st.SettlementError, match="'bob'"):
            st.holdings_from({"alice": {"cash": 0, "assets": {"BOND": 3}}, "bob": entry})

    def test_dvp_on_holdings_from_leaves_the_entries_untouched(self):
        entries = {"alice": {"cash": 500, "assets": {"BOND": 3}}, "bob": {"cash": 200}}
        before = canonical_json(entries)
        holdings = st.holdings_from(entries)
        instr = st.SettlementInstruction("I1", "alice", "bob", "BOND", 2, 180, st.DVP)
        result = st.settle_dvp(holdings, instr)
        assert (result.status, result.reason) == (st.SETTLED, None)
        assert holdings == {
            "alice": {"cash": 680, "assets": {"BOND": 1}},
            "bob": {"cash": 20, "assets": {"BOND": 2}},
        }
        assert canonical_json(entries) == before

    def test_dvp_between_members_with_empty_entries_moves_nothing(self):
        holdings = st.holdings_from({"alice": {}, "bob": {}})
        instr = st.SettlementInstruction("I2", "alice", "bob", "BOND", 1, 10, st.DVP)
        result = st.settle_dvp(holdings, instr)
        assert (result.status, result.reason) == (st.FAILED, st.INSUFFICIENT_ASSET)
        assert holdings == {"alice": {"cash": 0, "assets": {}}, "bob": {"cash": 0, "assets": {}}}

    @pytest.mark.parametrize("entry", [5, None, [1], {"cash": 1, "assets": [1]}, {"assets": "BOND"}])
    def test_holdings_from_refuses_an_entry_that_is_not_an_object(self, entry):
        # before: a bare AttributeError from entry.get or assets.values
        with pytest.raises(st.SettlementError, match="'s'"):
            st.holdings_from({"s": entry})
        config = st.CycleConfig(lag_days=1, initial_holdings={"buyer": {"cash": 50}, "s": entry})
        with pytest.raises(st.SettlementError):
            st.run_cycle([trade("T1", "buyer", "s", qty=5, price=10)], config)

    @pytest.mark.parametrize("entries", [[1], 5, "s"])
    def test_holdings_from_refuses_holdings_that_are_not_an_object(self, entries):
        # before: a bare AttributeError from entries.items
        with pytest.raises(st.SettlementError):
            st.holdings_from(entries)
        config = st.CycleConfig(lag_days=1, initial_holdings=entries)
        with pytest.raises(st.SettlementError):
            st.run_cycle([trade("T1", "buyer", "s", qty=5, price=10)], config)

    @pytest.mark.parametrize("member", [1, None, ("a",)])
    def test_holdings_from_refuses_a_member_name_that_is_not_a_string(self, member):
        # before: a bare TypeError when run_cycle sorted final_holdings
        with pytest.raises(st.SettlementError, match="member name"):
            st.holdings_from({member: {"cash": 5}})
        config = st.CycleConfig(
            lag_days=0, initial_holdings={member: {"cash": 5}, "a": {"cash": 5}, "b": {"assets": {"X": 1}}}
        )
        with pytest.raises(st.SettlementError):
            st.run_cycle([st.Trade("T1", "a", "b", "X", 1, 5, 0)], config)

    def test_holdings_from_refuses_an_asset_symbol_that_is_not_a_string(self):
        # before: a bare TypeError when run_cycle sorted the report
        config = st.CycleConfig(lag_days=0, initial_holdings={"a": {"cash": 5}, "b": {"assets": {"X": 1, 2: 3}}})
        with pytest.raises(st.SettlementError, match="'b'"):
            st.run_cycle([st.Trade("T1", "a", "b", "X", 1, 5, 0)], config)

    def test_deterministic_report_bytes(self):
        def run():
            return st.run_cycle(constant_flow(days=4), st.CycleConfig(lag_days=2, mode=st.MODE_CCP))

        assert canonical_json(run().to_obj()) == canonical_json(run().to_obj())

    def test_consortium_and_ccp_agree_on_exposure(self):
        ccp = st.run_cycle(constant_flow(days=4), st.CycleConfig(lag_days=2, mode=st.MODE_CCP))
        pool = st.run_cycle(
            constant_flow(days=4), st.CycleConfig(lag_days=2, mode=st.MODE_CONSORTIUM)
        )
        assert ccp.exposure_series == pool.exposure_series
        assert ccp.net_obligations == pool.net_obligations

    @pytest.mark.parametrize("n", [9_990, 9_991])
    def test_consortium_netting_budget_grows_with_the_day(self, n):
        # before: a fixed 10,000-step budget against the net contract's
        # 10 + 1 per trade raised OutOfSteps from 9,991 same-day trades
        members = ("a", "b", "c")
        block_trades = [
            {"id": f"T{i}", "buyer": members[i % 3], "seller": members[(i + 1) % 3],
             "asset": "BOND", "quantity": 1 + i % 5, "price": 100, "trade_day": 0}
            for i in range(n)
        ]
        cycle = st._Cycle(st.CycleConfig(mode=st.MODE_CONSORTIUM), {})
        positions = cycle._net(block_trades)
        assert [dataclasses.asdict(p) for p in positions] == net_positions_oracle(block_trades)

    def test_fop_cycle_reports_unpaid_deliveries(self):
        report = st.run_cycle(
            constant_flow(days=2), st.CycleConfig(lag_days=1, leg_mode=st.FOP)
        )
        assert report.instruction_counts == {st.SETTLED: 4}
        assert len(report.unpaid_deliveries) == 4
        assert all(row["amount"] == 100 for row in report.unpaid_deliveries)

    def test_ccp_cycle_leaves_input_trades_unchanged(self):
        trades = constant_flow(days=3)
        config = st.CycleConfig(lag_days=2, mode=st.MODE_CCP)
        first = engine.report_bytes(st.run_cycle(trades, config).to_obj())
        second = engine.report_bytes(st.run_cycle(trades, config).to_obj())
        assert first == second
        assert not any(t.superseded for t in trades)

    def test_rejects_empty_and_superseded(self):
        with pytest.raises(st.SettlementError):
            st.run_cycle([], st.CycleConfig())
        t = trade("T1", "a", "b")
        st.novate(t, "HUB")
        with pytest.raises(st.SettlementError):
            st.run_cycle([t], st.CycleConfig())

    @pytest.mark.parametrize("again", [("a", "b", 0), ("c", "d", 1)], ids=["same-row", "other-fields"])
    def test_refuses_a_repeated_trade_id_before_any_block(self, again, monkeypatch):
        # before: the same row twice ended in BlockRejected duplicate_tx, and
        # the same id with other fields settled as a second trade
        trades = [trade("T1", "a", "b"), trade("T1", again[0], again[1], day=again[2])]
        built = []
        monkeypatch.setattr(st.Chain, "build_block", lambda *a, **k: built.append(a))
        with pytest.raises(st.SettlementError) as err:
            st.run_cycle(trades, st.CycleConfig())
        assert type(err.value) is st.SettlementError
        assert str(err.value) == "trade 'T1' repeats an earlier trade's id"
        assert built == []

    @pytest.mark.parametrize("lag", [1.5, True, "2", None, -1])
    def test_lag_must_be_a_non_negative_int(self, lag):
        # before: 1.5 stopped the cycle at day 1 with the obligation pending
        # forever, True was reported as "lag_days": true, and "2" and None
        # raised a bare TypeError
        with pytest.raises(st.SettlementError, match="lag_days"):
            st.CycleConfig(lag_days=lag)

    @pytest.mark.parametrize("side", ["buyer", "seller"])
    @pytest.mark.parametrize("mode, hub", [(st.MODE_CCP, "CCP"), (st.MODE_CONSORTIUM, "CONSORTIUM")])
    def test_refuses_a_member_named_like_the_hub_before_any_block(self, mode, hub, side, monkeypatch):
        # before: ccp raised CcpIsParty from novate after sealing day 0;
        # consortium merged the member into the pool
        parties = {"buyer": "a", "seller": "b", side: hub}
        trades = [trade("T1", "a", "b"), trade("T2", parties["buyer"], parties["seller"], day=1)]
        built = []
        monkeypatch.setattr(st.Chain, "build_block", lambda *a, **k: built.append(a))
        with pytest.raises(st.SettlementError) as err:
            st.run_cycle(trades, st.CycleConfig(mode=mode))
        assert type(err.value) is st.SettlementError
        assert str(err.value) == f"trade 'T2' names the {mode} hub {hub!r} as a party"
        assert built == []

    def test_hub_names_are_members_in_modes_without_that_hub(self):
        trades = [trade("T1", "CCP", "CONSORTIUM"), trade("T2", "CONSORTIUM", "b")]
        assert st.run_cycle(trades, st.CycleConfig(mode=st.MODE_BILATERAL)).instruction_counts == {st.SETTLED: 2}
        ccp = st.run_cycle(trades[1:], st.CycleConfig(mode=st.MODE_CCP))
        assert set(ccp.final_holdings) == {"CCP", "CONSORTIUM", "b"}

    def test_idle_days_between_trades_are_skipped(self):
        # before: every day from 0 to 10**12 + 2 was walked, one row each
        trades = [trade("T1", "a", "b", day=0), trade("T2", "b", "c", day=10**12)]
        report = st.run_cycle(trades, st.CycleConfig(lag_days=2))
        assert [row["day"] for row in report.days] == [0, 1, 2, 10**12, 10**12 + 1, 10**12 + 2]
        assert report.exposure_series == [100, 100, 0, 100, 100, 0]
        assert report.exposure_total == 400

    def test_skipped_days_are_the_idle_rows(self):
        # days with an open obligation are still walked; only a day with no
        # trade and nothing open leaves the report
        trades = [trade("T1", "a", "b", day=0), trade("T2", "b", "c", day=3), trade("T3", "a", "c", day=9)]
        report = st.run_cycle(trades, st.CycleConfig(lag_days=1, initial_holdings={"a": {"cash": 100}}))
        assert [row["day"] for row in report.days] == [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
        report = st.run_cycle(trades, st.CycleConfig(lag_days=1))
        assert [row["day"] for row in report.days] == [0, 1, 3, 4, 9, 10]
        assert report.exposure_total == 300

    def test_config_validation(self):
        with pytest.raises(st.SettlementError):
            st.CycleConfig(lag_days=-1)
        with pytest.raises(st.SettlementError):
            st.CycleConfig(mode="barter")
        with pytest.raises(st.SettlementError):
            st.CycleConfig(leg_mode="iou")


def sample_trades():
    text = (resources.files("ledgerstack") / "scenarios" / "trades_sample.csv").read_text()
    return st.trades_from_csv(text)


def seeded_stream(seed=2024, n=240, days=8):
    rng = random.Random(seed)
    members = [f"m{i}" for i in range(1, 7)]
    out = []
    for i in range(n):
        buyer, seller = rng.sample(members, 2)
        asset = rng.choice(["BOND", "BILL", "NOTE"])
        out.append(
            trade(f"T{i:04d}", buyer, seller, rng.randrange(1, 30), rng.randrange(90, 111), asset, i * days // n)
        )
    return out


def tight_holdings():
    """Far less than the stream's gross obligations: some instructions fail
    and settle on a later day once incoming legs refill the short member."""
    names = [f"m{i}" for i in range(1, 7)] + ["CCP", "CONSORTIUM"]
    return {m: {"cash": 6000, "assets": {"BOND": 60, "BILL": 60, "NOTE": 60}} for m in names}


# sha256 of engine.report_bytes(report.to_obj()) for seeded_stream() under
# tight_holdings(), lag 2, frozen before the cycle runner was split into
# stages; any drift in retry order, ids or holdings shows here
SEEDED_REPORT_SHA256 = {
    (st.MODE_BILATERAL, st.DVP): "c12506f7c37615417b07eb02725e175a079d6d8737f86ea00f1be90f0a01681a",
    (st.MODE_BILATERAL, st.FOP): "9bd1a412349e22bc784769e721914815f3b586ff450605d64451a618857c8f2a",
    (st.MODE_CCP, st.DVP): "569b2783b3d1390461407464ca9407edec5c2bcc34f431a43da15544f1434fc1",
    (st.MODE_CCP, st.FOP): "25cb65a55e374d6025772fa5ada1a648c1e3b9a3c80430bcd64ffb1a0357c0c4",
    (st.MODE_CONSORTIUM, st.DVP): "477138a918007b94860b8a5c67bdbcf291331d823ca99cf089709284c7bd7b4e",
    (st.MODE_CONSORTIUM, st.FOP): "726ce434fd4d567e9d94fb956da0c62162628695fa99a47d9ae2eb1db0198d51",
}

MODES = (st.MODE_BILATERAL, st.MODE_CCP, st.MODE_CONSORTIUM)


class TestGoldenReports:
    @pytest.mark.parametrize("leg_mode", [st.DVP, st.FOP])
    @pytest.mark.parametrize("mode", MODES)
    def test_trades_sample(self, mode, leg_mode):
        report = st.run_cycle(sample_trades(), st.CycleConfig(mode=mode, leg_mode=leg_mode))
        raw = engine.report_bytes(report.to_obj())
        assert raw == (GOLDEN / f"trades_sample.{mode}.{leg_mode}.report.json").read_bytes()

    @pytest.mark.parametrize("leg_mode", [st.DVP, st.FOP])
    @pytest.mark.parametrize("mode", MODES)
    def test_seeded_stream_with_retries(self, mode, leg_mode):
        config = st.CycleConfig(mode=mode, leg_mode=leg_mode, initial_holdings=tight_holdings())
        report = st.run_cycle(seeded_stream(), config)
        failed_attempts = sum(row["failed"] for row in report.days)
        assert failed_attempts > report.instruction_counts.get(st.FAILED, 0)  # retries ran
        raw = engine.report_bytes(report.to_obj())
        assert hashlib.sha256(raw).hexdigest() == SEEDED_REPORT_SHA256[(mode, leg_mode)]


class TestCsv:
    def test_parse(self):
        text = (
            "id,buyer,seller,asset,quantity,price,day\n"
            "T1,alice,bob,BOND,10,100,0\n"
            "T2,bob,carol,BILL,4,50,1\n"
        )
        trades = st.trades_from_csv(text)
        assert len(trades) == 2
        assert trades[0].notional == 1000
        assert trades[1].trade_day == 1

    @pytest.mark.parametrize(
        "row,error,message",
        [
            ("T2,bob,bob,BOND,4,100,0", st.SettlementError, "buyer and seller must differ"),
            ("T2,bob,carol,BOND,0,100,0", st.NonPositiveQuantity, "trade quantity must be positive"),
            ("T2,bob,carol,BOND,4,-1,0", st.SettlementError, "trade price must be positive"),
            ("T2,bob,carol,BOND,4,100,-5", st.SettlementError, "trade day must be an int"),
            ("T2,bob,carol,BOND,4,100,18446744073709551616", st.SettlementError, "trade day must be an int"),
        ],
    )
    def test_trade_refusal_names_its_row(self, row, error, message):
        # before: the Trade's own refusal escaped without the row
        text = "id,buyer,seller,asset,quantity,price,day\nT1,alice,bob,BOND,10,100,0\n" + row + "\n"
        with pytest.raises(error, match=f"^trades row 3: {message}"):
            st.trades_from_csv(text)

    @pytest.mark.parametrize(
        "row,count",
        [("T2,bob,carol,BOND,4,100,0,9", 8), ("T2,bob,carol,BOND,4,100", 6), ("T2", 1)],
    )
    def test_a_row_whose_field_count_differs_from_the_header_is_refused(self, row, count):
        # before: an eighth field was dropped silently
        text = "id,buyer,seller,asset,quantity,price,day\nT1,alice,bob,BOND,10,100,0\n" + row + "\n"
        with pytest.raises(st.SettlementError, match=f"^trades row 3: {count} fields, the header has 7$"):
            st.trades_from_csv(text)

    @pytest.mark.parametrize(
        "row,column",
        [
            ("T2,bob,carol,BOND,1_000,100,0", "quantity"),
            ("T2,bob,carol,BOND,4,100,+0", "day"),
            ("T2,bob,carol,BOND,4, 5,0", "price"),
            ("T2,bob,carol,BOND,\uff15,100,0", "quantity"),
        ],
    )
    def test_a_number_is_ascii_digits_with_an_optional_minus(self, row, column):
        # before: int() took the underscore, the plus sign, the space and the
        # fullwidth digit
        text = "id,buyer,seller,asset,quantity,price,day\nT1,alice,bob,BOND,10,100,0\n" + row + "\n"
        with pytest.raises(st.SettlementError, match=f"^trades row 3: {column} must be"):
            st.trades_from_csv(text)
