"""Contract catalog, step metering, and invoke atomicity tests."""

import pytest

from ledgerstack import contracts as ct
from ledgerstack import crypto
from ledgerstack import settlement as st


def budget(limit=1000):
    return ct.StepBudget(limit)


def storage(state, addr):
    """A copy of the instance's committed storage."""
    return dict(state._instances[addr].storage)


def deploy_counter(state, start=0, height=1, limit=1000):
    b = budget(limit)
    addr = state.deploy("counter", {"start": start}, b, height)
    return addr, b


class TestStepBudget:
    def test_tracks_usage(self):
        b = ct.StepBudget(10)
        b.consume(3)
        b.consume(4)
        assert b.used == 7
        assert b.limit - b.used == 3

    def test_overflow_drains_then_raises(self):
        b = ct.StepBudget(10)
        b.consume(8)
        with pytest.raises(ct.OutOfSteps):
            b.consume(5)
        # the attempt eats whatever was left
        assert b.used == 10
        assert b.limit - b.used == 0


class TestDeploy:
    def test_address_is_deterministic(self):
        a = ct.derive_address("counter", {"start": 5}, 7)
        assert a == ct.derive_address("counter", {"start": 5}, 7)
        assert a != ct.derive_address("counter", {"start": 6}, 7)
        assert a != ct.derive_address("counter", {"start": 5}, 8)
        assert a != ct.derive_address("net", {"start": 5}, 7)
        assert len(a) == 32

    @pytest.mark.parametrize("init,height", [({}, 2**64), ({}, -1), ({"payer": "t\ud800"}, 1)])
    def test_deploy_without_an_address_is_invalid_params(self, init, height):
        # before: struct.error from packing the height, UnicodeEncodeError from the init JSON
        state = ct.ContractState()
        with pytest.raises(ct.InvalidParams, match="no address"):
            state.deploy("net", init, budget(), height)

    def test_flat_cost_regardless_of_init_storage(self):
        state = ct.ContractState()
        _, b1 = deploy_counter(state, height=1)
        assert b1.used == ct.FIXED_DEPLOY_STEPS
        # conditional_payment init writes five keys, still flat
        b2 = budget()
        state.deploy(
            "conditional_payment",
            {"payer": "alice", "payee": "bob", "amount": 10, "condition_hash": "00" * 32},
            b2,
            2,
        )
        assert b2.used == ct.FIXED_DEPLOY_STEPS

    # settle, escrow and ifrs9_classify stay out: each rule has its one
    # path in settlement, escrow or bank_ledger
    @pytest.mark.parametrize("code_id", ["teleporter", "settle", "escrow", "ifrs9_classify"])
    def test_unknown_code(self, code_id):
        b = budget()
        with pytest.raises(ct.UnknownCode):
            ct.ContractState().deploy(code_id, {}, b, 1)
        assert b.used == 0

    def test_same_terms_same_height_collide(self):
        state = ct.ContractState()
        deploy_counter(state, start=5, height=3)
        with pytest.raises(ct.ContractError) as e:
            deploy_counter(state, start=5, height=3)
        assert e.value.reason == "already_deployed"
        # another height is a fresh address
        addr, _ = deploy_counter(state, start=5, height=4)
        assert state.invoke(addr, "get", {}, budget()) == {"value": 5}

    def test_budget_too_small(self):
        b = ct.StepBudget(ct.FIXED_DEPLOY_STEPS - 1)
        with pytest.raises(ct.OutOfSteps):
            ct.ContractState().deploy("counter", {}, b, 1)
        assert b.used == b.limit

    @pytest.mark.parametrize(
        "code_id,params",
        [
            ("counter", {"start": "five"}),
            ("counter", {"start": True}),
            ("conditional_payment", {"payer": "", "payee": "b", "amount": 1, "condition_hash": "00" * 32}),
            ("conditional_payment", {"payer": "a", "payee": "b", "amount": 0, "condition_hash": "00" * 32}),
            ("conditional_payment", {"payer": "a", "payee": "b", "amount": 5, "condition_hash": "xyz"}),
            ("conditional_payment", {"payer": "a", "payee": "b", "amount": 5, "condition_hash": "00" * 31}),
            ("zba_sweep", {"spurious": 1}),
            ("net", {"spurious": 1}),
        ],
    )
    def test_init_validation(self, code_id, params):
        with pytest.raises(ct.InvalidParams):
            ct.ContractState().deploy(code_id, params, budget(), 1)


class TestCounter:
    def test_metering_matches_the_published_note(self):
        state = ct.ContractState()
        addr, _ = deploy_counter(state, start=10)
        costs = {}
        for method, args in (("inc", {"step": 5}), ("get", {}), ("destroy", {})):
            b = budget()
            state.invoke(addr, method, args, b)
            costs[method] = b.used
        assert costs == {"inc": 12, "get": 11, "destroy": 10}

    def test_inc_and_get(self):
        state = ct.ContractState()
        addr, _ = deploy_counter(state, start=10)
        assert state.invoke(addr, "inc", {"step": 5}, budget()) == {"value": 15}
        assert state.invoke(addr, "inc", {}, budget()) == {"value": 16}
        assert state.invoke(addr, "get", {}, budget()) == {"value": 16}

    def test_destroyed_contract_is_dead(self):
        state = ct.ContractState()
        addr, _ = deploy_counter(state)
        state.invoke(addr, "destroy", {}, budget())
        for method in ("get", "inc", "destroy"):
            with pytest.raises(ct.Dead):
                state.invoke(addr, method, {}, budget())

    def test_unknown_method_and_address(self):
        state = ct.ContractState()
        addr, _ = deploy_counter(state)
        with pytest.raises(ct.ContractError) as e:
            state.invoke(addr, "jump", {}, budget())
        assert e.value.reason == "unknown_method"
        with pytest.raises(ct.UnknownAddress):
            state.invoke(b"\x00" * 32, "get", {}, budget())


class TestAtomicity:
    def test_failed_method_leaves_storage_byte_identical(self):
        state = ct.ContractState()
        addr, _ = deploy_counter(state, start=3)
        before = storage(state, addr)
        with pytest.raises(ct.ContractError):
            state.invoke(addr, "inc", {"step": "lots"}, budget())
        assert storage(state, addr) == before
        assert state.invoke(addr, "get", {}, budget()) == {"value": 3}

    def test_out_of_steps_mid_write_rolls_back_but_charges(self):
        # a claim reads paid and condition_hash, writes paid, then reads
        # payer, payee and amount; a budget of 15 runs out after the write
        preimage = b"open sesame"
        state = ct.ContractState()
        addr = state.deploy(
            "conditional_payment",
            {"payer": "alice", "payee": "bob", "amount": 40, "condition_hash": crypto.sha256d(preimage).hex()},
            budget(),
            1,
        )
        before = storage(state, addr)
        short = ct.StepBudget(15)
        with pytest.raises(ct.OutOfSteps):
            state.invoke(addr, "claim", {"preimage": preimage.hex()}, short)
        assert storage(state, addr) == before
        assert short.used == 15  # spent steps stay spent
        # with budget the same claim lands
        b = budget()
        result = state.invoke(addr, "claim", {"preimage": preimage.hex()}, b)
        assert result == {"pay": {"from": "alice", "to": "bob", "amount": 40}}
        assert b.used == 16

    def test_unexpected_exception_is_wrapped_and_rolled_back(self):
        state = ct.ContractState()
        preimage = b"open sesame"
        addr = state.deploy(
            "conditional_payment",
            {
                "payer": "alice",
                "payee": "bob",
                "amount": 40,
                "condition_hash": crypto.sha256d(preimage).hex(),
            },
            budget(),
            1,
        )
        before = storage(state, addr)
        with pytest.raises(ct.ContractError) as e:
            state.invoke(addr, "claim", {"preimage": 123}, budget())
        assert e.value.reason == "contract_fault:TypeError"
        assert storage(state, addr) == before


class TestConditionalPayment:
    PREIMAGE = b"open sesame"

    def deployed(self):
        state = ct.ContractState()
        addr = state.deploy(
            "conditional_payment",
            {
                "payer": "alice",
                "payee": "bob",
                "amount": 40,
                "condition_hash": crypto.sha256d(self.PREIMAGE).hex(),
            },
            budget(),
            1,
        )
        return state, addr

    def test_claim_is_single_shot(self):
        state, addr = self.deployed()
        b = budget()
        result = state.invoke(addr, "claim", {"preimage": self.PREIMAGE.hex()}, b)
        assert result == {"pay": {"from": "alice", "to": "bob", "amount": 40}}
        assert b.used == 16
        with pytest.raises(ct.ContractError) as e:
            state.invoke(addr, "claim", {"preimage": self.PREIMAGE.hex()}, budget())
        assert e.value.reason == "already_paid"

    def test_wrong_preimage(self):
        state, addr = self.deployed()
        with pytest.raises(ct.ContractError) as e:
            state.invoke(addr, "claim", {"preimage": b"wrong".hex()}, budget())
        assert e.value.reason == "bad_preimage"
        assert state.invoke(addr, "status", {}, budget()) == {"paid": False, "amount": 40}

    def test_status_cost(self):
        state, addr = self.deployed()
        b = budget()
        state.invoke(addr, "status", {}, b)
        assert b.used == 12


class TestSweepPlanning:
    def test_exactly_one_main(self):
        with pytest.raises(ct.ContractError) as e:
            ct.plan_sweep({}, {"a": "zba"}, {})
        assert e.value.reason == "need_exactly_one_main"
        with pytest.raises(ct.ContractError):
            ct.plan_sweep({}, {"a": "main", "b": "main"}, {})

    def test_unknown_kind(self):
        with pytest.raises(ct.ContractError) as e:
            ct.plan_sweep({}, {"m": "main", "x": "slush"}, {})
        assert e.value.reason == "unknown_kind:slush"

    def test_cap_missing(self):
        with pytest.raises(ct.ContractError) as e:
            ct.plan_sweep({"m": 0, "p": 10}, {"m": "main", "p": "imprest"}, {})
        assert e.value.reason == "cap_missing:p"

    def test_collections_and_refills(self):
        balances = {"m": 100, "z": 40, "t": 25, "c": 10, "p": 70, "s": 999}
        kinds = {
            "m": "main",
            "z": "zba",
            "t": "transit",
            "c": "correspondent",
            "p": "imprest",
            "s": "subsidiary",
        }
        plan = ct.plan_sweep(balances, kinds, {"p": 50})
        assert plan == [
            {"from": "c", "to": "m", "amount": 10},
            {"from": "p", "to": "m", "amount": 20},
            {"from": "t", "to": "m", "amount": 25},
            {"from": "z", "to": "m", "amount": 40},
        ]

    def test_refill_draws_on_collected_cash(self):
        # main starts empty; the zba sweep funds the imprest refill
        plan = ct.plan_sweep(
            {"m": 0, "z": 30, "p": 5},
            {"m": "main", "z": "zba", "p": "imprest"},
            {"p": 50},
        )
        assert plan == [
            {"from": "z", "to": "m", "amount": 30},
            {"from": "m", "to": "p", "amount": 30},
        ]

    def test_refill_never_overdraws_main(self):
        plan = ct.plan_sweep(
            {"m": 10, "p": 0}, {"m": "main", "p": "imprest"}, {"p": 100}
        )
        assert plan == [{"from": "m", "to": "p", "amount": 10}]

    def test_quiet_day_plans_nothing(self):
        assert (
            ct.plan_sweep(
                {"m": 500, "z": 0, "p": 50},
                {"m": "main", "z": "zba", "p": "imprest"},
                {"p": 50},
            )
            == []
        )

    def test_contract_charges_per_account(self):
        state = ct.ContractState()
        addr = state.deploy("zba_sweep", {}, budget(), 1)
        kinds = {"m": "main", "z": "zba", "p": "imprest"}
        b = budget()
        result = state.invoke(
            addr,
            "sweep",
            {"balances": {"m": 0, "z": 9, "p": 3}, "kinds": kinds, "caps": {"p": 3}},
            b,
        )
        assert result == {"transfers": [{"from": "z", "to": "m", "amount": 9}]}
        assert b.used == ct.FIXED_INVOKE_STEPS + len(kinds)


class TestStatelessRoutines:
    def test_net_matches_library_and_charges_per_trade(self):
        trades = [
            {"buyer": "a", "seller": "b", "asset": "X", "quantity": 4, "price": 10},
            {"buyer": "b", "seller": "a", "asset": "X", "quantity": 1, "price": 10},
            {"buyer": "c", "seller": "a", "asset": "Y", "quantity": 2, "price": 7},
        ]
        state = ct.ContractState()
        addr = state.deploy("net", {}, budget(), 1)
        b = budget()
        result = state.invoke(addr, "net", {"trades": trades}, b)
        assert result == {"positions": st.net_over_dicts(trades)}
        assert b.used == ct.FIXED_INVOKE_STEPS + len(trades)

    def test_net_rejects_bad_rows(self):
        state = ct.ContractState()
        addr = state.deploy("net", {}, budget(), 1)
        with pytest.raises(ct.ContractError) as e:
            state.invoke(addr, "net", {"trades": [{"buyer": "a"}]}, budget())
        assert e.value.reason == "invalid_trades"

    @pytest.mark.parametrize("field,value", [("quantity", 1.5), ("quantity", "3"), ("price", True)])
    def test_net_refuses_values_that_are_not_money(self, field, value):
        # before: netted as 1, 3 and a price of 1
        row = {"buyer": "a", "seller": "b", "asset": "X", "quantity": 2, "price": 5, field: value}
        state = ct.ContractState()
        addr = state.deploy("net", {}, budget(), 1)
        with pytest.raises(ct.ContractError) as e:
            state.invoke(addr, "net", {"trades": [row]}, budget())
        assert e.value.reason == "invalid_trades"

    def test_net_refuses_a_self_trade(self):
        # before: the row netted to nothing
        state = ct.ContractState()
        addr = state.deploy("net", {}, budget(), 1)
        trades = [{"buyer": "a", "seller": "a", "asset": "X", "quantity": 2, "price": 5}]
        with pytest.raises(ct.ContractError) as e:
            state.invoke(addr, "net", {"trades": trades}, budget())
        assert e.value.reason == "invalid_trades"


class TestCatalogAndDeterminism:
    def test_listing_is_sorted_and_complete(self):
        listing = ct.contract_listing()
        ids = [row["code_id"] for row in listing]
        assert ids == sorted(ct.CATALOG)
        assert ids == ["conditional_payment", "counter", "net", "zba_sweep"]
        for row in listing:
            assert set(row) == {"code_id", "description", "cost_note"}
            assert row["description"] and row["cost_note"]

    def test_two_states_replay_identically(self):
        def script(state):
            out = []
            addr, _ = deploy_counter(state, start=2, height=9)
            out.append(addr.hex())
            out.append(state.invoke(addr, "inc", {"step": 3}, budget()))
            out.append(state.invoke(addr, "get", {}, budget()))
            out.append(storage(state, addr))
            return out

        assert script(ct.ContractState()) == script(ct.ContractState())
