"""Escrow state machine and resolution tests."""

import copy
import itertools

import pytest

from ledgerstack import crypto
from ledgerstack import escrow as es

BUYER_KP = crypto.keygen(b"\x01" * 32)
SELLER_KP = crypto.keygen(b"\x02" * 32)
ARBITER_KP = crypto.keygen(b"\x03" * 32)
OUTSIDER_KP = crypto.keygen(b"\x04" * 32)

KEYS = {"buyer": BUYER_KP, "seller": SELLER_KP, "arbiter": ARBITER_KP}


def fresh(amount=500, fee=25, nonce=0, buyer_cash=1000):
    balances = {BUYER_KP.public: buyer_cash}
    escrow = es.open_escrow(
        balances,
        BUYER_KP.public,
        SELLER_KP.public,
        ARBITER_KP.public,
        amount,
        fee,
        nonce,
    )
    return balances, escrow


def vote(balances, escrow, who, disposition):
    kp = KEYS[who]
    sig = crypto.sign(kp.secret, es.signing_bytes(escrow.address, disposition))
    return es.sign_disposition(balances, escrow, kp.public, sig, disposition)


class TestOpen:
    def test_locks_buyer_funds_at_address(self):
        balances, escrow = fresh()
        assert balances[BUYER_KP.public] == 500
        assert balances[escrow.address] == 500
        assert escrow.status == es.OPEN

    def test_distinct_keys_required(self):
        for trio in (
            (BUYER_KP, BUYER_KP, ARBITER_KP),
            (BUYER_KP, SELLER_KP, SELLER_KP),
            (BUYER_KP, SELLER_KP, BUYER_KP),
        ):
            with pytest.raises(es.DuplicateKey):
                es.open_escrow(
                    {BUYER_KP.public: 100},
                    trio[0].public,
                    trio[1].public,
                    trio[2].public,
                    50,
                    0,
                )

    def test_fee_bounds(self):
        with pytest.raises(es.FeeTooLarge):
            fresh(amount=100, fee=101)
        # fee equal to the amount is legal: the arbiter may take it all
        _, escrow = fresh(amount=100, fee=100)
        assert escrow.fee == 100
        with pytest.raises(es.EscrowError):
            fresh(amount=100, fee=-1)

    def test_amount_positive(self):
        with pytest.raises(es.EscrowError):
            fresh(amount=0)

    def test_insufficient_funds(self):
        with pytest.raises(es.InsufficientFunds):
            fresh(amount=500, buyer_cash=499)

    @pytest.mark.parametrize(
        "amount,fee", [(10.5, 0.5), (10.0, 0), (10, 2.0), (True, 0), (10, True)]
    )
    def test_money_must_be_integers(self, amount, fee):
        # a float amount would leave the buyer holding a float balance
        balances = {BUYER_KP.public: 200}
        with pytest.raises(es.EscrowError):
            es.open_escrow(
                balances, BUYER_KP.public, SELLER_KP.public, ARBITER_KP.public, amount, fee
            )
        assert balances == {BUYER_KP.public: 200}

    def test_address_depends_on_terms(self):
        args = (BUYER_KP.public, SELLER_KP.public, ARBITER_KP.public)
        base = es.derive_address(*args, 500, 25, 0)
        assert es.derive_address(*args, 500, 25, 0) == base
        assert es.derive_address(*args, 500, 25, 1) != base
        assert es.derive_address(*args, 501, 25, 0) != base
        assert es.derive_address(*args, 500, 24, 0) != base
        assert len(base) == 32


class TestReopen:
    """The address is the escrow's identity: votes signed for it would
    replay on a second escrow opened at the same address."""

    def reopen(self, balances, nonce=0):
        return es.open_escrow(
            balances, BUYER_KP.public, SELLER_KP.public, ARBITER_KP.public, 500, 25, nonce
        )

    def test_open_twice_while_live_rejected(self):
        balances, escrow = fresh(buyer_cash=1000)
        with pytest.raises(es.AlreadyOpen):
            self.reopen(balances)
        assert balances == {BUYER_KP.public: 500, escrow.address: 500}

    def test_reopen_after_resolution_rejected(self):
        balances, escrow = fresh(buyer_cash=1000)
        vote(balances, escrow, "buyer", es.TO_SELLER)
        vote(balances, escrow, "seller", es.TO_SELLER)
        assert balances[escrow.address] == 0
        before = dict(balances)
        with pytest.raises(es.AlreadyOpen):
            self.reopen(balances)
        assert balances == before

    def test_new_nonce_still_opens(self):
        balances, escrow = fresh(buyer_cash=1000)
        other = self.reopen(balances, nonce=1)
        assert other.address != escrow.address
        assert balances == {BUYER_KP.public: 0, escrow.address: 500, other.address: 500}


class TestSigning:
    def test_outsider_rejected(self):
        balances, escrow = fresh()
        sig = crypto.sign(
            OUTSIDER_KP.secret, es.signing_bytes(escrow.address, es.TO_SELLER)
        )
        with pytest.raises(es.NotParty):
            es.sign_disposition(balances, escrow, OUTSIDER_KP.public, sig, es.TO_SELLER)

    def test_signature_must_cover_address_and_disposition(self):
        balances, escrow = fresh()
        # signature over the opposite disposition must not transfer
        sig = crypto.sign(
            BUYER_KP.secret, es.signing_bytes(escrow.address, es.TO_BUYER)
        )
        with pytest.raises(es.BadSignature):
            es.sign_disposition(balances, escrow, BUYER_KP.public, sig, es.TO_SELLER)
        # signature over another escrow's address must not transfer either
        other = es.derive_address(
            BUYER_KP.public, SELLER_KP.public, ARBITER_KP.public, 500, 25, 99
        )
        sig = crypto.sign(BUYER_KP.secret, other + es.TO_SELLER.encode())
        with pytest.raises(es.BadSignature):
            es.sign_disposition(balances, escrow, BUYER_KP.public, sig, es.TO_SELLER)

    def test_unknown_disposition(self):
        balances, escrow = fresh()
        with pytest.raises(es.EscrowError):
            vote(balances, escrow, "buyer", "to_the_moon")

    def test_resign_same_disposition_is_noop(self):
        balances, escrow = fresh()
        vote(balances, escrow, "buyer", es.TO_SELLER)
        vote(balances, escrow, "buyer", es.TO_SELLER)
        assert len(escrow.votes) == 1
        assert escrow.status == es.OPEN

    def test_conflicting_signature_rejected(self):
        balances, escrow = fresh()
        vote(balances, escrow, "buyer", es.TO_SELLER)
        with pytest.raises(es.ConflictingSignature):
            vote(balances, escrow, "buyer", es.TO_BUYER)

    def test_votes_after_final_rejected(self):
        balances, escrow = fresh()
        vote(balances, escrow, "buyer", es.TO_SELLER)
        vote(balances, escrow, "seller", es.TO_SELLER)
        with pytest.raises(es.AlreadyFinal):
            vote(balances, escrow, "arbiter", es.TO_SELLER)


class TestVoteRules:
    """sign_disposition's vote rules, read off the Escrow fields and the
    balances."""

    def test_reports_open_votes_then_the_outcome(self):
        balances, escrow = fresh(amount=600, fee=30)
        opened = dict(balances)
        vote(balances, escrow, "buyer", es.TO_BUYER)
        assert (escrow.status, len(escrow.votes), escrow.outcome, balances) == (es.OPEN, 1, None, opened)
        vote(balances, escrow, "seller", es.TO_SELLER)
        assert (escrow.status, len(escrow.votes), escrow.outcome, balances) == (es.OPEN, 2, None, opened)
        vote(balances, escrow, "arbiter", es.TO_SELLER)
        outcome = es.resolve_dispositions(
            [("buyer", es.TO_BUYER), ("seller", es.TO_SELLER), ("arbiter", es.TO_SELLER)],
            600,
            30,
        )
        assert outcome["payouts"] == {"seller": 570, "arbiter": 30}
        assert (escrow.status, escrow.outcome, len(escrow.votes)) == (es.ARBITRATED, outcome, 3)
        assert balances == {**opened, escrow.address: 0, SELLER_KP.public: 570, ARBITER_KP.public: 30}

    def test_resign_same_keeps_the_same_count(self):
        balances, escrow = fresh()
        vote(balances, escrow, "buyer", es.TO_SELLER)
        before = (dict(balances), copy.deepcopy(escrow))
        assert vote(balances, escrow, "buyer", es.TO_SELLER) is escrow
        assert (balances, escrow) == before
        assert (escrow.status, len(escrow.votes)) == (es.OPEN, 1)

    def test_a_party_key_spelled_in_hex_is_not_a_party(self):
        # keys are compared as bytes; a hex string of the buyer's key is not it
        balances, escrow = fresh()
        sig = crypto.sign(BUYER_KP.secret, es.signing_bytes(escrow.address, es.TO_SELLER))
        before = (dict(balances), copy.deepcopy(escrow))
        with pytest.raises(es.NotParty):
            es.sign_disposition(balances, escrow, BUYER_KP.public.hex(), sig, es.TO_SELLER)
        assert (balances, escrow) == before
        assert escrow.votes == []

    # (votes cast first, voter, disposition, disposition the signature covers,
    # signature override, refusal)
    REFUSALS = {
        "not_party": ([], "outsider", es.TO_SELLER, es.TO_SELLER, None, es.NotParty),
        "bad_signature": ([], "buyer", es.TO_SELLER, es.TO_BUYER, None, es.BadSignature),
        "short_signature": ([], "buyer", es.TO_SELLER, es.TO_SELLER, b"\x00" * 10, es.BadSignature),
        "conflicting": ([("buyer", es.TO_SELLER)], "buyer", es.TO_BUYER, es.TO_BUYER, None, es.ConflictingSignature),
        "unknown_disposition": ([], "buyer", "sideways", "sideways", None, es.EscrowError),
        "already_final": (
            [("buyer", es.TO_SELLER), ("seller", es.TO_SELLER)],
            "arbiter", es.TO_SELLER, es.TO_SELLER, None, es.AlreadyFinal,
        ),
    }

    @pytest.mark.parametrize("case", sorted(REFUSALS))
    def test_a_refused_vote_changes_nothing(self, case):
        prior, who, disposition, signed, signature, refusal = self.REFUSALS[case]
        balances, escrow = fresh()
        for role, choice in prior:
            vote(balances, escrow, role, choice)
        kp = dict(KEYS, outsider=OUTSIDER_KP)[who]
        if signature is None:
            signature = crypto.sign(kp.secret, es.signing_bytes(escrow.address, signed))
        before = (dict(balances), copy.deepcopy(escrow))
        with pytest.raises(refusal):
            es.sign_disposition(balances, escrow, kp.public, signature, disposition)
        assert (balances, escrow) == before


class TestResolution:
    def test_amicable_release(self):
        balances, escrow = fresh(amount=500, fee=25)
        vote(balances, escrow, "buyer", es.TO_SELLER)
        vote(balances, escrow, "seller", es.TO_SELLER)
        assert escrow.status == es.RELEASED
        # no fee on an amicable path
        assert balances[SELLER_KP.public] == 500
        assert balances.get(ARBITER_KP.public, 0) == 0
        assert balances[escrow.address] == 0

    def test_amicable_refund(self):
        balances, escrow = fresh(amount=400, fee=20, buyer_cash=400)
        vote(balances, escrow, "seller", es.TO_BUYER)
        vote(balances, escrow, "buyer", es.TO_BUYER)
        assert escrow.status == es.REFUNDED
        assert balances[BUYER_KP.public] == 400

    def test_arbitrated_toward_seller(self):
        balances, escrow = fresh(amount=600, fee=30)
        vote(balances, escrow, "buyer", es.TO_BUYER)
        vote(balances, escrow, "seller", es.TO_SELLER)
        assert escrow.status == es.OPEN  # split vote, nobody has two
        vote(balances, escrow, "arbiter", es.TO_SELLER)
        assert escrow.status == es.ARBITRATED
        assert balances[SELLER_KP.public] == 570
        assert balances[ARBITER_KP.public] == 30

    def test_arbitrated_toward_buyer(self):
        balances, escrow = fresh(amount=600, fee=30, buyer_cash=600)
        vote(balances, escrow, "seller", es.TO_SELLER)
        vote(balances, escrow, "arbiter", es.TO_BUYER)
        assert escrow.status == es.OPEN
        vote(balances, escrow, "buyer", es.TO_BUYER)
        assert escrow.status == es.ARBITRATED
        assert balances[BUYER_KP.public] == 570
        assert balances[ARBITER_KP.public] == 30

    def test_zero_fee_arbitration_pays_arbiter_nothing(self):
        balances, escrow = fresh(amount=100, fee=0)
        vote(balances, escrow, "buyer", es.TO_SELLER)
        vote(balances, escrow, "arbiter", es.TO_SELLER)
        assert escrow.status == es.ARBITRATED
        assert escrow.outcome["payouts"] == {"seller": 100}
        assert ARBITER_KP.public not in balances

    def test_fee_equal_to_amount_skips_winner(self):
        balances, escrow = fresh(amount=100, fee=100)
        vote(balances, escrow, "buyer", es.TO_SELLER)
        vote(balances, escrow, "arbiter", es.TO_SELLER)
        assert escrow.outcome["payouts"] == {"arbiter": 100}
        assert SELLER_KP.public not in balances

    def test_open_until_a_disposition_has_two_backers(self):
        balances, escrow = fresh()
        assert escrow.status == es.OPEN and escrow.outcome is None
        vote(balances, escrow, "buyer", es.TO_SELLER)
        assert escrow.status == es.OPEN and escrow.outcome is None
        vote(balances, escrow, "seller", es.TO_SELLER)
        assert escrow.status == es.RELEASED
        assert escrow.outcome["status"] == es.RELEASED


def predict(order, assignment, amount, fee):
    """Independent re-derivation of the expected outcome."""
    backers = {es.TO_SELLER: [], es.TO_BUYER: []}
    for role in order:
        d = assignment[role]
        backers[d].append(role)
        if len(backers[d]) == 2:
            winner = "seller" if d == es.TO_SELLER else "buyer"
            if "arbiter" in backers[d]:
                status = es.ARBITRATED
                payouts = {winner: amount - fee, "arbiter": fee}
            else:
                status = es.RELEASED if d == es.TO_SELLER else es.REFUNDED
                payouts = {winner: amount}
            voters_used = order[: order.index(role) + 1]
            return status, {k: v for k, v in payouts.items() if v > 0}, voters_used
    raise AssertionError("three votes over two dispositions always resolve")


class TestExhaustivePaths:
    def test_every_assignment_and_order(self):
        amount, fee = 600, 30
        for dispositions in itertools.product((es.TO_SELLER, es.TO_BUYER), repeat=3):
            assignment = dict(zip(("buyer", "seller", "arbiter"), dispositions))
            for order in itertools.permutations(("buyer", "seller", "arbiter")):
                balances, escrow = fresh(amount=amount, fee=fee, buyer_cash=amount)
                status, payouts, used = predict(list(order), assignment, amount, fee)
                for role in used:
                    vote(balances, escrow, role, assignment[role])
                assert escrow.status == status
                assert escrow.outcome["payouts"] == payouts
                for role in order:
                    if role not in used:
                        with pytest.raises(es.AlreadyFinal):
                            vote(balances, escrow, role, assignment[role])
                # conservation: the locked amount is fully distributed
                assert balances[escrow.address] == 0
                total = sum(balances.values())
                assert total == amount  # buyer_cash == amount, all of it locked

    def test_resolver_ignores_duplicate_roles(self):
        outcome = es.resolve_dispositions(
            [("buyer", es.TO_SELLER), ("buyer", es.TO_SELLER), ("seller", es.TO_SELLER)],
            100,
            0,
        )
        assert outcome["status"] == es.RELEASED

    def test_resolver_validates_labels(self):
        with pytest.raises(es.EscrowError):
            es.resolve_dispositions([("buyer", "sideways")], 100, 0)
        with pytest.raises(es.EscrowError):
            es.resolve_dispositions([("janitor", es.TO_SELLER)], 100, 0)

    def test_resolver_none_while_short(self):
        assert es.resolve_dispositions([("buyer", es.TO_SELLER)], 100, 0) is None
        assert (
            es.resolve_dispositions(
                [("buyer", es.TO_SELLER), ("seller", es.TO_BUYER)], 100, 0
            )
            is None
        )
