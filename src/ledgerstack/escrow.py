"""Two-of-three escrow with signed disposition votes.

A buyer locks funds at a derived escrow address. Three keys are party to
the arrangement: buyer, seller, and a neutral arbiter. Each party may sign
exactly one disposition, either to_seller or to_buyer, over the bytes
(address || disposition). The first disposition backed by two distinct
parties wins and the escrow finalizes immediately.

If the two backers are buyer and seller the escrow resolves amicably:
released (to_seller) or refunded (to_buyer), full amount, no fee. If the
arbiter is one of the two backers the outcome is arbitrated: the winning
side receives amount - fee and the arbiter keeps the fee.

Balances live in a flat map from key bytes to integer cash; the escrow
address itself holds the locked amount, so the map total is conserved
through every state change.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from . import crypto

TO_SELLER = "to_seller"
TO_BUYER = "to_buyer"
DISPOSITIONS = (TO_SELLER, TO_BUYER)

OPEN = "open"
RELEASED = "released"
REFUNDED = "refunded"
ARBITRATED = "arbitrated"

BUYER = "buyer"
SELLER = "seller"
ARBITER = "arbiter"
ROLES = (BUYER, SELLER, ARBITER)


class EscrowError(Exception):
    pass


class DuplicateKey(EscrowError):
    pass


class FeeTooLarge(EscrowError):
    pass


class InsufficientFunds(EscrowError):
    pass


class AlreadyOpen(EscrowError):
    pass


class NotParty(EscrowError):
    pass


class BadSignature(EscrowError):
    pass


class AlreadyFinal(EscrowError):
    pass


class ConflictingSignature(EscrowError):
    pass


def resolve_dispositions(
    events: Sequence[Sequence[str]], amount: int, fee: int
) -> dict | None:
    """Decide the outcome from verified votes in arrival order.

    Each event is (role, disposition) with role one of buyer, seller,
    arbiter; a role appears at most once. Returns None while no
    disposition has two distinct backers. Zero payouts are omitted.
    """
    backers: dict[str, list[str]] = {}
    for role, disposition in events:
        if disposition not in DISPOSITIONS:
            raise EscrowError(f"unknown disposition {disposition!r}")
        if role not in ROLES:
            raise EscrowError(f"unknown role {role!r}")
        rows = backers.setdefault(disposition, [])
        if role in rows:
            continue
        rows.append(role)
        if len(rows) == 2:
            winner_role = SELLER if disposition == TO_SELLER else BUYER
            if ARBITER in rows:
                status = ARBITRATED
                payouts = {winner_role: amount - fee, ARBITER: fee}
            else:
                status = RELEASED if disposition == TO_SELLER else REFUNDED
                payouts = {winner_role: amount}
            return {
                "status": status,
                "disposition": disposition,
                "payouts": {k: v for k, v in payouts.items() if v > 0},
            }
    return None


def derive_address(
    buyer_pk: bytes,
    seller_pk: bytes,
    arbiter_pk: bytes,
    amount: int,
    fee: int,
    nonce: int,
) -> bytes:
    doc = {
        "buyer": buyer_pk.hex(),
        "seller": seller_pk.hex(),
        "arbiter": arbiter_pk.hex(),
        "amount": amount,
        "fee": fee,
        "nonce": nonce,
    }
    return crypto.sha256d(crypto.canonical_json(doc))


def signing_bytes(address: bytes, disposition: str) -> bytes:
    """What a party signs to vote: escrow address then the disposition
    string as utf-8."""
    return address + disposition.encode("utf-8")


Balances = dict[bytes, int]


@dataclass
class Escrow:
    address: bytes
    buyer_pk: bytes
    seller_pk: bytes
    arbiter_pk: bytes
    amount: int
    fee: int
    nonce: int
    status: str = OPEN
    votes: list[list[str]] = field(default_factory=list)  # [role, disposition]
    outcome: dict | None = None


def open_escrow(
    balances: Balances,
    buyer_pk: bytes,
    seller_pk: bytes,
    arbiter_pk: bytes,
    amount: int,
    fee: int,
    nonce: int = 0,
) -> Escrow:
    """Lock the buyer's funds at the escrow address.

    Terms no escrow may hold are refused: shared keys, or money that is not
    an integer with 0 <= fee <= amount and amount > 0. So is an address
    already in balances, live or resolved: the votes signed for it would
    replay on the new escrow.
    """
    if len({buyer_pk, seller_pk, arbiter_pk}) != 3:
        raise DuplicateKey("buyer, seller, and arbiter keys must be distinct")
    if not crypto.is_money(amount):
        raise EscrowError("escrow amount must be a positive integer")
    if not crypto.is_money_or_zero(fee):
        raise EscrowError("fee must be a non-negative integer")
    if fee > amount:
        raise FeeTooLarge(f"fee {fee} exceeds escrow amount {amount}")
    address = derive_address(buyer_pk, seller_pk, arbiter_pk, amount, fee, nonce)
    if address in balances:
        raise AlreadyOpen(f"escrow {address.hex()} was already opened")
    if balances.get(buyer_pk, 0) < amount:
        raise InsufficientFunds(
            f"buyer holds {balances.get(buyer_pk, 0)}, needs {amount}"
        )
    balances[buyer_pk] -= amount
    balances[address] = amount
    return Escrow(address, buyer_pk, seller_pk, arbiter_pk, amount, fee, nonce)


def sign_disposition(
    balances: Balances,
    escrow: Escrow,
    signer_pk: bytes,
    signature: bytes,
    disposition: str,
) -> Escrow:
    """Record one party's vote; the second distinct backer of a disposition
    resolves the escrow and pays out the locked amount. A party may re-sign
    its own disposition (no-op) but never the opposite one.
    """
    if escrow.status != OPEN:
        raise AlreadyFinal(f"escrow is {escrow.status}")
    if disposition not in DISPOSITIONS:
        raise EscrowError(f"unknown disposition {disposition!r}")
    keys = {BUYER: escrow.buyer_pk, SELLER: escrow.seller_pk, ARBITER: escrow.arbiter_pk}
    role = {pk: r for r, pk in keys.items()}.get(signer_pk)
    if role is None:
        raise NotParty("signer is not a party to this escrow")
    if not crypto.verify(signer_pk, signing_bytes(escrow.address, disposition), signature):
        raise BadSignature(f"invalid {disposition} signature from {role}")
    previous = dict(escrow.votes).get(role, disposition)
    if previous != disposition:
        raise ConflictingSignature(f"{role} already signed {previous}")
    if [role, disposition] in escrow.votes:
        return escrow
    escrow.votes.append([role, disposition])
    outcome = resolve_dispositions(escrow.votes, escrow.amount, escrow.fee)
    if outcome is not None:
        escrow.status = outcome["status"]
        escrow.outcome = outcome
        for winner, amount in outcome["payouts"].items():
            balances[escrow.address] -= amount
            balances[keys[winner]] = balances.get(keys[winner], 0) + amount
    return escrow

