"""Hashing, Merkle tree and signature primitives.

Everything here is deterministic: the same inputs always produce the same
bytes. All digests are 32-byte double SHA-256 values, rendered as 64
lowercase hex characters wherever they leave the process. Each signature
is verified inline, in the calling process.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass
from typing import Any, Sequence

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)

HASH_LEN = 32
SEED_LEN = 32
ZERO32 = b"\x00" * HASH_LEN

LEFT = "left"
RIGHT = "right"


class CryptoError(Exception):
    """Base class for errors raised by this module."""


class EmptyLeaves(CryptoError):
    """Merkle operations need at least one leaf."""


class BadIndex(CryptoError):
    """Requested leaf index is outside the leaf list."""


class BadSeed(CryptoError):
    """Key seeds must be exactly 32 bytes."""


def sha256d(data: bytes) -> bytes:
    """Double SHA-256: sha256(sha256(data)). Returns 32 bytes."""
    return hashlib.sha256(hashlib.sha256(data).digest()).digest()


def is_money(value: Any) -> bool:
    """The one money rule: an int, not a bool (nor a float), above zero."""
    return type(value) is int and value > 0


def is_money_or_zero(value: Any) -> bool:
    """The money rule for a balance or an optional leg: an int, not a bool, at or above zero."""
    return type(value) is int and value >= 0


def canonical_json(obj: Any) -> bytes:
    """Key-sorted, minimal-whitespace UTF-8 JSON bytes.

    This is the one canonical byte form used for every hash preimage built
    from structured data (transactions, audit records, contract params).
    NaN and the infinities have no JSON form (RFC 8259 section 6) and raise
    ValueError.
    """
    return json.dumps(
        obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False, allow_nan=False
    ).encode("utf-8")


def require_hash32(value: bytes, what: str = "hash") -> bytes:
    if not isinstance(value, bytes) or len(value) != HASH_LEN:
        raise CryptoError(f"{what} must be exactly {HASH_LEN} bytes")
    return value


# ---------------------------------------------------------------------------
# Merkle tree


@dataclass(frozen=True)
class MerkleProof:
    """Inclusion proof: sibling hashes from leaf level up to the root.

    Each path element is (sibling_hash, side) where side says on which side
    of the running hash the sibling sits.
    """

    leaf_index: int
    path: tuple[tuple[bytes, str], ...]


def _next_level(level: list[bytes]) -> list[bytes]:
    # Odd level: the last node is paired with itself.
    if len(level) % 2 == 1:
        level = level + [level[-1]]
    return [sha256d(level[i] + level[i + 1]) for i in range(0, len(level), 2)]


def merkle_root(leaves: Sequence[bytes]) -> bytes:
    """Root of the double-SHA-256 Merkle tree over the given leaf hashes.

    A single leaf is its own root. With an odd node count at any level the
    last node is concatenated with itself.
    """
    if not leaves:
        raise EmptyLeaves("merkle_root of zero leaves is undefined")
    level = [require_hash32(leaf, "leaf") for leaf in leaves]
    while len(level) > 1:
        level = _next_level(level)
    return level[0]


def merkle_prove(leaves: Sequence[bytes], index: int) -> MerkleProof:
    """Produce the inclusion proof for leaves[index]."""
    if not leaves:
        raise EmptyLeaves("cannot prove inclusion in an empty tree")
    if not 0 <= index < len(leaves):
        raise BadIndex(f"leaf index {index} out of range for {len(leaves)} leaves")
    level = [require_hash32(leaf, "leaf") for leaf in leaves]
    pos = index
    path: list[tuple[bytes, str]] = []
    while len(level) > 1:
        # the odd last node's sibling is itself, as _next_level pads it
        sibling = level[min(pos ^ 1, len(level) - 1)]
        path.append((sibling, LEFT if pos & 1 else RIGHT))
        level = _next_level(level)
        pos //= 2
    return MerkleProof(leaf_index=index, path=tuple(path))


@dataclass(frozen=True)
class ProofResult:
    """What merkle_verify found: valid, or the reason and the tree level
    where the path fails (0 at the leaf, the path length at the root, None
    for a proof refused as a whole). No truth value of its own: read valid.

    Reasons: malformed_proof (no leaf_index, or a path that is not a
    sequence), bad_size (not an int >= 1), bad_index (not an int inside the
    tree), path_length_mismatch (not one step per level), malformed_leaf,
    malformed_step (not a (32-byte sibling, side) pair), wrong_side (not the
    side the index bit names) and root_mismatch.
    """

    valid: bool
    first_bad_level: int | None = None
    reason: str | None = None


def merkle_verify(root: bytes, leaf: bytes, proof: MerkleProof, size: int) -> ProofResult:
    """Check an inclusion proof in a tree of size leaves, a size the caller
    knows (a header's tx_count), not one the proof claims. The path needs
    one step per level, each sibling on the side the index bits name (RFC
    6962 section 2.1.1). Never raises: a malformed proof is a reason."""
    try:
        index, path = proof.leaf_index, tuple(proof.path)
    except (AttributeError, TypeError):
        return ProofResult(False, None, "malformed_proof")
    if type(size) is not int or size < 1:
        return ProofResult(False, None, "bad_size")
    if type(index) is not int or not 0 <= index < size:
        return ProofResult(False, None, "bad_index")
    if len(path) != (size - 1).bit_length():
        return ProofResult(False, None, "path_length_mismatch")
    if not isinstance(leaf, bytes) or len(leaf) != HASH_LEN:
        return ProofResult(False, 0, "malformed_leaf")
    acc = leaf
    for level, step in enumerate(path):
        sibling, side = step if isinstance(step, (tuple, list)) and len(step) == 2 else (None, None)
        if not isinstance(sibling, bytes) or len(sibling) != HASH_LEN:
            return ProofResult(False, level, "malformed_step")
        if side != (LEFT if index & 1 else RIGHT):
            return ProofResult(False, level, "wrong_side")
        acc = sha256d(sibling + acc) if side == LEFT else sha256d(acc + sibling)
        index >>= 1
    if acc != root:
        return ProofResult(False, len(path), "root_mismatch")
    return ProofResult(True)


# ---------------------------------------------------------------------------
# Signatures
#
# Ed25519: 32-byte seed secrets, 32-byte public keys, 64-byte deterministic
# signatures. The scheme is deliberately pluggable; nothing outside this
# module touches the underlying library objects.


@dataclass(frozen=True)
class KeyPair:
    secret: bytes
    public: bytes


# Loading a key costs about as much as signing with it; ledgers sign with
# a handful of operator keys.
_private_key = functools.lru_cache(maxsize=32)(Ed25519PrivateKey.from_private_bytes)


def keygen(seed: bytes) -> KeyPair:
    """Derive a keypair from a 32-byte seed. Same seed, same keys."""
    if not isinstance(seed, bytes) or len(seed) != SEED_LEN:
        raise BadSeed(f"seed must be exactly {SEED_LEN} bytes")
    return KeyPair(secret=seed, public=_private_key(seed).public_key().public_bytes_raw())


def sign(secret: bytes, message: bytes) -> bytes:
    """Sign message bytes with a 32-byte secret seed. 64-byte signature."""
    if not isinstance(secret, bytes) or len(secret) != SEED_LEN:
        raise BadSeed(f"secret must be exactly {SEED_LEN} bytes")
    return _private_key(secret).sign(message)


def verify(public: bytes, message: bytes, signature: bytes) -> bool:
    """True iff signature is valid. Malformed inputs return False, no raise."""
    try:
        Ed25519PublicKey.from_public_bytes(public).verify(signature, message)
        return True
    except (InvalidSignature, ValueError, TypeError):
        return False

