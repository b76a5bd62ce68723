"""Hashing, Merkle tree, signature, and period-stamp primitives.

Everything here is deterministic: the same inputs always produce the same
bytes. All digests are 32-byte double SHA-256 values, rendered as 64
lowercase hex characters wherever they leave the process.
"""

from __future__ import annotations

import atexit
import functools
import hashlib
import json
import os
import threading
from dataclasses import dataclass
from typing import Any, Sequence

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)

HASH_LEN = 32
SEED_LEN = 32
SIG_LEN = 64
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


class ClockRegression(CryptoError):
    """A period stamp may not be dated earlier than its predecessor."""


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
        if len(level) % 2 == 1:
            level = level + [level[-1]]
        sibling_pos = pos ^ 1
        side = LEFT if sibling_pos < pos else RIGHT
        path.append((level[sibling_pos], side))
        level = [sha256d(level[i] + level[i + 1]) for i in range(0, len(level), 2)]
        pos //= 2
    return MerkleProof(leaf_index=index, path=tuple(path))


def merkle_verify(root: bytes, leaf: bytes, proof: MerkleProof) -> bool:
    """Check an inclusion proof. Returns a bool, never raises on bad paths."""
    try:
        acc = require_hash32(leaf, "leaf")
        for sibling, side in proof.path:
            require_hash32(sibling, "sibling")
            if side == LEFT:
                acc = sha256d(sibling + acc)
            elif side == RIGHT:
                acc = sha256d(acc + sibling)
            else:
                return False
        return acc == root
    except CryptoError:
        return False


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


# Below this many signatures a batch is verified inline: handing a share to
# a worker and waking it costs about as much as fifteen verifies.
PARALLEL_MIN = 256

# (pid of the process that created it, ProcessPoolExecutor); a forked
# child must not share its parent's pool.
_pool: tuple[int, Any] | None = None


def _verify_share(items: Sequence[tuple[bytes, bytes, bytes]]) -> list[bool]:
    return [verify(*item) for item in items]


def _worker_pool(batch: int, cpus: int) -> Any:
    """The process pool that verifies the shares after the first, or None
    to verify the whole batch inline."""
    global _pool
    if batch < PARALLEL_MIN or cpus < 2:
        return None
    if _pool is None or _pool[0] != os.getpid():
        if threading.active_count() > 1:
            return None  # forking a process that runs other threads can deadlock
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # fork, not spawn: a spawned worker re-imports __main__, which a
        # script read from stdin cannot provide
        executor = ProcessPoolExecutor(
            cpus - 1,
            mp_context=multiprocessing.get_context("fork"),
            initializer=_exit_with_parent,
            initargs=(os.getpid(),),
        )
        _pool = (os.getpid(), executor)
        # released at exit while the modules it needs are still loaded
        atexit.register(_drop_pool, executor)
    return _pool[1]


def _exit_with_parent(parent: int) -> None:
    # An idle worker waits on its call queue for ever, so a parent killed
    # before its exit handlers run would leave it behind. Linux ends the
    # worker with its parent (PR_SET_PDEATHSIG); elsewhere this is a no-op.
    import ctypes
    import signal

    prctl = getattr(ctypes.CDLL(None), "prctl", None)
    if prctl is not None:
        prctl.argtypes, prctl.restype = [ctypes.c_int, ctypes.c_ulong], ctypes.c_int
        prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG = 1
    if os.getppid() != parent:  # the parent died before the call above
        os._exit(0)


def verify_many(items: Sequence[tuple[bytes, bytes, bytes]]) -> list[bool]:
    """[verify(*t) for t in items] over (public, message, signature) triples.

    Ed25519 verification holds the interpreter lock, so a batch of at least
    PARALLEL_MIN signatures is split into one contiguous share per CPU this
    process may run on: this process verifies the first share and a process
    pool the others. A share whose worker fails is verified inline, so a
    True is never reported without a verify.
    """
    items = list(items)
    # platforms without CPU affinity (macOS, Windows) verify inline
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    pool = _worker_pool(len(items), cpus)
    if pool is None:
        return _verify_share(items)
    size = -(-len(items) // cpus)
    shares = [items[i : i + size] for i in range(0, len(items), size)]
    try:
        futures = [pool.submit(_verify_share, share) for share in shares[1:]]
    except RuntimeError:  # a worker was lost while the pool sat idle
        _drop_pool(pool)
        return _verify_share(items)
    results = _verify_share(shares[0])
    for share, future in zip(shares[1:], futures):
        try:
            results += future.result()
        except Exception:
            # A lost worker, or a share that could not be sent: verify the
            # share here, where an error of its own is raised again.
            _drop_pool(pool)
            results += _verify_share(share)
    return results


def _drop_pool(pool: Any) -> None:
    """Shut the pool down and forget it; the next large batch starts a new one."""
    global _pool
    if _pool is not None and _pool[1] is pool:
        _pool = None
        pool.shutdown()


# ---------------------------------------------------------------------------
# Period stamping
#
# A period gathers an ordered batch of raw items, hashes each item, takes
# the Merkle root of those hashes, and chains: stamp = sha256d(items_root
# concatenated with the previous period's stamp). The genesis predecessor
# stamp is 32 zero bytes.


@dataclass(frozen=True)
class PeriodStamp:
    period_index: int
    items_root: bytes
    stamp: bytes
    wall_time: int


def stamp_period(
    items: Sequence[bytes], prev: PeriodStamp | None, wall_time: int
) -> PeriodStamp:
    """Close a period over raw item bytes and chain it onto prev.

    prev=None starts the chain (period_index 0, predecessor stamp all-zero).
    wall_time must not move backwards along the chain.
    """
    if not items:
        raise EmptyLeaves("a period must contain at least one item")
    if wall_time < 0:
        raise CryptoError("wall_time must be non-negative")
    if prev is not None and wall_time < prev.wall_time:
        raise ClockRegression(
            f"wall_time {wall_time} precedes previous period at {prev.wall_time}"
        )
    prev_stamp = ZERO32 if prev is None else prev.stamp
    index = 0 if prev is None else prev.period_index + 1
    items_root = merkle_root([sha256d(item) for item in items])
    return PeriodStamp(
        period_index=index,
        items_root=items_root,
        stamp=sha256d(items_root + prev_stamp),
        wall_time=wall_time,
    )


def verify_stamp_chain(
    stamps: Sequence[PeriodStamp], items_per_period: Sequence[Sequence[bytes]]
) -> bool:
    """Recompute an entire stamp chain from raw items and compare."""
    if len(stamps) != len(items_per_period):
        return False
    prev: PeriodStamp | None = None
    for stamp, items in zip(stamps, items_per_period):
        try:
            expected = stamp_period(items, prev, stamp.wall_time)
        except CryptoError:
            return False
        if expected != stamp:
            return False
        prev = stamp
    return True
