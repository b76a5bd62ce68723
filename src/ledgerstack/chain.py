"""Transactions, blocks, and the append-only chain.

Block headers serialize to exactly 92 big-endian bytes:

    height u64 | prev_hash 32 | merkle_root 32 | wall_time u64 |
    tx_count u32 | nonce u64

block_id = sha256d(serialized header). Transactions hash their canonical
bytes with the signature field excluded, so a transaction id commits to
kind, payload, and author but not to the signature itself.

Two append modes exist. In quorum mode a block is appended once m distinct
configured validators have signed its block_id, each approval made by
Chain.seal alone; the nonce stays 0. In proof-of-work mode the nonce is
searched sequentially from 0 until the block_id has the required number of
leading zero bits.

The genesis block (height 0, all-zero prev_hash, wall_time 0, no
transactions, all-zero merkle root) is created by the Chain constructor and
acts as the trust anchor: it needs neither approvals nor work.

validate_block is the one place a block is checked, and BlockRejected is
the one block refusal: build_block, approve_and_append and append_mined
raise BlockRejected(reason, height) with the R_* code it returns and the
height the block was offered at, which is the reason and first_bad_height
verify_chain reports for the same block list. Transaction.verify
and Approval.verify (per block id) memoize on the object the exact content
Ed25519 accepted. A header memoizes its block_id, and the tx ids last
checked against its Merkle root with the root they hash to; build_block
sets that memo from the root it computes. So a memo hit means the same
object with the same bytes, already checked in this process. A copy
(replace, deepcopy, pickle, an import) or a mutated field is verified and
hashed again. Create and import check each tx_id, and the first verify of
that transaction reuses the check instead of hashing again. verify_chain
verifies each signature inline, once, as its walk reaches it, and stops at
the first bad block.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field, replace
from typing import AbstractSet, Any, Sequence

from . import crypto
from .crypto import ZERO32, canonical_json, sha256d

_HEADER_FMT = ">Q32s32sQIQ"

MODE_QUORUM = "quorum"
MODE_POW = "pow"

U64_MAX = 2**64 - 1
U32_MAX = 2**32 - 1

# block refusal reasons: verify_chain reports them, BlockRejected carries them
R_BAD_GENESIS = "bad_genesis"
R_HEIGHT = "height_mismatch"
R_LINK = "link_broken"
R_TX_COUNT = "tx_count_mismatch"
R_MERKLE = "merkle_mismatch"
R_TX_HASH = "tx_hash_mismatch"
R_TX_SIG = "bad_tx_signature"
R_DUP = "duplicate_tx"
R_UNKNOWN_VAL = "unknown_validator"
R_APPROVAL_SIG = "bad_approval_signature"
R_QUORUM = "quorum_not_met"
R_POW = "pow_target_missed"
R_EMPTY = "empty_block"
R_CLOCK = "clock_regression"
R_NONCE = "nonce_not_zero"  # verify_stamps only: a stamp's nonce is 0
R_MALFORMED = "malformed_period"  # verify_stamps only: not an encodable (header, list of bytes) pair


class ChainError(Exception):
    pass


class BadConfig(ChainError):
    pass


class BlockRejected(ChainError):
    """A block refused by build or append, with verify_chain's reason code
    and the height the block was offered at."""

    def __init__(self, reason: str, height: int):
        super().__init__(f"{reason} at height {height}")
        self.reason = reason
        self.height = height


class WrongMode(ChainError):
    pass


class EmptyChain(ChainError):
    pass


class BadImport(ChainError):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


# ---------------------------------------------------------------------------
# Transactions


def _without_memo(self) -> dict:
    # copy, deepcopy and pickle drop every memo: a copy is checked again.
    return {k: v for k, v in self.__dict__.items() if not k.startswith("_")}


@dataclass(frozen=True)
class Transaction:
    """A signed application event.

    payload holds the canonical JSON bytes of the payload object; tx_id is
    sha256d over the canonical tx bytes (kind, payload, author) with the
    signature excluded.
    """

    kind: str
    payload: bytes
    author_pk: bytes
    signature: bytes
    tx_id: bytes
    # ((kind, payload, author_pk, tx_id), signature): the content last found
    # to hash to tx_id, and the signature Ed25519 then accepted (None: not yet)
    _verified: tuple | None = field(default=None, init=False, compare=False, repr=False)

    __getstate__ = _without_memo

    @staticmethod
    def preimage(kind: str, payload: bytes, author_pk: bytes) -> bytes:
        # Splicing pre-canonicalized payload bytes into the outer object
        # keeps verification free of any JSON parsing. Keys are already in
        # sorted order: author_pk < kind < payload.
        return (
            b'{"author_pk":"'
            + author_pk.hex().encode("ascii")
            + b'","kind":'
            + canonical_json(kind)
            + b',"payload":'
            + payload
            + b"}"
        )

    @classmethod
    def create(cls, kind: str, payload_obj: Any, keypair: crypto.KeyPair) -> "Transaction":
        payload = canonical_json(payload_obj)
        signing = cls.preimage(kind, payload, keypair.public)
        tx = cls(
            kind=kind,
            payload=payload,
            author_pk=keypair.public,
            signature=crypto.sign(keypair.secret, signing),
            tx_id=sha256d(signing),
        )
        # the id check is done; the first verify still runs Ed25519
        object.__setattr__(tx, "_verified", ((kind, payload, keypair.public, tx.tx_id), None))
        return tx

    def signing_bytes(self) -> bytes:
        return self.preimage(self.kind, self.payload, self.author_pk)

    def payload_obj(self) -> Any:
        return json.loads(self.payload.decode("utf-8"))

    def _id_matches(self, signing: bytes) -> bool:
        body = (self.kind, self.payload, self.author_pk, self.tx_id)
        if self._verified is None or self._verified[0] != body:
            if sha256d(signing) != self.tx_id:
                return False
            object.__setattr__(self, "_verified", (body, None))
        return True

    def verify(self) -> bool:
        body = (self.kind, self.payload, self.author_pk, self.tx_id)
        if self._verified != (body, self.signature):
            signing = self.signing_bytes()
            if not self._id_matches(signing):
                return False
            if not crypto.verify(self.author_pk, signing, self.signature):
                return False
            object.__setattr__(self, "_verified", (body, self.signature))
        return True


# ---------------------------------------------------------------------------
# Headers and blocks


@dataclass(frozen=True)
class BlockHeader:
    height: int
    prev_hash: bytes
    merkle_root: bytes
    wall_time: int
    tx_count: int
    nonce: int
    # (fields, block_id) as last hashed: each header hashes once, and again
    # only if a field was mutated in place.
    _id_memo: tuple | None = field(default=None, init=False, compare=False, repr=False)
    # (tx ids, their merkle root) as last hashed, the same way.
    _root_memo: tuple | None = field(default=None, init=False, compare=False, repr=False)

    __getstate__ = _without_memo

    @property
    def block_id(self) -> bytes:
        fields = (
            self.height, self.prev_hash, self.merkle_root,
            self.wall_time, self.tx_count, self.nonce,
        )
        if self._id_memo is None or self._id_memo[0] != fields:
            object.__setattr__(self, "_id_memo", (fields, header_id(self)))
        return self._id_memo[1]

    def root_matches(self, ids: tuple[bytes, ...]) -> bool:
        """Whether merkle_root is the root of these tx ids."""
        if self._root_memo is None or self._root_memo[0] != ids:
            object.__setattr__(self, "_root_memo", (ids, crypto.merkle_root(ids) if ids else ZERO32))
        return self.merkle_root == self._root_memo[1]


def serialize_header(header: BlockHeader) -> bytes:
    """Fixed 92-byte big-endian encoding, field order as declared."""
    if not 0 <= header.height <= U64_MAX:
        raise ChainError("height out of u64 range")
    if not 0 <= header.wall_time <= U64_MAX:
        raise ChainError("wall_time out of u64 range")
    if not 0 <= header.tx_count <= U32_MAX:
        raise ChainError("tx_count out of u32 range")
    if not 0 <= header.nonce <= U64_MAX:
        raise ChainError("nonce out of u64 range")
    crypto.require_hash32(header.prev_hash, "prev_hash")
    crypto.require_hash32(header.merkle_root, "merkle_root")
    return struct.pack(
        _HEADER_FMT,
        header.height,
        header.prev_hash,
        header.merkle_root,
        header.wall_time,
        header.tx_count,
        header.nonce,
    )


def header_id(header: BlockHeader) -> bytes:
    return sha256d(serialize_header(header))


@dataclass(frozen=True)
class Approval:
    validator_pk: bytes
    signature: bytes
    # (validator_pk, signature, block_id) as last accepted by verify
    _verified: tuple | None = field(default=None, init=False, compare=False, repr=False)

    __getstate__ = _without_memo

    def verify(self, block_id: bytes) -> bool:
        content = (self.validator_pk, self.signature, block_id)
        if content != self._verified:
            if not crypto.verify(self.validator_pk, block_id, self.signature):
                return False
            object.__setattr__(self, "_verified", content)
        return True


@dataclass
class Block:
    header: BlockHeader
    txs: tuple[Transaction, ...]
    approvals: tuple[Approval, ...] = ()

    @property
    def block_id(self) -> bytes:
        return self.header.block_id


# ---------------------------------------------------------------------------
# Configuration


@dataclass(frozen=True)
class ChainConfig:
    mode: str = MODE_QUORUM
    validators: tuple[bytes, ...] = ()
    quorum_m: int = 1
    pow_target_bits: int = 8

    def __post_init__(self):
        if self.mode not in (MODE_QUORUM, MODE_POW):
            raise BadConfig(f"unknown mode {self.mode!r}")
        if self.mode == MODE_QUORUM:
            if not self.validators:
                raise BadConfig("quorum mode needs a non-empty validator set")
            if len(set(self.validators)) != len(self.validators):
                raise BadConfig("validator keys must be distinct")
            if not 1 <= self.quorum_m <= len(self.validators):
                raise BadConfig(
                    f"quorum_m {self.quorum_m} outside 1..{len(self.validators)}"
                )
        else:
            if not 1 <= self.pow_target_bits <= 24:
                raise BadConfig("pow_target_bits outside 1..24")


# ---------------------------------------------------------------------------
# Proof of work


def leading_zero_bits(digest: bytes) -> int:
    return len(digest) * 8 - int.from_bytes(digest, "big").bit_length()


def pow_check(header: BlockHeader, target_bits: int) -> bool:
    # At most one sha256d: verification stays cheap no matter the target.
    return leading_zero_bits(header.block_id) >= target_bits


def mine_pow(header: BlockHeader, target_bits: int) -> int:
    """Smallest nonce (searched sequentially from 0) meeting the target."""
    if not 1 <= target_bits <= 24:
        raise BadConfig("pow_target_bits outside 1..24")
    nonce = 0
    while True:
        # Candidates are thrown away: hash them without the block_id memo.
        if leading_zero_bits(header_id(replace(header, nonce=nonce))) >= target_bits:
            return nonce
        nonce += 1
        if nonce > U64_MAX:
            raise ChainError("nonce space exhausted")


# ---------------------------------------------------------------------------
# Block construction


def validate_block(
    block: Block,
    parent_id: bytes,
    height: int,
    seen: AbstractSet[bytes],
    config: ChainConfig | None,
) -> str | None:
    """Check one block against its parent; None if sound, else an R_* reason.

    seen holds the tx ids recorded below this block and is not modified.
    config None checks a draft that build_block derived from its
    transactions: the consensus evidence (approvals or work) is left to the
    append. The genesis block needs no evidence.
    """
    h = block.header
    if h.height != height:
        return R_HEIGHT
    if h.prev_hash != parent_id:
        return R_BAD_GENESIS if height == 0 else R_LINK
    txs = block.txs
    if h.tx_count != len(txs):
        return R_TX_COUNT
    if not txs and height > 0:
        return R_EMPTY
    verified = [tx.verify() for tx in txs]
    # A verified transaction hashes to its stated id; only a failed one
    # needs its id recomputed from its canonical bytes.
    ids = tuple(tx.tx_id if ok else sha256d(tx.signing_bytes()) for tx, ok in zip(txs, verified))
    if not h.root_matches(ids):
        return R_MERKLE
    in_block: set[bytes] = set()
    for tx, ok, rid in zip(txs, verified, ids):
        if tx.tx_id != rid:
            return R_TX_HASH
        if not ok:
            return R_TX_SIG
        if rid in seen or rid in in_block:
            return R_DUP
        in_block.add(rid)
    if config is None or height == 0:
        return None
    if config.mode == MODE_POW:
        return None if pow_check(h, config.pow_target_bits) else R_POW
    bid = h.block_id
    distinct: set[bytes] = set()
    for ap in block.approvals:
        if ap.validator_pk not in config.validators:
            return R_UNKNOWN_VAL
        if not ap.verify(bid):
            return R_APPROVAL_SIG
        distinct.add(ap.validator_pk)
    return None if len(distinct) >= config.quorum_m else R_QUORUM


def build_block(
    txs: Sequence[Transaction],
    prev_block_id: bytes,
    height: int,
    wall_time: int,
    known_tx_ids: AbstractSet[bytes] = frozenset(),
) -> Block:
    """Assemble an unappended block. Validates txs, leaves nonce = 0.

    Raises BlockRejected for an empty batch, an invalid transaction, or a
    tx id that repeats inside the batch or against known_tx_ids (chain
    history).
    """
    if not txs:
        raise BlockRejected(R_EMPTY, height)
    ids = tuple(tx.tx_id for tx in txs)
    header = BlockHeader(
        height=height,
        prev_hash=crypto.require_hash32(prev_block_id, "prev_block_id"),
        merkle_root=crypto.merkle_root(ids),
        wall_time=wall_time,
        tx_count=len(txs),
        nonce=0,
    )
    object.__setattr__(header, "_root_memo", (ids, header.merkle_root))
    block = Block(header=header, txs=tuple(txs))
    reason = validate_block(block, prev_block_id, height, known_tx_ids, None)
    if reason is not None:
        raise BlockRejected(reason, height)
    return block


# ---------------------------------------------------------------------------
# Chain


@dataclass(frozen=True)
class VerifyResult:
    valid: bool
    first_bad_height: int | None = None
    reason: str | None = None


class Chain:
    """Append-only block list under a fixed consensus configuration."""

    def __init__(self, config: ChainConfig):
        self.config = config
        genesis = BlockHeader(height=0, prev_hash=ZERO32, merkle_root=ZERO32, wall_time=0, tx_count=0, nonce=0)
        self.blocks: list[Block] = [Block(header=genesis, txs=())]
        self._tx_ids: set[bytes] = set()

    @property
    def tip(self) -> Block:
        return self.blocks[-1]

    @property
    def height(self) -> int:
        return self.tip.header.height

    @property
    def tx_ids(self) -> frozenset[bytes]:
        return frozenset(self._tx_ids)

    def build_block(self, txs: Sequence[Transaction], wall_time: int) -> Block:
        return build_block(txs, self.tip.block_id, self.height + 1, wall_time, self._tx_ids)

    def _append(self, block: Block) -> Block:
        height = self.height + 1
        reason = validate_block(block, self.tip.block_id, height, self._tx_ids, self.config)
        if reason is not None:
            raise BlockRejected(reason, height)
        self.blocks.append(block)
        self._tx_ids.update(tx.tx_id for tx in block.txs)
        return block

    def approve_and_append(
        self, block: Block, approvals: Sequence[Approval]
    ) -> Block:
        """Append under quorum rules: m distinct valid validator signatures
        over the block_id. The accepted block (with approvals attached) is
        returned."""
        if self.config.mode != MODE_QUORUM:
            raise WrongMode("approve_and_append requires quorum mode")
        return self._append(
            Block(header=block.header, txs=block.txs, approvals=tuple(approvals))
        )

    def seal(self, txs: Sequence[Transaction], wall_time: int, *signers: crypto.KeyPair) -> Block:
        """Build the next block from txs, have each signer approve its
        block_id, and append it under quorum rules."""
        block = self.build_block(txs, wall_time)
        bid = block.block_id
        return self.approve_and_append(block, [Approval(k.public, crypto.sign(k.secret, bid)) for k in signers])

    def append_mined(self, block: Block) -> Block:
        """Append under proof-of-work rules: header must meet the target."""
        if self.config.mode != MODE_POW:
            raise WrongMode("append_mined requires pow mode")
        return self._append(block)

    def mine_and_append(self, txs: Sequence[Transaction], wall_time: int) -> Block:
        draft = self.build_block(txs, wall_time)
        nonce = mine_pow(draft.header, self.config.pow_target_bits)
        return self.append_mined(
            Block(header=replace(draft.header, nonce=nonce), txs=draft.txs)
        )

    def verify(self) -> VerifyResult:
        return verify_chain(self.blocks, self.config)

    # -- export / import ----------------------------------------------------

    def to_jsonl(self) -> str:
        return "".join(_block_to_line(b) for b in self.blocks)

    def export_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_jsonl())

    @classmethod
    def from_jsonl(cls, text: str, config: ChainConfig) -> "Chain":
        # split on "\n" only: str.splitlines also breaks at U+2028 and other
        # separators that the writer leaves unescaped inside strings
        lines = [ln for ln in text.split("\n") if ln.strip()]
        if not lines:
            raise EmptyChain("refusing to import an empty chain file")
        chain = cls(config)
        chain.blocks = [_block_from_line(ln, i + 1) for i, ln in enumerate(lines)]
        chain._tx_ids = {tx.tx_id for b in chain.blocks for tx in b.txs}
        return chain


# ---------------------------------------------------------------------------
# Period stamps
#
# A period stamp is a header-only block over an ordered batch of raw items:
# height is the period index, prev_hash the previous stamp's block_id (zero
# for period 0), merkle_root the root of the items' sha256d, tx_count the
# item count and nonce 0. The stamp is its block_id, so it commits to the
# index, the count and the wall time as well as to the items.


def stamp_period(items: Sequence[bytes], prev: BlockHeader | None, wall_time: int) -> BlockHeader:
    """Close a period over raw item bytes and chain it onto prev (None
    starts the chain). Raises BlockRejected for a period with no items or
    a wall_time earlier than prev's."""
    height = 0 if prev is None else prev.height + 1
    if not items:
        raise BlockRejected(R_EMPTY, height)
    if prev is not None and wall_time < prev.wall_time:
        raise BlockRejected(R_CLOCK, height)
    return BlockHeader(
        height=height,
        prev_hash=ZERO32 if prev is None else prev.block_id,
        merkle_root=crypto.merkle_root([sha256d(item) for item in items]),
        wall_time=wall_time,
        tx_count=len(items),
        nonce=0,
    )


def _well_formed(period: Any) -> bool:
    """Whether a period is a (BlockHeader, list or tuple of bytes) pair
    whose header encodes."""
    try:
        stamp, items = period
        stamp.block_id  # serialize_header checks ranges and hash lengths
    except (TypeError, ValueError, AttributeError, struct.error, ChainError, crypto.CryptoError):
        return False
    return (
        isinstance(stamp, BlockHeader)
        and isinstance(items, (tuple, list))
        and all(isinstance(item, (bytes, bytearray, memoryview)) for item in items)
    )


def verify_stamps(periods: Sequence[tuple[BlockHeader, Sequence[bytes]]]) -> VerifyResult:
    """Recompute a stamp chain from each period's (stamp, items); report the
    first bad period as first_bad_height, with an R_* reason. Never raises:
    a malformed period is R_MALFORMED."""
    prev: BlockHeader | None = None
    for height, period in enumerate(periods):
        if not _well_formed(period):
            return VerifyResult(False, height, R_MALFORMED)
        stamp, items = period
        if stamp.height != height:
            reason = R_HEIGHT
        elif stamp.nonce != 0:
            reason = R_NONCE
        elif stamp.prev_hash != (ZERO32 if prev is None else prev.block_id):
            reason = R_LINK
        elif prev is not None and stamp.wall_time < prev.wall_time:
            reason = R_CLOCK
        elif stamp.tx_count != len(items):
            reason = R_TX_COUNT
        elif not items:
            reason = R_EMPTY
        elif stamp.merkle_root != crypto.merkle_root([sha256d(item) for item in items]):
            reason = R_MERKLE
        else:
            prev = stamp
            continue
        return VerifyResult(False, height, reason)
    return VerifyResult(True)


def verify_chain(blocks: Sequence[Block], config: ChainConfig) -> VerifyResult:
    """Walk the chain from genesis; report the lowest failing height.

    Hash avalanche makes any single tampered byte surface at or below the
    height where it happened: the merkle root is checked against the tx ids
    (recomputed from canonical bytes for any transaction that fails), linkage
    against recomputed block ids, and consensus evidence (approvals or work)
    against the recomputed block_id.
    """
    if not blocks:
        return VerifyResult(False, 0, R_BAD_GENESIS)
    seen: set[bytes] = set()
    parent_id = ZERO32
    for height, block in enumerate(blocks):
        reason = validate_block(block, parent_id, height, seen, config)
        if reason is not None:
            return VerifyResult(False, height, reason)
        seen.update(tx.tx_id for tx in block.txs)
        parent_id = block.block_id
    return VerifyResult(True)


# ---------------------------------------------------------------------------
# JSON-lines codec


def _block_to_line(block: Block) -> str:
    h = block.header
    obj = {
        "height": h.height,
        "prev_hash": h.prev_hash.hex(),
        "merkle_root": h.merkle_root.hex(),
        "wall_time": h.wall_time,
        "tx_count": h.tx_count,
        "nonce": h.nonce,
        "block_id": block.block_id.hex(),
        "txs": [
            {
                "tx_id": tx.tx_id.hex(),
                "kind": tx.kind,
                "payload": tx.payload_obj(),
                "author_pk": tx.author_pk.hex(),
                "signature": tx.signature.hex(),
            }
            for tx in block.txs
        ],
        "approvals": [
            {"validator_pk": ap.validator_pk.hex(), "signature": ap.signature.hex()}
            for ap in block.approvals
        ],
    }
    return canonical_json(obj).decode("utf-8") + "\n"


def _block_from_line(line: str, lineno: int) -> Block:
    try:
        obj = json.loads(line)
        txs = tuple(
            Transaction(
                kind=t["kind"],
                payload=canonical_json(t["payload"]),
                author_pk=bytes.fromhex(t["author_pk"]),
                signature=bytes.fromhex(t["signature"]),
                tx_id=bytes.fromhex(t["tx_id"]),
            )
            for t in obj["txs"]
        )
        approvals = tuple(
            Approval(
                validator_pk=bytes.fromhex(a["validator_pk"]),
                signature=bytes.fromhex(a["signature"]),
            )
            for a in obj["approvals"]
        )
        header = BlockHeader(
            height=obj["height"],
            prev_hash=bytes.fromhex(obj["prev_hash"]),
            merkle_root=bytes.fromhex(obj["merkle_root"]),
            wall_time=obj["wall_time"],
            tx_count=obj["tx_count"],
            nonce=obj["nonce"],
        )
        numbers = (header.height, header.wall_time, header.tx_count, header.nonce)
        if any(type(v) is not int for v in numbers):
            raise TypeError("height, wall_time, tx_count and nonce must be integers")
        stated_id = bytes.fromhex(obj["block_id"])
        block = Block(header=header, txs=txs, approvals=approvals)
        block_id = block.block_id  # serialize_header checks ranges and hash lengths
    except (KeyError, ValueError, TypeError, ChainError, crypto.CryptoError) as exc:
        raise BadImport(lineno, f"malformed block record: {exc}") from exc
    if block_id != stated_id:
        raise BadImport(lineno, "stated block_id does not match recomputed header hash")
    for tx in txs:
        if not tx._id_matches(tx.signing_bytes()):
            raise BadImport(lineno, f"stated tx_id mismatch on {tx.tx_id.hex()}")
    return block
