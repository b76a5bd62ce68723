"""Independent reference implementations used only by the test suite.

The SHA-256 here is written straight from the FIPS 180-4 definition and
shares no code with the package: round constants and initial state are
derived on the fly from the fractional parts of prime cube/square roots
using integer arithmetic, instead of being copied digit strings.
"""

from __future__ import annotations

import math
import struct

_MASK = 0xFFFFFFFF


def _first_primes(n: int) -> list[int]:
    primes: list[int] = []
    candidate = 2
    while len(primes) < n:
        if all(candidate % p for p in primes if p * p <= candidate):
            primes.append(candidate)
        candidate += 1
    return primes


def _icbrt(n: int) -> int:
    # Integer cube root by Newton iteration.
    if n == 0:
        return 0
    x = 1 << ((n.bit_length() + 2) // 3)
    while True:
        y = (2 * x + n // (x * x)) // 3
        if y >= x:
            break
        x = y
    while x * x * x > n:
        x -= 1
    return x


# First 32 fractional bits of the square roots of the first 8 primes,
# and of the cube roots of the first 64 primes (FIPS 180-4, sections 4.2.2
# and 5.3.3). Values below 2^32 after masking are exactly the fractional
# parts because the integer parts sit above bit 32 once shifted.
_H0 = tuple(math.isqrt(p << 64) & _MASK for p in _first_primes(8))
_K = tuple(_icbrt(p << 96) & _MASK for p in _first_primes(64))


def _rotr(x: int, n: int) -> int:
    return ((x >> n) | (x << (32 - n))) & _MASK


def sha256_pure(data: bytes) -> bytes:
    """Pure-Python SHA-256, independent of hashlib."""
    h = list(_H0)
    bit_len = len(data) * 8
    data += b"\x80"
    data += b"\x00" * ((56 - len(data)) % 64)
    data += struct.pack(">Q", bit_len)
    for start in range(0, len(data), 64):
        w = list(struct.unpack(">16I", data[start : start + 64]))
        for i in range(16, 64):
            s0 = _rotr(w[i - 15], 7) ^ _rotr(w[i - 15], 18) ^ (w[i - 15] >> 3)
            s1 = _rotr(w[i - 2], 17) ^ _rotr(w[i - 2], 19) ^ (w[i - 2] >> 10)
            w.append((w[i - 16] + s0 + w[i - 7] + s1) & _MASK)
        a, b, c, d, e, f, g, hh = h
        for i in range(64):
            s1 = _rotr(e, 6) ^ _rotr(e, 11) ^ _rotr(e, 25)
            ch = (e & f) ^ (~e & g & _MASK)
            t1 = (hh + s1 + ch + _K[i] + w[i]) & _MASK
            s0 = _rotr(a, 2) ^ _rotr(a, 13) ^ _rotr(a, 22)
            maj = (a & b) ^ (a & c) ^ (b & c)
            t2 = (s0 + maj) & _MASK
            hh, g, f, e, d, c, b, a = (
                g,
                f,
                e,
                (d + t1) & _MASK,
                c,
                b,
                a,
                (t1 + t2) & _MASK,
            )
        h = [(x + y) & _MASK for x, y in zip(h, (a, b, c, d, e, f, g, hh))]
    return b"".join(struct.pack(">I", x) for x in h)


def sha256d_pure(data: bytes) -> bytes:
    return sha256_pure(sha256_pure(data))


def leading_zero_bits_pure(digest: bytes) -> int:
    value = int.from_bytes(digest, "big")
    return len(digest) * 8 - value.bit_length()


def net_positions_oracle(trades: list[dict]) -> list[dict]:
    """Quadratic per-member recount of net positions.

    Independent of the production single-pass fold: for every (member,
    asset) pair it rescans the whole trade list and totals each side
    separately. Output rows sorted by (member, asset), zero rows dropped,
    matching the production contract.
    """
    members = sorted({t["buyer"] for t in trades} | {t["seller"] for t in trades})
    assets = sorted({t["asset"] for t in trades})
    rows = []
    for member in members:
        for asset in assets:
            bought = sum(
                t["quantity"]
                for t in trades
                if t["buyer"] == member and t["asset"] == asset
            )
            sold = sum(
                t["quantity"]
                for t in trades
                if t["seller"] == member and t["asset"] == asset
            )
            received = sum(
                t["quantity"] * t["price"]
                for t in trades
                if t["seller"] == member and t["asset"] == asset
            )
            paid = sum(
                t["quantity"] * t["price"]
                for t in trades
                if t["buyer"] == member and t["asset"] == asset
            )
            if bought - sold or received - paid:
                rows.append(
                    {
                        "member": member,
                        "asset": asset,
                        "net_quantity": bought - sold,
                        "net_cash": received - paid,
                    }
                )
    return rows


def match_oracle(orders: list[tuple]) -> tuple[list[tuple], dict[str, tuple[int, int]]]:
    """Brute-force price-time matching with self-trade prevention.

    `orders` are (member, side, asset, quantity, price, day) tuples in
    arrival order, side "buy" or "sell". Before every fill the oracle
    re-sorts every resting order and takes the first one on the other side
    of the same asset that crosses and belongs to another member; a
    member's own orders are passed over and stay resting. Fills execute at
    the resting price. Returns the trades as (id, buyer, seller, asset,
    quantity, price, day) with ids T000001, ... and, per asset seen, the
    resting (bid, ask) quantities.
    """
    resting: list[list] = []  # [arrival, (member, side, ...), remaining]
    trades: list[tuple] = []
    for arrival, order in enumerate(orders):
        member, side, asset, left, price, day = order
        buy = side == "buy"
        while left:
            resting.sort(key=lambda r: (r[1][4] if r[1][1] == "sell" else -r[1][4], r[0]))
            fill = next(
                (
                    r
                    for r in resting
                    if r[2] > 0
                    and r[1][2] == asset
                    and r[1][1] != side
                    and r[1][0] != member
                    and (r[1][4] <= price if buy else r[1][4] >= price)
                ),
                None,
            )
            if fill is None:
                break
            qty = min(left, fill[2])
            buyer, seller = (member, fill[1][0]) if buy else (fill[1][0], member)
            trades.append((f"T{len(trades) + 1:06d}", buyer, seller, asset, qty, fill[1][4], day))
            left -= qty
            fill[2] -= qty
        if left:
            resting.append([arrival, order, left])
    depth = {
        asset: (
            sum(r[2] for r in resting if r[1][2] == asset and r[1][1] == "buy"),
            sum(r[2] for r in resting if r[1][2] == asset and r[1][1] == "sell"),
        )
        for asset in sorted({o[2] for o in orders})
    }
    return trades, depth


def triple_match_oracle(triples, subject_id: str, tp_id: str, item_ids) -> bool:
    """Linear scan over every granted triple, as the policy kernel first
    matched: some triple of this subject and TP must cover every item."""
    wanted = frozenset(item_ids)
    return any(
        t.subject_id == subject_id and t.tp_id == tp_id and wanted <= t.cdi_ids
        for t in triples
    )
