"""Hashing, Merkle, signature, and period-stamp unit tests.

Frozen hex literals were computed from independent hand expansions (see
oracles.py and the inline expansions below), never from the code under test.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
import subprocess
import sys
import threading
import time

import pytest

from ledgerstack import crypto
from ledgerstack.crypto import (
    ZERO32,
    BadIndex,
    BadSeed,
    ClockRegression,
    EmptyLeaves,
    MerkleProof,
    canonical_json,
    keygen,
    merkle_prove,
    merkle_root,
    merkle_verify,
    sha256d,
    sign,
    stamp_period,
    verify,
    verify_many,
    verify_stamp_chain,
)
from oracles import sha256_pure, sha256d_pure

# FIPS 180-4 published vectors (single SHA-256)
SHA256_EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
SHA256_ABC = "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"

# Double-hash values, frozen after computing them with the pure oracle
SHA256D_EMPTY = "5df6e0e2761359d30a8275058e299fcc0381534545f55cf43e41983f5d4c9456"
SHA256D_ABC = "4f8b42c22dd3729b519ba6f68d2da7cc5b2d606d05daed5ad5128cc03e6c6358"

SEED1 = bytes(range(32))
SEED2 = bytes(range(32, 64))


class TestSha256d:
    def test_oracle_matches_published_single_hash_vectors(self):
        assert sha256_pure(b"").hex() == SHA256_EMPTY
        assert sha256_pure(b"abc").hex() == SHA256_ABC

    def test_frozen_double_hash_vectors(self):
        assert sha256d(b"").hex() == SHA256D_EMPTY
        assert sha256d(b"abc").hex() == SHA256D_ABC

    def test_matches_independent_implementation(self):
        inputs = [b"", b"abc", b"a" * 64, b"\x00" * 100]
        for i in range(16):
            inputs.append(f"vector-{i}".encode() * (i + 1))
        assert len(inputs) == 20
        for data in inputs:
            assert sha256d(data) == sha256d_pure(data)

    def test_digest_is_32_bytes(self):
        for data in (b"", b"x", b"y" * 1000):
            assert len(sha256d(data)) == 32

    def test_single_bit_avalanche(self):
        a = sha256d(b"treasury")
        b = sha256d(b"treasurz")
        assert a != b


class TestCanonicalJson:
    def test_keys_sorted_minimal_whitespace(self):
        assert canonical_json({"b": 1, "a": [2, {"d": 3, "c": 4}]}) == (
            b'{"a":[2,{"c":4,"d":3}],"b":1}'
        )

    def test_utf8_not_escaped(self):
        assert canonical_json({"name": "Müller"}) == '{"name":"Müller"}'.encode("utf-8")

    def test_stable_across_key_insertion_order(self):
        assert canonical_json({"x": 1, "y": 2}) == canonical_json({"y": 2, "x": 1})

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_nan_and_infinity_have_no_canonical_form(self, value):
        with pytest.raises(ValueError):
            canonical_json({"a": [1, value]})


def _items(n: int) -> list[bytes]:
    return [f"item-{c}".encode() for c in "abcdefghijkl"[:n]]


def _leaves(n: int) -> list[bytes]:
    return [sha256d(item) for item in _items(n)]


def _brute_root(leaves: list[bytes]) -> bytes:
    # Oracle: same pairing rule, written as an independent recursion.
    if len(leaves) == 1:
        return leaves[0]
    if len(leaves) % 2:
        leaves = leaves + [leaves[-1]]
    return _brute_root(
        [sha256d(leaves[i] + leaves[i + 1]) for i in range(0, len(leaves), 2)]
    )


class TestMerkle:
    # sha256d(sha256d(a+b) + sha256d(c+c)) over the item-a/b/c leaves,
    # expanded by hand with hashlib only.
    ROOT3 = "69a6cd6dc79654cf5cf239c5ee4ff8c297afced0e8ade78298182feaa4333873"
    ROOT4 = "a9671b3a5509e4b67fb159a86d16ff5471c1163a2851a6110f66cb60ba9a7aef"

    def test_single_leaf_is_its_own_root(self):
        leaf = sha256d(b"solo")
        assert merkle_root([leaf]) == leaf

    def test_two_leaves(self):
        a, b = _leaves(2)
        assert merkle_root([a, b]) == sha256d(a + b)

    def test_three_leaf_duplication_rule_frozen(self):
        a, b, c = _leaves(3)
        assert merkle_root([a, b, c]).hex() == self.ROOT3
        assert merkle_root([a, b, c]) == sha256d(sha256d(a + b) + sha256d(c + c))

    def test_four_leaves_frozen(self):
        assert merkle_root(_leaves(4)).hex() == self.ROOT4

    def test_empty_rejected(self):
        with pytest.raises(EmptyLeaves):
            merkle_root([])
        with pytest.raises(EmptyLeaves):
            merkle_prove([], 0)

    def test_bad_leaf_length_rejected(self):
        with pytest.raises(crypto.CryptoError):
            merkle_root([b"short"])

    def test_matches_brute_force_recursion(self):
        for n in range(1, 13):
            assert merkle_root(_leaves(n)) == _brute_root(_leaves(n))

    def test_proofs_verify_for_every_index(self):
        for n in range(1, 13):
            leaves = _leaves(n)
            root = merkle_root(leaves)
            for i in range(n):
                proof = merkle_prove(leaves, i)
                assert merkle_verify(root, leaves[i], proof)
                assert len(proof.path) == (0 if n == 1 else math.ceil(math.log2(n)))

    def test_tampered_leaf_fails(self):
        leaves = _leaves(5)
        root = merkle_root(leaves)
        proof = merkle_prove(leaves, 2)
        assert not merkle_verify(root, sha256d(b"tampered"), proof)

    def test_wrong_index_proof_fails(self):
        leaves = _leaves(6)
        root = merkle_root(leaves)
        assert not merkle_verify(root, leaves[0], merkle_prove(leaves, 1))

    def test_bad_index(self):
        with pytest.raises(BadIndex):
            merkle_prove(_leaves(3), 3)
        with pytest.raises(BadIndex):
            merkle_prove(_leaves(3), -1)

    def test_garbage_proof_returns_false(self):
        leaves = _leaves(2)
        root = merkle_root(leaves)
        bad_side = MerkleProof(0, ((leaves[1], "sideways"),))
        assert merkle_verify(root, leaves[0], bad_side) is False
        bad_sibling = MerkleProof(0, ((b"short", "right"),))
        assert merkle_verify(root, leaves[0], bad_sibling) is False


class TestSignatures:
    def test_keygen_deterministic(self):
        assert keygen(SEED1) == keygen(SEED1)
        assert keygen(SEED1).public != keygen(SEED2).public

    def test_key_and_signature_lengths(self):
        kp = keygen(SEED1)
        assert len(kp.public) == 32
        assert len(sign(kp.secret, b"msg")) == 64

    def test_sign_verify_roundtrip(self):
        kp = keygen(SEED1)
        sig = sign(kp.secret, b"payment instruction")
        assert verify(kp.public, b"payment instruction", sig)

    def test_signing_is_deterministic(self):
        kp = keygen(SEED1)
        assert sign(kp.secret, b"m") == sign(kp.secret, b"m")

    def test_wrong_message_fails(self):
        kp = keygen(SEED1)
        assert not verify(kp.public, b"other", sign(kp.secret, b"m"))

    def test_wrong_key_fails(self):
        assert not verify(keygen(SEED2).public, b"m", sign(SEED1, b"m"))

    def test_malformed_inputs_return_false(self):
        kp = keygen(SEED1)
        sig = sign(kp.secret, b"m")
        assert verify(b"not-a-key", b"m", sig) is False
        assert verify(kp.public, b"m", b"short") is False
        assert verify(b"", b"m", b"") is False

    def test_bad_seed_length(self):
        with pytest.raises(BadSeed):
            keygen(b"\x01" * 31)
        with pytest.raises(BadSeed):
            sign(b"\x01" * 33, b"m")


def _mixed_triples(n: int) -> list[tuple]:
    """Valid, invalid and malformed (public, message, signature) triples."""
    kp, other = keygen(SEED1), keygen(SEED2)
    out = []
    for i in range(n):
        msg = b"message %d" % i
        sig = sign(kp.secret, msg)
        out.append(
            [
                (kp.public, msg, sig),
                (kp.public, msg + b"!", sig),  # another message
                (other.public, msg, sig),  # another key
                (kp.public, msg, sig[:-1]),  # short signature
                (b"not-a-key", msg, sig),
                (None, msg, sig),  # not bytes
                (kp.public, msg, sig),
            ][i % 7]
        )
    return out


TRIPLES = _mixed_triples(2 * crypto.PARALLEL_MIN + 3)
EXPECTED = [verify(*t) for t in TRIPLES]


def _raise(exc: BaseException):
    raise exc


def _log_verifies(monkeypatch, in_child=lambda n: None) -> list[tuple]:
    """Log each triple this process verifies; before its n-th verify (from
    0), a forked child calls in_child(n)."""
    parent, seen, real = os.getpid(), [], crypto.verify

    def logged(*t):
        if os.getpid() != parent:
            in_child(len(seen))
        seen.append(t)
        return real(*t)

    monkeypatch.setattr(crypto, "verify", logged)
    return seen


class TestVerifyMany:
    """verify_many returns what verify returns, one triple at a time, on
    the inline path and on the forked path alike."""

    @pytest.mark.parametrize("n_cpus", [1, 2, 3])
    @pytest.mark.parametrize(
        "size", [0, 1, 7, crypto.PARALLEL_MIN - 1, crypto.PARALLEL_MIN, len(TRIPLES)]
    )
    def test_parity_with_verify(self, cpus, n_cpus, size):
        cpus(n_cpus)
        assert verify_many(TRIPLES[:size]) == EXPECTED[:size]

    def test_large_batch_leaves_later_shares_to_workers(self, cpus, monkeypatch):
        cpus(2)
        seen = _log_verifies(monkeypatch)
        assert verify_many(TRIPLES) == EXPECTED
        assert seen == TRIPLES[: -(-len(TRIPLES) // 2)]

    def test_share_is_inherited_not_pickled(self, cpus, monkeypatch):
        cpus(2)
        seen = _log_verifies(monkeypatch)
        items = TRIPLES[:-1] + [(TRIPLES[0][0], memoryview(TRIPLES[0][1]), TRIPLES[0][2])]
        with pytest.raises(TypeError):
            pickle.dumps(items[-1])
        assert verify_many(items) == [verify(*t) for t in items]
        assert len(seen) == -(-len(items) // 2)  # the child verified the last share

    @pytest.mark.parametrize(
        "fault",
        [
            pytest.param(lambda n: n == 9 and os.kill(os.getpid(), signal.SIGKILL), id="killed-mid-share"),
            pytest.param(lambda n: n == 9 and _raise(RuntimeError("lost")), id="raises-mid-share"),
            pytest.param(lambda n: os._exit(0), id="exits-0-without-an-answer"),
        ],
    )
    @pytest.mark.parametrize("n_cpus", [2, 3])
    def test_share_of_a_failed_child_is_verified_inline(self, cpus, monkeypatch, n_cpus, fault):
        cpus(n_cpus)
        seen = _log_verifies(monkeypatch, fault)
        assert verify_many(TRIPLES) == EXPECTED
        assert seen == TRIPLES  # the first share, then every child's share again

    def test_full_answer_of_a_child_that_exits_non_zero_is_verified_again(self, cpus, monkeypatch):
        cpus(2)
        seen = _log_verifies(monkeypatch)
        exit_ = os._exit
        monkeypatch.setattr(crypto.os, "_exit", lambda code: exit_(3))  # only a child exits
        assert verify_many(TRIPLES) == EXPECTED
        assert seen == TRIPLES

    def test_share_of_a_fork_that_raises_is_verified_inline(self, cpus, monkeypatch):
        cpus(3)
        seen = _log_verifies(monkeypatch)
        monkeypatch.setattr(crypto.os, "fork", lambda: _raise(OSError(11, "Resource temporarily unavailable")))
        assert verify_many(TRIPLES) == EXPECTED
        assert seen == TRIPLES

    def test_a_process_that_runs_threads_never_forks(self, cpus, monkeypatch):
        cpus(2)
        forks, fork = [], os.fork
        monkeypatch.setattr(crypto.os, "fork", lambda: forks.append(1) or fork())
        assert verify_many(TRIPLES) == EXPECTED
        assert forks == [1]
        stop = threading.Event()
        waiter = threading.Thread(target=stop.wait)
        waiter.start()
        try:
            assert verify_many(TRIPLES) == EXPECTED
        finally:
            stop.set()
            waiter.join()
        assert forks == [1]

    @pytest.mark.parametrize(
        "mode, printed",
        [("ok", "True"), ("child_killed", "True"), ("parent_raises", "interrupted")],
    )
    def test_no_child_is_left_after_the_call(self, mode, printed, child_env):
        # a fresh interpreter, so that no other child of the test run is counted
        code = (
            "import os, signal, sys\n"
            "from ledgerstack import crypto\n"
            "crypto.os.sched_getaffinity = lambda pid: {0, 1, 2}\n"
            "kp = crypto.keygen(bytes(32))\n"
            "items = [(kp.public, b'm', crypto.sign(kp.secret, b'm'))] * crypto.PARALLEL_MIN\n"
            "parent, real, mode = os.getpid(), crypto.verify, sys.argv[1]\n"
            "def verify(*t):\n"
            "    if mode == 'child_killed' and os.getpid() != parent:\n"
            "        os.kill(os.getpid(), signal.SIGKILL)\n"
            "    if mode == 'parent_raises' and os.getpid() == parent:\n"
            "        raise KeyboardInterrupt\n"
            "    return real(*t)\n"
            "crypto.verify = verify\n"
            "try:\n"
            "    print(crypto.verify_many(items) == [True] * len(items))\n"
            "except KeyboardInterrupt:\n"
            "    print('interrupted')\n"
            "try:\n"
            "    os.waitpid(-1, os.WNOHANG)\n"
            "except ChildProcessError:\n"
            "    print('no child')\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code, mode], capture_output=True, text=True, env=child_env, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split("\n") == [printed, "no child", ""]

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc")
    def test_a_child_ends_with_its_share_when_its_parent_is_killed(self, child_env):
        # the child announces itself, then takes about 1.3 s over its share
        code = (
            "import os, time\n"
            "from ledgerstack import crypto\n"
            "crypto.os.sched_getaffinity = lambda pid: {0, 1}\n"
            "kp = crypto.keygen(bytes(32))\n"
            "parent, real, announced = os.getpid(), crypto.verify, []\n"
            "def verify(*t):\n"
            "    if os.getpid() != parent:\n"
            "        if not announced:\n"
            "            announced.append(print(os.getpid(), flush=True))\n"
            "        time.sleep(0.01)\n"
            "    return real(*t)\n"
            "crypto.verify = verify\n"
            "crypto.verify_many([(kp.public, b'm', crypto.sign(kp.secret, b'm'))] * crypto.PARALLEL_MIN)\n"
        )
        def running(pid: int) -> bool:
            try:
                with open(f"/proc/{pid}/stat") as fh:
                    return fh.read().rsplit(") ", 1)[1][0] != "Z"
            except FileNotFoundError:
                return False

        parent = subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE, text=True, env=child_env)
        with parent.stdout:
            child = int(parent.stdout.readline())
            parent.kill()  # mid-batch: no handler of its own runs
            parent.wait(timeout=60)
        try:
            assert running(child)
            deadline = time.monotonic() + 30
            while running(child) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not running(child)
        finally:
            if running(child):
                os.kill(child, signal.SIGKILL)


class TestPeriodStamp:
    # sha256d(sha256d(b"period-item-0") + zero32), expanded by hand.
    STAMP0 = "30e9f6b60ba776ebeb30794a48b17ebfe93998720a090be091a04d01a787be15"

    def test_genesis_single_item_frozen(self):
        st = stamp_period([b"period-item-0"], None, wall_time=100)
        assert st.period_index == 0
        assert st.items_root == sha256d(b"period-item-0")
        assert st.stamp.hex() == self.STAMP0
        assert st.stamp == sha256d(st.items_root + ZERO32)

    def test_index_increments(self):
        s0 = stamp_period([b"x"], None, 10)
        s1 = stamp_period([b"y"], s0, 20)
        s2 = stamp_period([b"z"], s1, 20)
        assert (s0.period_index, s1.period_index, s2.period_index) == (0, 1, 2)
        assert s1.stamp == sha256d(s1.items_root + s0.stamp)

    def test_chain_of_three_reverifies_from_items(self):
        batches = [[b"a", b"b"], [b"c"], [b"d", b"e", b"f"]]
        stamps = []
        prev = None
        for i, items in enumerate(batches):
            prev = stamp_period(items, prev, wall_time=1000 + i)
            stamps.append(prev)
        assert verify_stamp_chain(stamps, batches)

    def test_tampered_item_fails_reverification(self):
        batches = [[b"a"], [b"b"]]
        s0 = stamp_period(batches[0], None, 1)
        s1 = stamp_period(batches[1], s0, 2)
        assert not verify_stamp_chain([s0, s1], [[b"a"], [b"B"]])

    def test_item_order_matters(self):
        assert stamp_period([b"a", b"b"], None, 1) != stamp_period([b"b", b"a"], None, 1)

    def test_clock_regression(self):
        s0 = stamp_period([b"a"], None, 100)
        with pytest.raises(ClockRegression):
            stamp_period([b"b"], s0, 99)
        # equal wall_time is allowed
        assert stamp_period([b"b"], s0, 100).wall_time == 100

    def test_empty_period_rejected(self):
        with pytest.raises(EmptyLeaves):
            stamp_period([], None, 1)
