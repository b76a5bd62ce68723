"""Hashing, Merkle and signature unit tests.

Frozen hex literals were computed from independent hand expansions (see
oracles.py and the inline expansions below), never from the code under test.
"""

from __future__ import annotations

import math

import pytest

from ledgerstack import crypto
from ledgerstack.crypto import (
    BadIndex,
    BadSeed,
    EmptyLeaves,
    MerkleProof,
    ProofResult,
    canonical_json,
    keygen,
    merkle_prove,
    merkle_root,
    merkle_verify,
    sha256d,
    sign,
    verify,
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
                assert merkle_verify(root, leaves[i], proof, n) == ProofResult(True)
                assert len(proof.path) == (0 if n == 1 else math.ceil(math.log2(n)))

    def test_tampered_leaf_fails_at_the_root(self):
        leaves = _leaves(5)
        root = merkle_root(leaves)
        proof = merkle_prove(leaves, 2)
        assert merkle_verify(root, sha256d(b"tampered"), proof, 5) == ProofResult(False, 3, "root_mismatch")

    def test_wrong_index_proof_fails(self):
        leaves = _leaves(6)
        root = merkle_root(leaves)
        assert merkle_verify(root, leaves[0], merkle_prove(leaves, 1), 6) == ProofResult(False, 3, "root_mismatch")

    def test_bad_index(self):
        with pytest.raises(BadIndex):
            merkle_prove(_leaves(3), 3)
        with pytest.raises(BadIndex):
            merkle_prove(_leaves(3), -1)

    def test_garbage_step_names_its_level(self):
        leaves = _leaves(2)
        root = merkle_root(leaves)
        bad_side = MerkleProof(0, ((leaves[1], "sideways"),))
        assert merkle_verify(root, leaves[0], bad_side, 2) == ProofResult(False, 0, "wrong_side")
        bad_sibling = MerkleProof(0, ((b"short", "right"),))
        assert merkle_verify(root, leaves[0], bad_sibling, 2) == ProofResult(False, 0, "malformed_step")
        assert merkle_verify(root, b"short", merkle_prove(leaves, 0), 2) == ProofResult(False, 0, "malformed_leaf")

    def test_interior_node_does_not_prove_as_a_leaf(self):
        leaves = _leaves(4)
        root = merkle_root(leaves)
        pair = sha256d(leaves[0] + leaves[1])
        shortened = MerkleProof(0, merkle_prove(leaves, 0).path[1:])
        assert merkle_verify(root, pair, shortened, 4) == ProofResult(False, None, "path_length_mismatch")

    def test_relabelled_index_fails(self):
        leaves = _leaves(4)
        root = merkle_root(leaves)
        proof = merkle_prove(leaves, 0)
        assert merkle_verify(root, leaves[0], MerkleProof(3, proof.path), 4) == ProofResult(False, 0, "wrong_side")

    def test_malformed_proof_is_a_result_not_a_raise(self):
        leaves = _leaves(4)
        root = merkle_root(leaves)
        path = merkle_prove(leaves, 0).path
        for bad, level, reason in (
            (MerkleProof(0, ((leaves[1],),) + path[1:]), 0, "malformed_step"),  # a step that is not a pair
            (MerkleProof(0, path[:1] + (None,)), 1, "malformed_step"),
            (MerkleProof(0, None), None, "malformed_proof"),
            (MerkleProof(0, (None, None)), 0, "malformed_step"),
            (MerkleProof(None, path), None, "bad_index"),
            (MerkleProof("0", path), None, "bad_index"),
            (MerkleProof(True, path), None, "bad_index"),
            (None, None, "malformed_proof"),
        ):
            assert merkle_verify(root, leaves[0], bad, 4) == ProofResult(False, level, reason)

    def test_size_is_the_callers(self):
        leaves = _leaves(4)
        root = merkle_root(leaves)
        proof = merkle_prove(leaves, 0)
        for size in (1, 2, 5):
            assert merkle_verify(root, leaves[0], proof, size) == ProofResult(False, None, "path_length_mismatch")
        for size in (0, -4, None, "4", True, 4.0):
            assert merkle_verify(root, leaves[0], proof, size) == ProofResult(False, None, "bad_size")
        # [a, b, c, c] has the root of [a, b, c]: index 3 lies past a tree of 3
        a, b, c = _leaves(3)
        padded = merkle_prove([a, b, c, c], 3)
        assert merkle_verify(merkle_root([a, b, c]), c, padded, 3) == ProofResult(False, None, "bad_index")
        assert merkle_verify(merkle_root([a, b, c]), c, merkle_prove([a, b, c], 2), 3) == ProofResult(True)

    def test_side_must_match_the_index_bits(self):
        leaves = _leaves(5)
        root = merkle_root(leaves)
        proof = merkle_prove(leaves, 4)
        # the padded sibling of the odd last node sits on the right
        assert [side for _, side in proof.path] == [crypto.RIGHT, crypto.RIGHT, crypto.LEFT]
        flipped = ((proof.path[0][0], crypto.LEFT),) + proof.path[1:]
        assert merkle_verify(root, leaves[4], MerkleProof(4, flipped), 5) == ProofResult(False, 0, "wrong_side")
        assert merkle_verify(root, leaves[4], proof, 5) == ProofResult(True)

    @pytest.mark.parametrize("level", [0, 1, 2, 3])
    def test_a_bad_step_is_reported_at_its_level(self, level):
        leaves = _leaves(11)
        root = merkle_root(leaves)
        proof = merkle_prove(leaves, 6)
        sibling, side = proof.path[level]
        other = crypto.LEFT if side == crypto.RIGHT else crypto.RIGHT
        for step, reason in (((sibling, other), "wrong_side"), ((sibling[:31], side), "malformed_step")):
            path = proof.path[:level] + (step,) + proof.path[level + 1 :]
            assert merkle_verify(root, leaves[6], MerkleProof(6, path), 11) == ProofResult(False, level, reason)
        # a wrong sibling hash shows only where the path meets the root
        path = proof.path[:level] + ((sha256d(sibling), side),) + proof.path[level + 1 :]
        assert merkle_verify(root, leaves[6], MerkleProof(6, path), 11) == ProofResult(False, 4, "root_mismatch")

    def test_the_result_is_not_a_bool(self):
        # a result has no truth value of its own: callers read .valid
        leaves = _leaves(2)
        result = merkle_verify(merkle_root(leaves), leaves[0], merkle_prove(leaves, 0), 2)
        assert result.valid is True and result.reason is None
        assert "__bool__" not in vars(ProofResult)


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

    @pytest.mark.parametrize(
        "bend, expected",
        [
            (lambda pk, m, sig: (pk, memoryview(m), sig), True),
            (lambda pk, m, sig: (pk, m, bytearray(sig)), True),
            (lambda pk, m, sig: (pk, m, bytes([sig[0] ^ 1]) + sig[1:]), False),
            (lambda pk, m, sig: (pk, m, sig + b"\x00"), False),
            (lambda pk, m, sig: (None, m, sig), False),
            (lambda pk, m, sig: (pk, None, sig), False),
            (lambda pk, m, sig: (pk, m, None), False),
            (lambda pk, m, sig: (pk, m.decode(), sig), False),
            (lambda pk, m, sig: (pk, m, 5), False),
            (lambda pk, m, sig: (pk, m, sig.hex()), False),
        ],
        ids=[
            "memoryview-message",
            "bytearray-signature",
            "flipped-bit",
            "long-signature",
            "none-key",
            "none-message",
            "none-signature",
            "text-message",
            "int-signature",
            "hex-signature",
        ],
    )
    def test_each_input_kind_answers_a_bool(self, bend, expected):
        # a chain walk hands every signature to verify: none of these may raise
        kp = keygen(SEED1)
        assert verify(*bend(kp.public, b"m", sign(kp.secret, b"m"))) is expected

    def test_bad_seed_length(self):
        with pytest.raises(BadSeed):
            keygen(b"\x01" * 31)
        with pytest.raises(BadSeed):
            sign(b"\x01" * 33, b"m")

