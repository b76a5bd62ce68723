"""Integrity enforcement tests: one test class per enforcement rule, plus
level checks and audit chain verification."""

from __future__ import annotations

import hashlib
import random
from dataclasses import replace

import pytest
from oracles import triple_match_oracle

from ledgerstack import integrity as ig
from ledgerstack.crypto import canonical_json
from ledgerstack.integrity import (
    ALLOWED,
    CDI,
    DENIED,
    UDI,
    AlreadyConstrained,
    AuditRecord,
    DataItem,
    PolicyState,
    SeparationOfDuty,
    Subject,
    Triple,
    UnknownEntity,
    audit_verify,
    biba_check,
    load_policy,
)


def audit_jsonl(records) -> str:
    """One canonical JSON line per audit record, hashes in hex."""
    return "".join(
        canonical_json({**vars(r), "prev_hash": r.prev_hash.hex(), "record_hash": r.record_hash.hex()}).decode()
        + "\n"
        for r in records
    )


def triples(st: PolicyState) -> frozenset[Triple]:
    """Every certified triple the policy grants."""
    return frozenset(Triple(*key, cdis) for key, sets in st._grants.items() for cdis in sets)


def base_state() -> PolicyState:
    """Certifier carol certifies the TPs; alice and bob execute them."""
    st = PolicyState()
    st.register_subject(Subject("alice", biba_level=2))
    st.register_subject(Subject("bob", biba_level=1))
    st.register_subject(Subject("carol", biba_level=2))          # certifier
    st.register_subject(Subject("root", biba_level=2, privileged=True))
    st.register_item(DataItem("acct", CDI, biba_level=1, value=b"100"))
    st.register_item(DataItem("acct2", CDI, biba_level=1, value=b"50"))
    st.register_item(DataItem("high", CDI, biba_level=2, value=b"0"))
    st.register_item(DataItem("raw", UDI, biba_level=1, value=b" 42 "))
    st.register_tp("credit", ig.tp_credit, certified_by="carol")
    st.register_tp("debit", ig.tp_debit, certified_by="carol")
    st.register_tp("sanitize", ig.tp_sanitize_int, certified_by="carol")
    st.register_ivp("acct", ig.ivp_non_negative_int)
    st.register_ivp("acct2", ig.ivp_non_negative_int)
    st.register_ivp("raw", ig.ivp_non_negative_int)
    st.add_triple(Triple.of("alice", "credit", {"acct", "acct2"}))
    st.add_triple(Triple.of("alice", "debit", {"acct"}))
    st.add_triple(Triple.of("alice", "sanitize", {"raw"}))
    return st


class TestBibaCheck:
    def test_read_requires_object_at_or_above_subject(self):
        assert biba_check(1, 2, "read") is True   # read up: fine
        assert biba_check(1, 1, "read") is True
        assert biba_check(2, 1, "read") is False  # no read down

    def test_write_requires_object_at_or_below_subject(self):
        assert biba_check(2, 1, "write") is True
        assert biba_check(1, 1, "write") is True
        assert biba_check(1, 2, "write") is False  # no write up

    def test_invoke_requires_object_at_or_below_subject(self):
        assert biba_check(2, 1, "invoke") is True
        assert biba_check(1, 1, "invoke") is True
        assert biba_check(1, 2, "invoke") is False

    def test_unknown_action(self):
        with pytest.raises(ValueError):
            biba_check(1, 1, "delete")


class TestRule1CdisChangeOnlyThroughTps:
    def test_tp_updates_value(self):
        st = base_state()
        res = st.execute_tp("alice", "credit", ["acct"], {"amount": 25})
        assert res.allowed and res.values == {"acct": b"125"}
        assert st.get_item("acct").value == b"125"

    def test_failed_ivp_rolls_back(self):
        st = base_state()
        res = st.execute_tp("alice", "debit", ["acct"], {"amount": 500})
        assert not res.allowed and res.reason == "ivp_failed:acct"
        assert st.get_item("acct").value == b"100"
        assert res.record.outcome == DENIED

    def test_returned_item_is_a_copy(self):
        st = base_state()
        view = st.get_item("acct")
        view.value = b"999999"
        assert st.get_item("acct").value == b"100"

    def test_tp_crash_is_denial_not_corruption(self):
        st = base_state()
        res = st.execute_tp("alice", "credit", ["acct"], {})  # missing amount
        assert not res.allowed and res.reason.startswith("tp_failed")
        assert st.get_item("acct").value == b"100"

    @pytest.mark.parametrize("tp", ["credit", "sanitize"])
    def test_udi_target_denied(self, tp):
        # alice holds a triple over "raw" for both TPs: credit granted here,
        # sanitize as its promotion triple; neither lets execute_tp write it
        st = base_state()
        st.add_triple(Triple.of("alice", "credit", {"raw"}))
        res = st.execute_tp("alice", tp, ["raw"], {"amount": 1})
        assert not res.allowed and res.reason == "not_constrained:raw"
        assert st.get_item("raw") == DataItem("raw", UDI, biba_level=1, value=b" 42 ")
        assert (res.record.action, res.record.detail) == (f"execute_tp:{tp}", "not_constrained:raw")


class TestRule2TriplesAndSeparationOfDuty:
    def test_unauthorized_subject_denied(self):
        st = base_state()
        res = st.execute_tp("bob", "credit", ["acct"], {"amount": 1})
        assert not res.allowed and res.reason == "no_matching_triple"
        assert st.get_item("acct").value == b"100"

    def test_subset_of_granted_cdis_allowed(self):
        st = base_state()
        res = st.execute_tp("alice", "credit", ["acct2"], {"amount": 1})
        assert res.allowed

    def test_cdis_outside_grant_denied(self):
        st = base_state()
        res = st.execute_tp("alice", "debit", ["acct", "acct2"], {"amount": 1})
        assert not res.allowed and res.reason == "no_matching_triple"

    def test_certifier_cannot_be_granted_execution(self):
        st = base_state()
        with pytest.raises(SeparationOfDuty):
            st.alter_authorization("root", Triple.of("carol", "credit", {"acct"}), "grant")
        # the denial was audited with the admin attributed
        last = st.audit.records[-1]
        assert last.outcome == DENIED and last.actor == "root"
        assert "separation_of_duty" in last.detail

    def test_bootstrap_grants_also_enforce_sod(self):
        st = base_state()
        with pytest.raises(SeparationOfDuty):
            st.add_triple(Triple.of("carol", "debit", {"acct"}))


class TestRule3Authentication:
    def test_unknown_subject_raises_and_audit_has_no_attribution(self):
        st = base_state()
        with pytest.raises(UnknownEntity):
            st.execute_tp("mallory", "credit", ["acct"], {"amount": 1})
        last = st.audit.records[-1]
        assert last.actor == ""
        assert last.outcome == DENIED
        assert "unknown_subject:mallory" in last.detail

    def test_unknown_tp_and_item_audited_without_attribution(self):
        st = base_state()
        with pytest.raises(UnknownEntity):
            st.execute_tp("alice", "nope", ["acct"], {})
        with pytest.raises(UnknownEntity):
            st.execute_tp("alice", "credit", ["ghost"], {})
        for record in st.audit.records[-2:]:
            assert record.actor == "" and record.outcome == DENIED

    @pytest.mark.parametrize(
        "call, action, detail",
        [
            (("t\ud800", "credit", ["acct"]), "execute_tp:credit", "unknown_subject:t\\ud800"),
            (("alice", "c\ud800", ["acct"]), "execute_tp:c\\ud800", "unknown_tp:c\\ud800"),
            (("alice", "credit", ["a\ud800"]), "execute_tp:credit", "unknown_item:a\\ud800"),
        ],
    )
    def test_unknown_id_that_is_not_utf8_is_audited(self, call, action, detail):
        # before: hashing the refusal's record raised UnicodeEncodeError, unaudited
        st = base_state()
        with pytest.raises(UnknownEntity):
            st.execute_tp(*call, {"amount": 1})
        last = st.audit.records[-1]
        assert (last.actor, last.action, last.outcome, last.detail) == ("", action, DENIED, detail)
        assert audit_verify(st.audit.records).valid

    def test_every_audited_actor_is_registered(self):
        st = base_state()
        st.execute_tp("alice", "credit", ["acct"], {"amount": 5})
        st.execute_tp("bob", "credit", ["acct"], {"amount": 5})
        with pytest.raises(UnknownEntity):
            st.execute_tp("eve", "credit", ["acct"], {"amount": 5})
        for record in st.audit.records:
            if record.actor:
                assert record.actor in st._subjects


class TestRule4AuditEverything:
    def test_each_guarded_call_appends_exactly_one_record(self):
        st = base_state()
        n0 = len(st.audit)
        st.execute_tp("alice", "credit", ["acct"], {"amount": 1})      # allowed
        st.execute_tp("bob", "credit", ["acct"], {"amount": 1})        # denied
        with pytest.raises(UnknownEntity):
            st.execute_tp("eve", "credit", ["acct"], {"amount": 1})    # error
        st.promote_udi("alice", "sanitize", "raw")                     # allowed
        st.alter_authorization("root", Triple.of("bob", "credit", {"acct"}), "grant")
        assert len(st.audit) == n0 + 5

    def test_log_exposes_no_mutation_surface(self):
        st = base_state()
        st.execute_tp("alice", "credit", ["acct"], {"amount": 1})
        records = st.audit.records
        assert isinstance(records, tuple)  # snapshot, not the live list
        assert not hasattr(st.audit, "remove")
        assert not hasattr(st.audit, "pop")

    def test_denied_outcomes_are_recorded(self):
        st = base_state()
        res = st.execute_tp("bob", "credit", ["acct"], {"amount": 1})
        assert res.record.outcome == DENIED
        assert st.audit.records[-1] == res.record

    def test_jsonl_line_bytes_frozen_on_escapes(self):
        # non-ASCII text, quotes, backslashes and control characters; frozen
        # from the json.dumps line writer that canonical_json replaced
        log = ig.AuditLog()
        log.append("\u00e9ve", 'act"ion', ALLOWED, 'caf\u00e9 \u4e2d "q" \\ a\\b \x00\x01\x1f\x7f \u2028 \U0001f600 \t\n/')
        assert audit_jsonl(log.records) == (
            '{"action":"act\\"ion","actor":"\u00e9ve",'
            '"detail":"caf\u00e9 \u4e2d \\"q\\" \\\\ a\\\\b \\u0000\\u0001\\u001f\x7f \u2028 \U0001f600 \\t\\n/",'
            '"outcome":"allowed","prev_hash":"' + "00" * 32 + '",'
            '"record_hash":"9a018fcb851a3808de39b9525b6c97070637faff9160e3935dbfc2bb75dccfca","seq":0}\n'
        )


class TestRule5Promotion:
    def test_udi_promoted_via_tp(self):
        st = base_state()
        res = st.promote_udi("alice", "sanitize", "raw")
        assert res.allowed
        item = st.get_item("raw")
        assert item.item_class == CDI and item.value == b"42"

    def test_promoting_a_cdi_raises(self):
        st = base_state()
        st.promote_udi("alice", "sanitize", "raw")
        with pytest.raises(AlreadyConstrained):
            st.promote_udi("alice", "sanitize", "raw")
        assert st.audit.records[-1].outcome == DENIED

    def test_failed_sanitization_leaves_udi(self):
        st = base_state()
        st.register_item(DataItem("junk", UDI, biba_level=1, value=b"not a number"))
        st.add_triple(Triple.of("alice", "sanitize", {"junk"}))
        res = st.promote_udi("alice", "sanitize", "junk")
        assert not res.allowed and res.reason.startswith("tp_failed")
        assert st.get_item("junk").item_class == UDI
        assert st.get_item("junk").value == b"not a number"

    def test_failed_ivp_leaves_udi(self):
        st = base_state()
        st.register_item(DataItem("neg", UDI, biba_level=1, value=b"-7"))
        st.register_ivp("neg", ig.ivp_non_negative_int)
        st.add_triple(Triple.of("alice", "sanitize", {"neg"}))
        res = st.promote_udi("alice", "sanitize", "neg")
        assert not res.allowed and res.reason == "ivp_failed:neg"
        assert st.get_item("neg").item_class == UDI

    def test_promotion_needs_a_triple(self):
        st = base_state()
        res = st.promote_udi("bob", "sanitize", "raw")
        assert not res.allowed and res.reason == "no_matching_triple"

    # a promotion must return a value for exactly its target: not nothing,
    # and not another item besides
    @pytest.mark.parametrize("result", [None, ["raw"], 5, {}, {"raw": b"42", "acct": b"1"}])
    def test_non_dict_tp_result_is_denied(self, result):
        st = base_state()
        st.register_tp("odd", lambda values, args: result, certified_by="carol")
        st.add_triple(Triple.of("alice", "odd", {"raw"}))
        res = st.promote_udi("alice", "odd", "raw")
        assert not res.allowed and res.reason == "tp_scope_violation"
        assert st.get_item("raw") == DataItem("raw", UDI, biba_level=1, value=b" 42 ")
        assert (res.record.outcome, res.record.detail) == (DENIED, "tp_scope_violation")


class TestRule6PrivilegedAuthorization:
    def test_non_privileged_denied_and_audited(self):
        st = base_state()
        res = st.alter_authorization("alice", Triple.of("bob", "credit", {"acct"}), "grant")
        assert not res.allowed and res.reason == "not_privileged"
        assert st.audit.records[-1].outcome == DENIED
        # grant did not happen
        denied = st.execute_tp("bob", "credit", ["acct"], {"amount": 1})
        assert not denied.allowed

    def test_privileged_grant_then_execution(self):
        st = base_state()
        st.alter_authorization("root", Triple.of("bob", "credit", {"acct"}), "grant")
        res = st.execute_tp("bob", "credit", ["acct"], {"amount": 10})
        assert res.allowed and st.get_item("acct").value == b"110"

    def test_revoke_removes_authorization(self):
        st = base_state()
        triple = Triple.of("bob", "credit", {"acct"})
        st.alter_authorization("root", triple, "grant")
        st.alter_authorization("root", triple, "revoke")
        assert not st.execute_tp("bob", "credit", ["acct"], {"amount": 1}).allowed

    def test_revoke_of_missing_triple_denied(self):
        st = base_state()
        res = st.alter_authorization("root", Triple.of("bob", "debit", {"acct2"}), "revoke")
        assert not res.allowed and res.reason == "no_such_triple"

    def test_unknown_admin(self):
        st = base_state()
        with pytest.raises(UnknownEntity):
            st.alter_authorization("ghost", Triple.of("bob", "credit", {"acct"}), "grant")
        assert st.audit.records[-1].actor == ""


class TestLevelEnforcementInTps:
    def test_write_up_denied(self):
        st = base_state()
        st.add_triple(Triple.of("bob", "credit", {"high"}))  # bob level 1, item 2
        res = st.execute_tp("bob", "credit", ["high"], {"amount": 1})
        assert not res.allowed and res.reason == "level_write_denied:high"
        assert st.get_item("high").value == b"0"

    def test_write_down_and_level_allowed(self):
        st = base_state()
        res = st.execute_tp("alice", "credit", ["acct"], {"amount": 1})  # 2 -> 1
        assert res.allowed


class TestAuditVerify:
    def fill(self, n: int = 6) -> PolicyState:
        st = base_state()
        for i in range(n):
            st.execute_tp("alice", "credit", ["acct"], {"amount": i + 1})
        return st

    def test_clean_log_verifies(self):
        st = self.fill()
        assert audit_verify(st.audit.records) == ig.AuditResult(True)

    def test_mutated_record_detected_at_its_seq(self):
        st = self.fill()
        records = list(st.audit.records)
        victim = records[2]
        records[2] = AuditRecord(
            victim.seq, victim.actor, victim.action, victim.outcome,
            victim.detail + "x", victim.prev_hash, victim.record_hash,
        )
        assert audit_verify(records) == ig.AuditResult(False, 2, "hash_mismatch")

    def test_deleted_record_detected_at_its_position(self):
        st = self.fill()
        records = list(st.audit.records)
        del records[3]
        assert audit_verify(records) == ig.AuditResult(False, 3, "seq_gap")

    def test_rehashed_forgery_breaks_the_next_link(self):
        st = self.fill()
        records = list(st.audit.records)
        r = records[2]
        forged_hash = ig._record_hash(r.seq, "bob", r.action, r.outcome, r.detail, r.prev_hash)
        records[2] = replace(r, actor="bob", record_hash=forged_hash)
        assert audit_verify(records) == ig.AuditResult(False, 3, "link_broken")

    def test_outcome_flip_detected(self):
        st = base_state()
        st.execute_tp("bob", "credit", ["acct"], {"amount": 1})  # denied
        records = list(st.audit.records)
        r = records[-1]
        records[-1] = AuditRecord(
            r.seq, r.actor, r.action, ALLOWED, r.detail, r.prev_hash, r.record_hash
        )
        assert audit_verify(records) == ig.AuditResult(False, r.seq, "hash_mismatch")

    def test_empty_log_is_valid(self):
        assert audit_verify([]).valid


class TestAuditFieldTypes:
    """append refuses non-text fields; audit_verify reports a badly typed
    record at its position as bad_field and never raises."""

    @pytest.mark.parametrize(
        "actor, action, detail",
        [(5, "x", "d"), ("a", 5, "d"), ("a", "x", b"d"), (None, "x", "d"), ("a", "x", 1.5)],
    )
    def test_append_rejects_non_text(self, actor, action, detail):
        log = ig.AuditLog()
        with pytest.raises(ig.IntegrityError):
            log.append(actor, action, ALLOWED, detail)
        assert len(log) == 0

    @pytest.mark.parametrize(
        "changes",
        [
            {"actor": b"a"},
            {"action": None},
            {"outcome": 1},
            {"detail": ["d"]},
            {"seq": True},
            {"seq": 2.0},
            {"seq": "2"},
            {"prev_hash": b"\x00" * 31},
            {"prev_hash": "00" * 32},
            {"record_hash": bytearray(32)},
            {"record_hash": None},
            {"actor": "lone \ud800 surrogate"},
        ],
    )
    def test_verify_reports_bad_field_at_its_position(self, changes):
        st = TestAuditVerify().fill()
        records = list(st.audit.records)
        records[2] = replace(records[2], **changes)
        assert audit_verify(records) == ig.AuditResult(False, 2, "bad_field")

    def test_bool_seq_would_splice_as_one(self):
        # why the gate matters: canonical_json writes True as true, a spliced
        # int repr would write 1, so a bool seq never reaches the hash
        assert int.__repr__(True) == "1" and canonical_json(True) == b"true"
        log = ig.AuditLog()
        log.append("a", "x", ALLOWED, "d")
        log.append("a", "x", ALLOWED, "d")
        records = list(log.records)
        records[1] = replace(records[1], seq=True)
        assert audit_verify(records) == ig.AuditResult(False, 1, "bad_field")


# Characters that json escapes or passes through in interesting ways:
# quotes, backslashes, C0 controls, DEL, NEL, line and paragraph separators,
# non-ASCII in and beyond the basic plane.
_TEXT_ALPHABET = (
    'abcXYZ019 -_:|,/"\\'
    + "".join(map(chr, range(0x20)))
    + "\x7f\x85\xa0\u00e9\u2028\u2029\u4e2d\ufeff\U0001f600"
)


def _random_text(rng: random.Random) -> str:
    return "".join(rng.choice(_TEXT_ALPHABET) for _ in range(rng.randrange(0, 12)))


STREAM_TELLERS = ("alice", "zo\u00eb", 'q"uote', "back\\slash", "ctl\x01", "sep\u2028", "nel\x85", "\u4e2d")


def seeded_policy_stream(n: int, seed: int = 0x5EED) -> PolicyState:
    """A policy under n seeded guarded actions: executes, grants and
    revokes (by privileged and unprivileged admins, of triples that may
    never have been granted) and promotions, allowed and denied."""
    rng = random.Random(seed)
    st = PolicyState()
    st.register_subject(Subject("cert", biba_level=3))
    for admin in ("root", "r\u00f4ot"):
        st.register_subject(Subject(admin, biba_level=3, privileged=True))
    for teller in STREAM_TELLERS:
        st.register_subject(Subject(teller, biba_level=rng.choice((1, 2))))
    accts = [f"acct{i:02d}" for i in range(12)]
    raws = [f"raw{i}" for i in range(6)]
    for a in accts:
        st.register_item(DataItem(a, CDI, rng.choice((1, 2)), str(rng.randrange(1000)).encode()))
        st.register_ivp(a, ig.ivp_non_negative_int)
    for r in raws:
        st.register_item(DataItem(r, UDI, 1, rng.choice((b" 12 ", b"x", b"-3", b"\xc3\xa9"))))
        st.register_ivp(r, ig.ivp_non_negative_int)
    for tp, fn in (("credit", ig.tp_credit), ("debit", ig.tp_debit), ("sanitize", ig.tp_sanitize_int)):
        st.register_tp(tp, fn, certified_by="cert")
    for teller in STREAM_TELLERS:
        st.add_triple(Triple.of(teller, "credit", rng.sample(accts, 3)))
    for _ in range(n - len(st.audit)):
        roll = rng.random()
        actor = rng.choice(STREAM_TELLERS)
        if roll < 0.6:
            amount = rng.choice((rng.randrange(1, 500), rng.randrange(1, 500), "x"))
            targets = rng.sample(accts, rng.choice((1, 2)))
            st.execute_tp(actor, rng.choice(("credit", "debit")), targets, {"amount": amount})
        elif roll < 0.9:
            admin = rng.choice(("root", "r\u00f4ot", actor))
            tp = rng.choice(("credit", "debit", "sanitize"))
            pool = raws if tp == "sanitize" else accts
            triple = Triple.of(actor, tp, rng.sample(pool, rng.choice((1, 2, 3))))
            st.alter_authorization(admin, triple, rng.choice((ig.GRANT, ig.REVOKE)))
        else:
            try:
                st.promote_udi(actor, "sanitize", rng.choice(raws))
            except AlreadyConstrained:
                pass
    return st


class TestSplicedPreimage:
    def test_equals_canonical_json_on_random_records(self, monkeypatch):
        # with sha256d made the identity, _record_hash returns its preimage
        monkeypatch.setattr(ig, "sha256d", lambda data: data)
        rng = random.Random(0xA0D17)
        for _ in range(20_000):
            seq = rng.choice((rng.randrange(10), rng.randrange(-(2**70), 2**70)))
            actor, action, outcome, detail = (_random_text(rng) for _ in range(4))
            prev_hash = rng.randbytes(32)
            expected = canonical_json(
                {
                    "seq": seq,
                    "actor": actor,
                    "action": action,
                    "outcome": outcome,
                    "detail": detail,
                    "prev_hash": prev_hash.hex(),
                }
            )
            assert ig._record_hash(seq, actor, action, outcome, detail, prev_hash) == expected

    def test_seeded_stream_digests_frozen(self):
        # generated by the json.dumps preimage that the splice replaced
        st = seeded_policy_stream(2000)
        assert len(st.audit) == 2000
        digest = hashlib.sha256(audit_jsonl(st.audit.records).encode("utf-8")).hexdigest()
        assert digest == "a20897f9c9f5d0e000e2802b96279078e23f11378eabb051951ed5aa1b0c754a"
        assert st.audit.records[-1].record_hash.hex() == "4f8b6caf59e17e0557c88f19d09b043273f31b0f99e6d945b54a4a26aaaa5d04"
        assert audit_verify(st.audit.records).valid


class TestTripleIndex:
    """The per-(subject, TP) index answers as the linear scan over every
    granted triple did, on random grant/revoke/execute/promote streams."""

    @pytest.mark.parametrize("seed", range(4))
    def test_index_agrees_with_linear_scan(self, seed):
        rng = random.Random(seed)
        st = base_state()
        st.register_subject(Subject("dave", biba_level=2))
        for i in range(6):
            st.register_item(DataItem(f"u{i}", UDI, biba_level=1, value=str(i).encode()))
        granted = set(triples(st))
        subjects = ("alice", "bob", "dave")
        tps = ("credit", "debit", "sanitize")
        items = ("acct", "acct2", "high", "raw") + tuple(f"u{i}" for i in range(6))
        for _ in range(1500):
            roll = rng.random()
            subject, tp = rng.choice(subjects), rng.choice(tps)
            targets = frozenset(rng.sample(items, rng.choice((1, 1, 2, 3))))
            assert st._match_triple(subject, tp, targets) == triple_match_oracle(
                granted, subject, tp, targets
            )
            if roll < 0.25:
                triple = Triple(subject, tp, targets)
                res = st.alter_authorization("root", triple, ig.GRANT)
                assert res.allowed
                granted.add(triple)
            elif roll < 0.5:
                # half of these name a triple that was never granted
                pick = rng.choice(sorted(granted, key=repr)) if granted and rng.random() < 0.5 else None
                triple = pick or Triple(subject, tp, targets)
                res = st.alter_authorization("root", triple, ig.REVOKE)
                assert res.allowed == (triple in granted)
                assert res.allowed or res.reason == "no_such_triple"
                granted.discard(triple)
            elif roll < 0.85:
                res = st.execute_tp(subject, tp, sorted(targets), {"amount": 1})
                if res.reason == "no_matching_triple":
                    assert not triple_match_oracle(granted, subject, tp, targets)
            else:
                udi = rng.choice(items)
                try:
                    res = st.promote_udi(subject, tp, udi, {"value": 1})
                except AlreadyConstrained:
                    continue
                matched = triple_match_oracle(granted, subject, tp, {udi})
                assert (res.reason == "no_matching_triple") == (not matched)
            assert triples(st) == frozenset(granted)
        assert audit_verify(st.audit.records).valid


class TestPolicyFile:
    DOC = {
        "subjects": [
            {"id": "ops", "biba_level": 2},
            {"id": "certifier", "biba_level": 2},
            {"id": "admin", "biba_level": 2, "privileged": True},
        ],
        "items": [
            {"id": "balance", "class": "CDI", "biba_level": 1, "value": "500"},
            {"id": "feed", "class": "UDI", "biba_level": 1, "value": "17"},
        ],
        "tps": [
            {"id": "credit", "builtin": "credit", "certified_by": "certifier"},
            {"id": "sanitize", "builtin": "sanitize_int", "certified_by": "certifier"},
        ],
        "ivps": [{"item": "balance", "builtin": "non_negative_int"}],
        "triples": [
            {"subject": "ops", "tp": "credit", "cdis": ["balance"]},
            {"subject": "ops", "tp": "sanitize", "cdis": ["feed"]},
        ],
    }

    def test_load_and_run(self):
        st = load_policy(self.DOC)
        assert st.execute_tp("ops", "credit", ["balance"], {"amount": 7}).allowed
        assert st.get_item("balance").value == b"507"
        assert st.promote_udi("ops", "sanitize", "feed").allowed

    def test_load_rejects_sod_violation(self):
        doc = dict(self.DOC)
        doc["triples"] = [{"subject": "certifier", "tp": "credit", "cdis": ["balance"]}]
        with pytest.raises(SeparationOfDuty):
            load_policy(doc)

    @pytest.mark.parametrize("bad_id", ["t\ud800", 5])
    @pytest.mark.parametrize("section", ["subjects", "items", "tps"])
    def test_load_refuses_an_id_that_is_not_utf8_text(self, section, bad_id):
        doc = {key: [dict(entry) for entry in self.DOC[key]] for key in ("subjects", "items", "tps")}
        doc[section][0]["id"] = bad_id
        with pytest.raises(ig.IntegrityError, match="UTF-8|not text"):
            load_policy(doc)

    def test_unencodable_id_cannot_commit_unaudited(self):
        # before: the subject registered, execute_tp committed the credit and
        # then hashing its audit record raised UnicodeEncodeError
        st = base_state()
        with pytest.raises(ig.IntegrityError):
            st.register_subject(Subject("t\ud800", biba_level=2))
        with pytest.raises(UnknownEntity):
            st.add_triple(Triple.of("t\ud800", "credit", {"acct"}))
        assert st.get_item("acct").value == b"100"
        assert len(st.audit) == 0

    @pytest.mark.parametrize(
        "section,entry",
        [
            ("tps", {"id": "x", "builtin": "rm_rf", "certified_by": "certifier"}),
            ("tps", {"id": "x", "builtin": "set_value", "certified_by": "certifier"}),
            ("ivps", {"item": "balance", "builtin": "is_int"}),
            ("ivps", {"item": "balance", "builtin": "utf8"}),
        ],
        ids=["rm_rf", "set_value", "is_int", "utf8"],
    )
    def test_load_rejects_unknown_builtin(self, section, entry):
        doc = dict(self.DOC)
        doc[section] = [entry]
        with pytest.raises(ig.IntegrityError, match=rf"^{section}\[0\]: unknown builtin"):
            load_policy(doc)

    @pytest.mark.parametrize(
        "section,field,value",
        [
            ("subjects", "privileged", "false"),
            ("subjects", "privileged", 1),
            ("subjects", "biba_level", 2.9),
            ("subjects", "biba_level", "3"),
            ("subjects", "biba_level", True),
            ("items", "biba_level", 1.5),
            ("items", "value", None),
            ("items", "value", 1.5),
            ("items", "value", True),
            ("tps", "builtin", ["credit"]),
            ("tps", "certified_by", ["certifier"]),
            ("ivps", "item", {}),
            ("triples", "cdis", 5),
        ],
    )
    def test_load_refuses_a_field_of_the_wrong_type_naming_its_entry(self, section, field, value):
        # before: "false" loaded a privileged subject, 2.9 loaded as level 2,
        # None as the value b"None", and bad hex or an unhashable name escaped raw
        doc = {key: [dict(entry) for entry in entries] for key, entries in self.DOC.items()}
        doc[section][-1][field] = value
        with pytest.raises(ig.IntegrityError, match=rf"^{section}\[{len(doc[section]) - 1}\]: "):
            load_policy(doc)

    @pytest.mark.parametrize("section", sorted(DOC))
    def test_load_refuses_an_unknown_key_naming_its_entry(self, section):
        # before: the key was ignored, so {"id": "a", "biba_levle": 3} loaded a at level 0
        doc = {key: [dict(entry) for entry in entries] for key, entries in self.DOC.items()}
        doc[section][0]["biba_levle"] = 3
        with pytest.raises(ig.IntegrityError, match=rf"^{section}\[0\]: unknown key 'biba_levle'$"):
            load_policy(doc)

    @pytest.mark.parametrize(
        "section,key",
        [("subjects", "cdis"), ("items", "privileged"), ("tps", "item"), ("ivps", "certified_by"), ("triples", "biba_level")],
    )
    def test_load_refuses_a_key_that_belongs_to_another_section(self, section, key):
        # each section has its own keys: one known elsewhere is still unknown here
        doc = {key_: [dict(entry) for entry in entries] for key_, entries in self.DOC.items()}
        doc[section][-1][key] = self.DOC["subjects"][2]["privileged"] if key == "privileged" else 1
        last = len(doc[section]) - 1
        with pytest.raises(ig.IntegrityError, match=rf"^{section}\[{last}\]: unknown key '{key}'$"):
            load_policy(doc)

    def test_load_refuses_an_unknown_section(self):
        # before: a misspelt section loaded an empty policy
        with pytest.raises(ig.IntegrityError, match=r"^policy document: unknown section 'subjcts'$"):
            load_policy({"subjcts": [{"id": "a"}]})

    @pytest.mark.parametrize("entry", [5, "ops", ["id", "ops"], None])
    def test_load_refuses_an_entry_that_is_not_an_object(self, entry):
        # before: a bare TypeError or AttributeError
        doc = {"subjects": [{"id": "ops"}, entry]}
        with pytest.raises(ig.IntegrityError, match=r"^subjects\[1\]: entry must be an object"):
            load_policy(doc)

    @pytest.mark.parametrize("section,key", [("subjects", "id"), ("items", "id"), ("tps", "certified_by"), ("triples", "cdis")])
    def test_load_refuses_a_missing_key_naming_its_entry(self, section, key):
        # before: a bare KeyError
        doc = {key_: [dict(entry) for entry in entries] for key_, entries in self.DOC.items()}
        del doc[section][0][key]
        with pytest.raises(ig.IntegrityError, match=rf"^{section}\[0\]: .*{key}"):
            load_policy(doc)

    @pytest.mark.parametrize("doc", [[1], [], "subjects", 5, None])
    def test_load_refuses_a_document_that_is_not_an_object(self, doc):
        # before: a bare AttributeError ('list' object has no attribute 'get')
        with pytest.raises(ig.IntegrityError, match="^policy document must be an object"):
            load_policy(doc)

    def test_load_refuses_a_section_that_is_not_a_list(self):
        with pytest.raises(ig.IntegrityError, match="^items: must be a list"):
            load_policy({"items": {"id": "x"}})

    def test_load_names_the_entry_of_a_domain_refusal(self):
        doc = dict(self.DOC)
        doc["triples"] = [self.DOC["triples"][0], {"subject": "certifier", "tp": "credit", "cdis": ["balance"]}]
        with pytest.raises(SeparationOfDuty, match=r"^triples\[1\]: "):
            load_policy(doc)

    def test_load_keeps_integer_and_text_values_as_decimal_text(self):
        doc = {"subjects": self.DOC["subjects"], "items": [{"id": "a", "value": 17}, {"id": "b", "value": "17"}, {"id": "c"}]}
        st = load_policy(doc)
        assert [st.get_item(i).value for i in "abc"] == [b"17", b"17", b""]
        assert not st._subjects["ops"].privileged and st._subjects["admin"].privileged
