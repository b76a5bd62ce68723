"""Integrity enforcement tests: one test class per enforcement rule, plus
level checks and audit chain verification."""

from __future__ import annotations

import pytest

from ledgerstack import integrity as ig
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

    def test_udi_target_denied(self):
        st = base_state()
        st.add_triple(Triple.of("alice", "credit", {"raw"}))
        res = st.execute_tp("alice", "credit", ["raw"], {"amount": 1})
        assert not res.allowed and res.reason == "not_constrained:raw"


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

    def test_every_audited_actor_is_registered(self):
        st = base_state()
        st.execute_tp("alice", "credit", ["acct"], {"amount": 5})
        st.execute_tp("bob", "credit", ["acct"], {"amount": 5})
        with pytest.raises(UnknownEntity):
            st.execute_tp("eve", "credit", ["acct"], {"amount": 5})
        for record in st.audit.records:
            if record.actor:
                st.get_subject(record.actor)  # raises if unregistered


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

    def test_jsonl_export_is_lowercase_hex(self):
        st = base_state()
        st.execute_tp("alice", "credit", ["acct"], {"amount": 1})
        import json

        line = json.loads(st.audit.to_jsonl().splitlines()[0])
        assert len(line["record_hash"]) == 64
        assert line["record_hash"] == line["record_hash"].lower()

    def test_jsonl_line_bytes_frozen_on_escapes(self):
        # non-ASCII text, quotes, backslashes and control characters; frozen
        # from the json.dumps line writer that canonical_json replaced
        log = ig.AuditLog()
        log.append("\u00e9ve", 'act"ion', ALLOWED, 'caf\u00e9 \u4e2d "q" \\ a\\b \x00\x01\x1f\x7f \u2028 \U0001f600 \t\n/')
        assert log.to_jsonl() == (
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
        assert audit_verify(records) == ig.AuditResult(False, 2)

    def test_deleted_record_detected_at_its_position(self):
        st = self.fill()
        records = list(st.audit.records)
        del records[3]
        assert audit_verify(records) == ig.AuditResult(False, 3)

    def test_outcome_flip_detected(self):
        st = base_state()
        st.execute_tp("bob", "credit", ["acct"], {"amount": 1})  # denied
        records = list(st.audit.records)
        r = records[-1]
        records[-1] = AuditRecord(
            r.seq, r.actor, r.action, ALLOWED, r.detail, r.prev_hash, r.record_hash
        )
        result = audit_verify(records)
        assert not result.valid and result.first_bad_seq == r.seq

    def test_empty_log_is_valid(self):
        assert audit_verify([]).valid


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

    def test_load_rejects_unknown_builtin(self):
        doc = dict(self.DOC)
        doc["tps"] = [{"id": "x", "builtin": "rm_rf", "certified_by": "certifier"}]
        with pytest.raises(ig.IntegrityError):
            load_policy(doc)
