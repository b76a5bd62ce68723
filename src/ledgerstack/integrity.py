"""Integrity enforcement: constrained data items, certified procedures,
level checks, and a hash-chained audit trail.

The enforcement model follows two composed disciplines:

1. Constrained/unconstrained data items. Constrained items (CDIs) change
   only through registered transformation procedures (TPs), gated by
   (subject, tp, cdi set) authorization triples, with validation
   predicates (IVPs) run synchronously after every TP; a failing predicate
   rolls the change back. Certifier and executor of a TP must differ, all
   acting subjects must be registered, every attempt lands in a write-only
   audit log, unconstrained items can be promoted to constrained ones via
   a TP, and only privileged subjects may alter authorizations.

2. Integrity levels: no read down, no write up, and invocation only at an
   equal or lower level. `biba_check` is the pure decision function; write
   checks are applied to every CDI a TP touches, so an action must pass
   both the triple check and the level check.

Denials are recorded outcomes, not exceptions. Only structurally
impossible requests (unknown ids) raise, and those audits carry no
subject attribution.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from json.encoder import encode_basestring
from typing import Any, Callable, Mapping, Sequence

from .crypto import HASH_LEN, ZERO32, sha256d

CDI = "CDI"
UDI = "UDI"

READ = "read"
WRITE = "write"
INVOKE = "invoke"

ALLOWED = "allowed"
DENIED = "denied"

GRANT = "grant"
REVOKE = "revoke"


class IntegrityError(Exception):
    pass


class UnknownEntity(IntegrityError):
    """Referenced subject, TP, or data item is not registered."""


class SeparationOfDuty(IntegrityError):
    """A TP's certifier may not be authorized to execute it."""


class AlreadyConstrained(IntegrityError):
    """Promotion target is already a CDI."""


def biba_check(subject_level: int, object_level: int, action: str) -> bool:
    """Pure level decision: no read down, no write up, invoke at or below.

    read   allowed iff object_level >= subject_level
    write  allowed iff object_level <= subject_level
    invoke allowed iff object_level <= subject_level
    """
    if action == READ:
        return object_level >= subject_level
    if action in (WRITE, INVOKE):
        return object_level <= subject_level
    raise ValueError(f"unknown action {action!r}")


# ---------------------------------------------------------------------------
# Domain records


@dataclass
class Subject:
    id: str
    biba_level: int = 0
    privileged: bool = False


@dataclass
class DataItem:
    id: str
    item_class: str = CDI
    biba_level: int = 0
    value: bytes = b""

    def __post_init__(self):
        if self.item_class not in (CDI, UDI):
            raise IntegrityError(f"unknown item class {self.item_class!r}")


@dataclass(frozen=True)
class Triple:
    subject_id: str
    tp_id: str
    cdi_ids: frozenset[str]

    @classmethod
    def of(cls, subject_id: str, tp_id: str, cdi_ids) -> "Triple":
        return cls(subject_id, tp_id, frozenset(cdi_ids))


# TP signature: fn(current_values, args) -> new_values. Both dicts map
# item id -> bytes. IVP signature: fn(value_bytes) -> bool.
TpFn = Callable[[dict[str, bytes], dict], dict[str, bytes]]
IvpFn = Callable[[bytes], bool]


# ---------------------------------------------------------------------------
# Audit log


@dataclass(frozen=True)
class AuditRecord:
    seq: int
    actor: str
    action: str
    outcome: str
    detail: str
    prev_hash: bytes
    record_hash: bytes


def _record_hash(
    seq: int, actor: str, action: str, outcome: str, detail: str, prev_hash: bytes
) -> bytes:
    # canonical_json of the record, spliced in sorted key order; the bytes
    # are equal for an int seq, str text and bytes prev_hash (_bad_field)
    return sha256d(
        f'{{"action":{encode_basestring(action)},"actor":{encode_basestring(actor)},'
        f'"detail":{encode_basestring(detail)},"outcome":{encode_basestring(outcome)},'
        f'"prev_hash":"{prev_hash.hex()}","seq":{int.__repr__(seq)}}}'.encode("utf-8")
    )


def _bad_field(r: AuditRecord) -> bool:
    # spelled out, not a loop over the fields: it runs once per verified record
    return not (
        isinstance(r.seq, int) and not isinstance(r.seq, bool)
        and isinstance(r.actor, str) and isinstance(r.action, str)
        and isinstance(r.outcome, str) and isinstance(r.detail, str)
        and isinstance(r.prev_hash, bytes) and len(r.prev_hash) == HASH_LEN
        and isinstance(r.record_hash, bytes) and len(r.record_hash) == HASH_LEN
    )


@dataclass(frozen=True)
class AuditResult:
    valid: bool
    first_bad_seq: int | None = None
    reason: str | None = None


class AuditLog:
    """Write-only, hash-chained event log. Append is the only mutation."""

    def __init__(self):
        self._records: list[AuditRecord] = []

    def __len__(self) -> int:
        return len(self._records)

    @property
    def records(self) -> tuple[AuditRecord, ...]:
        return tuple(self._records)

    def append(self, actor: str, action: str, outcome: str, detail: str) -> AuditRecord:
        if outcome not in (ALLOWED, DENIED):
            raise IntegrityError(f"unknown outcome {outcome!r}")
        if not (isinstance(actor, str) and isinstance(action, str) and isinstance(detail, str)):
            raise IntegrityError("audit actor, action and detail must be text")
        seq = len(self._records)
        prev_hash = ZERO32 if seq == 0 else self._records[-1].record_hash
        record = AuditRecord(
            seq=seq,
            actor=actor,
            action=action,
            outcome=outcome,
            detail=detail,
            prev_hash=prev_hash,
            record_hash=_record_hash(seq, actor, action, outcome, detail, prev_hash),
        )
        self._records.append(record)
        return record


def audit_verify(records: Sequence[AuditRecord]) -> AuditResult:
    """Recompute the hash chain; report the first bad position and why.

    Detects single-record mutation and deletion: a removed record shifts
    every later seq, so the gap surfaces at the deleted position. Never
    raises: a badly typed or unencodable field is a bad_field.
    """
    prev_hash = ZERO32
    for position, r in enumerate(records):
        if _bad_field(r):
            return AuditResult(False, position, "bad_field")
        if r.seq != position:
            return AuditResult(False, position, "seq_gap")
        if r.prev_hash != prev_hash:
            return AuditResult(False, position, "link_broken")
        try:
            expected = _record_hash(r.seq, r.actor, r.action, r.outcome, r.detail, prev_hash)
        except UnicodeEncodeError:
            return AuditResult(False, position, "bad_field")
        if r.record_hash != expected:
            return AuditResult(False, position, "hash_mismatch")
        prev_hash = r.record_hash
    return AuditResult(True)


# ---------------------------------------------------------------------------
# Policy state and the three guarded operations


@dataclass(frozen=True)
class TpResult:
    """Outcome of a guarded operation. Denials come back here, not as
    exceptions; `record` is the audit entry the attempt produced."""

    allowed: bool
    reason: str
    values: dict[str, bytes] | None
    record: AuditRecord


def _require_text(value: Any, what: str) -> None:
    # Registered ids end up in audit records, which are hashed as UTF-8: an
    # id that cannot be encoded would fail the audit after a TP committed.
    if not isinstance(value, str):
        raise IntegrityError(f"{what} id {value!r} is not text")
    try:
        value.encode("utf-8")
    except UnicodeEncodeError:
        raise IntegrityError(f"{what} id {value!r} is not UTF-8 encodable") from None


class PolicyState:
    def __init__(self):
        self._subjects: dict[str, Subject] = {}
        self._items: dict[str, DataItem] = {}
        self._tps: dict[str, tuple[TpFn, str]] = {}  # tp_id -> (fn, certifier)
        self._ivps: dict[str, IvpFn] = {}  # item_id -> predicate
        # (subject_id, tp_id) -> the CDI sets granted to that pair
        self._grants: dict[tuple[str, str], set[frozenset[str]]] = {}
        self.audit = AuditLog()

    # -- registration (bootstrap surface) ------------------------------------

    def register_subject(self, subject: Subject) -> None:
        _require_text(subject.id, "subject")
        if subject.id in self._subjects:
            raise IntegrityError(f"subject {subject.id!r} already registered")
        self._subjects[subject.id] = subject

    def register_item(self, item: DataItem) -> None:
        _require_text(item.id, "item")
        if item.id in self._items:
            raise IntegrityError(f"item {item.id!r} already registered")
        self._items[item.id] = item

    def register_tp(self, tp_id: str, fn: TpFn, certified_by: str) -> None:
        _require_text(tp_id, "tp")
        if tp_id in self._tps:
            raise IntegrityError(f"tp {tp_id!r} already registered")
        if certified_by not in self._subjects:
            raise UnknownEntity(f"certifier {certified_by!r} is not a subject")
        self._tps[tp_id] = (fn, certified_by)

    def register_ivp(self, item_id: str, predicate: IvpFn) -> None:
        if item_id not in self._items:
            raise UnknownEntity(f"item {item_id!r} is not registered")
        self._ivps[item_id] = predicate

    def add_triple(self, triple: Triple) -> None:
        """Bootstrap-time grant. Enforces separation of duty like any grant."""
        self._require_refs(triple.subject_id, triple.tp_id, triple.cdi_ids)
        self._check_sod(triple)
        self._grants.setdefault((triple.subject_id, triple.tp_id), set()).add(triple.cdi_ids)

    # -- read-only view ---------------------------------------------------------

    def get_item(self, item_id: str) -> DataItem:
        if item_id not in self._items:
            raise UnknownEntity(f"item {item_id!r} is not registered")
        return replace(self._items[item_id])

    # -- internals -------------------------------------------------------------

    def _check_sod(self, triple: Triple) -> None:
        certifier = self._tps[triple.tp_id][1]
        if certifier == triple.subject_id:
            raise SeparationOfDuty(
                f"{triple.subject_id!r} certified tp {triple.tp_id!r} and may "
                "not also execute it"
            )

    def _require_refs(self, subject_id: str, tp_id: str, item_ids, audit_action: str = "") -> None:
        """Raise UnknownEntity for the first unregistered id, auditing the
        refusal under audit_action first when one is given."""
        if subject_id not in self._subjects:
            what, message = f"unknown_subject:{subject_id}", f"subject {subject_id!r} is not a subject"
        elif tp_id not in self._tps:
            what, message = f"unknown_tp:{tp_id}", f"tp {tp_id!r} is not registered"
        else:
            for item_id in item_ids:
                if item_id not in self._items:
                    what, message = f"unknown_item:{item_id}", f"item {item_id!r} is not registered"
                    break
            else:
                return
        if audit_action:
            self._audit_unknown(audit_action, what)
        raise UnknownEntity(message)

    def _audit_unknown(self, action: str, what: str) -> None:
        # Unknown ids are rejected before attribution: the actor field stays
        # empty so the log never references an unregistered subject.
        action, what = (s.encode("utf-8", "backslashreplace").decode() for s in (action, what))
        self.audit.append("", action, DENIED, what)

    def _deny(self, actor: str, action: str, reason: str) -> TpResult:
        record = self.audit.append(actor, action, DENIED, reason)
        return TpResult(False, reason, None, record)

    def _match_triple(self, subject_id: str, tp_id: str, item_ids: frozenset[str]) -> bool:
        return any(item_ids <= cdis for cdis in self._grants.get((subject_id, tp_id), ()))

    # -- guarded operations -----------------------------------------------------

    def execute_tp(
        self, subject_id: str, tp_id: str, cdi_ids: Sequence[str], args: dict | None = None
    ) -> TpResult:
        """Run a certified TP over CDIs on behalf of a subject.

        Allowed iff a matching triple exists, every target passes the
        level write check, the TP runs cleanly, and every post-TP
        validation predicate holds. Nothing is written on denial.
        """
        return self._run_tp(subject_id, tp_id, cdi_ids, args, f"execute_tp:{tp_id}", promote=False)

    def promote_udi(
        self, subject_id: str, tp_id: str, udi_id: str, args: dict | None = None
    ) -> TpResult:
        """Upgrade an unconstrained item to constrained via a TP.

        The TP sanitizes/derives the value; the item's validation
        predicate must accept the result or the item stays a UDI.
        """
        return self._run_tp(subject_id, tp_id, (udi_id,), args, f"promote_udi:{tp_id}:{udi_id}", promote=True)

    def _run_tp(
        self, subject_id: str, tp_id: str, item_ids: Sequence[str], args: dict | None, action: str, promote: bool
    ) -> TpResult:
        """The one guarded pipeline: refs, item class, triple, level write
        check, the TP, scope, each IVP, commit, audit. A promotion's target
        must be a UDI (a CDI is audited and raises AlreadyConstrained), its
        TP must return exactly that target, and its commit makes it a CDI."""
        self._require_refs(subject_id, tp_id, item_ids, action)
        targets = frozenset(item_ids)
        if not targets:
            return self._deny(subject_id, action, "no_targets")
        for item_id in sorted(targets):
            is_cdi = self._items[item_id].item_class == CDI
            if promote and is_cdi:
                self.audit.append(subject_id, action, DENIED, "already_constrained")
                raise AlreadyConstrained(f"item {item_id!r} is already a CDI")
            if not promote and not is_cdi:
                return self._deny(subject_id, action, f"not_constrained:{item_id}")
        if not self._match_triple(subject_id, tp_id, targets):
            return self._deny(subject_id, action, "no_matching_triple")
        subject = self._subjects[subject_id]
        for item_id in sorted(targets):
            if not biba_check(subject.biba_level, self._items[item_id].biba_level, WRITE):
                return self._deny(subject_id, action, f"level_write_denied:{item_id}")
        current = {item_id: self._items[item_id].value for item_id in targets}
        fn = self._tps[tp_id][0]
        try:
            new_values = fn(current, args or {})
        except Exception as exc:  # a TP crash is a denial, never a corruption
            return self._deny(subject_id, action, f"tp_failed:{exc}")
        if not (
            isinstance(new_values, dict)
            and (new_values.keys() == targets if promote else new_values.keys() <= targets)
            and all(isinstance(v, bytes) for v in new_values.values())
        ):
            return self._deny(subject_id, action, "tp_scope_violation")
        for item_id in sorted(new_values):
            if not self._run_ivp(item_id, new_values[item_id]):
                return self._deny(subject_id, action, f"ivp_failed:{item_id}")
        for item_id, value in new_values.items():
            item = self._items[item_id]
            item.value = value
            if promote:
                item.item_class = CDI
        detail = "promoted" if promote else "cdis=" + ",".join(sorted(targets))
        record = self.audit.append(subject_id, action, ALLOWED, detail)
        return TpResult(True, "ok", dict(new_values), record)

    def _run_ivp(self, item_id: str, value: bytes) -> bool:
        predicate = self._ivps.get(item_id)
        if predicate is None:
            return True
        try:
            return bool(predicate(value))
        except Exception:
            return False

    def alter_authorization(
        self, admin_id: str, triple: Triple, action: str
    ) -> TpResult:
        """Grant or revoke a triple. Privileged subjects only."""
        if action not in (GRANT, REVOKE):
            raise IntegrityError(f"unknown authorization action {action!r}")
        audit_action = f"alter_authorization:{action}"
        detail = f"{triple.subject_id}|{triple.tp_id}|{','.join(sorted(triple.cdi_ids))}"
        if admin_id not in self._subjects:
            self._audit_unknown(audit_action, f"unknown_subject:{admin_id}")
            raise UnknownEntity(f"subject {admin_id!r} is not a subject")
        if not self._subjects[admin_id].privileged:
            return self._deny(admin_id, audit_action, "not_privileged")
        if action == GRANT:
            try:
                self.add_triple(triple)
            except UnknownEntity:
                self._audit_unknown(audit_action, f"unknown_reference:{detail}")
                raise
            except SeparationOfDuty:
                self.audit.append(admin_id, audit_action, DENIED, f"separation_of_duty:{detail}")
                raise
        else:
            granted = self._grants.get((triple.subject_id, triple.tp_id), set())
            if triple.cdi_ids not in granted:
                return self._deny(admin_id, audit_action, "no_such_triple")
            granted.discard(triple.cdi_ids)
        record = self.audit.append(admin_id, audit_action, ALLOWED, detail)
        return TpResult(True, "ok", None, record)


# ---------------------------------------------------------------------------
# Built-in TPs and IVPs
#
# Integer-valued items are stored as ASCII decimal bytes. These builtins
# are the vocabulary available to policy files and scenarios.


def _as_int(value: bytes) -> int:
    return int(value.decode("ascii")) if value else 0


def tp_credit(values: dict[str, bytes], args: dict) -> dict[str, bytes]:
    amount = int(args["amount"])
    return {k: str(_as_int(v) + amount).encode("ascii") for k, v in values.items()}


def tp_debit(values: dict[str, bytes], args: dict) -> dict[str, bytes]:
    amount = int(args["amount"])
    return {k: str(_as_int(v) - amount).encode("ascii") for k, v in values.items()}


def tp_sanitize_int(values: dict[str, bytes], args: dict) -> dict[str, bytes]:
    # Promotion helper: raw text must parse as an integer.
    return {k: str(int(v.decode("utf-8").strip())).encode("ascii") for k, v in values.items()}


def ivp_non_negative_int(value: bytes) -> bool:
    return _as_int(value) >= 0


BUILTIN_TPS: Mapping[str, TpFn] = {
    "credit": tp_credit,
    "debit": tp_debit,
    "sanitize_int": tp_sanitize_int,
}

BUILTIN_IVPS: Mapping[str, IvpFn] = {
    "non_negative_int": ivp_non_negative_int,
}


def _typed(entry: Mapping[str, Any], key: str, default: Any, what: str, ok: Callable[[Any], bool]) -> Any:
    value = entry.get(key, default)
    if not ok(value):
        raise IntegrityError(f"{key} must be {what}, got {value!r}")
    return value


def _builtin(table: Mapping[str, Any], name: Any, what: str) -> Any:
    if type(name) is not str or name not in table:
        raise IntegrityError(f"unknown builtin {what} {name!r}")
    return table[name]


_LOADERS: dict[str, Callable[[PolicyState, Mapping[str, Any]], None]] = {
    "subjects": lambda state, s: state.register_subject(
        Subject(
            id=s["id"],
            biba_level=_typed(s, "biba_level", 0, "an integer", lambda v: type(v) is int),
            privileged=_typed(s, "privileged", False, "a bool", lambda v: type(v) is bool),
        )
    ),
    "items": lambda state, it: state.register_item(
        DataItem(
            id=it["id"],
            item_class=it.get("class", CDI),
            biba_level=_typed(it, "biba_level", 0, "an integer", lambda v: type(v) is int),
            value=str(_typed(it, "value", "", "text or an integer", lambda v: type(v) in (str, int))).encode("utf-8"),
        )
    ),
    "tps": lambda state, tp: state.register_tp(tp["id"], _builtin(BUILTIN_TPS, tp["builtin"], "tp"), tp["certified_by"]),
    "ivps": lambda state, ivp: state.register_ivp(ivp["item"], _builtin(BUILTIN_IVPS, ivp["builtin"], "ivp")),
    "triples": lambda state, tr: state.add_triple(Triple.of(tr["subject"], tr["tp"], tr["cdis"])),
}
_KEYS = {
    "subjects": {"id", "biba_level", "privileged"},
    "items": {"id", "class", "biba_level", "value"},
    "tps": {"id", "builtin", "certified_by"},
    "ivps": {"item", "builtin"},
    "triples": {"subject", "tp", "cdis"},
}


def load_policy(doc: Mapping[str, Any]) -> PolicyState:
    """Build a PolicyState from a policy document.

    Shape:
        {"subjects": [{"id", "biba_level", "privileged"}],
         "items":    [{"id", "class", "biba_level", "value"}],
         "tps":      [{"id", "builtin", "certified_by"}],
         "ivps":     [{"item", "builtin"}],
         "triples":  [{"subject", "tp", "cdis": [...]}]}

    Levels are ints, `privileged` a bool and an item `value` text or an int
    (kept as its decimal text). Any other section or key is refused. A
    refusal names its entry: "items[1]: ...".
    """
    if not isinstance(doc, Mapping):
        raise IntegrityError(f"policy document must be an object, got {doc!r}")
    unknown = [section for section in doc if section not in _KEYS]
    if unknown:
        raise IntegrityError(f"policy document: unknown section {unknown[0]!r}")
    state = PolicyState()
    for section, load in _LOADERS.items():
        entries = doc.get(section, [])
        if type(entries) is not list:
            raise IntegrityError(f"{section}: must be a list, got {entries!r}")
        for index, entry in enumerate(entries):
            try:
                if not isinstance(entry, Mapping):
                    raise IntegrityError(f"entry must be an object, got {entry!r}")
                unknown = [key for key in entry if key not in _KEYS[section]]
                if unknown:
                    raise IntegrityError(f"unknown key {unknown[0]!r}")
                load(state, entry)
            except IntegrityError as exc:
                raise type(exc)(f"{section}[{index}]: {exc}") from None
            except (KeyError, TypeError, ValueError) as exc:  # a missing key, an unhashable id
                raise IntegrityError(f"{section}[{index}]: {exc!r}") from None
    return state
