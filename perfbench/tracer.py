"""Span tracer that wraps ledgerstack's public functions from outside.

While a `Tracer` is active, every boundary listed in `BOUNDARIES` is
replaced by a wrapper that records one span (name, start, end, parent
span) and a call count. A function imported by name into several modules
(`chain.sha256d`, `tsa.sign`, ...) is replaced in every ledgerstack module
namespace that binds it, so no call path escapes the count. Leaving the
`with` block puts the original objects back.

Spans stay in memory; `summary()` folds them into per-boundary self time
(a span's duration minus the time its child spans cover) and counts.
Nothing here runs threads or queues, so there is no wait time to record.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from typing import Any, Callable

Hook = Callable[["Tracer", tuple, Any, Any], None]


def _count_bytes(tr: "Tracer", args: tuple, pre: Any, result: Any) -> None:
    tr.counts["crypto.sha256d.bytes"] += len(args[0])


def _distinct_verify(tr: "Tracer", args: tuple, pre: Any, result: Any) -> None:
    tr.verified.add((bytes(args[0]), bytes(args[1]), bytes(args[2])))


def _steps_before(args: tuple) -> int:
    return args[4].used  # (self, address, method, args, budget)


def _steps_used(tr: "Tracer", args: tuple, pre: Any, result: Any) -> None:
    tr.counts["contracts.steps_used"] += args[4].used - pre


def _settled(tr: "Tracer", args: tuple, pre: Any, result: Any) -> None:
    if result.status == "settled":
        tr.counts["settlement.settle.settled"] += 1


def _allowed(tr: "Tracer", args: tuple, pre: Any, result: Any) -> None:
    if result.allowed:
        tr.counts["integrity.allowed"] += 1


# (module, attribute or Class.attribute, span name, pre-call hook, post-call hook)
BOUNDARIES: tuple[tuple[str, str, str, Callable | None, Hook | None], ...] = (
    ("crypto", "sha256d", "crypto.sha256d", None, _count_bytes),
    ("crypto", "canonical_json", "crypto.canonical_json", None, None),
    ("crypto", "merkle_root", "crypto.merkle_root", None, None),
    ("crypto", "sign", "crypto.sign", None, None),
    ("crypto", "verify", "crypto.verify", None, _distinct_verify),
    ("crypto", "keygen", "crypto.keygen", None, None),
    ("chain", "Transaction.create", "chain.Transaction.create", None, None),
    ("chain", "build_block", "chain.build_block", None, None),
    ("chain", "Chain.approve_and_append", "chain.approve_and_append", None, None),
    ("chain", "header_id", "chain.block_id", None, None),
    ("chain", "verify_chain", "chain.verify_chain", None, None),
    ("chain", "Chain.from_jsonl", "chain.from_jsonl", None, None),
    ("tsa", "TsaLedger.record_receipt", "tsa.record", None, None),
    ("tsa", "TsaLedger.record_disbursement", "tsa.record", None, None),
    ("tsa", "TsaLedger.end_of_day_sweep", "tsa.end_of_day_sweep", None, None),
    ("tsa", "TsaLedger.day_close", "tsa.day_close", None, None),
    ("tsa", "replay", "tsa.replay", None, None),
    ("contracts", "ContractState.invoke", "contracts.invoke", _steps_before, _steps_used),
    ("settlement", "OrderBook.match", "settlement.match", None, None),
    ("settlement", "trades_from_csv", "settlement.trades_from_csv", None, None),
    ("settlement", "run_cycle", "settlement.run_cycle", None, None),
    ("settlement", "novate", "settlement.novate", None, None),
    ("settlement", "net_positions", "settlement.net_positions", None, None),
    ("settlement", "settle_dvp", "settlement.settle", None, _settled),
    ("settlement", "settle_fop", "settlement.settle", None, _settled),
    ("integrity", "PolicyState.execute_tp", "integrity.execute_tp", None, _allowed),
    ("integrity", "PolicyState.alter_authorization", "integrity.alter_authorization", None, _allowed),
    ("integrity", "AuditLog.append", "integrity.audit_append", None, None),
    ("integrity", "audit_verify", "integrity.audit_verify", None, None),
    ("engine", "report_bytes", "engine.report_bytes", None, None),
    ("engine", "run_scenario", "engine.run_scenario", None, None),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: Counter[str] = Counter()
        self.verified: set[tuple[bytes, bytes, bytes]] = set()
        self._stack: list[int] = []
        self._restore: list[tuple[Any, str, Any]] = []

    # -- patching ------------------------------------------------------------

    def _wrap(self, name: str, fn: Callable, pre: Callable | None, post: Hook | None) -> Callable:
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append((name, 0.0, 0.0, stack[-1] if stack else -1))
            stack.append(idx)
            token = pre(args) if pre else None
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                counts[name + ".failed"] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, spans[idx][3])
                counts[name] += 1
            if post:
                post(self, args, token, result)
            return result

        return traced

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        modules = [m for n, m in list(sys.modules.items()) if n == "ledgerstack" or n.startswith("ledgerstack.")]
        for mod_name, attr, name, pre, post in BOUNDARIES:
            module = sys.modules["ledgerstack." + mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    self._set(cls, meth, classmethod(self._wrap(name, raw.__func__, pre, post)))
                else:
                    self._set(cls, meth, self._wrap(name, raw, pre, post))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original, pre, post)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)
        return self

    def __exit__(self, *exc: Any) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- results -------------------------------------------------------------

    def summary(self) -> dict[str, Any]:
        """Counts, self time per span name, and top-level span time."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: Counter[str] = Counter()
        top = 0.0
        for i, (name, start, end, parent) in enumerate(self.spans):
            self_s[name] += end - start - child[i]
            if parent < 0:
                top += end - start
        return {
            "counts": dict(self.counts),
            "distinct_verifies": len(self.verified),
            "self_s": dict(self_s),
            "top_level_s": top,
        }
