"""Seeded mutation gate over every text entry point.

Each test mutates a known-good input many times with a fixed-seed
random.Random and feeds it to its reader. Only a declared error class may
escape, and it must say where the input went wrong:

- a scenario line: an EngineError whose .line is set;
- a chain file: BadImport or EmptyChain;
- a trades CSV: a SettlementError naming its row;
- a policy document: an IntegrityError naming section[index].
"""

import json
import random
import re
from importlib import resources

from ledgerstack import chain as chain_mod
from ledgerstack import engine, integrity, settlement, tsa

# values a sloppy or hostile writer might put anywhere
JUNK = [
    None, True, False, 0, -1, 7, 2**64, 1.5, "", "x", "ghost", "01" * 32, "zz" * 32,
    "\ud800", [], [1], ["a"], {}, {"a": 1},
]
CHARS = '{}[]":,. 0a-\\'

# one line per op, some with fields that the bundled scenarios leave out
EXTRA_SCENARIO = "\n".join(
    json.dumps(doc)
    for doc in [
        {"op": "tsa_init", "agency": "t", "operator_seed": "02" * 32},
        {"op": "open", "agency": "t", "id": "m", "kind": "main"},
        {"op": "buffer_check", "agency": "t", "requirement": 5},
        {"op": "anchor_day"},
        {"op": "stamp_verify"},
        {"op": "keygen", "name": "k", "seed": "03" * 32},
        {"op": "fund", "name": "k", "amount": 9},
        {"op": "prime_entry", "book": "sales_day", "date": "d1", "counterparty": "c", "amount": 5, "memo": "m"},
        {"op": "post_books", "date": "d1"},
        {"op": "trial_balance"},
        {"op": "reconcile", "control": "receivables"},
        {"op": "classify", "sppi_pass": True, "business_model": "hold_to_collect"},
        {"op": "ecl", "exposure": 1000, "pd_12m": 0.1, "pd_lifetime": 0.2, "lgd": 0.5, "stage": 2},
        {"op": "depreciate", "cost": 100, "salvage": 10, "life_periods": 4, "periods_elapsed": 1},
        {"op": "deploy", "code_id": "counter", "init": {"start": 2}, "budget": 50, "height": 3, "as": "c"},
        {"op": "invoke", "target": "c", "method": "inc", "args": {"step": 2}, "budget": 50},
    ]
)
SCENARIO_FIELDS = sorted(
    {key for line in EXTRA_SCENARIO.split("\n") for key in json.loads(line)}
    | {"agency", "amount", "as", "cap", "expect_error", "expected", "kind", "memo", "name", "signer", "disposition"}
)


def bundled(name):
    return (resources.files("ledgerstack") / "scenarios" / name).read_text()


def mutate_lines(rng, lines, keys):
    """One mutation of a list of JSON-object text lines: a line dropped or
    duplicated, one character overwritten, a field dropped, or a field
    (one of `keys` or one already there) set to junk or to the value of
    another field."""
    lines = list(lines)
    i = rng.randrange(len(lines))
    kind = rng.randrange(5)
    if kind == 0:
        lines.pop(i)
    elif kind == 1:
        lines.insert(rng.randrange(len(lines) + 1), lines[i])
    elif kind == 2:
        pos = rng.randrange(len(lines[i]))
        lines[i] = lines[i][:pos] + rng.choice(CHARS) + lines[i][pos + 1 :]
    else:
        doc = target = json.loads(lines[i])
        while target and rng.random() < 0.3:  # sometimes reach into a nested object
            child = target[rng.choice(sorted(target))]
            if not isinstance(child, dict) or not child:
                break
            target = child
        if kind == 3 and target:
            del target[rng.choice(sorted(target))]
        else:
            target[rng.choice(sorted(target) + keys)] = rng.choice(JUNK + list(target.values()))
        lines[i] = json.dumps(doc)
    return lines


def test_scenario_mutations_escape_only_with_a_line():
    rng = random.Random(1101)
    sources = [
        bundled("tsa_day_cycle.jsonl"),
        bundled("tsa_distributed_day.jsonl"),
        bundled("escrow_paths.jsonl"),
        bundled("bank_books.jsonl"),
        bundled("contracts_tour.jsonl"),
        EXTRA_SCENARIO,
    ]
    escapes = {}
    for _ in range(240):
        lines = [ln for ln in rng.choice(sources).split("\n") if ln.strip() and not ln.startswith("#")]
        text = "\n".join(mutate_lines(rng, lines, SCENARIO_FIELDS))
        try:
            engine.run_scenario(text)
        except engine.EngineError as exc:
            if getattr(exc, "line", None) is None:
                escapes.setdefault(repr(exc), text)
        except Exception as exc:  # the gate: nothing else may escape
            escapes.setdefault(f"{type(exc).__name__}: {exc}", text)
    assert not escapes, list(escapes.items())[:3]


def test_chain_file_mutations_escape_only_as_import_errors(tmp_path):
    led = tsa.TsaLedger(operator_seed=b"\x05" * 32)
    led.open_account("main", tsa.KIND_MAIN)
    led.open_account("z", tsa.KIND_ZBA)
    led.record_receipt("z", 40, "fee")
    led.end_of_day_sweep()
    led.day_close()
    led.record_disbursement("main", 15)
    led.day_close()
    path = tmp_path / "chain.jsonl"
    led.chain.export_jsonl(str(path))
    lines = path.read_text(encoding="utf-8").split("\n")[:-1]
    rng = random.Random(1102)
    escapes = {}
    for _ in range(200):
        # each line keeps its newline, so that a dropped or repeated line reaches verify
        text = "".join(ln + "\n" for ln in mutate_lines(rng, lines, ["height", "txs", "approvals", "payload", "kind"]))
        try:
            chain_mod.Chain.from_jsonl(text, led.chain.config).verify()
        except (chain_mod.BadImport, chain_mod.EmptyChain):
            pass
        except Exception as exc:
            escapes.setdefault(f"{type(exc).__name__}: {exc}", text)
    assert not escapes, list(escapes.items())[:3]


def mutate_csv(rng, rows, cells):
    """One or two mutations of a CSV table (header included): a cell set to
    junk or to another cell, a cell dropped or added, or a row duplicated."""
    table = [list(row) for row in rows]
    for _ in range(rng.randrange(1, 3)):
        row = rng.choice(table)
        kind = rng.randrange(4)
        if kind == 0:
            row[rng.randrange(len(row))] = rng.choice(cells + [c for r in rows for c in r])
        elif kind == 1:
            row.pop(rng.randrange(len(row)))
        elif kind == 2:
            row.append(rng.choice(cells))
        else:
            table.insert(rng.randrange(1, len(table) + 1), list(row))
    return "\n".join(",".join(row) for row in table) + "\n"


def test_trades_csv_mutations_escape_only_naming_their_row():
    rows = [line.split(",") for line in bundled("trades_sample.csv").strip().split("\n")]
    cells = ["", "x", "0", "-3", "1.5", " 7 ", "alice", "bob", "9" * 20, "1e3", '"', "a,b"]
    rng = random.Random(1103)
    escapes = {}
    for _ in range(600):
        text = mutate_csv(rng, rows, cells)
        try:
            settlement.net_positions(settlement.trades_from_csv(text))
        except settlement.SettlementError as exc:
            if not str(exc).startswith("trades row "):
                escapes.setdefault(repr(exc), text)
        except Exception as exc:
            escapes.setdefault(f"{type(exc).__name__}: {exc}", text)
    assert not escapes, list(escapes.items())[:3]


POLICY = {
    "subjects": [
        {"id": "ops", "biba_level": 2},
        {"id": "certifier", "biba_level": 2},
        {"id": "admin", "biba_level": 2, "privileged": True},
    ],
    "items": [
        {"id": "balance", "class": "CDI", "biba_level": 1, "value": "500"},
        {"id": "feed", "class": "UDI", "biba_level": 1, "value": 17},
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
POLICY_KEYS = ["id", "biba_level", "privileged", "class", "value", "builtin", "certified_by", "item", "subject", "tp", "cdis"]
POSITION = re.compile(r"^(subjects|items|tps|ivps|triples)(\[\d+\])?: ")


def test_policy_mutations_escape_only_naming_their_position():
    rng = random.Random(1104)
    escapes = {}
    for _ in range(1000):
        doc = json.loads(json.dumps(POLICY))
        section = rng.choice(sorted(doc))
        entries = doc[section]
        i = rng.randrange(len(entries))
        kind = rng.randrange(5)
        if kind == 0:
            doc[section] = rng.choice(JUNK)
        elif kind == 1:
            entries[i] = rng.choice(JUNK)
        elif kind == 2:
            del entries[i][rng.choice(sorted(entries[i]))]
        else:
            entries[i][rng.choice(sorted(entries[i]) + POLICY_KEYS)] = rng.choice(JUNK)
        try:
            integrity.load_policy(doc)
        except integrity.IntegrityError as exc:
            if not POSITION.match(str(exc)):
                escapes.setdefault(repr(exc), doc)
        except Exception as exc:
            escapes.setdefault(f"{type(exc).__name__}: {exc}", doc)
    assert not escapes, list(escapes.items())[:3]
