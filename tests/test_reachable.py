"""Reachability gate: src/ holds only what an entry point runs.

The entry points are run once per module under sys.setprofile: every
bundled scenario, every CLI command with each of its flags and one refused
input, one seed-1 round of each perfbench workload, and the bundled gate.
A def in src/ledgerstack that none of them enters fails the gate, unless
ALLOWED names it with its reason; a name in ALLOWED that is entered, or
that no longer exists, fails it too. A call counts, a name does not: a
`.get` anywhere does not enter every `get`.

A second scan, over the tests too, refuses an import that its file never
uses as a name. A third refuses a pytest fixture, in tests/conftest.py or
a test file, that no test or fixture requests.
"""

import ast
import contextlib
import importlib.util
import io
import sys
from importlib import resources
from pathlib import Path

import pytest

from ledgerstack import cli

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "ledgerstack"
TESTS = ROOT / "tests"
IMPORTING = (SRC, ROOT / "perfbench", TESTS)

# Each def that no entry point enters but that stays, with its reason.
ALLOWED = {
    **dict.fromkeys(
        ("chain.leading_zero_bits", "chain.pow_check", "chain.mine_pow", "chain.Chain.append_mined",
         "chain.Chain.mine_and_append"),
        "proof of work, the second of the paper's two consensus modes",
    ),
    **dict.fromkeys(
        ("crypto.merkle_prove", "crypto.merkle_verify"),
        "inclusion proofs: the per-transaction evidence a third party can check against a header",
    ),
    "integrity.PolicyState.promote_udi": "the Clark-Wilson step that certifies an unconstrained item as constrained",
    "integrity.tp_sanitize_int": "the builtin TP a policy names to promote raw text to an integer CDI",
    "integrity.PolicyState.get_item": "the policy's one read-only view; tests pin that it hands out a copy",
    "settlement.holdings_from": "pinned opening holdings, the only way a caller can make a DvP leg fail",
    "chain._without_memo": "copy and pickle drop the verify memos so that a duplicate is checked again",
    # refusal paths that no entry point reaches
    "chain.BlockRejected.__init__": "a refused block; every entry point checks its input before it builds one",
    "integrity.PolicyState._audit_unknown": "audits a guarded action naming an unknown id; the audit workload names none",
}


def _defs(node: ast.AST, prefix: str):
    """(qualified name, node) of each def under node, nested ones too."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + child.name, child
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _defs(child, f"{prefix}{child.name}.")
        else:
            yield from _defs(child, prefix)


def definitions(root: Path) -> dict[tuple[str, int, str], tuple[str, str]]:
    """Each def under root, keyed as its code object names it (file, first
    line, name), with its qualified name ("module.Class.method") and where
    it is defined ("file:line")."""
    found, root = {}, root.resolve()
    for path in sorted(root.rglob("*.py")):
        shown = path.relative_to(root)
        module = shown.with_suffix("").as_posix().replace("/", ".")
        for name, node in _defs(ast.parse(path.read_text(), str(path)), module + "."):
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])  # a decorator's line, if any
            found[(str(path), first, node.name)] = (name, f"{shown}:{node.lineno}")
    return found


def entered(run) -> set[tuple[str, int, str]]:
    """(file, first line, name) of each Python function that run() enters.
    The profile hook in place before is restored, even if run() raises."""
    codes = set()

    def hook(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return {(str(Path(code.co_filename).resolve()), code.co_firstlineno, code.co_name) for code in codes}


def never_entered(root: Path, ran: set[tuple[str, int, str]]) -> dict[str, str]:
    """Each def under root that no code in `ran` is, by qualified name."""
    return {name: where for key, (name, where) in definitions(root).items() if key not in ran}


def _cli(*argv: str) -> None:
    """One CLI run; a parser refusal ends in SystemExit, as from a shell."""
    with contextlib.suppress(SystemExit):
        cli.main(list(argv))


def run_entry_points(tmp: Path, workloads) -> None:
    """Every way a user or the benchmark drives src/ledgerstack."""
    scenarios = resources.files("ledgerstack") / "scenarios"
    reports = str(tmp / "reports")
    for path in sorted(scenarios.iterdir()):
        (tmp / path.name).write_text(path.read_text(encoding="utf-8"), encoding="utf-8")
    missing, chain_file, seed = str(tmp / "missing"), str(tmp / "chain.jsonl"), "11" * 32
    refused = {
        "no_field.jsonl": '{"op": "tsa_init"}\n{"op": "open", "id": "m"}\n',
        "no_ledger.jsonl": '{"op": "tsa_init"}\n{"op": "sweep", "agency": "north"}\n',
        "not_finite.jsonl": '{"op": "ecl", "exposure": NaN}\n',
        "unmet.jsonl": '{"op": "tsa_init", "expected": {"agency": "north"}}\n',
    }
    for name, text in refused.items():
        (tmp / name).write_text(text)
    (tmp / "bad.csv").write_text("id,buyer\nT1,alice\n")
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        for path in sorted(tmp.glob("*.jsonl")):
            _cli("scenario", "run", str(path), "--report", reports)
        _cli("scenario", "run", missing)
        _cli("tsa", "day-cycle", str(tmp / "tsa_day_cycle.jsonl"), "--report", reports)
        _cli("tsa", "day-cycle", str(tmp / "no_ledger.jsonl"))
        _cli("escrow", "demo", "--report", reports)
        _cli("contracts", "list")
        for mode in ("bilateral", "ccp", "consortium"):
            _cli("settle", "run", str(tmp / "trades_sample.csv"), "--mode", mode, "--report", reports)
        _cli("settle", "run", str(tmp / "trades_sample.csv"), "--lag", "1", "--fop")
        _cli("settle", "run", str(tmp / "bad.csv"))
        _cli("settle", "run", str(tmp / "bad.csv"), "--lag", "-1")
        _cli("chain", "init", "--out", chain_file, "--seed", seed)
        _cli("chain", "init", "--out", chain_file, "--seed", "zz")
        _cli("chain", "verify", chain_file, "--seed", seed)
        _cli("chain", "verify", str(tmp / "bad.csv"))
        _cli("chain", "export", "--in", chain_file, "--out", str(tmp / "export.jsonl"), "--seed", seed)
        _cli("chain", "export", "--in", missing, "--out", str(tmp / "export.jsonl"))
        _cli("chain", "import", chain_file, "--seed", seed)
        _cli("chain", "import", str(tmp / "no_field.jsonl"))
    for setup, run, check in workloads.WORKLOADS.values():
        state = setup(1, 0)
        check(state, run(state), True)
    workloads.bundled_gate(ROOT)


@pytest.fixture(scope="module")
def missed(tmp_path_factory, workloads) -> dict[str, str]:
    tmp = tmp_path_factory.mktemp("entry_points")
    return never_entered(SRC, entered(lambda: run_entry_points(tmp, workloads)))


def test_every_def_is_entered_or_allowed(missed):
    extra = {name: where for name, where in missed.items() if name not in ALLOWED}
    assert not extra, f"no entry point runs these (delete, wire in, or allow with a reason): {extra}"


def test_every_allowed_name_is_still_defined_and_never_entered(missed):
    # a name that an entry point now runs, or that is gone, leaves the list
    stale = sorted(name for name in ALLOWED if name not in missed)
    assert not stale, f"entered, or no longer defined: {stale}"
    assert all(reason.strip() for reason in ALLOWED.values())


def test_the_gate_counts_calls_not_names(tmp_path):
    (tmp_path / "m.py").write_text(
        "class Box:\n    def get(self):\n        return 1\n\n"
        "class Shelf:\n    def get(self):\n        return 2\n\n"
        "def caller():\n    return {}.get('k'), Shelf().get(), Box.get\n\n"
        "def idle():\n    return caller\n"
    )
    spec = importlib.util.spec_from_file_location("m", tmp_path / "m.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    # a dict's .get and Shelf.get run and Box.get is named, but Box.get never runs
    assert never_entered(tmp_path, entered(module.caller)) == {"m.Box.get": "m.py:2", "m.idle": "m.py:12"}


def test_the_gate_restores_the_profile_hook():
    def fail():
        raise RuntimeError("stop")

    previous = sys.getprofile()
    with pytest.raises(RuntimeError):
        entered(fail)
    assert sys.getprofile() is previous


def unused_imports(roots=IMPORTING) -> list[str]:
    """Each name a file imports but never uses as an ast.Name, as
    "file:line name". __future__ imports and __init__.py files, which
    import to re-export, are skipped."""
    found = []
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            if path.name == "__init__.py":
                continue
            tree = ast.parse(path.read_text(), str(path))
            used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                    continue
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    for alias in node.names:
                        bound = alias.asname or alias.name.split(".", 1)[0]
                        if bound not in used:
                            found.append(f"{path.relative_to(root)}:{node.lineno} {bound}")
    return found


def test_every_import_is_used():
    assert unused_imports() == []


def test_the_import_scan_counts_names_not_strings(tmp_path):
    (tmp_path / "m.py").write_text(
        "from __future__ import annotations\n"
        "import os.path\nimport json as js\nimport struct\n"
        "from typing import Any, Mapping\n\n"
        "def f(x: Any) -> str:\n    return os.path.join('struct', js.dumps(x), 'Mapping')\n"
    )
    (tmp_path / "__init__.py").write_text("from m import f\n")
    assert unused_imports([tmp_path]) == ["m.py:4 struct", "m.py:5 Mapping"]


def _is_autouse(decorator: ast.expr) -> bool:
    return isinstance(decorator, ast.Call) and any(
        kw.arg == "autouse" and isinstance(kw.value, ast.Constant) and kw.value.value is True
        for kw in decorator.keywords
    )


def unrequested_fixtures(root=TESTS) -> list[str]:
    """Each fixture that no function takes as a parameter and no
    usefixtures mark names, as "file:line name". An autouse fixture is
    requested by every test in its scope."""
    defined, requested = [], set()
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "usefixtures":
                requested.update(arg.value for arg in node.args if isinstance(arg, ast.Constant))
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            requested.update(arg.arg for arg in node.args.args + node.args.kwonlyargs)
            for decorator in node.decorator_list:
                target = decorator.func if isinstance(decorator, ast.Call) else decorator
                if isinstance(target, ast.Attribute) and target.attr == "fixture" and not _is_autouse(decorator):
                    defined.append((f"{path.relative_to(root)}:{node.lineno}", node.name))
    return [f"{where} {name}" for where, name in defined if name not in requested]


def test_every_fixture_is_requested():
    assert unrequested_fixtures() == []


def test_the_fixture_scan_counts_parameters(tmp_path):
    (tmp_path / "conftest.py").write_text(
        "import pytest\n\n"
        "@pytest.fixture\ndef used():\n    return 1\n\n"
        "@pytest.fixture(scope='module')\ndef idle():\n    return 'used'\n"
    )
    (tmp_path / "test_m.py").write_text(
        "import pytest\n\n"
        "@pytest.fixture\ndef helper(used):\n    return used\n\n"
        "class TestM:\n    def test_m(self, helper):\n        assert helper\n"
    )
    assert unrequested_fixtures(tmp_path) == ["conftest.py:8 idle"]


@pytest.mark.parametrize(
    "request_",
    [
        "@pytest.fixture(autouse=True)\ndef used():\n    return 1\n",
        "@pytest.fixture\ndef used():\n    return 1\n\n@pytest.mark.usefixtures('used')\ndef test_m():\n    pass\n",
        "@pytest.fixture\ndef used():\n    return 1\n\npytestmark = pytest.mark.usefixtures('used')\n",
    ],
    ids=["autouse", "usefixtures-mark", "usefixtures-module-mark"],
)
def test_the_fixture_scan_counts_requests_without_a_parameter(tmp_path, request_):
    (tmp_path / "test_m.py").write_text(
        "import pytest\n\n" + request_ + "\n@pytest.fixture(autouse=False)\ndef idle():\n    return 'used'\n"
    )
    assert [line.split(" ")[1] for line in unrequested_fixtures(tmp_path)] == ["idle"]
