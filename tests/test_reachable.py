"""Reachability gate: src/ holds only what an entry point reaches.

The entry points are the CLI, the scenario engine and the benchmark, so
the code under src/ledgerstack and perfbench is scanned with ast. A public
top-level function or class must be named somewhere in that code outside
its own definition: as an ast.Name, an ast.Attribute or an import. A public
method counts only as an ast.Attribute, so a local variable of the same
name does not reach it. A name inside a string does not count, and neither
does a test. The few names kept for tests and for later work are listed in
ALLOWED, each with its reason.

A second scan, over the tests too, refuses an import that its file never
uses as a name. A third refuses a pytest fixture, in tests/conftest.py or
a test file, that no test or fixture requests.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCANNED = (ROOT / "src" / "ledgerstack", ROOT / "perfbench")
TESTS = ROOT / "tests"
IMPORTING = (*SCANNED, TESTS)

ALLOWED = {
    "OrderBook.depth": "read-only accessor that tests use to observe the book",
    "PolicyState.get_item": "read-only accessor that tests use to observe policy state",
    "PolicyState.get_subject": "read-only accessor that tests use to observe policy state",
    "PolicyState.triples": "read-only accessor that tests use to observe the certified triples",
    "ContractState.instance_code": "read-only accessor that tests use to observe a deployment",
    "ContractState.is_dead": "read-only accessor that tests use to observe a self-destruct",
    "ContractState.storage_snapshot": "read-only accessor that tests use to observe storage",
    "Chain.mine_and_append": "PoW mode, one of the two consensus modes of the paper",
    "merkle_prove": "inclusion proofs: the per-transaction evidence a third party can check",
    "merkle_verify": "inclusion proofs: the per-transaction evidence a third party can check",
    "PolicyState.promote_udi": "the Clark-Wilson UDI-to-CDI step that the acceptance criterion runs",
}


def _definitions(tree: ast.Module):
    """(qualified name, bare name, first line, last line) of each public
    top-level function and class, and of each public method of such a class."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if not node.name.startswith("_"):
            yield node.name, node.name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name, item.lineno, item.end_lineno


def _references(tree: ast.Module):
    """(name, line, whether an attribute) of each ast.Name, ast.Attribute
    and imported name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno, False
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno, True
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.name.rsplit(".", 1)[-1], node.lineno, False


def unreached(roots=SCANNED) -> dict[str, str]:
    """Public definitions named nowhere outside their own body, by
    qualified name, each with the file and line that defines it."""
    trees = {
        path: (path.relative_to(root), ast.parse(path.read_text(), str(path)))
        for root in roots
        for path in sorted(root.rglob("*.py"))
    }
    named: dict[str, list[tuple[Path, int, bool]]] = {}
    for path, (_, tree) in trees.items():
        for name, line, attribute in _references(tree):
            named.setdefault(name, []).append((path, line, attribute))
    found = {}
    for path, (shown, tree) in trees.items():
        for qualified, name, first, last in _definitions(tree):
            method = "." in qualified
            refs = [(where, line) for where, line, attribute in named.get(name, ()) if attribute or not method]
            if all(where == path and first <= line <= last for where, line in refs):
                found[qualified] = f"{shown}:{first}"
    return found


def test_every_public_definition_is_reached_or_allowed():
    extra = {name: where for name, where in unreached().items() if name not in ALLOWED}
    assert not extra, f"named only by tests (delete, wire in, or allow with a reason): {extra}"


def test_every_allowed_name_is_still_defined_and_unreached():
    # a name that an entry point now reaches, or that is gone, leaves the list
    assert sorted(unreached()) == sorted(ALLOWED)


def test_the_scan_counts_names_not_strings(tmp_path):
    (tmp_path / "m.py").write_text(
        "def used():\n    return used\n\n"
        "def called():\n    pass\n\n"
        "class Box:\n    def size(self):\n        return 'used'\n\n"
        "    def width(self):\n        pass\n\n"
        "    def depth(self):\n        pass\n\n"
        "def caller(box):\n    called()\n    width = box.depth\n    return 'size', width\n"
    )
    (tmp_path / "n.py").write_text("from m import caller\n")
    # the local variable `width` does not reach Box.width; `box.depth` reaches Box.depth
    assert unreached([tmp_path]) == {
        "used": "m.py:1",
        "Box": "m.py:7",
        "Box.size": "m.py:8",
        "Box.width": "m.py:11",
    }


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
