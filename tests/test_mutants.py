"""tools/mutants.json stays runnable: every snippet occurs exactly once in its
file and every node id names a test function that exists. Running the
mutants themselves is tools/mutants.py's job; this only keeps the list from
going stale when code moves."""
import ast
import importlib.util
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(spec)
spec.loader.exec_module(mutants)
ENTRIES = mutants.load()


def test_names_are_unique():
    names = [entry["name"] for entry in ENTRIES]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("entry", ENTRIES, ids=lambda e: e["name"])
def test_the_snippet_occurs_once_and_the_replacement_differs(entry):
    assert entry["file"].startswith("src/")
    assert (ROOT / entry["file"]).read_text().count(entry["snippet"]) == 1
    assert entry["replacement"] != entry["snippet"]


def test_every_node_id_is_a_test_function():
    functions = {}
    for node_id in sorted({t for entry in ENTRIES for t in entry["tests"]}):
        path, name = re.fullmatch(r"(tests/test_\w+\.py)::(test_\w+)(\[.+\])?", node_id).group(1, 2)
        if path not in functions:
            tree = ast.parse((ROOT / path).read_text())
            functions[path] = {n.name for n in tree.body if isinstance(n, ast.FunctionDef)}
        assert name in functions[path], node_id


def test_a_stale_snippet_is_reported_without_a_run(tmp_path):
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "m.py").write_text("x = 1\nx = 1\n")
    entry = {"name": "twice", "file": "src/m.py", "snippet": "x = 1", "replacement": "x = 2", "tests": ["t"]}
    assert mutants.run(entry, tmp_path) == "stale"
    assert mutants.run({**entry, "snippet": "y = 1"}, tmp_path) == "stale"
