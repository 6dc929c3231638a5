"""Every import in src/ and tests/ is used (pyflakes is not a dependency, so
this walks each module's syntax tree with the standard library)."""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# __init__.py files import to re-export
MODULES = sorted(p for d in ("src", "tests") for p in (ROOT / d).rglob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads; from __future__ imports are exempt."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used]


def test_scan_finds_an_unused_import():
    assert unused_imports("import os\nimport sys\nfrom json import dumps, loads\nsys.exit(loads('0'))\n") == \
        ["line 1: os", "line 3: dumps"]
    assert unused_imports("from __future__ import annotations\nimport a.b as c\nc.d()\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def json_document_calls(source: str) -> list[str]:
    """Whole-file json.dump / json.load calls (and imports of either by name)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and node.attr in ("dump", "load")
                and isinstance(node.value, ast.Name) and node.value.id == "json"):
            found.append((node.lineno, f"json.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "json":
            found += [(node.lineno, f"from json import {a.name}") for a in node.names if a.name in ("dump", "load")]
    return [f"line {line}: {what}" for line, what in sorted(found)]


def test_scan_finds_a_json_document_call():
    source = ("import json\nfrom json import load, loads\njson.dump(d, f)\nline = json.dumps(d)\n"
              "with open(p) as f:\n    d = json.load(f)\nrec = json.loads(line)\n")
    assert json_document_calls(source) == ["line 2: from json import load", "line 3: json.dump",
                                           "line 6: json.load"]


# jsonfile.py alone writes and reads the package's JSON documents
@pytest.mark.parametrize("path", [p for p in MODULES if p.parts[len(ROOT.parts)] == "src" and p.name != "jsonfile.py"],
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_only_jsonfile_writes_and_reads_json_documents(path):
    assert json_document_calls(path.read_text()) == []



PACKAGE_MODULES = frozenset(p.stem for p in (ROOT / "src" / "hoicompose").glob("*.py")) - {"__init__"}


def private_reaches(source: str, modules=PACKAGE_MODULES) -> list[str]:
    """Each import of another package module's _name (from .mod import _name),
    and each read of one through a package module imported by name (mod._name);
    dunder names are exempt. A module's own _names are its own business."""
    tree = ast.parse(source)
    bound, found = set(), []  # bound: the names this module binds to package modules

    def private(name: str) -> bool:
        return name.startswith("_") and not name.endswith("__")

    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "hoicompose"):
            if node.module in (None, "hoicompose"):
                bound |= {a.asname or a.name for a in node.names if a.name in modules}
            else:
                module = node.module.rpartition(".")[2]
                found += [(node.lineno, f"{module}.{a.name}") for a in node.names if private(a.name)]
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in bound
                and private(node.attr)):
            found.append((node.lineno, f"{node.value.id}.{node.attr}"))
    return [f"line {line}: {what}" for line, what in sorted(found)]


def test_scan_finds_a_reach_into_a_private_name():
    source = ("from . import nn, pipeline as pl\nfrom .cli import _helper, main\n"
              "from hoicompose.taxonomy import _check, decouple_verb\nfrom hoicompose import synth\n"
              "import numpy as np\nfrom os import _exit\nnn._numeric_grad(1)\npl._rows\nsynth._seed()\n"
              "nn.__name__\nnn.fd_errors\nnp._core\nself._cache\n_local = 1\n")
    assert private_reaches(source) == ["line 2: cli._helper", "line 3: taxonomy._check",
                                       "line 7: nn._numeric_grad", "line 8: pl._rows", "line 9: synth._seed"]


@pytest.mark.parametrize("path", sorted((ROOT / "src").rglob("*.py")), ids=lambda p: str(p.relative_to(ROOT)))
def test_no_module_reaches_into_another_modules_private_names(path):
    assert private_reaches(path.read_text()) == []

def unsafe_np_loads(source: str) -> list[str]:
    """Each np.load / numpy.load that is not a call passing the literal
    allow_pickle=False, and each import of numpy's load by name: a data file
    must never be able to run code when it is read."""
    tree = ast.parse(source)
    safe = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)
            and any(k.arg == "allow_pickle" and isinstance(k.value, ast.Constant) and k.value.value is False
                    for k in node.keywords)}
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr == "load" and isinstance(node.value, ast.Name)
                and node.value.id in ("np", "numpy") and id(node) not in safe):
            found.append((node.lineno, f"{node.value.id}.load"))
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            found += [(node.lineno, "from numpy import load") for a in node.names if a.name == "load"]
    return [f"line {line}: {what}" for line, what in sorted(found)]


def test_scan_finds_an_unsafe_np_load():
    source = ("import numpy as np\nfrom numpy import load\na = np.load(f, allow_pickle=False)\n"
              "b = np.load(f)\nc = np.load(f, allow_pickle=True)\nflag = False\n"
              "d = np.load(f, allow_pickle=flag)\ne = np.load(f, **kw)\nread = np.load\n"
              "g = numpy.load(f, mmap_mode=None)\nh = np.loads(f)\n")
    assert unsafe_np_loads(source) == ["line 2: from numpy import load", "line 4: np.load", "line 5: np.load",
                                       "line 7: np.load", "line 8: np.load", "line 9: np.load",
                                       "line 10: numpy.load"]


@pytest.mark.parametrize("path", sorted((ROOT / "src").rglob("*.py")), ids=lambda p: str(p.relative_to(ROOT)))
def test_every_np_load_refuses_pickle(path):
    assert unsafe_np_loads(path.read_text()) == []
