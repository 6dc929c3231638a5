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


# What may read a package name: the package, the demos, the benchmark and the tools
# (tests and __init__.py's re-exports do not count).
READERS = sorted(p for d in ("src", "demos", "perfbench", "tools") for p in (ROOT / d).rglob("*.py")
                 if p.name != "__init__.py" and not p.name.startswith("test_"))
# Public names that only tests read, each kept for its reason.
UNREAD_ALLOWED = {
    "evaluation.average_precision": "acceptance criterion 3 scores its TP flags with it",
    "evaluation.match_detections": "acceptance criterion 3's matcher; perfbench wraps it by name",
    "seeding.per_instance_rng": "the oracle of instance_rngs",
}


def unread_public_names(package: dict, readers) -> list[str]:
    """module.name of each public top-level def or class of package ({module:
    source}) that no reader source reads as a name or an attribute, sorted."""
    read = set()
    for source in readers:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(f"{module}.{node.name}" for module, source in package.items() for node in ast.parse(source).body
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                  and not node.name.startswith("_") and node.name not in read)


def test_scan_finds_a_public_name_only_tests_read():
    package = {"a": "def used(): pass\ndef lonely(): pass\nclass Kept: pass\ndef _own(): pass\n",
               "b": "from .a import used, lonely\n\ndef helper():\n    return used()\n"}
    readers = [*package.values(), "from hoicompose import a\na.Kept\n"]
    assert unread_public_names(package, readers) == ["a.lonely", "b.helper"]
    assert unread_public_names(package, [*readers, "helper(lonely)\n"]) == []


def test_every_public_name_is_read_outside_tests():
    package = {p.stem: p.read_text() for p in (ROOT / "src" / "hoicompose").glob("*.py") if p.name != "__init__.py"}
    assert unread_public_names(package, [p.read_text() for p in READERS]) == sorted(UNREAD_ALLOWED)


# Defaulted parameters that no call outside tests passes, each kept for its reason.
UNPASSED_ALLOWED = {
    "nn.grad_check(step)": "tests/test_nn.py's finite-difference oracle sweeps it",
    "affordance.recognize(hoi_threshold)": "acceptance criterion 7 calls recognize, which stays as it is",
    "affordance.recognize(keep_threshold)": "acceptance criterion 7 calls recognize, which stays as it is",
}


def unpassed_defaults(package: dict, callers) -> list[str]:
    """module.function(parameter), or module.Class.method(parameter), of each
    defaulted parameter of a def in package ({module: source}) that no call in
    callers passes by position or by keyword, sorted. A call matches every def
    of its name; one with *args or **kwargs passes every parameter."""
    positions, keywords, everything = {}, {}, set()  # per called name
    for source in callers:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
                positions[name] = max(positions.get(name, 0), len(node.args))
                keywords.setdefault(name, set()).update(k.arg for k in node.keywords)
                if any(isinstance(a, ast.Starred) for a in node.args) or None in keywords[name]:
                    everything.add(name)
    found = []
    for module, source in package.items():
        tree = ast.parse(source)
        owner = {id(f): c.name for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for f in c.body}
        for f in ast.walk(tree):
            if not isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef)) or f.name in everything:
                continue
            params = [*f.args.posonlyargs, *f.args.args][id(f) in owner:]  # a method's self is passed
            defaulted = list(enumerate(params))[len(params) - len(f.args.defaults):]
            defaulted += [(len(params), p) for p, d in zip(f.args.kwonlyargs, f.args.kw_defaults) if d is not None]
            where = ".".join([module, *([owner[id(f)]] if id(f) in owner else []), f.name])
            found += [f"{where}({p.arg})" for i, p in defaulted
                      if i >= positions.get(f.name, 0) and p.arg not in keywords.get(f.name, ())]
    return sorted(found)


def test_scan_finds_a_defaulted_parameter_no_call_passes():
    package = {"a": "def f(x, y=1, z=2, *, w=3): pass\nclass C:\n    def m(self, p=0, q=1): pass\n"
                    "def g(v=0):\n    return f(0, 5)\n"}
    callers = [*package.values(), "C().m(7)\nf(x=0, y=[] if g(v=1) else None)\n"]
    assert unpassed_defaults(package, callers) == ["a.C.m(q)", "a.f(w)", "a.f(z)"]
    assert unpassed_defaults(package, [*callers, "f(0, 1, 2, w=3)\nobj.m(*args)\n"]) == []
    assert unpassed_defaults(package, [*callers, "f(**kw)\nm(1, 2)\n"]) == []


def test_every_defaulted_parameter_is_passed_outside_tests():
    package = {p.stem: p.read_text() for p in (ROOT / "src" / "hoicompose").glob("*.py") if p.name != "__init__.py"}
    assert unpassed_defaults(package, [p.read_text() for p in READERS]) == sorted(UNPASSED_ALLOWED)


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
