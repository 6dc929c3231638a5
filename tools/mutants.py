"""Run the committed mutation checks: each mutant of tools/mutants.json must make its tests fail.

    python3 tools/mutants.py [NAME ...]

Each entry of mutants.json names a mutant, a file of this tree, an exact
snippet of that file, its replacement and the pytest node ids that must fail
with it. For each entry (or each one named) the tool copies the tree into a
temporary directory, replaces the snippet there and runs only those node ids,
with the package imported from the copy and a fixed --hypothesis-seed. The
mutant is killed when pytest reports a failure, survived when every node id
passes, and stale when its snippet does not occur exactly once or pytest
cannot run the node ids (then it is not a check at all). One line per mutant
goes to stdout, then the counts and the seconds taken. Exits 1 on any
survivor or stale entry. Nothing is written outside the temporary directory.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIST = ROOT / "tools" / "mutants.json"
HYPOTHESIS_SEED = 0
TIMEOUT_S = 600
# what a copy leaves out: version control, caches and recordings
IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", ".perfbench_out",
                                 "BENCH_*.json")


def load(path: Path = LIST) -> list[dict]:
    """The entries of a mutants.json file, each checked for its keys."""
    entries = json.loads(path.read_text())
    for entry in entries:
        if set(entry) != {"name", "file", "snippet", "replacement", "tests"} or not entry["tests"]:
            raise ValueError(f"malformed mutant entry: {entry}")
    return entries


def run(entry: dict, tree: Path = ROOT) -> str:
    """'killed', 'survived' or 'stale' for one entry, tried on a copy of tree."""
    source = (tree / entry["file"]).read_text()
    if source.count(entry["snippet"]) != 1:
        return "stale"
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp) / "tree"
        shutil.copytree(tree, copy, ignore=IGNORED)
        (copy / entry["file"]).write_text(source.replace(entry["snippet"], entry["replacement"]))
        env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
               f"--hypothesis-seed={HYPOTHESIS_SEED}", *entry["tests"]]
        try:
            proc = subprocess.run(cmd, cwd=copy, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:  # a mutant that hangs its tests fails them
            return "killed"
    # pytest exits 1 when a test failed, 0 when all passed; anything else means
    # the node ids could not run (not found, a usage or collection error)
    return {0: "survived", 1: "killed"}.get(proc.returncode, "stale")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help="run only these mutants")
    args = parser.parse_args(argv)
    entries = load()
    unknown = set(args.names) - {e["name"] for e in entries}
    if unknown:
        parser.error(f"no such mutants: {sorted(unknown)}")
    start, counts = time.perf_counter(), {"killed": 0, "survived": 0, "stale": 0}
    for entry in entries:
        if args.names and entry["name"] not in args.names:
            continue
        outcome = run(entry)
        counts[outcome] += 1
        print(f"{outcome:8} {entry['name']}", flush=True)
    print(f"{counts['killed']} killed, {counts['survived']} survived, {counts['stale']} stale "
          f"in {time.perf_counter() - start:.0f} s")
    return 1 if counts["survived"] or counts["stale"] else 0


if __name__ == "__main__":
    sys.exit(main())
