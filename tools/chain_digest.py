"""Run the byte-identity chain and print the sha256 of everything it wrote.

    python3 tools/chain_digest.py OUT
    python3 tools/chain_digest.py --check tools/chain.sha256 [OUT]

The chain is gen-data 4000/3200/6400 novel-object at seed 7, then the default
train, zeroshot with write_predictions, build-bank, affordance,
gradcheck --seed 0, the default reproduce-trends and demos/affordance_bank.py,
each in a fresh interpreter that imports this checkout's package, under the
caller's BLAS thread count: the package runs its thread-dependent products on
one OpenBLAS thread, so no byte depends on OPENBLAS_NUM_THREADS. Every step
runs inside OUT on relative paths, so the manifests of two checkouts compare.
Each step's config goes to OUT/configs/<step>.json and its stdout to
OUT/stdout/<step>.txt. The output is a "# " line naming the BLAS the digests
were taken under (numpy version, BLAS name and version, and the core type
OpenBLAS picked its kernels for, from hoicompose.blas.blas_info), then one
"<sha256>  <path>" line per file under OUT, sorted by path; diff two of them
to compare checkouts.

With --check FILE the chain runs into OUT (a temporary directory when OUT is
not given) and is compared with FILE, a recorded output such as
tools/chain.sha256. Each changed, missing or extra path is printed, and any
difference exits 1. A recorded BLAS line that differs from this machine's is
only a warning on stderr, since the BLAS-dependent files may then differ.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))
from hoicompose.blas import blas_info  # this checkout's package, the one the steps import

STEP_TIMEOUT_S = 900

# (step, argv after the interpreter, config or None); each command writes into OUT/<step>
STEPS = [
    ("gen-data", ["-m", "hoicompose", "gen-data"],
     {"dataset": {"n_train": 4000, "n_test": 3200, "n_external_objects": 6400},
      "split": {"mode": "novel-object"}, "seed": 7}),
    ("train", ["-m", "hoicompose", "train"], {"data_dir": "gen-data"}),
    ("zeroshot", ["-m", "hoicompose", "zeroshot"],
     {"data_dir": "gen-data", "checkpoint": "train/checkpoint.json", "write_predictions": True}),
    ("build-bank", ["-m", "hoicompose", "build-bank"], {"data_dir": "gen-data"}),
    ("affordance", ["-m", "hoicompose", "affordance"],
     {"data_dir": "gen-data", "checkpoint": "train/checkpoint.json", "bank": "build-bank/bank.json"}),
    ("gradcheck", ["-m", "hoicompose", "gradcheck", "--seed", "0"], None),
    ("reproduce-trends", ["-m", "hoicompose", "reproduce-trends"], None),
    ("affordance_bank", [str(REPO / "demos" / "affordance_bank.py")], None),
]


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def fingerprint() -> str:
    """The BLAS line of a chain record: the numpy and BLAS the chain's steps import."""
    blas = blas_info()
    return f"# numpy {np.__version__}, {blas['name']} {blas['version']}, core {blas['core']}"


def run_step(out: Path, step: str, argv_tail: list, config) -> None:
    """Run one of STEPS in a fresh interpreter inside out, as the chain runs it."""
    for sub in ("configs", "stdout"):
        (out / sub).mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    cmd = [sys.executable, *argv_tail]
    if argv_tail[:2] == ["-m", "hoicompose"]:
        cmd += ["--out", step]
    if config is not None:
        (out / "configs" / f"{step}.json").write_text(json.dumps(config, sort_keys=True) + "\n")
        cmd += ["--config", f"configs/{step}.json"]
    proc = subprocess.run(cmd, cwd=out, env=env, capture_output=True, text=True, timeout=STEP_TIMEOUT_S)
    if proc.returncode != 0:
        sys.exit(f"{step} exited {proc.returncode}:\n{proc.stderr}")
    (out / "stdout" / f"{step}.txt").write_text(proc.stdout)


def record(out: Path) -> list[str]:
    """The record's lines for the files under out, BLAS line first."""
    return [fingerprint()] + [f"{sha256_file(path)}  {path.relative_to(out).as_posix()}"
                              for path in sorted(p for p in out.rglob("*") if p.is_file())]


def run_chain(out: Path) -> list[str]:
    """Run the chain into the empty directory out; the record's lines."""
    if out.exists() and any(out.iterdir()):
        sys.exit(f"{out} is not empty")
    for step in STEPS:
        run_step(out, *step)
    return record(out)


def digests(lines: list[str]) -> dict:
    """{path: sha256} of a record's digest lines."""
    return {path: sha for sha, path in (line.split("  ", 1) for line in lines if not line.startswith("#"))}


def check(recorded: list[str], lines: list[str]) -> int:
    """Print how lines differ from the recorded ones; 1 if any digest differs, else 0."""
    if recorded[:1] != lines[:1]:
        print(f"warning: recorded under {recorded[0] if recorded else 'nothing'!r}, "
              f"this machine is {lines[0]!r}", file=sys.stderr)
    want, got = digests(recorded), digests(lines)
    diffs = ([f"changed  {p}" for p in sorted(want.keys() & got.keys()) if want[p] != got[p]]
             + [f"missing  {p}" for p in sorted(want.keys() - got.keys())]
             + [f"extra  {p}" for p in sorted(got.keys() - want.keys())])
    print("\n".join(diffs) if diffs else f"all {len(want)} chain files match the record")
    return 1 if diffs else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--check", metavar="FILE", help="compare the chain with this record")
    parser.add_argument("out", nargs="?", help="directory to run the chain in")
    args = parser.parse_args(argv)
    if args.check is None:
        if args.out is None:
            parser.error("OUT is required without --check")
        print("\n".join(run_chain(Path(args.out))))
        return 0
    recorded = Path(args.check).read_text().splitlines()
    if args.out is not None:
        return check(recorded, run_chain(Path(args.out)))
    with tempfile.TemporaryDirectory() as tmp:
        return check(recorded, run_chain(Path(tmp)))


if __name__ == "__main__":
    sys.exit(main())
