"""Run the byte-identity chain into OUT and print the sha256 of everything it wrote.

    python3 tools/chain_digest.py OUT

The chain is gen-data 4000/3200/6400 novel-object at seed 7, then the default
train, zeroshot with write_predictions, build-bank, affordance,
gradcheck --seed 0, the default reproduce-trends and demos/affordance_bank.py,
each in a fresh interpreter that imports this checkout's package, with
OPENBLAS_NUM_THREADS=2 (checkpoint bytes depend on the BLAS thread count).
Every step runs inside OUT on relative paths, so the manifests of two
checkouts compare. Each step's config goes to OUT/configs/<step>.json and its
stdout to OUT/stdout/<step>.txt. The output is one "<sha256>  <path>" line
per file under OUT, sorted by path; diff two of them to compare checkouts.
"""
from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
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


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        sys.exit(__doc__)
    out = Path(args[0])
    if out.exists() and any(out.iterdir()):
        sys.exit(f"{out} is not empty")
    for sub in ("configs", "stdout"):
        (out / sub).mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    for step, argv_tail, config in STEPS:
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
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        print(f"{sha256_file(path)}  {path.relative_to(out).as_posix()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
