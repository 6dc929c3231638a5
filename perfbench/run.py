"""hoicompose benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload trends --seed 0 --seconds 20 --trace 0

Run from anywhere inside a source checkout; the package is imported from the
checkout's ``src/``. The last line of standard output is the result,
``{"correct", "attempted", "failed", "metrics"}``; the line before it is the
run's record (machine, sizes, samples, determinism digests, failures), which
is also written to ``.perfbench_out/`` with the span trace of a traced run.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` wraps the
package's public functions and reports the per-layer metrics instead.

Digests of ``checkpoint.json``, ``report.json``, ``bank.json``,
``affordance.json`` and the trend per-seed metrics are kept in
``.perfbench_out/digests.json`` per source tree, workload and seed; a run
whose digests differ from an earlier run of the same source is not correct.
"""
from __future__ import annotations

import argparse
import ctypes
import hashlib
import importlib
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("trends", "eval_scale", "affordance_scale")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "hoicompose").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_sha() -> str | None:
    """HEAD of the checkout; None when the checkout is not itself a git repository."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def blas_info(np) -> dict:
    """BLAS library and its thread pool size, from the loaded OpenBLAS when there is one."""
    build = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    info = {"name": build.get("name"), "version": build.get("version"), "threads": None}
    try:
        with open("/proc/self/maps") as f:
            libs = sorted({line.split()[-1] for line in f if "openblas" in line.lower()})
    except OSError:
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                info["library"] = Path(path).name
                return info
    return info


def machine_info() -> dict:
    import numpy as np

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(np),
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
    }


def check_ledger(record: dict) -> list[str]:
    """Compare this run's digests with earlier runs of the same source, workload and seed."""
    path = OUT / "digests.json"
    ledger = json.loads(path.read_text()) if path.is_file() else {}
    key = ":".join([record["machine"]["source_sha256"], record["workload"], str(record["seed"]),
                    record["sizes"]])
    known = ledger.setdefault(key, {})
    flags = [f"{name}: {known[name]} earlier, {digest} now"
             for name, digest in record["digests"].items() if known.get(name, digest) != digest]
    for name, digest in record["digests"].items():
        known.setdefault(name, digest)
    path.write_text(json.dumps(ledger, indent=1, sort_keys=True))
    return flags


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "hoicompose" / "__init__.py").is_file():
        print(f"benchmark: no hoicompose sources under {SRC}", file=sys.stderr)
        return 2
    t0 = perf_counter()
    sys.path.insert(0, str(SRC))
    importlib.import_module("hoicompose.cli")
    import_s = perf_counter() - t0

    import workloads

    OUT.mkdir(exist_ok=True)
    work = OUT / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    try:
        result, record = workloads.run_workload(args.workload, args.seed, args.seconds,
                                                bool(args.trace), work, import_s)
    except workloads.SetupError as e:
        print(f"benchmark: set-up failed: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record["machine"] = machine_info()
    record["digest_flags"] = check_ledger(record)
    if record["digest_flags"]:
        result["correct"] = False
    (OUT / f"record_{args.workload}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
