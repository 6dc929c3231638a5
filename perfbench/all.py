"""Run every workload untraced and traced, one after the other, and print a table.

    python3 perfbench/all.py [--seed 0]

Every workload of BENCHMARK.json runs for its run_seconds, each run as
``perfbench/run.py`` in its own process. The table gives every end-to-end
metric with its unit, the quality values each workload produces (checked
against reference.json, not gated by a bound) and failed/attempted
operations, then every per-layer metric of the traced runs with the tracing
overhead, and the determinism digests of each run.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
RUN_TIMEOUT_S = 900


def run_one(workload: str, seed: int, trace: int):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(BENCH["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-1]), json.loads(lines[-2])


def fmt(value: float) -> str:
    return f"{value:.4g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=0)
    args = p.parse_args(argv)
    names = [w["name"] for w in BENCH["workloads"]]

    results = {(w, t): run_one(w, args.seed, t) for w in names for t in (0, 1)}
    width = max(len(m["name"]) for m in BENCH["end_to_end"] + BENCH["per_layer"]) + 2

    def table(kind: str, trace: int, extra_rows) -> None:
        print(f"{'metric':<{width}}{'unit':<7}" + "".join(f"{w:>18}" for w in names))
        for m in BENCH[kind]:
            cells = "".join(f"{fmt(results[w, trace][0]['metrics'][m['name']]['value']):>18}" for w in names)
            print(f"{m['name']:<{width}}{m['unit']:<7}{cells}")
        for label, unit, cell in extra_rows:
            print(f"{label:<{width}}{unit:<7}" + "".join(f"{cell(w):>18}" for w in names))
        print()

    def quality(name: str):
        def cell(w):
            q = results[w, 0][1]["quality"].get(name)
            return "-" if q is None else fmt(q["value"])
        return cell

    def share(trace):
        return lambda w: (f"{results[w, trace][0]['failed']}/{results[w, trace][0]['attempted']}"
                          + ("" if results[w, trace][0]["correct"] else " BAD"))

    print(f"seed {args.seed}, {BENCH['run_seconds']} s per run; machine: "
          f"{json.dumps(results[names[0], 0][1]['machine'], sort_keys=True)}\n")
    quality_rows = [(name, "ratio", quality(name))
                    for name in ("unseen_map", "seen_map", "affordance_f1", "affordance_map")]
    table("end_to_end", 0, quality_rows + [
        ("failed/attempted", "", share(0)),
        ("run_s samples", "", lambda w: str(len(results[w, 0][1]["run_samples_s"])))])
    table("per_layer", 1, [("failed/attempted", "", share(1))])
    for w in names:
        for t in (0, 1):
            result, record = results[w, t]
            print(f"{w} trace={t} digests: {json.dumps(record['digests'], sort_keys=True)}")
            for flag in record["digest_flags"]:
                print(f"  DIGEST CHANGED {flag}")
            for failure in record["failures"]:
                print(f"  FAILED {failure['op']}: {failure['problems']}")
            for problem in record.get("span_problems", []):
                print(f"  SPAN {problem}")
    return 0 if all(r[0]["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
