"""Record one change's perf trajectory: parent and change, every workload, into BENCH_<label>.json.

    python3 tools/bench_record.py --parent PARENT_TREE --change CHANGE_TREE --label 7 [--out-dir DIR]

Each tree runs its own ``perfbench/run.py`` in a fresh process, for the
``run_seconds`` of the change's ``BENCHMARK.json``. Untraced runs come in
``PAIRS`` pairs: pair k runs both trees at workload seed ``SEED + k``, the
parent first when k is even and the change first when k is odd; ten pairs is
the fewest a gain claim is judged on. One traced run per tree and workload, at
``SEED``, gives the per-layer metrics. The file keeps every run's
result, output digests and quality values, each tree's machine info, and for
each workload and end-to-end metric both sides' medians and quartiles, the
number of pairs the change won, whether the medians differ by more than the
parent's interquartile range and whether the change stays within the metric's
bound; those last are also printed to stderr, one line each. The output
digests do not depend on ``OPENBLAS_NUM_THREADS``, but the timings do: both
trees run under the caller's setting, so state it with the recording.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN_TIMEOUT_S = 900
PAIRS = 10
SEED = 0
SIDES = ("parent", "change")


def run_one(tree: Path, workload: str, seed: int, seconds: float, trace: int):
    """One perfbench run of tree: (run entry, machine info)."""
    cmd = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S, cwd=tree)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result, record = json.loads(lines[-1]), json.loads(lines[-2])
    entry = {"workload": workload, "seed": seed, "trace": trace, "result": result,
             **{k: record[k] for k in ("digests", "digest_flags", "quality", "failures")}}
    return entry, record["machine"]


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def summarize(runs: list[dict], end_to_end: list[dict]) -> dict:
    """Per workload and end-to-end metric: each side's spread and the pairs the change won."""
    out = {}
    for run in runs:
        if run["trace"] == 0:
            out.setdefault(run["workload"], {}).setdefault(run["seed"], {})[run["side"]] = run
    summary = {}
    for workload, pairs in out.items():
        summary[workload] = {}
        for metric in end_to_end:
            name, lower = metric["name"], metric["better"] == "lower"
            values = {side: [pairs[s][side]["result"]["metrics"][name]["value"] for s in sorted(pairs)]
                      for side in SIDES}
            wins = sum((c < p) if lower else (c > p) for p, c in zip(values["parent"], values["change"]))
            sides = {side: spread(values[side]) for side in SIDES}
            parent, change = sides["parent"], sides["change"]
            median_change = change["median"] / parent["median"] - 1.0
            iqr = parent["q3"] - parent["q1"]
            summary[workload][name] = {
                **sides, "unit": metric["unit"], "bound": metric["bound"], "pairs": len(pairs),
                "change_wins": wins, "median_change": median_change, "parent_iqr": iqr,
                "beyond_parent_iqr": abs(change["median"] - parent["median"]) > iqr,
                "within_bound": (median_change if lower else -median_change) <= metric["bound"],
            }
    return summary


def summary_lines(summary: dict) -> list[str]:
    """One line per workload and end-to-end metric: the medians, the pairs the
    change won, the median difference against the parent's interquartile range,
    and whether the change stays within the metric's bound."""
    lines = []
    for workload, metrics in summary.items():
        for name, m in metrics.items():
            p, c, unit = m["parent"]["median"], m["change"]["median"], m["unit"]
            lines.append(
                f"{workload} {name}: {p:.4g} -> {c:.4g} {unit} ({m['median_change']:+.1%}), "
                f"change wins {m['change_wins']}/{m['pairs']}, |difference| {abs(c - p):.4g} "
                f"{'>' if m['beyond_parent_iqr'] else '<='} parent IQR {m['parent_iqr']:.4g}, "
                f"{'within' if m['within_bound'] else 'OUTSIDE'} bound {m['bound']:.0%}")
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", type=Path, required=True, help="source tree of the parent commit")
    p.add_argument("--change", type=Path, required=True, help="source tree of the change")
    p.add_argument("--label", required=True, help="names the output file BENCH_<label>.json")
    p.add_argument("--out-dir", type=Path, default=Path("."))
    args = p.parse_args(argv)
    if not args.out_dir.is_dir():  # fail now, not at the write after every run
        p.error(f"--out-dir {args.out_dir} is not a directory")
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    bench = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    machines, runs = {}, []

    def record(side: str, workload: str, seed: int, trace: int) -> None:
        print(f"{side} {workload} seed {seed} trace {trace}", file=sys.stderr, flush=True)
        entry, machines[side] = run_one(trees[side], workload, seed, seconds, trace)
        runs.append({"side": side, **entry})

    for workload in (w["name"] for w in bench["workloads"]):
        for k in range(PAIRS):
            for side in SIDES if k % 2 == 0 else SIDES[::-1]:
                record(side, workload, SEED + k, 0)
        for side in SIDES:
            record(side, workload, SEED, 1)

    per_layer = {}
    for run in runs:
        if run["trace"] == 1:
            per_layer.setdefault(run["workload"], {})[run["side"]] = {
                name: m["value"] for name, m in run["result"]["metrics"].items()}
    doc = {
        "label": args.label, "run_seconds": seconds, "seed": SEED, "pairs": PAIRS,
        "machines": machines,
        "summary": summarize(runs, bench["end_to_end"]),
        "per_layer": per_layer,
        "all_correct": all(run["result"]["correct"] for run in runs),
        "runs": runs,
    }
    path = args.out_dir / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}", *summary_lines(doc["summary"]), sep="\n", file=sys.stderr)
    return 0 if doc["all_correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
