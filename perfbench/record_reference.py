"""Record the quality reference values the benchmark checks outputs against.

    python3 perfbench/record_reference.py --seeds 20

For workload seeds 0 .. N-1 it writes to perfbench/reference.json the trend
per-seed metrics (seeds 0 .. N, since a trends run at seed s covers s and
s+1) and the zeroshot and affordance quality values of the CLI workloads,
all at full benchmark sizes. Run it only when a change is meant to alter
these values, and say so with the change.
"""
from __future__ import annotations

import argparse
import json
import shutil
import sys
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

from hoicompose.experiments import run_trend_seed  # noqa: E402


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=int, required=True, help="record workload seeds 0 .. N-1")
    args = p.parse_args(argv)
    sizes = workloads.FULL
    settings = workloads.trend_settings((0,), {**sizes.trend, "train": sizes.train})
    reference = {"trends": {}, "cli": {}}
    for seed in range(args.seeds + 1):
        metrics = run_trend_seed(seed, replace(settings, seeds=(seed,))).metrics
        reference["trends"][str(seed)] = {k: v for k, v in metrics.items() if isinstance(v, float)}
        print(f"trends seed {seed} recorded", flush=True)

    work = ROOT / ".perfbench_out" / "reference"
    for seed in range(args.seeds):
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        run = workloads.Run(seed, sizes, {}, Tracer())
        w = workloads.CliWorkload(run, work)
        w.setup_in_process()
        for command in ("zeroshot", "build-bank", "affordance"):
            w.run_command(command)
        failed = [o for o in run.outcomes if o.problems]
        if failed:
            sys.exit(f"seed {seed}: {failed}")
        q = run.quality
        reference["cli"][str(seed)] = {
            "zeroshot": {"unseen_map": q["unseen_map"], "seen_map": q["seen_map"]},
            "affordance": {"affordance_f1": q["affordance_f1"], "affordance_map": q["affordance_map"]},
        }
        print(f"cli seed {seed} recorded", flush=True)
    shutil.rmtree(work, ignore_errors=True)
    workloads.REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
