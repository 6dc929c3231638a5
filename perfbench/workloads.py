"""The benchmark's three workloads, their output checks and their result.

Each workload is a closed loop with one caller in one process: the next
operation starts when the previous one has returned. An operation is one seed
of ``trends`` or one CLI command of ``eval_scale`` and ``affordance_scale``.

- ``trends`` times ``experiments.reproduce_trends`` over two seeds (the given
  one and the next) at default ``TrendSettings``; it is training-dominated.
  Its set-up is the package import plus a small warm-up run.
- ``eval_scale`` times the ``zeroshot`` command on a 3,200-instance test set.
  No training runs in it: evaluation and the read path dominate.
- ``affordance_scale`` times ``build-bank`` then ``affordance`` over 6,400
  external objects: many small classifier forwards.

The two CLI workloads share one set-up, ``gen-data`` then ``train``, run in a
child process so that the peak memory of the workload process is its own.

An operation fails if it raises, exits non-zero, fails a trend check, gives a
non-finite quality value, gives a quality value off ``reference.json`` (for
the seeds recorded there), or writes an output whose digest differs from the
same output earlier in the run.
"""
from __future__ import annotations

import hashlib
import io
import json
import math
import resource
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import asdict, dataclass, field
from pathlib import Path
from time import perf_counter

import layers
from tracer import Tracer

from hoicompose import cli
from hoicompose.experiments import TrendSettings, reproduce_trends
from hoicompose.pipeline import TrainConfig

WORKLOADS = ("trends", "eval_scale", "affordance_scale")
SETUP_REPEATS = 3
# Quality values are deterministic; a reference differs only after a real change.
REFERENCE_ABS_TOL = 1e-9
CHILD_TIMEOUT_S = 170
QUALITY_UNIT = "ratio"
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


@dataclass(frozen=True)
class Sizes:
    """Input sizes of one benchmark configuration; reference.json is for FULL."""

    label: str
    trend: dict = field(default_factory=dict)  # TrendSettings fields besides seeds/train
    train: dict = field(default_factory=dict)  # TrainConfig fields
    dataset: dict = field(default_factory=dict)  # gen-data "dataset" section
    warmup: dict = field(default_factory=dict)  # TrendSettings fields of the trends warm-up


FULL = Sizes(
    label="full",
    dataset={"n_train": 4000, "n_test": 3200, "n_external_objects": 6400},
    warmup={"n_train": 500, "n_test": 200, "n_external": 200, "train": {"iterations": 300}},
)
TOY = Sizes(
    label="toy",
    trend={"n_train": 80, "n_test": 40, "n_external": 40},
    train={"iterations": 10},
    dataset={"n_train": 120, "n_test": 60, "n_external_objects": 120},
    warmup={"n_train": 40, "n_test": 20, "n_external": 20, "train": {"iterations": 5}},
)

# Runs the set-up commands in a fresh interpreter: argv[1] is the source
# directory, argv[2] a JSON list of CLI argument lists.
_SETUP_SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
from hoicompose.cli import main
for argv in json.loads(sys.argv[2]):
    rc = main(argv)
    if rc:
        sys.exit(rc)
"""


class SetupError(RuntimeError):
    pass


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def sha256_json(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def load_reference() -> dict:
    with open(REFERENCE_PATH) as f:
        return json.load(f)


@dataclass
class Outcome:
    """One operation: what ran and, if it failed, why."""

    op: str
    problems: list = field(default_factory=list)


class Run:
    """What one benchmark run accumulates: outcomes, digests and quality values."""

    def __init__(self, seed: int, sizes: Sizes, reference: dict, tracer: Tracer):
        self.seed = seed
        self.sizes = sizes
        self.reference = reference  # {"trends"|"cli": {seed: values}}
        self.tracer = tracer
        self.outcomes: list[Outcome] = []
        self.digests: dict[str, str] = {}
        self.quality: dict[str, float] = {}
        self.details: dict = {}

    def outcome(self, op: str) -> Outcome:
        self.outcomes.append(Outcome(op))
        return self.outcomes[-1]

    def digest(self, outcome: Outcome, name: str, value: str) -> None:
        """Record a digest; a second value for the same output fails the operation."""
        first = self.digests.setdefault(name, value)
        if first != value:
            outcome.problems.append(f"{name} digest changed within the run: {first} -> {value}")

    def check_quality(self, outcome: Outcome, values: dict, reference: dict | None) -> None:
        for key, value in values.items():
            if not math.isfinite(value):
                outcome.problems.append(f"{key} is not finite: {value}")
            elif reference is not None and abs(value - reference[key]) > REFERENCE_ABS_TOL:
                outcome.problems.append(f"{key} {value!r} differs from reference {reference[key]!r}")


def trend_settings(seeds, spec: dict) -> TrendSettings:
    spec = dict(spec)
    train = TrainConfig(**spec.pop("train", {}))
    return TrendSettings(seeds=tuple(seeds), train=train, **spec)


class Trends:
    def __init__(self, run: Run, work: Path):
        self.run = run
        self.settings = trend_settings((run.seed, run.seed + 1),
                                        {**run.sizes.trend, "train": run.sizes.train})
        self.inputs = asdict(self.settings)

    # An operation is longer than a third of a run, so it is measured after all warm-ups.
    interleaved = False

    def setup(self) -> None:
        """A small warm-up run; the caller times the import separately."""
        reproduce_trends(trend_settings((self.run.seed,), self.run.sizes.warmup))

    def op(self) -> None:
        run = self.run
        outcomes = [run.outcome(f"trends seed {s}") for s in self.settings.seeds]
        try:
            report = reproduce_trends(self.settings)
        except Exception:
            for o in outcomes:
                o.problems.append(traceback.format_exc())
            return
        failed_checks = [name for name, ok in report.checks.items() if not ok]
        refs = run.reference.get("trends", {})
        for o, metrics in zip(outcomes, report.per_seed):
            if failed_checks:
                o.problems.append(f"trend checks failed: {failed_checks}")
            values = {k: v for k, v in metrics.items() if isinstance(v, float)}
            run.check_quality(o, values, refs.get(str(metrics["seed"])))
            run.digest(o, f"trends_seed{metrics['seed']}_metrics", sha256_json(metrics))
        run.details["trend_per_seed"] = report.per_seed
        run.details["trend_checks"] = report.checks
        med = report.medians
        run.quality = {"unseen_map": med["atl_unseen_map"], "seen_map": med["atl_seen_map"],
                       "affordance_f1": med["atl_affordance_f1"],
                       "affordance_map": med["atl_affordance_map"]}


class CliWorkload:
    """gen-data -> train set-up, then the timed commands, all in one work directory."""

    timed: tuple = ()
    # Operations are short, so samples are taken after each set-up and spread
    # over the whole run; one slow phase of a shared machine then weighs less.
    interleaved = True

    def __init__(self, run: Run, work: Path):
        self.run = run
        data = work / "data"
        self.outs = {"gen-data": data, "train": work / "train", "zeroshot": work / "zeroshot",
                     "build-bank": work / "bank", "affordance": work / "affordance"}
        checkpoint = str(self.outs["train"] / "checkpoint.json")
        configs = {
            "gen-data": {"dataset": run.sizes.dataset, "split": {"mode": "novel-object"}},
            "train": {"data_dir": str(data), "train": run.sizes.train},
            "zeroshot": {"data_dir": str(data), "checkpoint": checkpoint},
            "build-bank": {"data_dir": str(data)},
            "affordance": {"data_dir": str(data), "checkpoint": checkpoint,
                           "bank": str(self.outs["build-bank"] / "bank.json")},
        }
        self.inputs = {"dataset": run.sizes.dataset, "train": asdict(TrainConfig(**run.sizes.train))}
        self.argv = {}
        for command, cfg in configs.items():
            path = work / f"{command}.json"
            path.write_text(json.dumps(cfg, sort_keys=True))
            self.argv[command] = [command, "--config", str(path), "--seed", str(run.seed),
                                  "--out", str(self.outs[command])]

    def setup(self) -> None:
        """Run gen-data and train in a child interpreter."""
        src = str(Path(cli.__file__).resolve().parent.parent)
        argvs = json.dumps([self.argv["gen-data"], self.argv["train"]])
        proc = subprocess.run([sys.executable, "-c", _SETUP_SCRIPT, src, argvs],
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise SetupError(f"set-up exited {proc.returncode}: {proc.stderr.strip()}")
        self._check_checkpoint()

    def setup_in_process(self) -> None:
        """The same set-up once, in this process, so that a tracer can see it."""
        for command in ("gen-data", "train"):
            outcome = Outcome(command)
            if self._command(command, outcome) != 0:
                raise SetupError(f"{command} failed: {outcome.problems}")
        self._check_checkpoint()

    def _check_checkpoint(self) -> None:
        digest = sha256_file(self.outs["train"] / "checkpoint.json")
        if self.run.digests.setdefault("checkpoint.json", digest) != digest:
            raise SetupError("checkpoint.json differs between set-ups of the same seed")

    def _command(self, command: str, outcome: Outcome) -> int:
        with self.run.tracer.span(f"cli.{command}"), redirect_stdout(io.StringIO()), \
                redirect_stderr(io.StringIO()) as err:
            rc = cli.main(self.argv[command])
        if rc != 0:
            outcome.problems.append(f"{command} exited {rc}: {err.getvalue().strip()}")
        return rc

    def run_command(self, command: str) -> None:
        run = self.run
        outcome = run.outcome(command)
        try:
            if self._command(command, outcome) != 0:
                return
            out = self.outs[command]
            if command == "zeroshot":
                run.digest(outcome, "report.json", sha256_file(out / "report.json"))
                groups = json.loads((out / "report.json").read_text())["groups"]
                values = {"unseen_map": groups["unseen"]["map"], "seen_map": groups["seen"]["map"]}
            elif command == "build-bank":
                run.digest(outcome, "bank.json", sha256_file(out / "bank.json"))
                return
            else:
                run.digest(outcome, "affordance.json", sha256_file(out / "affordance.json"))
                doc = json.loads((out / "affordance.json").read_text())
                values = {"affordance_f1": doc["prf1"]["micro_f1"], "affordance_map": doc["affordance_map"]}
            values = {k: float("nan") if v is None else float(v) for k, v in values.items()}
            refs = run.reference.get("cli", {}).get(str(run.seed), {})
            run.check_quality(outcome, values, refs.get(command))
            run.quality.update(values)
        except Exception:
            outcome.problems.append(traceback.format_exc())

    def op(self) -> None:
        for command in self.timed:
            self.run_command(command)


class EvalScale(CliWorkload):
    timed = ("zeroshot",)


class AffordanceScale(CliWorkload):
    timed = ("build-bank", "affordance")


CLASSES = {"trends": Trends, "eval_scale": EvalScale, "affordance_scale": AffordanceScale}


def measure(op, seconds: float) -> list[float]:
    """Run op back to back until `seconds` have passed (at least once); return each wall time."""
    times = []
    deadline = perf_counter() + seconds
    while True:
        t0 = perf_counter()
        op()
        times.append(perf_counter() - t0)
        if perf_counter() >= deadline:
            return times


def run_workload(workload: str, seed: int, seconds: float, trace: bool, work: Path,
                 import_s: float, sizes: Sizes = FULL, reference: dict | None = None):
    """Set up and measure one workload; return (result, record).

    Quality values are checked against `reference`, which defaults to
    reference.json at full sizes and to none at other sizes. Without trace the
    result holds the end-to-end metrics; with trace, the per-layer ones.
    """
    if reference is None:
        reference = load_reference() if sizes == FULL else {}
    work.mkdir(parents=True, exist_ok=True)
    tracer = Tracer()
    run = Run(seed, sizes, reference, tracer)
    w = CLASSES[workload](run, work)
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
              "sizes": sizes.label, "inputs": w.inputs, "import_s": import_s}
    if not trace:
        setup_times, run_times = [], []
        for _ in range(SETUP_REPEATS):
            t0 = perf_counter()
            w.setup()
            setup_times.append(perf_counter() - t0)
            if w.interleaved:
                run_times += measure(w.op, seconds / SETUP_REPEATS)
        if not w.interleaved:
            run_times = measure(w.op, seconds)
        values = {
            # trends pays the import in this process; the CLI set-up child pays its own.
            "setup_s": statistics.median(setup_times) + (import_s if workload == "trends" else 0.0),
            "run_s": statistics.median(run_times),
            "peak_rss_mb": peak_rss_mb(),
        }
        units = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}
        metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
        record.update(setup_samples_s=setup_times, run_samples_s=run_times)
    else:
        if isinstance(w, CliWorkload):
            with tracer.installed(layers.TARGETS), tracer.run_scope("setup"):
                w.setup_in_process()
        else:
            w.setup()  # the trends warm-up is not the program's own work: untraced
        first_op = len(tracer.run_ids)
        untraced, traced = [], []

        def op_pair():
            """An untraced operation, then a traced one, so both see the same machine phase."""
            t0 = perf_counter()
            w.op()
            untraced.append(perf_counter() - t0)
            with tracer.installed(layers.TARGETS):
                t0 = perf_counter()
                with tracer.run_scope(f"op{len(tracer.run_ids) - first_op}"):
                    w.op()
                traced.append(perf_counter() - t0)

        measure(op_pair, seconds)
        totals, walls, problems = tracer.summarize()
        untraced_s, traced_s = statistics.median(untraced), statistics.median(traced)
        metrics = layers.per_layer_metrics(totals, walls, untraced_s, traced_s)
        trace_path = work.parent / f"trace_{workload}_seed{seed}.npz"
        tracer.write(trace_path)
        record.update(untraced_samples_s=untraced, traced_samples_s=traced, span_problems=problems,
                      spans=len(tracer.start), trace_file=trace_path.name,
                      self_s_by_span=layers.seconds_by_span(totals, "self_ns"),
                      wall_s_by_span=layers.seconds_by_span(totals, "wall_ns"))
    failed = [o for o in run.outcomes if o.problems]
    record.update(digests=run.digests, **run.details,
                  quality={k: {"value": v, "unit": QUALITY_UNIT} for k, v in run.quality.items()},
                  failures=[asdict(o) for o in failed])
    result = {"correct": not failed and not record.get("span_problems"),
              "attempted": len(run.outcomes), "failed": len(failed), "metrics": metrics}
    return result, record
