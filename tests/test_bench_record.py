"""tools/bench_record.py: the pair bookkeeping behind a committed BENCH_<label>.json."""
import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"


@pytest.fixture(scope="module")
def bench_record():
    spec = importlib.util.spec_from_file_location("bench_record", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def fake_run(side, seed, run_s, trace=0):
    return {"side": side, "workload": "w", "seed": seed, "trace": trace,
            "result": {"metrics": {"run_s": {"value": run_s, "unit": "s"}}}}


def test_summary_pairs_runs_by_seed_and_counts_wins(bench_record):
    # the change wins seeds 0, 1 and 3, ties seed 2 (no win) and loses seed 4;
    # runs arrive in alternating order and a traced run is left out
    parent = [1.0, 2.0, 3.0, 4.0, 5.0]
    change = [0.5, 1.5, 3.0, 3.5, 6.0]
    runs = [fake_run("change", 9, 99.0, trace=1)]
    for seed, (p, c) in enumerate(zip(parent, change)):
        pair = [fake_run("parent", seed, p), fake_run("change", seed, c)]
        runs += pair if seed % 2 == 0 else pair[::-1]
    metric = {"name": "run_s", "unit": "s", "better": "lower", "bound": 0.25}
    s = bench_record.summarize(runs, [metric])["w"]["run_s"]
    assert (s["pairs"], s["change_wins"], s["bound"]) == (5, 3, 0.25)
    assert s["parent"]["values"] == parent and s["change"]["values"] == change
    assert (s["parent"]["q1"], s["parent"]["median"], s["parent"]["q3"]) == (1.5, 3.0, 4.5)
    assert s["median_change"] == pytest.approx(3.0 / 3.0 - 1.0)
    # equal medians: no difference beyond the parent's quartiles (4.5 - 1.5), within the bound
    assert (s["parent_iqr"], s["beyond_parent_iqr"], s["within_bound"]) == (3.0, False, True)
    higher = {**metric, "better": "higher"}
    assert bench_record.summarize(runs, [higher])["w"]["run_s"]["change_wins"] == 1

    # a change at three times the parent: its median is 6.0 above, beyond the
    # quartiles, and +200% is outside a 25% bound when lower is better only
    tripled = [fake_run("parent", seed, p) for seed, p in enumerate(parent)]
    tripled += [fake_run("change", seed, 3 * p) for seed, p in enumerate(parent)]
    s = bench_record.summarize(tripled, [metric])["w"]["run_s"]
    assert (s["change_wins"], s["beyond_parent_iqr"], s["within_bound"]) == (0, True, False)
    summary = bench_record.summarize(tripled, [higher])
    assert summary["w"]["run_s"]["within_bound"] is True
    assert bench_record.summary_lines(summary) == [
        "w run_s: 3 -> 9 s (+200.0%), change wins 5/5, |difference| 6 > parent IQR 3, within bound 25%"]


def test_missing_out_dir_fails_before_any_run(bench_record, tmp_path, monkeypatch, capsys):
    # a missing --out-dir used to surface only at the final write, after every run
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(
        {"run_seconds": 1, "workloads": [{"name": "w"}], "end_to_end": []}))
    calls = []
    monkeypatch.setattr(bench_record, "run_one", lambda *a: calls.append(a))
    with pytest.raises(SystemExit) as exc:
        bench_record.main(["--parent", str(tmp_path), "--change", str(tmp_path), "--label", "x",
                           "--out-dir", str(tmp_path / "missing")])
    assert exc.value.code == 2 and calls == []
    assert "--out-dir" in capsys.readouterr().err
