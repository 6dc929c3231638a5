"""tools/chain_digest.py's record check, and the committed record tools/chain.sha256."""
import hashlib
import importlib.util
import json
import re
from pathlib import Path

import pytest
from test_acceptance import CHAIN_TRENDS_JSON_SHA256, CHAIN_TRENDS_STDOUT_SHA256
from test_cli import (CHAIN_BUILD_BANK_SHA256, CHAIN_BUILD_BANK_STDOUT_SHA256, CHAIN_GEN_DATA_SHA256,
                      CHAIN_GEN_DATA_STDOUT_SHA256, CHAIN_STDOUT_SHA256, CHAIN_THREAD_FREE_SHA256)
from test_pipeline import checkpoint_to_json_dict

from hoicompose import cli
from hoicompose.blas import blas_info
from hoicompose.experiments import TrendSettings
from hoicompose.jsonfile import write_json
from hoicompose.pipeline import load_checkpoint

TOOLS = Path(__file__).resolve().parent.parent / "tools"
# the record's train/checkpoint.json when it was schema 2, every weight a JSON number
CHAIN_CHECKPOINT_SCHEMA_2_SHA256 = "360740402f8c91056fa33c5a7f79f55a21a0dc010699cc859c7e128a68d9e6cf"


@pytest.fixture(scope="module")
def chain_digest():
    spec = importlib.util.spec_from_file_location("chain_digest", TOOLS / "chain_digest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BLAS = "# numpy 2.0, openblas 0.3, core Haswell"
RECORD = [BLAS, f"{'a' * 64}  gen-data/split.json", f"{'b' * 64}  train/checkpoint.json",
          f"{'c' * 64}  stdout/train.txt"]


def test_check_passes_an_equal_record(chain_digest, capsys):
    assert chain_digest.check(RECORD, list(RECORD)) == 0
    out, err = capsys.readouterr()
    assert out == "all 3 chain files match the record\n" and err == ""


def test_check_names_each_changed_missing_and_extra_path(chain_digest, capsys):
    lines = [BLAS.replace("0.3", "0.4"), f"{'a' * 64}  gen-data/split.json",
             f"{'d' * 64}  train/checkpoint.json", f"{'e' * 64}  train/trace.csv"]
    assert chain_digest.check(RECORD, lines) == 1
    out, err = capsys.readouterr()
    assert out.splitlines() == ["changed  train/checkpoint.json", "missing  stdout/train.txt",
                                "extra  train/trace.csv"]
    assert err.startswith("warning: recorded under '# numpy 2.0, openblas 0.3,")


def test_a_blas_difference_alone_passes_with_a_warning(chain_digest, capsys):
    assert chain_digest.check(RECORD, ["# numpy 2.1, openblas 0.3, core Haswell"] + RECORD[1:]) == 0
    assert "warning" in capsys.readouterr().err


# the 32 chain files tier-1 pins elsewhere, which do not depend on the BLAS; the
# other 21 (checkpoint and its arrays, trace, predictions, the manifests with their
# blas block, the train and gradcheck outputs, the demo's stdout, the configs)
# depend on the BLAS build, not on its thread count, and are compared under the
# record's own BLAS only
THREAD_FREE = {**{f"gen-data/{k}": v for k, v in CHAIN_GEN_DATA_SHA256.items()},
               **{f"build-bank/{k}": v for k, v in CHAIN_BUILD_BANK_SHA256.items()},
               **CHAIN_THREAD_FREE_SHA256,
               **{f"stdout/{k}.txt": v for k, v in CHAIN_STDOUT_SHA256.items()},
               "stdout/gen-data.txt": CHAIN_GEN_DATA_STDOUT_SHA256,
               "stdout/build-bank.txt": CHAIN_BUILD_BANK_STDOUT_SHA256,
               "reproduce-trends/trends.json": CHAIN_TRENDS_JSON_SHA256,
               "stdout/reproduce-trends.txt": CHAIN_TRENDS_STDOUT_SHA256}


def test_committed_record_holds_the_digests_tier_1_pins(chain_digest):
    lines = (TOOLS / "chain.sha256").read_text().splitlines()
    assert re.fullmatch(r"# numpy \S+, \S+ \S+, core \S+", lines[0])  # the build, no thread count
    assert all(re.fullmatch(r"[0-9a-f]{64}  \S+", line) for line in lines[1:])
    record = chain_digest.digests(lines)
    assert len(record) == len(lines) - 1 == 53
    assert {path: record.get(path) for path in THREAD_FREE} == THREAD_FREE


def comparable(recorded: list[str], lines: list[str]):
    """(recorded, lines, note): as given under the record's BLAS line; under
    another, only their THREAD_FREE files, with a note that says so."""
    if lines[0] == recorded[0]:
        return recorded, lines, None
    recorded, lines = ([ls[0]] + [line for line in ls[1:] if line.split("  ", 1)[1] in THREAD_FREE]
                       for ls in (recorded, lines))
    return recorded, lines, (f"chain record taken under {recorded[0]!r}, this machine has {lines[0]!r}: "
                             f"compared only the {len(recorded) - 1} files that do not depend on the BLAS")


def test_under_another_blas_only_the_thread_free_files_compare(chain_digest):
    pinned = "gen-data/split.json"
    recorded = [BLAS, f"{THREAD_FREE[pinned]}  {pinned}", f"{'b' * 64}  train/checkpoint.json"]
    other = BLAS.replace("0.3", "0.4")
    for lines, code in (([other, recorded[1], f"{'d' * 64}  train/checkpoint.json"], 0),
                        ([other, recorded[1]], 0),
                        ([other, f"{'d' * 64}  {pinned}", recorded[2]], 1),
                        ([other, recorded[2]], 1)):
        want, got, note = comparable(recorded, lines)
        assert note.endswith("compared only the 1 files that do not depend on the BLAS")
        assert chain_digest.check(want, got) == code
    assert comparable(recorded, recorded[:2]) == (recorded, recorded[:2], None)


def test_the_chain_writes_the_committed_record(chain_digest, trend, tmp_path, monkeypatch, capsys):
    # every step but reproduce-trends runs as chain_digest.py runs it, in a fresh
    # interpreter, here with 1 BLAS thread: the record was taken with 2, so all
    # 53 files matching shows that no byte depends on the thread count.
    # reproduce-trends runs in process on the trend fixture's report, which is
    # what its default settings compute
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    for step in chain_digest.STEPS:
        if step[0] != "reproduce-trends":
            chain_digest.run_step(tmp_path, *step)
    report, _ = trend

    def fixture_report(settings):
        assert settings == TrendSettings()
        return report

    monkeypatch.setattr(cli, "reproduce_trends", fixture_report)
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    assert cli.main(["reproduce-trends", "--out", "reproduce-trends"]) == cli.EXIT_OK
    Path("stdout/reproduce-trends.txt").write_text(capsys.readouterr().out)

    blas = {k: v for k, v in blas_info().items() if k != "threads"}
    manifests = list(tmp_path.glob("*/manifest.json"))
    assert len(manifests) == 7 and all(json.loads(path.read_text())["blas"] == blas for path in manifests)
    recorded, lines, note = comparable((TOOLS / "chain.sha256").read_text().splitlines(),
                                       chain_digest.record(tmp_path))
    if note:
        with capsys.disabled():
            print(f"\n{note}")
    assert chain_digest.check(recorded, lines) == 0, capsys.readouterr().out
    if note is None:  # the arrays hold the very numbers the schema-2 checkpoint spelt out
        model = load_checkpoint(tmp_path / "train" / "checkpoint.json")
        write_json(tmp_path / "schema-2.json", checkpoint_to_json_dict(model), version=2, indent=None)
        digest = hashlib.sha256((tmp_path / "schema-2.json").read_bytes()).hexdigest()
        assert digest == CHAIN_CHECKPOINT_SCHEMA_2_SHA256
