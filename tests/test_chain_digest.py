"""tools/chain_digest.py's record check, and the committed record tools/chain.sha256."""
import importlib.util
import re
from pathlib import Path

import pytest
from test_acceptance import CHAIN_TRENDS_JSON_SHA256, CHAIN_TRENDS_STDOUT_SHA256
from test_cli import (CHAIN_BUILD_BANK_SHA256, CHAIN_BUILD_BANK_STDOUT_SHA256, CHAIN_GEN_DATA_SHA256,
                      CHAIN_GEN_DATA_STDOUT_SHA256, CHAIN_STDOUT_SHA256, CHAIN_THREAD_FREE_SHA256)

TOOLS = Path(__file__).resolve().parent.parent / "tools"


@pytest.fixture(scope="module")
def chain_digest():
    spec = importlib.util.spec_from_file_location("chain_digest", TOOLS / "chain_digest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BLAS = "# numpy 2.0, openblas 0.3, OPENBLAS_NUM_THREADS=2"
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
    assert chain_digest.check(RECORD, ["# numpy 2.1, openblas 0.3, OPENBLAS_NUM_THREADS=2"] + RECORD[1:]) == 0
    assert "warning" in capsys.readouterr().err


def test_committed_record_holds_the_digests_tier_1_pins(chain_digest):
    lines = (TOOLS / "chain.sha256").read_text().splitlines()
    assert re.fullmatch(r"# numpy \S+, \S+ \S+, core \S+, OPENBLAS_NUM_THREADS=2", lines[0])
    assert all(re.fullmatch(r"[0-9a-f]{64}  \S+", line) for line in lines[1:])
    record = chain_digest.digests(lines)
    assert len(record) == len(lines) - 1 == 48
    pinned = {**{f"gen-data/{k}": v for k, v in CHAIN_GEN_DATA_SHA256.items()},
              **{f"build-bank/{k}": v for k, v in CHAIN_BUILD_BANK_SHA256.items()},
              **CHAIN_THREAD_FREE_SHA256,
              **{f"stdout/{k}.txt": v for k, v in CHAIN_STDOUT_SHA256.items()},
              "stdout/gen-data.txt": CHAIN_GEN_DATA_STDOUT_SHA256,
              "stdout/build-bank.txt": CHAIN_BUILD_BANK_STDOUT_SHA256,
              "reproduce-trends/trends.json": CHAIN_TRENDS_JSON_SHA256,
              "stdout/reproduce-trends.txt": CHAIN_TRENDS_STDOUT_SHA256}
    assert {path: record.get(path) for path in pinned} == pinned
