"""Smoke test of the benchmark: ``python3 -m pytest -q bench/test_smoke.py``.

Runs one pass of every workload on two seeds, one traced pass, and a run
in a directory without the sources.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import corpus  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_render_is_seeded():
    template = corpus.DIV_IF
    a, b = (corpus.render(template, random.Random(s)) for s in ("1", "1"))
    assert a == b
    assert corpus.render(template, random.Random("2")) != a
    assert "{" not in a and "(VAR x y)" in a


def test_reference_chunk_ignores_string_hashing():
    # every process must do the same reference work, whatever its hash seed
    code = "import reference; print(reference.chunk())"
    counts = {subprocess.run([sys.executable, "-c", code], cwd=BENCH, capture_output=True,
                             text=True, env={"PYTHONHASHSEED": seed}, check=True).stdout
              for seed in ("1", "2", "3")}
    assert len(counts) == 1


def test_workload_names_match_spec():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(corpus.WORKLOADS)


@pytest.mark.parametrize("workload", sorted(corpus.WORKLOADS))
def test_one_pass_on_two_seeds(workload):
    # every verdict is checked against the table, so two correct runs on
    # different seeds have identical verdicts
    names = {m["name"] for m in SPEC["end_to_end"]}
    for seed in ("1", "2"):
        out = result(run("--workload", workload, "--seed", seed, "--seconds", "0", "--trace", "0"))
        assert out["correct"] and out["failed"] == 0
        assert out["attempted"] == len(corpus.pass_cases(workload, int(seed), 0))
        assert set(out["metrics"]) == names
        assert all(m["value"] > 0 for m in out["metrics"].values())


def test_traced_pass():
    out = result(run("--workload", "paper", "--seed", "3", "--seconds", "0", "--trace", "1"))
    assert out["correct"] and out["failed"] == 0
    assert set(out["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert out["metrics"]["encoder.calls"]["value"] > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("--workload", "paper", "--seed", "1", "--seconds", "1", "--trace", "0",
               cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
