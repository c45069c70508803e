"""Self-tests of the benchmark (not collected by the tier-1 run).

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import perfbench

assert perfbench.use_checkout_source()

from perfbench.workloads import WORKLOADS, make_inputs  # noqa: E402

#: A seed no figure in this repository was tuned on.
HELD_OUT_SEED = 424242


def _spec() -> dict:
    return json.loads((perfbench.ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, seed: int, trace: int, seconds: float = 2, cwd=None):
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=cwd or perfbench.ROOT, capture_output=True, text=True,
        timeout=300,
    )
    return completed


def _result(completed) -> dict:
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generation_is_byte_identical_per_seed(name):
    workload = WORKLOADS[name]
    first = make_inputs(workload, 5)
    assert first.digest() == make_inputs(workload, 5).digest()
    assert first.ingest_batch(3) == make_inputs(workload, 5).ingest_batch(3)
    assert first.digest() != make_inputs(workload, 6).digest()


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in _spec()["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_short_held_out_run_is_clean(name):
    result = _result(_run(name, HELD_OUT_SEED, trace=0))
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = _spec()
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    for metric in spec["end_to_end"]:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert printed["value"] > 0


def test_traced_run_prints_every_per_layer_metric():
    result = _result(_run("small-mixed", HELD_OUT_SEED, trace=1))
    spec = _spec()
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}
    for metric in spec["per_layer"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    assert result["metrics"]["failed_share"]["value"] == 0
    assert result["metrics"]["session.feed_ms"]["value"] > 0
    assert result["metrics"]["serve.service.warm_ms"]["value"] > 0
    # Span self times, socket wait included, cover each sync's wall time.
    assert result["metrics"]["trace.attributed_share"]["value"] >= 0.95


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(perfbench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        perfbench.ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    completed = _run("small-mixed", 1, trace=0, cwd=tmp_path)
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""
