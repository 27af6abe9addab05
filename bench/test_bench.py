"""Smoke test of the benchmark harness at a reduced size.

It is kept out of the tier-1 suite (``testpaths`` is ``tests``); run it with

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import run

run._load_package()

import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY_LARGE = re.sub(
    r"synth\.n_bloggers = \d+\nsynth\.n_days = \d+",
    "synth.n_bloggers = 80\nsynth.n_days = 8",
    workloads.LARGE_CONFIG,
)


def tiny(name):
    if name == "detect":
        return workloads.Detect(
            n_seeds=2, base=replace(workloads.DETECT_SYNTH, n_bloggers=150, n_days=10)
        )
    if name == "pipeline":
        return workloads.CliPipeline("pipeline", TINY_LARGE, n_seeds=1)
    return workloads.CliPipeline("pipeline_small", workloads.SMALL_CONFIG, n_seeds=1)


@pytest.fixture(scope="module", params=run.WORKLOADS)
def traced(request, tmp_path_factory):
    """Two traced measurements of one tiny workload, as two runs would make."""
    workload = tiny(request.param)
    workload.setup(tmp_path_factory.mktemp(request.param), seed=1)
    return request.param, [run.measure(workload, seconds=0.0, trace=True) for _ in range(2)]


def test_every_named_metric_is_emitted(traced):
    name, (runs, _) = traced
    assert runs["failures"] == []
    e2e = run.end_to_end(runs, setup_s=0.1)
    layers = run.per_layer(runs)
    for result, metrics, kind in ((run.report(runs, 0.1, trace=False), e2e, "end_to_end"),
                                  (run.report(runs, 0.1, trace=True), layers, "per_layer")):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert set(result["metrics"]) == {m["name"] for m in SPEC[kind]}
        for spec in SPEC[kind]:
            value = result["metrics"][spec["name"]]
            assert value == {"value": metrics[spec["name"]], "unit": spec["unit"]}
            assert math.isfinite(value["value"])
    for metric in SPEC["end_to_end"]:
        assert e2e[metric["name"]] > 0, metric["name"]


def test_layer_spans_add_up_to_stage_spans(traced):
    name, (runs, _) = traced
    m = run.per_layer(runs)
    if name == "detect":
        inner = ("corpus.clean_s", "textvec.build_vectors_s", "implicit.links_s",
                 "causality.similarity_s", "causality.coins_z_s", "causality.extract_s")
        total, parts = m["pipeline.run_detection_s"], m["pipeline.self_s"] + sum(m[k] for k in inner)
        assert m["cli.self_s"] == 0.0
    else:
        total = sum(m[f"cli.{stage}_s"] for stage in tracing.STAGES)
        parts = m["cli.self_s"] + sum(m[k] for k in tracing.CLI_CHILD_LAYERS)
        assert m["pipeline.run_detection_s"] == 0.0
    assert total > 0
    assert parts == pytest.approx(total, rel=1e-9, abs=1e-9)


def test_counters_repeat_between_runs(traced):
    _, (first, second) = traced
    for key in ("untraced", "traced"):
        assert [r.counters for r, _ in first[key]] == [r.counters for r, _ in second[key]]
    assert first["traced"][0][1].deterministic() == second["traced"][0][1].deterministic()


def test_cli_baseline_counts(traced):
    name, (runs, _) = traced
    if name == "detect":
        pytest.skip("CLI counts only")
    m = run.per_layer(runs)
    top_n = int(re.search(r"^top_n = (\d+)", tiny(name).config, re.M).group(1))
    assert m["textvec.build_vectors_calls"] == 9
    assert m["textvec.useful_ratio"] == pytest.approx(1 / 9)
    assert m["corpus.parse_calls"] == 24
    assert m["corpus.parse_useful_ratio"] == pytest.approx(4 / 24)
    assert m["causality.similarity_calls"] == 2
    assert m["analysis.query_useful_ratio"] == pytest.approx(1 / top_n)
    assert m["factor.tensor_nnz"] > 0 and m["factor.iolap_iters"] > 0


def test_refuses_to_run_without_package_sources(tmp_path):
    shutil.copytree(Path(run.__file__).resolve().parent, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "detect", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
