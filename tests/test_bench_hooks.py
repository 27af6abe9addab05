"""The benchmark's tracer against the package: ``bench/tracing.py`` wraps
module attributes by name and reads counts from the package's objects
(``corpus.posts`` rows with ``.url`` and ``.body``, ``len`` of the cleaned
tables), so a renamed attribute or a changed table would make its traced
runs report nothing.  This runs a tiny detection and a tiny 14-stage CLI
run under the tracer."""

import contextlib
import io
import sys
from pathlib import Path

import pytest

from blogfluence import cli, pipeline, synth

from test_cli import SYNTH_KEYS

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it is
    import tracing

    return tracing


def test_tracer_hooks_every_layer(tracing, tmp_path):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        corpus, _ = synth.generate(synth.SynthConfig(n_bloggers=30, n_days=6, copy_prob=0.3,
                                                     seed=1))
        pipeline.run_detection(corpus, vocab_max_size=100, seed=1)
        config = tmp_path / "pipeline.cfg"
        config.write_text(SYNTH_KEYS)
        for stage in tracing.STAGES:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main([stage, "--config", str(config), "--out-dir", str(tmp_path / "out"),
                                 "--seed", "5"])
            assert code == 0, stage
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    metrics = tracer.layer_metrics()
    # The fit observers bind ``tol`` by name and read each model's trace; a fit
    # that a stage calls past its module attribute reads 0 iterations here.
    for name in ("corpus.posts", "corpus.accesses_kept", "textvec.build_vectors_calls",
                 "corpus.parse_calls", "synth.generate_s", "corpus.clean_s",
                 "pipeline.run_detection_s", "topics.plsa_iters", "factor.iolap_iters",
                 "factor.pcldc_iters", "factor.pcl_iters", "factor.tensor_nnz"):
        assert metrics[name] > 0, name
    assert metrics["textvec.build_vectors_calls"] == 2  # detection, then ingest
    assert metrics["corpus.parse_calls"] == 2  # ingest's posts and access log
    assert metrics["causality.similarity_calls"] == 2  # detection, then links


def test_bench_runs_the_stage_table_in_order(tracing):
    """bench/ pins the 14 stages of a full run; they are the CLI's table in
    its order, less recommend, which answers one query."""
    assert list(tracing.STAGES) == [name for name in cli.STAGES if name != "recommend"]
