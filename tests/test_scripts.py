"""The experiment scripts under scripts/, each run through its ``main`` at
its smallest size, with the rows they print pinned.  The rows were
recorded on corpora from the array-round ``synth.generate``."""

import itertools
import re
import sys
from types import SimpleNamespace

from blogfluence import cli

from conftest import SCRIPTS, load_script
from test_acceptance import PIPELINE_CONFIG, PIPELINE_STAGES


def _run(monkeypatch, capsys, name, *args):
    """Lines printed by ``scripts/<name>.py`` run with ``args``."""
    monkeypatch.setattr(sys, "argv", [name, *args])
    assert load_script(name).main() == 0
    return capsys.readouterr().out.splitlines()


def _without_seconds(row):
    return row.rsplit("\t", 1)[0]


def test_null_calibration(monkeypatch, capsys):
    lines = _run(monkeypatch, capsys, "run_null_calibration",
                 "--seeds", "1", "--bloggers", "60", "--days", "8")
    assert lines[0] == "seed\tposts\tlinks\tz1_fwd\tz1_rev\texceed\tseconds"
    assert _without_seconds(lines[1]) == "0\t526\t3662\t-0.543\t2.191\t0"
    assert lines[-1] == "pooled exceedance: 0/12 = 0.000%"


def test_planted_detection(monkeypatch, capsys):
    lines = _run(monkeypatch, capsys, "run_planted_detection",
                 "--rates", "0.3", "--seeds", "1", "--bloggers", "60", "--days", "8")
    assert lines == [
        "rate\tseed\tz1_fwd\tz1_rev\tprecision\trecall\tbase_prec\tbase_rec",
        "0.3\t0\t1.63\t2.08\t0.307\t0.980\t0.026\t0.480",
    ]


def test_recommend_benchmark_seed_zero(monkeypatch, capsys):
    lines = _run(monkeypatch, capsys, "run_recommend_benchmark", "--seeds", "1")
    assert lines[0] == "seed\ttg\tiolap\tpcldc\tpcl\tseconds"
    assert _without_seconds(lines[1]) == "0\t0.417\t0.717\t0.417\t0.250"
    assert lines[-1] == "iolap > tg in 1/1 seeds; pcldc > pcl in 1/1 seeds"


def test_stage_memory(monkeypatch, capsys, tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text(PIPELINE_CONFIG, encoding="utf-8")
    lines = _run(monkeypatch, capsys, "stage_memory", "--config", str(config), "--seed", "17",
                 "--trace", "--passes", "2", "--out-dir", str(tmp_path / "out"))
    assert lines[0] == "pass\tstage\tseconds\tmaxrss_mb\tminflt\ttraced_mb\tsha256"
    rows = [line.split("\t") for line in lines[1:]]
    assert [(n, stage) for n, stage, *_ in rows] == [
        (n, s) for n in ("1", "2") for s in PIPELINE_STAGES]
    # Each stage adds to the out-dir, and a pass from an empty out-dir repeats its bytes.
    digests = [row[6] for row in rows]
    assert all(re.fullmatch("[0-9a-f]{64}", d) for d in digests)
    assert len(set(digests[:14])) == 14 and digests[14:] == digests[:14]
    max_rss = [float(row[3]) for row in rows]
    assert 0 < max_rss[0] and max_rss == sorted(max_rss)
    assert all(float(row[2]) >= 0 and float(row[5]) > 0 for row in rows)
    assert all(re.fullmatch("[0-9]+", row[4]) for row in rows)
    # minflt is the ru_minflt delta around the stage: 7 where each read adds 7.
    stage_memory, faults = load_script("stage_memory"), itertools.count(0, 7)
    monkeypatch.setattr(stage_memory.resource, "getrusage",
                        lambda who: SimpleNamespace(ru_maxrss=0, ru_minflt=next(faults)))
    argv = ["synth", "--config", str(config), "--out-dir", str(tmp_path / "one"), "--seed", "17"]
    code, _, minflt, _ = stage_memory.run_stage(argv, False)
    assert (code, minflt) == (0, 7)
    assert (tmp_path / "out" / "recall.tsv").is_file()


def test_large_config_is_the_north_stars_scale():
    """``scripts/large.cfg`` loads, at 1000 bloggers, 30 days, a 2000-term
    vocab and 8 topics, with the benchmark's model shape and iteration caps."""
    cfg = cli.load_config(str(SCRIPTS / "large.cfg"), {})
    assert (cfg.synth.n_bloggers, cfg.synth.n_days, cfg.synth.vocab_size, cfg.vocab_max_size,
            cfg.n_topics, cfg.synth.n_topics) == (1000, 30, 2000, 2000, 8, 8)
    assert (cfg.rank_influenced, cfg.rank_influencer, cfg.top_n, cfg.plsa_max_iter,
            cfg.iolap_max_iter, cfg.pcldc_max_iter, cfg.pcl_max_iter) == (8, 8, 10, 60, 60, 20, 60)
