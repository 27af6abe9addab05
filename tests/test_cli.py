import ast
import dataclasses
import re
import shutil
import tracemalloc
import warnings
import weakref
from pathlib import Path

import pytest

from blogfluence import artifacts, cli, factor, synth, textvec
from blogfluence.cli import main
from blogfluence.corpus import parse_content_file
from blogfluence.implicit import read_activity, read_links_tsv
from blogfluence.pipeline import run_detection

from conftest import row_line

SYNTH_KEYS = """
# small but complete pipeline configuration
window_hours = 12
tau_hours = 2
vocab_max_size = 160
n_topics = 2
rank_influenced = 2
rank_influencer = 3
top_n = 5
plsa_max_iter = 60
iolap_max_iter = 60
pcldc_max_iter = 20
pcl_max_iter = 60
synth.n_bloggers = 60
synth.n_days = 10
synth.vocab_size = 160
synth.n_topics = 2
synth.posts_per_blogger_rate = 1.0
synth.reads_per_post_rate = 5.0
synth.copy_prob = 0.6
synth.copy_fraction = 0.45
"""

# The full run in pipeline order; recommend answers one query and writes no
# input of another stage.
STAGES = [name for name in cli.STAGES if name != "recommend"]


@pytest.fixture(scope="module")
def config_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "pipeline.cfg"
    path.write_text(SYNTH_KEYS)
    return str(path)


def _run_all(out_dir, config_file, seed="5"):
    codes = {}
    for stage in STAGES:
        codes[stage] = main(
            [stage, "--config", config_file, "--out-dir", str(out_dir), "--seed", seed]
        )
    return codes


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory, config_file):
    out = tmp_path_factory.mktemp("run")
    codes = _run_all(out, config_file)
    assert all(code == 0 for code in codes.values()), codes
    return out


@pytest.fixture
def pipeline_copy(pipeline_dir, tmp_path):
    """A private copy of the finished run, for stages run with other flags."""
    out = tmp_path / "run"
    shutil.copytree(pipeline_dir, out)
    return out


def _files(out_dir):
    return {p.relative_to(out_dir): p.read_bytes() for p in out_dir.rglob("*") if p.is_file()}


def _stage_argv(stage, out_dir):
    """The subcommand and its own options: recommend asks for a held-out pair."""
    if stage != "recommend":
        return [stage]
    test_lines = [
        l for l in (out_dir / "test.tsv").read_text().splitlines()
        if l and not l.startswith("#") and not l.startswith("src\t")
    ]
    member, _, keywords = test_lines[0].split("\t")
    return [stage, "--method", "iolap", "--member", member, "--keywords", keywords]


class TestPipeline:
    def test_artifacts_exist_and_non_empty(self, pipeline_dir):
        for name in ("posts.tsv", "access.log", "links.tsv", "influence.tsv",
                     "plsa_model.tsv", "iolap_model.tsv", "pcldc_model.tsv",
                     "pcl_model.tsv", "idr.tsv", "recall.tsv", "train.tsv", "test.tsv"):
            path = pipeline_dir / name
            assert path.exists(), name
            body = [l for l in path.read_text().splitlines() if l and not l.startswith("#")]
            assert body, name

    def test_headers_record_version_and_seed(self, pipeline_dir):
        for name in ("links.tsv", "influence.tsv", "idr.tsv", "recall.tsv"):
            first = (pipeline_dir / name).read_text().splitlines()[0]
            assert first.startswith("# blogfluence 0.1.0 subcommand=")
            assert "seed=5" in first and "config=" in first

    def test_report_bundles_files(self, pipeline_dir):
        report = pipeline_dir / "report"
        for name in ("hist_posts_hour.tsv", "hist_access_weekday.tsv",
                     "gap_hist.tsv", "zreport_forward.tsv", "idr.tsv",
                     "recall.tsv", "rankshift_themes.tsv"):
            assert (report / name).exists(), name

    def test_recommend_subcommand(self, pipeline_copy, config_file, capsys):
        code = main([*_stage_argv("recommend", pipeline_copy), "--config", config_file,
                     "--out-dir", str(pipeline_copy), "--seed", "5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "recommend: iolap top-5" in out


    def test_detection_summaries_count_links_with_a_similarity(self, pipeline_copy,
                                                               config_file, capsys):
        # line 1 and the column names, then one row per link
        rows = (pipeline_copy / "links.tsv").read_text(encoding="utf-8").splitlines()[2:]
        counted = []
        for stage in ("causality", "influence"):
            capsys.readouterr()
            assert main([stage, "--config", config_file, "--out-dir", str(pipeline_copy),
                         "--seed", "5"]) == 0
            found = re.search(r"over (\d+) of (\d+) links with a similarity",
                              capsys.readouterr().out)
            counted.append((int(found.group(1)), int(found.group(2))))
        n_scored, n_links = counted[0]
        assert counted == [(n_scored, len(rows))] * 2 and 0 < n_scored <= n_links


class TestExitCodes:
    def test_missing_dependency_is_2(self, tmp_path, config_file):
        assert main(["causality", "--config", config_file, "--out-dir", str(tmp_path)]) == 2

    def test_unknown_config_key_is_1(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("no_such_key = 3\n")
        assert main(["synth", "--config", str(bad), "--out-dir", str(tmp_path)]) == 1

    @pytest.mark.parametrize("setting, message", [
        ("synth.seed = 123", "synth.seed is not read; set seed"),  # synth draws from seed
        ("plsa_docs = all", "unknown key 'plsa_docs'"),
        ("n_communities = 3", "unknown key 'n_communities'"),
        ("l2 = 0.5", "unknown key 'l2'"),
    ])
    def test_key_that_would_do_nothing_is_1(self, tmp_path, capsys, setting, message):
        cfg = tmp_path / "pipeline.cfg"
        cfg.write_text(f"{setting}\n")
        capsys.readouterr()
        assert main(["synth", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 1
        assert capsys.readouterr().err == f"error: {cfg}:1: {message}\n"
        assert not (tmp_path / "posts.tsv").exists()

    def test_config_file_not_utf8_is_1(self, tmp_path, capsys):
        cfg = tmp_path / "pipeline.cfg"
        cfg.write_bytes(b"seed = 3\n\xff\n")
        capsys.readouterr()
        assert main(["synth", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {cfg}: not UTF-8 text")

    def test_invalid_value_is_1(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("tau_hours = 20\nwindow_hours = 12\n")
        assert main(["synth", "--config", str(bad), "--out-dir", str(tmp_path)]) == 1

    def test_file_value_that_a_flag_corrects_is_0(self, tmp_path, config_file, capsys):
        """Only the final values are checked: a file's tau_hours above its
        window_hours is refused, and runs once --window-hours widens the window."""
        cfg = tmp_path / "pipeline.cfg"
        cfg.write_text(Path(config_file).read_text() + "tau_hours = 20\n")
        argv = ["synth", "--config", str(cfg), "--out-dir", str(tmp_path / "run")]
        capsys.readouterr()
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: tau_hours cannot exceed window_hours\n"
        assert main([*argv, "--window-hours", "24"]) == 0

    @pytest.mark.parametrize("key, value, message", [
        ("tau_hours", 24, "tau_hours cannot exceed window_hours"),
        ("vocab_max_size", 0, "vocab_max_size, top_n, n_topics must be >= 1"),
    ])
    def test_library_caller_is_refused_as_the_cli_is(self, tmp_path, config_file, capsys, key,
                                                     value, message):
        """A config checks itself wherever it is built, so ``run_detection``
        refuses what the CLI refuses, with the CLI's message."""
        refused = f"^{re.escape(message)}$"
        with pytest.raises(cli.ConfigError, match=refused):
            cli.PipelineConfig(**{key: value})
        cfg = cli.load_config(config_file, {})
        corpus, _ = synth.generate(dataclasses.replace(cfg.synth, seed=cfg.seed))
        with pytest.raises(cli.ConfigError, match=refused):
            run_detection(corpus, cfg, **{key: value})
        capsys.readouterr()
        assert main(["synth", "--config", config_file, "--out-dir", str(tmp_path),
                     f"--{key.replace('_', '-')}", str(value)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("setting, message", [
        ("synth.n_bloggers = 0", "n_bloggers must be >= 2"),
        ("synth.n_days = 0", "n_days must be >= 1"),
        ("synth.read_window_hours = 0", "read_window_hours must be >= 1"),
        ("synth.tokens_per_post = -1", "tokens_per_post must be >= 1"),
        ("synth.n_topics = 0", "n_topics must be >= 1"),
        ("synth.n_groups = 0", "n_groups must be >= 1"),
        ("synth.expert_read_prob = 2", "expert_read_prob must be in [0, 1]"),
        ("synth.topic_sharpness = 2", "topic_sharpness must be in [0, 1]"),
        ("synth.copy_gap_max_hours = -1", "copy_gap_max_hours must be >= 1"),
        ("synth.confounder_strength = nan", "confounder_strength must be finite"),
        ("synth.experts_per_group_topic = 40", "expert slots exceed half"),
        ("synth.experts_per_group_topic = 2",
         "experts_read_per_member (4) exceeds experts_per_group_topic (2)"),
        ("synth.start_date = 9999-12-20", "start_date must be a date"),
        ("synth.weekday_profile = 0,0,0,0,0,0,0", "profiles need weight"),
        ("synth.posts_per_blogger_rate = 0", "synth: configuration produced zero posts"),
    ])
    def test_synth_value_outside_its_domain_is_1(self, tmp_path, capsys, setting, message):
        bad = tmp_path / "bad.cfg"
        bad.write_text(f"{setting}\n")
        capsys.readouterr()
        assert main(["synth", "--config", str(bad), "--out-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err
        assert not (tmp_path / "posts.tsv").exists()

    @pytest.mark.parametrize("stage", ["synth", "causality"])
    def test_negative_seed_is_1(self, pipeline_copy, config_file, capsys, stage):
        capsys.readouterr()
        assert main([stage, "--config", config_file, "--out-dir", str(pipeline_copy),
                     "--seed", "-1"]) == 1
        assert capsys.readouterr().err == "error: seed must be >= 0\n"

    def test_missing_config_file_is_1(self, tmp_path):
        assert main(["synth", "--config", str(tmp_path / "nope.cfg"),
                     "--out-dir", str(tmp_path)]) == 1

    def test_unanswerable_recommend_is_1(self, pipeline_dir, config_file):
        code = main([
            "recommend", "--config", config_file, "--out-dir", str(pipeline_dir),
            "--seed", "5", "--method", "tg", "--keywords", "zzzznotaword",
        ])
        assert code == 1

    def test_topic_model_from_other_vocabulary_is_1(self, pipeline_copy, pipeline_dir,
                                                    config_file, capsys):
        capsys.readouterr()
        code = main([
            "iolap", "--config", config_file, "--out-dir", str(pipeline_copy), "--seed", "5",
            "--vocab-max-size", "100",
        ])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and "plsa_model.tsv" in err
        assert "Traceback" not in err
        assert (pipeline_copy / "iolap_model.tsv").read_bytes() == (
            pipeline_dir / "iolap_model.tsv"
        ).read_bytes()

    def test_truncated_artifact_row_is_1(self, pipeline_copy, config_file, capsys):
        tensor = pipeline_copy / "tensor.tsv"
        text = tensor.read_text(encoding="utf-8")
        tensor.write_text(text[: text.rindex("\t")] + "\n", encoding="utf-8")
        capsys.readouterr()
        code = main(["iolap", "--config", config_file, "--out-dir", str(pipeline_copy),
                     "--seed", "5"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and "tensor.tsv:" in err
        assert "Traceback" not in err

    def test_tensor_blogger_index_out_of_range_is_1(self, pipeline_copy, config_file, capsys):
        tensor = pipeline_copy / "tensor.tsv"
        lines = tensor.read_text(encoding="utf-8").split("\n")
        row = lines.index("[entries]") + 1
        lines[row] = "999\t" + lines[row].split("\t", 1)[1]
        tensor.write_text("\n".join(lines), encoding="utf-8")
        capsys.readouterr()
        code = main(["iolap", "--config", config_file, "--out-dir", str(pipeline_copy),
                     "--seed", "5"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and "tensor.tsv" in err and "999" in err
        assert "Traceback" not in err

    def test_tensor_count_below_one_is_1(self, pipeline_copy, config_file, capsys):
        tensor = pipeline_copy / "tensor.tsv"
        lines = tensor.read_text(encoding="utf-8").split("\n")
        row = lines.index("[entries]") + 1
        lines[row] = lines[row].rsplit("\t", 1)[0] + "\t0"
        tensor.write_text("\n".join(lines), encoding="utf-8")
        capsys.readouterr()
        code = main(["iolap", "--config", config_file, "--out-dir", str(pipeline_copy),
                     "--seed", "5"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and "tensor.tsv" in err and "counts >= 1" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("name, stage, damage, message", [
        ("links.tsv", "causality", "gap 999999", "gap_seconds 999999 is outside (0, 43200]"),
        ("links.tsv", "causality", "gap 0", "gap_seconds 0 is outside (0, 43200]"),
        ("links.tsv", "causality", "gap -5", "gap_seconds -5 is outside (0, 43200]"),
        ("links.tsv", "influence", "gap -60", "gap_seconds -60 is outside (0, 43200]"),
        ("links.tsv", "causality", "similarity 1.5", "similarity 1.5 is outside [0, 1]"),
        ("links.tsv", "influence", "similarity x", "could not convert string to float: 'x'"),
        ("influence.tsv", "topics", "gap 7201", "gap_seconds 7201 is outside (0, 7200]"),
        ("influence.tsv", "tensor", "post /nobody/p0", "post '/nobody/p0' is not among"),
    ])
    def test_bad_link_row_is_1(self, pipeline_copy, config_file, capsys, name, stage, damage,
                               message):
        path = pipeline_copy / name
        lines = path.read_text(encoding="utf-8").split("\n")
        what, value = damage.split(" ")
        row, field = 2, {"post": 1, "gap": 4, "similarity": 5}[what]
        fields = lines[row].split("\t")
        fields[field] = value
        lines[row] = "\t".join(fields)
        path.write_text("\n".join(lines), encoding="utf-8")
        capsys.readouterr()
        code = main([stage, "--config", config_file, "--out-dir", str(pipeline_copy),
                     "--seed", "5"])
        err = capsys.readouterr().err
        assert code == 1
        # A field that does not parse is named with its line number.
        assert re.match(rf"error: {re.escape(str(path))}:({row + 1}:)? ", err) and message in err
        assert "Traceback" not in err

    def test_coded_links_file_is_refused_at_its_first_row(self, pipeline_copy, config_file,
                                                          capsys):
        """A links.tsv in the coded form that earlier versions wrote (tagged
        [names], integer [links] and [similarity] sections under the same line
        1) exits 1 naming the file: one codec per file, and no traceback."""
        path = pipeline_copy / "links.tsv"
        links = read_links_tsv(path, 12).links
        header = path.read_text(encoding="utf-8").split("\n", 1)[0]
        artifacts.write_sections(path, header, {
            "names": [["url"] * len(links.urls) + ["blogger"] * len(links.bloggers),
                      links.urls + links.bloggers],
            "links": [links.q, links.p, links.reader, links.author, links.gap],
            "similarity": [links.similarity],
        })
        capsys.readouterr()
        assert main(["causality", "--config", config_file, "--out-dir", str(pipeline_copy),
                     "--seed", "5"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}:2: expected the column names ['q', 'p', ")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_post_terms_of_another_ingest_is_1(self, pipeline_copy, config_file, tmp_path,
                                               capsys):
        """links refuses post_terms.tsv from an ingest of other posts than
        activity.tsv's: it scores every link from those counts.  The file is
        refused by its first line and, given this run's, by its posts."""
        other = tmp_path / "other"
        for stage in ("synth", "ingest"):
            assert main([stage, "--config", config_file, "--out-dir", str(other),
                         "--seed", "6"]) == 0
        assert read_activity(other / "activity.tsv").urls != read_activity(
            pipeline_copy / "activity.tsv").urls
        path = pipeline_copy / "post_terms.tsv"
        own_header = path.read_text(encoding="utf-8").split("\n", 1)[0]
        lines = (other / "post_terms.tsv").read_text(encoding="utf-8").split("\n")
        for first, message in ((lines[0], "seed=6' is not '# blogfluence"),
                               (own_header, "urls differ from the")):
            path.write_text("\n".join([first, *lines[1:]]), encoding="utf-8")
            capsys.readouterr()
            assert main(["links", "--config", config_file, "--out-dir", str(pipeline_copy),
                         "--seed", "5"]) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: {path}: ") and message in err
            assert "Traceback" not in err

    @pytest.mark.parametrize("user_id, stage, name", [
        ("#a", "split", "train.tsv"),  # would read back as a comment
        ("  ", "tensor", "tensor.tsv"),  # a one-field [bloggers] row would read back as blank
    ])
    def test_name_that_reads_back_as_no_row_is_1(self, pipeline_copy, config_file, capsys,
                                                 user_id, stage, name):
        posts = pipeline_copy / "posts.tsv"
        author = posts.read_text(encoding="utf-8").split("\n")[1].split("\t")[2]
        posts.write_text(posts.read_text(encoding="utf-8").replace(f"\t{author}\t",
                                                                   f"\t{user_id}\t"),
                         encoding="utf-8")
        argv = ["--config", config_file, "--out-dir", str(pipeline_copy), "--seed", "5"]
        for upstream in ("ingest", "links", "causality", "influence", "split"):
            if upstream == stage:
                break
            assert main([upstream, *argv]) == 0, upstream
        capsys.readouterr()
        assert main([stage, *argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {pipeline_copy / name}: ") and repr(user_id) in err
        assert "Traceback" not in err
        assert not (pipeline_copy / name).exists()

    def test_only_links_and_report_need_the_accesses(self, pipeline_copy, config_file):
        (pipeline_copy / "activity.tsv").unlink()
        argv = ["--config", config_file, "--out-dir", str(pipeline_copy), "--seed", "5"]
        assert main(["topics", *argv]) == 0
        assert main(["pcl", *argv]) == 0
        assert main(["links", *argv]) == 2
        assert main(["report", *argv]) == 2

    @pytest.mark.parametrize("damage, message", [
        ("truncated row", "expected 3 tab-separated fields, found 2"),
        ("text in a column", "invalid literal for int()"),
        ("blogger index", "blogger index 999 is outside"),
        ("post IP index", "IP index 99999 is outside"),
        ("theme index", "theme index 999 is outside"),
        ("theme post index", "post index"),
        ("access post index", "post index"),
        ("access IP index", "IP index 99999 is outside"),
        ("negative index", "post index -1 is outside"),
        ("swapped urls", "needs each url once, in ascending order"),
        ("repeated url", "needs each url once, in ascending order"),
        ("unknown name table", "has a row tagged none of url, blogger, ip, theme"),
        ("missing post row", "rows for"),
    ])
    def test_malformed_activity_is_1(self, pipeline_copy, config_file, capsys, damage, message):
        path = pipeline_copy / "activity.tsv"
        lines = path.read_text(encoding="utf-8").split("\n")
        url, post, theme, access = (lines.index(f"[{name}]") + 1 for name in (
            "names", "posts", "post_themes", "accesses"))
        n_posts = theme - 1 - post

        def field(row, i, value):
            fields = lines[row].split("\t")
            fields[i] = value
            lines[row] = "\t".join(fields)

        if damage == "swapped urls":
            lines[url], lines[url + 1] = lines[url + 1], lines[url]
        elif damage == "repeated url":
            lines[url + 1] = lines[url]
        elif damage == "unknown name table":
            field(url, 0, "page")
        elif damage == "missing post row":
            del lines[post]
        elif damage == "truncated row":
            lines[access] = lines[access].rsplit("\t", 1)[0]
        else:
            row, i, value = {
                "text in a column": (post, 2, "noon"),
                "blogger index": (post, 0, "999"),
                "post IP index": (post, 2, "99999"),
                "theme index": (theme, 1, "999"),
                "theme post index": (theme, 0, str(n_posts)),
                "access post index": (access, 0, str(n_posts)),
                "access IP index": (access, 1, "99999"),
                "negative index": (access, 0, "-1"),
            }[damage]
            field(row, i, value)
        path.write_text("\n".join(lines), encoding="utf-8")
        for stage in ("links", "report"):
            capsys.readouterr()
            code = main([stage, "--config", config_file, "--out-dir", str(pipeline_copy),
                         "--seed", "5"])
            err = capsys.readouterr().err
            assert code == 1
            assert err.startswith(f"error: {path}") and message in err
            assert "Traceback" not in err

    @pytest.mark.parametrize("damage", ["truncated row", "term rank", "post order",
                                        "swapped urls", "repeated url", "swapped terms",
                                        "term frequency"])
    def test_malformed_post_terms_is_1(self, pipeline_copy, config_file, capsys, damage):
        path = pipeline_copy / "post_terms.tsv"
        lines = path.read_text(encoding="utf-8").split("\n")
        row = lines.index("[entries]") + 1
        post, term, count = lines[row].split("\t")
        n_terms = lines.index("[posts]") - lines.index("[terms]") - 1
        url = lines.index("[posts]") + 1
        first_term = lines.index("[terms]") + 1
        if damage == "swapped terms":
            lines[first_term], lines[first_term + 1] = lines[first_term + 1], lines[first_term]
        elif damage == "term frequency":
            name, freq = lines[first_term].split("\t")
            lines[first_term] = f"{name}\t{int(freq) + 1}"
        elif damage == "swapped urls":
            lines[url], lines[url + 1] = lines[url + 1], lines[url]
        elif damage == "repeated url":
            lines[url + 1] = lines[url]
        else:
            lines[row] = {
                "truncated row": f"{post}\t{term}",
                "term rank": f"{post}\t{n_terms}\t{count}",
                "post order": f"{int(post) + 1}\t{term}\t{count}",
            }[damage]
        path.write_text("\n".join(lines), encoding="utf-8")
        capsys.readouterr()
        code = main(["topics", "--config", config_file, "--out-dir", str(pipeline_copy),
                     "--seed", "5"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and "post_terms.tsv" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("stage", ["iolap", "idr", "eval"])
    @pytest.mark.parametrize("damage", ["swapped terms", "truncated term row"])
    def test_malformed_vocabulary_is_1(self, pipeline_copy, config_file, capsys, stage, damage):
        path = pipeline_copy / "post_terms.tsv"
        lines = path.read_text(encoding="utf-8").split("\n")
        first = lines.index("[terms]") + 1
        if damage == "swapped terms":
            lines[first], lines[first + 1] = lines[first + 1], lines[first]
        else:
            lines[first] = lines[first].split("\t")[0]
        path.write_text("\n".join(lines), encoding="utf-8")
        capsys.readouterr()
        code = main([stage, "--config", config_file, "--out-dir", str(pipeline_copy),
                     "--seed", "5"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and "post_terms.tsv" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("stage", ["iolap", "idr", "eval"])
    def test_missing_vocabulary_is_2(self, pipeline_copy, config_file, stage):
        (pipeline_copy / "post_terms.tsv").unlink()
        assert main([stage, "--config", config_file, "--out-dir", str(pipeline_copy),
                     "--seed", "5"]) == 2

    def test_vocabulary_reader_matches_the_whole_file(self, pipeline_dir):
        path = pipeline_dir / "post_terms.tsv"
        whole = textvec.read_post_terms(path)
        for cap in (1, 7, 159, 10**6):
            assert textvec.read_vocabulary(path, cap) == whole.capped(cap).vocabulary()
        assert len(whole.terms) > 159

    def test_only_links_needs_the_post_terms(self, pipeline_copy, pipeline_dir, config_file):
        """influence and causality read the similarities that links stored, and
        only links reads the counts."""
        (pipeline_copy / "post_terms.tsv").unlink()
        argv = ["--config", config_file, "--out-dir", str(pipeline_copy), "--seed", "5"]
        assert main(["influence", *argv]) == 0
        assert main(["causality", *argv]) == 0
        for name in ("influence.tsv", "zreport_forward.tsv", "zreport_reversed.tsv"):
            assert (pipeline_copy / name).read_bytes() == (pipeline_dir / name).read_bytes()
        assert not (pipeline_copy / "vocab.tsv").exists()
        assert main(["links", *argv]) == 2

    def test_missing_post_terms_is_2(self, pipeline_copy, config_file):
        (pipeline_copy / "post_terms.tsv").unlink()
        assert main(["topics", "--config", config_file, "--out-dir", str(pipeline_copy),
                     "--seed", "5"]) == 2

    def test_vector_stages_do_not_need_the_cleaned_posts(self, pipeline_copy, pipeline_dir,
                                                         config_file):
        (pipeline_copy / "activity.tsv").unlink()
        argv = ["--config", config_file, "--out-dir", str(pipeline_copy), "--seed", "5"]
        assert main(["topics", *argv]) == 0
        assert (pipeline_copy / "plsa_model.tsv").read_bytes() == (
            pipeline_dir / "plsa_model.tsv"
        ).read_bytes()
        assert main(["links", *argv]) == 2

    def test_invalid_iolap_rank_is_1(self, pipeline_copy, config_file, capsys):
        capsys.readouterr()
        code = main(["iolap", "--config", config_file, "--out-dir", str(pipeline_copy),
                     "--seed", "5", "--rank", "0,3"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_iolap_summary_says_how_the_fit_ended(self, pipeline_copy, config_file, capsys):
        capsys.readouterr()
        assert main(["iolap", "--config", config_file, "--out-dir", str(pipeline_copy),
                     "--seed", "5"]) == 0
        printed = capsys.readouterr().out
        assert "loglik -" in printed  # the benchmark parses this token
        assert "(61 evals, hit max_iter 60)" in printed

    @pytest.mark.parametrize("name, stage, damage", [
        ("links.tsv", "influence", "bytes"),
        ("activity.tsv", "links", "bytes"),
        ("post_terms.tsv", "topics", "bytes"),
        ("tensor.tsv", "iolap", "bytes"),
        ("links.tsv", "influence", "directory"),
        ("posts.tsv", "synth", "out-dir"),
    ])
    def test_unreadable_artifact_is_1(self, pipeline_copy, config_file, capsys, name, stage,
                                      damage):
        path = pipeline_copy / name
        out_dir = pipeline_copy
        if damage == "bytes":  # not UTF-8, past the header line
            lines = path.read_bytes().split(b"\n")
            lines[2] = b"\xff\xfe" + lines[2]
            path.write_bytes(b"\n".join(lines))
        elif damage == "directory":
            path.unlink()
            path.mkdir()
        else:
            out_dir = path
        capsys.readouterr()
        assert main([stage, "--config", config_file, "--out-dir", str(out_dir),
                     "--seed", "5"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("name, damage, message", [
        # rank_influencer = 3: the factor lacks column 2
        ("iolap_model.tsv", ("influencer_factors", "2"),
         "[influencer_factors] needs each of its 60 x 3 cells exactly once; "
         "it lists 120 of them in 120 rows"),
        # n_topics = 2 communities: the weights lack column 1
        ("pcldc_model.tsv", ("content_weights", "1"),
         "[content_weights] needs each of its 160 x 2 cells exactly once; "
         "it lists 160 of them in 160 rows"),
        # the [meta] row that iolap models no longer carry
        ("iolap_model.tsv", ("meta", "topics_fixed\t1"),
         "unexpected key 'topics_fixed' in [meta]"),
        # a 2x3x2 core lacks a cell, or holds one twice
        ("iolap_model.tsv", ("core", "delete"),
         "[core] needs each of its 2 x 3 x 2 cells exactly once; it lists 11 of them in 11 rows"),
        ("iolap_model.tsv", ("core", "duplicate"),
         "[core] needs each of its 2 x 3 x 2 cells exactly once; it lists 12 of them in 13 rows"),
        # the copy of the topics that iolap models no longer carry
        ("iolap_model.tsv", ("topic_factors", "append"), "unexpected section '[topic_factors]'"),
        # a matrix lacks a cell, or holds one twice: 60 bloggers x 3 influencer groups,
        # 60 bloggers x 2 communities, 2 topics x 160 terms
        ("iolap_model.tsv", ("influencer_factors", "delete"),
         "[influencer_factors] needs each of its 60 x 3 cells exactly once; "
         "it lists 179 of them in 179 rows"),
        ("iolap_model.tsv", ("influencer_factors", "duplicate"),
         "[influencer_factors] needs each of its 60 x 3 cells exactly once; "
         "it lists 180 of them in 181 rows"),
        ("pcldc_model.tsv", ("memberships", "delete"),
         "[memberships] needs each of its 60 x 2 cells exactly once; "
         "it lists 119 of them in 119 rows"),
        ("pcldc_model.tsv", ("memberships", "duplicate"),
         "[memberships] needs each of its 60 x 2 cells exactly once; "
         "it lists 120 of them in 121 rows"),
        ("plsa_model.tsv", ("p_w_given_t", "delete"),
         "[p_w_given_t] needs each of its 2 x 160 cells exactly once; "
         "it lists 319 of them in 319 rows"),
        ("plsa_model.tsv", ("p_w_given_t", "duplicate"),
         "[p_w_given_t] needs each of its 2 x 160 cells exactly once; "
         "it lists 320 of them in 321 rows"),
        # a topic prior given twice
        ("plsa_model.tsv", ("p_t", "duplicate"),
         "[p_t] needs each of its 2 cells exactly once; it lists 2 of them in 3 rows"),
    ], ids=["iolap-factor-width", "pcldc-weights-width", "iolap-topics-fixed",
            "iolap-core-row-deleted", "iolap-core-row-duplicated", "iolap-topic-factors",
            "iolap-factor-row-deleted", "iolap-factor-row-duplicated",
            "pcldc-membership-row-deleted", "pcldc-membership-row-duplicated",
            "plsa-topic-term-row-deleted", "plsa-topic-term-row-duplicated",
            "plsa-prior-row-duplicated"])
    @pytest.mark.parametrize("stage", ["idr", "eval"])
    def test_model_of_another_shape_is_1(self, pipeline_copy, config_file, capsys, name, damage,
                                         message, stage):
        path = pipeline_copy / name
        section, field = damage
        text = path.read_text(encoding="utf-8")
        if section == "topic_factors":  # the section that ended the file, as it was written
            cfg = cli.load_config(config_file, {"out_dir": str(pipeline_copy)})
            model = factor.read_iolap_model(path, cli._topic_model(cfg))
            text += "[topic_factors]\n" + "".join(
                row_line((term, k, value)) for term, row in zip(model.terms, model.topic_factors)
                for k, value in enumerate(row))
        lines = text.split("\n")
        start = lines.index(f"[{section}]") + 1
        end = next(i for i in range(start, len(lines)) if lines[i].startswith("[") or not lines[i])
        if section == "meta":
            lines.insert(end, field)
        elif field == "delete":
            del lines[start]
        elif field == "duplicate":
            lines.insert(start, lines[start])
        elif field != "append":
            lines[start:end] = [l for l in lines[start:end] if l.split("\t")[1] != field]
        path.write_text("\n".join(lines), encoding="utf-8")
        capsys.readouterr()
        assert main([stage, "--config", config_file, "--out-dir", str(pipeline_copy),
                     "--seed", "5"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}") and message in err and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("name, damage, message", [
        ("posts.tsv", "bytes", "cannot read content stream: 'utf-8' codec can't decode"),
        ("access.log", "bytes", "cannot read access log stream: 'utf-8' codec can't decode"),
        ("posts.tsv", "rows", "3 of 3 lines malformed; not a posts TSV?"),
        ("access.log", "rows", "3 of 3 lines malformed; not an Apache combined log?"),
    ])
    def test_unreadable_raw_log_names_it(self, pipeline_copy, config_file, capsys, name,
                                         damage, message):
        path = pipeline_copy / name
        if damage == "bytes":
            path.write_bytes(path.read_bytes() + b"\xff\xfe\n")
        else:
            path.write_text("not a row\n" * 3, encoding="utf-8")
        capsys.readouterr()
        assert main(["ingest", "--config", config_file, "--out-dir", str(pipeline_copy),
                     "--seed", "5"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: {message}") and err.count("\n") == 1


def _cuts(text):
    """(what, text) of each damage to an artifact that keeps its line 1: cut
    to it, cut to it and the next line (the column names, or the first
    section title), and without each [section], its title and rows."""
    lines = text.split("\n")
    yield "header", lines[0] + "\n"
    yield "header and column names", "\n".join(lines[:2]) + "\n"
    titles = [i for i, line in enumerate(lines) if i and re.fullmatch(r"\[[^\t]*\]", line)]
    for start, end in zip(titles, [*titles[1:], len(lines)]):
        yield f"without {lines[start]}", "\n".join(lines[:start] + lines[end:])


def _run_damaged(pipeline_dir, config_file, out_dir, stage, name, text, capsys):
    """Exit code and stderr of ``stage`` over a copy of its inputs in
    ``pipeline_dir``, with ``name`` replaced by ``text``."""
    out_dir.mkdir()
    for read in cli.STAGES[stage].reads:
        if (pipeline_dir / read.rstrip("?")).exists():
            shutil.copyfile(pipeline_dir / read.rstrip("?"), out_dir / read.rstrip("?"))
    (out_dir / name).write_text(text, encoding="utf-8")
    capsys.readouterr()
    code = main([*_stage_argv(stage, pipeline_dir), "--config", config_file,
                 "--out-dir", str(out_dir), "--seed", "5"])
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return code, err


def _unread(stage, name, what):
    """Whether ``stage`` leaves its input ``name`` unread where it is cut as
    ``what``: recommend reads influence.tsv only where there is no split, and
    the stages that check plsa_model.tsv's terms read post_terms.tsv only up
    to [posts]."""
    return (stage == "recommend" and name == "influence.tsv"
            or stage in ("iolap", "idr", "recommend", "eval") and name == "post_terms.tsv"
            and what == "without [entries]")


class TestRefusalContract:
    """Every stage over each of its inputs damaged but for line 1 (the
    header that the stage checks) prints no traceback.  An input that lacks
    its column names or a section exits 1 with one ``error:`` line naming
    it; a table with no rows may also be read and exit 0."""

    @pytest.mark.parametrize("stage, name", [
        (stage, read.rstrip("?")) for stage, spec in cli.STAGES.items() for read in spec.reads])
    def test_damaged_input(self, pipeline_dir, config_file, tmp_path, capsys, stage, name):
        for n, (what, text) in enumerate(_cuts((pipeline_dir / name).read_text("utf-8"))):
            code, err = _run_damaged(pipeline_dir, config_file, tmp_path / str(n), stage, name,
                                     text, capsys)
            case = f"{stage} over {name} cut to its {what}: exit {code}, {err!r}"
            if _unread(stage, name, what):
                assert (code, err) == (0, ""), case
            elif what == "header and column names" and not text.split("\n")[1].startswith("["):
                assert (code, err) == (0, "") or code == 1 and err.startswith("error: ") \
                    and err.count("\n") == 1, case
            else:
                path = tmp_path / str(n) / name
                assert code == 1 and err.startswith(f"error: {path}"), case
                assert err.count("\n") == 1, case
                if what.startswith("without "):
                    assert f"lacks {what[8:]}" in err or "unexpected section" in err, case

    def test_eval_over_an_empty_test_set(self, pipeline_dir, config_file, tmp_path, capsys):
        text = "".join((pipeline_dir / "test.tsv").read_text("utf-8").splitlines(True)[:2])
        assert _run_damaged(pipeline_dir, config_file, tmp_path / "out", "eval", "test.tsv",
                            text, capsys) == (1, f"error: {tmp_path}/out/test.tsv: no test pairs\n")

    def test_eval_over_a_model_that_lacks_a_test_source(self, pipeline_dir, config_file,
                                                        tmp_path, capsys):
        source = _stage_argv("recommend", pipeline_dir)[4]
        lines = (pipeline_dir / "pcl_model.tsv").read_text("utf-8").splitlines(True)
        text = "".join(line for line in lines if not line.startswith(f"{source}\t"))
        assert _run_damaged(pipeline_dir, config_file, tmp_path / "out", "eval",
                            "pcl_model.tsv", text, capsys) == (
            1, f"error: {tmp_path}/out/pcl_model.tsv: unknown member '{source}'\n")

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "1e309"])
    @pytest.mark.parametrize("name, section, stage", [
        ("plsa_model.tsv", "p_w_given_t", "iolap"), ("iolap_model.tsv", "core", "eval"),
        ("pcldc_model.tsv", "content_weights", "idr"), ("pcl_model.tsv", "memberships", "eval"),
    ])
    def test_model_cell_that_is_not_finite_is_1(self, pipeline_dir, config_file, tmp_path,
                                                capsys, name, section, stage, token):
        """A model value that is not finite is refused naming the file and the
        cell, before any arithmetic over it warns."""
        lines = (pipeline_dir / name).read_text("utf-8").split("\n")
        at = lines.index(f"[{section}]") + 1
        lines[at] = "\t".join([*lines[at].split("\t")[:-1], token])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, err = _run_damaged(pipeline_dir, config_file, tmp_path / "out", stage, name,
                                     "\n".join(lines), capsys)
        assert code == 1, err
        assert err.startswith(f"error: {tmp_path / 'out' / name}: [{section}] cell (")
        assert err.endswith(", not a finite number\n") and err.count("\n") == 1
        assert [str(w.message) for w in caught] == []

    def test_inferred_axis_is_bounded_by_the_row_count(self, pipeline_dir, tmp_path):
        """A [memberships] community index of 10**5 is refused before an array
        of the shape it implies (60 x 100001 cells, 48 MB) is built."""
        path = tmp_path / "pcl_model.tsv"
        lines = (pipeline_dir / "pcl_model.tsv").read_text("utf-8").split("\n")
        at = lines.index("[memberships]") + 1
        member, _, value = lines[at].split("\t")
        lines[at] = "\t".join([member, str(10**5), value])
        path.write_text("\n".join(lines), encoding="utf-8")
        tracemalloc.start()
        try:
            with pytest.raises(artifacts.FormatError, match=re.escape(
                    f"{path}: [memberships] needs each of its 60 x 100001 cells exactly once")):
                factor.read_pcl_model(str(path))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


class TestProvenance:
    """Every stage compares the first line of each input with the line its
    producer would write under the current version, seed and config keys."""

    @pytest.mark.parametrize("stage, flag, value, upstream, producer", [
        ("eval", "--seed", "99", "train.tsv", "split"),
        ("tensor", "--vocab-max-size", "100", "influence.tsv", "influence"),
        ("pcldc", "--vocab-max-size", "100", "influence.tsv", "influence"),
        ("causality", "--window-hours", "6", "links.tsv", "links"),
    ])
    def test_input_of_another_run_is_1(self, pipeline_copy, config_file, capsys, stage, flag,
                                       value, upstream, producer):
        before = _files(pipeline_copy)
        capsys.readouterr()
        assert main([stage, "--config", config_file, "--out-dir", str(pipeline_copy),
                     "--seed", "5", flag, value]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {pipeline_copy / upstream}: first line ")
        assert err.endswith(f"rerun {producer}\n") and err.count("\n") == 1
        assert "Traceback" not in err
        assert _files(pipeline_copy) == before

    @pytest.mark.parametrize("stage, flag, value", [
        ("eval", "--top-n", "3"),
        ("idr", "--top-n", "3"),
        ("recommend", "--top-n", "3"),
        ("topics", "--topics", "3"),
    ])
    def test_key_of_the_stage_itself_is_0(self, pipeline_copy, config_file, stage, flag, value):
        assert main([*_stage_argv(stage, pipeline_copy), "--config", config_file,
                     "--out-dir", str(pipeline_copy), "--seed", "5", flag, value]) == 0

    def test_declared_keys_that_an_input_carries(self):
        """The completeness test below cannot see a declared key that the
        producer of an input carries too: dropping it leaves the closure as
        it is.  iolap's tol, which topics carries through plsa_model.tsv, is
        the one such key."""
        carried = [(stage, key) for stage, declared in cli.STAGES.items() for key in declared.keys
                   if any(key in cli.closure(cli._PRODUCER[name.rstrip("?")])
                          for name in declared.reads)]
        assert carried == [("iolap", "tol")]

    @pytest.mark.parametrize("stage", list(cli.STAGES))
    def test_keys_outside_the_closure_change_no_byte(self, pipeline_copy, config_file, tmp_path,
                                                     stage):
        """A stage rerun with every key outside its closure changed writes
        what it wrote: it declares every key it reads."""
        _rerun_outside_closure(stage, config_file, pipeline_copy, tmp_path)

    def test_expert_keys_outside_the_closure_change_no_byte(self, tmp_path):
        """The same for synth with experts planted, where the expert keys change
        its bytes.  Four experts per slot, so that the default and the other
        experts_read_per_member (4 and 1) pick different numbers of them."""
        config = tmp_path / "experts.cfg"
        config.write_text(SYNTH_KEYS + "synth.experts_per_group_topic = 4\n")
        _rerun_outside_closure("synth", config, tmp_path / "run", tmp_path)


def _rerun_outside_closure(stage, config, out_dir, tmp_path):
    """Run ``stage`` in ``out_dir`` under ``config``, then again with every key
    outside its closure set to its ``OTHER_VALUES`` entry; both write the same bytes."""
    keys = [f.name for f in dataclasses.fields(cli.PipelineConfig)
            if f.name not in ("out_dir", "content_path", "access_path", "seed", "synth")]
    keys += [f"synth.{f.name}" for f in dataclasses.fields(synth.SynthConfig) if f.name != "seed"]
    assert sorted(OTHER_VALUES) == sorted(keys)
    assert cli.closure(stage) <= set(keys)  # the table names only real keys
    other = tmp_path / "other.cfg"
    other.write_text(Path(config).read_text() + "".join(
        f"{key} = {OTHER_VALUES[key]}\n" for key in keys if key not in cli.closure(stage)))
    argv = [*_stage_argv(stage, out_dir), "--out-dir", str(out_dir), "--seed", "5"]
    assert main([*argv, "--config", str(config)]) == 0
    before = _files(out_dir)
    assert main([*argv, "--config", str(other)]) == 0
    assert _files(out_dir) == before


# Another valid value of each config key (bar the seed and the paths), far
# enough from the test config's that a stage reading the key writes other
# bytes; a synth profile gains weight 1 in every slot.
OTHER_VALUES = {
    "window_hours": "6", "tau_hours": "1", "vocab_max_size": "80", "min_tokens": "60",
    "min_bucket_n": "1000", "tz_offset_hours": "0", "n_topics": "3", "rank_influenced": "3",
    "rank_influencer": "2", "plsa_max_iter": "5", "iolap_max_iter": "5", "pcldc_max_iter": "5",
    "pcl_max_iter": "5", "tol": "0.5", "top_n": "3",
    "synth.n_bloggers": "50", "synth.n_days": "8", "synth.vocab_size": "120",
    "synth.n_topics": "3", "synth.posts_per_blogger_rate": "0.8",
    "synth.reads_per_post_rate": "3.0", "synth.copy_prob": "0.3",
    "synth.copy_gap_max_hours": "1", "synth.copy_fraction": "0.2",
    "synth.confounder_strength": "0.5", "synth.tokens_per_post": "30",
    "synth.topic_sharpness": "0.5", "synth.n_groups": "2", "synth.experts_per_group_topic": "1",
    "synth.experts_read_per_member": "1", "synth.expert_read_prob": "0.5",
    "synth.read_window_hours": "6", "synth.hour_profile": ",".join(["1"] * 24),
    "synth.weekday_profile": ",".join(["1"] * 7), "synth.tz_offset_hours": "0",
    "synth.start_date": "2008-09-02",
}


def test_posts_are_tokenized_once_per_run(tmp_path, config_file, monkeypatch):
    """Only ingest tokenizes, each distinct word of the posts once; every
    later stage reads post_terms.tsv."""
    calls = []
    stage = None
    count_terms, tokenize = textvec.count_terms, textvec.tokenize

    def spy_count_terms(posts):
        calls.append(("count_terms", stage))
        return count_terms(posts)

    def spy_tokenize(text):
        calls.append(("tokenize", stage))
        return tokenize(text)

    monkeypatch.setattr(textvec, "count_terms", spy_count_terms)
    monkeypatch.setattr(textvec, "tokenize", spy_tokenize)
    for stage in STAGES:
        assert main([stage, "--config", config_file, "--out-dir", str(tmp_path),
                     "--seed", "5"]) == 0
    with open(tmp_path / "posts.tsv", encoding="utf-8") as fh:
        posts = {post.url: post for post in parse_content_file(fh)[0]}
    assert len(posts) == len(read_activity(tmp_path / "activity.tsv").urls)
    n_words = len({word for post in posts.values() for word in post.body.split()})
    assert n_words < sum(len(post.body.split()) for post in posts.values())
    assert calls.count(("count_terms", "ingest")) == 1
    assert calls.count(("tokenize", "ingest")) == n_words
    assert len(calls) == 1 + n_words


def test_new_vocabulary_cap_needs_no_new_ingest(pipeline_copy, config_file, tmp_path):
    """post_terms.tsv holds every term, so a run that changes the cap reruns
    from links and writes what a fresh run at that cap writes."""
    for stage in STAGES[STAGES.index("links"):STAGES.index("eval") + 1]:
        assert main([stage, "--config", config_file, "--out-dir", str(pipeline_copy),
                     "--seed", "5", "--vocab-max-size", "60"]) == 0, stage
    fresh = tmp_path / "fresh"
    for stage in STAGES[:STAGES.index("eval") + 1]:
        assert main([stage, "--config", config_file, "--out-dir", str(fresh),
                     "--seed", "5", "--vocab-max-size", "60"]) == 0, stage
    assert len(textvec.read_post_terms(fresh / "post_terms.tsv").terms) > 60
    written, rerun = _files(fresh), _files(pipeline_copy)
    assert {name: rerun.get(name) for name in written} == written


def test_post_terms_read_is_freed_once_the_cap_cuts(pipeline_dir, monkeypatch):
    """A stage holds the capped counts alone: when the cap cuts, the table
    read from post_terms.tsv is not kept beside them."""
    read, refs = textvec.read_post_terms, []

    def spy_read_post_terms(path):
        table = read(path)
        refs.append((weakref.ref(table), weakref.ref(table.entries)))
        return table

    monkeypatch.setattr(textvec, "read_post_terms", spy_read_post_terms)
    terms = cli._post_terms(cli.PipelineConfig(out_dir=str(pipeline_dir), vocab_max_size=60))
    [(table, entries)] = refs
    assert len(terms.terms) == 60
    assert table() is None and entries() is None


def test_full_pipeline_deterministic(tmp_path_factory, config_file):
    out_a = tmp_path_factory.mktemp("det_a")
    out_b = tmp_path_factory.mktemp("det_b")
    assert all(c == 0 for c in _run_all(out_a, config_file, seed="9").values())
    assert all(c == 0 for c in _run_all(out_b, config_file, seed="9").values())
    names = sorted(p.name for p in out_a.iterdir() if p.is_file())
    assert names == sorted(p.name for p in out_b.iterdir() if p.is_file())
    for name in names:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
    report_names = sorted(p.name for p in (out_a / "report").iterdir())
    for name in report_names:
        assert (out_a / "report" / name).read_bytes() == (out_b / "report" / name).read_bytes()


def test_flag_overrides_config(tmp_path, config_file, capsys):
    code = main(["synth", "--config", config_file, "--out-dir", str(tmp_path), "--seed", "3"])
    assert code == 0
    header = (tmp_path / "posts.tsv").read_text().splitlines()[0]
    assert "seed=3" in header


def test_parser_is_built_once_and_calls_do_not_share_values(tmp_path, monkeypatch):
    """main parses with one cached parser; no flag or subcommand option of
    one call reaches the next, and a usage error still exits 2."""
    calls = []
    for name in ("ingest", "links", "recommend"):
        monkeypatch.setitem(cli.STAGES, name,
                            cli.Stage(lambda cfg, args, header: calls.append((cfg, args)) or ""))
    out = str(tmp_path)
    assert main(["ingest", "--out-dir", out, "--seed", "3", "--window-hours", "6",
                 "--content", "c.tsv", "--access", "a.log", "--rank", "2,3"]) == 0
    assert main(["links", "--out-dir", out]) == 0
    assert main(["recommend", "--out-dir", out, "--method", "tg", "--keywords", "x"]) == 0
    assert main(["ingest", "--out-dir", out]) == 0
    for argv in (["links", "--no-such-flag"], ["recommend", "--out-dir", out], ["nothing"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    assert main(["links", "--out-dir", out, "--top-n", "4"]) == 0
    (first, a1), (links, a2), (recommend, a3), (again, a4), (last, a5) = calls
    assert (first.seed, first.window_hours, first.content_path, first.access_path,
            first.rank_influenced, first.rank_influencer) == (3, 6, "c.tsv", "a.log", 2, 3)
    for cfg in (links, recommend, again):
        assert (cfg.seed, cfg.window_hours, cfg.content_path, cfg.access_path,
                cfg.rank_influenced, cfg.top_n) == (0, 12, "", "", 8, 10)
    assert not hasattr(a2, "content_path") and not hasattr(a2, "method")
    assert (a3.method, a3.member, a3.keywords) == ("tg", None, "x")
    assert (a4.content_path, a4.access_path, a4.seed, a4.rank) == (None, None, None, None)
    assert (last.top_n, last.seed, a5.top_n) == (4, 0, 4)
    assert cli.build_parser() is cli.build_parser()


def test_pipeline_config_alone_holds_detection_defaults():
    """No function of the package defaults a setting (a field of
    ``PipelineConfig``, or a fit's ``max_iter``), so each is set in
    ``PipelineConfig`` and passed on; and ``pipeline`` alone names the stage
    seeds."""
    settings = {f.name for f in dataclasses.fields(cli.PipelineConfig)} | {"max_iter"}
    defaulted, seeded = [], []
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        seeded += [path.name] if "STAGE_SEED" in text else []
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                positional = args.posonlyargs + args.args
                named = positional[len(positional) - len(args.defaults):]
                named += [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d]
                defaulted += [(path.name, a.arg) for a in named if a.arg in settings]
    assert defaulted == []
    assert seeded == ["pipeline.py"]


def test_every_public_name_has_a_user_outside_the_tests():
    """Each public top-level name of the package is used, outside its own
    definition, somewhere in ``src/``, ``scripts/`` or ``bench/``: code that
    only tests use belongs in ``tests/``."""
    root = Path(cli.__file__).parents[2]
    texts = {path: path.read_text(encoding="utf-8") for tree in ("src", "scripts", "bench")
             for path in sorted((root / tree).rglob("*.py"))}
    unused = []
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        lines = texts[path].split("\n")
        for node in ast.parse(texts[path]).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [target.id for target in targets if isinstance(target, ast.Name)]
            else:
                continue
            # the file less the lines of this definition
            rest = "\n".join(lines[:node.lineno - 1] + lines[node.end_lineno:])
            for name in names:
                word = re.compile(rf"\b{re.escape(name)}\b")
                if not name.startswith("_") and not word.search(rest) and not any(
                        word.search(text) for other, text in texts.items() if other != path):
                    unused.append(f"{path.name}: {name}")
    assert unused == []
