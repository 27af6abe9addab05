"""Bit-identity of the array kernels of the detection layer.

The synthetic corpus, the implicit links, the similarities, the coin
faces (and the random stream they consume) and the extracted influence
links are pinned two ways: sha256 digests, each with the generator whose
corpus it was recorded on, and small per-record transcriptions kept here
as oracles, run on random tables and on a synthetic corpus.  The CLI's
link artifacts, the model stages' inputs, the fitted models and the
results read from them are pinned by digests of their bytes, and the
model inputs built from the post-term columns are checked against the
loops over per-post dict vectors that they replaced.
"""

import hashlib
import math
import random
import tempfile
from bisect import bisect_right
from collections import Counter
from itertools import chain
from pathlib import Path
from statistics import median

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blogfluence import causality, pipeline
from blogfluence.analysis import split_train_test
from blogfluence.cli import load_config, main
from blogfluence.corpus import (
    Corpus,
    format_apache_ts,
    parse_access_log,
    parse_content_file,
    parse_iso_ts,
)
from blogfluence.causality import annotate_similarity, extract_influence
from blogfluence.factor import blogger_content_matrix, build_influence_tensor
from blogfluence.implicit import (
    build_implicit_links, link_posts, read_links_tsv, summarize_links, write_links_tsv)
from blogfluence.pipeline import run_detection
from blogfluence.synth import SynthConfig, generate
from blogfluence.topics import build_doc_term
from blogfluence.textvec import (
    count_terms,
    read_post_terms,
    tokenize,
    write_post_terms,
)

from conftest import (
    BASE_TS,
    CoinSeries,
    TermVector,
    Vocabulary,
    activity_of,
    build_coin_series,
    generate_per_record,
    ip_to_bloggers,
    links_table,
    load_script,
    make_access,
    make_coins,
    make_corpus,
    make_post,
    make_posts,
    post_terms,
    shared_terms,
    space,
    tensor_entries,
    url_to_post,
)
from test_acceptance import PIPELINE_CONFIG, PIPELINE_STAGES


# The c01/c02 scale, as the acceptance tests and the detection scripts run it.
_detection_config = load_script("run_planted_detection").detection_config


SYNTH_CONFIGS = {
    "detect_planted": _detection_config(0.3, 5).synth,
    "experts": SynthConfig(
        n_bloggers=80, n_days=8, n_topics=3, vocab_size=150, n_groups=2,
        experts_per_group_topic=2, experts_read_per_member=1, copy_prob=0.4, seed=11,
    ),
    "default": SynthConfig(seed=3),
}

# sha256 of each config's corpus and truth (``corpus_digest``), recorded from
# the per-record generator that tests/conftest.py keeps as the law oracle,
# ``generate_per_record``; synth.generate drew this stream until it drew in
# array rounds.
PER_RECORD_SYNTH_DIGESTS = {
    "detect_planted": "dba28c931f37affc9352265963d08573f76e30499d9458afd78e09976e9e90e0",
    "experts": "bb3f7eddc589cff4329da5562742a5b5bbb8a7568408657553e252790a8dba0a",
    "default": "23907fa3b713068b06f37b1cf8a83a149b47133ab6b66d24053e0a485b3142ac",
}
# The same digests recorded from the array-round synth.generate.
SYNTH_DIGESTS = {
    "detect_planted": "ac881c5868841fb0a28f9e3a17635fbb57e6185f0f5fce8bd97a0c2cf0ea6376",
    "experts": "feae7bf41b611f4bd175fa20f0cf6988e8426bd98bc77978f0ae9f8d95278dfd",
    "default": "1801421c0a5047368adae2fd5f8f5c01471249841387b5eaf7d2423651b4180a",
}
# sha256 of run_detection's outputs (``detection_digest``) on the corpora of
# the array-round synth.generate at the c01/c02 scale, seeds 4 (null) and 5
# (planted); the detection kernels they pin were first checked against the
# per-link implementation on the per-record generator's corpora.  These and
# the zreport pins below were re-pinned when the coin ties came to be drawn
# as two arrays per test (a flip per series, one permutation of the ties):
# only the z tables moved.
DETECTION_DIGESTS = {
    "null": "30ca49e3578d0aca0620ad33d3e2e1d845a937cd25e32cdbbf676be71afbeda2",
    "planted": "d4eb390a84e254ea5ea0129c7927739f84c4f2242ef33ee305013d2a3862ae7e",
}
# sha256 of run_detection's outputs on the planted corpus at a vocabulary cap
# of 200, which cuts the corpus's terms: the capped vocabulary and vectors,
# the links and their similarities, the z values and the influence links.
DETECTION_CUT_DIGEST = "189a072ec388c8215cba474fa9b5c7c9cfa614d7e547f8e59d18a59bdf679c08"
# sha256 of the link artifacts of the CLI at the acceptance PIPELINE_CONFIG,
# seed 17, with synth from the array-round synth.generate.  With the
# per-record generator's posts.tsv and access.log as ingest's inputs, every
# stage after synth wrote the bytes it wrote at the per-link-object,
# dict-vector and text-log implementations these pins first recorded.
# links.tsv and influence.tsv were re-pinned when they gained the similarity
# column; without it they keep the bytes of CLI_LINK_ROW_DIGESTS.  Every CLI
# pin below was re-pinned once more when the config hash on an artifact's
# first line came to cover only the keys its stage depends on; each line
# after the first kept its bytes.  The report/ pins, here and in
# CLI_ACTIVITY_DIGESTS, and those of pcldc_model.tsv, idr.tsv and recall.tsv
# were re-pinned for their first line alone when the l2 key, which set no
# fitted value, left the pcldc stage's config hash.  links.tsv was coded for a
# while (a tagged [names] section and integer [links] rows) and is plain
# again: its pin is the plain file's, as before it was coded.
CLI_LINK_DIGESTS = {
    "links.tsv": "82168133ce378e08d19c2cce2d102c028ce2dc3706e8fcbd6437db21a1457295",
    "influence.tsv": "3e87a05d794359a1f68394adc4ef8a242373f078db725ac31e4becd5cc1e339a",
    "gap_hist.tsv": "74ad50453c805c9da97f778b3b13f1cd8922593e3e5b2e2ac7087d9fb3e0f96b",
    "zreport_forward.tsv": "0082269e10691427cde675ecde5bce7c97a879e06af8043db6471d25840ce757",
    "zreport_reversed.tsv": "9346e5d74ad8ce42c84b9fcf3a2b17fb1e0cccf6cbb0ab8750250c264bd5a5d4",
    "report/rankshift_themes.tsv": "0695ddf56a704cf7505420b1c4dff7d42da51936cc9edda20ac13bbda48fef5e",
    "report/rankshift_bloggers.tsv": "67842f4bcea8c0394f7f38371f92162a7d11ff45c628715a0389f466b75a87c4",
}
# sha256 of links.tsv and influence.tsv with their similarity column dropped,
# at the same config and seed: the pins of the five-column files.
CLI_LINK_ROW_DIGESTS = {
    "links.tsv": "ad954be1ae4193330e8957d823dfb08ccf354999dce1989faf5e81ec342621bc",
    "influence.tsv": "5d2340f23065e1b195887e5c047be738440df589758149d7739f74faa9799666",
}
# sha256 of the model stages' inputs and of the pcldc model, which read the
# post terms, at the same config and seed, from the array-round synth.generate.
CLI_MODEL_INPUT_DIGESTS = {
    "plsa_model.tsv": "1b12370902139a38a22d55eef1c129af85a039850ea6afb6cd78199e7a61a3eb",
    "train.tsv": "37929527dc53a6a5d9c2bf24c5a4b1bb8d8a0854fcbdecfd45228107a4a9ccae",
    "test.tsv": "e246089411b7909ee859a4bc9ab4dac295c9b59cf2a3c8202c8667827dafe571",
    "tensor.tsv": "6fe6893d2eeca2a3a06985fc2cd616eac680702b18e5fb62baf4c9e5409887df",
    "pcldc_model.tsv": "e06772a4d0b0c530561c9d7f80a6d136e6e2f8a714823331f75aa84100ea6bd7",
}
# sha256 of the fitted models and of the results read from them, at the same
# config and seed, recorded before fit_iolap lost its free keyword factor.
# iolap_model.tsv is pinned as the bytes it had then less its [meta] row
# "topics_fixed\t1" and less its closing [topic_factors] section, a copy of
# the PLSA topics that the reader now rebuilds from plsa_model.tsv; it
# carries neither, and every other line kept its bytes.
CLI_MODEL_DIGESTS = {
    "iolap_model.tsv": "4edd32f266ec1a9007a3db440e1514c529d57ff35e37cf8dba7a641405e479c5",
    "pcl_model.tsv": "e45089b9b63588908cff653a5cd16c5e8016de684042c9bb0648d3e101a9a0a4",
    "idr.tsv": "f5da12d84a36ea364251e77998b1d5020f5c779556693873fc4f49d8f35086e7",
    "recall.tsv": "8bd78f38a0cd64b79cb12d57a2bedb496807e276e2cac831288742181a932d95",
}
# sha256 of plsa_model.tsv at the same config and seed but n_topics = 8, where
# numpy sums each nonzero's K topic terms pairwise, from the array-round
# synth.generate; fit_plsa's topic-major loop wrote the bytes of the (nnz, K)
# loop on the per-record generator's corpus.
CLI_PLSA_K8_DIGEST = "4ddd70d8dc3d30543b9381ea87691faef1302fa8efbbe1161dbb73581d5ea3c0"
# sha256 of the synthetic logs, the post terms and the activity histograms
# at the same config and seed, from the array-round synth.generate.
CLI_ACTIVITY_DIGESTS = {
    "posts.tsv": "2006dbed5dad0013c772a30782e4cff54c63bbfa6dd798bff0f832018595e6ad",
    "access.log": "21ac39f803bc5d75cd2a11dd5d176a3293a196b782c13f6aa58e44757ee2c854",
    "post_terms.tsv": "31605865e429b9b1730ef153cd26990e96a584343b41beeb73a81fdf19558e15",
    "report/hist_access_hour.tsv": "b9d872c613ca2094056356d409dddd478d6d9c81e51cff77dce4737ff9c17cec",
    "report/hist_access_weekday.tsv": "b8c53dc2edb43a7567362d741fa385c8452746a3e92157fea0e0f6fbdefbfe55",
    "report/hist_posts_hour.tsv": "a6ab6047e6e37339fb7906eb0ab9a41808ae98d55dee9298ba080e865ce0c683",
    "report/hist_posts_per_blogger.tsv":
        "ace220aa6bd10ce6d6ef529703682f967fb43ee6df558c68884522d57281999b",
    "report/hist_posts_weekday.tsv": "76fc7d547126fee3b7aa6716c13ef692f3d6e8d1ecc6cbd0efabace1b054d62f",
}
# sha256 of every artifact from links on at the same config and seed but
# vocab_max_size = 60, which cuts ingest's 158 terms to 60.
CLI_CUT_VOCAB_DIGESTS = {
    "links.tsv": "5943ed502c76c7ef00e2b1f47251fcc6be0b2ca8d4739110fb7ff95b179ebdd4",
    "gap_hist.tsv": "f868c3e8ef3a7fe1fd2a754fa86dd1ddf367590008b2ba6eb979241c22a519ae",
    "zreport_forward.tsv": "01854f60cc783cb4133f026c35621ee457816cfa3635f7be1c99e58f24a5e470",
    "zreport_reversed.tsv": "e643a612e645b7b29a921208785abfbe6a4516fac1269144758b3a1c5ab2297d",
    "influence.tsv": "42dd285d279718d82e3a2330b7061aa3732492ce26bd7fe724418fbdbb9cf8f0",
    "plsa_model.tsv": "32008042d79981078a6cb54b2e31b83fa5daa08db4042fc5b23ba9977f688bfc",
    "train.tsv": "21cd6494740b94b951d073923f46182e515aa56dbb98daf97ebbed43085bd48b",
    "test.tsv": "6551e67937dc9ab1471d857cd5962840d1dd86b8e32476aac8427df1f5ab80c3",
    "tensor.tsv": "d0c64351366c9195c2e86ae4b437a89108189c6489482deac7e998ce97ae263c",
    "iolap_model.tsv": "0a6633ca3985692bc475e391ea2c168dc83bed5969b55ebbdf2c428f65dfcf4d",
    "pcldc_model.tsv": "c8b4a09fc75227f30dec71222b80b059551cf8c42f9824c9ba18efd82df6a19b",
    "pcl_model.tsv": "3e71f2e0600722b38e56b104f5f2098ad8fde6191d2a8578791d49b8aae0fc3b",
    "idr.tsv": "e32ee5a7254b796f4d6673ff5a03bb4baac71029df737b144db6cdde656476fb",
    "recall.tsv": "240ef6bab06db4998682ac7b8a64c7a22dff47eb14ee33dea6cd65378770ef3d",
    "report/gap_hist.tsv": "f868c3e8ef3a7fe1fd2a754fa86dd1ddf367590008b2ba6eb979241c22a519ae",
    "report/hist_access_hour.tsv":
        "07528d478cb362aacc49a0d78e50790ed373a4cf88c33f57b348282a12997782",
    "report/hist_access_weekday.tsv":
        "47e25b3360adaf0cf3b5c0e1e28331ca85eb453b1ce28abfb6fed9e59b6e681c",
    "report/hist_posts_hour.tsv":
        "132aaf971b6c06e24d78ce60d46d828d8bdfb847fb0352ae51f66f4d83dd380c",
    "report/hist_posts_per_blogger.tsv":
        "dc3c25bfd89fdd149891b712c6b486414af32ad58b6be142eda54ef1703e0ab6",
    "report/hist_posts_weekday.tsv":
        "21c1cb17396aca6e2660243c960d92dce8140debac60053280558ae21ab4790d",
    "report/idr.tsv": "e32ee5a7254b796f4d6673ff5a03bb4baac71029df737b144db6cdde656476fb",
    "report/rankshift_bloggers.tsv":
        "e4895f1feb88961608e70e5a36d9822255d8557b1887671044fa8fcfc4993e71",
    "report/rankshift_themes.tsv":
        "2fea03d1b5399979d1a9b1653a2394d0374fe5cbe5ddc4c89829a048e32c4461",
    "report/recall.tsv": "240ef6bab06db4998682ac7b8a64c7a22dff47eb14ee33dea6cd65378770ef3d",
    "report/zreport_forward.tsv":
        "01854f60cc783cb4133f026c35621ee457816cfa3635f7be1c99e58f24a5e470",
    "report/zreport_reversed.tsv":
        "e643a612e645b7b29a921208785abfbe6a4516fac1269144758b3a1c5ab2297d",
}

# sha256 of activity.tsv and ingest's count per cleaning rule at the same
# config and seed, with one duplicate-URL post and one access line per rule
# added to the synthetic logs (``test_cli_cleaning_digest``), recorded with
# the per-record cleaner that tests/conftest.py keeps as the oracle.
CLI_CLEANING_ACTIVITY_DIGEST = "ee623ce84edd900f1c6b322507a7974f5dcfa006d5981c47c2ef6469832297d5"
CLI_CLEANING_COUNTS = {"non_blogger_ip": 1, "robot_referrer": 1, "index_html": 1,
                       "unknown_url": 1, "self_access": 1, "outside_window": 1}


def _sha(lines):
    h = hashlib.sha256()
    for line in lines:
        h.update(repr(line).encode())
        h.update(b"\n")
    return h.hexdigest()


def corpus_digest(corpus, truth):
    return _sha(
        [tuple(p) for p in corpus.posts]
        + [tuple(a) for a in corpus.accesses]
        + sorted(truth.influence_pairs)
        + sorted((m, sorted(e.items())) for m, e in truth.member_expert_map.items())
    )


def detection_digest(result, cap):
    oracle = space(result.terms, cap)
    lines = [(oracle.vocab.terms, oracle.vocab.doc_freq)]
    lines += [(url, sorted(v.entries.items()), v.token_count) for url, v in oracle.vectors.items()]
    lines += [(l.q, l.p, l.reader, l.author, l.gap_seconds, repr(l.similarity))
              for l in result.implicit.links]
    for report in (result.forward_report, result.reversed_report):
        lines.append((report.n_series, report.n_skipped_anchors))
        lines += [(b.bucket, b.n, b.heads, repr(b.z)) for b in report.buckets]
    lines += [(l.q, l.p, l.reader, l.author, l.gap_seconds, repr(l.similarity))
              for l in result.influence.links]
    return _sha(lines)


@pytest.fixture(scope="module")
def planted_corpus():
    return generate(SYNTH_CONFIGS["detect_planted"])


@pytest.mark.parametrize("name", sorted(SYNTH_CONFIGS))
def test_generate_digest(name, planted_corpus):
    corpus, truth = planted_corpus if name == "detect_planted" else generate(SYNTH_CONFIGS[name])
    if name == "experts":
        assert truth.member_expert_map
    assert corpus_digest(corpus, truth) == SYNTH_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(SYNTH_CONFIGS))
def test_per_record_oracle_digest(name):
    corpus, truth = generate_per_record(SYNTH_CONFIGS[name])
    assert corpus_digest(corpus, truth) == PER_RECORD_SYNTH_DIGESTS[name]


@pytest.mark.parametrize("kind", ["null", "planted"])
def test_run_detection_digest(kind, planted_corpus):
    if kind == "planted":
        corpus, seed = planted_corpus[0], 5
    else:
        corpus, seed = generate(_detection_config(0.0, 4).synth)[0], 4
    result = run_detection(corpus, vocab_max_size=400, seed=seed)
    assert result.influence.links
    assert detection_digest(result, 400) == DETECTION_DIGESTS[kind]


def test_run_detection_cut_vocabulary_digest(planted_corpus):
    corpus = planted_corpus[0]
    assert len(count_terms(corpus.posts).terms) > 200
    result = run_detection(corpus, vocab_max_size=200, seed=5)
    assert result.influence.links
    assert detection_digest(result, 200) == DETECTION_CUT_DIGEST


def test_run_detection_takes_each_sides_anchor_runs_once(planted_corpus, monkeypatch):
    """q's runs serve the forward test and the extraction, p's the reversed
    test: one ``anchor_runs`` call per side."""
    calls, anchor_runs = [], causality.anchor_runs

    def counted(links, code):
        calls.append("q" if code is links.q else "p")
        return anchor_runs(links, code)

    monkeypatch.setattr(causality, "anchor_runs", counted)
    monkeypatch.setattr(pipeline, "anchor_runs", counted)
    run_detection(planted_corpus[0], vocab_max_size=400, seed=5)
    assert calls == ["q", "p"]


def test_kernels_match_oracles_on_the_planted_corpus(planted_corpus):
    """The per-record oracles below, on the c01/c02-scale planted corpus:
    implicit links, both sides' coin series and the extracted links."""
    corpus = planted_corpus[0]
    links = build_implicit_links(activity_of(corpus.posts, corpus.accesses), 12).links
    assert list(links) == _oracle_links(corpus, 12)
    result = run_detection(corpus, vocab_max_size=400, seed=5)
    scored = list(result.implicit.links)
    rng, oracle_rng = np.random.default_rng(5), np.random.default_rng(5)
    for side in ("q", "p"):
        series, skipped = build_coin_series(result.implicit, rng, anchor_side=side)
        expected, expected_skipped = _oracle_coin_series(scored, oracle_rng, side)
        assert skipped == expected_skipped
        assert [(s.anchor, s.coins, repr(s.median_sim)) for s in series] == [
            (s.anchor, s.coins, repr(s.median_sim)) for s in expected
        ]
    assert [(l.q, l.p, l.reader, l.author, l.gap_seconds, l.similarity)
            for l in result.influence.links] == _oracle_extract(scored, 2)


def test_cli_link_artifacts_digest(tmp_path):
    config = tmp_path / "pipeline.cfg"
    config.write_text(PIPELINE_CONFIG)
    out = tmp_path / "out"
    for stage in PIPELINE_STAGES:
        assert main([stage, "--config", str(config), "--out-dir", str(out), "--seed", "17"]) == 0
    for pinned in (CLI_LINK_DIGESTS, CLI_MODEL_INPUT_DIGESTS, CLI_MODEL_DIGESTS,
                   CLI_ACTIVITY_DIGESTS):
        digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in pinned}
        assert digests == pinned
    k8 = tmp_path / "k8.cfg"
    k8.write_text(PIPELINE_CONFIG.replace("\nn_topics = 2\n", "\nn_topics = 8\n"))
    assert main(["topics", "--config", str(k8), "--out-dir", str(out), "--seed", "17"]) == 0
    assert hashlib.sha256((out / "plsa_model.tsv").read_bytes()).hexdigest() == CLI_PLSA_K8_DIGEST


def test_cli_cut_vocabulary_digest(tmp_path):
    config = tmp_path / "pipeline.cfg"
    config.write_text(PIPELINE_CONFIG.replace("\nvocab_max_size = 160\n", "\nvocab_max_size = 60\n"))
    out = tmp_path / "out"
    for stage in PIPELINE_STAGES:
        assert main([stage, "--config", str(config), "--out-dir", str(out), "--seed", "17"]) == 0
    assert len(read_post_terms(out / "post_terms.tsv").terms) == 158
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in CLI_CUT_VOCAB_DIGESTS}
    assert digests == CLI_CUT_VOCAB_DIGESTS


def _cli_detection(tmp_path, config_text):
    """The out-dir of the CLI's detection stages under ``config_text`` at
    seed 17, and ``run_detection`` on the corpus that ``ingest`` read there,
    under the config that the stages loaded."""
    config = tmp_path / "pipeline.cfg"
    config.write_text(config_text)
    out = tmp_path / "out"
    for stage in ("synth", "ingest", "links", "causality", "influence"):
        assert main([stage, "--config", str(config), "--out-dir", str(out), "--seed", "17"]) == 0
    with open(out / "posts.tsv", encoding="utf-8") as fh:
        posts = parse_content_file(fh)[0]
    with open(out / "access.log", encoding="utf-8") as fh:
        accesses = parse_access_log(fh)[0]
    cfg = load_config(str(config), {"seed": 17})
    return out, run_detection(Corpus(posts, accesses), cfg)


def _assert_cli_writes_detection(out, result, scratch):
    """links.tsv, both z-reports and influence.tsv hold ``result``'s links
    and reports: written to ``scratch`` under the header the CLI wrote,
    they are the CLI's bytes."""
    writes = {
        "links.tsv": lambda path, header: write_links_tsv(result.implicit.links, path, header),
        "influence.tsv": lambda path, header: write_links_tsv(result.influence.links, path, header),
        "zreport_forward.tsv": lambda path, header: causality.write_zreport_tsv(
            result.forward_report, path, header),
        "zreport_reversed.tsv": lambda path, header: causality.write_zreport_tsv(
            result.reversed_report, path, header),
    }
    scratch.mkdir()
    for name, write in writes.items():
        written = (out / name).read_bytes()
        write(scratch / name, written.split(b"\n", 1)[0].decode())
        assert (scratch / name).read_bytes() == written, name


def test_cli_links_carry_the_detection_similarity(tmp_path):
    """links.tsv and influence.tsv hold run_detection's links and their
    similarities bit for bit (NaN included), and without the similarity
    column they keep the bytes they had before they stored it; the CLI's
    z-reports are run_detection's."""
    out, result = _cli_detection(tmp_path, PIPELINE_CONFIG)
    for name, net in (("links.tsv", result.implicit), ("influence.tsv", result.influence)):
        text = (out / name).read_text(encoding="utf-8")
        links = read_links_tsv(out / name, net.window_hours).links
        assert list(links) == list(net.links)
        assert links.similarity.tobytes() == net.links.similarity.tobytes()
        rows = "".join(line.rsplit("\t", 1)[0] + "\n" for line in text.splitlines())
        assert hashlib.sha256(rows.encode()).hexdigest() == CLI_LINK_ROW_DIGESTS[name]
    _assert_cli_writes_detection(out, result, tmp_path / "run_detection")


def test_cli_detection_is_run_detection_off_the_defaults(tmp_path):
    """At a window, tau, vocabulary, token floor and bucket floor other than
    the defaults, each of which changes the outputs, run_detection under a
    config file's settings writes what the CLI's detection stages write
    under that file."""
    changed = ("window_hours = 9\ntau_hours = 3\nvocab_max_size = 100\nmin_tokens = 36\n"
               "min_bucket_n = 240\n")
    text = PIPELINE_CONFIG.replace("window_hours = 12\ntau_hours = 2\nvocab_max_size = 160\n",
                                   changed)
    assert changed in text
    out, result = _cli_detection(tmp_path, text)
    assert (result.implicit.window_hours, result.influence.window_hours) == (9, 3)
    assert len(result.forward_report.buckets) == 9
    assert 0 < np.isnan(result.implicit.links.similarity).sum() < len(result.implicit.links)
    for report in (result.forward_report, result.reversed_report):
        assert 0 < len(report.available()) < len(report.buckets)
    _assert_cli_writes_detection(out, result, tmp_path / "run_detection")


def _log_line(ip, request, referrer="-", stamp="31/Aug/2008:15:51:14 +0000"):
    return f'{ip} - - [{stamp}] "GET {request} HTTP/1.1" 200 0 "{referrer}" "-"\n'


def test_cli_cleaning_digest(tmp_path, capsys):
    """ingest of the synthetic logs plus a post that repeats a URL and one
    access that each cleaning rule drops, in rule order."""
    config = tmp_path / "pipeline.cfg"
    config.write_text(PIPELINE_CONFIG)
    out = tmp_path / "out"
    args = ["--config", str(config), "--out-dir", str(out), "--seed", "17"]
    assert main(["synth", *args]) == 0
    rows = [line.split("\t") for line in (out / "posts.tsv").read_text().splitlines()[1:]]
    last_u0032 = max(parse_iso_ts(row[1]) for row in rows if row[2] == "u0032")
    with open(out / "posts.tsv", "a") as fh:
        # u0054's first URL again, from a blogger and an IP that post nothing else.
        fh.write("ip9999\t2008-09-02T00:00:00Z\tu9999\t/u0054/p0\tdup\tblog-dup\tw0001\tdiary\n")
    with open(out / "access.log", "a") as fh:
        fh.writelines([
            _log_line("ip9999", "/u0054/p0"),
            _log_line("ip0032", "/u0054/p0", "http://reader.example/FEED/atom"),
            _log_line("ip0032", "/x/index.html"),
            _log_line("ip0032", "/nobody/p0"),
            _log_line("ip0054", "/u0054/p0"),
            # One second past the window after u0032's last post.
            _log_line("ip0032", "/u0054/p0", stamp=format_apache_ts(last_u0032 + 12 * 3600 + 1)),
        ])
    capsys.readouterr()
    assert main(["ingest", *args]) == 0
    printed = capsys.readouterr().out
    digest = hashlib.sha256((out / "activity.tsv").read_bytes()).hexdigest()
    assert digest == CLI_CLEANING_ACTIVITY_DIGEST
    counts = ", ".join(f"{rule} {n}" for rule, n in CLI_CLEANING_COUNTS.items())
    assert "(0 skipped, 1 duplicate URLs dropped)" in printed
    assert f"6 removed by cleaning ({counts}) -> 2704 kept" in printed


# --------------------------------------------------------------------------
# per-record oracles

def cosine(u, v):
    """Cosine similarity of two term vectors; zero when either is empty."""
    if not u.entries or not v.entries:
        return 0.0
    nu = math.sqrt(sum(c * c for c in u.entries.values()))
    nv = math.sqrt(sum(c * c for c in v.entries.values()))
    small, large = sorted((u.entries, v.entries), key=len)
    dot = sum(c * large.get(i, 0) for i, c in small.items())
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return dot / (nu * nv)


def build_vocabulary(docs, max_size):
    """The ``max_size`` terms of highest document frequency, ties broken by
    term, and each term's rank."""
    df = Counter()
    for tokens in docs:
        df.update(set(tokens))
    ranked = sorted(df.items(), key=lambda kv: (-kv[1], kv[0]))[:max_size]
    terms = [t for t, _ in ranked]
    return Vocabulary(terms, [c for _, c in ranked]), {t: i for i, t in enumerate(terms)}


def vectorize(tokens, index):
    """Counts of the in-vocabulary tokens, keyed in order of first occurrence."""
    entries = {index[tok]: n for tok, n in Counter(tokens).items() if tok in index}
    return TermVector(entries, sum(entries.values()))


def build_vectors(posts, max_size):
    """Tokenize every post, build the capped vocabulary, vectorize each post."""
    token_lists = {post.url: tokenize(post.body) for post in posts}
    vocab, index = build_vocabulary((token_lists[post.url] for post in posts), max_size)
    vectors = {url: vectorize(tokens, index) for url, tokens in sorted(token_lists.items())}
    return vocab, vectors


def _oracle_links(corpus, window_hours):
    window = window_hours * 3600
    posts = list(corpus.posts)
    by_user = {}
    for post in posts:
        by_user.setdefault(post.user_id, []).append((post.upload_ts, post.url))
    for entries in by_user.values():
        entries.sort()
    best = {}
    post_of, owners = url_to_post(posts), ip_to_bloggers(posts)
    for access in corpus.accesses:
        idx = post_of.get(access.request)
        if idx is None:
            continue
        target = posts[idx]
        for reader in sorted(owners.get(access.hashed_ip, frozenset())):
            if reader == target.user_id or reader not in by_user:
                continue
            entries = by_user[reader]
            times = [ts for ts, _ in entries]
            lo = bisect_right(times, access.access_ts)
            hi = bisect_right(times, access.access_ts + window)
            for ts_q, q_url in entries[lo:hi]:
                gap = ts_q - access.access_ts
                prev = best.get((q_url, target.url))
                if prev is None or gap < prev[0]:
                    best[(q_url, target.url)] = (gap, reader, target.user_id)
    return [(q, p, r, a, g, None) for (q, p), (g, r, a) in sorted(best.items())]


def _oracle_faces(links):
    """One anchor's coins before any draw: the links that carry a similarity
    in (gap, p) order, their forced faces (None where tied), the balanced
    head counts the ties can reach, and the median; None below two links."""
    eligible = [l for l in links if l.similarity is not None]
    if len(eligible) < 2:
        return None
    eligible.sort(key=lambda l: (l.gap_seconds, l.p))
    sims = [l.similarity for l in eligible]
    med = float(median(sims))
    faces = [True if s > med else False if s < med else None for s in sims]
    n, n_above, n_ties = len(faces), faces.count(True), faces.count(None)
    targets = [t for t in sorted({n // 2, (n + 1) // 2}) if 0 <= t - n_above <= n_ties]
    return eligible, faces, targets, med


def _oracle_draw(groups, rng):
    """The coin series of the (anchor, links) ``groups``, in their order, and
    the anchors skipped.  A flip per anchor that can reach both head counts,
    in anchor order, picks its count (a 1 the higher); then one permutation
    of every tied coin, in (anchor, gap, p) order, deals the ties: each
    anchor's tied coins that come first in it turn heads until the anchor
    has its count."""
    drafts = [(anchor, _oracle_faces(links)) for anchor, links in groups]
    drawn = [(anchor, draft) for anchor, draft in drafts if draft is not None]
    flips = iter(rng.integers(2, size=sum(len(d[2]) == 2 for _, d in drawn)).tolist())
    faces, need = [], []
    for _, (_, anchor_faces, targets, _) in drawn:
        faces.append(anchor_faces)
        need.append(targets[next(flips) if len(targets) == 2 else 0] - anchor_faces.count(True))
    ties = [(i, j) for i, anchor_faces in enumerate(faces)
            for j, face in enumerate(anchor_faces) if face is None]
    for k in rng.permutation(len(ties)).tolist():
        i, j = ties[k]
        faces[i][j] = need[i] > 0
        need[i] -= 1
    series = [
        CoinSeries(anchor=anchor, median_sim=med, coins=[
            ((l.gap_seconds + 3599) // 3600, f) for l, f in zip(eligible, faces)])
        for anchor, (eligible, faces, _, med) in drawn
    ]
    return series, len(drafts) - len(drawn)


def _oracle_make_coins(anchor, links, rng):
    series, _ = _oracle_draw([(anchor, links)], rng)
    return series[0] if series else None


def _oracle_coin_series(links, rng, side):
    groups = {}
    for link in links:
        groups.setdefault(getattr(link, side), []).append(link)
    return _oracle_draw(sorted(groups.items()), rng)


def _oracle_extract(links, tau_hours):
    groups = {}
    for link in links:
        groups.setdefault(link.q, []).append(link)
    kept = []
    for anchor in sorted(groups):
        eligible = [l for l in groups[anchor] if l.similarity is not None]
        if not eligible:
            continue
        med = float(median([l.similarity for l in eligible]))
        kept += [
            (l.q, l.p, l.reader, l.author, l.gap_seconds, l.similarity)
            for l in sorted(eligible, key=lambda l: l.p)
            if l.gap_seconds <= tau_hours * 3600 and l.similarity > med
        ]
    return kept


def _tie_heavy_links(seed, n_anchors=300):
    """Links of many q and p anchors, odd and even sizes, similarities
    rounded to 0.1 (so most anchors have ties), some without a similarity,
    a few signed zeros, and gaps in half hours (so equal gaps are common);
    the rows are shuffled before they become a table."""
    rng = np.random.default_rng(seed)
    rows = []
    for a in range(n_anchors):
        size = int(rng.integers(1, 10))
        for j in rng.choice(40, size=size, replace=False):
            roll = rng.random()
            sim = None if roll < 0.1 else -0.0 if roll < 0.15 else round(float(rng.random()), 1)
            rows.append((
                f"/u{a % 37}/q{a}", f"/v{int(j) % 7}/p{int(j)}", f"u{a % 37}", f"v{int(j) % 7}",
                int(rng.integers(1, 25)) * 1800, sim,
            ))
    rng.shuffle(rows)
    return links_table(rows)


@pytest.mark.parametrize("side", ["q", "p"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_coin_series_match_per_anchor_oracle(side, seed):
    links = _tie_heavy_links(seed)
    net = summarize_links(links, 12)
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    series, skipped = build_coin_series(net, rng, anchor_side=side)
    expected, expected_skipped = _oracle_coin_series(list(links), oracle_rng, side)
    assert skipped == expected_skipped
    assert [(s.anchor, s.coins, repr(s.median_sim)) for s in series] == [
        (s.anchor, s.coins, repr(s.median_sim)) for s in expected
    ]
    assert rng.bit_generator.state == oracle_rng.bit_generator.state
    assert sum(1 for s in series if len(s.coins) % 2) and sum(1 for s in series if len(s.coins) % 2 == 0)


def test_make_coins_matches_oracle_per_anchor():
    rng, oracle_rng = np.random.default_rng(9), np.random.default_rng(9)
    rows = list(_tie_heavy_links(9, n_anchors=60))
    for size in range(0, 12):
        chunk = rows[:size]
        rows = rows[size:] + chunk
        got = make_coins("/a/q", links_table(chunk), rng)
        want = _oracle_make_coins("/a/q", chunk, oracle_rng)
        assert (got is None) == (want is None)
        if got is not None:
            assert (got.coins, repr(got.median_sim)) == (want.coins, repr(want.median_sim))
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


@pytest.mark.parametrize("side", ["q", "p"])
def test_coin_faces_draw_only_tied_faces_under_balance(side):
    """The law of the tie stream, over 60 seeds on one tie-heavy table:
    every face off the median is forced, every series has |heads - tails|
    <= 1, and only tied coins change between seeds, nearly all of them
    (a tie that is rarely a head can keep its face over 60 seeds)."""
    links = _tie_heavy_links(4)
    code = links.q if side == "q" else links.p
    order, runs, _ = causality.anchor_runs(links, code)
    sizes = np.diff(runs)
    sim = links.similarity[order][np.repeat(sizes >= 2, sizes)]
    faces = []
    for seed in range(60):
        _, _, heads, bounds, med = causality._coin_faces(links, code, np.random.default_rng(seed))
        median_of = np.repeat(med, np.diff(bounds))
        forced = sim != median_of
        assert (heads[forced] == (sim > median_of)[forced]).all()
        n_heads = np.add.reduceat(heads.astype(np.int64), bounds[:-1])
        assert (np.abs(2 * n_heads - np.diff(bounds)) <= 1).all()
        faces.append(heads)
    varies = (np.array(faces) != faces[0]).any(axis=0)
    assert not varies[forced].any() and varies[~forced].mean() > 0.95


@pytest.mark.parametrize("seed", [0, 1])
def test_extract_influence_matches_oracle(seed):
    links = _tie_heavy_links(seed)
    got = extract_influence(summarize_links(links, 12), tau_hours=3)
    assert [(l.q, l.p, l.reader, l.author, l.gap_seconds, l.similarity) for l in got.links] == (
        _oracle_extract(list(links), 3)
    )


def test_implicit_links_match_oracle_with_shared_ips():
    rng = np.random.default_rng(3)
    users = [f"u{i}" for i in range(12)]
    posts = [
        make_post(u, s, BASE_TS + int(rng.integers(0, 86400)), ip=f"ip{i % 5}")
        for i, u in enumerate(users) for s in range(int(rng.integers(0, 9)))
    ] + [make_post("u1", 90 + k, BASE_TS + 7200, ip="ip1") for k in range(3)]  # equal upload times
    urls = [p.url for p in posts] + ["/nowhere/p0"]
    accesses = [
        make_access(f"ip{int(rng.integers(0, 6))}", BASE_TS + int(rng.integers(-3600, 86400)),
                    urls[int(rng.integers(len(urls)))])
        for _ in range(1500)
    ]
    corpus = make_corpus(posts, accesses)
    for window in (1, 12):
        got = build_implicit_links(activity_of(corpus.posts, corpus.accesses), window).links
        want = _oracle_links(corpus, window)
        assert len(want) > 50
        assert list(got) == want
        assert all(type(l.gap_seconds) is int for l in got)


def test_similarity_blocks_match_cosine():
    rng = np.random.default_rng(4)
    vectors = {}
    for d in range(300):
        entries = {int(t): int(rng.integers(1, 6)) for t in rng.choice(50, size=int(rng.integers(0, 12)), replace=False)}
        vectors[f"/u/p{d}"] = TermVector(entries, sum(entries.values()))
    urls = sorted(vectors) + ["/missing/p0"]
    n_links = 2 * causality._SIMILARITY_BLOCK + 777
    links = links_table(
        (urls[int(rng.integers(len(urls)))], urls[int(rng.integers(len(urls)))], "a", "b", 60)
        for _ in range(n_links)
    )
    net = summarize_links(links, 12)
    for min_tokens in (0, 10):
        n = annotate_similarity(net.links, post_terms(vectors, 50), min_tokens)
        expected = []
        for l in links:
            u, v = vectors.get(l.q), vectors.get(l.p)
            ok = u is not None and v is not None and min(u.token_count, v.token_count) >= min_tokens
            expected.append(repr(cosine(u, v)) if ok else None)
        got = [None if l.similarity is None else repr(l.similarity) for l in net.links]
        assert got == expected
        assert n == sum(s is not None for s in expected)
        assert None in got and "0.0" in got and n > causality._SIMILARITY_BLOCK


# Words whose tokens tie in document frequency, differ only in case, are
# not ASCII, are stopwords or are one letter long (neither is ever kept).
_WORDS = ["alpha", "Beta", "beta", "GAMMA", "zeta", "école", "École", "straße", "STRASSE",
          "İstanbul", "日本語", "naïve", "Ωmega", "ǅemal", "ﬁle", "a1", "x", "the", "and", "é"]
_BODIES = st.lists(
    st.tuples(st.sampled_from(_WORDS), st.sampled_from([" ", ", ", ". ", "-", "'", "—"])),
    max_size=14,
).map(lambda words: "".join(w + sep for w, sep in words))


@settings(max_examples=150, deadline=None)
@given(bodies=st.lists(_BODIES, min_size=1, max_size=12), shuffle=st.randoms(),
       cap=st.integers(1, 24))
def test_post_terms_space_matches_per_post_vectorize(bodies, shuffle, cap):
    posts = [make_post(f"u{i % 3}", i, BASE_TS + i, body=body) for i, body in enumerate(bodies)]
    shuffle.shuffle(posts)
    vocab, vectors = build_vectors(posts, cap)
    counts = count_terms(make_posts(posts))
    with tempfile.TemporaryDirectory() as tmp:
        write_post_terms(counts, Path(tmp) / "post_terms.tsv")
        stored = read_post_terms(Path(tmp) / "post_terms.tsv")
    for got in (space(counts, cap), space(stored, cap)):
        assert got.vocab.terms == vocab.terms
        assert got.vocab.doc_freq == vocab.doc_freq
        assert list(got.vectors) == list(vectors)
        for url, vec in vectors.items():
            assert list(got.vectors[url].entries.items()) == list(vec.entries.items())
            assert got.vectors[url].token_count == vec.token_count
        assert got.authors == {post.url: post.user_id for post in posts}



# --------------------------------------------------------------------------
# The model stages' inputs, built from the post-term columns, against the
# per-link and per-post loops over the dict vectors that they replace.

def _oracle_tensor(links, vectors):
    """(i, j, k) -> count over the shared terms of every link, the bloggers
    and the number of links that share no term."""
    bloggers = sorted({l.reader for l in links} | {l.author for l in links})
    index = {b: i for i, b in enumerate(bloggers)}
    acc, no_shared = {}, 0
    for l in links:
        terms = shared_terms(vectors[l.q], vectors[l.p])
        if not terms:
            no_shared += 1
        for k in terms:
            key = (index[l.reader], index[l.author], k)
            acc[key] = acc.get(key, 0) + 1
    return acc, bloggers, no_shared


def _oracle_content(nodes, post_vectors, n_terms):
    index = {b: i for i, b in enumerate(nodes)}
    mat = np.zeros((len(nodes), n_terms))
    for author, vec in post_vectors:
        row = index.get(author)
        if row is None:
            continue
        for k, c in vec.entries.items():
            mat[row, k] += c
    sums = mat.sum(axis=1, keepdims=True)
    return np.divide(mat, sums, out=np.zeros_like(mat), where=sums > 0)


def _oracle_doc_term(vectors, urls):
    """doc ids, rows, cols, counts and doc totals of the posts ``urls`` that
    keep a token, by url and then term."""
    items = sorted((url, vectors[url]) for url in urls if vectors[url].token_count > 0)
    rows = np.repeat(np.arange(len(items), dtype=np.int64), [len(vec.entries) for _, vec in items])
    cols = np.fromiter(chain.from_iterable(vec.entries for _, vec in items), np.int64, len(rows))
    counts = np.fromiter(
        chain.from_iterable(vec.entries.values() for _, vec in items), np.float64, len(rows)
    )
    order = np.lexsort((cols, rows))
    totals = np.array([float(sum(vec.entries.values())) for _, vec in items])
    return [url for url, _ in items], rows, cols[order], counts[order], totals


def _oracle_keywords(links, reader, author, vectors, vocab):
    keywords = set()
    for l in links:
        if (l.reader, l.author) == (reader, author):
            for k in shared_terms(vectors[l.q], vectors[l.p]):
                keywords.add(vocab.terms[k])
    return frozenset(keywords)


@settings(max_examples=150, deadline=None)
@given(bodies=st.lists(_BODIES, min_size=1, max_size=10),
       ends=st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=30),
       cap=st.integers(1, 24), seed=st.integers(0, 3))
@example(bodies=["alpha beta", "beta gamma alpha"], ends=[(0, 1), (1, 0)], cap=1, seed=0)
@example(bodies=["alpha beta", "beta gamma alpha"], ends=[(0, 1), (1, 0)], cap=24, seed=0)
def test_model_inputs_match_dict_oracles(bodies, ends, cap, seed):
    # Entries follow first occurrence.  The last two posts keep no token at
    # any cap and no token at small caps, and links from the first of them
    # share no term.
    bodies = bodies + ["", "Zymurgy zymurgy"]
    posts = [make_post(f"u{i % 4}", i, BASE_TS + i, body=body) for i, body in enumerate(bodies)]
    terms = count_terms(make_posts(posts))
    n = len(posts)
    ends = [(q % n, p % n) for q, p in ends] + [(n - 2, p) for p in range(n - 2)]
    rows = [(posts[q].url, posts[p].url, posts[q].user_id, posts[p].user_id, 60)
            for q, p in ends if posts[q].user_id != posts[p].user_id]
    if not rows:
        return
    links = links_table(rows)
    oracle = space(terms, cap)
    terms = terms.capped(cap)

    tensor = build_influence_tensor(links, terms)
    acc, bloggers, no_shared = _oracle_tensor(links, oracle.vectors)
    assert tensor_entries(tensor) == acc and tensor.bloggers == bloggers
    assert tensor.n_links_no_shared == no_shared and no_shared > 0
    assert tensor.n_terms == len(oracle.vocab)
    assert list(zip(tensor.influenced, tensor.influencer, tensor.term)) == sorted(acc)

    nodes = sorted({p.user_id for p in posts})[1:] + ["nobody"]
    content = blogger_content_matrix(nodes, terms)
    assert (content == _oracle_content(
        nodes, ((oracle.authors[url], vec) for url, vec in oracle.vectors.items()),
        len(oracle.vocab))).all()

    urls = link_posts(links)
    doc_term = build_doc_term(terms, urls)
    doc_ids, rows, cols, counts, totals = _oracle_doc_term(oracle.vectors, urls)
    assert doc_term.doc_ids == doc_ids and doc_term.n_terms == len(oracle.vocab)
    for got, want in ((doc_term.rows, rows), (doc_term.cols, cols),
                      (doc_term.counts, counts), (doc_term.doc_totals, totals)):
        assert got.dtype == want.dtype and got.tolist() == want.tolist()

    net = summarize_links(links, 2)
    try:
        split = split_train_test(net, terms, seed=seed)
    except ValueError:
        return
    for reader, author, keywords in split.test:
        assert keywords == _oracle_keywords(links, reader, author, oracle.vectors, oracle.vocab)
