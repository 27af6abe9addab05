"""Command-line pipeline: synth -> ingest -> links -> causality -> influence
-> topics -> split -> tensor -> iolap -> pcldc -> pcl -> idr -> recommend
-> eval -> report.

``STAGES`` declares each subcommand once, in pipeline order: its body, the
artifacts it reads from the output directory (some optional), and the
config keys its outputs depend on beyond those of its inputs.  ``main``
runs every stage alike.  A missing required input exits 2.  The first line
of each input present must equal the header its producing stage would
write now, or the stage exits 1 naming the file and the stage to rerun.
A header records the tool version, the subcommand, a hash over the keys
of the stage's closure (its own keys and the closures of the stages that
write its inputs) and the seed, so that one comparison checks all four.
``ingest`` reads raw logs, which carry no header.  The body writes its
artifacts under its own header and returns the summary ``main`` prints.

``links`` and ``causality`` run detection's steps in ``pipeline``, as
``run_detection`` does in memory: ``links`` scores the links of
``activity.tsv`` against ``post_terms.tsv`` (``pipeline.score_links``) and
writes them to ``links.tsv``, one row per link in ``influence.tsv``'s plain
form, which ``causality`` (``pipeline.z_tests``) and ``influence`` read as
is.  Each model stage hands its inputs and the config to its function in
``pipeline``, which ``recommendation_recall`` chains in memory in the same
order.
Configuration comes from flat ``key = value`` files ("synth." keys reach
the generator); command-line flags override file values, and only the
final values are checked, so a file value that a flag corrects still
runs.  Re-running a subcommand with unchanged inputs and seed reproduces
its outputs byte for byte.

Exit codes: 0 ok, 1 config or input error, 2 missing upstream artifact,
3 numeric failure.  Every refusal is a ``ValueError``, which ``main`` alone
turns into exit 1 and one ``error:`` line; a stage body catches one only to
add what its message lacks, such as a path.

When a train/test split exists in the output directory, ``tensor``,
``pcldc``, and ``pcl`` fit on the training edges only (run ``split``
first when the goal is ``eval``); without a split they fit on the full
influence network, which is what ``idr`` wants.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys
from dataclasses import replace
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from blogfluence import __version__, analysis, artifacts, causality, factor, implicit
from blogfluence import pipeline, synth, textvec, topics
from blogfluence.corpus import (
    Corpus,
    FormatError,
    IngestError,
    access_lines,
    activity_histograms,
    clean_accesses,
    content_lines,
    parse_access_log,
    parse_content_file,
)
from blogfluence.pipeline import ConfigError, PipelineConfig, build_vectors
from blogfluence.textvec import PostTerms


def load_config(path: str | None, overrides: dict[str, object]) -> PipelineConfig:
    cfg = PipelineConfig()
    # The field of each key that a file may set; "synth." keys name generator fields.
    fields = {f.name: f for f in dataclasses.fields(PipelineConfig) if f.name != "synth"}
    fields |= {f"synth.{f.name}": f for f in dataclasses.fields(synth.SynthConfig)}
    values: dict[str, object] = {}
    if path:
        if not Path(path).exists():
            raise ConfigError(f"config file not found: {path}")
        for lineno, raw in enumerate(artifacts.read_text(path).splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key = value")
            key, value = (part.strip() for part in line.split("=", 1))
            if key == "synth.seed":
                raise ConfigError(f"{path}:{lineno}: synth.seed is not read; set seed")
            if key not in fields:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                values[key] = _parser(fields[key])(value)
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: {exc}") from exc
    synth_values = {key[6:]: values.pop(key) for key in list(values) if key.startswith("synth.")}
    flags = {key: value for key, value in overrides.items() if value is not None}
    return replace(cfg, **{**values, **flags}, synth=replace(cfg.synth, **synth_values))


def _parser(f: dataclasses.Field) -> Callable[[str], object]:
    """How a config value of the field ``f`` is read; profiles are comma-separated floats."""
    name = f.type if isinstance(f.type, str) else getattr(f.type, "__name__", "")
    return {"int": int, "float": float, "str": str}.get(
        name, lambda raw: tuple(float(x) for x in raw.split(",")))


# --------------------------------------------------------------------------
# artifact plumbing

def _path(cfg: PipelineConfig, name: str) -> Path:
    return Path(cfg.out_dir) / name


def _post_terms(cfg: PipelineConfig) -> PostTerms:
    """post_terms.tsv's counts, capped to the run's vocabulary as they are read."""
    return textvec.read_post_terms(_path(cfg, "post_terms.tsv")).capped(cfg.vocab_max_size)


def _topic_model(cfg: PipelineConfig) -> topics.TopicModel:
    """plsa_model.tsv, its terms checked against the vocabulary of post_terms.tsv."""
    terms = textvec.read_vocabulary(_path(cfg, "post_terms.tsv"), cfg.vocab_max_size)
    return topics.read_topic_model(_path(cfg, "plsa_model.tsv"), terms)


def _read_links(cfg: PipelineConfig) -> tuple[implicit.ImplicitNetwork, int]:
    """links.tsv and the number of its links that carry a similarity."""
    net = implicit.read_links_tsv(_path(cfg, "links.tsv"), cfg.window_hours)
    return net, int(np.count_nonzero(~np.isnan(net.links.similarity)))


def _read_influence(cfg: PipelineConfig,
                    terms: PostTerms | None = None) -> implicit.ImplicitNetwork:
    """influence.tsv; given ``terms``, every post must have counts in it."""
    return implicit.read_links_tsv(_path(cfg, "influence.tsv"), cfg.tau_hours,
                                   None if terms is None else dict(terms.posts))


def _load_influence_links(cfg: PipelineConfig, terms: PostTerms | None = None
                          ) -> tuple[implicit.Links, str]:
    """Influence links, filtered to the blogger pairs in train.tsv if it
    exists, and which of the two they are."""
    net = _read_influence(cfg, terms)
    if not _path(cfg, "train.tsv").exists():
        return net.links, "full influence network"
    split = analysis.read_split(_path(cfg, "train.tsv"), _path(cfg, "test.tsv"))
    return pipeline.training_links(net.links, split), "train edges"


# The tables that report bundles, by the column names their stages write.
_BUNDLED = {"gap_hist.tsv": ("bin", "count"), "zreport_forward.tsv": causality.ZREPORT_COLUMNS,
            "zreport_reversed.tsv": causality.ZREPORT_COLUMNS,
            "idr.tsv": ("method", "N", "idr"), "recall.tsv": ("method", "N", "recall")}


# --------------------------------------------------------------------------
# subcommands: each writes its artifacts under ``header`` and returns what it prints

def cmd_synth(cfg: PipelineConfig, args, header: str) -> str:
    try:
        corpus, truth = synth.generate(replace(cfg.synth, seed=cfg.seed))
    except synth.SynthesisError as exc:
        raise ConfigError(f"synth: {exc}") from exc
    artifacts.write_rows(_path(cfg, "posts.tsv"), header, [list(content_lines(corpus.posts))])
    artifacts.write_rows(_path(cfg, "access.log"), header, [list(access_lines(corpus.accesses))])
    synth.write_truth_tsv(truth, _path(cfg, "truth.tsv"), header)
    synth.write_experts_tsv(truth, _path(cfg, "experts.tsv"), header)
    return (f"synth: {len(corpus.posts)} posts, {len(corpus.accesses)} accesses, "
            f"{len(truth.influence_pairs)} planted pairs -> {cfg.out_dir}")


def cmd_ingest(cfg: PipelineConfig, args, header: str) -> str:
    content = Path(cfg.content_path) if cfg.content_path else _path(cfg, "posts.tsv")
    access = Path(cfg.access_path) if cfg.access_path else _path(cfg, "access.log")
    parsed = []
    for path, parse in ((content, parse_content_file), (access, parse_access_log)):
        with open(path, encoding="utf-8") as fh:
            try:
                parsed.append(parse(fh))
            except IngestError as exc:  # the parsers see a stream, not its path
                raise type(exc)(f"{path}: {exc}") from None
    (posts, posts_report), (accesses, access_report) = parsed
    corpus = Corpus(posts, accesses)
    activity, removal = clean_accesses(corpus, cfg.window_hours)
    implicit.write_activity(activity, _path(cfg, "activity.tsv"), header)
    textvec.write_post_terms(build_vectors(corpus), _path(cfg, "post_terms.tsv"), header)
    dropped = ", ".join(f"{rule} {n}" for rule, n in dataclasses.asdict(removal).items())
    return (f"ingest: {posts_report.n_ok} posts ({posts_report.n_skipped} skipped, "
            f"{posts_report.n_duplicate} duplicate URLs dropped), "
            f"{access_report.n_ok} accesses ({access_report.n_skipped} skipped), "
            f"{removal.total()} removed by cleaning ({dropped}) -> {len(activity.accesses)} kept")


def cmd_links(cfg: PipelineConfig, args, header: str) -> str:
    activity = implicit.read_activity(_path(cfg, "activity.tsv"))
    terms = _post_terms(cfg)
    if [url for url, _ in terms.posts] != activity.urls:
        raise FormatError(f"{_path(cfg, 'post_terms.tsv')}: [posts] urls differ from the "
                          f"{len(activity.urls)} post urls of activity.tsv")
    net = pipeline.score_links(activity, terms, cfg)
    implicit.write_links_tsv(net.links, _path(cfg, "links.tsv"), header)
    hist = implicit.gap_histogram(net)
    artifacts.write_rows(_path(cfg, "gap_hist.tsv"), header, [range(1, len(hist) + 1), hist],
                         _BUNDLED["gap_hist.tsv"])
    return (f"links: {net.post_link_count} post links, {net.blogger_link_count} blogger links, "
            f"{net.post_count} posts, {net.blogger_count} bloggers -> {_path(cfg, 'links.tsv')}")


def cmd_causality(cfg: PipelineConfig, args, header: str) -> str:
    net, n_scored = _read_links(cfg)
    forward, reversed_ = pipeline.z_tests(net, cfg)
    causality.write_zreport_tsv(forward, _path(cfg, "zreport_forward.tsv"), header)
    causality.write_zreport_tsv(reversed_, _path(cfg, "zreport_reversed.tsv"), header)
    sig_f = [b.bucket for b in forward.available() if b.one_sided_significant]
    sig_r = [b.bucket for b in reversed_.available() if b.one_sided_significant]
    return (f"causality: forward heads-enriched buckets {sig_f or 'none'}, "
            f"reversed {sig_r or 'none'}, over {n_scored} of {len(net.links)} links with a "
            f"similarity -> {_path(cfg, 'zreport_forward.tsv')}")


def cmd_influence(cfg: PipelineConfig, args, header: str) -> str:
    net, n_scored = _read_links(cfg)
    influence = causality.extract_influence(net, cfg.tau_hours)
    implicit.write_links_tsv(influence.links, _path(cfg, "influence.tsv"), header)
    return (f"influence: {influence.post_link_count} post links, "
            f"{influence.blogger_link_count} blogger links, {influence.post_count} posts, "
            f"{influence.blogger_count} bloggers, over {n_scored} of {len(net.links)} links with a "
            f"similarity -> {_path(cfg, 'influence.tsv')}")


def cmd_topics(cfg: PipelineConfig, args, header: str) -> str:
    terms = _post_terms(cfg)
    # _read_influence checks that every post of the links has counts.
    urls = implicit.link_posts(_read_influence(cfg, terms).links)
    model = pipeline.fit_topics(terms, urls, cfg)
    topics.write_topic_model(model, _path(cfg, "plsa_model.tsv"), header)
    return (f"topics: {model.n_topics} topics over {len(model.doc_ids)} docs, "
            f"loglik {model.loglik_trace[-1]:.2f} -> {_path(cfg, 'plsa_model.tsv')}")


def cmd_split(cfg: PipelineConfig, args, header: str) -> str:
    terms = _post_terms(cfg)
    split = pipeline.split_edges(_read_influence(cfg, terms), terms, cfg)
    analysis.write_split(split, _path(cfg, "train.tsv"), _path(cfg, "test.tsv"), header)
    return (f"split: {len(split.train_edges)} train edges, {len(split.test)} test pairs "
            f"-> {_path(cfg, 'train.tsv')}")


def cmd_tensor(cfg: PipelineConfig, args, header: str) -> str:
    terms = _post_terms(cfg)
    links, source = _load_influence_links(cfg, terms)
    tensor = factor.build_influence_tensor(links, terms)
    factor.write_tensor_tsv(tensor, _path(cfg, "tensor.tsv"), header)
    return (f"tensor: {tensor.counts.size} nonzeros, total {tensor.total():.0f}, "
            f"{tensor.n_bloggers} bloggers x {tensor.n_terms} terms ({source}) "
            f"-> {_path(cfg, 'tensor.tsv')}")


def cmd_iolap(cfg: PipelineConfig, args, header: str) -> str:
    topic_model = _topic_model(cfg)
    model = pipeline.fit_iolap(factor.read_tensor_tsv(_path(cfg, "tensor.tsv")), topic_model, cfg)
    factor.write_iolap_model(model, _path(cfg, "iolap_model.tsv"), header)
    stop = "converged" if model.converged else f"hit max_iter {cfg.iolap_max_iter}"
    return (f"iolap: rank {cfg.rank_influenced}x{cfg.rank_influencer}x{model.n_topics}, "
            f"loglik {model.loglik_trace[-1]:.2f} ({len(model.loglik_trace)} evals, {stop}) "
            f"-> {_path(cfg, 'iolap_model.tsv')}")


def cmd_pcldc(cfg: PipelineConfig, args, header: str) -> str:
    terms = _post_terms(cfg)
    links, source = _load_influence_links(cfg, terms)
    model = pipeline.fit_pcldc(links, terms, cfg)
    factor.write_pcldc_model(model, _path(cfg, "pcldc_model.tsv"), header)
    return (f"pcldc: {model.n_communities} communities over {len(model.nodes)} bloggers "
            f"({source}), objective {model.objective_trace[-1]:.2f} "
            f"-> {_path(cfg, 'pcldc_model.tsv')}")


def cmd_pcl(cfg: PipelineConfig, args, header: str) -> str:
    links, source = _load_influence_links(cfg)
    model = pipeline.fit_pcl(links, cfg)
    factor.write_pcl_model(model, _path(cfg, "pcl_model.tsv"), header)
    return (f"pcl: {model.n_communities} communities over {len(model.nodes)} bloggers ({source}), "
            f"objective {model.objective_trace[-1]:.2f} -> {_path(cfg, 'pcl_model.tsv')}")


def cmd_idr(cfg: PipelineConfig, args, header: str) -> str:
    iolap_model = factor.read_iolap_model(_path(cfg, "iolap_model.tsv"), _topic_model(cfg))
    pcldc_model = factor.read_pcldc_model(_path(cfg, "pcldc_model.tsv"))
    if iolap_model.n_topics < 2 or pcldc_model.n_communities < 2:
        raise ConfigError("diversity needs at least two topics")
    rankings = {
        "iolap": [factor.iolap_topic_influencers(iolap_model, t)
                  for t in range(iolap_model.n_topics)],
        "pcldc": [factor.pcldc_topic_influencers(pcldc_model, k)
                  for k in range(pcldc_model.n_communities)],
    }
    rows = [(method, n, value) for method, ranking in rankings.items()
            for n, value in analysis.idr_curve(ranking, cfg.top_n)]
    artifacts.write_rows(_path(cfg, "idr.tsv"), header, list(zip(*rows)), _BUNDLED["idr.tsv"])
    return f"idr: {len(rows)} rows for methods iolap, pcldc -> {_path(cfg, 'idr.tsv')}"


def _recommenders(cfg: PipelineConfig):
    """The four recommenders over the fitted models, all read from artifacts first."""
    topic_model = _topic_model(cfg)
    iolap_model = factor.read_iolap_model(_path(cfg, "iolap_model.tsv"), topic_model)
    return analysis.recommenders(iolap_model, topic_model,
                                 factor.read_pcldc_model(_path(cfg, "pcldc_model.tsv")),
                                 factor.read_pcl_model(_path(cfg, "pcl_model.tsv")))


def cmd_recommend(cfg: PipelineConfig, args, header: str) -> str:
    method = args.method
    keywords = [w for w in (args.keywords or "").split(",") if w]
    if method != "tg" and not args.member:
        raise ConfigError(f"--member is required for method {method!r}")
    if method != "pcl" and not keywords:
        raise ConfigError("--keywords is required (comma separated)")
    recommenders = _recommenders(cfg)
    exclude: set[str] = set()
    if args.member:
        exclude.add(args.member)
        if _path(cfg, "train.tsv").exists():
            split = analysis.read_split(_path(cfg, "train.tsv"), _path(cfg, "test.tsv"))
            exclude |= {b for (a, b) in split.train_edges if a == args.member}
        elif _path(cfg, "influence.tsv").exists():
            links = _read_influence(cfg).links
            exclude |= {b for a, b in implicit.blogger_projection(links) if a == args.member}
    try:
        ranked = recommenders[method](args.member, keywords, cfg.top_n, exclude)
    except analysis.UnanswerableQuery as exc:
        raise ConfigError(f"unanswerable query: {exc}") from exc
    out = Path(cfg.out_dir) / f"recommend_{method}.tsv"
    rows = ((i, b, s) for i, (b, s) in enumerate(ranked, 1))
    artifacts.write_rows(out, header, list(zip(*rows)), ("rank", "blogger", "score"))
    lines = [f"{i}\t{blogger}\t{score:.6f}" for i, (blogger, score) in enumerate(ranked, 1)]
    return "\n".join([*lines, f"recommend: {method} top-{cfg.top_n} -> {out}"])


def cmd_eval(cfg: PipelineConfig, args, header: str) -> str:
    split = analysis.read_split(_path(cfg, "train.tsv"), _path(cfg, "test.tsv"))
    rows, summary = [], []
    for method, recommender in _recommenders(cfg).items():
        try:
            curve = analysis.recall_curve(split, recommender, cfg.top_n)
        except analysis.UnknownMember as exc:  # from <method>_model.tsv: tg looks no member up
            raise FormatError(f"{_path(cfg, f'{method}_model.tsv')}: {exc.args[0]}") from None
        rows.extend((method, n, value) for n, value in enumerate(curve, 1))
        summary.append(f"{method}={curve[-1]:.3f}")
    artifacts.write_rows(_path(cfg, "recall.tsv"), header, list(zip(*rows)), _BUNDLED["recall.tsv"])
    return f"eval: recall@{cfg.top_n} {' '.join(summary)} -> {_path(cfg, 'recall.tsv')}"


def cmd_report(cfg: PipelineConfig, args, header: str) -> str:
    activity = implicit.read_activity(_path(cfg, "activity.tsv"))
    report_dir = Path(cfg.out_dir) / "report"
    report_dir.mkdir(parents=True, exist_ok=True)
    hist = activity_histograms(activity, cfg.tz_offset_hours)
    tables = {
        "hist_posts_hour.tsv": hist.posts_by_hour,
        "hist_posts_weekday.tsv": hist.posts_by_weekday,
        "hist_access_hour.tsv": hist.accesses_by_hour,
        "hist_access_weekday.tsv": hist.accesses_by_weekday,
    }
    for name, counts in tables.items():
        artifacts.write_rows(report_dir / name, header, [range(len(counts)), counts],
                             ("bin", "count"))
    stats = [hist.posts_per_blogger_mean, hist.posts_per_blogger_median,
             hist.posts_per_blogger_q1, hist.posts_per_blogger_q3, hist.n_bloggers]
    artifacts.write_rows(report_dir / "hist_posts_per_blogger.tsv", header,
                         [["mean", "median", "q1", "q3", "bloggers"], stats], ("stat", "value"))
    bundled = ["activity histograms"]
    for name, columns in _BUNDLED.items():
        src = _path(cfg, name)
        if src.exists():
            artifacts.read_columns(src, [str] * len(columns), columns)  # refuse a damaged table
            artifacts.copy_file(src, report_dir / src.name)
            bundled.append(src.name)
    if _path(cfg, "links.tsv").exists() and _path(cfg, "influence.tsv").exists():
        shift = causality.rank_shift_report(activity, _read_links(cfg)[0], _read_influence(cfg))
        for name, ranks, base in (("themes", shift.themes, "rank_all"),
                                  ("bloggers", shift.bloggers, "rank_implicit")):
            rows = ((r.item, r.rank_base, r.rank_influence) for r in ranks)
            artifacts.write_rows(report_dir / f"rankshift_{name}.tsv", header, list(zip(*rows)),
                                 ("item", base, "rank_influence"))
        bundled.append("rank shifts")
    return f"report: bundled {', '.join(bundled)} -> {report_dir}"


# --------------------------------------------------------------------------
# the stage table

class Stage(NamedTuple):
    """A subcommand: its body, the artifacts it reads (a trailing "?" marks
    an optional one), and the config keys its outputs depend on beyond those
    of its inputs."""
    run: Callable[[PipelineConfig, argparse.Namespace, str], str]
    reads: tuple[str, ...] = ()
    keys: tuple[str, ...] = ()


_SPLIT = ("train.tsv?", "test.tsv?")
_MODELS = ("post_terms.tsv", "iolap_model.tsv", "plsa_model.tsv", "pcldc_model.tsv",
           "pcl_model.tsv")
# synth.seed is not a key: synth draws from ``seed``.
_SYNTH_KEYS = tuple(f"synth.{f.name}" for f in dataclasses.fields(synth.SynthConfig)
                    if f.name != "seed")

# In pipeline order.  ingest reads raw logs, which carry no header.
STAGES = {
    "synth": Stage(cmd_synth, (), _SYNTH_KEYS),
    "ingest": Stage(cmd_ingest, (), ("window_hours",)),
    "links": Stage(cmd_links, ("activity.tsv", "post_terms.tsv"), ("vocab_max_size", "min_tokens")),
    "causality": Stage(cmd_causality, ("links.tsv",), ("min_bucket_n",)),
    "influence": Stage(cmd_influence, ("links.tsv",), ("tau_hours",)),
    "topics": Stage(cmd_topics, ("post_terms.tsv", "influence.tsv"),
                    ("n_topics", "plsa_max_iter", "tol")),
    "split": Stage(cmd_split, ("post_terms.tsv", "influence.tsv")),
    "tensor": Stage(cmd_tensor, ("post_terms.tsv", "influence.tsv", *_SPLIT)),
    "iolap": Stage(cmd_iolap, ("post_terms.tsv", "plsa_model.tsv", "tensor.tsv"),
                   ("rank_influenced", "rank_influencer", "iolap_max_iter", "tol")),
    "pcldc": Stage(cmd_pcldc, ("post_terms.tsv", "influence.tsv", *_SPLIT),
                   ("n_topics", "pcldc_max_iter", "tol")),
    "pcl": Stage(cmd_pcl, ("influence.tsv", *_SPLIT), ("n_topics", "pcl_max_iter", "tol")),
    "idr": Stage(cmd_idr, ("post_terms.tsv", "plsa_model.tsv", "iolap_model.tsv",
                           "pcldc_model.tsv"), ("top_n",)),
    "recommend": Stage(cmd_recommend, (*_MODELS, *_SPLIT, "influence.tsv?"), ("top_n",)),
    "eval": Stage(cmd_eval, ("train.tsv", "test.tsv", *_MODELS), ("top_n",)),
    "report": Stage(cmd_report, ("activity.tsv", *(f"{name}?" for name in _BUNDLED),
                                 "links.tsv?", "influence.tsv?"), ("tz_offset_hours",)),
}

# The stage that writes each artifact another stage reads.
_PRODUCER = {
    "activity.tsv": "ingest", "post_terms.tsv": "ingest", "links.tsv": "links",
    "gap_hist.tsv": "links", "zreport_forward.tsv": "causality",
    "zreport_reversed.tsv": "causality", "influence.tsv": "influence",
    "plsa_model.tsv": "topics", "train.tsv": "split", "test.tsv": "split",
    "tensor.tsv": "tensor", "iolap_model.tsv": "iolap", "pcldc_model.tsv": "pcldc",
    "pcl_model.tsv": "pcl", "idr.tsv": "idr", "recall.tsv": "eval",
}


def closure(stage: str) -> set[str]:
    """The config keys the outputs of ``stage`` depend on: its own and those
    of the stages that write its inputs."""
    keys = set(STAGES[stage].keys)
    return keys.union(*(closure(_PRODUCER[name.rstrip("?")]) for name in STAGES[stage].reads))


def _header(cfg: PipelineConfig, stage: str) -> str:
    return (f"# blogfluence {__version__} subcommand={stage} "
            f"config={cfg.config_hash(closure(stage))} seed={cfg.seed}")


def _check_header(cfg: PipelineConfig, path: Path) -> None:
    """Refuse an input whose first line is not the one its stage would write now."""
    with open(path, "rb") as fh:
        found = fh.readline().rstrip(b"\n").decode("utf-8", "replace")
    producer = _PRODUCER[path.name]
    expected = _header(cfg, producer)
    if found != expected:
        raise FormatError(f"{path}: first line {found!r} is not {expected!r}, which {producer} "
                          f"writes under this version, seed and config; rerun {producer}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat key = value configuration file")
    common.add_argument("--seed", type=int, default=None)
    common.add_argument("--out-dir", default=None)
    common.add_argument("--window-hours", type=int, default=None)
    common.add_argument("--tau-hours", type=int, default=None)
    common.add_argument("--topics", dest="n_topics", type=int, default=None)
    common.add_argument("--rank", default=None, help="tensor group counts as I,J")
    common.add_argument("--top-n", type=int, default=None)
    common.add_argument("--vocab-max-size", type=int, default=None)

    parser = argparse.ArgumentParser(
        prog="blogfluence",
        description="influence detection and topic-aware influence models for blog event logs",
    )
    subparsers = parser.add_subparsers(dest="subcommand", required=True)
    for name in STAGES:
        sub = subparsers.add_parser(name, parents=[common])
        if name == "ingest":
            sub.add_argument("--content", dest="content_path", help="posts TSV path")
            sub.add_argument("--access", dest="access_path", help="Apache combined log path")
        if name == "recommend":
            sub.add_argument("--method", choices=("tg", "iolap", "pcldc", "pcl"), required=True)
            sub.add_argument("--member", default=None)
            sub.add_argument("--keywords", default=None, help="comma separated query keywords")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # Each flag's dest names the config field it overrides.
    overrides = {f.name: getattr(args, f.name, None) for f in dataclasses.fields(PipelineConfig)}
    try:
        if args.rank is not None:
            try:
                i, j = (int(x) for x in args.rank.split(","))
            except ValueError as exc:
                raise ConfigError("--rank expects two integers as I,J") from exc
            overrides.update(rank_influenced=i, rank_influencer=j)
        cfg = load_config(args.config, overrides)
        Path(cfg.out_dir).mkdir(parents=True, exist_ok=True)
        stage = STAGES[args.subcommand]
        for name in stage.reads:
            path = _path(cfg, name.rstrip("?"))
            if path.exists() or not name.endswith("?"):
                _check_header(cfg, path)
        print(stage.run(cfg, args, _header(cfg, args.subcommand)))
        return 0
    except FileNotFoundError as exc:  # a required input, or a raw log of ingest
        print(f"missing upstream artifact: {exc.filename} (run the producing subcommand first)",
              file=sys.stderr)
        return 2
    except ValueError as exc:  # every refusal: config, input, or a fit's precondition
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # an input that cannot be read, an output that cannot be written
        print(f"error: {exc.filename}: {exc.strerror}" if exc.filename else f"error: {exc}",
              file=sys.stderr)
        return 1
    except ArithmeticError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
