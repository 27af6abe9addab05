"""In-memory composition of the pipeline, shared by the CLI, the
experiment scripts and the test suite so every entry point agrees on it.

``PipelineConfig`` holds a run's settings.  Detection cleans the corpus's
accesses into one ``Activity`` table, counts the posts' terms (capped to
the vocabulary once, as they are counted), builds the implicit ``Links``
table, fills its similarity column as the CLI's ``links`` stage does,
runs the forward and reversed bucket tests, and extracts the influence
network; the forward test and the extraction share q's anchor runs.
Each model stage is one function of its inputs and the config
(``fit_topics``, ``split_edges``, ``fit_iolap``, ``fit_pcldc``,
``fit_pcl``, ``recall_curve``) that owns its seed and the keys it passes
to its fit.  The CLI's stage bodies call them between artifact reads and
writes; ``recommendation_recall`` chains them in the CLI's order.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from blogfluence import analysis, factor, implicit, synth, textvec, topics
from blogfluence.causality import (
    ZReport,
    anchor_runs,
    annotate_similarity,
    extract_influence,
    forward_z_test,
    reversed_z_test,
)
from blogfluence.corpus import Activity, Corpus, clean_accesses
from blogfluence.implicit import ImplicitNetwork, build_implicit_links
from blogfluence.textvec import PostTerms

# Per-stage offsets mixed into the seed so stages draw independent streams;
# synth draws from the seed itself.
STAGE_SEED = {"causality": 1, "topics": 2, "iolap": 3, "pcldc": 4, "pcl": 5, "split": 6}


class ConfigError(ValueError):
    pass


@dataclass
class PipelineConfig:
    out_dir: str = "out"
    content_path: str = ""  # defaults to <out_dir>/posts.tsv
    access_path: str = ""  # defaults to <out_dir>/access.log
    window_hours: int = 12
    tau_hours: int = 2
    vocab_max_size: int = 2000
    min_tokens: int = 10
    min_bucket_n: int = 30
    tz_offset_hours: int = 9
    n_topics: int = 50
    rank_influenced: int = 8
    rank_influencer: int = 8
    plsa_max_iter: int = 200
    iolap_max_iter: int = 200
    pcldc_max_iter: int = 60
    pcl_max_iter: int = 200
    tol: float = topics.DEFAULT_TOL
    top_n: int = 10
    seed: int = 0
    synth: synth.SynthConfig = field(default_factory=synth.SynthConfig)

    def validate(self) -> None:
        if self.window_hours < 1 or self.tau_hours < 1:
            raise ConfigError("window_hours and tau_hours must be >= 1")
        if self.tau_hours > self.window_hours:
            raise ConfigError("tau_hours cannot exceed window_hours")
        if self.vocab_max_size < 1 or self.top_n < 1 or self.n_topics < 1:
            raise ConfigError("vocab_max_size, top_n, n_topics must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")

    def config_hash(self, keys: Iterable[str]) -> str:
        """A hash of the values of ``keys``; a "synth." key names a generator field."""
        parts = []
        for key in sorted(keys):
            owner, name = (self.synth, key[6:]) if key.startswith("synth.") else (self, key)
            parts.append(f"{key}={getattr(owner, name)!r}")
        return hashlib.sha256("\n".join(parts).encode()).hexdigest()[:12]


def build_vectors(corpus: Corpus) -> PostTerms:
    """Count every post's every term once; the caller caps the counts to its
    vocabulary (``PostTerms.capped``)."""
    return textvec.count_terms(corpus.posts)


@dataclass
class DetectionResult:
    cleaned: Activity
    terms: PostTerms  # capped to the run's vocabulary
    implicit: ImplicitNetwork
    forward_report: ZReport
    reversed_report: ZReport
    influence: ImplicitNetwork  # its window is tau


def run_detection(
    corpus: Corpus,
    *,
    window_hours: int = 12,
    tau_hours: int = 2,
    vocab_max_size: int = 2000,
    min_tokens: int = 10,
    min_bucket_n: int = 30,
    seed: int = 0,
) -> DetectionResult:
    """Run cleaning through influence extraction on a parsed corpus.

    All randomness (coin tie faces) comes from one generator derived from
    ``seed``, so a run is bit-reproducible.
    """
    cleaned, _ = clean_accesses(corpus, window_hours)
    terms = build_vectors(corpus).capped(vocab_max_size)
    net = build_implicit_links(cleaned, window_hours)
    annotate_similarity(net.links, terms, min_tokens)
    rng = np.random.default_rng([seed, STAGE_SEED["causality"]])
    runs = anchor_runs(net.links, net.links.q)  # for the forward test and the extraction
    forward = forward_z_test(net, rng, min_bucket_n, runs=runs)
    reversed_ = reversed_z_test(net, rng, min_bucket_n)
    influence = extract_influence(net, tau_hours, runs=runs)
    return DetectionResult(cleaned, terms, net, forward, reversed_, influence)


# --------------------------------------------------------------------------
# model stages

def training_links(links: implicit.Links, split: analysis.TrainTestSplit) -> implicit.Links:
    """The links whose (reader, author) pair is a training edge of ``split``."""
    pairs, which, _ = links.pairs()
    train = np.array([pair in split.train_edges for pair in pairs], dtype=bool)
    return links.take(train[which])


def blogger_graph(links: implicit.Links) -> factor.BloggerGraph:
    """The blogger digraph of ``links``; an edge weighs its number of links."""
    if not links:
        raise ValueError("influence network has no links; nothing to fit")
    return factor.BloggerGraph.from_edge_weights(implicit.blogger_projection(links))


def fit_topics(terms: PostTerms, urls: Iterable[str], cfg: PipelineConfig) -> topics.TopicModel:
    """PLSA over the posts ``urls`` that keep at least one token."""
    doc_term = topics.build_doc_term(terms, urls)
    return topics.fit_plsa(doc_term, cfg.n_topics, terms.vocabulary(), max_iter=cfg.plsa_max_iter,
                           tol=cfg.tol, seed=[cfg.seed, STAGE_SEED["topics"]])


def split_edges(influence: ImplicitNetwork, terms: PostTerms,
                cfg: PipelineConfig) -> analysis.TrainTestSplit:
    """The edge-holdout split of ``influence`` (``analysis.split_train_test``)."""
    return analysis.split_train_test(influence, terms, seed=[cfg.seed, STAGE_SEED["split"]])


def fit_iolap(tensor: factor.InfluenceTensor, topic_model: topics.TopicModel,
              cfg: PipelineConfig) -> factor.IolapModel:
    """iolap on ``tensor``, its keyword factor ``topic_model``'s topics."""
    return factor.fit_iolap(tensor, cfg.rank_influenced, cfg.rank_influencer, topic_model,
                            max_iter=cfg.iolap_max_iter, tol=cfg.tol,
                            seed=[cfg.seed, STAGE_SEED["iolap"]])


def fit_pcldc(links: implicit.Links, terms: PostTerms, cfg: PipelineConfig) -> factor.PcldcModel:
    """pcldc on the blogger graph of ``links``, each blogger's content summed
    over their posts' counts."""
    graph = blogger_graph(links)
    content = factor.blogger_content_matrix(graph.nodes, terms)
    return factor.fit_pcldc(graph, content, cfg.n_topics, terms.vocabulary(),
                            max_iter=cfg.pcldc_max_iter, tol=cfg.tol,
                            seed=[cfg.seed, STAGE_SEED["pcldc"]])


def fit_pcl(links: implicit.Links, cfg: PipelineConfig) -> factor.PclModel:
    """pcl on the blogger graph of ``links``."""
    return factor.fit_pcl(blogger_graph(links), cfg.n_topics, max_iter=cfg.pcl_max_iter,
                          tol=cfg.tol, seed=[cfg.seed, STAGE_SEED["pcl"]])


def recall_curve(split: analysis.TrainTestSplit, recommender: analysis.Recommender,
                 cfg: PipelineConfig) -> list[float]:
    """recall@1..``cfg.top_n`` of ``recommender`` over ``split``'s test pairs."""
    return analysis.recall_curve(split, recommender, cfg.top_n)


def recommendation_recall(
    result: DetectionResult, cfg: PipelineConfig
) -> tuple[dict[str, float], list[list[float]]]:
    """recall@``cfg.top_n`` per method, and the objective traces of PLSA,
    iolap, pcldc and pcl: the CLI's ``topics`` through ``eval`` over
    ``result``, detection under ``cfg``.  PLSA sees every influence link's
    posts; the other fits see the training edges of the split."""
    terms, influence = result.terms, result.influence
    topic_model = fit_topics(terms, implicit.link_posts(influence.links), cfg)
    split = split_edges(influence, terms, cfg)
    links = training_links(influence.links, split)
    iolap = fit_iolap(factor.build_influence_tensor(links, terms), topic_model, cfg)
    pcldc, pcl = fit_pcldc(links, terms, cfg), fit_pcl(links, cfg)
    methods = analysis.recommenders(iolap, topic_model, pcldc, pcl)
    recall = {name: recall_curve(split, rec, cfg)[-1] for name, rec in methods.items()}
    return recall, [topic_model.loglik_trace, iolap.loglik_trace, pcldc.objective_trace,
                    pcl.objective_trace]
