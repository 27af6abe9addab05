"""In-memory composition of the pipeline, shared by the CLI, the
experiment scripts and the test suite so every entry point agrees on it.

Detection cleans the corpus's accesses into one ``Activity`` table,
counts the posts' terms, builds the implicit ``Links`` table from the
activity rows, fills its similarity column from the term counts (as the
CLI's ``links`` stage does), runs the forward and reversed bucket tests,
and extracts the influence network.  The term counts are capped to the
vocabulary once, as they are counted, and the model stages after
detection, up to the recommendation benchmark, read that capped table.
Those stages exist here once; fits and recommenders are called through
their modules (``factor.fit_iolap``, ...).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from blogfluence import analysis, factor, implicit, textvec, topics
from blogfluence.causality import (
    ZReport,
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
    forward = forward_z_test(net, rng, min_bucket_n)
    reversed_ = reversed_z_test(net, rng, min_bucket_n)
    influence = extract_influence(net, tau_hours)
    return DetectionResult(
        cleaned=cleaned,
        terms=terms,
        implicit=net,
        forward_report=forward,
        reversed_report=reversed_,
        influence=influence,
    )


# --------------------------------------------------------------------------
# model stages

def training_links(links: implicit.Links, split: analysis.TrainTestSplit) -> implicit.Links:
    """The links whose (reader, author) pair is a training edge of ``split``."""
    pairs, which, _ = links.pairs()
    train = np.array([pair in split.train_edges for pair in pairs], dtype=bool)
    return links.take(train[which])


def fit_topics(terms: PostTerms, urls: Iterable[str], n_topics: int,
               max_iter: int, tol: float, seed: list[int]) -> topics.TopicModel:
    """PLSA over the posts ``urls`` that keep at least one token."""
    doc_term = topics.build_doc_term(terms, urls)
    return topics.fit_plsa(doc_term, n_topics, terms.vocabulary(),
                           max_iter=max_iter, tol=tol, seed=seed)


def blogger_graph(links: implicit.Links) -> factor.BloggerGraph:
    """The blogger digraph of ``links``; an edge weighs its number of links."""
    if not links:
        raise ValueError("influence network has no links; nothing to fit")
    return factor.BloggerGraph.from_edge_weights(implicit.blogger_projection(links))


def fit_pcldc_model(graph: factor.BloggerGraph, terms: PostTerms, n_communities: int,
                    max_iter: int, tol: float, seed: list[int]) -> factor.PcldcModel:
    """pcldc on ``graph``, each blogger's content summed over their posts' counts."""
    content = factor.blogger_content_matrix(graph.nodes, terms)
    return factor.fit_pcldc(graph, content, n_communities, terms.vocabulary(),
                            max_iter=max_iter, tol=tol, seed=seed)


def recommendation_recall(
    result: DetectionResult, seed: int, top_n: int
) -> tuple[dict[str, float], list[list[float]]]:
    """recall@``top_n`` per method on an edge-holdout split of ``result``, and
    the objective traces of PLSA, every iolap restart, pcldc and pcl.  iolap
    keeps the best restart by training log-likelihood, never seeing test edges.
    """
    terms = result.terms
    split = analysis.split_train_test(result.influence, terms, seed=[seed, STAGE_SEED["split"]])
    links = training_links(result.influence.links, split)
    topic_model = fit_topics(terms, implicit.link_posts(links), 2, 150, topics.DEFAULT_TOL,
                             [seed, STAGE_SEED["topics"]])
    tensor = factor.build_influence_tensor(links, terms)
    iolap_fits = [factor.fit_iolap(tensor, 2, 4, topic_model, max_iter=300,
                                   seed=[seed, STAGE_SEED["iolap"], restart])
                  for restart in range(3)]
    iolap = max(iolap_fits, key=lambda m: m.loglik_trace[-1])
    graph = blogger_graph(links)
    pcldc = fit_pcldc_model(graph, terms, 2, 60, topics.DEFAULT_TOL,
                            [seed, STAGE_SEED["pcldc"]])
    pcl = factor.fit_pcl(graph, 2, max_iter=200, seed=[seed, STAGE_SEED["pcl"]])
    methods = analysis.recommenders(iolap, topic_model, pcldc, pcl)
    recall = {name: analysis.recall_at_n(split, rec, top_n) for name, rec in methods.items()}
    traces = [topic_model.loglik_trace, *(m.loglik_trace for m in iolap_fits),
              pcldc.objective_trace, pcl.objective_trace]
    return recall, traces
