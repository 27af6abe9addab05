"""Shared K-topic aspect model (PLSA) fitted by EM.

Both downstream factor models consume the same fitted topics so their
per-topic results stay comparable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from blogfluence import artifacts
from blogfluence.corpus import lexorder
from blogfluence.textvec import PostTerms

# Nonzeros per block of the E-step: (K, PLSA_BLOCK) temporaries instead of (K, nnz).
PLSA_BLOCK = 32_768


@dataclass
class DocTermMatrix:
    """Sparse document-term counts as aligned nonzero triplets."""

    doc_ids: list[str]
    n_terms: int
    rows: np.ndarray  # document index per nonzero
    cols: np.ndarray  # term index per nonzero
    counts: np.ndarray  # float64 counts per nonzero
    doc_totals: np.ndarray  # tokens per document

    @property
    def n_docs(self) -> int:
        return len(self.doc_ids)


def build_doc_term(terms: PostTerms, urls: Iterable[str]) -> DocTermMatrix:
    """The posts ``urls`` that keep at least one token, in url order, as
    nonzero triplets by document, terms ascending within a document."""
    post, term, count = terms.entries.T
    tokens = np.bincount(post, weights=count, minlength=len(terms.posts))
    wanted = np.zeros(len(terms.posts) + 1, dtype=bool)
    wanted[terms.post_index(urls)] = True
    keep = wanted[:-1] & (tokens > 0)
    doc = np.cumsum(keep) - 1
    at = keep[post]
    rows, cols = doc[post[at]], term[at]
    order = lexorder(rows, cols)
    return DocTermMatrix(
        doc_ids=[terms.posts[d][0] for d in np.flatnonzero(keep).tolist()],
        n_terms=len(terms.terms),
        rows=rows[order],
        cols=cols[order],
        counts=count[at][order].astype(np.float64),
        doc_totals=tokens[keep].astype(np.float64),
    )


@dataclass
class TopicModel:
    n_topics: int
    p_w_given_t: np.ndarray  # K x V, rows sum to 1
    p_t: np.ndarray  # length K, token-mass-weighted topic prior
    p_t_given_d: np.ndarray  # D x K, rows sum to 1
    loglik_trace: list[float]
    terms: list[str]
    doc_ids: list[str]


def scatter_rows(index: np.ndarray, rows: np.ndarray, size: int) -> np.ndarray:
    """Sum the rows of an (n, K) array into (size, K) by target row index.

    One ``bincount`` per column: the same sums, in the same order, as
    ``np.add.at`` into zeros, at a fraction of its cost.  Pass the
    transpose of a K-major (K, n) array, so each column is a contiguous row.
    """
    out = np.empty((size, rows.shape[1]))
    for k in range(rows.shape[1]):
        out[:, k] = np.bincount(index, weights=rows[:, k], minlength=size)
    return out


def row_sum(columns: np.ndarray) -> np.ndarray:
    """``columns.T.sum(axis=1)`` of a (K, n) array, bit for bit.

    numpy sums each contiguous row of length K of an (n, K) array in
    sequence below 8; up to 128 it keeps 8 accumulators
    ``r_j = a[j] + a[j+8] + ...``, adds them as
    ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))`` and then the rest in sequence;
    above 128 it splits the row at a multiple of 8 and adds the halves
    (``tests/test_topics.py`` checks this against numpy).  The
    accumulators are built in turn, so at most a few length-n temporaries
    are live.
    """
    k = len(columns)
    if k < 8:
        return columns.sum(axis=0)
    if k > 128:
        half = k // 2 - k // 2 % 8
        return row_sum(columns[:half]) + row_sum(columns[half:])
    m = k - k % 8

    def acc(j: int) -> np.ndarray:
        return columns[j] if m == 8 else columns[j:m:8].sum(axis=0)

    total = acc(0) + acc(1)
    total += acc(2) + acc(3)
    right = acc(4) + acc(5)
    right += acc(6) + acc(7)
    total += right
    for rest in columns[m:]:
        total += rest
    return total


def fit_plsa(
    doc_term: DocTermMatrix,
    n_topics: int,
    terms: list[str],
    *,
    max_iter: int,
    tol: float,
    seed: int | Sequence[int],
) -> TopicModel:
    """EM for the aspect model: P(w|d) = sum_t P(t|d) P(w|t), over the
    ``terms`` that name the document-term columns.

    Distributions start from seeded Dirichlet(1) rows.  The loglik trace
    is non-decreasing (EM guarantee); iteration stops at ``max_iter`` or
    when the relative loglik change drops below ``tol``.

    Each EM step is one pass over blocks of whole documents, about
    ``PLSA_BLOCK`` nonzeros each, with no (K, nnz) array.  Every float is a
    one-pass fit's: ``np.add.at`` adds a block's weights into the (K, V) term
    sums in index order, as one ``bincount`` over all nonzeros does, and each
    document's sums are one ``bincount`` within its block.
    """
    if doc_term.rows.size == 0 or doc_term.n_docs == 0:
        raise ValueError("empty document-term matrix")
    if n_topics < 1:
        raise ValueError("n_topics must be >= 1")
    if n_topics > doc_term.n_docs:
        raise ValueError(f"n_topics={n_topics} exceeds document count {doc_term.n_docs}")
    if np.any(doc_term.doc_totals <= 0):
        raise ValueError("every document must contain at least one token")
    rows, cols, counts = doc_term.rows, doc_term.cols, doc_term.counts
    if np.any(rows[1:] < rows[:-1]):
        raise ValueError("the nonzeros must be sorted by document")

    rng = np.random.default_rng(seed)
    n_docs, n_terms = doc_term.n_docs, doc_term.n_terms
    word_topic = rng.dirichlet(np.ones(n_terms), size=n_topics)  # K x V
    # K x D: each topic's row is contiguous where the E-step gathers from it.
    doc_topic = np.ascontiguousarray(rng.dirichlet(np.ones(n_topics), size=n_docs).T)
    # Cut at the first document start (or rows.size) at or after each multiple of PLSA_BLOCK.
    starts = np.flatnonzero(np.diff(rows, prepend=-1, append=n_docs))
    cuts = np.unique(starts[starts.searchsorted(np.r_[0:rows.size:PLSA_BLOCK, rows.size])])
    logs = np.empty(rows.size)

    def em_pass(doc_topic: np.ndarray, word_topic: np.ndarray, masses=()) -> float:
        # logs = count * log P(w|d) per nonzero; with the (K, V) and (K, D)
        # masses, P(t|d) P(w|t) / P(w|d) * count is added into them.
        for a, b in zip(cuts[:-1].tolist(), cuts[1:].tolist()):
            joint = np.take(doc_topic, rows[a:b], axis=1)
            joint *= np.take(word_topic, cols[a:b], axis=1)
            prob = row_sum(joint)
            np.multiply(counts[a:b], np.log(prob), out=logs[a:b])
            if masses:
                joint *= counts[a:b] / prob
                lo, hi = rows[a], rows[b - 1] + 1
                doc = rows[a:b] - lo
                for k in range(n_topics):
                    np.add.at(masses[0][k], cols[a:b], joint[k])
                    masses[1][k, lo:hi] = np.bincount(doc, joint[k], hi - lo)
                del doc
            del joint, prob  # before the next block's are made
        return float(logs.sum())

    trace: list[float] = []
    prev = None
    for _ in range(max_iter):
        term_mass, doc_mass = np.zeros((n_topics, n_terms)), np.zeros((n_topics, n_docs))
        loglik = em_pass(doc_topic, word_topic, (term_mass, doc_mass))
        trace.append(loglik)
        # A C-contiguous (V, K): numpy sums its columns in row order, as it
        # sums the scatter_rows layout the fit has always used.
        term_mass = np.ascontiguousarray(term_mass.T)
        topic_totals = term_mass.sum(axis=0)
        word_topic = (term_mass / np.maximum(topic_totals, 1e-300)).T
        doc_topic = doc_mass / doc_term.doc_totals
        if prev is not None and abs(loglik - prev) <= tol * abs(prev):
            break
        prev = loglik

    final = em_pass(doc_topic, word_topic)
    trace.append(final)
    if not np.isfinite(final):
        raise ArithmeticError("non-finite log-likelihood after PLSA fit")

    doc_topic = np.ascontiguousarray(doc_topic.T)  # the model's D x K, summed by column for p_t
    p_t = (doc_term.doc_totals[:, None] * doc_topic).sum(axis=0) / doc_term.doc_totals.sum()
    return TopicModel(
        n_topics=n_topics,
        p_w_given_t=word_topic,
        p_t=p_t,
        p_t_given_d=doc_topic,
        loglik_trace=trace,
        terms=list(terms),
        doc_ids=list(doc_term.doc_ids),
    )


def write_topic_model(model: TopicModel, path: str, header: str | None = None) -> None:
    artifacts.write_sections(path, header, {
        "meta": [["n_topics"], [model.n_topics]],
        "p_t": artifacts.cell_columns(model.p_t),
        "p_w_given_t": artifacts.cell_columns(model.p_w_given_t, None, model.terms),
    })


def read_topic_model(model_path: str, terms: list[str]) -> TopicModel:
    """Load the exported topic-term blocks; document rows are not exported."""
    sections = artifacts.read_sections(model_path, {
        "meta": {"n_topics": (int,)}, "p_t": [int, float], "p_w_given_t": [int, str, float],
    })
    (n_topics,) = sections["meta"]["n_topics"]
    prior, _ = artifacts.cell_array(model_path, sections, "p_t", n_topics)
    word_topic, _ = artifacts.cell_array(model_path, sections, "p_w_given_t", n_topics, terms)
    return TopicModel(
        n_topics=n_topics,
        p_w_given_t=word_topic,
        p_t=prior,
        p_t_given_d=np.zeros((0, n_topics)),
        loglik_trace=[],
        terms=list(terms),
        doc_ids=[],
    )
