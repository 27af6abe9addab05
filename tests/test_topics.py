import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blogfluence import topics
from blogfluence.topics import (
    DocTermMatrix,
    PLSA_BLOCK,
    row_sum,
    scatter_rows,
    fit_plsa,
    read_topic_model,
    write_topic_model,
)

from conftest import TOL, TermVector, doc_term


def _monotone(trace):
    trace = np.asarray(trace)
    return np.all(np.diff(trace) >= -1e-9 * np.abs(trace[:-1]))


def _grouped_docs(seed, n_docs=40, words_per_group=5, tokens=30):
    """Two halves of the corpus draw from disjoint vocabulary slices."""
    rng = np.random.default_rng(seed)
    docs = {}
    for d in range(n_docs):
        grp = d % 2
        counts = {}
        for _ in range(tokens):
            w = int(rng.integers(0, words_per_group)) + grp * words_per_group
            counts[w] = counts.get(w, 0) + 1
        docs[f"d{d:03d}"] = TermVector(counts, tokens)
    return docs, [f"w{i}" for i in range(2 * words_per_group)]


class TestFitPlsa:
    def test_single_topic_matches_global_frequencies(self):
        vecs = {"d1": TermVector({0: 2, 1: 1}, 3), "d2": TermVector({1: 3, 2: 1}, 4)}
        model = fit_plsa(doc_term(vecs, 3), 1, ["w0", "w1", "w2"], max_iter=30, seed=0, tol=TOL)
        expected = np.array([2, 4, 1]) / 7.0
        assert np.abs(model.p_w_given_t[0] - expected).max() <= 1e-10

    def test_loglik_non_decreasing(self):
        docs, terms = _grouped_docs(0)
        model = fit_plsa(doc_term(docs, len(terms)), 3, max_iter=80, seed=1, terms=terms, tol=TOL)
        assert _monotone(model.loglik_trace)

    def test_disjoint_groups_recovered(self):
        pure = 0
        for seed in range(5):
            docs, terms = _grouped_docs(seed + 10)
            dt = doc_term(docs, len(terms))
            model = fit_plsa(dt, 2, max_iter=150, seed=seed, terms=terms, tol=TOL)
            assignment = model.p_t_given_d.argmax(axis=1)
            truth = np.array([int(doc_id[1:]) % 2 for doc_id in model.doc_ids])
            agreement = (assignment == truth).mean()
            pure += max(agreement, 1 - agreement)
        assert pure / 5 >= 0.9

    def test_rows_stochastic(self):
        docs, terms = _grouped_docs(3)
        model = fit_plsa(doc_term(docs, len(terms)), 4, max_iter=40, seed=2, terms=terms, tol=TOL)
        assert np.allclose(model.p_w_given_t.sum(axis=1), 1.0, atol=1e-8)
        assert np.allclose(model.p_t_given_d.sum(axis=1), 1.0, atol=1e-8)
        assert model.p_t.sum() == pytest.approx(1.0, abs=1e-8)
        assert (model.p_w_given_t >= 0).all() and (model.p_t_given_d >= 0).all()

    def test_topic_permutation_preserves_loglik(self):
        docs, terms = _grouped_docs(5)
        dt = doc_term(docs, len(terms))
        model = fit_plsa(dt, 3, max_iter=50, seed=4, terms=terms, tol=TOL)

        def loglik(word_topic, doc_topic):
            joint = doc_topic[dt.rows] * word_topic[:, dt.cols].T
            return float(dt.counts @ np.log(joint.sum(axis=1)))

        perm = [2, 0, 1]
        base = loglik(model.p_w_given_t, model.p_t_given_d)
        permuted = loglik(model.p_w_given_t[perm], model.p_t_given_d[:, perm])
        assert permuted == pytest.approx(base, rel=1e-12)

    def test_errors(self):
        docs, terms = _grouped_docs(6, n_docs=4)
        dt = doc_term(docs, len(terms))
        with pytest.raises(ValueError):
            fit_plsa(dt, 5, terms, seed=0, max_iter=200, tol=TOL)  # more topics than documents
        with pytest.raises(ValueError):
            fit_plsa(doc_term({}, 3), 1, ["w0", "w1", "w2"], seed=0, max_iter=200, tol=TOL)

    def test_same_seed_reproduces(self):
        docs, terms = _grouped_docs(7)
        dt = doc_term(docs, len(terms))
        a = fit_plsa(dt, 2, max_iter=30, seed=9, terms=terms, tol=TOL)
        b = fit_plsa(dt, 2, max_iter=30, seed=9, terms=terms, tol=TOL)
        assert np.array_equal(a.p_w_given_t, b.p_w_given_t)
        assert a.loglik_trace == b.loglik_trace


def test_model_round_trip(tmp_path):
    docs, terms = _grouped_docs(11)
    model = fit_plsa(doc_term(docs, len(terms)), 2, max_iter=40, seed=3, terms=terms, tol=TOL)
    path = tmp_path / "model.tsv"
    write_topic_model(model, path, "# header")
    loaded = read_topic_model(path, terms)
    assert loaded.n_topics == 2
    assert np.array_equal(loaded.p_w_given_t, model.p_w_given_t)
    assert np.array_equal(loaded.p_t, model.p_t)


def test_scatter_rows_bit_identical_to_add_at():
    rng = np.random.default_rng(4)
    index = rng.integers(0, 50, size=3600)
    index[index == 7] = 8  # row 7 receives nothing
    rows = rng.random((3600, 8)) * 10.0 ** rng.integers(-6, 6, size=(3600, 1))
    expected = np.zeros((52, 8))
    np.add.at(expected, index, rows)
    got = scatter_rows(index, rows, 52)
    assert got.shape == (52, 8)
    assert np.array_equal(got, expected)
    assert not got[7].any()


# --------------------------------------------------------------------------
# the topic-major E-step against the (nnz, K) loop it replaced


def fit_plsa_nnz_major(doc_term, n_topics, max_iter, tol, seed):
    """The EM loop over an (nnz, K) array, as ``fit_plsa`` ran it before its
    per-nonzero arrays became topic-major, with the log-likelihood summed as
    ``fit_plsa`` sums it; the oracle of the tests below."""
    rng = np.random.default_rng(seed)
    n_docs, n_terms = doc_term.n_docs, doc_term.n_terms
    word_topic = rng.dirichlet(np.ones(n_terms), size=n_topics)
    doc_topic = rng.dirichlet(np.ones(n_topics), size=n_docs)
    rows, cols, counts = doc_term.rows, doc_term.cols, doc_term.counts
    trace, prev = [], None
    for _ in range(max_iter):
        joint = doc_topic[rows]
        joint *= word_topic[:, cols].T
        prob = joint.sum(axis=1)
        loglik = float((counts * np.log(prob)).sum())
        trace.append(loglik)
        joint *= (counts / prob)[:, None]
        term_mass = scatter_rows(cols, joint, n_terms)
        doc_mass = scatter_rows(rows, joint, n_docs)
        topic_totals = term_mass.sum(axis=0)
        word_topic = (term_mass / np.maximum(topic_totals, 1e-300)).T
        doc_topic = doc_mass / doc_term.doc_totals[:, None]
        if prev is not None and abs(loglik - prev) <= tol * abs(prev):
            break
        prev = loglik
    joint = doc_topic[rows] * word_topic[:, cols].T
    trace.append(float((counts * np.log(joint.sum(axis=1))).sum()))
    p_t = (doc_term.doc_totals[:, None] * doc_topic).sum(axis=0) / doc_term.doc_totals.sum()
    return word_topic, p_t, doc_topic, trace


def _random_doc_term(seed, n_docs, n_terms, density):
    """Counts from 1 to 5 at random (document, term) cells, at least one per document."""
    rng = np.random.default_rng(seed)
    mask = rng.random((n_docs, n_terms)) < density
    mask[np.arange(n_docs), rng.integers(n_terms, size=n_docs)] = True
    rows, cols = np.nonzero(mask)
    counts = rng.integers(1, 6, size=rows.size).astype(np.float64)
    return DocTermMatrix(
        doc_ids=[f"d{d}" for d in range(n_docs)], n_terms=n_terms, rows=rows, cols=cols,
        counts=counts, doc_totals=np.bincount(rows, weights=counts, minlength=n_docs),
    )


@settings(max_examples=80, deadline=None)
@given(
    n_topics=st.sampled_from([1, 2, 3, 7, 8, 9, 16, 17, 129]),
    seed=st.integers(0, 2**32 - 1),
    extra_docs=st.integers(0, 20),
    n_terms=st.integers(1, 40),
    density=st.floats(0.0, 0.6),
    max_iter=st.integers(1, 6),
    tol=st.sampled_from([0.0, 1e-7, 1e-2]),
)
def test_fit_plsa_is_bit_identical_to_the_nnz_major_loop(n_topics, seed, extra_docs, n_terms,
                                                       density, max_iter, tol):
    dt = _random_doc_term(seed, n_topics + extra_docs, n_terms, density)
    model = fit_plsa(dt, n_topics, [f"w{i}" for i in range(n_terms)], max_iter=max_iter,
                     tol=tol, seed=seed)
    word_topic, p_t, doc_topic, trace = fit_plsa_nnz_major(dt, n_topics, max_iter, tol, seed)
    assert np.array_equal(model.p_w_given_t, word_topic)
    assert np.array_equal(model.p_t, p_t)
    assert np.array_equal(model.p_t_given_d, doc_topic)
    assert model.loglik_trace == trace


@settings(max_examples=30, deadline=None)
@given(
    n_topics=st.sampled_from([1, 3, 8, 9, 17]),
    seed=st.integers(0, 2**32 - 1),
    block=st.integers(1, 50),
    max_iter=st.integers(1, 4),
)
def test_fit_plsa_keeps_every_float_in_any_block_size(n_topics, seed, block, max_iter):
    """Blocks that cut documents, and a last block shorter than the rest,
    leave every fitted float and the whole trace as the one-pass loop has them."""
    dt = _random_doc_term(seed, n_topics + 12, 30, 0.3)
    with mock.patch.object(topics, "PLSA_BLOCK", block):
        model = fit_plsa(dt, n_topics, [f"w{i}" for i in range(30)], max_iter=max_iter,
                         tol=0.0, seed=seed)
    word_topic, p_t, doc_topic, trace = fit_plsa_nnz_major(dt, n_topics, max_iter, 0.0, seed)
    assert np.array_equal(model.p_w_given_t, word_topic)
    assert np.array_equal(model.p_t, p_t)
    assert np.array_equal(model.p_t_given_d, doc_topic)
    assert model.loglik_trace == trace


def _ragged_doc_term(seed, n_docs, n_terms, max_len):
    """Documents of 1 to ``max_len`` distinct terms, a quarter of them of one."""
    rng = np.random.default_rng(seed)
    lengths = np.where(rng.random(n_docs) < 0.25, 1, rng.integers(1, max_len + 1, n_docs))
    cols = np.concatenate([np.sort(rng.choice(n_terms, n, replace=False)) for n in lengths])
    rows = np.repeat(np.arange(n_docs), lengths)
    counts = rng.integers(1, 6, size=rows.size).astype(np.float64)
    return DocTermMatrix(
        doc_ids=[f"d{d}" for d in range(n_docs)], n_terms=n_terms, rows=rows, cols=cols,
        counts=counts, doc_totals=np.bincount(rows, weights=counts, minlength=n_docs),
    )


@settings(max_examples=40, deadline=None)
@given(
    n_topics=st.sampled_from([1, 2, 8, 9, 17]),
    seed=st.integers(0, 2**32 - 1),
    max_len=st.integers(1, 40),
    shrink=st.integers(1, 40),
    max_iter=st.integers(1, 4),
)
def test_fit_plsa_keeps_every_float_with_documents_longer_than_a_block(n_topics, seed, max_len,
                                                                       shrink, max_iter):
    """Blocks cut at document starts when ``PLSA_BLOCK`` is below the longest
    document, so that blocks run past their multiple of it, and with
    one-nonzero documents."""
    dt = _ragged_doc_term(seed, n_topics + 15, 40, max_len)
    block = max(1, int(np.bincount(dt.rows).max()) - shrink)
    with mock.patch.object(topics, "PLSA_BLOCK", block):
        model = fit_plsa(dt, n_topics, [f"w{i}" for i in range(40)], max_iter=max_iter,
                         tol=0.0, seed=seed)
    word_topic, p_t, doc_topic, trace = fit_plsa_nnz_major(dt, n_topics, max_iter, 0.0, seed)
    assert np.array_equal(model.p_w_given_t, word_topic)
    assert np.array_equal(model.p_t, p_t)
    assert np.array_equal(model.p_t_given_d, doc_topic)
    assert model.loglik_trace == trace


def fit_plsa_doc_major(doc_term, n_topics, max_iter, tol, seed):
    """The blocked EM loop as ``fit_plsa`` ran it while its document-topic
    array was (D, K), gathered through the (K, D) view of its transpose; the
    oracle of the K-major fit."""
    rng = np.random.default_rng(seed)
    n_docs, n_terms = doc_term.n_docs, doc_term.n_terms
    word_topic = rng.dirichlet(np.ones(n_terms), size=n_topics)
    doc_topic = rng.dirichlet(np.ones(n_topics), size=n_docs)
    rows, cols, counts = doc_term.rows, doc_term.cols, doc_term.counts
    starts = np.flatnonzero(np.diff(rows, prepend=-1, append=n_docs))
    cuts = np.unique(starts[starts.searchsorted(np.r_[0:rows.size:topics.PLSA_BLOCK, rows.size])])
    logs = np.empty(rows.size)

    def em_pass(doc_topic, word_topic, masses=()):
        for a, b in zip(cuts[:-1].tolist(), cuts[1:].tolist()):
            joint = np.take(doc_topic.T, rows[a:b], axis=1)
            joint *= np.take(word_topic, cols[a:b], axis=1)
            prob = row_sum(joint)
            np.multiply(counts[a:b], np.log(prob), out=logs[a:b])
            if masses:
                joint *= counts[a:b] / prob
                lo, hi = rows[a], rows[b - 1] + 1
                for k in range(n_topics):
                    np.add.at(masses[0][k], cols[a:b], joint[k])
                    masses[1][k, lo:hi] = np.bincount(rows[a:b] - lo, joint[k], hi - lo)
        return float(logs.sum())

    trace, prev = [], None
    for _ in range(max_iter):
        term_mass, doc_mass = np.zeros((n_topics, n_terms)), np.zeros((n_topics, n_docs))
        loglik = em_pass(doc_topic, word_topic, (term_mass, doc_mass))
        trace.append(loglik)
        term_mass = np.ascontiguousarray(term_mass.T)
        word_topic = (term_mass / np.maximum(term_mass.sum(axis=0), 1e-300)).T
        doc_topic = np.ascontiguousarray(doc_mass.T) / doc_term.doc_totals[:, None]
        if prev is not None and abs(loglik - prev) <= tol * abs(prev):
            break
        prev = loglik
    trace.append(em_pass(doc_topic, word_topic))
    p_t = (doc_term.doc_totals[:, None] * doc_topic).sum(axis=0) / doc_term.doc_totals.sum()
    return word_topic, p_t, doc_topic, trace


@settings(max_examples=40, deadline=None)
@given(
    n_topics=st.sampled_from([1, 2, 3, 8, 9, 17, 129]),
    seed=st.integers(0, 2**32 - 1),
    extra_docs=st.integers(0, 30),
    n_terms=st.integers(1, 40),
    max_iter=st.integers(1, 5),
    tol=st.sampled_from([0.0, 1e-7, 1e-2]),
    block=st.sampled_from([1, 7, PLSA_BLOCK]),
)
def test_fit_plsa_k_major_is_bit_identical_to_the_doc_major_loop(n_topics, seed, extra_docs,
                                                                n_terms, max_iter, tol, block):
    """The trace, both matrices and ``p_t`` of the K-major fit, bit for bit,
    and ``p_t_given_d`` a C-ordered (D, K) array, as it was."""
    dt = _ragged_doc_term(seed, n_topics + extra_docs, n_terms, min(n_terms, 12))
    with mock.patch.object(topics, "PLSA_BLOCK", block):
        model = fit_plsa(dt, n_topics, [f"w{i}" for i in range(n_terms)], max_iter=max_iter,
                         tol=tol, seed=seed)
        word_topic, p_t, doc_topic, trace = fit_plsa_doc_major(dt, n_topics, max_iter, tol, seed)
    assert model.loglik_trace == trace
    assert model.p_w_given_t.tobytes() == word_topic.tobytes()
    assert model.p_t.tobytes() == p_t.tobytes()
    assert model.p_t_given_d.flags.c_contiguous and model.p_t_given_d.shape == doc_topic.shape
    assert model.p_t_given_d.tobytes() == doc_topic.tobytes()


def test_fit_plsa_refuses_nonzeros_out_of_document_order():
    dt = _random_doc_term(3, 6, 10, 0.5)
    order = np.argsort(dt.cols, kind="stable")
    dt = DocTermMatrix(dt.doc_ids, dt.n_terms, dt.rows[order], dt.cols[order], dt.counts[order],
                       dt.doc_totals)
    with pytest.raises(ValueError, match="sorted by document"):
        fit_plsa(dt, 2, [f"w{i}" for i in range(10)], max_iter=2, tol=TOL, seed=0)


def test_fit_plsa_peak_memory_is_below_one_topic_by_nonzero_array():
    """The traced peak of a fit over about 160,000 nonzeros (about five
    blocks) stays below one (K, nnz) float64 array: the E-step and both
    scatters work a block at a time.  tracemalloc sees numpy's buffers."""
    dt = _random_doc_term(0, 4000, 800, 0.05)
    n_topics, nnz = 8, dt.rows.size
    assert nnz > 4 * PLSA_BLOCK
    terms = [f"w{i}" for i in range(800)]
    tracemalloc.start()
    try:
        fit_plsa(dt, n_topics, terms, max_iter=3, tol=0.0, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * n_topics * nnz


def test_row_sum_is_numpys_row_sum():
    rng = np.random.default_rng(13)
    for k in range(1, 301):
        rows = rng.standard_normal((9, k)) * 10.0 ** rng.integers(-8, 9, size=(9, k))
        got = row_sum(np.ascontiguousarray(rows.T))
        assert np.array_equal(got, rows.sum(axis=1)), k
        assert got.base is None, k  # a new array: fit_plsa scales its input in place next


_TRACES_SCRIPT = """
import numpy as np
from blogfluence.factor import InfluenceTensor, fit_iolap
from blogfluence.topics import DocTermMatrix, TopicModel, fit_plsa
rng = np.random.default_rng(0)
n_docs, n_terms, per_doc = 2000, 1000, 60
rows = np.repeat(np.arange(n_docs), per_doc)
cols = np.concatenate([np.sort(rng.choice(n_terms, per_doc, replace=False))
                       for _ in range(n_docs)])
counts = rng.integers(1, 5, rows.size).astype(float)
docs = DocTermMatrix([f"d{i:05d}" for i in range(n_docs)], n_terms, rows, cols, counts,
                     np.bincount(rows, weights=counts))
terms = [f"w{i}" for i in range(n_terms)]
print(repr(fit_plsa(docs, 8, terms, max_iter=4, tol=1e-7, seed=1).loglik_trace))
keys = np.unique(rng.integers(0, [300, 300, 1000], size=(120000, 3)), axis=0)
keys = keys[keys[:, 0] != keys[:, 1]]
tensor = InfluenceTensor([f"u{i}" for i in range(300)], 1000, keys[:, 0], keys[:, 1],
                         keys[:, 2], rng.integers(1, 5, len(keys)).astype(float))
topics = TopicModel(8, rng.dirichlet(np.ones(n_terms), 8), np.full(8, 0.125), np.zeros((0, 8)),
                    [], terms, [])
print(len(keys), repr(fit_iolap(tensor, 8, 8, topics, max_iter=4, tol=1e-7,
                                 seed=1).loglik_trace))
"""


def test_fit_traces_do_not_depend_on_the_blas_thread_count():
    """PLSA over 120,000 nonzeros and iolap over about 119,500 give bit-equal
    log-likelihood traces with 1 and 2 BLAS threads: the log-likelihood is
    numpy's own sum, whose order no thread count changes."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        done = subprocess.run([sys.executable, "-c", _TRACES_SCRIPT], env=env,
                              capture_output=True, text=True, check=True)
        outputs.append(done.stdout)
    assert int(outputs[0].split("\n")[1].split(" ", 1)[0]) >= 100_000
    assert outputs[0] == outputs[1]
