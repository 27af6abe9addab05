import numpy as np
import pytest

from blogfluence.topics import (
    scatter_rows,
    fit_plsa,
    read_topic_model,
    top_keywords,
    write_topic_model,
)

from conftest import TermVector, doc_term


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
        model = fit_plsa(doc_term(vecs, 3), 1, max_iter=30, seed=0)
        expected = np.array([2, 4, 1]) / 7.0
        assert np.abs(model.p_w_given_t[0] - expected).max() <= 1e-10

    def test_loglik_non_decreasing(self):
        docs, terms = _grouped_docs(0)
        model = fit_plsa(doc_term(docs, len(terms)), 3, max_iter=80, seed=1, terms=terms)
        assert _monotone(model.loglik_trace)

    def test_disjoint_groups_recovered(self):
        pure = 0
        for seed in range(5):
            docs, terms = _grouped_docs(seed + 10)
            dt = doc_term(docs, len(terms))
            model = fit_plsa(dt, 2, max_iter=150, seed=seed, terms=terms)
            assignment = model.p_t_given_d.argmax(axis=1)
            truth = np.array([int(doc_id[1:]) % 2 for doc_id in model.doc_ids])
            agreement = (assignment == truth).mean()
            pure += max(agreement, 1 - agreement)
        assert pure / 5 >= 0.9

    def test_rows_stochastic(self):
        docs, terms = _grouped_docs(3)
        model = fit_plsa(doc_term(docs, len(terms)), 4, max_iter=40, seed=2, terms=terms)
        assert np.allclose(model.p_w_given_t.sum(axis=1), 1.0, atol=1e-8)
        assert np.allclose(model.p_t_given_d.sum(axis=1), 1.0, atol=1e-8)
        assert model.p_t.sum() == pytest.approx(1.0, abs=1e-8)
        assert (model.p_w_given_t >= 0).all() and (model.p_t_given_d >= 0).all()

    def test_topic_permutation_preserves_loglik(self):
        docs, terms = _grouped_docs(5)
        dt = doc_term(docs, len(terms))
        model = fit_plsa(dt, 3, max_iter=50, seed=4, terms=terms)

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
            fit_plsa(dt, 5, seed=0)  # more topics than documents
        with pytest.raises(ValueError):
            fit_plsa(doc_term({}, 3), 1, seed=0)

    def test_same_seed_reproduces(self):
        docs, terms = _grouped_docs(7)
        dt = doc_term(docs, len(terms))
        a = fit_plsa(dt, 2, max_iter=30, seed=9, terms=terms)
        b = fit_plsa(dt, 2, max_iter=30, seed=9, terms=terms)
        assert np.array_equal(a.p_w_given_t, b.p_w_given_t)
        assert a.loglik_trace == b.loglik_trace


class TestTopKeywords:
    def test_uniform_counts_lexicographic(self):
        vecs = {"d1": TermVector({0: 1, 1: 1, 2: 1}, 3)}
        model = fit_plsa(doc_term(vecs, 3), 1, max_iter=10, seed=0,
                         terms=["bb", "aa", "cc"])
        assert top_keywords(model, 0, 3) == ["aa", "bb", "cc"]

    def test_dominant_word_first(self):
        rng = np.random.default_rng(0)
        docs = {}
        for d in range(10):
            counts = {0: 20}
            for _ in range(5):
                w = int(rng.integers(1, 6))
                counts[w] = counts.get(w, 0) + 1
            docs[f"d{d}"] = TermVector(counts, sum(counts.values()))
        terms = [f"w{i}" for i in range(6)]
        model = fit_plsa(doc_term(docs, 6), 2, max_iter=60, seed=1, terms=terms)
        for t in range(2):
            assert top_keywords(model, t, 1) == ["w0"]

    def test_zero_and_overflow(self):
        vecs = {"d1": TermVector({0: 1, 1: 2}, 3)}
        model = fit_plsa(doc_term(vecs, 2), 1, max_iter=5, seed=0, terms=["aa", "bb"])
        assert top_keywords(model, 0, 0) == []
        assert top_keywords(model, 0, 99) == ["bb", "aa"]
        with pytest.raises(IndexError):
            top_keywords(model, 1, 1)


def test_model_round_trip(tmp_path):
    docs, terms = _grouped_docs(11)
    model = fit_plsa(doc_term(docs, len(terms)), 2, max_iter=40, seed=3, terms=terms)
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
