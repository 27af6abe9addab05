from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blogfluence.textvec import count_terms, shared_terms, tokenize

from conftest import BASE_TS, TermVector, links_table, make_post, post_terms
from test_detection_identity import cosine


def _post_terms(bodies):
    return count_terms(make_post("ua", i, BASE_TS + i, body=body) for i, body in enumerate(bodies))


class TestTokenize:
    def test_stopword_removed(self):
        assert tokenize("The cat saw the cat") == ["cat", "saw", "cat"]

    def test_empty(self):
        assert tokenize("") == []

    def test_min_len_and_lowercase(self):
        assert tokenize("A1 b2 A1") == ["a1", "b2", "a1"]
        assert tokenize("a b c") == []


class TestVocabulary:
    def test_tie_break_lexicographic(self):
        vocab = _post_terms(["aa bb", "aa cc"]).vocabulary(2)
        assert vocab.terms == ["aa", "bb"]
        assert vocab.doc_freq == [2, 1]

    def test_no_truncation_when_large(self):
        vocab = _post_terms(["aa bb", "cc"]).vocabulary(10)
        assert sorted(vocab.terms) == ["aa", "bb", "cc"]

    def test_kept_df_dominates_dropped(self):
        rng = np.random.default_rng(7)
        docs = [
            [f"w{rng.integers(0, 60)}" for _ in range(12)]
            for _ in range(1000)
        ]
        df = Counter()
        for doc in docs:
            df.update(set(doc))
        vocab = _post_terms(" ".join(doc) for doc in docs).vocabulary(25)
        kept_min = min(df[t] for t in vocab.terms)
        dropped = set(df) - set(vocab.terms)
        assert all(df[t] <= kept_min for t in dropped)


class TestCosine:
    def test_identical(self):
        u = TermVector({0: 2, 3: 1}, 3)
        assert cosine(u, u) == pytest.approx(1.0)

    def test_hand_arithmetic(self):
        u = TermVector({0: 1, 1: 1}, 2)
        v = TermVector({0: 1, 2: 1}, 2)
        assert cosine(u, v) == pytest.approx(0.5)

    def test_zero_vector(self):
        assert cosine(TermVector({}, 0), TermVector({0: 3}, 3)) == 0.0

    @settings(max_examples=100, deadline=None)
    @given(
        u=st.dictionaries(st.integers(0, 8), st.integers(1, 9), max_size=6),
        v=st.dictionaries(st.integers(0, 8), st.integers(1, 9), max_size=6),
    )
    def test_symmetric_and_bounded(self, u, v):
        tu = TermVector(u, sum(u.values()))
        tv = TermVector(v, sum(v.values()))
        s = cosine(tu, tv)
        assert s == pytest.approx(cosine(tv, tu))
        assert 0.0 <= s <= 1.0 + 1e-12
        if u:
            assert cosine(tu, tu) == pytest.approx(1.0)


def test_vectorize_counts_kept_tokens():
    post, term, count, starts = _post_terms(["aa bb aa zz", "aa"]).capped(1)
    assert (post.tolist(), term.tolist(), count.tolist()) == ([0, 1], [0, 0], [2, 1])
    assert starts.tolist() == [0, 1, 2]


def test_shared_terms_sorted_intersection():
    vectors = {"/a/q": TermVector({4: 1, 1: 2, 7: 1}, 4),
               "/b/p": TermVector({1: 1, 7: 3, 9: 1}, 5)}
    links = links_table([("/b/p", "/a/q", "b", "a", 60), ("/a/q", "/b/p", "a", "b", 60)])
    link, term = shared_terms(links, post_terms(vectors, 10), 10)
    assert (link.tolist(), term.tolist()) == ([0, 0, 1, 1], [1, 7, 1, 7])
