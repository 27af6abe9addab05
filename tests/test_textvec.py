import sys
import tracemalloc
from collections import Counter
from dataclasses import replace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blogfluence import textvec
from blogfluence.synth import SynthConfig, generate
from blogfluence.textvec import _WORD_RE, count_terms, shared_terms, tokenize

from conftest import (
    BASE_TS,
    TermVector,
    count_terms_per_post,
    links_table,
    make_post,
    make_posts,
    post_terms,
)
from test_detection_identity import cosine


def _post_terms(bodies):
    return count_terms(make_posts(make_post("ua", i, BASE_TS + i, body=body)
                                  for i, body in enumerate(bodies)))


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
        terms = _post_terms(["aa bb", "aa cc"])
        assert terms.capped(2).vocabulary() == ["aa", "bb"]
        assert terms.terms[:2] == [("aa", 2), ("bb", 1)]

    def test_no_truncation_when_large(self):
        terms = _post_terms(["aa bb", "cc"])
        assert terms.capped(10) is terms
        assert sorted(terms.vocabulary()) == ["aa", "bb", "cc"]

    @pytest.mark.parametrize("cap", [0, -1])
    def test_cap_below_one_raises(self, cap):
        with pytest.raises(ValueError, match="max_size must be >= 1"):
            _post_terms(["aa bb", "cc"]).capped(cap)

    def test_kept_df_dominates_dropped(self):
        rng = np.random.default_rng(7)
        docs = [
            [f"w{rng.integers(0, 60)}" for _ in range(12)]
            for _ in range(1000)
        ]
        df = Counter()
        for doc in docs:
            df.update(set(doc))
        vocab = _post_terms(" ".join(doc) for doc in docs).capped(25).vocabulary()
        kept_min = min(df[t] for t in vocab)
        dropped = set(df) - set(vocab)
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
    terms = _post_terms(["aa bb aa zz", "aa"])
    capped = terms.capped(1)
    assert capped.terms == [("aa", 2)] and capped.posts == terms.posts
    assert capped.entries.tolist() == [[0, 0, 2], [1, 0, 1]]


def test_shared_terms_sorted_intersection():
    vectors = {"/a/q": TermVector({4: 1, 1: 2, 7: 1}, 4),
               "/b/p": TermVector({1: 1, 7: 3, 9: 1}, 5)}
    links = links_table([("/b/p", "/a/q", "b", "a", 60), ("/a/q", "/b/p", "a", "b", 60)])
    link, term = shared_terms(links, post_terms(vectors, 10))
    assert (link.tolist(), term.tolist()) == ([0, 0, 1, 1], [1, 7, 1, 7])


def assert_same_post_terms(got, want):
    assert got.terms == want.terms
    assert got.posts == want.posts
    assert got.entries.dtype == want.entries.dtype == np.int64
    assert got.entries.shape == want.entries.shape
    assert got.entries.tolist() == want.entries.tolist()


# Whitespace that str.split() splits on, and characters that are not.
_SEPARATORS = [" ", "\t", "\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f",
               "\x85", "\xa0", "\u1680", "\u2003", "\u2028", "\u3000", "  ", "\t\n"]
_PIECES = ["alpha", "Beta", "BETA", "the", "The", "a", "I", "x", "1", "42", "a1", "_", "x_y",
           "-", ",", ".", "'", "—", "İ", "İx", "ß", "SS", "ﬃ", "ﬃx", "e\u0301", "\u0301",
           "é", "か", "かな", "Ⅻ", "²", "٣", "\u200b"]
_BODY = st.lists(st.sampled_from(_PIECES + _SEPARATORS), max_size=16).map("".join)


# Bodies of many words, so that one post can span blocks of a few words.
_LONG_BODY = st.lists(_BODY, max_size=6).map(" ".join)


@settings(max_examples=300, deadline=None)
@given(posts=st.lists(st.tuples(st.integers(0, 8), st.sampled_from("uvw"),
                                st.one_of(_BODY, _LONG_BODY, st.sampled_from(["", "ab", "  "]))),
                      max_size=12),
       block=st.one_of(st.integers(1, 50), st.just(textvec._COUNT_BLOCK)))
@example(posts=[], block=1)
@example(posts=[(0, "u", ""), (1, "v", "the a I")], block=1)
@example(posts=[(0, "u", "İx\x1cİX ß\x85SS"), (0, "v", "ﬃ\xa0ﬃx\u3000e\u0301"), (1, "w", "")],
         block=2)
@example(posts=[(0, "u", "aa bb aa " * 30), (1, "v", ""), (2, "w", "cc"), (3, "u", "bb")],
         block=4)
@example(posts=[(i, "u", "") for i in range(5)], block=1)
def test_count_terms_matches_the_per_post_oracle(posts, block):
    """Counted a block of ``block`` words at a time, the counts are those of
    the per-post oracle: posts longer than a block, empty bodies and
    one-token posts included.  A repeated url keeps its first post, author
    and body both."""
    table = make_posts(replace(make_post(user, i, BASE_TS + i, body=body), url=f"/p{k}")
                       for i, (k, user, body) in enumerate(posts))
    with patch.object(textvec, "_COUNT_BLOCK", block):
        got = count_terms(table)
    assert_same_post_terms(got, count_terms_per_post(table))


def test_count_terms_peak_memory_per_token():
    """At the pipeline benchmark's synth config (about 240,000 tokens), the
    count traces under 45 bytes per token: blocks of posts keep their
    entries' term ids and counts narrow until the one int64 table (a count
    over every token at once took about 66)."""
    posts = generate(SynthConfig(n_bloggers=300, n_days=20, vocab_size=1000, n_topics=8,
                                 reads_per_post_rate=5.0, copy_prob=0.6, copy_fraction=0.45,
                                 seed=7000))[0].posts
    tracemalloc.start()
    try:
        terms = count_terms(posts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    tokens = int(terms.entries[:, 2].sum())
    assert tokens > 200_000
    assert peak < 45 * tokens, peak / tokens


def test_capped_copies_nothing_when_nothing_is_cut():
    terms = _post_terms(["aa bb aa zz", "aa cc", "bb"])
    assert len(terms.terms) == 4
    assert terms.capped(4) is terms and terms.capped(5) is terms
    capped = terms.capped(3)
    assert not np.shares_memory(capped.entries, terms.entries)
    assert capped.terms == terms.terms[:3] and capped.posts == terms.posts
    # The kept rows, in the table's order.
    assert capped.entries.tolist() == [row for row in terms.entries.tolist() if row[1] < 3]
    assert capped.entries[:, 1].tolist() == [0, 1, 0, 2, 1]


def test_no_whitespace_character_is_a_word_character():
    # Why a body's tokens are its whitespace-separated words' tokens in turn.
    chars = "".join(map(chr, range(sys.maxunicode + 1)))
    spaces = "".join(c for c in chars if c.isspace())
    assert "".join(chars.split()) == "".join(c for c in chars if not c.isspace())
    assert 20 < len(spaces) < 40 and _WORD_RE.search(spaces) is None


def test_count_terms_peaks_below_the_per_post_oracle():
    # The c01/c02 detection scale: about 5,000 posts of 40 tokens.
    corpus, _ = generate(SynthConfig(n_bloggers=260, n_days=20, posts_per_blogger_rate=1.05,
                                     reads_per_post_rate=5.0, copy_prob=0.3, copy_fraction=0.45,
                                     vocab_size=400, tokens_per_post=40, seed=1001))
    peaks = []
    for count in (count_terms_per_post, count_terms):
        tracemalloc.start()
        try:
            count(corpus.posts)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert len(corpus.posts) > 5000
    assert peaks[1] <= peaks[0]
