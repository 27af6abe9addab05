"""Tokenization and post-term counts.

A run tokenizes its posts once; every later stage reads the counts as
integer columns, capped to the vocabulary it asks for."""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import Iterable

import numpy as np

from blogfluence import artifacts
from blogfluence.corpus import BlogPost, FormatError
from blogfluence.implicit import Links, expand_ranges

_WORD_RE = re.compile(r"\w+", re.UNICODE)

DEFAULT_STOPWORDS = frozenset(
    """a an and are as at be but by for from had has have he her his i if in is
    it its me my no not of on or our she so that the their them they this to
    was we were will with you your""".split()
)


def tokenize(text: str) -> list[str]:
    """Unicode-word tokens, lowercased, stopwords and one-letter tokens dropped."""
    return [
        tok
        for tok in map(str.lower, _WORD_RE.findall(text))
        if len(tok) >= 2 and tok not in DEFAULT_STOPWORDS
    ]


@dataclass
class Vocabulary:
    terms: list[str]
    doc_freq: list[int]

    def __len__(self) -> int:
        return len(self.terms)


def write_vocabulary(vocab: Vocabulary, path: str, header: str | None = None) -> None:
    artifacts.write_rows(path, header, zip(vocab.terms, vocab.doc_freq))


@dataclass
class PostTerms:
    """Every post's counts of every distinct token, from one tokenization.

    ``terms`` are ranked as a capped vocabulary keeps them, so any cap's vocabulary
    is a prefix.  A post's ``entries`` follow its terms' first occurrence."""

    terms: list[tuple[str, int]]  # (term, document frequency) by (-frequency, term)
    posts: list[tuple[str, str]]  # (url, author) in url order
    entries: np.ndarray  # (n, 3) int64 rows: post index, term rank, count

    def vocabulary(self, max_size: int) -> Vocabulary:
        """The ``max_size`` terms of highest document frequency, ties by term."""
        if max_size < 1:
            raise ValueError("max_size must be >= 1")
        return Vocabulary([t for t, _ in self.terms[:max_size]],
                          [df for _, df in self.terms[:max_size]])

    def capped(self, max_size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The post, term and count columns of the entries whose term is in
        the ``max_size``-term vocabulary, and where each post's entries
        start among them, then their number."""
        post, term, count = self.entries[self.entries[:, 1] < max_size].T
        return post, term, count, np.searchsorted(post, np.arange(len(self.posts) + 1))

    def post_index(self, urls: Iterable[str]) -> np.ndarray:
        """The index of each of ``urls`` among the posts; ``len(posts)``
        stands for a url that has no counts."""
        index = {url: d for d, (url, _) in enumerate(self.posts)}
        return np.array([index.get(url, len(self.posts)) for url in urls], dtype=np.int64)


def shared_terms(links: Links, terms: PostTerms, max_size: int) -> tuple[np.ndarray, np.ndarray]:
    """(link, term) for every term of the ``max_size``-term vocabulary that
    both posts of a link hold, by link and then term; a post without counts
    holds none."""
    post, term, _, _ = terms.capped(max_size)
    n_terms, n_docs = min(max_size, len(terms.terms)), len(terms.posts)
    keys = np.sort(post * n_terms + term)
    # Index n_docs, a post without counts, gets an empty range.
    starts = keys.searchsorted(np.arange(n_docs + 2) * n_terms)
    ids = terms.post_index(links.urls)
    q, p = ids[links.q], ids[links.p]
    link, at = expand_ranges(starts[q], starts[q + 1])
    want = p[link] * n_terms + keys[at] % n_terms
    found = keys.searchsorted(want)
    hit = keys[np.minimum(found, len(keys) - 1)] == want
    return link[hit], want[hit] % n_terms


def count_terms(posts: Iterable[BlogPost]) -> PostTerms:
    """Tokenize every post's body and count its terms."""
    by_url = {post.url: post for post in posts}
    urls = sorted(by_url)
    counts = [Counter(tokenize(by_url[url].body)) for url in urls]
    ranked = sorted(Counter(chain.from_iterable(counts)).items(), key=lambda kv: (-kv[1], kv[0]))
    rank = {t: i for i, (t, _) in enumerate(ranked)}
    sizes = [len(c) for c in counts]
    return PostTerms(ranked, [(url, by_url[url].user_id) for url in urls], np.column_stack([
        np.repeat(np.arange(len(urls), dtype=np.int64), sizes),
        np.fromiter(map(rank.__getitem__, chain.from_iterable(counts)), np.int64, sum(sizes)),
        np.fromiter(chain.from_iterable(c.values() for c in counts), np.int64, sum(sizes)),
    ]))


def write_post_terms(counts: PostTerms, path: str, header: str | None = None) -> None:
    artifacts.write_sections(path, header, vars(counts))


def read_post_terms(path: str) -> PostTerms:
    sections = artifacts.read_sections(path, {"terms": [str, int], "posts": [str, str],
                                              "entries": 3})
    (terms, doc_freq), (urls, authors) = sections["terms"], sections["posts"]
    post, term, count = sections["entries"].T
    artifacts.check_indices(path, "post", post, len(urls))
    artifacts.check_indices(path, "term", term, len(terms))
    if (np.diff(post) < 0).any() or (count < 1).any():
        raise FormatError(f"{path}: [entries] needs post indices in order and counts >= 1")
    if any(a >= b for a, b in zip(urls, urls[1:])):
        raise FormatError(f"{path}: [posts] needs urls in strictly ascending order")
    return PostTerms(list(zip(terms, doc_freq.tolist())), list(zip(urls, authors)),
                     sections["entries"])
