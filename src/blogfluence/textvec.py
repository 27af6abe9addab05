"""Tokenization, post-term counts, and the capped vector spaces built on them."""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import Iterable

import numpy as np

from blogfluence import artifacts
from blogfluence.corpus import BlogPost, FormatError

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
    index: dict[str, int]

    def __len__(self) -> int:
        return len(self.terms)


def write_vocabulary(vocab: Vocabulary, path: str, header: str | None = None) -> None:
    artifacts.write_rows(path, header, zip(vocab.terms, vocab.doc_freq))


@dataclass
class TermVector:
    """Sparse raw term-frequency vector over vocabulary indices."""

    entries: dict[int, int]
    token_count: int  # sum of kept (in-vocabulary) token counts


def shared_terms(u: TermVector, v: TermVector) -> list[int]:
    """Sorted vocabulary indices present in both vectors."""
    if len(u.entries) > len(v.entries):
        u, v = v, u
    return sorted(i for i in u.entries if i in v.entries)


@dataclass
class VectorSpace:
    vocab: Vocabulary
    vectors: dict[str, TermVector]  # post url -> term vector, in url order
    authors: dict[str, str]  # post url -> author


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
        terms = [t for t, _ in self.terms[:max_size]]
        return Vocabulary(terms, [df for _, df in self.terms[:max_size]],
                          {t: i for i, t in enumerate(terms)})

    def capped(self, max_size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The post, term and count columns of the entries whose term is in
        the ``max_size``-term vocabulary, and where each post's entries
        start among them, then their number."""
        post, term, count = self.entries[self.entries[:, 1] < max_size].T
        return post, term, count, np.searchsorted(post, np.arange(len(self.posts) + 1))

    def space(self, max_size: int) -> VectorSpace:
        """Each post's counts of the vocabulary's terms."""
        _, term, count, bounds = self.capped(max_size)
        bounds, term, count = bounds.tolist(), term.tolist(), count.tolist()
        vectors = {}
        for (url, _), lo, hi in zip(self.posts, bounds, bounds[1:]):
            entries = dict(zip(term[lo:hi], count[lo:hi]))
            vectors[url] = TermVector(entries, sum(entries.values()))
        return VectorSpace(self.vocabulary(max_size), vectors, dict(self.posts))


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
    sections = artifacts.read_sections(path, {"terms": (str, int), "posts": (str, str), "entries": 3})
    post, term, count = sections["entries"].T
    artifacts.check_indices(path, "post", post, len(sections["posts"]))
    artifacts.check_indices(path, "term", term, len(sections["terms"]))
    if (np.diff(post) < 0).any() or (count < 1).any():
        raise FormatError(f"{path}: [entries] needs post indices in order and counts >= 1")
    return PostTerms(**sections)
