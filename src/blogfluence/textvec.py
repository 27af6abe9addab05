"""Tokenization and post-term counts.

A run tokenizes its posts once, in ``ingest`` or detection, and each
distinct whitespace-separated word of the bodies once; every later stage
reads the counts as integer columns, capped to the vocabulary it asks
for."""

from __future__ import annotations

import re
from collections import defaultdict
from dataclasses import dataclass
from itertools import chain, count
from typing import Iterable, Iterator

import numpy as np

from blogfluence import artifacts
from blogfluence.corpus import FormatError, Posts, expand_ranges
from blogfluence.implicit import Links

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
class PostTerms:
    """Every post's counts of every distinct token, from one tokenization.

    ``terms`` are ranked as a capped vocabulary keeps them, so any cap's vocabulary
    is a prefix.  A post's ``entries`` follow its terms' first occurrence."""

    terms: list[tuple[str, int]]  # (term, document frequency) by (-frequency, term)
    posts: list[tuple[str, str]]  # (url, author) in url order
    entries: np.ndarray  # (n, 3) int64 rows: post index, term rank, count

    def vocabulary(self, max_size: int) -> list[str]:
        """The ``max_size`` terms of highest document frequency, ties by term."""
        if max_size < 1:
            raise ValueError("max_size must be >= 1")
        return [t for t, _ in self.terms[:max_size]]

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


def _chain(lists: Iterable[list], lengths: list[int]) -> Iterator:
    """The items of ``lists`` in turn; each list's length is appended to ``lengths``."""
    def note(items: list) -> list:
        lengths.append(len(items))
        return items
    return chain.from_iterable(map(note, lists))


def count_terms(posts: Posts) -> PostTerms:
    """Tokenize every post's body and count its terms.

    No whitespace character is a word character, so a body's tokens are
    its whitespace-separated words' tokens in turn: the bodies are read as
    interned word ids, and each distinct word is tokenized once."""
    by_url = sorted(range(len(posts)), key=posts.url.__getitem__)
    urls, body, authors = [posts.url[i] for i in by_url], posts.body, posts.user_id.values()
    word_id, n_words = defaultdict(count().__next__), []
    words = np.fromiter(map(word_id.__getitem__, _chain(
        (body[i].split() for i in by_url), n_words)), np.int64)
    # Each distinct word's tokens as term ids, one range of ``word_terms``.
    term_id, n_tokens = defaultdict(count().__next__), []
    word_terms = np.fromiter(map(term_id.__getitem__, _chain(map(tokenize, word_id), n_tokens)),
                             np.int64)
    del word_id
    n_tokens = np.array(n_tokens, np.int64)
    ends = n_tokens.cumsum()
    word, at = expand_ranges((ends - n_tokens)[words], ends[words])
    n_terms = len(term_id)
    keys = np.repeat(np.arange(len(urls), dtype=np.int64), n_words)[word] * n_terms + word_terms[at]
    del words, word, at
    # Each (post, term) once, in the order of its first token: a stable sort
    # groups equal keys with their first token in front.
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    new = np.ones(len(keys), dtype=bool)
    new[1:] = ordered[1:] != ordered[:-1]
    del ordered
    starts = np.flatnonzero(new)
    del new
    size = np.zeros(len(keys), dtype=np.int64)  # each key's count, at its first token
    size[order[starts]] = np.diff(starts, append=len(keys))
    del order, starts
    first = size > 0
    keys, counts = keys[first], size[first]
    terms = list(term_id)
    doc_freq = np.bincount(keys % n_terms, minlength=n_terms)
    ranked = np.array(sorted(range(n_terms), key=terms.__getitem__), np.int64)
    ranked = ranked[np.argsort(-doc_freq[ranked], kind="stable")]
    rank = np.empty(n_terms, np.int64)
    rank[ranked] = np.arange(n_terms)
    return PostTerms(list(zip(map(terms.__getitem__, ranked.tolist()),
                              doc_freq[ranked].tolist())),
                     [(url, authors[i]) for url, i in zip(urls, by_url)],
                     np.column_stack([keys // n_terms, rank[keys % n_terms], counts]))


def write_post_terms(counts: PostTerms, path: str, header: str | None = None) -> None:
    artifacts.write_sections(path, header, vars(counts))


def _check_ranking(path: str, terms: list[str], doc_freq: np.ndarray) -> None:
    # A capped vocabulary is a prefix of [terms], so the ranking must hold.
    ranked = list(zip((-doc_freq).tolist(), terms))
    if any(a >= b for a, b in zip(ranked, ranked[1:])):
        raise FormatError(f"{path}: [terms] needs terms ranked by descending frequency, "
                          "ties by ascending term, each term once")


def read_vocabulary(path: str, max_size: int) -> list[str]:
    """``read_post_terms(path).vocabulary(max_size)``, read up to ``[posts]``."""
    head = artifacts.read_text(path, until="[posts]")
    terms, doc_freq = artifacts.parse_sections(path, head, {"terms": [str, int]})["terms"]
    _check_ranking(path, terms, doc_freq)
    return terms[:max_size]


def read_post_terms(path: str) -> PostTerms:
    sections = artifacts.read_sections(path, {"terms": [str, int], "posts": [str, str],
                                              "entries": [int] * 3})
    (terms, doc_freq), (urls, authors) = sections["terms"], sections["posts"]
    post, term, count = sections["entries"]
    artifacts.check_indices(path, "post", post, len(urls))
    artifacts.check_indices(path, "term", term, len(terms))
    if (np.diff(post) < 0).any() or (count < 1).any():
        raise FormatError(f"{path}: [entries] needs post indices in order and counts >= 1")
    if any(a >= b for a, b in zip(urls, urls[1:])):
        raise FormatError(f"{path}: [posts] needs urls in strictly ascending order")
    _check_ranking(path, terms, doc_freq)
    keys = np.sort(post * len(terms) + term)
    if (keys[1:] == keys[:-1]).any():
        raise FormatError(f"{path}: [entries] holds a term twice for one post")
    if (np.bincount(term, minlength=len(terms)) != doc_freq).any():
        raise FormatError(f"{path}: [terms] frequencies must count the posts that hold each term")
    return PostTerms(list(zip(terms, doc_freq.tolist())), list(zip(urls, authors)),
                     sections["entries"].T)
