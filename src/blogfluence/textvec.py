"""Tokenization and post-term counts.

A run tokenizes its posts once, in ``ingest`` or detection, and each
distinct whitespace-separated word of the bodies once.  The counts are
capped to the run's vocabulary once, where they are obtained (detection
or a stage's read of ``post_terms.tsv``), and every model input is built
from the capped table."""

from __future__ import annotations

import re
from collections import defaultdict
from dataclasses import dataclass
from itertools import chain, count, islice
from typing import Iterable, Iterator

import numpy as np

from blogfluence import artifacts
from blogfluence.corpus import FormatError, Posts, expand_ranges, lexorder, search
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
    """Every post's counts of the terms of one vocabulary: every distinct
    token of one tokenization, or the ``capped`` prefix of those.

    ``terms`` are ranked as a capped vocabulary keeps them, so any cap's vocabulary
    is a prefix.  A post's ``entries`` follow its terms' first occurrence."""

    terms: list[tuple[str, int]]  # (term, document frequency) by (-frequency, term)
    posts: list[tuple[str, str]]  # (url, author) in url order
    entries: np.ndarray  # (n, 3) int64 rows: post index, term rank, count

    def vocabulary(self) -> list[str]:
        """The terms, by descending document frequency, ties by term."""
        return [t for t, _ in self.terms]

    def capped(self, max_size: int) -> PostTerms:
        """The counts of the ``max_size`` terms of highest document frequency
        alone, entries in their order; the table itself when nothing is cut."""
        if max_size < 1:
            raise ValueError("max_size must be >= 1")
        if len(self.terms) <= max_size:
            return self
        # Column-major, as read_post_terms returns them: each column is contiguous.
        return PostTerms(self.terms[:max_size], self.posts,
                         self.entries.T[:, self.entries[:, 1] < max_size].T)

    def post_index(self, urls: Iterable[str]) -> np.ndarray:
        """The index of each of ``urls`` among the posts; ``len(posts)``
        stands for a url that has no counts."""
        index = {url: d for d, (url, _) in enumerate(self.posts)}
        return np.array([index.get(url, len(self.posts)) for url in urls], dtype=np.int64)


def shared_terms(links: Links, terms: PostTerms) -> tuple[np.ndarray, np.ndarray]:
    """(link, term) for every term that both posts of a link hold, by link
    and then term; a post without counts holds none."""
    post, term, _ = terms.entries.T
    n_terms, n_docs = len(terms.terms), len(terms.posts)
    keys = post * n_terms
    keys += term
    keys.sort()  # in place: one array of keys is held, not three
    # Index n_docs, a post without counts, gets an empty range.
    starts = keys.searchsorted(np.arange(n_docs + 2) * n_terms)
    ids = terms.post_index(links.urls)
    q, p = ids[links.q], ids[links.p]
    link, at = expand_ranges(starts[q], starts[q + 1])
    want = p[link] * n_terms + keys[at] % n_terms
    found = search(keys, want)
    hit = keys[np.minimum(found, len(keys) - 1)] == want
    return link[hit], want[hit] % n_terms


def _chain(lists: Iterable[list], lengths: list[int]) -> Iterator:
    """The items of ``lists`` in turn; each list's length is appended to ``lengths``."""
    def note(items: list) -> list:
        lengths.append(len(items))
        return items
    return chain.from_iterable(map(note, lists))


# Words counted per block of whole posts: a block's per-token arrays and its
# sort, not the corpus's, are held at once.
_COUNT_BLOCK = 1 << 15


def _block_words(bodies: Iterator[str], n_words: list[int]) -> Iterator[list[str]]:
    """The next bodies of ``bodies`` as lists of whitespace-separated words,
    up to the first body at which ``_COUNT_BLOCK`` words are reached; each
    body's count of words is appended to ``n_words``."""
    total = 0
    for words in map(str.split, bodies):
        n_words.append(len(words))
        yield words
        total += len(words)
        if total >= _COUNT_BLOCK:
            return


def _first_counts(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each distinct key once, in the order of its first occurrence, and its count."""
    # A stable sort groups equal keys with their first occurrence in front.
    order = lexorder(keys)
    ordered = keys[order]
    new = np.ones(len(keys), dtype=bool)
    new[1:] = ordered[1:] != ordered[:-1]
    del ordered
    starts = np.flatnonzero(new)
    del new
    size = np.zeros(len(keys), dtype=np.int64)  # each key's count, at its first occurrence
    size[order[starts]] = np.diff(starts, append=len(keys))
    del order, starts
    first = size > 0
    return keys[first], size[first]


def count_terms(posts: Posts) -> PostTerms:
    """Tokenize every post's body and count its terms.

    No whitespace character is a word character, so a body's tokens are
    its whitespace-separated words' tokens in turn: the bodies are read as
    interned word ids, and each distinct word is tokenized once.  Posts are
    counted a block of about ``_COUNT_BLOCK`` words at a time; word and term
    ids are numbered in order of first occurrence over all blocks, and each
    block keeps only its entries' term ids and counts, in a narrow integer
    type, until the one table of entries is written."""
    by_url = sorted(range(len(posts)), key=posts.url.__getitem__)
    urls, body, authors = [posts.url[i] for i in by_url], posts.body, posts.user_id.values()
    bodies = (body[i] for i in by_url)
    word_id, term_id = defaultdict(count().__next__), defaultdict(count().__next__)
    # Each distinct word's tokens as term ids: word w's are word_terms[ends[w]:ends[w + 1]].
    word_terms, ends = np.zeros(0, np.int64), np.zeros(1, np.int64)
    blocks = []
    while True:
        n_words = []
        words = np.fromiter(map(word_id.__getitem__, chain.from_iterable(
            _block_words(bodies, n_words))), np.int64)
        if not n_words:
            break
        # The block's new words are the last keys of word_id.
        fresh = list(islice(reversed(word_id), len(word_id) + 1 - len(ends)))[::-1]
        n_tokens = []
        word_terms = np.concatenate([word_terms, np.fromiter(
            map(term_id.__getitem__, _chain(map(tokenize, fresh), n_tokens)), np.int64)])
        ends = np.concatenate([ends, ends[-1] + np.cumsum(n_tokens, dtype=np.int64)])
        word, at = expand_ranges(ends[words], ends[words + 1])
        n_terms = len(term_id)
        keys = np.repeat(np.arange(len(n_words)), n_words)[word] * n_terms + word_terms[at]
        del words, word, at
        keys, counts = _first_counts(keys)
        term = keys % n_terms
        narrow = np.int32 if max(n_terms, counts.sum(initial=0)) < 2**31 else np.int64
        blocks.append((np.bincount(keys // n_terms, minlength=len(n_words)),
                       term.astype(narrow), counts.astype(narrow)))
        del keys, counts, term
    terms, n_terms = list(term_id), len(term_id)
    doc_freq = sum((np.bincount(term, minlength=n_terms) for _, term, _ in blocks),
                   np.zeros(n_terms, np.int64))
    ranked = np.array(sorted(range(n_terms), key=terms.__getitem__), np.int64)
    ranked = ranked[lexorder(-doc_freq[ranked])]
    rank = np.empty(n_terms, np.int64)
    rank[ranked] = np.arange(n_terms)
    entries = np.empty((sum(len(term) for _, term, _ in blocks), 3), np.int64)
    lo = first_post = 0
    for sizes, term, counts in blocks:
        hi = lo + len(term)
        entries[lo:hi, 0] = np.repeat(np.arange(first_post, first_post + len(sizes)), sizes)
        entries[lo:hi, 1] = rank[term]
        entries[lo:hi, 2] = counts
        lo, first_post = hi, first_post + len(sizes)
    return PostTerms(list(zip(map(terms.__getitem__, ranked.tolist()),
                              doc_freq[ranked].tolist())),
                     [(url, authors[i]) for url, i in zip(urls, by_url)], entries)


def write_post_terms(counts: PostTerms, path: str, header: str | None = None) -> None:
    artifacts.write_sections(path, header, {"terms": list(zip(*counts.terms)),
                                            "posts": list(zip(*counts.posts)),
                                            "entries": counts.entries.T})


def _check_ranking(path: str, terms: list[str], doc_freq: np.ndarray) -> None:
    # A capped vocabulary is a prefix of [terms], so the ranking must hold.
    ranked = list(zip((-doc_freq).tolist(), terms))
    if any(a >= b for a, b in zip(ranked, ranked[1:])):
        raise FormatError(f"{path}: [terms] needs terms ranked by descending frequency, "
                          "ties by ascending term, each term once")


def read_vocabulary(path: str, max_size: int) -> list[str]:
    """``read_post_terms(path).capped(max_size).vocabulary()``, read up to ``[posts]``."""
    head = artifacts.read_text(path, until="[posts]")
    terms, doc_freq = artifacts.parse_sections(path, head, {"terms": [str, int],
                                                            "posts": [str, str]})["terms"]
    terms = terms.values()
    _check_ranking(path, terms, doc_freq)
    return terms[:max_size]


def read_post_terms(path: str) -> PostTerms:
    sections = artifacts.read_sections(path, {"terms": [str, int], "posts": [str, str],
                                              "entries": [int] * 3})
    (terms, doc_freq), (urls, authors) = sections["terms"], sections["posts"]
    terms, urls, authors = terms.values(), urls.values(), authors.values()
    post, term, count = sections["entries"]
    artifacts.check_indices(path, "post", post, len(urls))
    artifacts.check_indices(path, "term", term, len(terms))
    if (np.diff(post) < 0).any() or (count < 1).any():
        raise FormatError(f"{path}: [entries] needs post indices in order and counts >= 1")
    if any(a >= b for a, b in zip(urls, urls[1:])):
        raise FormatError(f"{path}: [posts] needs urls in strictly ascending order")
    _check_ranking(path, terms, doc_freq)
    keys = post * len(terms)
    keys += term
    keys.sort()
    if (keys[1:] == keys[:-1]).any():
        raise FormatError(f"{path}: [entries] holds a term twice for one post")
    if (np.bincount(term, minlength=len(terms)) != doc_freq).any():
        raise FormatError(f"{path}: [terms] frequencies must count the posts that hold each term")
    return PostTerms(list(zip(terms, doc_freq.tolist())), list(zip(urls, authors)),
                     sections["entries"].T)
