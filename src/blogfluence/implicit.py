"""Post-level implicit-link network and its blogger-level projection.

An implicit link (q, p) exists when the author of post q clicked post p
within a time window before uploading q.  Duplicate clicks on the same p
before the same q collapse to the smallest gap, the most recent read
being the most plausible influence carrier.

Links travel between stages as one ``Links`` table of columns: q and p
index an ascending table of post URLs, reader and author an ascending
table of bloggers, so index order is string order.  ``links.tsv`` and
``influence.tsv`` are read and written as whole columns.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import repeat
from operator import attrgetter
from typing import Collection, Iterator, NamedTuple, Sequence

import numpy as np

from blogfluence import artifacts
from blogfluence.corpus import Corpus, FormatError

DEFAULT_WINDOW_HOURS = 12


class ImplicitLink(NamedTuple):
    """One row of a ``Links`` table, as iterating the table yields it."""

    q: str  # post written after the read
    p: str  # post that was read
    reader: str  # author of q
    author: str  # author of p
    gap_seconds: int  # upload_ts(q) - access_ts, in (0, window]
    similarity: float | None  # None where the table holds NaN


def _coded(*columns: Sequence[str]) -> tuple[list[str], list[np.ndarray]]:
    """The distinct names of ``columns`` in ascending order, and each
    column as indices among them."""
    names = sorted(set().union(*columns))
    code = {name: i for i, name in enumerate(names)}
    return names, [np.fromiter(map(code.__getitem__, c), np.int64, len(c)) for c in columns]


_COLUMNS = ("q", "p", "reader", "author", "gap", "similarity")


@dataclass(eq=False)
class Links:
    """Implicit links as columns.

    ``q`` and ``p`` index ``urls`` and ``reader`` and ``author`` index
    ``bloggers``; both tables ascend and may name more than the links use.
    ``similarity`` is NaN where a link has none.
    """

    urls: list[str]
    bloggers: list[str]
    q: np.ndarray  # int64
    p: np.ndarray  # int64
    reader: np.ndarray  # int64
    author: np.ndarray  # int64
    gap: np.ndarray  # int64 seconds
    similarity: np.ndarray  # float64

    @classmethod
    def from_columns(cls, q: Sequence[str], p: Sequence[str], reader: Sequence[str],
                     author: Sequence[str], gap: Sequence[int]) -> Links:
        """The table of string columns and gaps, with no similarities."""
        urls, (q, p) = _coded(q, p)
        bloggers, (reader, author) = _coded(reader, author)
        return cls(urls, bloggers, q, p, reader, author, np.array(gap, dtype=np.int64),
                   np.full(len(q), np.nan))

    def __len__(self) -> int:
        return len(self.q)

    def __iter__(self) -> Iterator[ImplicitLink]:
        urls, bloggers = self.urls, self.bloggers
        for q, p, r, a, gap, sim in zip(*(getattr(self, c).tolist() for c in _COLUMNS)):
            yield ImplicitLink(urls[q], urls[p], bloggers[r], bloggers[a], gap,
                               None if sim != sim else sim)

    def take(self, index: np.ndarray) -> Links:
        """The links at ``index`` (positions or a mask), over the same tables."""
        return replace(self, **{c: getattr(self, c)[index] for c in _COLUMNS})

    def pairs(self) -> tuple[list[tuple[str, str]], np.ndarray, np.ndarray]:
        """The distinct (reader, author) pairs in ascending order, the
        position of each link's pair among them, and each pair's link count."""
        n, names = len(self.bloggers), self.bloggers
        keys, inverse, counts = np.unique(self.reader * n + self.author, return_inverse=True,
                                          return_counts=True)
        return [(names[k // n], names[k % n]) for k in keys.tolist()], inverse, counts


@dataclass
class ImplicitNetwork:
    links: Links
    window_hours: int
    post_count: int
    blogger_count: int
    post_link_count: int
    blogger_link_count: int


def link_posts(links: Links) -> list[str]:
    """The posts at either end of ``links``, ascending."""
    return [links.urls[i] for i in np.unique(np.concatenate([links.q, links.p])).tolist()]


def link_counts(links: Links) -> dict[str, int]:
    """Post, blogger, post-link and blogger-link counts of a link table."""
    return {
        "post_count": np.unique(np.concatenate([links.q, links.p])).size,
        "blogger_count": np.unique(np.concatenate([links.reader, links.author])).size,
        "post_link_count": len(links),
        "blogger_link_count": np.unique(links.reader * len(links.bloggers) + links.author).size,
    }


def summarize_links(links: Links, window_hours: int) -> ImplicitNetwork:
    return ImplicitNetwork(links=links, window_hours=window_hours, **link_counts(links))


def expand_ranges(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every index of the ranges [lo[i], hi[i]), concatenated, and the i
    each one comes from; a range with hi <= lo is empty."""
    counts = np.maximum(hi - lo, 0)
    which = np.repeat(np.arange(len(lo)), counts)
    return which, np.arange(len(which)) - np.repeat(np.cumsum(counts) - counts - lo, counts)


def build_implicit_links(corpus: Corpus, window_hours: int = DEFAULT_WINDOW_HOURS) -> ImplicitNetwork:
    """Pair every cleaned access with the reader's posts that follow it.

    For each access from an IP owned by blogger A to a post p by B != A,
    every post q by A with 0 < upload_ts(q) - access_ts <= window yields
    a link; access exactly at upload time does not count as "before".

    Posts are sorted by (author, upload time) so that each reader's
    window is one ``searchsorted`` range; the candidate (q, p) pairs of
    all windows are then sorted by (q, p, gap) and the first of each run
    kept.  The table indexes every post's URL and every author.
    """
    window = window_hours * 3600
    posts = corpus.posts
    bloggers = sorted({post.user_id for post in posts})
    user_code = {u: i for i, u in enumerate(bloggers)}
    owner = np.array([user_code[post.user_id] for post in posts], dtype=np.int64)
    upload = np.array([post.upload_ts for post in posts], dtype=np.int64)
    by_url = sorted(range(len(posts)), key=lambda i: posts[i].url)
    urls = [posts[i].url for i in by_url]
    url_rank = np.empty(len(posts), dtype=np.int64)
    url_rank[by_url] = np.arange(len(posts))

    # Readers per IP as ranges of one flat array; one more, empty, range
    # stands for every IP that owns no post.
    ip_code: dict[str, int] = {}
    flat_readers: list[int] = []
    bounds = [0]
    for ip, owners in corpus.ip_to_bloggers.items():
        ip_code[ip] = len(ip_code)
        flat_readers += [user_code[u] for u in owners if u in user_code]
        bounds.append(len(flat_readers))
    bounds.append(len(flat_readers))
    bounds = np.array(bounds, dtype=np.int64)

    accesses, n = corpus.accesses, len(corpus.accesses)
    target, ip, access_ts = (np.fromiter(map(*args), np.int64, n) for args in (
        (corpus.url_to_post.get, map(attrgetter("request"), accesses), repeat(-1)),
        (ip_code.get, map(attrgetter("hashed_ip"), accesses), repeat(len(ip_code))),
        (attrgetter("access_ts"), accesses),
    ))
    found = target >= 0
    target, ip, access_ts = target[found], ip[found], access_ts[found]
    if not posts or not len(target):
        return summarize_links(Links.from_columns([], [], [], [], []), window_hours)
    which, pos = expand_ranges(bounds[ip], bounds[ip + 1])
    reader = np.array(flat_readers, dtype=np.int64)[pos]
    keep = reader != owner[target[which]]
    which, reader = which[keep], reader[keep]
    p, t = target[which], access_ts[which]

    # One key per post, (author, upload time) in one int64; a query time
    # is clipped into its author's key range so that it never reaches a
    # neighbour's.
    t0 = int(upload.min())
    span = int(upload.max()) - t0 + 2
    post_key = owner * span + (upload - t0)
    by_key = np.argsort(post_key)
    keys = post_key[by_key]

    def window_edge(ts: np.ndarray) -> np.ndarray:
        return keys.searchsorted(reader * span + np.clip(ts - t0, -1, span - 1), side="right")

    pair, pos = expand_ranges(window_edge(t), window_edge(t + window))
    q, p = by_key[pos], p[pair]
    gap = upload[q] - t[pair]
    first = np.lexsort((gap, url_rank[p], url_rank[q]))
    q, p, gap = q[first], p[first], gap[first]
    new_pair = np.ones(len(q), dtype=bool)
    new_pair[1:] = (q[1:] != q[:-1]) | (p[1:] != p[:-1])
    q, p, gap = q[new_pair], p[new_pair], gap[new_pair]
    links = Links(urls, bloggers, url_rank[q], url_rank[p], owner[q], owner[p], gap,
                  np.full(len(q), np.nan))
    return summarize_links(links, window_hours)


def gap_histogram(net: ImplicitNetwork) -> list[int]:
    """Hourly bucket counts; bucket h covers gaps in ((h-1)*3600, h*3600]."""
    buckets = (net.links.gap + 3599) // 3600
    return np.bincount(buckets, minlength=net.window_hours + 1)[1:].tolist()


def blogger_projection(links: Links) -> dict[tuple[str, str], int]:
    """Weighted blogger digraph: (A, B) -> number of post links A reads B."""
    pairs, _, counts = links.pairs()
    return dict(zip(pairs, counts.tolist()))


_LINK_COLUMNS = ("q", "p", "reader", "author", "gap_seconds")


def write_links_tsv(links: Links, path: str, header: str | None = None) -> None:
    urls, bloggers = links.urls, links.bloggers
    artifacts.write_columns(path, header, _LINK_COLUMNS, [
        [urls[i] for i in links.q.tolist()], [urls[i] for i in links.p.tolist()],
        [bloggers[i] for i in links.reader.tolist()], [bloggers[i] for i in links.author.tolist()],
        links.gap,
    ])


def read_links(path: str, max_gap: int, posts: Collection[str] | None = None) -> Links:
    """The links of a file written by ``write_links_tsv``, similarity unset.

    Every gap must lie in (0, ``max_gap``] seconds and, given ``posts``,
    every post must be one of them; ``FormatError`` names the file if not.
    """
    links = Links.from_columns(*artifacts.read_columns(path, (str, str, str, str, int),
                                                       _LINK_COLUMNS))
    bad = np.flatnonzero((links.gap <= 0) | (links.gap > max_gap))
    if bad.size:
        raise FormatError(f"{path}: gap_seconds {links.gap[bad[0]]} is outside (0, {max_gap}]")
    unknown = [url for url in links.urls if url not in posts] if posts is not None else []
    if unknown:
        raise FormatError(f"{path}: post {unknown[0]!r} is not among the {len(posts)} known posts")
    return links


def read_links_tsv(path: str, window_hours: int = DEFAULT_WINDOW_HOURS,
                   posts: Collection[str] | None = None) -> ImplicitNetwork:
    return summarize_links(read_links(path, window_hours * 3600, posts), window_hours)
