"""Post-level implicit-link network and its blogger-level projection.

An implicit link (q, p) exists when the author of post q clicked post p
within a time window before uploading q.  Duplicate clicks on the same p
before the same q collapse to the smallest gap, the most recent read
being the most plausible influence carrier.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from blogfluence import artifacts
from blogfluence.corpus import Corpus

DEFAULT_WINDOW_HOURS = 12


@dataclass
class ImplicitLink:
    q: str  # post written after the read
    p: str  # post that was read
    reader: str  # author of q
    author: str  # author of p
    gap_seconds: int  # upload_ts(q) - access_ts, in (0, window]
    similarity: float | None = None


@dataclass
class ImplicitNetwork:
    links: list[ImplicitLink]
    window_hours: int
    post_count: int
    blogger_count: int
    post_link_count: int
    blogger_link_count: int


def link_posts(links: Iterable[ImplicitLink]) -> set[str]:
    """The posts at either end of ``links``."""
    return {post for l in links for post in (l.q, l.p)}


def link_counts(links: list[ImplicitLink]) -> dict[str, int]:
    """Post, blogger, post-link and blogger-link counts of a link list."""
    return {
        "post_count": len(link_posts(links)),
        "blogger_count": len({l.reader for l in links} | {l.author for l in links}),
        "post_link_count": len(links),
        "blogger_link_count": len({(l.reader, l.author) for l in links}),
    }


def summarize_links(links: list[ImplicitLink], window_hours: int) -> ImplicitNetwork:
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
    kept.
    """
    window = window_hours * 3600
    posts = corpus.posts
    user_code = {u: i for i, u in enumerate(dict.fromkeys(post.user_id for post in posts))}
    owner = np.array([user_code[post.user_id] for post in posts], dtype=np.int64)
    upload = np.array([post.upload_ts for post in posts], dtype=np.int64)
    url_rank = np.empty(len(posts), dtype=np.int64)
    url_rank[sorted(range(len(posts)), key=lambda i: posts[i].url)] = np.arange(len(posts))

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

    accesses = [
        (idx, ip_code.get(a.hashed_ip, len(ip_code)), a.access_ts)
        for a in corpus.accesses
        if (idx := corpus.url_to_post.get(a.request)) is not None
    ]
    if not posts or not accesses:
        return summarize_links([], window_hours)
    target, ip, access_ts = np.array(accesses, dtype=np.int64).T
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
    q, p, gap = q[new_pair].tolist(), p[new_pair].tolist(), gap[new_pair].tolist()

    urls = [post.url for post in posts]
    uids = [post.user_id for post in posts]
    links = [ImplicitLink(urls[a], urls[b], uids[a], uids[b], g) for a, b, g in zip(q, p, gap)]
    return summarize_links(links, window_hours)


def gap_histogram(net: ImplicitNetwork) -> list[int]:
    """Hourly bucket counts; bucket h covers gaps in ((h-1)*3600, h*3600]."""
    counts = [0] * net.window_hours
    for link in net.links:
        bucket = (link.gap_seconds + 3599) // 3600
        counts[bucket - 1] += 1
    return counts


def blogger_projection(links: Iterable[ImplicitLink]) -> dict[tuple[str, str], int]:
    """Weighted blogger digraph: (A, B) -> number of post links A reads B."""
    weights: Counter[tuple[str, str]] = Counter()
    for link in links:
        weights[(link.reader, link.author)] += 1
    return dict(sorted(weights.items()))


_LINK_COLUMNS = ("q", "p", "reader", "author", "gap_seconds")


def write_links_tsv(links: Iterable[ImplicitLink], path: str, header: str | None = None) -> None:
    artifacts.write_rows(
        path, header, ((l.q, l.p, l.reader, l.author, l.gap_seconds) for l in links), _LINK_COLUMNS
    )


def read_links(path: str) -> list[ImplicitLink]:
    """The links of a file written by ``write_links_tsv``, similarity unset."""
    rows = artifacts.read_rows(path, (str, str, str, str, int), _LINK_COLUMNS)
    return [ImplicitLink(*row) for row in rows]


def read_links_tsv(path: str, window_hours: int = DEFAULT_WINDOW_HOURS) -> ImplicitNetwork:
    return summarize_links(read_links(path), window_hours)
