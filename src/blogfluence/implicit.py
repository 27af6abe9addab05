"""Post-level implicit-link network and its blogger-level projection.

An implicit link (q, p) exists when the author of post q clicked post p
within a time window before uploading q.  Duplicate clicks on the same p
before the same q collapse to the smallest gap, the most recent read
being the most plausible influence carrier.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from typing import Iterable

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


def link_counts(links: list) -> dict[str, int]:
    """Post, blogger, post-link and blogger-link counts of a link list whose
    items carry ``q``, ``p``, ``reader`` and ``author``."""
    return {
        "post_count": len({l.q for l in links} | {l.p for l in links}),
        "blogger_count": len({l.reader for l in links} | {l.author for l in links}),
        "post_link_count": len(links),
        "blogger_link_count": len({(l.reader, l.author) for l in links}),
    }


def summarize_links(links: list[ImplicitLink], window_hours: int) -> ImplicitNetwork:
    return ImplicitNetwork(links=links, window_hours=window_hours, **link_counts(links))


def build_implicit_links(corpus: Corpus, window_hours: int = DEFAULT_WINDOW_HOURS) -> ImplicitNetwork:
    """Pair every cleaned access with the reader's posts that follow it.

    For each access from an IP owned by blogger A to a post p by B != A,
    every post q by A with 0 < upload_ts(q) - access_ts <= window yields
    a link; access exactly at upload time does not count as "before".
    """
    window = window_hours * 3600
    by_user: dict[str, list[tuple[int, str]]] = {}
    for post in corpus.posts:
        by_user.setdefault(post.user_id, []).append((post.upload_ts, post.url))
    for entries in by_user.values():
        entries.sort()
    user_ts: dict[str, list[int]] = {u: [ts for ts, _ in es] for u, es in by_user.items()}

    best: dict[tuple[str, str], tuple[int, str, str]] = {}
    for access in corpus.accesses:
        idx = corpus.url_to_post.get(access.request)
        if idx is None:
            continue
        target = corpus.posts[idx]
        for reader in sorted(corpus.ip_to_bloggers.get(access.hashed_ip, frozenset())):
            if reader == target.user_id:
                continue
            entries = by_user.get(reader)
            if not entries:
                continue
            times = user_ts[reader]
            lo = bisect_right(times, access.access_ts)
            hi = bisect_right(times, access.access_ts + window)
            for ts_q, q_url in entries[lo:hi]:
                gap = ts_q - access.access_ts
                key = (q_url, target.url)
                prev = best.get(key)
                if prev is None or gap < prev[0]:
                    best[key] = (gap, reader, target.user_id)

    links = [
        ImplicitLink(q=q, p=p, reader=reader, author=author, gap_seconds=gap)
        for (q, p), (gap, reader, author) in sorted(best.items())
    ]
    return summarize_links(links, window_hours)


def gap_histogram(net: ImplicitNetwork) -> list[int]:
    """Hourly bucket counts; bucket h covers gaps in ((h-1)*3600, h*3600]."""
    counts = [0] * net.window_hours
    for link in net.links:
        bucket = (link.gap_seconds + 3599) // 3600
        counts[bucket - 1] += 1
    return counts


def blogger_projection(net: ImplicitNetwork) -> dict[tuple[str, str], int]:
    """Weighted blogger digraph: (A, B) -> number of post links A reads B."""
    weights: Counter[tuple[str, str]] = Counter()
    for link in net.links:
        weights[(link.reader, link.author)] += 1
    return dict(sorted(weights.items()))


_LINK_COLUMNS = ("q", "p", "reader", "author", "gap_seconds")


def write_links_tsv(links: Iterable[ImplicitLink], path: str, header: str | None = None) -> None:
    artifacts.write_rows(
        path, header, ((l.q, l.p, l.reader, l.author, l.gap_seconds) for l in links), _LINK_COLUMNS
    )


def read_links_tsv(path: str, window_hours: int = DEFAULT_WINDOW_HOURS) -> ImplicitNetwork:
    rows = artifacts.read_rows(path, (str, str, str, str, int), _LINK_COLUMNS)
    return summarize_links([ImplicitLink(*row) for row in rows], window_hours)
