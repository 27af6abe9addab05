"""Post-level implicit-link network and its blogger-level projection.

An implicit link (q, p) exists when the author of post q clicked post p
within a time window before uploading q.  Duplicate clicks on the same p
before the same q collapse to the smallest gap, the most recent read
being the most plausible influence carrier.

The links are built from the ``corpus.Activity`` rows, which
``activity.tsv`` stores, and travel between stages as one ``Links`` table
of columns: q and p index an ascending table of post URLs, reader and
author an ascending table of bloggers, so index order is string order.
One ``ImplicitNetwork`` holds the implicit links or the influence network
drawn from them, each link's similarity included.  ``links.tsv`` and
``influence.tsv`` store the table in one codec: one row per link, its
posts and bloggers by name.  The reader takes each name column as codes
over its distinct names (``artifacts.read_columns``) and ranks those names
once, so no string is made per link.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Collection, Iterator, NamedTuple

import numpy as np

from blogfluence import artifacts
from blogfluence.corpus import (
    Activity, FormatError, PostKeys, Strings, distinct, expand_ranges, lexorder)

class ImplicitLink(NamedTuple):
    """One row of a ``Links`` table, as iterating the table yields it."""

    q: str  # post written after the read
    p: str  # post that was read
    reader: str  # author of q
    author: str  # author of p
    gap_seconds: int  # upload_ts(q) - access_ts, in (0, window]
    similarity: float | None  # None where the table holds NaN


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
    def from_columns(cls, q: Strings, p: Strings, reader: Strings, author: Strings,
                     gap: np.ndarray) -> Links:
        """The table of name columns coded over one name table, as
        ``artifacts.read_columns`` returns them, and int64 gaps, with no
        similarities."""
        urls, qp = Strings(q.names, np.concatenate([q.codes, p.codes])).ranked(slice(None))
        bloggers, ra = Strings(q.names, np.concatenate([reader.codes, author.codes])).ranked(
            slice(None))
        return cls(urls, bloggers, *np.split(qp, 2), *np.split(ra, 2), gap,
                   np.full(len(gap), np.nan))

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
    """A link table, the window in hours that bounds its gaps (the link
    window, or tau for an influence network) and its counts."""

    links: Links
    window_hours: int
    post_count: int
    blogger_count: int
    post_link_count: int
    blogger_link_count: int


def link_posts(links: Links) -> list[str]:
    """The posts at either end of ``links``, ascending."""
    return [links.urls[i] for i in distinct(np.concatenate([links.q, links.p])).tolist()]


def summarize_links(links: Links, window_hours: int) -> ImplicitNetwork:
    """``links`` with their window and their post, blogger, post-link and blogger-link counts."""
    return ImplicitNetwork(links, window_hours, distinct(np.concatenate([links.q, links.p])).size,
                           distinct(np.concatenate([links.reader, links.author])).size, len(links),
                           distinct(links.reader * len(links.bloggers) + links.author).size)


def build_implicit_links(activity: Activity, window_hours: int) -> ImplicitNetwork:
    """Pair every access with the reader's posts that follow it.

    For each access from an IP owned by blogger A to a post p by B != A,
    every post q by A with 0 < upload_ts(q) - access_ts <= window yields
    a link; access exactly at upload time does not count as "before".

    Posts are sorted by (author, upload time) so that each reader's
    window is one ``searchsorted`` range; the candidate (q, p) pairs of
    all windows are then sorted by (q, p, gap) and the first of each run
    kept.  The table indexes every post's URL and every author.
    """
    window = window_hours * 3600
    owner, upload, post_ip = activity.posts.T
    target, ip, access_ts = activity.accesses.T
    if not len(upload) or not len(target):
        return summarize_links(Links(activity.urls, activity.bloggers, *np.zeros((5, 0), np.int64),
                                     np.zeros(0)), window_hours)
    keys = PostKeys(owner, upload, post_ip, len(activity.bloggers))
    which, reader = keys.readers(ip)
    keep = reader != owner[target[which]]
    which, reader = which[keep], reader[keep]
    p, t = target[which], access_ts[which]
    pair, pos = expand_ranges(keys.edge(reader, t), keys.edge(reader, t + window))
    q, p = keys.by_time[pos], p[pair]
    gap = upload[q] - t[pair]
    first = lexorder(q, p, gap)
    q, p, gap = q[first], p[first], gap[first]
    new_pair = np.ones(len(q), dtype=bool)
    new_pair[1:] = (q[1:] != q[:-1]) | (p[1:] != p[:-1])
    q, p, gap = q[new_pair], p[new_pair], gap[new_pair]
    links = Links(activity.urls, activity.bloggers, q, p, owner[q], owner[p], gap,
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


_LINK_COLUMNS = ("q", "p", "reader", "author", "gap_seconds", "similarity")
# A float64 cosine of two parallel count vectors can round past 1 by an ulp.
_MAX_SIMILARITY = 1 + 4 * np.finfo(np.float64).eps


def write_links_tsv(links: Links, path: str, header: str | None = None) -> None:
    """``links.tsv`` or ``influence.tsv``: one row per link, its posts and
    bloggers by name; the similarity as its shortest ``repr``, ``nan`` where none."""
    urls, bloggers = links.urls, links.bloggers
    artifacts.write_rows(path, header, [
        Strings(urls, links.q), Strings(urls, links.p),
        Strings(bloggers, links.reader), Strings(bloggers, links.author),
        links.gap, links.similarity,
    ], _LINK_COLUMNS)


def read_links_tsv(path: str, window_hours: int,
                   posts: Collection[str] | None = None) -> ImplicitNetwork:
    """The network of a file written by ``write_links_tsv``.

    Every gap must lie in (0, ``window_hours``] hours, every similarity be
    NaN or in [0, 1] and, given ``posts``, every post be one of them;
    ``FormatError`` names the file if not.
    """
    *names, gap, similarity = artifacts.read_columns(path, (str, str, str, str, int, float),
                                                     _LINK_COLUMNS)
    links = Links.from_columns(*names, gap)
    links.similarity = similarity
    max_gap = window_hours * 3600
    bad = np.flatnonzero((links.gap <= 0) | (links.gap > max_gap))
    if bad.size:
        raise FormatError(f"{path}: gap_seconds {links.gap[bad[0]]} is outside (0, {max_gap}]")
    bad = np.flatnonzero((links.similarity < 0) | (links.similarity > _MAX_SIMILARITY))
    if bad.size:
        raise FormatError(
            f"{path}: similarity {links.similarity[bad[0]].item()!r} is outside [0, 1]")
    net = summarize_links(links, window_hours)
    unknown = [url for url in links.urls if url not in posts] if posts is not None else []
    if unknown:
        raise FormatError(f"{path}: post {unknown[0]!r} is not among the {len(posts)} known posts")
    return net


# activity.tsv tags each name row with its table, so that no name (blank, opening
# with "#", or shaped like a "[section]" line) can read back as anything but a row.
_NAME_TABLES = ("url", "blogger", "ip", "theme")


def write_activity(activity: Activity, path: str, header: str | None = None) -> None:
    tables = (activity.urls, activity.bloggers, activity.ips, activity.themes)
    artifacts.write_sections(path, header, {
        "names": [[tag for tag, names in zip(_NAME_TABLES, tables) for _ in names],
                  [name for names in tables for name in names]],
        "posts": activity.posts.T, "post_themes": activity.post_themes.T,
        "accesses": activity.accesses.T,
    })


def read_activity(path: str) -> Activity:
    """The table of ``write_activity``; a malformed row, an untagged name, a name
    table not strictly ascending or an index out of range raises ``FormatError``."""
    sections = artifacts.read_sections(path, {
        "names": [str, str], "posts": [int] * 3, "post_themes": [int] * 2, "accesses": [int] * 3,
    })
    row_tags, names = sections["names"]  # coded over one table
    code = {row_tags.names[c]: c for c in distinct(row_tags.codes).tolist()}
    tables = [names.take(row_tags.codes == code.get(tag, -1)).values() for tag in _NAME_TABLES]
    if sum(map(len, tables)) < len(names):
        raise FormatError(f"{path}: [names] has a row tagged none of {', '.join(_NAME_TABLES)}")
    for tag, table in zip(_NAME_TABLES, tables):
        if any(a >= b for a, b in zip(table, table[1:])):
            raise FormatError(f"{path}: [names] needs each {tag} once, in ascending order")
    urls, bloggers, ips, themes = tables
    posts, post_themes, accesses = (sections[name].T
                                    for name in ("posts", "post_themes", "accesses"))
    if len(posts) != len(urls):
        raise FormatError(f"{path}: [posts] has {len(posts)} rows for {len(urls)} urls")
    for what, index, table in (("blogger", posts[:, 0], bloggers), ("IP", posts[:, 2], ips),
                               ("post", accesses[:, 0], urls), ("IP", accesses[:, 1], ips),
                               ("post", post_themes[:, 0], urls),
                               ("theme", post_themes[:, 1], themes)):
        artifacts.check_indices(path, what, index, len(table))
    return Activity(urls, bloggers, ips, themes, posts, post_themes, accesses)
