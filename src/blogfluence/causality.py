"""Fair-coin time-shuffle tests and high-confidence influence extraction.

The test separates influence from correlation without ground truth by
assuming correlation is time-invariant inside the link window.  For each
post q, the similarities of everything its author read in the window are
reduced to coins: above the per-anchor median is a head, below is a
tail, and ties are assigned random faces under the constraint that heads
and tails per anchor differ by at most one (the per-anchor totals are
what make the coins fair).  Coins land in the hourly bucket of their
link's gap.  If reading does not cause writing, shuffling the reads on
the time line changes nothing, so every bucket is Binomial(n, 1/2); a
bucket where heads are significantly enriched is evidence that reads at
that time distance reflect influence rather than shared interests.

The reversed test builds coins per read post p over all posts written
after p was read, keeping the original gaps.

A link (q, p) counts as influence when the gap is at most ``tau_hours``
and the similarity is strictly above the anchor's window median; ties at
the median drop, biasing toward precision.

Every step reads the columns of one ``implicit.Links`` table: the
similarity column is filled once from the post-term arrays (``links.tsv``
stores it), anchors are the table's post indices (whose order is URL
order), and the influence network is a subset of the same table, with tau
as its window.  One helper, ``anchor_runs``, gives each anchor's run of
links and median similarity to the coins and to the extraction, which
share q's.  One kernel, ``_coin_faces``, turns the table into coins for
both tests, with two array draws for all of a test's tied faces, and
one statistic, ``_z_report``, pools them per bucket.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from blogfluence import artifacts
from blogfluence.corpus import Activity, distinct, expand_ranges, lexorder
from blogfluence.implicit import ImplicitNetwork, Links, link_posts, summarize_links
from blogfluence.textvec import PostTerms

# Normal-approximation critical values at p = 0.01.
Z_ONE_SIDED = 2.326
Z_TWO_SIDED = 2.576
ZREPORT_COLUMNS = ("bucket", "n", "heads", "xbar", "sigma", "z", "flag")


# Distinct q posts per block of the similarity kernel.  A block holds a
# dense row of counts per q (256 kB at 1000 terms) and an entry per term of
# its links' p posts, so the kernel does not raise the process's peak memory.
_SIMILARITY_BLOCK = 32


def annotate_similarity(links: Links, terms: PostTerms, min_tokens: int) -> int:
    """Fill the similarity column: cosine similarity of the two posts'
    counts where both posts kept at least ``min_tokens`` tokens of the
    vocabulary of ``terms``, NaN elsewhere.

    The links are taken in q order.  A block scatters the counts of each
    of its q posts into a dense row once, and each term of each link's p
    reads its q's row.  Counts are integers, so every dot product and
    squared norm is an exact integer in float64 whatever the order of its
    terms, and every similarity is bit-identical to the per-pair
    ``dot / (|q| |p|)``.  A post that ``terms`` lacks has no similarity.

    Returns the number of links that received a similarity.
    """
    post, term, count = terms.entries.T
    counts = count.astype(np.float64)
    n_docs, n_terms = len(terms.posts), len(terms.terms)
    starts = np.searchsorted(post, np.arange(n_docs + 1))
    norms = np.sqrt(np.bincount(post, weights=counts * counts, minlength=n_docs))
    # Index n_docs stands for a post without counts.
    eligible = np.append(np.bincount(post, weights=counts, minlength=n_docs) >= min_tokens, False)
    post_doc = terms.post_index(links.urls)

    u, v = post_doc[links.q], post_doc[links.p]
    todo = np.flatnonzero(eligible[u] & eligible[v])
    todo = todo[lexorder(u[todo])]
    new_q = np.diff(u[todo], prepend=-1) != 0
    row = np.cumsum(new_q) - 1  # the link's q among the distinct q posts
    n_q = int(row[-1]) + 1 if len(todo) else 0
    edges = row.searchsorted(np.arange(0, n_q, _SIMILARITY_BLOCK)).tolist()
    sims = np.full(len(u), np.nan)
    dense = np.zeros(_SIMILARITY_BLOCK * n_terms)  # row-major (q in block, term)
    for lo, hi in zip(edges, edges[1:] + [len(todo)]):
        block = todo[lo:hi]
        bu, bv, at = u[block], v[block], (row[lo:hi] - row[lo]) * n_terms
        qs = bu[new_q[lo:hi]]
        q_row, q_entry = expand_ranges(starts[qs], starts[qs + 1])
        q_at = q_row * n_terms + term[q_entry]
        dense[q_at] = counts[q_entry]
        p_row, p_entry = expand_ranges(starts[bv], starts[bv + 1])
        dot = np.bincount(p_row, weights=dense[at[p_row] + term[p_entry]] * counts[p_entry],
                          minlength=len(block))
        dense[q_at] = 0.0
        norm = norms[bu] * norms[bv]
        sims[block] = np.divide(dot, norm, out=np.zeros(len(block)), where=norm > 0)
    links.similarity = sims
    return len(todo)


def _run_bounds(codes: np.ndarray) -> np.ndarray:
    """Start of every run of equal values in ``codes``, then ``len(codes)``."""
    change = np.ones(len(codes) + 1, dtype=bool)
    change[1:-1] = codes[1:] != codes[:-1]
    return np.flatnonzero(change)


def _run_medians(bounds: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``statistics.median`` of each run ``values[bounds[i]:bounds[i + 1]]``.

    The values' stable ranks, sorted with their runs as one key, order
    every run at once, equal values in place as ``sorted`` keeps them; an
    even run takes ``(a + b) / 2`` of its middle pair, the same float as
    ``median``.
    """
    sizes = np.diff(bounds)
    rank = np.empty(len(values), dtype=np.int64)
    rank[np.argsort(values, kind="stable")] = np.arange(len(values))
    ordered = values[lexorder(np.repeat(np.arange(len(sizes)), sizes), rank)]
    mid = bounds[:-1] + sizes // 2
    lower = ordered[mid - 1 + sizes % 2]
    return np.where(sizes % 2 == 1, ordered[mid], (lower + ordered[mid]) / 2)


def anchor_runs(links: Links, code: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The positions of the links that carry a similarity in (anchor, gap,
    p) order, ``code`` ordering their anchors; the bounds of each anchor's
    run among them; and each run's median similarity."""
    has = np.flatnonzero(~np.isnan(links.similarity))
    order = has[lexorder(code[has], links.gap[has], links.p[has])]
    bounds = _run_bounds(code[order])
    return order, bounds, _run_medians(bounds, links.similarity[order])


def _coin_faces(
    links: Links, code: np.ndarray, rng: np.random.Generator, runs: tuple | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The coin series of the links that carry a similarity, ``code``
    ordering their anchors (``runs``, if given, are their ``anchor_runs``);
    an anchor with fewer than two such links has none.  In (anchor, gap,
    p) order: each coin's anchor code, hour bucket and face, then the
    bounds of each series and its median similarity.

    Faces strictly above/below the anchor's median are forced; tied faces
    are randomized subject to per-anchor balance (|heads - tails| <= 1),
    which is always achievable because at most half the values can sit
    strictly on either side of the median.  Two array draws from ``rng``
    settle every series at once: ``rng.integers(2, size=m)`` over the m
    series, in anchor order, that have ties and can reach both balanced
    head counts (a 1 picks ``(n + 1) // 2``), then ``rng.permutation(t)``
    over the t tied coins of all series, in (anchor, gap, p) order.  The
    first tied coins of each series in permuted order turn heads, as many
    as its head count needs, so each series turns a uniform subset of its
    ties.
    """
    order, bounds, med = anchor_runs(links, code) if runs is None else runs
    code, gap, sim = code[order], links.gap[order], links.similarity[order]
    sizes = np.diff(bounds)
    run = np.repeat(np.arange(len(sizes)), sizes)
    series = sizes >= 2
    coin = np.repeat(series, sizes)
    heads = sim > med[run]
    tie_at = np.flatnonzero(coin & (sim == med[run]))
    n_ties = np.bincount(run[tie_at], minlength=len(sizes))
    # How many tied coins turn heads for the balanced head counts n // 2
    # and (n + 1) // 2; an odd run where both are achievable draws one.
    above = np.bincount(run[heads], minlength=len(sizes))
    low, high = sizes // 2 - above, (sizes + 1) // 2 - above
    low_ok = (low >= 0) & (low <= n_ties)
    want = np.where(low_ok, low, high)
    both = low_ok & (sizes % 2 == 1) & (high <= n_ties)
    want[both] += rng.integers(2, size=int(both.sum()))
    shuffled = tie_at[rng.permutation(len(tie_at))]
    grouped = shuffled[lexorder(run[shuffled])]  # by series, permuted within
    tie_run = run[grouped]
    rank = np.arange(len(grouped)) - (np.cumsum(n_ties) - n_ties)[tie_run]
    heads[grouped[rank < want[tie_run]]] = True
    bounds = np.concatenate([[0], np.cumsum(sizes[series])])
    return code[coin], (gap[coin] + 3599) // 3600, heads[coin], bounds, med[series]


@dataclass
class BucketStat:
    bucket: int
    n: int
    heads: int
    xbar: float
    sigma: float
    z: float
    available: bool

    @property
    def one_sided_significant(self) -> bool:
        return self.available and self.z > Z_ONE_SIDED

    @property
    def two_sided_significant(self) -> bool:
        return self.available and abs(self.z) > Z_TWO_SIDED

    def flag(self) -> str:
        if not self.available:
            return "unavailable"
        marks = []
        if self.one_sided_significant:
            marks.append("one")
        if self.two_sided_significant:
            marks.append("two")
        return ",".join(marks) if marks else "-"


@dataclass
class ZReport:
    buckets: list[BucketStat]
    n_series: int
    n_skipped_anchors: int

    def available(self) -> list[BucketStat]:
        return [b for b in self.buckets if b.available]


def _z_report(
    bucket: np.ndarray,
    heads: np.ndarray,
    window_hours: int,
    min_bucket_n: int,
    n_series: int,
    n_skipped_anchors: int,
) -> ZReport:
    """Pool coins, given by hour bucket and face, per bucket and z-test each bucket.

    z = (xbar - 1/2) / (sigma / sqrt(n)) with sigma = sqrt(xbar (1 - xbar)),
    the maximum-likelihood standard deviation of the 0/1 faces.  Buckets
    with fewer than ``min_bucket_n`` coins are reported but marked
    unavailable, the normal approximation being untrustworthy there.
    """
    n = np.bincount(bucket - 1, minlength=window_hours).tolist()
    n_heads = np.bincount(bucket[heads] - 1, minlength=window_hours).tolist()
    stats: list[BucketStat] = []
    for h in range(window_hours):
        count = n[h]
        if count == 0:
            stats.append(BucketStat(h + 1, 0, 0, math.nan, math.nan, math.nan, False))
            continue
        xbar = n_heads[h] / count
        sigma = math.sqrt(xbar * (1.0 - xbar))
        if sigma == 0.0:
            z = math.copysign(math.inf, xbar - 0.5) if xbar != 0.5 else 0.0
        else:
            z = (xbar - 0.5) / (sigma / math.sqrt(count))
        stats.append(BucketStat(h + 1, count, n_heads[h], xbar, sigma, z, count >= min_bucket_n))
    return ZReport(buckets=stats, n_series=n_series, n_skipped_anchors=n_skipped_anchors)


def _anchored_z_test(
    net: ImplicitNetwork,
    code: np.ndarray,
    rng: np.random.Generator,
    min_bucket_n: int,
    runs: tuple | None = None,
) -> ZReport:
    """The z-test of the coin series anchored by ``code``, pooled from the
    coin arrays of ``_coin_faces``."""
    _, bucket, heads, bounds, _ = _coin_faces(net.links, code, rng, runs)
    n_series = len(bounds) - 1
    return _z_report(bucket, heads, net.window_hours, min_bucket_n, n_series,
                     distinct(code).size - n_series)


def forward_z_test(net: ImplicitNetwork, rng: np.random.Generator, min_bucket_n: int, *,
                   runs: tuple | None = None) -> ZReport:
    """The test anchored by q; ``runs``, if given, are q's ``anchor_runs``."""
    return _anchored_z_test(net, net.links.q, rng, min_bucket_n, runs)


def reversed_z_test(net: ImplicitNetwork, rng: np.random.Generator, min_bucket_n: int) -> ZReport:
    return _anchored_z_test(net, net.links.p, rng, min_bucket_n)


# --------------------------------------------------------------------------
# influence extraction

def extract_influence(net: ImplicitNetwork, tau_hours: int, *,
                      runs: tuple | None = None) -> ImplicitNetwork:
    """Keep (q, p) iff gap <= tau and similarity strictly above q's median.

    The median is taken over q's window links that carry a similarity
    (deduplicated links, one per read post).  Only comparisons against
    the median are used, so the result is invariant under any monotone
    transform of the similarity function.  Kept links are ordered by
    (q, p); the network's window is ``tau_hours``.  ``runs``, if given,
    are q's ``anchor_runs``.
    """
    links = net.links
    order, bounds, med = anchor_runs(links, links.q) if runs is None else runs
    above = links.similarity[order] > np.repeat(med, np.diff(bounds))
    keep = order[(links.gap[order] <= tau_hours * 3600) & above]
    kept = links.take(keep[lexorder(links.q[keep], links.p[keep])])
    return summarize_links(kept, tau_hours)


# --------------------------------------------------------------------------
# rank-shift reports

@dataclass
class RankShift:
    item: str
    rank_base: int
    rank_influence: int


@dataclass
class RankShiftReport:
    """Paired frequency ranks: themes over all vs. influence-network posts,
    blogger read counts in the implicit vs. influence network.  Items
    absent from the influence side get the sentinel rank max + 1."""

    themes: list[RankShift]
    bloggers: list[RankShift]


def _counts(names: Sequence[str], index: np.ndarray) -> dict[str, int]:
    """How often ``index`` holds each of ``names`` that it holds."""
    return {name: n for name, n in zip(names, np.bincount(index, minlength=len(names)).tolist())
            if n}


def _shifts(base: dict[str, int], influence: dict[str, int]) -> list[RankShift]:
    """The items of ``base`` by their rank in it, each with its rank in
    ``influence`` (max + 1 if absent); equal counts rank by item."""
    base, influence = ({item: rank for rank, (_, item) in enumerate(sorted(
        (-n, item) for item, n in counts.items()), 1)} for counts in (base, influence))
    return [RankShift(item, rank, influence.get(item, len(influence) + 1))
            for item, rank in base.items()]


def rank_shift_report(
    activity: Activity,
    implicit_net: ImplicitNetwork,
    influence_net: ImplicitNetwork,
) -> RankShiftReport:
    """Themes ranked by their posts in ``activity`` against those of the
    influence network's posts, and bloggers ranked by how many links read
    them in either network."""
    post, theme = activity.post_themes.T
    post_of = {url: i for i, url in enumerate(activity.urls)}
    infl_posts = [post_of[url] for url in link_posts(influence_net.links) if url in post_of]
    return RankShiftReport(
        themes=_shifts(_counts(activity.themes, theme),
                       _counts(activity.themes, theme[np.isin(post, infl_posts)])),
        bloggers=_shifts(*(_counts(net.links.bloggers, net.links.author)
                           for net in (implicit_net, influence_net))),
    )


# --------------------------------------------------------------------------
# TSV export

def write_zreport_tsv(report: ZReport, path: str, header: str | None = None) -> None:
    rows = ((b.bucket, b.n, b.heads, b.xbar, b.sigma, b.z, b.flag()) for b in report.buckets)
    artifacts.write_rows(path, header, list(zip(*rows)), ZREPORT_COLUMNS)

