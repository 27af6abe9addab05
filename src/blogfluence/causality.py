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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from blogfluence import artifacts
from blogfluence.implicit import (
    ImplicitLink, ImplicitNetwork, expand_ranges, link_counts, link_posts, read_links,
)
from blogfluence.textvec import TermVector
from blogfluence.topics import build_doc_term

# Normal-approximation critical values at p = 0.01.
Z_ONE_SIDED = 2.326
Z_TWO_SIDED = 2.576
DEFAULT_MIN_BUCKET_N = 30
DEFAULT_MIN_TOKENS = 10
DEFAULT_TAU_HOURS = 2


# Links per block of the similarity kernel.  A block expands one entry per
# term of each link's q post; at 256 links those arrays stay well under a
# MB, which keeps the kernel from raising the process's peak memory.
_SIMILARITY_BLOCK = 256


def annotate_similarity(
    net: ImplicitNetwork,
    vectors: dict[str, TermVector],
    min_tokens: int = DEFAULT_MIN_TOKENS,
) -> int:
    """Attach cosine similarity to links whose two posts both kept
    at least ``min_tokens`` in-vocabulary tokens; others get None.

    The dot products run over the document-term triplets of
    ``topics.build_doc_term``: each term of q is looked up in p's sorted
    (document, term) keys.  Counts are integers, exact in float64, so
    every similarity is bit-identical to ``textvec.cosine``.

    Returns the number of links that received a similarity.
    """
    n_terms = 1 + max((max(v.entries, default=-1) for v in vectors.values()), default=-1)
    doc_term = build_doc_term(vectors, n_terms)
    rows, cols, counts = doc_term.rows, doc_term.cols, doc_term.counts
    n_docs = doc_term.n_docs
    doc = {url: d for d, url in enumerate(doc_term.doc_ids)}
    # Index n_docs stands for a post without a vector.
    eligible = np.array([vectors[url].token_count >= min_tokens for url in doc_term.doc_ids] + [False])
    starts = rows.searchsorted(np.arange(n_docs + 1))
    norms = np.sqrt(np.bincount(rows, weights=counts * counts, minlength=n_docs))
    keys = rows * n_terms + cols
    del doc_term, rows, cols  # the blocks read only keys, counts and starts

    links = net.links
    u = np.fromiter((doc.get(l.q, n_docs) for l in links), np.int64, len(links))
    v = np.fromiter((doc.get(l.p, n_docs) for l in links), np.int64, len(links))
    ok = eligible[u] & eligible[v]
    sims = np.zeros(len(u))
    todo = np.flatnonzero(ok)
    for lo in range(0, len(todo), _SIMILARITY_BLOCK):
        block = todo[lo:lo + _SIMILARITY_BLOCK]
        bu, bv = u[block], v[block]
        which, entry = expand_ranges(starts[bu], starts[bu + 1])
        wanted = keys[entry] + (bv - bu)[which] * n_terms  # q's terms, keyed in p's row
        at = np.minimum(keys.searchsorted(wanted), len(keys) - 1)
        shared = keys[at] == wanted
        dot = np.bincount(which[shared], weights=counts[entry[shared]] * counts[at[shared]],
                          minlength=len(block))
        norm = norms[bu] * norms[bv]
        sims[block] = np.divide(dot, norm, out=np.zeros(len(block)), where=norm > 0)
    for link, sim, has in zip(links, sims.tolist(), ok.tolist()):
        link.similarity = sim if has else None
    return len(todo)


@dataclass
class CoinSeries:
    anchor: str
    coins: list[tuple[int, bool]]  # (hour bucket starting at 1, is_head)
    median_sim: float


def _codes(names: list[str]) -> tuple[list[str], np.ndarray]:
    """The distinct names in ascending order, and the index of each name
    among them."""
    distinct = sorted(set(names))
    index = {name: i for i, name in enumerate(distinct)}
    return distinct, np.array([index[name] for name in names], dtype=np.int64)


def _eligible(links: Sequence[ImplicitLink]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Positions, gaps and similarities of the links that carry a similarity."""
    has = np.fromiter((l.similarity is not None for l in links), bool, len(links))
    gap = np.fromiter((l.gap_seconds for l in links), np.int64, len(links))[has]
    sim = np.array([l.similarity for l in links if l.similarity is not None], dtype=np.float64)
    return np.flatnonzero(has), gap, sim


def _run_bounds(codes: np.ndarray) -> np.ndarray:
    """Start of every run of equal values in ``codes``, then ``len(codes)``."""
    change = np.ones(len(codes) + 1, dtype=bool)
    change[1:-1] = codes[1:] != codes[:-1]
    return np.flatnonzero(change)


def _run_medians(bounds: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``statistics.median`` of each run ``values[bounds[i]:bounds[i + 1]]``.

    One stable sort by (run, value) orders every run at once; an even run
    takes ``(a + b) / 2`` of its middle pair, the same float as ``median``.
    """
    sizes = np.diff(bounds)
    ordered = values[np.lexsort((values, np.repeat(np.arange(len(sizes)), sizes)))]
    mid = bounds[:-1] + sizes // 2
    lower = ordered[mid - 1 + sizes % 2]
    return np.where(sizes % 2 == 1, ordered[mid], (lower + ordered[mid]) / 2)


def _coin_series(
    anchors: list[str],
    code: np.ndarray,
    gap: np.ndarray,
    p_rank: np.ndarray,
    sim: np.ndarray,
    rng: np.random.Generator,
) -> list[CoinSeries]:
    """Coin series of eligible links given as arrays, one per anchor with at
    least two links; ``code`` indexes the ascending ``anchors``.

    Links are ordered by (anchor, gap, p).  Faces strictly above/below the
    anchor's median are forced; only anchors with tied faces draw from
    ``rng``, in anchor order, with the draws of the per-anchor definition
    (see ``make_coins``).
    """
    order = np.lexsort((p_rank, gap, code))
    code, gap, sim = code[order], gap[order], sim[order]
    bounds = _run_bounds(code)
    sizes = np.diff(bounds)
    med = _run_medians(bounds, sim)
    run = np.repeat(np.arange(len(sizes)), sizes)
    heads = sim > med[run]
    tied = sim == med[run]
    n_above = np.bincount(run[heads], minlength=len(sizes)).tolist()
    tie_at = np.flatnonzero(tied)
    tie_bounds = tie_at.searchsorted(bounds).tolist()
    for r in np.flatnonzero((sizes >= 2) & (np.diff(tie_bounds) > 0)).tolist():
        n, above = int(sizes[r]), n_above[r]
        ties = tie_at[tie_bounds[r]:tie_bounds[r + 1]]
        targets = sorted({n // 2, (n + 1) // 2})
        achievable = [t for t in targets if 0 <= t - above <= len(ties)]
        target = achievable[int(rng.integers(len(achievable)))] if len(achievable) > 1 else achievable[0]
        heads[ties[rng.choice(len(ties), size=target - above, replace=False)]] = True

    buckets = ((gap + 3599) // 3600).tolist()
    faces = heads.tolist()
    return [
        CoinSeries(anchors[c], list(zip(buckets[lo:hi], faces[lo:hi])), m)
        for c, lo, hi, m in zip(
            code[bounds[:-1]].tolist(), bounds[:-1].tolist(), bounds[1:].tolist(), med.tolist()
        )
        if hi - lo >= 2
    ]


def make_coins(
    anchor: str, links: Sequence[ImplicitLink], rng: np.random.Generator
) -> CoinSeries | None:
    """Turn one anchor's links into coins; None if fewer than two are eligible.

    Faces strictly above/below the median are forced; tied faces are
    randomized subject to per-anchor balance (|heads - tails| <= 1), which
    is always achievable because at most half the values can sit strictly
    on either side of the median.  When both balanced head counts are
    achievable, ``rng.integers(2)`` picks one; then
    ``rng.choice(n_ties, size=tie_heads, replace=False)`` picks the tied
    positions that become heads.
    """
    _, gap, sim = _eligible(links)
    _, p_rank = _codes([l.p for l in links if l.similarity is not None])
    series = _coin_series([anchor], np.zeros(len(sim), dtype=np.int64), gap, p_rank, sim, rng)
    return series[0] if series else None


def build_coin_series(
    net: ImplicitNetwork, rng: np.random.Generator, anchor_side: str = "q"
) -> tuple[list[CoinSeries], int]:
    """Group links by anchor post and build a coin series per anchor.

    ``anchor_side`` is "q" for the forward test and "p" for the reversed
    one.  Anchors are visited in ascending order, each as ``make_coins``
    would.  Returns (series, number of anchors skipped for having fewer
    than two eligible links).
    """
    if anchor_side not in ("q", "p"):
        raise ValueError("anchor_side must be 'q' or 'p'")
    links = net.links
    anchors, code = _codes([getattr(l, anchor_side) for l in links])
    p_rank = code if anchor_side == "p" else _codes([l.p for l in links])[1]
    at, gap, sim = _eligible(links)
    series = _coin_series(anchors, code[at], gap, p_rank[at], sim, rng)
    return series, len(anchors) - len(series)


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


def z_test(
    series: Iterable[CoinSeries],
    window_hours: int = 12,
    min_bucket_n: int = DEFAULT_MIN_BUCKET_N,
    n_skipped_anchors: int = 0,
) -> ZReport:
    """Pool coins per bucket across anchors and z-test each bucket.

    z = (xbar - 1/2) / (sigma / sqrt(n)) with sigma = sqrt(xbar (1 - xbar)),
    the maximum-likelihood standard deviation of the 0/1 faces.  Buckets
    with fewer than ``min_bucket_n`` coins are reported but marked
    unavailable, the normal approximation being untrustworthy there.
    """
    n = [0] * window_hours
    heads = [0] * window_hours
    n_series = 0
    for s in series:
        n_series += 1
        for bucket, face in s.coins:
            n[bucket - 1] += 1
            heads[bucket - 1] += int(face)
    stats: list[BucketStat] = []
    for h in range(window_hours):
        count = n[h]
        if count == 0:
            stats.append(BucketStat(h + 1, 0, 0, math.nan, math.nan, math.nan, False))
            continue
        xbar = heads[h] / count
        sigma = math.sqrt(xbar * (1.0 - xbar))
        if sigma == 0.0:
            z = math.copysign(math.inf, xbar - 0.5) if xbar != 0.5 else 0.0
        else:
            z = (xbar - 0.5) / (sigma / math.sqrt(count))
        stats.append(BucketStat(h + 1, count, heads[h], xbar, sigma, z, count >= min_bucket_n))
    return ZReport(buckets=stats, n_series=n_series, n_skipped_anchors=n_skipped_anchors)


def forward_z_test(
    net: ImplicitNetwork,
    rng: np.random.Generator,
    min_bucket_n: int = DEFAULT_MIN_BUCKET_N,
) -> ZReport:
    series, skipped = build_coin_series(net, rng, anchor_side="q")
    return z_test(series, net.window_hours, min_bucket_n, skipped)


def reversed_z_test(
    net: ImplicitNetwork,
    rng: np.random.Generator,
    min_bucket_n: int = DEFAULT_MIN_BUCKET_N,
) -> ZReport:
    series, skipped = build_coin_series(net, rng, anchor_side="p")
    return z_test(series, net.window_hours, min_bucket_n, skipped)


# --------------------------------------------------------------------------
# influence extraction

@dataclass
class InfluenceNetwork:
    links: list[ImplicitLink]  # the kept implicit links
    tau_hours: int
    post_count: int
    blogger_count: int
    post_link_count: int
    blogger_link_count: int


def extract_influence(net: ImplicitNetwork, tau_hours: int = DEFAULT_TAU_HOURS) -> InfluenceNetwork:
    """Keep (q, p) iff gap <= tau and similarity strictly above q's median.

    The median is taken over q's window links that carry a similarity
    (deduplicated links, one per read post).  Only comparisons against
    the median are used, so the result is invariant under any monotone
    transform of the similarity function.  Kept links are ordered by
    (q, p).
    """
    links = net.links
    at, gap, sim = _eligible(links)
    _, q_code = _codes([l.q for l in links if l.similarity is not None])
    by_q = np.argsort(q_code, kind="stable")
    bounds = _run_bounds(q_code[by_q])
    med = np.empty(len(at))
    med[by_q] = np.repeat(_run_medians(bounds, sim[by_q]), np.diff(bounds))
    keep = at[(gap <= tau_hours * 3600) & (sim > med)].tolist()
    kept = sorted((links[i] for i in keep), key=lambda l: (l.q, l.p))
    return InfluenceNetwork(links=kept, tau_hours=tau_hours, **link_counts(kept))


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


def _ranks(counter: dict[str, int]) -> dict[str, int]:
    ordered = sorted(counter.items(), key=lambda kv: (-kv[1], kv[0]))
    return {item: i + 1 for i, (item, _) in enumerate(ordered)}


def rank_shift_report(
    posts: Sequence,
    implicit_net: ImplicitNetwork,
    influence_net: InfluenceNetwork,
) -> RankShiftReport:
    by_url = {post.url: post for post in posts}
    theme_all: dict[str, int] = {}
    for post in posts:
        for theme in post.themes:
            theme_all[theme] = theme_all.get(theme, 0) + 1
    infl_posts = sorted(link_posts(influence_net.links))
    theme_infl: dict[str, int] = {}
    for url in infl_posts:
        post = by_url.get(url)
        if post is None:
            continue
        for theme in post.themes:
            theme_infl[theme] = theme_infl.get(theme, 0) + 1

    read_impl: dict[str, int] = {}
    for l in implicit_net.links:
        read_impl[l.author] = read_impl.get(l.author, 0) + 1
    read_infl: dict[str, int] = {}
    for l in influence_net.links:
        read_infl[l.author] = read_infl.get(l.author, 0) + 1

    theme_rank_all = _ranks(theme_all)
    theme_rank_infl = _ranks(theme_infl)
    theme_sentinel = len(theme_rank_infl) + 1
    themes = [
        RankShift(t, theme_rank_all[t], theme_rank_infl.get(t, theme_sentinel))
        for t in sorted(theme_rank_all, key=theme_rank_all.get)
    ]

    blog_rank_impl = _ranks(read_impl)
    blog_rank_infl = _ranks(read_infl)
    blog_sentinel = len(blog_rank_infl) + 1
    bloggers = [
        RankShift(b, blog_rank_impl[b], blog_rank_infl.get(b, blog_sentinel))
        for b in sorted(blog_rank_impl, key=blog_rank_impl.get)
    ]
    return RankShiftReport(themes=themes, bloggers=bloggers)


# --------------------------------------------------------------------------
# TSV export

def write_zreport_tsv(report: ZReport, path: str, header: str | None = None) -> None:
    artifacts.write_rows(
        path,
        header,
        ((b.bucket, b.n, b.heads, b.xbar, b.sigma, b.z, b.flag()) for b in report.buckets),
        ("bucket", "n", "heads", "xbar", "sigma", "z", "flag"),
    )


def read_influence_tsv(path: str, tau_hours: int = DEFAULT_TAU_HOURS) -> InfluenceNetwork:
    """An influence network written with ``implicit.write_links_tsv``."""
    links = read_links(path)
    return InfluenceNetwork(links=links, tau_hours=tau_hours, **link_counts(links))
