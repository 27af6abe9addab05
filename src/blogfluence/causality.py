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
from statistics import median
from typing import Iterable, Sequence

import numpy as np

from blogfluence import artifacts
from blogfluence.implicit import ImplicitLink, ImplicitNetwork, link_counts
from blogfluence.textvec import TermVector, cosine

# Normal-approximation critical values at p = 0.01.
Z_ONE_SIDED = 2.326
Z_TWO_SIDED = 2.576
DEFAULT_MIN_BUCKET_N = 30
DEFAULT_MIN_TOKENS = 10
DEFAULT_TAU_HOURS = 2


def annotate_similarity(
    net: ImplicitNetwork,
    vectors: dict[str, TermVector],
    min_tokens: int = DEFAULT_MIN_TOKENS,
) -> int:
    """Attach cosine similarity to links whose two posts both kept
    at least ``min_tokens`` in-vocabulary tokens; others get None.

    Returns the number of links that received a similarity.
    """
    n_eligible = 0
    for link in net.links:
        u = vectors.get(link.q)
        v = vectors.get(link.p)
        if (
            u is not None
            and v is not None
            and u.token_count >= min_tokens
            and v.token_count >= min_tokens
        ):
            link.similarity = cosine(u, v)
            n_eligible += 1
        else:
            link.similarity = None
    return n_eligible


@dataclass
class CoinSeries:
    anchor: str
    coins: list[tuple[int, bool]]  # (hour bucket starting at 1, is_head)
    median_sim: float


def _bucket(gap_seconds: int) -> int:
    return (gap_seconds + 3599) // 3600


def make_coins(
    anchor: str, links: Sequence[ImplicitLink], rng: np.random.Generator
) -> CoinSeries | None:
    """Turn one anchor's links into coins; None if fewer than two are eligible.

    Faces strictly above/below the median are forced; tied faces are
    randomized subject to per-anchor balance (|heads - tails| <= 1), which
    is always achievable because at most half the values can sit strictly
    on either side of the median.
    """
    eligible = [l for l in links if l.similarity is not None]
    if len(eligible) < 2:
        return None
    eligible.sort(key=lambda l: (l.gap_seconds, l.p))
    sims = [l.similarity for l in eligible]
    med = float(median(sims))

    n = len(eligible)
    faces: list[bool | None] = []
    tie_positions: list[int] = []
    n_above = 0
    for i, s in enumerate(sims):
        if s > med:
            faces.append(True)
            n_above += 1
        elif s < med:
            faces.append(False)
        else:
            faces.append(None)
            tie_positions.append(i)

    targets = sorted({n // 2, (n + 1) // 2})
    achievable = [t for t in targets if 0 <= t - n_above <= len(tie_positions)]
    target = achievable[int(rng.integers(len(achievable)))] if len(achievable) > 1 else achievable[0]
    n_tie_heads = target - n_above
    if tie_positions:
        head_picks = rng.choice(len(tie_positions), size=n_tie_heads, replace=False)
        chosen = {tie_positions[int(i)] for i in head_picks}
        for pos in tie_positions:
            faces[pos] = pos in chosen

    coins = [(_bucket(l.gap_seconds), bool(f)) for l, f in zip(eligible, faces)]
    return CoinSeries(anchor=anchor, coins=coins, median_sim=med)


def build_coin_series(
    net: ImplicitNetwork, rng: np.random.Generator, anchor_side: str = "q"
) -> tuple[list[CoinSeries], int]:
    """Group links by anchor post and build a coin series per anchor.

    ``anchor_side`` is "q" for the forward test and "p" for the reversed
    one.  Returns (series, number of anchors skipped for having fewer
    than two eligible links).
    """
    if anchor_side not in ("q", "p"):
        raise ValueError("anchor_side must be 'q' or 'p'")
    groups: dict[str, list[ImplicitLink]] = {}
    for link in net.links:
        groups.setdefault(getattr(link, anchor_side), []).append(link)
    series: list[CoinSeries] = []
    skipped = 0
    for anchor in sorted(groups):
        s = make_coins(anchor, groups[anchor], rng)
        if s is None:
            skipped += 1
        else:
            series.append(s)
    return series, skipped


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
class InfluenceLink:
    q: str
    p: str
    reader: str
    author: str
    gap_seconds: int
    similarity: float
    passed_time: bool
    passed_content: bool


@dataclass
class InfluenceNetwork:
    links: list[InfluenceLink]
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
    transform of the similarity function.
    """
    groups: dict[str, list[ImplicitLink]] = {}
    for link in net.links:
        groups.setdefault(link.q, []).append(link)
    tau = tau_hours * 3600
    kept: list[InfluenceLink] = []
    for anchor in sorted(groups):
        eligible = [l for l in groups[anchor] if l.similarity is not None]
        if not eligible:
            continue
        med = float(median([l.similarity for l in eligible]))
        for l in sorted(eligible, key=lambda l: l.p):
            if l.gap_seconds <= tau and l.similarity > med:
                kept.append(
                    InfluenceLink(
                        q=l.q,
                        p=l.p,
                        reader=l.reader,
                        author=l.author,
                        gap_seconds=l.gap_seconds,
                        similarity=l.similarity,
                        passed_time=True,
                        passed_content=True,
                    )
                )
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
    infl_posts = sorted({l.q for l in influence_net.links} | {l.p for l in influence_net.links})
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

_INFLUENCE_COLUMNS = ("q", "p", "reader", "author", "gap_seconds", "passed_time", "passed_content")


def write_zreport_tsv(report: ZReport, path: str, header: str | None = None) -> None:
    artifacts.write_rows(
        path,
        header,
        ((b.bucket, b.n, b.heads, b.xbar, b.sigma, b.z, b.flag()) for b in report.buckets),
        ("bucket", "n", "heads", "xbar", "sigma", "z", "flag"),
    )


def write_influence_tsv(net: InfluenceNetwork, path: str, header: str | None = None) -> None:
    rows = (
        (l.q, l.p, l.reader, l.author, l.gap_seconds, int(l.passed_time), int(l.passed_content))
        for l in net.links
    )
    artifacts.write_rows(path, header, rows, _INFLUENCE_COLUMNS)


def read_influence_tsv(path: str, tau_hours: int = DEFAULT_TAU_HOURS) -> InfluenceNetwork:
    rows = artifacts.read_rows(path, (str, str, str, str, int, int, int), _INFLUENCE_COLUMNS)
    links = [
        InfluenceLink(q, p, reader, author, gap, math.nan, bool(pt), bool(pc))
        for q, p, reader, author, gap, pt, pc in rows
    ]
    return InfluenceNetwork(links=links, tau_hours=tau_hours, **link_counts(links))
