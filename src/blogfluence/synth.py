"""Synthetic blog corpora with planted influence and known ground truth.

The generator plays the roles the real service data cannot: it emits the
exact posts-TSV and combined-log formats, plants copy events whose
(q, p) pairs are recorded as ground truth, and injects a correlation
confounder (readers prefer topically similar authors) so the causality
tests have something to reject.

Read targets are drawn from the posts uploaded before the reader's link
window even opens, and the read-to-upload gap is drawn independently of
the target.  With no copying this makes similarity exactly independent
of the gap, so the time-shuffle null holds by construction; copying then
couples the two only through the planted pairs.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from datetime import datetime
from itertools import chain

import numpy as np

from blogfluence import artifacts
from blogfluence.corpus import AccessRecord, BlogPost, Corpus, parse_iso_ts

# Relative weights; posting peaks late evening local time.
DEFAULT_HOUR_PROFILE = (
    14, 8, 5, 3, 2, 2, 3, 5, 8, 10, 12, 13,
    14, 14, 15, 16, 18, 22, 27, 32, 38, 42, 40, 24,
)
# Monday..Sunday, Sunday-heavy.
DEFAULT_WEEKDAY_PROFILE = (0.95, 0.9, 0.9, 0.95, 1.0, 1.25, 1.55)


class SynthesisError(ValueError):
    """The configuration cannot produce a usable corpus."""


@dataclass
class SynthConfig:
    n_bloggers: int = 120
    n_days: int = 14
    vocab_size: int = 240
    n_topics: int = 4
    posts_per_blogger_rate: float = 1.0  # expected posts per blogger per day
    reads_per_post_rate: float = 4.0  # expected reads before each own post
    copy_prob: float = 0.0  # chance a post copies from something just read
    copy_gap_max_hours: int = 2
    copy_fraction: float = 0.3  # share of tokens replaced on a copy
    confounder_strength: float = 1.0  # read bias toward similar authors
    tokens_per_post: int = 40
    topic_sharpness: float = 0.9  # topic mass concentrated on its own slice
    n_groups: int = 1
    experts_per_group_topic: int = 0  # > 0 plants member-specific experts
    experts_read_per_member: int = 4
    expert_read_prob: float = 0.85
    read_window_hours: int = 12
    hour_profile: tuple[float, ...] = DEFAULT_HOUR_PROFILE
    weekday_profile: tuple[float, ...] = DEFAULT_WEEKDAY_PROFILE
    tz_offset_hours: int = 9
    start_date: str = "2008-09-01"
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.copy_prob <= 1.0:
            raise ValueError("copy_prob must be in [0, 1]")
        for name in ("posts_per_blogger_rate", "reads_per_post_rate", "confounder_strength"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.vocab_size < self.n_topics:
            raise ValueError("vocab_size must be >= n_topics")
        if not 0.0 <= self.copy_fraction <= 1.0:
            raise ValueError("copy_fraction must be in [0, 1]")
        if len(self.hour_profile) != 24 or len(self.weekday_profile) != 7:
            raise ValueError("hour_profile needs 24 weights, weekday_profile 7")


@dataclass
class GroundTruth:
    influence_pairs: set[tuple[str, str]]  # (q url, p url) copy events
    member_expert_map: dict[str, dict[int, tuple[str, ...]]] = field(default_factory=dict)


@dataclass
class _Post:
    blogger: int
    url: str
    ts: int
    topic: int
    tokens: np.ndarray


def _topic_word_dists(rng: np.random.Generator, cfg: SynthConfig) -> np.ndarray:
    v, k = cfg.vocab_size, cfg.n_topics
    slice_size = v // k
    dists = np.empty((k, v))
    for t in range(k):
        own = np.zeros(v)
        lo = t * slice_size
        hi = v if t == k - 1 else lo + slice_size
        own[lo:hi] = rng.dirichlet(np.full(hi - lo, 0.5))
        background = rng.dirichlet(np.full(v, 0.5))
        dists[t] = cfg.topic_sharpness * own + (1.0 - cfg.topic_sharpness) * background
    return dists


def _choice_cdf(p: np.ndarray) -> np.ndarray:
    """The table ``Generator.choice(len(p), p=p)`` builds on every call.

    ``cdf.searchsorted(rng.random(size), side="right")`` then draws what
    that ``choice`` call would, from the same stream; for one draw,
    ``bisect_right(cdf.tolist(), rng.random())`` is the same index.
    """
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf


def generate(cfg: SynthConfig) -> tuple[Corpus, GroundTruth]:
    """Build a corpus and its planted ground truth from one seeded stream."""
    rng = np.random.default_rng(cfg.seed)
    n_expert_slots = cfg.n_groups * cfg.n_topics * cfg.experts_per_group_topic
    if cfg.experts_per_group_topic and n_expert_slots > cfg.n_bloggers // 2:
        raise SynthesisError("expert slots exceed half the blogger population")

    terms = [f"w{i:04d}" for i in range(cfg.vocab_size)]
    topic_word = _topic_word_dists(rng, cfg)
    blogger_ids = [f"u{b:04d}" for b in range(cfg.n_bloggers)]

    # The first n_expert_slots bloggers become experts, laid out as
    # (group, topic, slot); everyone else is an ordinary member.
    expert_of: dict[tuple[int, int], tuple[int, ...]] = {}
    is_expert = np.zeros(cfg.n_bloggers, dtype=bool)
    expert_topic = {}
    slot = 0
    if cfg.experts_per_group_topic:
        for g in range(cfg.n_groups):
            for t in range(cfg.n_topics):
                ids = tuple(range(slot, slot + cfg.experts_per_group_topic))
                expert_of[(g, t)] = ids
                for e in ids:
                    is_expert[e] = True
                    expert_topic[e] = t
                slot += cfg.experts_per_group_topic
    group = np.array([b % cfg.n_groups for b in range(cfg.n_bloggers)])

    mixtures = rng.dirichlet(np.ones(cfg.n_topics), size=cfg.n_bloggers)
    for b in range(cfg.n_bloggers):
        if is_expert[b]:
            peak = np.full(cfg.n_topics, 0.1 / max(cfg.n_topics - 1, 1))
            peak[expert_topic[b]] = 0.9
            mixtures[b] = peak

    # similarity-biased reader -> author weights, zero on self
    norms = np.linalg.norm(mixtures, axis=1, keepdims=True)
    sim = (mixtures @ mixtures.T) / (norms * norms.T)
    author_weights = np.exp(cfg.confounder_strength * sim)
    np.fill_diagonal(author_weights, 0.0)
    author_cum = author_weights.cumsum(axis=1)

    base_utc = parse_iso_ts(cfg.start_date + "T00:00:00Z") - cfg.tz_offset_hours * 3600
    start_weekday = datetime.fromisoformat(cfg.start_date).weekday()
    day_w = np.array(
        [cfg.weekday_profile[(start_weekday + d) % 7] for d in range(cfg.n_days)], dtype=float
    )
    day_w /= day_w.sum()
    hour_w = np.asarray(cfg.hour_profile, dtype=float)
    hour_w /= hour_w.sum()

    day_cdf, hour_cdf = _choice_cdf(day_w).tolist(), _choice_cdf(hour_w).tolist()
    topic_cdf = [_choice_cdf(row) for row in topic_word]
    mixture_cdf = [_choice_cdf(row).tolist() for row in mixtures]
    posts: list[_Post] = []
    for b in range(cfg.n_bloggers):
        n_posts = int(rng.poisson(cfg.posts_per_blogger_rate * cfg.n_days))
        for serial in range(n_posts):
            day = bisect_right(day_cdf, rng.random())
            hour = bisect_right(hour_cdf, rng.random())
            minute, second = int(rng.integers(60)), int(rng.integers(60))
            ts = base_utc + day * 86400 + hour * 3600 + minute * 60 + second
            topic = bisect_right(mixture_cdf[b], rng.random())
            tokens = topic_cdf[topic].searchsorted(rng.random(cfg.tokens_per_post), side="right")
            posts.append(_Post(b, f"/u{b:04d}/p{serial}", ts, topic, tokens))
    if not posts:
        raise SynthesisError("configuration produced zero posts")
    posts.sort(key=lambda p: (p.ts, p.url))

    # Sorted upload times per author and overall; bisect_left on them
    # counts the posts uploaded before a cutoff.
    by_author_times: list[list[int]] = [[] for _ in range(cfg.n_bloggers)]
    by_author_idx: list[list[int]] = [[] for _ in range(cfg.n_bloggers)]
    for idx, post in enumerate(posts):
        by_author_times[post.blogger].append(post.ts)
        by_author_idx[post.blogger].append(idx)
    all_times = [p.ts for p in posts]
    author_cum_rows = list(author_cum)

    # personal expert subsets: which of the group's experts a member reads
    personal: dict[tuple[int, int], tuple[int, ...]] = {}
    if cfg.experts_per_group_topic:
        n_pick = min(cfg.experts_read_per_member, cfg.experts_per_group_topic)
        for b in range(cfg.n_bloggers):
            if is_expert[b]:
                continue
            for t in range(cfg.n_topics):
                pool = expert_of[(int(group[b]), t)]
                picks = rng.choice(len(pool), size=n_pick, replace=False)
                personal[(b, t)] = tuple(pool[int(i)] for i in sorted(picks))

    def pick_author_post(author: int, cutoff: int) -> int | None:
        n_avail = bisect_left(by_author_times[author], cutoff)
        if n_avail == 0:
            return None
        return by_author_idx[author][int(rng.integers(n_avail))]

    window = cfg.read_window_hours * 3600
    copy_gap_max = cfg.copy_gap_max_hours * 3600
    accesses: list[AccessRecord] = []
    reads_by_blogger: dict[int, list[tuple[int, int]]] = {}

    # First pass: reads.  Each post draws reads for its author inside the
    # link window before it; the pooled per-author read history is what
    # copies later select from.
    for post in posts:
        reader = post.blogger
        if cfg.experts_per_group_topic and is_expert[reader]:
            continue  # planted experts are read, they do not read
        cutoff = post.ts - window  # targets predate the whole link window
        n_reads = int(rng.poisson(cfg.reads_per_post_rate))
        reads: list[tuple[int, int]] = []  # (access ts, target post index)
        for _ in range(n_reads):
            gap = int(rng.integers(60, window + 1))
            target = None
            if cfg.experts_per_group_topic and rng.random() < cfg.expert_read_prob:
                pool = personal[(reader, post.topic)]
                order = rng.permutation(len(pool))
                for i in order:
                    target = pick_author_post(pool[int(i)], cutoff)
                    if target is not None:
                        break
            if target is None:
                cum = author_cum_rows[reader]
                for _ in range(8):
                    author = int(cum.searchsorted(rng.random() * cum[-1], side="right"))
                    target = pick_author_post(author, cutoff)
                    if target is not None:
                        break
            if target is None:
                n_avail = bisect_left(all_times, cutoff)
                for _ in range(8):
                    if n_avail == 0:
                        break
                    cand = int(rng.integers(n_avail))
                    if posts[cand].blogger != reader:
                        target = cand
                        break
            if target is None:
                continue
            reads.append((post.ts - gap, target))

        reads_by_blogger.setdefault(reader, []).extend(reads)
        ip = f"ip{reader:04d}"
        for ts_read, target in reads:
            accesses.append(
                AccessRecord(
                    hashed_ip=ip,
                    access_ts=ts_read,
                    request=posts[target].url,
                    referrer="",
                )
            )

    # Second pass, in upload order: a copying post picks uniformly among
    # everything its author read within the copy gap before it.  Sources
    # are always uploaded (and finalized) earlier, because read targets
    # predate the reading post's whole window.
    # Each reading blogger's history as (access ts, target post index) columns.
    history = {
        b: np.fromiter(chain.from_iterable(reads), np.int64, 2 * len(reads)).reshape(-1, 2).T
        for b, reads in reads_by_blogger.items()
    }
    pairs: set[tuple[str, str]] = set()
    for post in posts:
        if cfg.experts_per_group_topic and is_expert[post.blogger]:
            continue
        if rng.random() >= cfg.copy_prob:
            continue
        read_ts, read_target = history[post.blogger]  # the read pass saw every non-expert
        gap = post.ts - read_ts
        eligible = np.flatnonzero((gap > 0) & (gap <= copy_gap_max))
        if not eligible.size:
            continue
        source_idx = int(read_target[eligible[int(rng.integers(eligible.size))]])
        n_replace = int(round(cfg.copy_fraction * len(post.tokens)))
        if n_replace > 0:
            positions = rng.choice(len(post.tokens), size=n_replace, replace=False)
            source_tokens = posts[source_idx].tokens
            post.tokens[positions] = source_tokens[
                rng.integers(len(source_tokens), size=n_replace)
            ]
        pairs.add((post.url, posts[source_idx].url))

    accesses.sort(key=lambda a: (a.access_ts, a.hashed_ip, a.request))
    blog_posts = [
        BlogPost(
            hashed_ip=f"ip{p.blogger:04d}",
            upload_ts=p.ts,
            user_id=blogger_ids[p.blogger],
            url=p.url,
            title=f"post {p.url}",
            blog_name=f"blog-{blogger_ids[p.blogger]}",
            body=" ".join([terms[t] for t in p.tokens.tolist()]),
            themes=(f"t{p.topic}",),
        )
        for p in posts
    ]
    corpus = Corpus.from_records(blog_posts, accesses)

    expert_map: dict[str, dict[int, tuple[str, ...]]] = {}
    if cfg.experts_per_group_topic:
        for b in range(cfg.n_bloggers):
            if is_expert[b]:
                continue
            expert_map[blogger_ids[b]] = {
                t: tuple(blogger_ids[e] for e in expert_of[(int(group[b]), t)])
                for t in range(cfg.n_topics)
            }
    return corpus, GroundTruth(influence_pairs=pairs, member_expert_map=expert_map)


# --------------------------------------------------------------------------
# ground-truth files

def write_truth_tsv(truth: GroundTruth, path: str, header: str | None = None) -> None:
    artifacts.write_rows(path, header, sorted(truth.influence_pairs), ("q", "p"))


def write_experts_tsv(truth: GroundTruth, path: str, header: str | None = None) -> None:
    experts = truth.member_expert_map
    rows = (
        (member, topic, ",".join(experts[member][topic]))
        for member in sorted(experts) for topic in sorted(experts[member])
    )
    artifacts.write_rows(path, header, rows, ("member", "topic", "experts"))
