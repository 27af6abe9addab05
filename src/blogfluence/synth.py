"""Synthetic blog corpora with planted influence and known ground truth.

The generator plays the roles the real service data cannot: it returns
the ``Corpus`` column tables that the parsers of the posts-TSV and
combined-log formats return, with the IP, user and url columns coded
straight from its integer draws, plants copy events whose (q, p) pairs
are recorded as ground truth, and injects a correlation confounder
(readers prefer topically similar authors) so the causality tests have
something to reject.

Read targets are drawn from the posts uploaded before the reader's link
window even opens, and the read-to-upload gap is drawn independently of
the target.  With no copying this makes similarity exactly independent
of the gap, so the time-shuffle null holds by construction; copying then
couples the two only through the planted pairs.

The law, draw by draw.  Each pass draws its randomness as arrays from
one seeded ``Generator``; the stream, not the law, depends on how the
draws are batched.

- Topics and bloggers: each topic's word distribution mixes a Dirichlet
  over its own vocabulary slice with a Dirichlet background; each
  blogger's topic mixture is a flat Dirichlet, except that a planted
  expert puts 0.9 on its topic.  Reader -> author weights are
  ``exp(confounder_strength * cosine(mixtures))``, zero on self.
- Posts: each blogger writes Poisson(``posts_per_blogger_rate * n_days``)
  posts.  A post's day and hour are drawn by the weekday and hour
  profiles, its minute and second uniformly, its topic from its
  blogger's mixture, and its ``tokens_per_post`` tokens iid from that
  topic's word distribution.
- Reads: each post of a non-expert draws Poisson(``reads_per_post_rate``)
  reads by its author, each at a gap uniform in [60 s, window] before the
  post, of a target uploaded before the window opens.  With planted
  experts, a read first takes the expert path with ``expert_read_prob``:
  the expert is uniform among the reader's personal experts for the
  post's topic that have an available post.  Otherwise, or when none
  has, up to 8 confounder rounds draw an author by the reader's author
  weights; then up to 8 fallback rounds draw a post uniformly among all
  those available and keep it unless the reader wrote it; then the read
  is dropped.  In every round the target is uniform among the chosen
  author's available posts.
- Copies: each post of a non-expert copies with ``copy_prob``, from a
  source uniform among its author's reads within ``copy_gap_max_hours``
  before it (it copies nothing when there is none).  The copy replaces
  ``round(copy_fraction * tokens_per_post)`` distinct positions with
  tokens drawn uniformly from the source as it stands after its own copy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from datetime import datetime, timedelta

import numpy as np

from blogfluence import artifacts
from blogfluence.corpus import Accesses, Corpus, Posts, Strings, lexorder, parse_iso_ts, search

# Relative weights; posting peaks late evening local time.
DEFAULT_HOUR_PROFILE = (
    14, 8, 5, 3, 2, 2, 3, 5, 8, 10, 12, 13,
    14, 14, 15, 16, 18, 22, 27, 32, 38, 42, 40, 24,
)
# Monday..Sunday, Sunday-heavy.
DEFAULT_WEEKDAY_PROFILE = (0.95, 0.9, 0.9, 0.95, 1.0, 1.25, 1.55)
_ROUNDS = 8  # confounder rounds, then as many uniform-fallback rounds
_BODY_BLOCK = 1024  # post bodies laid out as one byte array at a time


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
        at_least = {
            "n_bloggers": 2, "n_days": 1, "n_topics": 1, "copy_gap_max_hours": 1,
            "tokens_per_post": 1, "n_groups": 1, "experts_per_group_topic": 0,
            "experts_read_per_member": 1, "read_window_hours": 1, "seed": 0,
        }
        for name, low in at_least.items():
            if getattr(self, name) < low:
                raise SynthesisError(f"{name} must be >= {low}")
        for name in ("posts_per_blogger_rate", "reads_per_post_rate", "confounder_strength"):
            if not 0 <= getattr(self, name) < math.inf:
                raise SynthesisError(f"{name} must be finite and >= 0")
        for name in ("copy_prob", "copy_fraction", "topic_sharpness", "expert_read_prob"):
            if not 0 <= getattr(self, name) <= 1:
                raise SynthesisError(f"{name} must be in [0, 1]")
        if self.vocab_size < self.n_topics:
            raise SynthesisError("vocab_size must be >= n_topics")
        if not -24 < self.tz_offset_hours < 24:
            raise SynthesisError("tz_offset_hours must be in (-24, 24)")
        if len(self.hour_profile) != 24 or len(self.weekday_profile) != 7:
            raise SynthesisError("hour_profile needs 24 weights, weekday_profile 7")
        for name in ("hour_profile", "weekday_profile"):
            if not all(0 <= w < math.inf for w in getattr(self, name)):
                raise SynthesisError(f"{name} weights must be finite and >= 0")
        try:  # a date whose posts and reads stay within the years 1..9999
            start = datetime.fromisoformat(self.start_date + "T00:00:00+00:00")
            start - timedelta(hours=self.read_window_hours + 24)
            start + timedelta(days=self.n_days + 1)
        except (ValueError, OverflowError) as exc:
            raise SynthesisError(f"start_date must be a date YYYY-MM-DD in range: {exc}") from None
        weekday = start.weekday()
        days = range(min(self.n_days, 7))
        if not sum(self.hour_profile) > 0 or not sum(
                self.weekday_profile[(weekday + d) % 7] for d in days) > 0:
            raise SynthesisError("the hour and weekday profiles need weight on some drawn slot")
        n_slots = self.n_groups * self.n_topics * self.experts_per_group_topic
        if n_slots > self.n_bloggers // 2:
            raise SynthesisError("expert slots exceed half the blogger population")
        if 0 < self.experts_per_group_topic < self.experts_read_per_member:
            raise SynthesisError(
                f"experts_read_per_member ({self.experts_read_per_member}) exceeds "
                f"experts_per_group_topic ({self.experts_per_group_topic}): a member "
                "cannot read more experts than a slot plants")


@dataclass
class GroundTruth:
    influence_pairs: set[tuple[str, str]]  # (q url, p url) copy events
    member_expert_map: dict[str, dict[int, tuple[str, ...]]] = field(default_factory=dict)


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
    """The normalised CDF of the weights ``p``, which ends at exactly 1.0:
    ``cdf.searchsorted(u, side="right")`` for ``u`` uniform on [0, 1) draws
    index i with probability ``p[i] / p.sum()``."""
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf


def _row_cdfs(weights: np.ndarray) -> np.ndarray:
    """Each row's normalised CDF plus the row index, laid end to end: one
    ascending array that ``_draw_rows`` searches for every row at once."""
    cdf = weights.cumsum(axis=1)
    cdf /= cdf[:, -1:]
    cdf += np.arange(len(cdf))[:, None]
    return cdf.ravel()


def _draw_rows(flat_cdf: np.ndarray, n_cols: int, row: np.ndarray, u: np.ndarray) -> np.ndarray:
    """A column drawn by weight from each ``row`` of ``_row_cdfs`` by one
    ``search`` for uniforms ``u`` on [0, 1).  ``row + u`` can round up to
    ``row + 1``, which is clamped below it so that the draw stays in its row."""
    x = np.minimum(row + u, np.nextafter(row + 1.0, 0.0))
    return search(flat_cdf, x, "right") - row * n_cols


def _bodies(terms: list[str], tokens: np.ndarray) -> list[str]:
    """Each row of ``tokens`` as its terms joined by single spaces, as
    ``" ".join`` would give it, for ASCII terms without NUL.

    A block of ``_BODY_BLOCK`` rows is laid out as one byte array, each
    token as its term and a space, NUL-padded to the widest term; the
    NULs drop out, the block decodes once, and each body is its row's
    slice less the last space (a row without tokens slices backwards, to
    "")."""
    table = np.array([t + " " for t in terms], dtype=bytes)
    widths = np.char.str_len(table)
    bodies: list[str] = []
    for lo in range(0, len(tokens), _BODY_BLOCK):
        block = tokens[lo:lo + _BODY_BLOCK]
        text = table[block].tobytes().replace(b"\0", b"").decode("ascii")
        length = widths[block].sum(axis=1)
        ends = length.cumsum()
        bodies += [text[a:b] for a, b in zip((ends - length).tolist(), (ends - 1).tolist())]
    return bodies


def generate(cfg: SynthConfig) -> tuple[Corpus, GroundTruth]:
    """Build a corpus and its planted ground truth from one seeded stream."""
    rng = np.random.default_rng(cfg.seed)
    n_bloggers, n_topics, n_tokens = cfg.n_bloggers, cfg.n_topics, cfg.tokens_per_post
    terms = [f"w{i:04d}" for i in range(cfg.vocab_size)]
    topic_word = _topic_word_dists(rng, cfg)
    blogger_ids = [f"u{b:04d}" for b in range(n_bloggers)]
    ips = [f"ip{b:04d}" for b in range(n_bloggers)]

    # The first n_slots bloggers become experts, laid out as (group,
    # topic, slot); everyone else is an ordinary member of group b % n_groups.
    per_slot = cfg.experts_per_group_topic
    n_slots = cfg.n_groups * n_topics * per_slot
    is_expert = np.arange(n_bloggers) < n_slots
    group = np.arange(n_bloggers) % cfg.n_groups

    mixtures = rng.dirichlet(np.ones(n_topics), size=n_bloggers)
    if n_slots:
        mixtures[:n_slots] = 0.1 / max(n_topics - 1, 1)
        mixtures[np.arange(n_slots), np.arange(n_slots) // per_slot % n_topics] = 0.9

    # Similarity-biased reader -> author weights, zero on self.  Each row
    # is scaled so that its largest weight is 1, which keeps the row sums
    # finite and positive at any confounder strength.
    norms = np.linalg.norm(mixtures, axis=1, keepdims=True)
    sim = (mixtures @ mixtures.T) / (norms * norms.T)
    np.fill_diagonal(sim, 0.0)  # cosines of nonnegative mixtures are >= 0
    author_weights = np.exp(cfg.confounder_strength * (sim - sim.max(axis=1, keepdims=True)))
    np.fill_diagonal(author_weights, 0.0)

    # -- posts ------------------------------------------------------------
    base_utc = parse_iso_ts(cfg.start_date + "T00:00:00Z") - cfg.tz_offset_hours * 3600
    start_weekday = datetime.fromisoformat(cfg.start_date).weekday()
    day_w = np.array([cfg.weekday_profile[(start_weekday + d) % 7] for d in range(cfg.n_days)])
    hour_w = np.asarray(cfg.hour_profile, dtype=float)

    per_blogger = rng.poisson(cfg.posts_per_blogger_rate * cfg.n_days, size=n_bloggers)
    n_posts = int(per_blogger.sum())
    if not n_posts:
        raise SynthesisError("configuration produced zero posts")
    blogger = np.repeat(np.arange(n_bloggers), per_blogger)
    serial = np.arange(n_posts) - np.repeat(per_blogger.cumsum() - per_blogger, per_blogger)
    day = _choice_cdf(day_w).searchsorted(rng.random(n_posts), side="right")
    hour = _choice_cdf(hour_w).searchsorted(rng.random(n_posts), side="right")
    minute, second = rng.integers(60, size=(2, n_posts))
    ts = base_utc + day * 86400 + hour * 3600 + minute * 60 + second
    topic = _draw_rows(_row_cdfs(mixtures), n_topics, blogger, rng.random(n_posts))
    tokens = _draw_rows(_row_cdfs(topic_word), cfg.vocab_size, topic[:, None],
                        rng.random((n_posts, n_tokens)))

    # Upload order: by time, then url.  ``post_rank`` ranks the url strings.
    urls = np.array([f"/u{b:04d}/p{s}" for b, s in zip(blogger.tolist(), serial.tolist())])
    post_rank = np.unique(urls, return_inverse=True)[1]
    order = lexorder(ts, post_rank)
    blogger, ts, topic, tokens = blogger[order], ts[order], topic[order], tokens[order]
    urls, post_rank = urls[order].tolist(), post_rank[order]

    # -- reads ------------------------------------------------------------
    # Each author's posts in upload order, under int64 keys that sort by
    # (author, time): ``n_before`` counts an author's posts before a cutoff,
    # and ``uniform_post`` draws one of them.
    t0, span = int(ts[0]), int(ts[-1] - ts[0]) + 1
    by_author = lexorder(blogger)
    n_own = np.bincount(blogger, minlength=n_bloggers)
    author_start = n_own.cumsum() - n_own
    author_key = blogger[by_author] * span + (ts[by_author] - t0)

    def n_before(author: np.ndarray, cutoff: np.ndarray) -> np.ndarray:
        key = author * span + np.clip(cutoff - t0, 0, span)
        return search(author_key, key) - author_start[author]

    def uniform_post(author: np.ndarray, n_avail: np.ndarray) -> np.ndarray:
        """A post uniform among the first ``n_avail`` (>= 1) of each author's."""
        return by_author[author_start[author] + rng.integers(n_avail)]

    window = cfg.read_window_hours * 3600
    reading = np.flatnonzero(~is_expert[blogger])  # planted experts are read, they do not read
    read_post = np.repeat(reading, rng.poisson(cfg.reads_per_post_rate, size=reading.size))
    n_reads = read_post.size
    reader = blogger[read_post]
    cutoff = ts[read_post] - window  # targets predate the whole link window
    read_ts = ts[read_post] - rng.integers(60, window + 1, size=n_reads)
    target = np.full(n_reads, -1)
    pending = np.arange(n_reads)

    if n_slots:
        # personal[b, t]: the experts of (b's group, t) that member b reads
        picks = np.argsort(rng.random((n_bloggers, n_topics, per_slot)),
                           axis=2)[:, :, :cfg.experts_read_per_member]
        first_slot = (group[:, None] * n_topics + np.arange(n_topics)) * per_slot
        personal = first_slot[:, :, None] + picks
        expert_reads = np.flatnonzero(rng.random(n_reads) < cfg.expert_read_prob)
        pool = personal[reader[expert_reads], topic[read_post[expert_reads]]]
        avail = n_before(pool, cutoff[expert_reads, None])
        is_open = avail > 0
        n_open = is_open.sum(axis=1)
        kth = rng.integers(np.maximum(n_open, 1))  # the open expert each read takes
        col = (is_open.cumsum(axis=1) <= kth[:, None]).sum(axis=1)
        rows = np.flatnonzero(n_open)
        col = col[rows]
        target[expert_reads[rows]] = uniform_post(pool[rows, col], avail[rows, col])
        pending = np.flatnonzero(target < 0)

    author_cdf = _row_cdfs(author_weights)
    for _ in range(_ROUNDS):
        if pending.size:
            author = _draw_rows(author_cdf, n_bloggers, reader[pending], rng.random(pending.size))
            n_avail = n_before(author, cutoff[pending])
            ok = n_avail > 0
            target[pending[ok]] = uniform_post(author[ok], n_avail[ok])
            pending = pending[~ok]
    n_any = ts.searchsorted(cutoff[pending])  # posts uploaded before the cutoff
    pending, n_any = pending[n_any > 0], n_any[n_any > 0]
    for _ in range(_ROUNDS):
        if pending.size:
            cand = rng.integers(n_any)
            ok = blogger[cand] != reader[pending]
            target[pending[ok]] = cand[ok]
            pending, n_any = pending[~ok], n_any[~ok]
    kept = target >= 0
    reader, read_ts, target = reader[kept], read_ts[kept], target[kept]

    # -- copies, in upload order -------------------------------------------
    # A source was uploaded before its reader's window opened, so before
    # the copying post: applying copies in upload order copies each source
    # as it stands after its own copy.
    pairs: set[tuple[str, str]] = set()
    copier = reading[rng.random(reading.size) < cfg.copy_prob]
    if copier.size and reader.size:
        copy_gap_max = cfg.copy_gap_max_hours * 3600
        lo_t = min(int(read_ts.min()), int(ts[0]) - copy_gap_max)
        r_span = max(int(read_ts.max()), int(ts[-1])) - lo_t + 1
        history = lexorder(reader, read_ts)  # each reader's reads, in time order
        read_key = reader[history] * r_span + (read_ts[history] - lo_t)
        q_key = blogger[copier] * r_span + (ts[copier] - lo_t)
        first = read_key.searchsorted(q_key - copy_gap_max)  # read at or after q - gap max
        n_eligible = read_key.searchsorted(q_key) - first  # ... and before q
        copying = n_eligible > 0
        copier, first, n_eligible = copier[copying], first[copying], n_eligible[copying]
        source = target[history[first + rng.integers(np.maximum(n_eligible, 1))]]
        n_replace = int(round(cfg.copy_fraction * n_tokens))
        positions = np.argsort(rng.random((copier.size, n_tokens)), axis=1)[:, :n_replace]
        drawn = rng.integers(n_tokens, size=(copier.size, n_replace))
        for q, p, pos, take in zip(copier.tolist(), source.tolist(), positions, drawn):
            tokens[q, pos] = tokens[p, take]
            pairs.add((urls[q], urls[p]))

    # -- columns ------------------------------------------------------------
    # Accesses by (time, IP, url); IP and url codes index ``ips`` and ``urls``.
    ip_rank = np.unique(np.array(ips), return_inverse=True)[1]
    order = lexorder(read_ts, ip_rank[reader], post_rank[target])
    accesses = Accesses(Strings(ips, reader[order]), read_ts[order], Strings(urls, target[order]),
                        Strings([""], np.zeros(order.size, np.int64)))
    posts = Posts(Strings(ips, blogger), ts, Strings(blogger_ids, blogger), urls,
                  [f"post {url}" for url in urls],
                  Strings([f"blog-{b}" for b in blogger_ids], blogger),
                  _bodies(terms, tokens),
                  Strings([f"t{k}" for k in range(n_topics)], topic))

    expert_map: dict[str, dict[int, tuple[str, ...]]] = {}
    for b in range(n_slots, n_bloggers if n_slots else 0):  # the members
        expert_map[blogger_ids[b]] = {
            t: tuple(blogger_ids[first_slot[b, t]:first_slot[b, t] + per_slot])
            for t in range(n_topics)
        }
    return Corpus(posts, accesses), GroundTruth(pairs, expert_map)


# --------------------------------------------------------------------------
# ground-truth files

def write_truth_tsv(truth: GroundTruth, path: str, header: str | None = None) -> None:
    artifacts.write_rows(path, header, list(zip(*sorted(truth.influence_pairs))), ("q", "p"))


def write_experts_tsv(truth: GroundTruth, path: str, header: str | None = None) -> None:
    experts = truth.member_expert_map
    rows = (
        (member, topic, ",".join(experts[member][topic]))
        for member in sorted(experts) for topic in sorted(experts[member])
    )
    artifacts.write_rows(path, header, list(zip(*rows)), ("member", "topic", "experts"))
