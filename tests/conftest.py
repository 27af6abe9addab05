import importlib.util
import sys
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from datetime import datetime
from itertools import chain, islice
from pathlib import Path

import numpy as np
import pytest

from blogfluence.corpus import (
    _APACHE_LINE_RE,
    Accesses,
    Activity,
    CleaningReport,
    Corpus,
    FormatError,
    IngestError,
    ParseReport,
    Posts,
    Strings,
    distinct,
    format_apache_ts,
    format_iso_ts,
    normalize_url,
    parse_apache_ts,
    parse_iso_ts,
)
from blogfluence.synth import (
    GroundTruth,
    SynthConfig,
    SynthesisError,
    _choice_cdf,
    _topic_word_dists,
)
from blogfluence import artifacts, causality
from blogfluence.factor import _content_gradient, _link_state, _softmax_rows
from blogfluence.implicit import Links
from blogfluence.textvec import PostTerms, tokenize
from blogfluence.topics import TopicModel, build_doc_term

# 2008-09-01T00:00:00Z, a Monday.
BASE_TS = 1220227200
SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name):
    """The module of ``scripts/<name>.py``, imported without keeping the
    ``src/`` entry that the script prepends to ``sys.path``."""
    path = list(sys.path)
    try:
        spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = path
    return module


# --------------------------------------------------------------------------
# The per-record types, parsers and line writers that the column tables of
# ``blogfluence.corpus`` replaced, kept as the oracles they are checked
# against.

@dataclass(frozen=True)
class BlogPost:
    hashed_ip: str
    upload_ts: int  # UTC epoch seconds
    user_id: str
    url: str  # normalized path, unique per post
    title: str
    blog_name: str
    body: str
    themes: tuple[str, ...]


@dataclass(frozen=True)
class AccessRecord:
    hashed_ip: str
    access_ts: int
    request: str  # normalized path
    referrer: str  # empty string when the log field was "-"


def make_corpus(posts, accesses):
    """The column corpus of records; of posts that share a URL, the first is kept."""
    first = {}
    for post in posts:
        first.setdefault(post.url, post)
    posts, accesses = list(first.values()), list(accesses)
    return Corpus(
        Posts(Strings.of(p.hashed_ip for p in posts),
              np.array([p.upload_ts for p in posts], dtype=np.int64),
              Strings.of(p.user_id for p in posts), [p.url for p in posts],
              [p.title for p in posts], Strings.of(p.blog_name for p in posts),
              [p.body for p in posts], Strings.of(",".join(p.themes) for p in posts)),
        Accesses(Strings.of(a.hashed_ip for a in accesses),
                 np.array([a.access_ts for a in accesses], dtype=np.int64),
                 Strings.of(a.request for a in accesses), Strings.of(a.referrer for a in accesses)))


def content_line(post):
    return "\t".join((post.hashed_ip, format_iso_ts(post.upload_ts), post.user_id, post.url,
                      post.title, post.blog_name, post.body, ",".join(post.themes)))


def access_line(rec):
    referrer = rec.referrer if rec.referrer else "-"
    return (f'{rec.hashed_ip} - - [{format_apache_ts(rec.access_ts)}] '
            f'"GET {rec.request} HTTP/1.1" 200 0 "{referrer}" "-"')


def row_line(row):
    """A row as a line of an artifact."""
    # numpy 2 scalars repr as "np.float64(...)": convert floats to float first.
    return "\t".join([
        v if type(v) is str else repr(float(v)) if isinstance(v, (float, np.floating)) else str(v)
        for v in row
    ]) + "\n"


def write_per_row(path, header, blocks):
    """``artifacts._write`` of (title, rows) blocks, a ``row_line`` per row:
    the row writer that the column writer replaced."""
    try:
        with artifacts._replacing(path) as tmp, open(tmp, "w", encoding="utf-8") as fh:
            if header:
                fh.write(header + "\n")
            for title, rows in blocks:
                if title:
                    fh.write(title + "\n")
                lines = map(row_line, rows)
                while chunk := "".join(islice(lines, artifacts._CHUNK)):
                    fh.write(artifacts._readable(path, chunk))
    except FormatError:
        Path(path).unlink(missing_ok=True)
        raise


def parse_content_per_record(stream):
    """The posts of a posts TSV as records, every well-formed line's, and the report."""
    posts = []
    report = ParseReport()
    try:
        for raw in stream:
            line = raw.rstrip("\n").rstrip("\r")
            if not line or line.startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) != 8:
                report.n_skipped += 1
                continue
            ip, ts_text, user_id, url, title, blog_name, body, themes = fields
            try:
                ts = parse_iso_ts(ts_text)
            except ValueError:
                report.n_skipped += 1
                continue
            url = normalize_url(url)
            if not user_id or not url:
                report.n_skipped += 1
                continue
            posts.append(BlogPost(ip, ts, user_id, url, title, blog_name, body,
                                  tuple(t for t in themes.split(",") if t)))
            report.n_ok += 1
    except (OSError, UnicodeDecodeError) as exc:
        raise IngestError(f"cannot read content stream: {exc}") from exc
    if report.n_skipped > report.n_ok:
        raise FormatError(f"{report.n_skipped} of {report.n_ok + report.n_skipped} lines "
                          "malformed; not a posts TSV?")
    return posts, report


def parse_access_per_record(stream):
    """The GET accesses of a combined log as records, and the report."""
    records = []
    report = ParseReport()
    malformed = 0
    try:
        for raw in stream:
            line = raw.rstrip("\n").rstrip("\r")
            if not line or line.startswith("#"):
                continue
            m = _APACHE_LINE_RE.match(line)
            if m is None:
                report.n_skipped += 1
                malformed += 1
                continue
            host, _ident, _user, ts_text, request, _status, _size, referrer, _agent = m.groups()
            try:
                ts = parse_apache_ts(ts_text)
            except ValueError:
                report.n_skipped += 1
                malformed += 1
                continue
            parts = request.split(" ")
            if len(parts) != 3 or parts[0] != "GET":
                report.n_skipped += 1
                continue
            records.append(AccessRecord(host, ts, normalize_url(parts[1]),
                                        "" if referrer == "-" else referrer))
            report.n_ok += 1
    except (OSError, UnicodeDecodeError) as exc:
        raise IngestError(f"cannot read access log stream: {exc}") from exc
    if malformed > report.n_ok:
        raise FormatError(f"{malformed} of {report.n_ok + report.n_skipped} lines malformed; "
                          "not an Apache combined log?")
    return records, report


def make_post(user, serial, ts, body="alpha beta gamma", ip=None, themes=("diary",)):
    return BlogPost(
        hashed_ip=ip if ip is not None else f"ip-{user}",
        upload_ts=ts,
        user_id=user,
        url=f"/{user}/p{serial}",
        title=f"post {serial}",
        blog_name=f"blog-{user}",
        body=body,
        themes=tuple(themes),
    )


def make_access(ip, ts, request, referrer=""):
    return AccessRecord(hashed_ip=ip, access_ts=ts, request=request, referrer=referrer)


def make_posts(posts):
    """The ``Posts`` table of records, the first post of each URL."""
    return make_corpus(posts, []).posts


def make_activity(posts, accesses=()):
    corpus = make_corpus(posts, accesses)
    return activity_of(corpus.posts, corpus.accesses)


# --------------------------------------------------------------------------
# The per-record cleaner and the corpus-to-rows coding that the masks of
# ``corpus.clean_accesses`` replaced, kept as the oracle they are checked
# against.

def ip_to_bloggers(posts):
    """Each hashed IP -> every user id that uploaded from it."""
    owners = {}
    for post in posts:
        owners.setdefault(post.hashed_ip, set()).add(post.user_id)
    return {ip: frozenset(users) for ip, users in owners.items()}


def url_to_post(posts):
    """Each post URL -> its index in ``posts``."""
    return {post.url: i for i, post in enumerate(posts)}


def coded(*columns):
    """The distinct names of ``columns``, ascending, and each column as indices among them."""
    names = sorted(set().union(*columns))
    code = {name: i for i, name in enumerate(names)}
    return names, [np.fromiter(map(code.__getitem__, c), np.int64, len(c)) for c in columns]


def activity_of(posts, accesses):
    """The rows of posts (one per url) and accesses, as records or rows,
    less the accesses to urls that name no post."""
    posts = sorted(posts, key=lambda post: post.url)
    urls = [post.url for post in posts]
    post_of = {url: i for i, url in enumerate(urls)}
    accesses = [a for a in accesses if a.request in post_of]
    bloggers, (author,) = coded([post.user_id for post in posts])
    ips, (ip, access_ip) = coded([post.hashed_ip for post in posts],
                                 [a.hashed_ip for a in accesses])
    themes, (theme,) = coded([theme for post in posts for theme in post.themes])
    upload, target, read_at = (np.array(values, dtype=np.int64) for values in (
        [post.upload_ts for post in posts], [post_of[a.request] for a in accesses],
        [a.access_ts for a in accesses]))
    post = np.repeat(np.arange(len(posts)), [len(post.themes) for post in posts])
    return Activity(urls, bloggers, ips, themes, np.column_stack([author, upload, ip]),
                    np.column_stack([post, theme]), np.column_stack([target, access_ip, read_at]))


def clean_per_record(corpus, window_hours):
    """The accesses of ``corpus`` that survive the cleaning rules, applied in
    order one row at a time, and the count per rule."""
    posts = list(corpus.posts)
    owners, post_of = ip_to_bloggers(posts), url_to_post(posts)
    report = CleaningReport()
    user_post_ts = {}
    for post in posts:
        user_post_ts.setdefault(post.user_id, []).append(post.upload_ts)
    for times in user_post_ts.values():
        times.sort()
    window = window_hours * 3600
    patterns = ("rss", "feed", "bot", "crawler", "spider")

    survivors = list(corpus.accesses)
    kept = [a for a in survivors if a.hashed_ip in owners]
    report.non_blogger_ip = len(survivors) - len(kept)
    survivors = kept
    kept = [a for a in survivors
            if not a.referrer or not any(p in a.referrer.lower() for p in patterns)]
    report.robot_referrer = len(survivors) - len(kept)
    survivors = kept
    kept = [a for a in survivors if not a.request.endswith("index.html")]
    report.index_html = len(survivors) - len(kept)
    survivors = kept
    kept = [a for a in survivors if a.request in post_of]
    report.unknown_url = len(survivors) - len(kept)
    survivors = kept
    kept = []
    for a in survivors:
        if posts[post_of[a.request]].user_id in owners[a.hashed_ip]:
            report.self_access += 1
        else:
            kept.append(a)
    survivors = kept
    kept = []
    for a in survivors:
        if any(bisect_right(times, a.access_ts + window) > bisect_left(times, a.access_ts - window)
               for times in (user_post_ts[reader] for reader in owners[a.hashed_ip])):
            kept.append(a)
        else:
            report.outside_window += 1
    return kept, report


def assert_same_activity(got, want):
    for name in ("urls", "bloggers", "ips", "themes"):
        assert getattr(got, name) == getattr(want, name), name
    for name in ("posts", "post_themes", "accesses"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype == np.int64 and a.shape == b.shape, name
        assert (a == b).all(), name


def links_table(rows):
    """The ``Links`` table of ``(q, p, reader, author, gap[, similarity])``
    rows; a similarity that is missing or None is NaN."""
    rows = list(rows)
    names = Strings.of(row[i] for i in range(4) for row in rows)
    table = Links.from_columns(*(Strings(names.names, codes) for codes in
                                 np.split(names.codes, 4)),
                               np.array([row[4] for row in rows], np.int64))
    table.similarity = np.array(
        [np.nan if len(row) < 6 or row[5] is None else row[5] for row in rows], dtype=float)
    return table


# --------------------------------------------------------------------------
# The coin series as objects, which ``blogfluence.causality`` computes only
# as the coin arrays of ``_coin_faces``; the tests build and pool them
# through the same kernel and statistic as the two z-tests.

@dataclass
class CoinSeries:
    anchor: str
    coins: list[tuple[int, bool]]  # (hour bucket starting at 1, is_head)
    median_sim: float


def coin_series(links, code, anchors, rng):
    """The coin series of ``causality._coin_faces`` as objects; ``code``
    gives each link's index in the ascending ``anchors``."""
    code, bucket, heads, bounds, med = causality._coin_faces(links, code, rng)
    buckets, faces = bucket.tolist(), heads.tolist()
    return [
        CoinSeries(anchors[c], list(zip(buckets[lo:hi], faces[lo:hi])), m)
        for c, lo, hi, m in zip(
            code[bounds[:-1]].tolist(), bounds[:-1].tolist(), bounds[1:].tolist(), med.tolist()
        )
    ]


def make_coins(anchor, links, rng):
    """One anchor's links as coins; None if fewer than two carry a similarity."""
    series = coin_series(links, np.zeros(len(links), dtype=np.int64), [anchor], rng)
    return series[0] if series else None


def build_coin_series(net, rng, anchor_side="q"):
    """A coin series per anchor post, anchors ascending, each as
    ``make_coins`` would give it: "q" for the forward test, "p" for the
    reversed one.  Returns (series, anchors skipped for having fewer than
    two links with a similarity)."""
    if anchor_side not in ("q", "p"):
        raise ValueError("anchor_side must be 'q' or 'p'")
    links = net.links
    code = links.q if anchor_side == "q" else links.p
    series = coin_series(links, code, links.urls, rng)
    return series, distinct(code).size - len(series)


def z_test(series, window_hours=12, min_bucket_n=causality.DEFAULT_MIN_BUCKET_N,
           n_skipped_anchors=0):
    """Pool the coins of ``series`` per bucket and z-test each bucket, as
    ``causality._z_report`` does for the two z-tests."""
    series = list(series)
    coins = np.array([coin for s in series for coin in s.coins], dtype=np.int64).reshape(-1, 2)
    return causality._z_report(coins[:, 0], coins[:, 1] == 1, window_hours, min_bucket_n,
                               len(series), n_skipped_anchors)


# --------------------------------------------------------------------------
# The per-post dict vectors the model stages used before they read the
# post-term columns, kept as the oracle the columns are checked against.

@dataclass
class TermVector:
    """Sparse raw term-frequency vector over vocabulary indices."""

    entries: dict[int, int]
    token_count: int  # sum of kept (in-vocabulary) token counts


@dataclass
class Vocabulary:
    """A capped vocabulary's terms and their document frequencies."""

    terms: list[str]
    doc_freq: list[int]

    def __len__(self) -> int:
        return len(self.terms)


@dataclass
class VectorSpace:
    vocab: Vocabulary
    vectors: dict[str, TermVector]  # post url -> term vector, in url order
    authors: dict[str, str]  # post url -> author


def shared_terms(u, v):
    """Sorted vocabulary indices present in both vectors."""
    if len(u.entries) > len(v.entries):
        u, v = v, u
    return sorted(i for i in u.entries if i in v.entries)


def space(terms, max_size):
    """Each post's counts of the ``max_size``-term vocabulary's terms, capped
    by a mask of its own, not by ``PostTerms.capped``."""
    entries = [{} for _ in terms.posts]
    for d, t, c in terms.entries[terms.entries[:, 1] < max_size].tolist():
        entries[d][t] = c
    vectors = {url: TermVector(e, sum(e.values())) for (url, _), e in zip(terms.posts, entries)}
    kept = terms.terms[:max_size]
    vocab = Vocabulary([t for t, _ in kept], [df for _, df in kept])
    return VectorSpace(vocab, vectors, dict(terms.posts))


def post_terms(vectors, n_terms, authors=None):
    """Post terms whose space over ``n_terms`` terms holds ``vectors``: the
    vector index of a term is its rank.  A post's author is ``authors[url]``,
    or "a"."""
    urls = sorted(vectors)
    entries = [(d, t, c) for d, url in enumerate(urls) for t, c in vectors[url].entries.items()]
    return PostTerms([(f"t{i}", 1) for i in range(n_terms)],
                     [(url, (authors or {}).get(url, "a")) for url in urls],
                     np.array(entries, dtype=np.int64).reshape(-1, 3))


def doc_term(docs, n_terms):
    """The document-term matrix of the vectors ``docs`` over ``n_terms`` terms."""
    return build_doc_term(post_terms(docs, n_terms), docs)


def tensor_entries(tensor):
    """An influence tensor's nonzeros as {(i, j, k): count}."""
    return {
        (int(i), int(j), int(k)): int(c)
        for i, j, k, c in zip(tensor.influenced, tensor.influencer, tensor.term, tensor.counts)
    }


def topic_model_of(z):
    """A topic model over the terms "w0", "w1", ... whose topics are the
    columns of the column-stochastic (v, K) ``z``: the keyword factor that
    ``fit_iolap`` takes from it."""
    n_terms, n_topics = z.shape
    return TopicModel(
        n_topics=n_topics, p_w_given_t=z.T, p_t=np.full(n_topics, 1.0 / n_topics),
        p_t_given_d=np.zeros((0, n_topics)), loglik_trace=[],
        terms=[f"w{i}" for i in range(n_terms)], doc_ids=[],
    )


def random_topics(seed, n_terms, n_topics):
    """``topic_model_of`` seeded Dirichlet(1) topics."""
    return topic_model_of(np.random.default_rng(seed).dirichlet(np.ones(n_terms), n_topics).T)


# The link model's objective and pcldc's gradient at one point: the fits
# compute both inside their steps; c08 and the factor tests check them here.

def conditional_link_objective(graph, y, bpop):
    """Weighted log-likelihood of observed links under the mixture model.

    Each edge (i -> j) contributes s_ij log sum_k y_ik y_jk b_j / D_ik,
    where D_ik normalizes over i's out-neighborhood.
    """
    return _link_state(graph, y, bpop).objective


def pcldc_objective(graph, content, weights, bpop):
    """Link objective with memberships tied to content via softmax."""
    return _link_state(graph, _softmax_rows(content @ weights), bpop).objective


def pcldc_content_gradient(graph, content, weights, bpop):
    """Exact gradient of ``pcldc_objective`` with respect to the weights.

    The membership gradient has three parts: posterior mass of the node
    as link source, as link target, and (negatively) its appearances in
    other nodes' out-neighborhood normalizers; it is then pushed through
    the softmax Jacobian and the content rows.
    """
    state = _link_state(graph, _softmax_rows(content @ weights), bpop)
    return _content_gradient(graph, content, state)


@pytest.fixture
def hour():
    return 3600


# --------------------------------------------------------------------------
# The per-post term counter that ``textvec.count_terms`` replaced: it
# tokenizes every body whole, and is kept as the oracle the interned-word
# counter is checked against.

def count_terms_per_post(posts):
    """Each post's ``Counter`` of its tokens, ranked and laid out as
    ``textvec.count_terms`` lays them out."""
    by_url = {post.url: post for post in posts}
    urls = sorted(by_url)
    counts = [Counter(tokenize(by_url[url].body)) for url in urls]
    ranked = sorted(Counter(chain.from_iterable(counts)).items(), key=lambda kv: (-kv[1], kv[0]))
    rank = {t: i for i, (t, _) in enumerate(ranked)}
    sizes = [len(c) for c in counts]
    return PostTerms(ranked, [(url, by_url[url].user_id) for url in urls], np.column_stack([
        np.repeat(np.arange(len(urls), dtype=np.int64), sizes),
        np.fromiter(map(rank.__getitem__, chain.from_iterable(counts)), np.int64, sum(sizes)),
        np.fromiter(chain.from_iterable(c.values() for c in counts), np.int64, sum(sizes)),
    ]))


# --------------------------------------------------------------------------
# The per-record synthetic generator that ``synth.generate`` replaced: it
# draws the same law from a different random stream, and is kept as the
# oracle the array generator's summaries are checked against.

@dataclass
class _Post:
    blogger: int
    url: str
    ts: int
    topic: int
    tokens: np.ndarray


def generate_per_record(cfg: SynthConfig) -> tuple[Corpus, GroundTruth]:
    """The per-record generator: scalar draws per post and per read, with
    the retries drawn one at a time."""
    rng = np.random.default_rng(cfg.seed)
    terms = [f"w{i:04d}" for i in range(cfg.vocab_size)]
    topic_word = _topic_word_dists(rng, cfg)
    blogger_ids = [f"u{b:04d}" for b in range(cfg.n_bloggers)]

    # The first n_groups * n_topics * experts_per_group_topic bloggers
    # become experts, laid out as (group, topic, slot); everyone else is an
    # ordinary member.
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
    corpus = make_corpus(blog_posts, accesses)

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
