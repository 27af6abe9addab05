import functools
import math
import tracemalloc
from bisect import bisect_left, bisect_right
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blogfluence.corpus import access_lines, content_lines, parse_access_log, parse_content_file
from blogfluence.pipeline import run_detection
from blogfluence.synth import SynthConfig, SynthesisError, _bodies, _topic_word_dists, generate

from conftest import access_line, content_line, generate_per_record
from test_detection_identity import SYNTH_CONFIGS


def _eligible_reads(corpus, max_gap_seconds):
    """For each post q, the read targets its author clicked within the copy
    window before writing q (recomputed directly from the emitted records)."""
    by_ip = {}
    for a in corpus.accesses:
        by_ip.setdefault(a.hashed_ip, []).append(a)
    eligible = {}
    for post in corpus.posts:
        hits = set()
        for a in by_ip.get(post.hashed_ip, ()):
            gap = post.upload_ts - a.access_ts
            if 0 < gap <= max_gap_seconds:
                hits.add(a.request)
        eligible[post.url] = hits
    return eligible


class TestGroundTruth:
    def test_zero_copy_probability_means_no_pairs(self):
        _, truth = generate(SynthConfig(n_bloggers=40, n_days=6, copy_prob=0.0, seed=0))
        assert truth.influence_pairs == set()

    def test_full_copy_probability_pairs_every_eligible_post(self):
        cfg = SynthConfig(n_bloggers=40, n_days=8, copy_prob=1.0, seed=1)
        corpus, truth = generate(cfg)
        eligible = _eligible_reads(corpus, cfg.copy_gap_max_hours * 3600)
        with_pair = {q for q, _ in truth.influence_pairs}
        for post in corpus.posts:
            if eligible[post.url]:
                assert post.url in with_pair

    def test_pairs_within_copy_gap(self):
        cfg = SynthConfig(n_bloggers=50, n_days=8, copy_prob=0.5, seed=2)
        corpus, truth = generate(cfg)
        assert truth.influence_pairs
        eligible = _eligible_reads(corpus, cfg.copy_gap_max_hours * 3600)
        for q, p in truth.influence_pairs:
            assert p in eligible[q]


class TestEmittedFiles:
    def test_round_trip_with_zero_skips(self):
        corpus, _ = generate(SynthConfig(n_bloggers=30, n_days=5, copy_prob=0.3, seed=3))
        # The column writers write the per-record writers' lines.
        assert list(content_lines(corpus.posts)) == [content_line(p) for p in corpus.posts]
        assert list(access_lines(corpus.accesses)) == [access_line(a) for a in corpus.accesses]
        posts, p_report = parse_content_file(content_lines(corpus.posts))
        accesses, a_report = parse_access_log(access_lines(corpus.accesses))
        assert p_report.n_skipped == 0 and a_report.n_skipped == 0
        assert list(posts) == list(corpus.posts)
        assert list(accesses) == list(corpus.accesses)

    def test_post_urls_unique(self):
        corpus, _ = generate(SynthConfig(n_bloggers=30, n_days=5, seed=4))
        urls = [p.url for p in corpus.posts]
        assert len(urls) == len(set(urls))


class TestStructure:
    def test_zero_posts_config_rejected(self):
        with pytest.raises(SynthesisError):
            generate(SynthConfig(n_bloggers=3, n_days=2, posts_per_blogger_rate=0.0, seed=5))

    def test_any_finite_confounder_strength_draws_reads(self):
        # exp(1e6 * similarity) overflows; the weights are scaled per row.
        corpus, _ = generate(SynthConfig(n_bloggers=20, n_days=4, confounder_strength=1e6, seed=8))
        _, _, reader, _, target = _columns(corpus)
        authors = [int(p.user_id[1:]) for p in corpus.posts]
        assert reader.size
        assert all(authors[t] != r for r, t in zip(reader.tolist(), target.tolist()))

    def test_expert_map_populated(self):
        cfg = SynthConfig(
            n_bloggers=40, n_days=6, n_topics=2, n_groups=2,
            experts_per_group_topic=4, seed=6,
        )
        _, truth = generate(cfg)
        assert truth.member_expert_map
        for member, per_topic in truth.member_expert_map.items():
            assert set(per_topic) == {0, 1}
            for experts in per_topic.values():
                assert len(experts) == 4
                assert member not in experts

    def test_more_expert_reads_than_experts_refused(self):
        """A member cannot read more of its slot's experts than the slot plants;
        without experts the read count is unused, so the default passes."""
        with pytest.raises(SynthesisError, match=r"^experts_read_per_member \(3\) exceeds "
                                                 r"experts_per_group_topic \(2\)"):
            SynthConfig(n_bloggers=40, experts_per_group_topic=2, experts_read_per_member=3)
        SynthConfig(n_bloggers=40, experts_per_group_topic=2, experts_read_per_member=2)
        assert SynthConfig().experts_per_group_topic == 0 < SynthConfig().experts_read_per_member

    def test_determinism(self):
        cfg = SynthConfig(n_bloggers=25, n_days=5, copy_prob=0.4, seed=7)
        c1, t1 = generate(cfg)
        c2, t2 = generate(cfg)
        assert list(c1.posts) == list(c2.posts)
        assert list(c1.accesses) == list(c2.accesses)
        assert t1.influence_pairs == t2.influence_pairs


def test_detection_strength_increases_with_copy_rate():
    """Mean hour-1 z over 10 seeds must not decrease when the copy rate rises."""
    means = []
    for rho in (0.0, 0.3):
        zs = []
        for seed in range(10):
            cfg = SynthConfig(
                n_bloggers=60, n_days=8, copy_prob=rho, copy_fraction=0.45,
                reads_per_post_rate=4.0, vocab_size=160, seed=seed,
            )
            corpus, _ = generate(cfg)
            res = run_detection(corpus, vocab_max_size=160, seed=seed)
            zs.append(res.forward_report.buckets[0].z)
        means.append(float(np.mean(zs)))
    assert means[1] >= means[0]


# --------------------------------------------------------------------------
# The array generator against the per-record one it replaced: the same law
# from a different stream, so summaries of their output agree within
# standard errors at fixed seeds, and exact invariants hold.

LAW_SEEDS = {"detect_planted": 3, "experts": 24, "default": 12}  # runs per config
Z_TOLERANCE = 4.0  # standard errors of the difference


def _expert_count(cfg):
    return cfg.n_groups * cfg.n_topics * cfg.experts_per_group_topic


def _author_weights(cfg):
    """The reader -> author weights of ``cfg``, replayed from the draws that
    open both generators' streams: topic-word rows, then mixtures."""
    rng = np.random.default_rng(cfg.seed)
    _topic_word_dists(rng, cfg)
    mixtures = rng.dirichlet(np.ones(cfg.n_topics), size=cfg.n_bloggers)
    n_slots = _expert_count(cfg)
    for e in range(n_slots):
        mixtures[e] = 0.1 / max(cfg.n_topics - 1, 1)
        mixtures[e, e // cfg.experts_per_group_topic % cfg.n_topics] = 0.9
    norms = np.linalg.norm(mixtures, axis=1, keepdims=True)
    weights = np.exp(cfg.confounder_strength * (mixtures @ mixtures.T) / (norms * norms.T))
    np.fill_diagonal(weights, 0.0)
    return weights


def _columns(corpus):
    """Post (blogger, ts) and access (reader, ts, target post) columns."""
    post_of = {url: i for i, url in enumerate(corpus.posts.url)}
    author = np.array([int(p.user_id[1:]) for p in corpus.posts], dtype=np.int64)
    upload = np.array([p.upload_ts for p in corpus.posts], dtype=np.int64)
    reader = np.array([int(a.hashed_ip[2:]) for a in corpus.accesses], dtype=np.int64)
    read_ts = np.array([a.access_ts for a in corpus.accesses], dtype=np.int64)
    target = np.array([post_of[a.request] for a in corpus.accesses], dtype=np.int64)
    return author, upload, reader, read_ts, target


def _next_own_gap(author, upload, reader, read_ts, min_gap=60):
    """Seconds from each read to its reader's first upload at least
    ``min_gap`` later (-1 when there is none)."""
    span = int(max(upload.max(), read_ts.max()) - min(upload.min(), read_ts.min())) + min_gap + 1
    base = int(min(upload.min(), read_ts.min()))
    order = np.lexsort((upload, author))
    keys = author[order] * span + (upload[order] - base)
    at = keys.searchsorted(reader * span + (read_ts + min_gap - base))
    found = at < keys.size
    found[found] &= author[order][at[found]] == reader[found]
    return np.where(found, upload[order][np.minimum(at, keys.size - 1)] - read_ts, -1)


def _summary(cfg, corpus, truth):
    author, upload, reader, read_ts, target = _columns(corpus)
    window = cfg.read_window_hours * 3600
    reading = author >= _expert_count(cfg)
    first_open = upload.min() + window  # a post's window opens after the first upload
    counts = np.zeros((cfg.n_bloggers, cfg.n_bloggers))
    np.add.at(counts, (reader, author[target]), 1)
    off = ~np.eye(cfg.n_bloggers, dtype=bool)
    return {
        "posts_per_blogger": np.bincount(author, minlength=cfg.n_bloggers),
        "hour": np.bincount((upload + cfg.tz_offset_hours * 3600) // 3600 % 24, minlength=24),
        "reading_posts": int(reading.sum()),
        "late_reading_posts": int((reading & (upload > first_open)).sum()),
        "reads": reader.size,
        "gap": np.bincount((_next_own_gap(author, upload, reader, read_ts) - 1) // 3600,
                           minlength=cfg.read_window_hours),
        "pairs": len(truth.influence_pairs),
        "expert_reads": int((author[target] < _expert_count(cfg)).sum()),
        "read_counts": counts[off],
        "weights": _author_weights(cfg)[off],
    }


@functools.cache
def _pooled(generator, name):
    base = SYNTH_CONFIGS[name]
    runs = [_summary(cfg, *generator(cfg)) for cfg in
            (replace(base, seed=base.seed + i) for i in range(LAW_SEEDS[name]))]
    pooled = {key: sum(run[key] for run in runs) for key in runs[0] if key not in
              ("posts_per_blogger", "read_counts", "weights")}
    for key in ("posts_per_blogger", "read_counts", "weights"):
        pooled[key] = np.concatenate([run[key] for run in runs])
    return pooled


def _law_mismatches(a, b, rate):
    """Summaries of ``a`` and ``b`` whose difference exceeds Z_TOLERANCE
    standard errors, as messages."""
    out = []

    def compare(what, x, y, se_x, se_y):
        if abs(x - y) > Z_TOLERANCE * math.hypot(se_x, se_y):
            out.append(f"{what}: {x:.5g} vs {y:.5g} (se {se_x:.2g}, {se_y:.2g})")

    def share(what, hits_x, n_x, hits_y, n_y):
        """Binomial shares, with the standard error of the pooled share."""
        p = (hits_x + hits_y) / (n_x + n_y)
        compare(what, hits_x / n_x, hits_y / n_y, math.sqrt(p * (1 - p) / n_x),
                math.sqrt(p * (1 - p) / n_y))

    def histogram(what, x, y):
        for i in range(len(x)):
            share(f"{what}[{i}]", x[i], x.sum(), y[i], y.sum())

    s, t = a["posts_per_blogger"], b["posts_per_blogger"]
    compare("posts per blogger", s.mean(), t.mean(), s.std() / math.sqrt(s.size),
            t.std() / math.sqrt(t.size))
    histogram("hour-of-day share", a["hour"], b["hour"])
    # Kept reads per post are near Poisson counts: standard error
    # sqrt(reads) / posts.  Every read of a post whose window opens before
    # the first upload is dropped, so the kept reads belong to the later posts.
    compare("reads per late post", a["reads"] / a["late_reading_posts"],
            b["reads"] / b["late_reading_posts"], math.sqrt(a["reads"]) / a["late_reading_posts"],
            math.sqrt(b["reads"]) / b["late_reading_posts"])
    # The output keeps no dropped read: the share is 1 - kept / (rate * posts).
    compare("dropped share", 1 - a["reads"] / (rate * a["reading_posts"]),
            1 - b["reads"] / (rate * b["reading_posts"]),
            math.sqrt(a["reads"]) / (rate * a["reading_posts"]),
            math.sqrt(b["reads"]) / (rate * b["reading_posts"]))
    histogram("next-own-upload gap share, by hour", a["gap"], b["gap"])
    share("copy pairs per post", a["pairs"], a["reading_posts"], b["pairs"], b["reading_posts"])
    if a["expert_reads"] or b["expert_reads"]:
        share("expert-read share", a["expert_reads"], a["reads"], b["expert_reads"], b["reads"])
    # Fisher z of the Pearson correlation of read counts with author weights
    # over the (reader, author) cells; its standard error is 1 / sqrt(n - 3).
    z = [np.arctanh(np.corrcoef(s["read_counts"], s["weights"])[0, 1]) for s in (a, b)]
    n = a["weights"].size
    compare("Fisher z of corr(read counts, author weights)", z[0], z[1],
            1 / math.sqrt(n - 3), 1 / math.sqrt(n - 3))
    return out


@pytest.mark.parametrize("name", sorted(LAW_SEEDS))
def test_array_generator_draws_the_per_record_law(name):
    cfg = SYNTH_CONFIGS[name]
    new, old = _pooled(generate, name), _pooled(generate_per_record, name)
    assert not _law_mismatches(new, old, cfg.reads_per_post_rate)
    if cfg.experts_per_group_topic:
        assert new["expert_reads"] > 0.5 * new["reads"]
    if cfg.copy_prob:
        assert new["pairs"] > 0


def test_law_comparison_sees_a_changed_law():
    """The comparison fails on a generator with a different read rate."""
    name = "default"
    old = _pooled(generate_per_record, name)
    faster = _pooled(lambda cfg: generate(replace(cfg, reads_per_post_rate=4.4)), name)
    mismatches = _law_mismatches(faster, old, SYNTH_CONFIGS[name].reads_per_post_rate)
    assert any(m.startswith("reads per late post") for m in mismatches)


# SYNTH_CONFIGS, and a few bloggers who read mostly their one most similar
# author, so that many reads take the uniform fallback.
INVARIANT_CONFIGS = dict(SYNTH_CONFIGS, fallback=SynthConfig(
    n_bloggers=12, n_days=4, confounder_strength=30.0, reads_per_post_rate=6.0, copy_prob=0.5,
    seed=21))


@pytest.fixture(scope="module")
def synth_runs():
    return {name: (cfg, *generate(cfg)) for name, cfg in INVARIANT_CONFIGS.items()}


@pytest.mark.parametrize("name", sorted(INVARIANT_CONFIGS))
def test_read_invariants(name, synth_runs):
    """No read targets its reader's own post, and every read has a post of
    its reader, 60 s to the window after it, whose window opens after the
    target's upload."""
    cfg, corpus, _ = synth_runs[name]
    author, upload, reader, read_ts, target = _columns(corpus)
    window = cfg.read_window_hours * 3600
    assert reader.size and (author[target] != reader).all()
    by_reader = {}
    for b, t in zip(author.tolist(), upload.tolist()):
        by_reader.setdefault(b, []).append(t)
    for r, a, p in zip(reader.tolist(), read_ts.tolist(), upload[target].tolist()):
        times = sorted(by_reader[r])
        reading = times[bisect_left(times, a + 60):bisect_right(times, a + window)]
        assert reading, (r, a)  # every gap is in [60, window]
        assert p < reading[-1] - window, (r, a, p)


@pytest.mark.parametrize("name", sorted(INVARIANT_CONFIGS))
def test_copy_sources_were_read_within_the_copy_gap(name, synth_runs):
    cfg, corpus, truth = synth_runs[name]
    eligible = _eligible_reads(corpus, cfg.copy_gap_max_hours * 3600)
    assert truth.influence_pairs or not cfg.copy_prob
    for q, p in truth.influence_pairs:
        assert p in eligible[q]


def test_experts_never_read(synth_runs):
    cfg, corpus, truth = synth_runs["experts"]
    experts = {f"ip{e:04d}" for e in range(_expert_count(cfg))}
    readers = {a.hashed_ip for a in corpus.accesses}
    assert readers and not readers & experts
    assert all(f"u{e:04d}" not in truth.member_expert_map for e in range(_expert_count(cfg)))


def test_generate_peak_memory_per_token():
    """Each post body is joined from its own row of the token array, not from
    one list of every token: under 68 traced bytes per token at the scale of
    the benchmark's pipeline workload (the list of lists took about 85)."""
    cfg = SynthConfig(n_bloggers=300, n_days=20, vocab_size=1000, n_topics=8,
                      reads_per_post_rate=5.0, copy_prob=0.6, copy_fraction=0.45, seed=1000)
    tracemalloc.start()
    try:
        corpus, _ = generate(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n_tokens = len(corpus.posts) * cfg.tokens_per_post
    assert peak < 68 * n_tokens, peak / n_tokens


def _joined_bodies(terms, tokens):
    """The per-row join that ``synth._bodies`` replaced, kept as its oracle."""
    return [" ".join(map(terms.__getitem__, row.tolist())) for row in tokens]


_TERMS = st.one_of(
    # synth's own terms; above 10,000 they mix widths of 5 and 6 characters
    st.sampled_from([1, 9, 240, 10_000, 10_001, 12_345]).map(
        lambda n: [f"w{i:04d}" for i in range(n)]),
    st.lists(st.text(st.characters(min_codepoint=33, max_codepoint=126), min_size=1, max_size=12),
             min_size=1, max_size=30),
)


@settings(max_examples=60, deadline=None)
@given(_TERMS, st.integers(0, 6),
       st.sampled_from([0, 1, 2, 1023, 1024, 1025, 2049]) | st.integers(0, 40),
       st.integers(0, 2**32 - 1))
@example([f"w{i:04d}" for i in range(12_345)], 0, 1025, 0)  # zero-token rows
@example([f"w{i:04d}" for i in range(12_345)], 40, 1024, 1)
def test_bodies_match_the_per_row_join(terms, n_tokens, n_rows, seed):
    tokens = np.random.default_rng(seed).integers(len(terms), size=(n_rows, n_tokens))
    assert _bodies(terms, tokens) == _joined_bodies(terms, tokens)
