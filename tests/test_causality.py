import math
from statistics import median

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blogfluence.causality import (
    _run_medians,
    annotate_similarity,
    extract_influence,
    rank_shift_report,
)
from blogfluence.implicit import read_links_tsv, summarize_links, write_links_tsv
from blogfluence.pipeline import run_detection
from blogfluence.synth import SynthConfig, generate

from conftest import (
    CoinSeries,
    TermVector,
    build_coin_series,
    links_table,
    make_activity,
    make_coins,
    make_corpus,
    post_terms,
    z_test,
)


def _links(entries):
    """entries: list of (p, gap_seconds, similarity) sharing one anchor q."""
    return links_table(("/a/q", f"/b/{p}", "a", "b", gap, sim) for p, gap, sim in entries)


class TestMakeCoins:
    def test_two_links(self):
        rng = np.random.default_rng(0)
        series = make_coins("/a/q", _links([("p1", 1800, 0.1), ("p2", 5400, 0.3)]), rng)
        assert series.median_sim == pytest.approx(0.2)
        assert sorted(series.coins) == [(1, False), (2, True)]

    def test_all_ties_random_but_balanced(self):
        heads_seen = set()
        for seed in range(40):
            rng = np.random.default_rng(seed)
            series = make_coins(
                "/a/q", _links([("p1", 100, 0.2), ("p2", 200, 0.2), ("p3", 300, 0.2)]), rng
            )
            heads = sum(f for _, f in series.coins)
            assert 0 <= heads <= 3
            tails = len(series.coins) - heads
            assert abs(heads - tails) <= 1
            heads_seen.add(heads)
        assert heads_seen == {1, 2}  # tie faces vary across seeds

    def test_odd_median_is_a_tie(self):
        faces_of_median = set()
        for seed in range(40):
            rng = np.random.default_rng(seed)
            series = make_coins(
                "/a/q",
                _links([("p1", 1800, 0.1), ("p2", 5400, 0.2), ("p3", 9000, 0.3)]),
                rng,
            )
            coins = dict(series.coins)  # gaps land in buckets 1, 2, 3
            assert coins[1] is False and coins[3] is True
            faces_of_median.add(coins[2])
        assert faces_of_median == {False, True}

    def test_skips_below_two_eligible(self):
        rng = np.random.default_rng(0)
        assert make_coins("/a/q", _links([("p1", 100, 0.5)]), rng) is None
        links = _links([("p1", 100, 0.5), ("p2", 200, None)])
        assert make_coins("/a/q", links, rng) is None

    @settings(max_examples=60, deadline=None)
    @given(
        sims=st.lists(
            st.floats(0.0, 1.0, allow_nan=False).map(lambda x: round(x, 2)),
            min_size=2,
            max_size=15,
        ),
        seed=st.integers(0, 1000),
    )
    def test_heads_tails_balance(self, sims, seed):
        rng = np.random.default_rng(seed)
        links = _links([(f"p{i}", 60 * (i + 1), s) for i, s in enumerate(sims)])
        series = make_coins("/a/q", links, rng)
        heads = sum(f for _, f in series.coins)
        assert abs(2 * heads - len(sims)) <= 1


class TestZTest:
    def test_half_heads_gives_zero(self):
        series = CoinSeries("q", [(1, True)] * 50 + [(1, False)] * 50, 0.5)
        report = z_test([series], min_bucket_n=30)
        assert report.buckets[0].z == pytest.approx(0.0)

    def test_arithmetic_example(self):
        coins = [(1, True)] * 5100 + [(1, False)] * 4900
        report = z_test([CoinSeries("q", coins, 0.5)], min_bucket_n=30)
        bucket = report.buckets[0]
        assert bucket.xbar == pytest.approx(0.51)
        assert bucket.sigma == pytest.approx(math.sqrt(0.51 * 0.49))
        assert bucket.z == pytest.approx(2.0004, abs=1e-3)

    def test_small_bucket_unavailable(self):
        series = CoinSeries("q", [(1, True)] * 10, 0.5)
        report = z_test([series], min_bucket_n=30)
        assert not report.buckets[0].available
        assert report.buckets[0].n == 10

    def test_total_heads_near_half(self):
        rng = np.random.default_rng(4)
        series = []
        n_ties = 0
        for i in range(200):
            sims = [round(float(rng.random()), 1) for _ in range(6)]
            links = _links([(f"p{j}", int(rng.integers(1, 43200)), s) for j, s in enumerate(sims)])
            s = make_coins(f"/a/q{i}", links, rng)
            med = s.median_sim
            n_ties += sum(1 for x in sims if x == med)
            series.append(s)
        report = z_test(series, min_bucket_n=30)
        total = sum(b.n for b in report.buckets if b.n)
        heads = sum(b.heads for b in report.buckets if b.n)
        assert abs(heads - total / 2) <= n_ties


def _planted_corpus(seed, rho, n_bloggers=90, n_days=10):
    cfg = SynthConfig(
        n_bloggers=n_bloggers,
        n_days=n_days,
        posts_per_blogger_rate=1.0,
        reads_per_post_rate=5.0,
        copy_prob=rho,
        copy_fraction=0.45,
        vocab_size=200,
        seed=seed,
    )
    return generate(cfg)


class TestOnSyntheticData:
    def test_planted_enriches_hour_one(self):
        corpus, _ = _planted_corpus(seed=1, rho=0.6)
        res = run_detection(corpus, vocab_max_size=200, seed=1)
        assert res.forward_report.buckets[0].z > 2.326

    def test_reversed_detects_planted(self):
        corpus, _ = _planted_corpus(seed=1, rho=0.6)
        res = run_detection(corpus, vocab_max_size=200, seed=1)
        assert res.reversed_report.buckets[0].z > 2.326

    def test_null_buckets_rarely_significant(self):
        exceed = total = 0
        for seed in range(12):
            corpus, _ = _planted_corpus(seed=seed, rho=0.0, n_bloggers=70, n_days=8)
            res = run_detection(corpus, vocab_max_size=200, seed=seed)
            for b in res.forward_report.available() + res.reversed_report.available():
                total += 1
                exceed += abs(b.z) > 2.576
        assert total > 0
        assert exceed / total <= 0.05

    def test_time_shuffle_restores_null(self):
        # shuffling access timestamps must erase the planted signal
        corpus, _ = _planted_corpus(seed=2, rho=0.5, n_bloggers=70, n_days=8)
        exceed = total = 0
        for shuffle_seed in range(20):
            rng = np.random.default_rng(shuffle_seed)
            times = np.array([a.access_ts for a in corpus.accesses])
            perm = rng.permutation(len(times))
            shuffled = [
                a._replace(access_ts=int(times[perm[i]])) for i, a in enumerate(corpus.accesses)
            ]
            null_corpus = make_corpus(corpus.posts, shuffled)
            res = run_detection(null_corpus, vocab_max_size=200, seed=shuffle_seed)
            for b in res.forward_report.available():
                total += 1
                exceed += abs(b.z) > 2.576
        assert total > 0
        assert exceed / total <= 0.05

    def test_reversed_skips_single_read(self):
        links = links_table([
            ("/a/q1", "/b/p1", "a", "b", 100, 0.4),
            ("/a/q1", "/b/p2", "a", "b", 200, 0.6),
        ])
        net = summarize_links(links, 12)
        rng = np.random.default_rng(0)
        series, skipped = build_coin_series(net, rng, anchor_side="p")
        assert series == [] and skipped == 2


class TestExtractInfluence:
    def _net(self, entries):
        return summarize_links(_links(entries), 12)

    def test_kept_and_dropped(self):
        net = self._net(
            [("p1", 3600, 0.9), ("p2", 3 * 3600, 0.8), ("p3", 7200, 0.1), ("p4", 400, 0.2)]
        )
        # median of {0.9, 0.8, 0.1, 0.2} is 0.5
        influence = extract_influence(net, tau_hours=2)
        kept = {(l.q, l.p) for l in influence.links}
        assert kept == {("/a/q", "/b/p1")}  # p2 fails time, p3/p4 fail content

    def test_tie_at_median_dropped(self):
        net = self._net([("p1", 3600, 0.5), ("p2", 3600, 0.5)])
        assert len(extract_influence(net, tau_hours=2).links) == 0

    def test_gap_boundary(self):
        net = self._net(
            [
                ("p1", 2 * 3600, 0.9),
                ("p2", 2 * 3600 + 1, 0.9),
                ("p3", 100, 0.1),
                ("p4", 200, 0.1),
            ]
        )
        # median 0.5: p1 passes both, p2 misses the gap bound by one second
        kept = {l.p for l in extract_influence(net, tau_hours=2).links}
        assert kept == {"/b/p1"}

    def test_subset_of_implicit(self):
        corpus, _ = _planted_corpus(seed=3, rho=0.4, n_bloggers=60, n_days=8)
        res = run_detection(corpus, vocab_max_size=200, seed=3)
        implicit_pairs = {(l.q, l.p) for l in res.implicit.links}
        for link in res.influence.links:
            assert (link.q, link.p) in implicit_pairs
            assert link.gap_seconds <= res.influence.window_hours * 3600

    def test_invariant_under_monotone_similarity_transform(self):
        rng = np.random.default_rng(8)
        links = _links(
            [(f"p{i}", int(rng.integers(1, 43200)), float(rng.random())) for i in range(30)]
        )
        net = summarize_links(links, 12)
        base = {(l.q, l.p) for l in extract_influence(net, 2).links}
        net.links.similarity = net.links.similarity**2  # monotone on [0, 1]
        transformed = {(l.q, l.p) for l in extract_influence(net, 2).links}
        assert base == transformed


class TestAnnotateSimilarity:
    def test_token_floor(self):
        links = links_table([("/a/q", "/b/p", "a", "b", 100)])
        net = summarize_links(links, 12)
        vectors = {
            "/a/q": TermVector({0: 12}, 12),
            "/b/p": TermVector({0: 9}, 9),
        }
        assert annotate_similarity(net.links, post_terms(vectors, 1), min_tokens=10) == 0
        [link] = net.links
        assert link.similarity is None
        vectors["/b/p"] = TermVector({0: 10}, 10)
        assert annotate_similarity(net.links, post_terms(vectors, 1), min_tokens=10) == 1
        [link] = net.links
        assert link.similarity == pytest.approx(1.0)

    def test_links_tsv_keeps_each_similarity_bit_for_bit(self, tmp_path):
        """A link to a post below ``min_tokens`` keeps NaN through links.tsv,
        and so does a cosine of equal counts that rounds past 1."""
        links = links_table([("/a/q", "/b/p", "a", "b", 100), ("/a/q", "/c/r", "a", "c", 200),
                             ("/a/q", "/d/s", "a", "d", 300)])
        vectors = {"/a/q": TermVector({0: 1, 1: 1, 2: 1}, 3),
                   "/b/p": TermVector({0: 1, 1: 1, 2: 1}, 3),
                   "/c/r": TermVector({0: 2}, 2),
                   "/d/s": TermVector({0: 2, 1: 1}, 3)}
        assert annotate_similarity(links, post_terms(vectors, 3), min_tokens=3) == 2
        assert links.similarity[0] > 1 and np.isnan(links.similarity[1])
        write_links_tsv(links, tmp_path / "l.tsv", "# h")
        again = read_links_tsv(tmp_path / "l.tsv", 12).links
        assert list(again) == list(links)
        assert again.similarity.tobytes() == links.similarity.tobytes()


class TestRankShift:
    def _posts(self):
        from conftest import BASE_TS, make_post

        posts = []
        for i in range(6):
            posts.append(make_post("ua", i, BASE_TS + i, themes=("travel",)))
        for i in range(4):
            posts.append(make_post("ub", i, BASE_TS + i, themes=("games",)))
        return posts

    def test_identical_networks_on_diagonal(self):
        posts = self._posts()
        links = links_table([("/ua/p0", "/ub/p0", "ua", "ub", 100, 0.9)])
        net = summarize_links(links, 12)
        influence = extract_influence(
            summarize_links(
                links_table([
                    ("/ua/p0", "/ub/p0", "ua", "ub", 100, 0.9),
                    ("/ua/p0", "/ub/p1", "ua", "ub", 200, 0.1),
                ]),
                12,
            ),
            2,
        )
        report = rank_shift_report(make_activity(posts), net, influence)
        bloggers = {r.item: (r.rank_base, r.rank_influence) for r in report.bloggers}
        assert bloggers["ub"] == (1, 1)

    def test_missing_theme_gets_sentinel(self):
        from conftest import BASE_TS, make_post

        posts = self._posts()
        posts += [make_post("uc", i, BASE_TS + i, themes=("cooking",)) for i in range(2)]
        links = links_table([("/ua/p0", "/ub/p0", "ua", "ub", 100, 0.9)])
        net = summarize_links(links, 12)
        influence = extract_influence(
            summarize_links(
                links_table([
                    ("/uc/p0", "/ua/p2", "uc", "ua", 100, 0.9),
                    ("/uc/p0", "/ua/p3", "uc", "ua", 200, 0.1),
                ]),
                12,
            ),
            2,
        )
        report = rank_shift_report(make_activity(posts), net, influence)
        themes = {r.item: r for r in report.themes}
        # influence posts carry only cooking and travel; games is absent
        assert themes["games"].rank_influence == 2 + 1

    def test_boosted_theme_promoted(self):
        # "games" is rare overall but dominates the influence network
        posts = self._posts()
        all_links = links_table([
            ("/ua/p0", "/ua/p1", "ua2", "ua", 100, 0.9),
            ("/ub/p0", "/ub/p1", "ub2", "ub", 100, 0.9),
        ])
        net = summarize_links(all_links, 12)
        influence = extract_influence(
            summarize_links(
                links_table([
                    ("/ub/p0", "/ub/p1", "ub2", "ub", 100, 0.9),
                    ("/ub/p0", "/ub/p2", "ub2", "ub", 200, 0.1),
                ]),
                12,
            ),
            2,
        )
        report = rank_shift_report(make_activity(posts), net, influence)
        themes = {r.item: r for r in report.themes}
        assert themes["games"].rank_influence < themes["games"].rank_base


def test_forward_and_reversed_share_coin_pool():
    corpus, _ = _planted_corpus(seed=5, rho=0.0, n_bloggers=50, n_days=7)
    res = run_detection(corpus, vocab_max_size=200, seed=5)
    fwd_total = sum(b.n for b in res.forward_report.buckets)
    rev_total = sum(b.n for b in res.reversed_report.buckets)
    eligible = sum(1 for l in res.implicit.links if l.similarity is not None)
    assert fwd_total <= eligible and rev_total <= eligible


_RUN_VALUES = st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0]) | st.floats(-1.0, 1.0)


@settings(max_examples=300, deadline=None)
@given(runs=st.lists(st.lists(_RUN_VALUES, min_size=1, max_size=9), max_size=12))
@example(runs=[[0.5]])
@example(runs=[[0.0, -0.0], [-0.0, 0.0], [-0.0, -0.0]])
@example(runs=[[0.0, -0.0, 0.0], [-0.0, 0.0, -0.0], [0.5, -0.0, 0.0, 0.5, -0.0]])
@example(runs=[[0.25, 0.25, 0.25, 0.5], [1.0], [0.5, 0.25, 0.5]])
def test_run_medians_are_statistics_median(runs):
    values = np.array([v for run in runs for v in run], dtype=np.float64)
    bounds = np.cumsum([0] + [len(run) for run in runs])
    got = _run_medians(bounds, values)
    assert list(map(repr, got.tolist())) == [repr(median(run)) for run in runs]
