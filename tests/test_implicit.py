import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from blogfluence.implicit import (
    blogger_projection,
    build_implicit_links,
    gap_histogram,
    summarize_links,
)

from conftest import BASE_TS, links_table, make_access, make_activity, make_post


def _two_blogger_activity(accesses):
    posts = [
        make_post("ua", 0, BASE_TS + 50 * 3600, ip="ha"),
        make_post("ub", 0, BASE_TS + 10 * 3600, ip="hb"),
    ]
    return make_activity(posts, accesses)


class TestBuildLinks:
    def test_basic_gap(self):
        # ua clicks /ub/p0 90 minutes before uploading /ua/p0
        activity = _two_blogger_activity(
            [make_access("ha", BASE_TS + 50 * 3600 - 5400, "/ub/p0")]
        )
        net = build_implicit_links(activity, 12)
        [link] = net.links
        assert (link.q, link.p) == ("/ua/p0", "/ub/p0")
        assert (link.reader, link.author) == ("ua", "ub")
        assert link.gap_seconds == 5400

    def test_gap_beyond_window_excluded(self):
        activity = _two_blogger_activity(
            [make_access("ha", BASE_TS + 50 * 3600 - 13 * 3600, "/ub/p0")]
        )
        assert len(build_implicit_links(activity, window_hours=12).links) == 0

    def test_gap_exactly_window_included(self):
        activity = _two_blogger_activity(
            [make_access("ha", BASE_TS + 50 * 3600 - 12 * 3600, "/ub/p0")]
        )
        [link] = build_implicit_links(activity, window_hours=12).links
        assert link.gap_seconds == 12 * 3600

    def test_own_post_click_excluded(self):
        activity = _two_blogger_activity(
            [make_access("ha", BASE_TS + 50 * 3600 - 3600, "/ua/p0")]
        )
        assert len(build_implicit_links(activity, 12).links) == 0

    def test_duplicate_clicks_keep_min_gap(self):
        activity = _two_blogger_activity(
            [
                make_access("ha", BASE_TS + 50 * 3600 - 7200, "/ub/p0"),
                make_access("ha", BASE_TS + 50 * 3600 - 1800, "/ub/p0"),
            ]
        )
        [link] = build_implicit_links(activity, 12).links
        assert link.gap_seconds == 1800


def _random_network(seed, n=200):
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n):
        reader = f"u{rng.integers(0, 8)}"
        author = f"v{rng.integers(0, 8)}"
        rows.append((
            f"/{reader}/q{i}",
            f"/{author}/p{rng.integers(0, 30)}",
            reader,
            author,
            int(rng.integers(1, 12 * 3600 + 1)),
        ))
    return summarize_links(links_table(rows), 12)


class TestGapHistogram:
    def test_half_hour_and_ninety_minutes(self):
        net = summarize_links(
            links_table([
                ("/a/q", "/b/p1", "a", "b", 1800),
                ("/a/q", "/b/p2", "a", "b", 5400),
            ]),
            12,
        )
        assert gap_histogram(net) == [1, 1] + [0] * 10

    def test_empty(self):
        assert gap_histogram(summarize_links(links_table([]), 12)) == [0] * 12

    def test_matches_brute_force(self):
        net = _random_network(3)
        hist = gap_histogram(net)
        for h in range(12):
            expected = sum(
                1 for l in net.links if h * 3600 < l.gap_seconds <= (h + 1) * 3600
            )
            assert hist[h] == expected
        assert sum(hist) == net.post_link_count

    def test_boundary_lands_in_lower_bucket(self):
        net = summarize_links(links_table([("/a/q", "/b/p", "a", "b", 3600)]), 12)
        assert gap_histogram(net)[0] == 1


class TestProjection:
    def test_aggregation(self):
        net = summarize_links(
            links_table([
                ("/a/q1", "/b/p1", "a", "b", 100),
                ("/a/q2", "/b/p2", "a", "b", 200),
            ]),
            12,
        )
        assert blogger_projection(net.links) == {("a", "b"): 2}

    def test_direction_preserved(self):
        net = summarize_links(
            links_table([
                ("/a/q", "/b/p", "a", "b", 100),
                ("/b/q", "/a/p", "b", "a", 100),
            ]),
            12,
        )
        proj = blogger_projection(net.links)
        assert proj == {("a", "b"): 1, ("b", "a"): 1}

    def test_matches_pair_enumeration(self):
        net = _random_network(9)
        proj = blogger_projection(net.links)
        for (a, b), w in proj.items():
            assert w == sum(1 for l in net.links if (l.reader, l.author) == (a, b))
        assert sum(proj.values()) == net.post_link_count
        assert all(a != b for a, b in proj)


@settings(max_examples=40, deadline=None)
@given(gaps=st.lists(st.integers(1, 12 * 3600), min_size=1, max_size=60))
def test_histogram_total_invariant(gaps):
    links = links_table((f"/a/q{i}", f"/b/p{i}", "a", "b", g) for i, g in enumerate(gaps))
    net = summarize_links(links, 12)
    assert sum(gap_histogram(net)) == net.post_link_count
