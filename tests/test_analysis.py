import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from blogfluence.analysis import (
    TrainTestSplit,
    _candidates,
    _rank_candidates,
    UnanswerableQuery,
    idr,
    idr_curve,
    read_split,
    recall_at_n,
    recall_curve,
    recommend_iolap,
    recommend_pcl,
    recommend_pcldc,
    recommend_tg,
    split_train_test,
    topic_posterior,
    write_split,
)
from blogfluence.factor import (
    BloggerGraph,
    InfluenceTensor,
    PcldcModel,
    build_influence_tensor,
    fit_iolap,
    fit_pcl,
    fit_pcldc,
    iolap_topic_influencers,
)
from blogfluence.implicit import ImplicitNetwork
from blogfluence.pipeline import PipelineConfig, blogger_graph, fit_topics, training_links
from blogfluence.topics import fit_plsa

from conftest import TOL, TermVector, doc_term, links_table, post_terms, random_topics


def _ranking(names):
    return [(name, 1.0 / (i + 1)) for i, name in enumerate(names)]


class TestIdr:
    def test_identical_lists_zero(self):
        rankings = [_ranking([f"b{i}" for i in range(10)])] * 5
        assert idr(rankings, 10) == 0.0

    def test_disjoint_lists_one(self):
        rankings = [
            _ranking([f"b{t}_{i}" for i in range(10)]) for t in range(5)
        ]
        assert idr(rankings, 10) == 1.0

    def test_half_point_arithmetic(self):
        # 50 topics, top-10 lists, 255 distinct bloggers in the union
        rankings = [_ranking([f"c{i}" for i in range(10)])]
        for t in range(1, 50):
            names = [f"c{i}" for i in range(5)] + [f"t{t}_{i}" for i in range(5)]
            rankings.append(_ranking(names))
        assert idr(rankings, 10) == pytest.approx(0.5)
        union = set()
        for r in rankings:
            union.update(b for b, _ in r[:10])
        assert len(union) == 255

    def test_errors(self):
        with pytest.raises(ValueError):
            idr([_ranking(["a"])], 1)  # single topic
        with pytest.raises(ValueError):
            idr([_ranking(["a"]), _ranking(["b"])], 2)  # list shorter than n

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.lists(
            st.lists(st.integers(0, 30), min_size=5, max_size=5, unique=True),
            min_size=2,
            max_size=6,
        ),
        n=st.integers(1, 5),
    )
    def test_bounds_and_relabel_invariance(self, data, n):
        rankings = [_ranking([f"b{i}" for i in row]) for row in data]
        value = idr(rankings, n)
        assert 0.0 <= value <= 1.0
        relabeled = [_ranking([f"x{i + 100}" for i in row]) for row in data]
        assert idr(relabeled, n) == value

    def test_curve_matches_pointwise(self):
        rankings = [
            _ranking([f"b{t}_{i}" for i in range(4)]) for t in range(3)
        ]
        assert idr_curve(rankings, 10) == [(n, idr(rankings, n)) for n in range(1, 5)]


def _influence_net(pairs):
    """pairs: list of (reader, author, q_suffix, p_suffix)."""
    links = links_table(
        (f"/{r}/q{qs}", f"/{a}/p{ps}", r, a, 600, 0.9) for r, a, qs, ps in pairs
    )
    posts = {l.q for l in links} | {l.p for l in links}
    bloggers = {l.reader for l in links} | {l.author for l in links}
    return ImplicitNetwork(
        links=links,
        window_hours=2,
        post_count=len(posts),
        blogger_count=len(bloggers),
        post_link_count=len(links),
        blogger_link_count=len({(l.reader, l.author) for l in links}),
    )


def _uniform_terms(net, n_terms=4):
    vectors = {}
    for link in net.links:
        vectors.setdefault(link.q, TermVector({0: 2, 1: 1}, 3))
        vectors.setdefault(link.p, TermVector({0: 1, 2: 1}, 2))
    return post_terms(vectors, n_terms)


class TestSplit:
    def _net(self):
        return _influence_net(
            [
                ("ua", "ub", 1, 1),
                ("ua", "uc", 2, 1),
                ("ub", "uc", 1, 2),
                ("ud", "ua", 1, 3),
            ]
        )

    def test_degree_two_moves_one_edge(self):
        net = self._net()
        split = split_train_test(net, _uniform_terms(net), seed=0)
        test_sources = [a for a, _, _ in split.test]
        assert test_sources == ["ua"]  # only ua has out-degree >= 2
        assert len(split.train_edges) == 3

    def test_single_out_edge_untouched(self):
        net = self._net()
        split = split_train_test(net, _uniform_terms(net), seed=0)
        assert ("ub", "uc") in split.train_edges
        assert ("ud", "ua") in split.train_edges

    def test_deterministic_for_seed(self):
        net = self._net()
        a = split_train_test(net, _uniform_terms(net), seed=42)
        b = split_train_test(net, _uniform_terms(net), seed=42)
        assert a.train_edges == b.train_edges and a.test == b.test

    def test_partition_of_edges(self):
        net = self._net()
        split = split_train_test(net, _uniform_terms(net), seed=1)
        all_edges = {(l.reader, l.author) for l in net.links}
        test_edges = {(a, b) for a, b, _ in split.test}
        assert set(split.train_edges) | test_edges == all_edges
        assert set(split.train_edges) & test_edges == set()
        for a, _, _ in split.test:
            assert any(src == a for src, _ in split.train_edges)

    @settings(max_examples=60, deadline=None)
    @given(
        pairs=st.lists(
            st.tuples(st.sampled_from("abcde"), st.sampled_from("abcde"),
                      st.integers(0, 3), st.integers(0, 3)),
            min_size=2, max_size=30,
        ),
        seed=st.integers(0, 5),
    )
    def test_every_test_source_is_a_training_blogger(self, pairs, seed):
        """A test source keeps a training out-edge, so the recommenders
        always know it: it is a training graph node and a tensor blogger."""
        net = _influence_net([(f"u{r}", f"u{a}", qs, ps) for r, a, qs, ps in pairs if r != a])
        terms = _uniform_terms(net)
        try:
            split = split_train_test(net, terms, seed=seed)
        except ValueError:
            assume(False)
        train = training_links(net.links, split)
        graph = blogger_graph(train)
        tensor = build_influence_tensor(train, terms)
        for a, _, _ in split.test:
            assert any(l.reader == a for l in train)
            assert a in graph.nodes and a in tensor.bloggers

    def test_keywords_union_of_shared_terms(self):
        net = _influence_net([("ua", "ub", 1, 1), ("ua", "uc", 2, 1)])
        vectors = {
            "/ua/q1": TermVector({0: 1, 1: 1}, 2),
            "/ub/p1": TermVector({1: 1, 2: 1}, 2),
            "/ua/q2": TermVector({0: 1, 3: 1}, 2),
            "/uc/p1": TermVector({3: 1}, 1),
        }
        split = split_train_test(net, post_terms(vectors, 4), seed=3)
        (a, b, kws) = split.test[0]
        expected = {"t1"} if b == "ub" else {"t3"}
        assert kws == frozenset(expected)

    def test_no_splittable_node_raises(self):
        net = _influence_net([("ua", "ub", 1, 1)])
        with pytest.raises(ValueError):
            split_train_test(net, _uniform_terms(net), seed=0)

    def test_round_trip(self, tmp_path):
        net = self._net()
        split = split_train_test(net, _uniform_terms(net), seed=5)
        write_split(split, tmp_path / "train.tsv", tmp_path / "test.tsv", "# h")
        loaded = read_split(tmp_path / "train.tsv", tmp_path / "test.tsv")
        assert loaded.train_edges == split.train_edges
        assert loaded.test == split.test


def _toy_models(seed=0):
    """Small coherent topic + tensor models over 4 bloggers / 6 terms."""
    rng = np.random.default_rng(seed)
    docs = {}
    for d in range(12):
        topic = d % 2
        counts = {}
        for _ in range(20):
            w = int(rng.integers(0, 3)) + topic * 3
            counts[w] = counts.get(w, 0) + 1
        docs[f"d{d:02d}"] = TermVector(counts, 20)
    terms = [f"w{i}" for i in range(6)]
    tm = fit_plsa(doc_term(docs, 6), 2, terms, max_iter=80, seed=seed, tol=TOL)
    keys = []
    counts = []
    # bloggers u0, u1 influenced by u2 on topic-0 terms, by u3 on topic-1 terms
    for i in (0, 1):
        for k in range(3):
            keys.append((i, 2, k))
            counts.append(6.0)
        for k in range(3, 6):
            keys.append((i, 3, k))
            counts.append(6.0)
    tensor = InfluenceTensor(
        bloggers=["u0", "u1", "u2", "u3"],
        n_terms=6,
        influenced=np.array([k[0] for k in keys]),
        influencer=np.array([k[1] for k in keys]),
        term=np.array([k[2] for k in keys]),
        counts=np.array(counts),
    )
    iolap = fit_iolap(tensor, 2, 2, tm, max_iter=100, seed=seed, tol=TOL)
    return tm, iolap


class TestTopicPosterior:
    def test_planted_keyword_picks_topic(self):
        tm, _ = _toy_models()
        top0 = np.argmax(tm.p_w_given_t[:, 0])  # topic owning w0
        post = topic_posterior(tm, ["w0"])
        assert post.argmax() == top0
        assert post.sum() == pytest.approx(1.0)

    def test_out_of_vocabulary_raises(self):
        tm, _ = _toy_models()
        with pytest.raises(UnanswerableQuery):
            topic_posterior(tm, ["nope"])


class TestRankCandidates:
    @staticmethod
    def _sorted_ranking(bloggers, scores, exclude, n):
        # The definition: descending normalized score, ties by index.
        candidates = [i for i, b in enumerate(bloggers) if b not in exclude]
        total = float(scores[candidates].sum())
        normalized = scores / total if total > 0 else np.full(len(bloggers), 1.0 / len(candidates))
        ranked = sorted(candidates, key=lambda i: (-normalized[i], i))
        return [(bloggers[i], float(normalized[i])) for i in ranked[:n]]

    @pytest.mark.parametrize("scores", [
        [0.2, 0.5, 0.2, 0.0, -0.0, 0.5, 0.0, 0.1],
        [0.0, -0.0, 0.0, -0.0, 0.0, -0.0, 0.0, -0.0],
        [-0.0, 0.3, 0.3, 0.3, 0.0, 0.3, -0.0, 0.3],
    ])
    @pytest.mark.parametrize("exclude", [set(), {"b1", "b4"}])
    def test_ties_and_signed_zeros_match_sorted(self, scores, exclude):
        bloggers = [f"b{i}" for i in range(len(scores))]
        scores = np.array(scores)
        for n in (1, 3, 8, 20):
            got = _rank_candidates(bloggers, scores, _candidates(bloggers, exclude), n)
            assert [(b, repr(s)) for b, s in got] == [
                (b, repr(s)) for b, s in self._sorted_ranking(bloggers, scores, exclude, n)
            ]

    def test_no_candidates(self):
        assert _rank_candidates(["b0"], np.array([1.0]), _candidates(["b0"], {"b0"}), 3) == []


class TestRecommenders:
    def test_tg_excludes_and_normalizes(self):
        tm, iolap = _toy_models()
        ranked = recommend_tg(iolap, tm, ["w0"], 4, exclude={"u2"})
        names = [b for b, _ in ranked]
        assert "u2" not in names
        assert sum(s for _, s in ranked) == pytest.approx(1.0, abs=1e-8)

    def test_tg_exclude_all_but_one(self):
        tm, iolap = _toy_models()
        ranked = recommend_tg(iolap, tm, ["w0"], 4, exclude={"u0", "u1", "u2"})
        assert [b for b, _ in ranked] == ["u3"]

    def test_iolap_personalization_collapses_at_rank_one(self):
        tensor = InfluenceTensor(
            bloggers=["u0", "u1", "u2"],
            n_terms=2,
            influenced=np.array([0, 1, 0]),
            influencer=np.array([1, 2, 2]),
            term=np.array([0, 1, 1]),
            counts=np.array([3.0, 2.0, 1.0]),
        )
        model = fit_iolap(tensor, 1, 1, random_topics(0, 2, 1), max_iter=10, seed=0, tol=TOL)
        r0 = recommend_iolap(model, "u0", ["w0"], 3, exclude=set())
        r1 = recommend_iolap(model, "u1", ["w0"], 3, exclude=set())
        assert [b for b, _ in r0] == [b for b, _ in r1]
        col = model.influencer_factors[:, 0]
        expected = [model.bloggers[i] for i in sorted(range(3), key=lambda b: (-col[b], b))]
        assert [b for b, _ in r0] == expected

    def test_iolap_unknown_member(self):
        _, iolap = _toy_models()
        with pytest.raises(KeyError):
            recommend_iolap(iolap, "stranger", ["w0"], 3)

    def test_iolap_scores_sum_to_one(self):
        _, iolap = _toy_models()
        ranked = recommend_iolap(iolap, "u0", ["w0"], 4, exclude=set())
        assert sum(s for _, s in ranked) == pytest.approx(1.0, abs=1e-8)

    def _pcldc(self, seed=0):
        rng = np.random.default_rng(seed)
        edges = {}
        nodes = [f"n{i}" for i in range(6)]
        for a in range(6):
            for b in range(6):
                if a != b and rng.random() < 0.6:
                    edges[(nodes[a], nodes[b])] = float(rng.integers(1, 5))
        graph = BloggerGraph.from_edge_weights(edges)
        content = rng.dirichlet(np.ones(4), size=graph.n_nodes)
        model = fit_pcldc(graph, content, 2, [f"w{i}" for i in range(4)], max_iter=20,
                          seed=seed, tol=TOL)
        return model

    def test_pcldc_popularity_scale_invariant(self):
        model = self._pcldc()
        ranked = recommend_pcldc(model, model.nodes[0], ["w0"], 5, exclude=set())
        scaled = PcldcModel(
            popularity=model.popularity * 7.3,
            content_weights=model.content_weights,
            memberships=model.memberships,
            objective_trace=model.objective_trace,
            nodes=model.nodes,
            terms=model.terms,
        )
        ranked_scaled = recommend_pcldc(scaled, model.nodes[0], ["w0"], 5, exclude=set())
        assert [b for b, _ in ranked] == [b for b, _ in ranked_scaled]

    def test_pcl_single_community_ranks_by_popularity(self):
        rng = np.random.default_rng(1)
        edges = {}
        nodes = [f"n{i}" for i in range(5)]
        for a in range(5):
            for b in range(5):
                if a != b and rng.random() < 0.7:
                    edges[(nodes[a], nodes[b])] = float(rng.integers(1, 4))
        graph = BloggerGraph.from_edge_weights(edges)
        model = fit_pcl(graph, 1, max_iter=20, seed=0, tol=TOL)
        ranked = recommend_pcl(model, model.nodes[0], [], 5, exclude=set())
        pops = model.popularity
        expected = [
            model.nodes[i]
            for i in sorted(range(len(model.nodes)), key=lambda b: (-pops[b] / pops.sum(), b))
        ]
        assert [b for b, _ in ranked] == expected

    def test_excluded_never_returned(self):
        tm, iolap = _toy_models()
        for member in ("u0", "u1"):
            ranked = recommend_iolap(iolap, member, ["w0", "w3"], 4, exclude={member, "u2"})
            names = {b for b, _ in ranked}
            assert member not in names and "u2" not in names
            assert len(ranked) <= 4


class TestCollapseCases:
    def test_tg_single_topic_ignores_keywords(self):
        rng = np.random.default_rng(0)
        docs = {
            f"d{d}": TermVector(
                {int(w): 1 for w in rng.choice(4, size=3, replace=False)}, 3
            )
            for d in range(8)
        }
        tm = fit_plsa(doc_term(docs, 4), 1, [f"w{i}" for i in range(4)], max_iter=20, seed=0,
                      tol=TOL)
        tensor = InfluenceTensor(
            bloggers=["u0", "u1", "u2"],
            n_terms=4,
            influenced=np.array([0, 1, 2, 0]),
            influencer=np.array([1, 2, 0, 2]),
            term=np.array([0, 1, 2, 3]),
            counts=np.array([4.0, 2.0, 1.0, 3.0]),
        )
        model = fit_iolap(tensor, 1, 1, tm, max_iter=20, seed=0, tol=TOL)
        first = recommend_tg(model, tm, ["w0"], 3)
        second = recommend_tg(model, tm, ["w3"], 3)
        assert [b for b, _ in first] == [b for b, _ in second]
        expected = [b for b, _ in iolap_topic_influencers(model, 0)]
        assert [b for b, _ in first] == expected

    def test_pcldc_single_community_ranks_by_popularity(self):
        rng = np.random.default_rng(2)
        nodes = [f"n{i}" for i in range(5)]
        edges = {}
        for a in range(5):
            for b in range(5):
                if a != b and rng.random() < 0.7:
                    edges[(nodes[a], nodes[b])] = float(rng.integers(1, 5))
        graph = BloggerGraph.from_edge_weights(edges)
        content = rng.dirichlet(np.ones(3), size=graph.n_nodes)
        model = fit_pcldc(graph, content, 1, ["w0", "w1", "w2"], max_iter=15, seed=0, tol=TOL)
        ranked = recommend_pcldc(model, model.nodes[0], ["w0"], 5, exclude=set())
        pops = model.popularity
        expected = [
            model.nodes[i]
            for i in sorted(range(len(model.nodes)), key=lambda b: (-pops[b], b))
        ]
        assert [b for b, _ in ranked] == expected


def _top_term(model, topic):
    """The highest-probability term of ``topic``; ties go to the lexicographically first."""
    return min(zip(-model.p_w_given_t[topic], model.terms))[1]


def test_personalized_top_pick_comes_from_own_expert_set():
    """Two member groups read disjoint expert pools on the same topics; the
    personalized tensor recommender should send each member to their own
    group's experts for the overwhelming majority of queries."""
    from blogfluence.implicit import link_posts
    from blogfluence.pipeline import run_detection
    from blogfluence.synth import SynthConfig, generate

    hits = total = 0
    for seed in range(5):
        cfg = SynthConfig(
            n_bloggers=80, n_days=24, vocab_size=160, n_topics=2,
            posts_per_blogger_rate=0.8, reads_per_post_rate=5.0,
            copy_prob=0.8, copy_fraction=0.45, confounder_strength=0.5,
            n_groups=2, experts_per_group_topic=10, experts_read_per_member=4,
            expert_read_prob=0.88, seed=seed,
        )
        corpus, truth = generate(cfg)
        result = run_detection(corpus, vocab_max_size=160, seed=seed)
        links = result.influence.links
        tm = fit_topics(result.terms, link_posts(links),
                        PipelineConfig(n_topics=2, plsa_max_iter=120, seed=seed))
        tensor = build_influence_tensor(links, result.terms)
        model = max(
            (fit_iolap(tensor, 2, 4, tm, max_iter=200, seed=[seed, 3, r], tol=TOL)
             for r in range(3)),
            key=lambda m: m.loglik_trace[-1],
        )
        known = set(model.bloggers)
        for member, per_topic in truth.member_expert_map.items():
            if member not in known:
                continue
            own_experts = {e for experts in per_topic.values() for e in experts}
            for t in range(2):
                keyword = [_top_term(tm, t)]
                try:
                    ranked = recommend_iolap(model, member, keyword, 1, exclude={member})
                except UnanswerableQuery:
                    continue
                if ranked:
                    hits += ranked[0][0] in own_experts
                    total += 1
    assert total > 0
    assert hits / total >= 0.8


class TestRecall:
    def _split(self):
        return TrainTestSplit(
            train_edges={("ua", "ux"): 1, ("ub", "ux"): 1, ("uc", "ux"): 1, ("ud", "ux"): 1},
            test=[
                ("ua", "ub", frozenset({"w0"})),
                ("ub", "uc", frozenset({"w0"})),
                ("uc", "ud", frozenset({"w0"})),
                ("ud", "ua", frozenset({"w0"})),
            ],
            nodes=["ua", "ub", "uc", "ud", "ux"],
        )

    def test_oracle_recommender_scores_one(self):
        split = self._split()
        answers = {a: b for a, b, _ in split.test}
        rec = lambda a, kw, n, ex: [(answers[a], 1.0)]
        assert recall_at_n(split, rec, 1) == 1.0

    def test_half_right(self):
        split = self._split()
        rec = lambda a, kw, n, ex: [("ub", 1.0)] if a in ("ua", "ub") else [("zz", 1.0)]
        assert recall_at_n(split, rec, 1) == 0.25  # only ua's answer is right

    def test_unanswerable_counts_as_miss(self):
        split = self._split()

        def rec(a, kw, n, ex):
            if a == "ua":
                raise UnanswerableQuery("no vocab")
            return [(dict((x, y) for x, y, _ in split.test)[a], 1.0)]

        assert recall_at_n(split, rec, 1) == 0.75

    def test_monotone_in_n(self):
        split = self._split()
        pool = ["ub", "uc", "ud", "ua"]

        def rec(a, kw, n, ex):
            return [(b, 1.0) for b in pool if b not in ex][:n]

        values = [recall_at_n(split, rec, n) for n in range(1, 5)]
        assert values == sorted(values)

    def test_random_recommender_near_n_over_m(self):
        rng = np.random.default_rng(0)
        sources = [f"s{i}" for i in range(150)]
        candidates = [f"c{i}" for i in range(20)]
        split = TrainTestSplit(
            train_edges={(s, "c0"): 1 for s in sources},
            test=[(s, candidates[int(rng.integers(1, 20))], frozenset({"w"})) for s in sources],
            nodes=sources + candidates,
        )

        def rec(a, kw, n, ex):
            order = rng.permutation(19) + 1  # candidates c1..c19; c0 is excluded train edge
            return [(candidates[i], 1.0) for i in order[:n]]

        n = 5
        value = recall_at_n(split, rec, n)
        m = 19
        expected = n / m
        sigma = np.sqrt(expected * (1 - expected) / len(sources))
        assert abs(value - expected) <= 3 * sigma

    def test_curve_ranks_each_query_once_and_matches_per_n(self):
        split = self._split()
        pool = ["ub", "uc", "ud", "ua"]
        calls = []

        def rec(a, kw, n, ex):
            calls.append(a)
            return [(b, 1.0) for b in pool if b not in ex][:n]

        curve = recall_curve(split, rec, 4)
        assert len(calls) == len(split.test)
        assert curve == [recall_at_n(split, rec, n) for n in range(1, 5)]
        assert curve == [0.5, 0.75, 1.0, 1.0]

    def test_curve_needs_positive_top_n(self):
        with pytest.raises(ValueError):
            recall_curve(self._split(), lambda *a: [], 0)

    def test_empty_test_set_rejected(self):
        split = TrainTestSplit(train_edges={("a", "b"): 1}, test=[], nodes=["a", "b"])
        with pytest.raises(ValueError):
            recall_at_n(split, lambda *a: [], 3)


def test_train_graph_nodes_sorted():
    net = _influence_net([("b", "a", "1", "1"), ("b", "a", "2", "2"), ("a", "c", "1", "1")])
    graph = blogger_graph(net.links)
    assert graph.nodes == ["a", "b", "c"]
    assert graph.weight.sum() == 3.0
