import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blogfluence import factor
from blogfluence.cli import main
from blogfluence.factor import (
    BloggerGraph,
    _solve_membership_rows,
    InfluenceTensor,
    blogger_content_matrix,
    build_influence_tensor,
    fit_iolap,
    fit_pcl,
    fit_pcldc,
    iolap_topic_influencers,
    pcldc_topic_influencers,
    read_iolap_model,
    read_pcl_model,
    read_pcldc_model,
    topic_factors_from_model,
    write_iolap_model,
    write_pcl_model,
    write_pcldc_model,
)
from blogfluence.topics import fit_plsa, scatter_rows

from conftest import (
    TOL,
    TermVector,
    conditional_link_objective,
    doc_term,
    links_table,
    pcldc_content_gradient,
    pcldc_objective,
    post_terms,
    random_topics,
    tensor_entries,
    topic_model_of,
)
from test_acceptance import PIPELINE_CONFIG


def _monotone(trace):
    trace = np.asarray(trace)
    return np.all(np.diff(trace) >= -1e-9 * np.abs(trace[:-1]))


def _names(content):
    """Term names for the columns of a content matrix."""
    return [f"w{i}" for i in range(content.shape[1])]


def _links(*rows):
    """A table of (q, p, reader, author) links, each 600 s and similarity 0.5."""
    return links_table((q, p, reader, author, 600, 0.5) for q, p, reader, author in rows)


class TestBuildTensor:
    def test_single_link_shared_terms(self):
        links = _links(("/a/q", "/b/p", "ua", "ub"))
        vectors = {
            "/a/q": TermVector({1: 2, 3: 1, 5: 1}, 4),
            "/b/p": TermVector({1: 1, 3: 4, 7: 2}, 7),
        }
        tensor = build_influence_tensor(links, post_terms(vectors, 8))
        assert tensor.bloggers == ["ua", "ub"]
        assert tensor_entries(tensor) == {(0, 1, 1): 1, (0, 1, 3): 1}

    def test_accumulation(self):
        links = _links(("/a/q1", "/b/p1", "ua", "ub"), ("/a/q2", "/b/p2", "ua", "ub"))
        vectors = {
            "/a/q1": TermVector({1: 1}, 1),
            "/b/p1": TermVector({1: 1}, 1),
            "/a/q2": TermVector({1: 2}, 2),
            "/b/p2": TermVector({1: 3}, 3),
        }
        tensor = build_influence_tensor(links, post_terms(vectors, 4))
        assert tensor_entries(tensor) == {(0, 1, 1): 2}

    def test_no_shared_terms_counted(self):
        links = _links(("/a/q", "/b/p", "ua", "ub"))
        vectors = {"/a/q": TermVector({0: 1}, 1), "/b/p": TermVector({1: 1}, 1)}
        tensor = build_influence_tensor(links, post_terms(vectors, 2))
        assert tensor.counts.size == 0 and tensor.n_links_no_shared == 1

    def test_matches_brute_force(self):
        rng = np.random.default_rng(12)
        vectors = {}
        rows = []
        for i in range(60):
            reader, author = f"u{rng.integers(0, 5)}", f"v{rng.integers(0, 5)}"
            q, p = f"/q{i}", f"/p{i}"
            for url in (q, p):
                entries = {
                    int(w): int(rng.integers(1, 4))
                    for w in rng.choice(10, size=rng.integers(1, 5), replace=False)
                }
                vectors[url] = TermVector(entries, sum(entries.values()))
            rows.append((q, p, reader, author))
        links = _links(*rows)
        tensor = build_influence_tensor(links, post_terms(vectors, 10))
        expected = {}
        index = {b: i for i, b in enumerate(tensor.bloggers)}
        for l in links:
            for k in set(vectors[l.q].entries) & set(vectors[l.p].entries):
                key = (index[l.reader], index[l.author], k)
                expected[key] = expected.get(key, 0) + 1
        assert tensor_entries(tensor) == expected
        assert tensor.total() == sum(expected.values())


def _random_tensor(seed, b=4, v=5, nnz=14):
    rng = np.random.default_rng(seed)
    keys = set()
    while len(keys) < nnz:
        i, j = int(rng.integers(b)), int(rng.integers(b))
        if i != j:
            keys.add((i, j, int(rng.integers(v))))
    keys = sorted(keys)
    return InfluenceTensor(
        bloggers=[f"u{i}" for i in range(b)],
        n_terms=v,
        influenced=np.array([k[0] for k in keys]),
        influencer=np.array([k[1] for k in keys]),
        term=np.array([k[2] for k in keys]),
        counts=rng.integers(1, 9, size=len(keys)).astype(float),
    )


def _dense_em_step(counts, core, x, y, z):
    """One EM step on the dense tensor with plain einsums, Z held: the reference."""
    prob = np.einsum("abc,ia,jb,kc->ijk", core, x, y, z, optimize=True)
    observed = counts > 0
    w = np.where(observed, counts / np.where(observed, prob, 1.0), 0.0)
    loglik = float((counts[observed] * np.log(prob[observed])).sum())
    core_new = core * np.einsum("ijk,ia,jb,kc->abc", w, x, y, z, optimize=True)
    x_num = x * np.einsum("ijk,abc,jb,kc->ia", w, core, y, z, optimize=True)
    y_num = y * np.einsum("ijk,abc,ia,kc->jb", w, core, x, z, optimize=True)
    return loglik, core_new / core_new.sum(), x_num / x_num.sum(axis=0), y_num / y_num.sum(axis=0)


class TestIolapEStepMatchesDenseReference:
    """The pair-compressed E-step equals a dense einsum EM step, whatever
    the entry order and however the nonzeros fall on (i, j) pairs."""

    B, V, RANKS = 30, 40, (2, 3, 4)
    NNZ = 8969  # about ten nonzeros per (i, j) pair, as in the benchmark tensor

    def _cells(self, rng, layout):
        """Flat (i, j, k) cell indices of the nonzeros, in entry order."""
        if layout == "one_pair":  # every term of the single pair (7, 19)
            return (7 * self.B + 19) * self.V + np.arange(self.V)
        if layout == "one_per_pair":  # 600 pairs, one random term each
            pairs = rng.choice(self.B * self.B, size=600, replace=False)
            return pairs * self.V + rng.integers(0, self.V, size=pairs.size)
        cells = np.sort(rng.choice(self.B * self.B * self.V, size=self.NNZ, replace=False))
        return rng.permutation(cells) if layout == "shuffled" else cells

    def _case(self, layout):
        rng = np.random.default_rng(31)
        cells = self._cells(rng, layout)
        i, j, k = np.unravel_index(cells, (self.B, self.B, self.V))
        n_pairs = np.unique(i * self.B + j).size
        if layout == "one_pair":
            assert n_pairs == 1 and cells.size == self.V
        elif layout == "one_per_pair":
            assert n_pairs == cells.size
        else:
            assert cells.size > 5 * n_pairs
        if layout == "shuffled":
            assert (np.diff(cells) < 0).any()
        counts = rng.integers(1, 9, size=cells.size).astype(float)
        tensor = InfluenceTensor(
            bloggers=[f"u{n:02d}" for n in range(self.B)], n_terms=self.V,
            influenced=i, influencer=j, term=k, counts=counts,
        )
        dense = np.zeros((self.B, self.B, self.V))
        dense[i, j, k] = counts
        n_i, n_j, n_k = self.RANKS
        init = (
            rng.dirichlet(np.ones(n_i * n_j * n_k)).reshape(self.RANKS),
            rng.dirichlet(np.ones(self.B), size=n_i).T,
            rng.dirichlet(np.ones(self.B), size=n_j).T,
        )
        return tensor, dense, init, topic_model_of(rng.dirichlet(np.ones(self.V), size=n_k).T)

    def _fit_one_step(self, layout):
        tensor, dense, init, tm = self._case(layout)
        model = fit_iolap(tensor, 2, 3, tm, max_iter=1, init=init, tol=TOL, seed=0)
        z = topic_factors_from_model(tm)
        assert np.array_equal(model.topic_factors, z)
        loglik0, core, x, y = _dense_em_step(dense, *init, z)
        loglik1 = _dense_em_step(dense, core, x, y, z)[0]
        assert model.loglik_trace == pytest.approx([loglik0, loglik1], rel=1e-12, abs=0)
        for got, want in ((model.core, core), (model.influenced_factors, x),
                          (model.influencer_factors, y)):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    def test_fixed_topics(self):
        self._fit_one_step("sorted")

    @pytest.mark.parametrize("layout", ["shuffled", "one_pair", "one_per_pair"])
    def test_pair_layout(self, layout):
        self._fit_one_step(layout)


class TestFitIolap:
    def test_converged_flag(self):
        tensor, tm = _random_tensor(5), random_topics(5, 5, 2)
        stopped = fit_iolap(tensor, 2, 2, tm, max_iter=500, tol=1e-4, seed=1)
        assert stopped.converged
        assert len(stopped.loglik_trace) < 501
        capped = fit_iolap(tensor, 2, 2, tm, max_iter=3, tol=0.0, seed=1)
        assert not capped.converged
        assert len(capped.loglik_trace) == 4

    def test_rank_one_closed_form(self):
        tensor, tm = _random_tensor(3), random_topics(3, 5, 1)
        model = fit_iolap(tensor, 1, 1, tm, max_iter=5, seed=0, tol=TOL)
        total = tensor.total()
        for factors, idx in ((model.influenced_factors, tensor.influenced),
                             (model.influencer_factors, tensor.influencer)):
            marginal = np.bincount(idx, weights=tensor.counts, minlength=4) / total
            assert np.abs(factors[:, 0] - marginal).max() <= 1e-10
        assert np.array_equal(model.topic_factors, topic_factors_from_model(tm))
        closed_form = float(
            tensor.counts
            @ np.log(
                model.influenced_factors[tensor.influenced, 0]
                * model.influencer_factors[tensor.influencer, 0]
                * model.topic_factors[tensor.term, 0]
            )
        )
        assert model.loglik_trace[-1] == pytest.approx(closed_form, rel=1e-12)

    def test_monotone_trace(self):
        model = fit_iolap(_random_tensor(5), 2, 2, random_topics(5, 5, 2), max_iter=60, seed=1,
                          tol=TOL)
        assert _monotone(model.loglik_trace)

    def test_fixed_topics_untouched(self):
        docs = {f"d{i}": TermVector({i % 5: 3, (i + 1) % 5: 1}, 4) for i in range(6)}
        tm = fit_plsa(doc_term(docs, 5), 2, [f"w{i}" for i in range(5)], max_iter=30, seed=0,
                      tol=TOL)
        tensor = _random_tensor(7)
        expected = topic_factors_from_model(tm)
        model = fit_iolap(tensor, 2, 2, tm, max_iter=40, seed=2, tol=TOL)
        assert np.array_equal(model.topic_factors, expected)

    def test_stochastic_constraints_hold(self):
        model = fit_iolap(_random_tensor(9), 2, 3, random_topics(9, 5, 2), max_iter=40, seed=3,
                          tol=TOL)
        assert model.core.sum() == pytest.approx(1.0, abs=1e-8)
        assert np.allclose(model.influenced_factors.sum(axis=0), 1.0, atol=1e-8)
        assert np.allclose(model.influencer_factors.sum(axis=0), 1.0, atol=1e-8)
        assert np.allclose(model.topic_factors.sum(axis=0), 1.0, atol=1e-8)
        assert (model.core >= 0).all()

    def test_empty_tensor_rejected(self):
        empty = InfluenceTensor(
            bloggers=["a"], n_terms=1,
            influenced=np.array([], dtype=np.int64),
            influencer=np.array([], dtype=np.int64),
            term=np.array([], dtype=np.int64),
            counts=np.array([]),
        )
        with pytest.raises(ValueError):
            fit_iolap(empty, 1, 1, random_topics(0, 1, 1), seed=0, max_iter=200, tol=TOL)

    def test_same_seed_bitwise(self):
        t, tm = _random_tensor(11), random_topics(11, 5, 2)
        a = fit_iolap(t, 2, 2, tm, max_iter=30, seed=5, tol=TOL)
        b = fit_iolap(t, 2, 2, tm, max_iter=30, seed=5, tol=TOL)
        assert np.array_equal(a.core, b.core)
        assert a.loglik_trace == b.loglik_trace

    def test_blogger_permutation_equivariance(self):
        tensor = _random_tensor(13, b=5, v=4, nnz=16)
        rng = np.random.default_rng(0)
        core0 = rng.dirichlet(np.ones(2 * 2 * 2)).reshape(2, 2, 2)
        x0 = rng.dirichlet(np.ones(5), size=2).T
        y0 = rng.dirichlet(np.ones(5), size=2).T
        tm = topic_model_of(rng.dirichlet(np.ones(4), size=2).T)
        perm = np.array([3, 0, 4, 1, 2])
        base = fit_iolap(tensor, 2, 2, tm, max_iter=25, init=(core0, x0, y0), tol=TOL, seed=0)
        permuted_tensor = InfluenceTensor(
            bloggers=[tensor.bloggers[i] for i in np.argsort(perm)],
            n_terms=4,
            influenced=perm[tensor.influenced],
            influencer=perm[tensor.influencer],
            term=tensor.term,
            counts=tensor.counts,
        )
        unperm = np.argsort(perm)
        permuted = fit_iolap(permuted_tensor, 2, 2, tm, max_iter=25,
                             init=(core0, x0[unperm], y0[unperm]), tol=TOL, seed=0)
        assert np.allclose(permuted.influenced_factors[perm], base.influenced_factors)
        assert np.allclose(permuted.influencer_factors[perm], base.influencer_factors)
        assert np.allclose(permuted.core, base.core)


class TestTopicInfluencers:
    def test_single_group_ranking_follows_factor(self):
        tensor = _random_tensor(15)
        model = fit_iolap(tensor, 2, 1, random_topics(15, 5, 2), max_iter=30, seed=1, tol=TOL)
        ranked = iolap_topic_influencers(model, 0)
        col = model.influencer_factors[:, 0]
        expected = [model.bloggers[i] for i in sorted(range(4), key=lambda b: (-col[b], b))]
        assert [b for b, _ in ranked] == expected

    def test_scores_sum_to_one(self):
        model = fit_iolap(_random_tensor(17), 2, 2, random_topics(17, 5, 3), max_iter=30, seed=2,
                          tol=TOL)
        for t in range(3):
            scores = [s for _, s in iolap_topic_influencers(model, t)]
            assert sum(scores) == pytest.approx(1.0, abs=1e-8)

    def test_planted_specialist_ranked_first(self):
        # blogger u3 is the only influencer on term block {3, 4}
        rows = []
        for i in (0, 1, 2):
            rows.append((i, 3, 3, 9.0))
            rows.append((i, 3, 4, 9.0))
            for j in (0, 1, 2):
                if i != j:
                    rows.append((i, j, 0, 3.0))
                    rows.append((i, j, 1, 3.0))
        keys = sorted(set((i, j, k) for i, j, k, _ in rows))
        weights = {key: sum(c for i, j, k, c in rows if (i, j, k) == key) for key in keys}
        tensor = InfluenceTensor(
            bloggers=["u0", "u1", "u2", "u3"],
            n_terms=5,
            influenced=np.array([k[0] for k in keys]),
            influencer=np.array([k[1] for k in keys]),
            term=np.array([k[2] for k in keys]),
            counts=np.array([weights[k] for k in keys]),
        )
        # topic 0 holds terms 0-2, topic 1 terms 3-4
        topics = np.array([[0.4, 0.4, 0.2, 0.0, 0.0], [0.0, 0.0, 0.0, 0.5, 0.5]]).T
        model = fit_iolap(tensor, 2, 2, topic_model_of(topics), max_iter=200, seed=4, tol=TOL)
        ranked = iolap_topic_influencers(model, 1)
        assert ranked[0][0] == "u3"


def _planted_graph(seed, n_per=8, p_in=0.7, p_out=0.3, w_in=(4, 9), w_out=(1, 2)):
    """Two directed communities with community-consistent content.

    Out-neighborhoods span both communities but link weight concentrates
    in-community, which is the signal the conditional link model can use.
    """
    rng = np.random.default_rng(seed)
    nodes = [f"n{i:02d}" for i in range(2 * n_per)]
    edges = {}
    for a in range(2 * n_per):
        for b in range(2 * n_per):
            if a == b:
                continue
            same = (a < n_per) == (b < n_per)
            if rng.random() < (p_in if same else p_out):
                lo, hi = w_in if same else w_out
                edges[(nodes[a], nodes[b])] = float(rng.integers(lo, hi))
    graph = BloggerGraph.from_edge_weights(edges)
    content = np.zeros((graph.n_nodes, 6))
    for i, node in enumerate(graph.nodes):
        raw = int(node[1:])
        block = 0 if raw < n_per else 3
        content[i, block : block + 3] = rng.dirichlet(np.ones(3))
    return graph, content


class TestPcldc:
    def test_degenerate_two_node_objective_zero(self):
        graph = BloggerGraph.from_edge_weights({("a", "b"): 5.0})
        content = np.ones((2, 3)) / 3.0
        model = fit_pcldc(graph, content, 1, _names(content), max_iter=5, seed=0, tol=TOL)
        assert model.objective_trace[-1] == pytest.approx(0.0, abs=1e-12)

    def test_gradient_matches_finite_differences(self):
        graph, content = _planted_graph(2, n_per=3)
        rng = np.random.default_rng(1)
        weights = 0.3 * rng.standard_normal((6, 2))
        bpop = rng.uniform(0.5, 2.0, size=graph.n_nodes)
        grad = pcldc_content_gradient(graph, content, weights, bpop)
        numeric = np.zeros_like(weights)
        h = 1e-6
        for i in range(weights.shape[0]):
            for j in range(weights.shape[1]):
                up, down = weights.copy(), weights.copy()
                up[i, j] += h
                down[i, j] -= h
                numeric[i, j] = (
                    pcldc_objective(graph, content, up, bpop)
                    - pcldc_objective(graph, content, down, bpop)
                ) / (2 * h)
        rel = np.linalg.norm(grad - numeric) / max(
            np.linalg.norm(grad), np.linalg.norm(numeric)
        )
        assert rel < 1e-4

    def test_monotone_objective(self):
        graph, content = _planted_graph(4)
        model = fit_pcldc(graph, content, 2, _names(content), max_iter=25, seed=3, tol=TOL)
        assert _monotone(model.objective_trace)

    def test_planted_communities_recovered(self):
        pure = 0.0
        for seed in range(5):
            graph, content = _planted_graph(seed + 20)
            model = fit_pcldc(graph, content, 2, _names(content), max_iter=40, seed=seed, tol=TOL)
            labels = model.memberships.argmax(axis=1)
            truth = np.array([0 if int(n[1:]) < 8 else 1 for n in model.nodes])
            agreement = (labels == truth).mean()
            pure += max(agreement, 1.0 - agreement)
        assert pure / 5 >= 0.9


class TestPcl:
    def test_k1_matches_pcldc(self):
        graph, content = _planted_graph(5, n_per=3)
        pcl = fit_pcl(graph, 1, max_iter=10, seed=0, tol=TOL)
        pcldc = fit_pcldc(graph, content, 1, _names(content), max_iter=10, seed=0, tol=TOL)
        assert pcl.objective_trace[-1] == pytest.approx(pcldc.objective_trace[-1], rel=1e-9)

    def test_monotone_objective(self):
        graph, _ = _planted_graph(6)
        model = fit_pcl(graph, 3, max_iter=60, seed=1, tol=TOL)
        assert _monotone(model.objective_trace)

    def test_memberships_row_stochastic(self):
        graph, _ = _planted_graph(7)
        model = fit_pcl(graph, 3, max_iter=30, seed=2, tol=TOL)
        assert np.allclose(model.memberships.sum(axis=1), 1.0, atol=1e-8)
        assert (model.popularity > 0).all()

    def test_content_helps_held_out_edges(self):
        held_out_gap = 0.0
        for seed in range(3):
            graph, content = _planted_graph(seed + 40, n_per=8, p_in=0.5, p_out=0.05)
            rng = np.random.default_rng(seed)
            keep = rng.random(graph.src.size) < 0.85
            train_edges = {
                (graph.nodes[int(a)], graph.nodes[int(b)]): float(w)
                for a, b, w, k in zip(graph.src, graph.dst, graph.weight, keep)
                if k
            }
            test_edges = [
                (int(a), int(b))
                for a, b, k in zip(graph.src, graph.dst, keep)
                if not k
            ]
            train = BloggerGraph.from_edge_weights(train_edges)
            index = {n: i for i, n in enumerate(train.nodes)}
            rows = [index[graph.nodes[a]] for a, b in test_edges if graph.nodes[a] in index]
            row_of = {n: i for i, n in enumerate(graph.nodes)}
            content_rows = content[[row_of[n] for n in train.nodes]]
            pcldc = fit_pcldc(train, content_rows, 2, _names(content), max_iter=40, seed=seed,
                              tol=TOL)
            pcl = fit_pcl(train, 2, max_iter=80, seed=seed, tol=TOL)

            def mean_loglik(y, bpop):
                total = 0.0
                count = 0
                for a, b in test_edges:
                    na, nb = graph.nodes[a], graph.nodes[b]
                    if na not in index or nb not in index:
                        continue
                    ia, ib = index[na], index[nb]
                    weighted = y * bpop[:, None]
                    denom = weighted.sum(axis=0)
                    p = float((y[ia] * weighted[ib] / denom).sum())
                    total += np.log(max(p, 1e-300))
                    count += 1
                return total / max(count, 1)

            held_out_gap += mean_loglik(pcldc.memberships, pcldc.popularity) - mean_loglik(
                pcl.memberships, pcl.popularity
            )
        assert held_out_gap / 3 >= 0.0


def solve_membership_rows_100_steps(alpha, cost, y_old):
    """``factor._solve_membership_rows`` as it was before its bisection stopped
    at the fixed point: always 100 steps.  The oracle of the test below."""
    y = y_old.copy()
    totals = alpha.sum(axis=1)
    live = np.flatnonzero(totals > 0)
    if live.size == 0:
        return y
    a = alpha[live]
    tot = totals[live][:, None]
    act = a > tot * 1e-15
    a = np.where(act, a, 0.0)
    c = np.where(act, cost[live], np.inf)
    cmin = c.min(axis=1, keepdims=True)
    near_min = c <= cmin + 1e-12 * (1.0 + np.abs(cmin))
    mass_at_min = (a * near_min).sum(axis=1, keepdims=True)
    lo = -cmin + 0.5 * mass_at_min
    hi = -cmin + tot
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        h = (a / (mid + c)).sum(axis=1, keepdims=True)
        too_big = h > 1.0
        lo = np.where(too_big, mid, lo)
        hi = np.where(too_big, hi, mid)
    lam = 0.5 * (lo + hi)
    rows = np.where(act, a / (lam + c), 0.0)
    rows /= rows.sum(axis=1, keepdims=True)
    y[live] = rows
    return y


@pytest.mark.parametrize("seed", range(6))
def test_membership_bisection_stops_at_the_100_step_answer(seed):
    rng = np.random.default_rng(seed)
    n, k = 40, 1 + seed
    alpha = rng.random((n, k)) * 10.0 ** rng.integers(-3, 4, size=(n, 1))
    alpha[rng.random((n, k)) < 0.3] = 0.0  # zero mass entries and whole rows
    alpha[0] = 1e-20  # entries below the row total's 1e-15 get no mass
    alpha[0, 0] = 1.0
    cost = rng.random((n, k)) * 10.0 ** rng.integers(-2, 3, size=(n, 1))
    cost[2] = cost[2, 0]  # one cost for the whole row: all near the minimum
    y_old = rng.dirichlet(np.ones(k), size=n)
    got = _solve_membership_rows(alpha, cost, y_old)
    assert np.array_equal(got, solve_membership_rows_100_steps(alpha, cost, y_old))


# Row kinds of the property below: random costs, no mass at all, one cost for
# the whole row, and two rows whose multiplier is 0 (cost = m * alpha over the
# m active entries, or every cost equal to the row total), which bisection
# cannot finish in 100 steps because the doubles near 0 lie densely.
ROW_KINDS = ("random", "no_mass", "one_cost", "m_alpha", "row_total")


@settings(max_examples=200, deadline=None)
@given(k=st.integers(1, 9), seed=st.integers(0, 2**32 - 1),
       rows=st.lists(st.tuples(st.sampled_from(ROW_KINDS), st.integers(-6, 6),
                               st.integers(-6, 6)), min_size=1, max_size=8))
@example(k=9, seed=1, rows=[(kind, 3, -2) for kind in ROW_KINDS])
@example(k=8, seed=2, rows=[(kind, -6, 6) for kind in ROW_KINDS])
@example(k=1, seed=3, rows=[(kind, 6, -6) for kind in ROW_KINDS])
def test_membership_solve_matches_the_100_step_oracle(k, seed, rows):
    """The narrowed brackets end where 100 steps from the wide ones end, for
    K from 1 to 9 (numpy sums rows of 8 or more in 8 accumulators), row
    scales from 1e-6 to 1e6, zero-mass entries and rows, and rows that stop
    at the cap rather than at the fixed point."""
    rng = np.random.default_rng(seed)
    alpha_scale = np.array([[10.0 ** a] for _, a, _ in rows])
    cost_scale = np.array([[10.0 ** c] for _, _, c in rows])
    alpha = rng.random((len(rows), k)) * alpha_scale
    alpha[rng.random(alpha.shape) < 0.2] = 0.0
    cost = rng.random(alpha.shape) * cost_scale
    for i, (kind, _, _) in enumerate(rows):
        if kind == "no_mass":
            alpha[i] = 0.0
        elif kind == "one_cost":
            cost[i] = cost[i, 0]
        elif kind == "m_alpha":
            cost[i] = np.count_nonzero(alpha[i]) * alpha[i]
        elif kind == "row_total":
            cost[i] = alpha[i].sum()
    y_old = rng.dirichlet(np.ones(k), size=len(rows))
    got = _solve_membership_rows(alpha, cost, y_old)
    assert np.array_equal(got, solve_membership_rows_100_steps(alpha, cost, y_old))


def test_a_probed_bracket_is_refused_where_the_wide_one_needs_over_90_steps(monkeypatch):
    """h = 2 / (lam + 2) crosses 1 just below 0, where the doubles are about
    2^-105 apart: bisecting [-1, 1] would stop at the cap, so even a probe
    that holds the crossing must leave that row its wide bracket."""
    a, c = np.array([[1.0, 1.0]]), np.array([[2.0, 2.0]])
    lo, hi = -1.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if (a / (mid + c)).sum() > 1.0 else (lo, mid)
    assert np.nextafter(lo, 1.0) == hi and -2.0**-50 < lo < 0.0
    monkeypatch.setattr(factor, "_NEWTON_STEPS", 0)  # probe around the lower end itself
    for wide, narrowed in ((1.0, False), (lo + 2.0**-20, True)):
        left, right, ok = factor._narrow_brackets(a, c, np.array([[lo]]), np.array([[wide]]))
        assert ok.tolist() == [[narrowed]]
        assert (left.item(), right.item()) == ((lo, lo + 4096 * np.spacing(-lo)) if narrowed
                                               else (lo, wide))


def test_pcl_narrows_nearly_every_membership_bracket(tmp_path, monkeypatch):
    """On the pcl fit of the acceptance run (seed 17), every narrowed bracket
    holds the crossing of h = 1, and at least 99% of the rows are narrowed,
    which is where the solve's speed comes from."""
    config = tmp_path / "pipeline.cfg"
    config.write_text(PIPELINE_CONFIG)
    argv = ["--config", str(config), "--out-dir", str(tmp_path / "run"), "--seed", "17"]
    for stage in ("synth", "ingest", "links", "causality", "influence", "split"):
        assert main([stage, *argv]) == 0, stage
    calls = []
    narrow = factor._narrow_brackets

    def recording(a, c, lo, hi):
        calls.append((a, c, lo, hi, *narrow(a, c, lo, hi)))
        return calls[-1][4:]

    monkeypatch.setattr(factor, "_narrow_brackets", recording)
    assert main(["pcl", *argv]) == 0 and calls
    narrowed = rows = 0
    for a, c, lo, hi, left, right, ok in calls:
        assert np.all(lo <= left) and np.all(right <= hi)
        h_left = (a / (left + c)).sum(axis=1, keepdims=True)
        h_right = (a / (right + c)).sum(axis=1, keepdims=True)
        assert np.all(h_left[ok] > 1.0) and np.all(h_right[ok] <= 1.0)
        narrowed += int(ok.sum())
        rows += ok.size
    assert narrowed >= 0.99 * rows, (narrowed, rows)


# The conditional link fits as they were before the E-step state was kept:
# every objective, gradient and popularity update evaluates the mixture
# again.  The oracles of the two tests below.

def _oracle_mixture_terms(y, bpop, src, dst):
    denom = scatter_rows(src, y[dst] * bpop[dst][:, None], y.shape[0])
    num = y[src] * y[dst] * bpop[dst][:, None]
    comp = np.divide(num, denom[src], out=np.zeros_like(num), where=denom[src] > 0)
    return denom, comp, comp.sum(axis=1)


def _oracle_objective(graph, y, bpop):
    _, _, p_edge = _oracle_mixture_terms(y, bpop, graph.src, graph.dst)
    with np.errstate(divide="ignore"):
        logp = np.log(p_edge)
    return float(graph.weight @ logp)


def _oracle_posterior_masses(graph, y, bpop):
    denom, comp, p_edge = _oracle_mixture_terms(y, bpop, graph.src, graph.dst)
    if np.any(p_edge <= 0):
        raise ArithmeticError("zero-probability edge in conditional link model")
    q = comp / p_edge[:, None]
    wq = graph.weight[:, None] * q
    n = y.shape[0]
    out_mass = scatter_rows(graph.src, wq, n)
    in_mass = scatter_rows(graph.dst, wq, n)
    ratio = np.divide(out_mass, denom, out=np.zeros_like(out_mass), where=denom > 0)
    denom_mass = scatter_rows(graph.dst, ratio[graph.src], n)
    return out_mass, in_mass, denom_mass


def _oracle_update_popularity(graph, y, bpop):
    _, _, denom_mass = _oracle_posterior_masses(graph, y, bpop)
    d = (y * denom_mass).sum(axis=1)
    in_w = graph.in_weight()
    new = np.where(d > 0, in_w / np.maximum(d, 1e-300), bpop)
    return new / new.mean()


def _oracle_pcldc_objective(graph, content, weights, bpop):
    return _oracle_objective(graph, factor._softmax_rows(content @ weights), bpop)


def _oracle_pcldc_gradient(graph, content, weights, bpop):
    y = factor._softmax_rows(content @ weights)
    out_mass, in_mass, denom_mass = _oracle_posterior_masses(graph, y, bpop)
    g_y = (out_mass + in_mass) / y - bpop[:, None] * denom_mass
    inner = (y * g_y).sum(axis=1, keepdims=True)
    g_logits = y * (g_y - inner)
    return content.T @ g_logits


def fit_pcl_oracle(graph, n_communities, *, max_iter, tol, seed):
    y = np.random.default_rng(seed).dirichlet(np.ones(n_communities), size=graph.n_nodes)
    bpop = graph.in_degree() + 1.0
    trace = [_oracle_objective(graph, y, bpop)]
    for iteration in range(max_iter):
        bpop = _oracle_update_popularity(graph, y, bpop)
        out_mass, in_mass, denom_mass = _oracle_posterior_masses(graph, y, bpop)
        alpha = out_mass + in_mass
        cost = bpop[:, None] * denom_mass
        y = _solve_membership_rows(alpha, cost, y)
        y = np.maximum(y, 1e-12)
        y /= y.sum(axis=1, keepdims=True)
        obj = _oracle_objective(graph, y, bpop)
        if not np.isfinite(obj):
            raise ArithmeticError(f"non-finite objective at iteration {iteration}")
        trace.append(obj)
        if abs(trace[-1] - trace[-2]) <= tol * abs(trace[-2]):
            break
    return bpop, y, trace


def fit_pcldc_oracle(graph, content, n_communities, *, max_iter, tol, seed):
    """(popularity, content weights, memberships, objective trace, number of
    line-search trials)."""
    weights = 0.01 * np.random.default_rng(seed).standard_normal((content.shape[1], n_communities))
    bpop = graph.in_degree() + 1.0
    trials = 0
    trace = [_oracle_pcldc_objective(graph, content, weights, bpop)]
    for iteration in range(max_iter):
        y = factor._softmax_rows(content @ weights)
        bpop = _oracle_update_popularity(graph, y, bpop)
        base = _oracle_pcldc_objective(graph, content, weights, bpop)
        for _ in range(5):
            grad = _oracle_pcldc_gradient(graph, content, weights, bpop)
            step = 1.0
            accepted = False
            for _ in range(30):
                trial = weights + step * grad
                value = _oracle_pcldc_objective(graph, content, trial, bpop)
                trials += 1
                if np.isfinite(value) and value >= base:
                    weights = trial
                    base = value
                    accepted = True
                    break
                step *= 0.5
            if not accepted:
                break
        if not np.isfinite(base):
            raise ArithmeticError(f"non-finite objective at iteration {iteration}")
        trace.append(base)
        if abs(trace[-1] - trace[-2]) <= tol * abs(trace[-2]):
            break
    return bpop, weights, factor._softmax_rows(content @ weights), trace, trials


def _random_link_graph(n, seed, density):
    """A random graph over up to ``n`` nodes in which n0 has no in-links; at
    density 0 it is the single edge n0 -> n1."""
    rng = np.random.default_rng(seed)
    edges = {("n0", "n1"): float(rng.integers(1, 10))}
    for a in range(n):
        for b in range(1, n):
            if a != b and rng.random() < density:
                edges[(f"n{a}", f"n{b}")] = float(rng.integers(1, 10))
    graph = BloggerGraph.from_edge_weights(edges)
    content = rng.random((graph.n_nodes, 1 + seed % 5))
    content[rng.random(graph.n_nodes) < 0.25] = 0.0  # bloggers without content
    return graph, content


def _bits(*arrays):
    return [np.asarray(a, dtype=float).tobytes() for a in arrays]


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 9), k=st.integers(1, 9), seed=st.integers(0, 2**32 - 1),
       density=st.sampled_from([0.0, 0.15, 0.4, 1.0]))
@example(n=2, k=1, seed=0, density=0.0)
@example(n=5, k=9, seed=3, density=0.0)
def test_link_fits_match_the_recomputing_oracles(n, k, seed, density):
    """fit_pcl and fit_pcldc, which keep each E-step state, give the bits of
    the fits that evaluated every state again."""
    graph, content = _random_link_graph(n, seed, density)
    pcl = fit_pcl(graph, k, max_iter=12, seed=seed, tol=TOL)
    assert _bits(pcl.popularity, pcl.memberships, pcl.objective_trace) == _bits(
        *fit_pcl_oracle(graph, k, max_iter=12, seed=seed, tol=TOL))
    pcldc = fit_pcldc(graph, content, k, _names(content), max_iter=8, seed=seed, tol=TOL)
    assert _bits(pcldc.popularity, pcldc.content_weights, pcldc.memberships,
                 pcldc.objective_trace) == _bits(
        *fit_pcldc_oracle(graph, content, k, max_iter=8, seed=seed, tol=TOL)[:4])


@pytest.mark.parametrize("seed", range(3))
def test_link_fits_build_each_state_once(monkeypatch, seed):
    """fit_pcl builds 2n + 1 link states over n iterations; fit_pcldc one
    initial state, one per popularity update and one per line-search trial."""
    graph, content = _planted_graph(seed + 50, n_per=4)
    built = []
    link_state = factor._link_state
    monkeypatch.setattr(factor, "_link_state", lambda *args: built.append(1) or link_state(*args))
    pcl = fit_pcl(graph, 3, max_iter=15, seed=seed, tol=TOL)
    assert len(built) == 2 * (len(pcl.objective_trace) - 1) + 1
    built.clear()
    pcldc = fit_pcldc(graph, content, 3, _names(content), max_iter=10, seed=seed, tol=TOL)
    *_, trials = fit_pcldc_oracle(graph, content, 3, max_iter=10, seed=seed, tol=TOL)
    n = len(pcldc.objective_trace) - 1
    assert trials > 0 and len(built) == 1 + n + trials


class TestModelRoundTrips:
    def test_iolap(self, tmp_path):
        topic_model = random_topics(21, 5, 2)
        model = fit_iolap(_random_tensor(21), 2, 2, topic_model, max_iter=20, seed=0, tol=TOL)
        path = tmp_path / "m.tsv"
        write_iolap_model(model, path, "# h")
        loaded = read_iolap_model(path, topic_model)
        assert np.array_equal(loaded.core, model.core)
        assert np.array_equal(loaded.influenced_factors, model.influenced_factors)
        assert loaded.bloggers == model.bloggers
        # The keyword factor is rebuilt from the topics, bit for bit.
        assert np.array_equal(loaded.topic_factors, model.topic_factors)
        assert loaded.terms == model.terms

    def test_pcldc_and_pcl(self, tmp_path):
        graph, content = _planted_graph(8, n_per=3)
        model = fit_pcldc(graph, content, 2, _names(content), max_iter=10, seed=0, tol=TOL)
        write_pcldc_model(model, tmp_path / "p.tsv", "# h")
        loaded = read_pcldc_model(tmp_path / "p.tsv")
        assert np.array_equal(loaded.memberships, model.memberships)
        assert np.array_equal(loaded.popularity, model.popularity)
        assert loaded.terms == model.terms

        pcl = fit_pcl(graph, 2, max_iter=10, seed=0, tol=TOL)
        write_pcl_model(pcl, tmp_path / "q.tsv", "# h")
        loaded_pcl = read_pcl_model(tmp_path / "q.tsv")
        assert np.array_equal(loaded_pcl.memberships, pcl.memberships)


def test_pcldc_topic_influencers_ranking():
    graph, content = _planted_graph(9, n_per=3)
    model = fit_pcldc(graph, content, 2, _names(content), max_iter=20, seed=1, tol=TOL)
    for k in range(2):
        ranked = pcldc_topic_influencers(model, k)
        scores = model.memberships[:, k] * model.popularity
        scores = scores / scores.sum()
        expected = [model.nodes[i] for i in sorted(range(len(model.nodes)),
                                                   key=lambda b: (-scores[b], b))]
        assert [b for b, _ in ranked] == expected
        assert sum(s for _, s in ranked) == pytest.approx(1.0, abs=1e-8)


def test_blogger_content_matrix_rows_normalized():
    vectors = {"/ua/p0": TermVector({0: 2, 1: 2}, 4), "/ub/p0": TermVector({2: 5}, 5),
               "/ua/p1": TermVector({0: 4}, 4)}
    terms = post_terms(vectors, 3, {url: url.split("/")[1] for url in vectors})
    mat = blogger_content_matrix(["ua", "ub", "uc"], terms)
    assert np.allclose(mat[0], [0.75, 0.25, 0.0])
    assert np.allclose(mat[1], [0.0, 0.0, 1.0])
    assert np.allclose(mat[2], 0.0)


def test_conditional_objective_scale_invariant_in_popularity():
    graph, _ = _planted_graph(10, n_per=3)
    rng = np.random.default_rng(3)
    y = rng.dirichlet(np.ones(2), size=graph.n_nodes)
    b = rng.uniform(0.5, 2.0, size=graph.n_nodes)
    assert conditional_link_objective(graph, y, b) == pytest.approx(
        conditional_link_objective(graph, y, 3.7 * b), rel=1e-12
    )
