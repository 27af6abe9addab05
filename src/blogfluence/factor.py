"""Topic-aware influence models fitted on the extracted influence network.

Two model families are implemented:

* ``fit_iolap``: a probabilistic nonnegative Tucker decomposition of the
  sparse (influenced blogger, influencing blogger, keyword) count tensor,
  fitted by EM on the multinomial log-likelihood.  The keyword-mode
  factor is always the shared PLSA topics, held fixed, so that every
  downstream per-topic result uses the same topics.
* ``fit_pcldc`` / ``fit_pcl``: a conditional link model with a per-blogger
  popularity weight and community memberships; memberships are either
  tied to blogger content through a softmax ("pcldc") or left as free
  row-stochastic parameters updated by EM ("pcl").

Every fitter keeps a trace of its objective, which is non-decreasing per
iteration (EM / minorize-maximize guarantee; gradient steps on the
content weights only accept improving moves).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from blogfluence import artifacts
from blogfluence.corpus import FormatError, distinct
from blogfluence.implicit import Links
from blogfluence.textvec import PostTerms, shared_terms
from blogfluence.topics import DEFAULT_TOL, TopicModel, scatter_rows


# --------------------------------------------------------------------------
# influence tensor

@dataclass
class InfluenceTensor:
    """Sparse counts: entry (i, j, k) is how often blogger i was influenced
    by blogger j on vocabulary term k (one count per link sharing the term)."""

    bloggers: list[str]
    n_terms: int
    influenced: np.ndarray  # i index per nonzero
    influencer: np.ndarray  # j index per nonzero
    term: np.ndarray  # k index per nonzero
    counts: np.ndarray  # float64
    n_links_no_shared: int = 0

    @property
    def n_bloggers(self) -> int:
        return len(self.bloggers)

    def total(self) -> float:
        return float(self.counts.sum())


def build_influence_tensor(links: Links, terms: PostTerms) -> InfluenceTensor:
    """Accumulate one count per (influence link, term that both its posts hold).

    Links whose posts share no such term contribute nothing and are
    counted in ``n_links_no_shared``.
    """
    present, code = np.unique(np.concatenate([links.reader, links.author]), return_inverse=True)
    n, n_b, n_terms = len(links), len(present), len(terms.terms)
    link, term = shared_terms(links, terms)
    keys, counts = np.unique((code[link] * n_b + code[n + link]) * n_terms + term,
                             return_counts=True)
    pair, term = np.divmod(keys, n_terms)
    return InfluenceTensor(
        bloggers=[links.bloggers[b] for b in present.tolist()],
        n_terms=n_terms,
        influenced=pair // n_b,
        influencer=pair % n_b,
        term=term,
        counts=counts.astype(np.float64),
        n_links_no_shared=n - distinct(link).size,
    )


def write_tensor_tsv(tensor: InfluenceTensor, path: str, header: str | None = None) -> None:
    artifacts.write_sections(path, header, {
        "bloggers": [tensor.bloggers],
        "dims": [["n_terms"], [tensor.n_terms]],
        "entries": [tensor.influenced, tensor.influencer, tensor.term,
                    tensor.counts.astype(np.int64)],
    })


def read_tensor_tsv(path: str) -> InfluenceTensor:
    sections = artifacts.read_sections(path, {
        "bloggers": [str], "dims": {"n_terms": (int,)}, "entries": [int] * 4,
    })
    # Contiguous columns: every fit iteration reads them.
    influenced, influencer, term, counts = sections["entries"].copy()
    bloggers = sections["bloggers"][0].values()
    n_terms = sections["dims"]["n_terms"][0]
    artifacts.check_indices(path, "influenced blogger", influenced, len(bloggers))
    artifacts.check_indices(path, "influencer blogger", influencer, len(bloggers))
    artifacts.check_indices(path, "term", term, n_terms)
    if (counts < 1).any():
        raise FormatError(f"{path}: [entries] needs counts >= 1")
    return InfluenceTensor(
        bloggers=bloggers,
        n_terms=n_terms,
        influenced=influenced,
        influencer=influencer,
        term=term,
        counts=counts.astype(float),
    )


# --------------------------------------------------------------------------
# probabilistic Tucker decomposition

@dataclass
class IolapModel:
    core: np.ndarray  # (I, J, K), sums to 1
    influenced_factors: np.ndarray  # (b, I), columns sum to 1
    influencer_factors: np.ndarray  # (b, J), columns sum to 1
    topic_factors: np.ndarray  # (v, K), the topic model's topics, columns sum to 1
    loglik_trace: list[float]
    bloggers: list[str]
    terms: list[str]
    converged: bool = False  # stopped on ``tol`` rather than on ``max_iter``

    @property
    def n_topics(self) -> int:
        return self.core.shape[2]


def _column_stochastic(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return rng.dirichlet(np.ones(rows), size=cols).T


def _iolap_prob(pairs, z_n, core, x_fac, y_fac):
    """P(i, j, k) = V_p . Z_k per nonzero, with V_p = XG_p x2 Y_j and XG_p = core x1 X_i
    per pair p; also XG as (P, J, K)."""
    pi, pj, pair = pairs
    n_i, n_j, n_k = core.shape
    xg = (x_fac[pi] @ core.reshape(n_i, n_j * n_k)).reshape(-1, n_j, n_k)
    v_n = np.take(np.einsum("pbc,pb->cp", xg, y_fac[pj]), pair, axis=1)
    return np.einsum("cn,cn->n", v_n, z_n), xg


def _iolap_e_step(tensor: InfluenceTensor, pairs, z_n, core, x_fac, y_fac):
    """Log-likelihood and expected-count statistics of one EM step.

    ``pairs`` holds the i and j of each distinct (i, j) pair and the pair of
    each nonzero; ``z_n`` is each nonzero's Z_k as (K, nnz).  Returns
    (loglik, core_grad, x_num, y_num): core_grad[a, b, c] is
    sum_n w_n X_ia Y_jb Z_kc with w_n = count_n / P(i, j, k), and x_num and
    y_num are X's and Y's unnormalized M-step rows.  ``fit_iolap``
    describes the contraction.
    """
    pi, pj, pair = pairs
    n_i, n_j, n_k = core.shape
    prob, xg = _iolap_prob(pairs, z_n, core, x_fac, y_fac)
    w_z = tensor.counts / prob * z_n  # w_n Z_k, (K, nnz)
    s = scatter_rows(pair, w_z.T, pi.size)  # S_p = sum_{n in p} w_n Z_k, from contiguous rows
    xi, yj = x_fac[pi], y_fac[pj]
    ys = np.einsum("pb,pc->pbc", yj, s).reshape(pi.size, n_j * n_k)  # Y_j (x) S_p
    x_rows = xi * (ys @ core.reshape(n_i, n_j * n_k).T)
    y_rows = yj * np.einsum("pbc,pc->pb", xg, s)
    return (float((tensor.counts * np.log(prob)).sum()), (xi.T @ ys).reshape(core.shape),
            scatter_rows(pi, x_rows, tensor.n_bloggers),
            scatter_rows(pj, y_rows, tensor.n_bloggers))


def topic_factors_from_model(topic_model: TopicModel) -> np.ndarray:
    """Keyword-mode factor columns from fitted topic-term rows."""
    z = topic_model.p_w_given_t.T.copy()  # v x K
    sums = z.sum(axis=0)
    return z / np.maximum(sums, 1e-300)


def fit_iolap(
    tensor: InfluenceTensor,
    n_influenced_groups: int,
    n_influencer_groups: int,
    topic_model: TopicModel,
    *,
    max_iter: int = 200,
    tol: float = DEFAULT_TOL,
    seed: int = 0,
    init: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> IolapModel:
    """EM for P(i,j,k) = sum_{abc} core_abc X_ia Y_jb Z_kc on sparse counts.

    The keyword factor Z is ``topic_model``'s topics, held fixed, so the
    tensor groups interact through the shared topics.  The core, X and Y
    start from seeded Dirichlet(1) draws, or from ``init`` = (core, X, Y),
    and stay nonnegative and column stochastic after every step.

    Each E-step evaluates the model only at the nonzeros (Kolda and
    Bader, SIAM Review 2009) and does the I*J*K work once per distinct
    (i, j) pair p, not per nonzero: with G the (I, J*K) core unfolding,
    XG_p = X_i G and V_p = XG_p x2 Y_j give P(i, j, k) = V_p . Z_k, so a
    nonzero costs O(K).  One scatter of w_n Z_k over the pairs gives S_p;
    the core statistic is X_i^T (Y_j (x) S_p), one GEMM over the pairs,
    and X and Y take theirs from (Y_j (x) S_p) G^T and XG_p S_p.  The pair
    index is built once per fit, for any entry order, and no temporary is
    wider than (pairs, J*K) or (K, nnz).  ``converged`` on the result
    records whether the fit stopped on ``tol`` (True) or ran out of
    ``max_iter`` (False).
    """
    if tensor.counts.size == 0:
        raise ValueError("empty influence tensor")
    if n_influenced_groups < 1 or n_influencer_groups < 1:
        raise ValueError("group counts must be >= 1")
    if len(topic_model.terms) != tensor.n_terms:
        raise ValueError("topic model vocabulary does not match tensor terms")
    n_bloggers = tensor.n_bloggers
    z_fac = topic_factors_from_model(topic_model)
    if init is not None:
        core, x_fac, y_fac = (np.array(m, dtype=float) for m in init)
    else:
        rng = np.random.default_rng(seed)
        shape = (n_influenced_groups, n_influencer_groups, topic_model.n_topics)
        core = rng.dirichlet(np.ones(np.prod(shape))).reshape(shape)
        x_fac = _column_stochastic(rng, n_bloggers, n_influenced_groups)
        y_fac = _column_stochastic(rng, n_bloggers, n_influencer_groups)
    keys, pair = np.unique(tensor.influenced * n_bloggers + tensor.influencer, return_inverse=True)
    pairs = (keys // n_bloggers, keys % n_bloggers, pair)  # i, j per pair; pair per nonzero
    z_n = np.take(z_fac.T, tensor.term, axis=1)

    trace: list[float] = []
    converged = False
    prev = None
    for iteration in range(max_iter):
        loglik, core_grad, x_num, y_num = _iolap_e_step(tensor, pairs, z_n, core, x_fac, y_fac)
        if not np.isfinite(loglik):
            raise ArithmeticError(f"non-finite log-likelihood at iteration {iteration}")
        trace.append(loglik)

        core_new = core * core_grad
        core_new /= core_new.sum()
        x_sums = x_num.sum(axis=0)
        x_fac = np.where(x_sums > 0, x_num / np.maximum(x_sums, 1e-300), x_fac)
        y_sums = y_num.sum(axis=0)
        y_fac = np.where(y_sums > 0, y_num / np.maximum(y_sums, 1e-300), y_fac)
        core = core_new

        if prev is not None and abs(loglik - prev) <= tol * abs(prev):
            converged = True
            break
        prev = loglik

    final = float((tensor.counts * np.log(_iolap_prob(pairs, z_n, core, x_fac, y_fac)[0])).sum())
    if not np.isfinite(final):
        raise ArithmeticError("non-finite log-likelihood after final step")
    trace.append(final)

    return IolapModel(
        core=core,
        influenced_factors=x_fac,
        influencer_factors=y_fac,
        topic_factors=z_fac,
        loglik_trace=trace,
        bloggers=list(tensor.bloggers),
        terms=list(topic_model.terms),
        converged=converged,
    )


def iolap_topic_influencers(model: IolapModel, topic: int) -> list[tuple[str, float]]:
    """Bloggers ranked by P(influencer | topic); scores sum to one.

    P(j | t) = sum_b Y_jb pi(b | t) with pi(b | t) proportional to the
    core mass sum_a core_abt.
    """
    if not 0 <= topic < model.n_topics:
        raise IndexError(f"topic {topic} out of range 0..{model.n_topics - 1}")
    pi = model.core[:, :, topic].sum(axis=0)
    total = pi.sum()
    pi = pi / total if total > 0 else np.full(pi.shape, 1.0 / pi.size)
    scores = model.influencer_factors @ pi
    return [(model.bloggers[b], float(scores[b]))
            for b in np.argsort(-scores, kind="stable").tolist()]


# --------------------------------------------------------------------------
# conditional link models (popularity + communities)

@dataclass
class BloggerGraph:
    """Directed blogger graph with integer link multiplicities as weights."""

    nodes: list[str]
    src: np.ndarray
    dst: np.ndarray
    weight: np.ndarray

    @classmethod
    def from_edge_weights(cls, edges: dict[tuple[str, str], float]) -> "BloggerGraph":
        nodes = sorted({a for a, _ in edges} | {b for _, b in edges})
        index = {b: i for i, b in enumerate(nodes)}
        items = sorted(edges.items())
        return cls(
            nodes=nodes,
            src=np.array([index[a] for (a, _), _ in items], dtype=np.int64),
            dst=np.array([index[b] for (_, b), _ in items], dtype=np.int64),
            weight=np.array([float(w) for _, w in items]),
        )

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    def in_degree(self) -> np.ndarray:
        return np.bincount(self.dst, minlength=self.n_nodes).astype(float)

    def in_weight(self) -> np.ndarray:
        return np.bincount(self.dst, weights=self.weight, minlength=self.n_nodes)


def blogger_content_matrix(nodes: list[str], terms: PostTerms) -> np.ndarray:
    """Per-blogger L1-normalized sums of their posts' term counts, rows
    aligned to nodes."""
    post, term, count = terms.entries.T
    n_terms = len(terms.terms)
    index = {b: i for i, b in enumerate(nodes)}
    row = np.array([index.get(author, -1) for _, author in terms.posts], dtype=np.int64)[post]
    at = row >= 0
    mat = np.bincount(row[at] * n_terms + term[at], weights=count[at],
                      minlength=len(nodes) * n_terms).reshape(len(nodes), n_terms)
    sums = mat.sum(axis=1, keepdims=True)
    return np.divide(mat, sums, out=np.zeros(mat.shape), where=sums > 0)


@dataclass
class PcldcModel:
    popularity: np.ndarray  # per-blogger positive weight
    content_weights: np.ndarray  # (v, K) softmax weights tying topics to terms
    memberships: np.ndarray  # (b, K) rows sum to 1, derived from content
    objective_trace: list[float]
    nodes: list[str]
    terms: list[str]

    @property
    def n_communities(self) -> int:
        return self.memberships.shape[1]


@dataclass
class PclModel:
    popularity: np.ndarray
    memberships: np.ndarray  # free row-stochastic parameters
    objective_trace: list[float]
    nodes: list[str]

    @property
    def n_communities(self) -> int:
        return self.memberships.shape[1]


def _softmax_rows(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


class _LinkState(NamedTuple):
    """The link model at memberships ``y`` and popularity ``bpop``: denom[i, k]
    = sum over i's out-neighbors j of y_jk b_j, comp[e, k] the k-th mixture
    component of edge e, p_edge its sum over k, and the objective."""

    y: np.ndarray
    bpop: np.ndarray
    denom: np.ndarray
    comp: np.ndarray
    p_edge: np.ndarray
    objective: float


def _link_state(graph: BloggerGraph, y: np.ndarray, bpop: np.ndarray) -> _LinkState:
    """The link model at memberships ``y`` and popularity ``bpop``; its objective is
    the weighted log-likelihood of the links, each edge (i -> j) contributing
    s_ij log sum_k y_ik y_jk b_j / D_ik, where D_ik normalizes over i's out-links."""
    src, dst = graph.src, graph.dst
    denom = scatter_rows(src, y[dst] * bpop[dst][:, None], y.shape[0])
    num = y[src] * y[dst] * bpop[dst][:, None]
    comp = np.divide(num, denom[src], out=np.zeros_like(num), where=denom[src] > 0)
    p_edge = comp.sum(axis=1)
    with np.errstate(divide="ignore"):
        logp = np.log(p_edge)
    return _LinkState(y, bpop, denom, comp, p_edge, float(graph.weight @ logp))


def _posterior_masses(graph: BloggerGraph, state: _LinkState):
    """E-step aggregates shared by the popularity and membership updates."""
    y, _, denom, comp, p_edge, _ = state
    if np.any(p_edge <= 0):
        raise ArithmeticError("zero-probability edge in conditional link model")
    q = comp / p_edge[:, None]
    wq = graph.weight[:, None] * q
    n = y.shape[0]
    out_mass = scatter_rows(graph.src, wq, n)  # sum of posterior link mass leaving i
    in_mass = scatter_rows(graph.dst, wq, n)  # sum of posterior link mass entering j
    ratio = np.divide(out_mass, denom, out=np.zeros_like(out_mass), where=denom > 0)
    # sum over i with j in LO(i) of out_mass/denom
    denom_mass = scatter_rows(graph.dst, ratio[graph.src], n)
    return out_mass, in_mass, denom_mass


def _update_popularity(graph: BloggerGraph, state: _LinkState) -> _LinkState:
    """The state after the closed-form minorize-maximize update of the
    popularity weights.

    b_j = (weighted in-degree of j) / sum_k y_jk sum_{i: j in LO(i)}
    out_mass_ik / denom_ik; nodes without in-links keep their value (they
    never appear as link targets, so their popularity is unidentified).
    The objective is invariant to a global rescaling, so the result is
    normalized to mean one.
    """
    _, _, denom_mass = _posterior_masses(graph, state)
    d = (state.y * denom_mass).sum(axis=1)
    new = np.where(d > 0, graph.in_weight() / np.maximum(d, 1e-300), state.bpop)
    return _link_state(graph, state.y, new / new.mean())


# Bracket narrowing for the membership solve (see _narrow_brackets).
_NEWTON_STEPS = 5
_PROBE_SPACINGS = 4096
_PROVEN_STEPS = 90  # below the loop's cap of 100: a margin for rounded midpoints


def _multiplier_sum(a: np.ndarray, c: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """h(lam) = sum_k a_k / (lam + c_k) per row, the sum the bisection tests."""
    return (a / (lam + c)).sum(axis=1, keepdims=True)


def _narrow_brackets(a: np.ndarray, c: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """Sub-brackets [L, H] of [lo, hi] with h(L) > 1 >= h(H), and the mask of
    the rows that got one; every other row keeps [lo, hi].

    Newton steps on 1/h, concave and increasing, move lam up from lo:
    lam += h (h - 1) / sum_k a_k / (lam + c_k)^2.  L and H lie 4096
    spacings either side of the estimate, and a row keeps them only where h
    brackets 1 there, L and H have one sign, and bisecting [lo, hi] down to
    the spacing at min(|L|, |H|) takes at most 90 steps.
    """
    with np.errstate(all="ignore"):
        lam = lo
        for _ in range(_NEWTON_STEPS):
            t = lam + c
            q = a / t
            h = q.sum(axis=1, keepdims=True)
            lam = lam + h * (h - 1.0) / (q / t).sum(axis=1, keepdims=True)
        width = _PROBE_SPACINGS * np.spacing(np.abs(lam))
        left = np.maximum(lam - width, lo)
        right = np.minimum(lam + width, hi)
        steps = np.log2((hi - lo) / np.spacing(np.minimum(np.abs(left), np.abs(right))))
        ok = ((_multiplier_sum(a, c, left) > 1.0) & (_multiplier_sum(a, c, right) <= 1.0)
              & (np.sign(left) == np.sign(right)) & (steps <= _PROVEN_STEPS))
    return np.where(ok, left, lo), np.where(ok, right, hi), ok


def _solve_membership_rows(alpha: np.ndarray, cost: np.ndarray, y_old: np.ndarray) -> np.ndarray:
    """Per-row maximize sum_k alpha log y - cost y on the probability simplex.

    The stationarity condition y_k = alpha_k / (lam + cost_k) is solved by
    bisection on the row multiplier lam; entries with (numerically) zero
    alpha get zero mass.  Rows with no mass at all keep their old values.

    In floating point h(lam) = sum_k alpha_k / (lam + cost_k) is
    non-increasing in lam: correctly rounded + and / are monotone, and a row
    sum adds its terms in one fixed order.  So bisection from any bracket
    with h(lo) > 1 >= h(hi) ends at the one adjacent pair of doubles where h
    crosses 1.  ``_narrow_brackets`` hands the loop such a sub-bracket, and
    the wide bracket around it then holds h(lo) > 1 >= h(hi) too, so both
    end at that pair.  A row whose wide bracket needs more than 100 steps (a
    multiplier at or near 0, where the doubles lie densely) ends wherever
    step 100 left it; only rows proven to finish within 90 steps are
    narrowed, so every other row bisects as before and keeps that answer.
    """
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
    lo = -cmin + 0.5 * mass_at_min  # h(lo) >= 2
    hi = -cmin + tot  # h(hi) <= 1
    lo, hi, _ = _narrow_brackets(a, c, lo, hi)
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        h = _multiplier_sum(a, c, mid)
        too_big = h > 1.0
        new_lo = np.where(too_big, mid, lo)
        new_hi = np.where(too_big, hi, mid)
        # The brackets are the whole state: a step that moves neither is the fixed point.
        if np.array_equal(new_lo, lo) and np.array_equal(new_hi, hi):
            break
        lo, hi = new_lo, new_hi
    lam = 0.5 * (lo + hi)
    rows = np.where(act, a / (lam + c), 0.0)
    rows /= rows.sum(axis=1, keepdims=True)
    y[live] = rows
    return y


def fit_pcl(
    graph: BloggerGraph,
    n_communities: int,
    *,
    max_iter: int = 200,
    tol: float = DEFAULT_TOL,
    seed: int = 0,
) -> PclModel:
    """Fit the content-free conditional link model by EM.

    Memberships start from seeded Dirichlet(1) rows and popularity from
    in-degree + 1.  Each outer iteration applies the closed-form
    popularity update and an exact membership M-step, so the objective
    trace is non-decreasing.  The state that scores an iteration is the
    one the next popularity update starts from.
    """
    if n_communities < 1:
        raise ValueError("n_communities must be >= 1")
    y = np.random.default_rng(seed).dirichlet(np.ones(n_communities), size=graph.n_nodes)
    state = _link_state(graph, y, graph.in_degree() + 1.0)
    trace = [state.objective]
    for iteration in range(max_iter):
        state = _update_popularity(graph, state)
        out_mass, in_mass, denom_mass = _posterior_masses(graph, state)
        y = _solve_membership_rows(out_mass + in_mass, state.bpop[:, None] * denom_mass, state.y)
        y = np.maximum(y, 1e-12)
        y /= y.sum(axis=1, keepdims=True)
        state = _link_state(graph, y, state.bpop)
        if not np.isfinite(state.objective):
            raise ArithmeticError(f"non-finite objective at iteration {iteration}")
        trace.append(state.objective)
        if abs(trace[-1] - trace[-2]) <= tol * abs(trace[-2]):
            break
    return PclModel(popularity=state.bpop, memberships=state.y, objective_trace=trace,
                    nodes=list(graph.nodes))


def _content_gradient(graph: BloggerGraph, content: np.ndarray, state: _LinkState) -> np.ndarray:
    out_mass, in_mass, denom_mass = _posterior_masses(graph, state)
    y = state.y
    g_y = (out_mass + in_mass) / y - state.bpop[:, None] * denom_mass
    inner = (y * g_y).sum(axis=1, keepdims=True)
    return content.T @ (y * (g_y - inner))


def fit_pcldc(
    graph: BloggerGraph,
    content: np.ndarray,
    n_communities: int,
    terms: list[str],
    *,
    max_iter: int = 100,
    tol: float = DEFAULT_TOL,
    seed: int = 0,
) -> PcldcModel:
    """Fit the content-tied conditional link model; ``terms`` names the
    content columns.

    Alternates the closed-form popularity update with up to five
    gradient-ascent steps on the content weights; each step backtracks by
    halving from step size 1.0 and is only accepted if the objective does
    not decrease, keeping the trace monotone.  The state of the accepted
    weights is kept: it gives the next gradient and the next popularity
    update.
    """
    if n_communities < 1:
        raise ValueError("n_communities must be >= 1")
    if content.shape[0] != graph.n_nodes:
        raise ValueError("content rows must align with graph nodes")
    weights = 0.01 * np.random.default_rng(seed).standard_normal((content.shape[1], n_communities))
    state = _link_state(graph, _softmax_rows(content @ weights), graph.in_degree() + 1.0)
    trace = [state.objective]
    for iteration in range(max_iter):
        state = _update_popularity(graph, state)
        for _ in range(5):
            grad = _content_gradient(graph, content, state)
            step = 1.0
            for _ in range(30):
                trial = weights + step * grad
                scored = _link_state(graph, _softmax_rows(content @ trial), state.bpop)
                if np.isfinite(scored.objective) and scored.objective >= state.objective:
                    weights, state = trial, scored
                    break
                step *= 0.5
            else:
                break
        if not np.isfinite(state.objective):
            raise ArithmeticError(f"non-finite objective at iteration {iteration}")
        trace.append(state.objective)
        if abs(trace[-1] - trace[-2]) <= tol * abs(trace[-2]):
            break
    return PcldcModel(
        popularity=state.bpop,
        content_weights=weights,
        memberships=state.y,
        objective_trace=trace,
        nodes=list(graph.nodes),
        terms=list(terms),
    )


def pcldc_topic_influencers(
    model: PcldcModel | PclModel, community: int
) -> list[tuple[str, float]]:
    """Bloggers ranked by membership-weighted popularity in one community."""
    if not 0 <= community < model.n_communities:
        raise IndexError(f"community {community} out of range")
    scores = model.memberships[:, community] * model.popularity
    total = scores.sum()
    if total > 0:
        scores = scores / total
    return [(model.nodes[b], float(scores[b]))
            for b in np.argsort(-scores, kind="stable").tolist()]


# --------------------------------------------------------------------------
# model checkpoints

def write_iolap_model(model: IolapModel, path: str, header: str | None = None) -> None:
    artifacts.write_sections(path, header, {
        "meta": [["shape"], *([size] for size in model.core.shape)],
        "core": artifacts.cell_columns(model.core),
        "influenced_factors": artifacts.cell_columns(model.influenced_factors, model.bloggers),
        "influencer_factors": artifacts.cell_columns(model.influencer_factors, model.bloggers),
    })


def read_iolap_model(path: str, topic_model: TopicModel) -> IolapModel:
    """The model ``write_iolap_model`` wrote, its keyword factor and terms
    rebuilt from ``topic_model``, the topics it was fitted with."""
    sections = artifacts.read_sections(path, {
        "meta": {"shape": (int, int, int)},
        "core": [int, int, int, float],
        "influenced_factors": [str, int, float],
        "influencer_factors": [str, int, float],
    })
    shape = tuple(sections["meta"]["shape"])
    if min(shape) < 1 or shape[2] != topic_model.n_topics:
        raise FormatError(f"{path}: [meta] shape {shape} needs I, J >= 1 and K = "
                          f"{topic_model.n_topics}, the topic model's topic count")
    core, _ = artifacts.cell_array(path, sections, "core", *shape)
    x_fac, (bloggers, _) = artifacts.cell_array(path, sections, "influenced_factors", None,
                                                shape[0])
    y_fac, _ = artifacts.cell_array(path, sections, "influencer_factors", bloggers, shape[1])
    return IolapModel(
        core=core,
        influenced_factors=x_fac,
        influencer_factors=y_fac,
        topic_factors=topic_factors_from_model(topic_model),
        loglik_trace=[],
        bloggers=bloggers,
        terms=list(topic_model.terms),
    )


def write_pcldc_model(model: PcldcModel, path: str, header: str | None = None) -> None:
    artifacts.write_sections(path, header, {
        "popularity": artifacts.cell_columns(model.popularity, model.nodes),
        "memberships": artifacts.cell_columns(model.memberships, model.nodes),
        "content_weights": artifacts.cell_columns(model.content_weights, model.terms),
    })


def read_pcldc_model(path: str) -> PcldcModel:
    sections = artifacts.read_sections(path, {
        "popularity": [str, float],
        "memberships": [str, int, float],
        "content_weights": [str, int, float],
    })
    popularity, (nodes,) = artifacts.cell_array(path, sections, "popularity", None)
    memberships, _ = artifacts.cell_array(path, sections, "memberships", nodes, None)
    weights, (terms, _) = artifacts.cell_array(path, sections, "content_weights", None,
                                               memberships.shape[1])
    return PcldcModel(
        popularity=popularity,
        content_weights=weights,
        memberships=memberships,
        objective_trace=[],
        nodes=nodes,
        terms=terms,
    )


def write_pcl_model(model: PclModel, path: str, header: str | None = None) -> None:
    artifacts.write_sections(path, header, {
        "popularity": artifacts.cell_columns(model.popularity, model.nodes),
        "memberships": artifacts.cell_columns(model.memberships, model.nodes),
    })


def read_pcl_model(path: str) -> PclModel:
    sections = artifacts.read_sections(
        path, {"popularity": [str, float], "memberships": [str, int, float]}
    )
    popularity, (nodes,) = artifacts.cell_array(path, sections, "popularity", None)
    memberships, _ = artifacts.cell_array(path, sections, "memberships", nodes, None)
    return PclModel(
        popularity=popularity, memberships=memberships, objective_trace=[], nodes=nodes
    )
