"""Influence diversity, the edge-holdout protocol, recommenders, and recall.

The recommenders answer "which blogger, among those A has not read, will
most influence A on keywords W".  The global one ranks the same list for
everybody given W; the personalized ones condition on A through the
fitted factor models.  Recall-at-N over held-out influence edges is the
extrinsic yardstick; candidates always exclude A itself and A's training
out-neighbors to avoid recommending already-read bloggers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Sequence

import numpy as np

from blogfluence import artifacts
from blogfluence.corpus import FormatError, lexorder
from blogfluence.factor import IolapModel, PcldcModel, PclModel
from blogfluence.implicit import ImplicitNetwork
from blogfluence.textvec import PostTerms, shared_terms
from blogfluence.topics import TopicModel


class UnanswerableQuery(Exception):
    """No query keyword is in the model vocabulary (or no keywords at all)."""


class UnknownMember(KeyError, ValueError):
    """A member that the model lacks: a failed lookup, and a refusal of the query."""


# --------------------------------------------------------------------------
# influence diversity ratio

def idr(rankings: Sequence[Sequence[tuple[str, float]]], n: int) -> float:
    """Diversity of per-topic top-n influencer lists, scaled to [0, 1].

    With K topics and C the number of distinct bloggers among all the
    per-topic top-n lists, returns (C - n) / (n (K - 1)): 0 when every
    topic ranks the same n bloggers on top, 1 when no two topics share
    any of them.
    """
    k = len(rankings)
    if k < 2:
        raise ValueError("need at least two topic rankings")
    if n < 1:
        raise ValueError("n must be >= 1")
    for ranking in rankings:
        if len(ranking) < n:
            raise ValueError(f"a ranking has fewer than {n} entries")
    union: set[str] = set()
    for ranking in rankings:
        union.update(b for b, _ in ranking[:n])
    return (len(union) - n) / (n * (k - 1))


def idr_curve(rankings: Sequence[Sequence[tuple[str, float]]], n_max: int) -> list[tuple[int, float]]:
    limit = min(n_max, min(len(r) for r in rankings))
    return [(n, idr(rankings, n)) for n in range(1, limit + 1)]


# --------------------------------------------------------------------------
# train/test split

@dataclass
class TrainTestSplit:
    train_edges: dict[tuple[str, str], int]
    test: list[tuple[str, str, frozenset[str]]]  # (A, B, held-out keyword set)
    nodes: list[str]  # bloggers appearing in the training graph


def split_train_test(
    influence_net: ImplicitNetwork,
    terms: PostTerms,
    seed: int | Sequence[int],
) -> TrainTestSplit:
    """Hold out one random out-edge per blogger with out-degree >= 2.

    The held-out keyword set is the union of the shared terms over all
    post-level influence pairs underlying the removed blogger edge.
    Bloggers with a single out-edge keep it (removing it would leave them
    unusable in training), so every test source retains at least one
    training out-edge.
    """
    links = influence_net.links
    pairs, which, counts = links.pairs()
    out: dict[str, list[int]] = {}  # blogger -> its out-edges, as positions in pairs
    for i, (a, _) in enumerate(pairs):  # ascending, so each list is in target order
        out.setdefault(a, []).append(i)
    if not any(len(t) >= 2 for t in out.values()):
        raise ValueError("no blogger has out-degree >= 2; nothing to hold out")

    # The shared terms of every edge's links, as one run per edge.
    link, term = shared_terms(links, terms)
    edge = which[link]
    order = lexorder(edge)
    term = term[order].tolist()
    bounds = edge[order].searchsorted(np.arange(len(pairs) + 1)).tolist()

    rng = np.random.default_rng(seed)
    train_edges = dict(zip(pairs, counts.tolist()))
    test: list[tuple[str, str, frozenset[str]]] = []
    for a in sorted(out):
        targets = out[a]
        if len(targets) < 2:
            continue
        held = targets[int(rng.integers(len(targets)))]
        b = pairs[held][1]
        keywords = frozenset(terms.terms[k][0] for k in term[bounds[held]:bounds[held + 1]])
        test.append((a, b, keywords))
        del train_edges[(a, b)]
    nodes = sorted({x for pair in train_edges for x in pair})
    return TrainTestSplit(train_edges=train_edges, test=test, nodes=nodes)


_TRAIN_COLUMNS = ("src", "dst", "weight")
_TEST_COLUMNS = ("src", "dst", "keywords")


def write_split(split: TrainTestSplit, train_path: str, test_path: str,
                header: str | None = None) -> None:
    train = ((a, b, w) for (a, b), w in sorted(split.train_edges.items()))
    artifacts.write_rows(train_path, header, list(zip(*train)), _TRAIN_COLUMNS)
    test = ((a, b, ",".join(sorted(kws))) for a, b, kws in split.test)
    artifacts.write_rows(test_path, header, list(zip(*test)), _TEST_COLUMNS)


def read_split(train_path: str, test_path: str) -> TrainTestSplit:
    src, dst, weight = artifacts.read_columns(train_path, (str, str, int), _TRAIN_COLUMNS)
    train_edges = dict(zip(zip(src.values(), dst.values()), weight.tolist()))
    test = [
        (a, b, frozenset(k for k in kws.split(",") if k))
        for a, b, kws in zip(*(column.values() for column in artifacts.read_columns(
            test_path, (str, str, str), _TEST_COLUMNS)))
    ]
    if not test:
        raise FormatError(f"{test_path}: no test pairs")
    # src and dst are coded over one table: the names of either column.
    return TrainTestSplit(train_edges=train_edges, test=test, nodes=sorted(src.names))


# --------------------------------------------------------------------------
# recommenders

@lru_cache(maxsize=8)
def _index(names: tuple[str, ...]) -> dict[str, int]:
    return {name: i for i, name in enumerate(names)}


def _keyword_indices(terms: Sequence[str], keywords: Iterable[str]) -> list[int]:
    index = _index(tuple(terms))  # built once per model vocabulary
    found = sorted({index[w] for w in keywords if w in index})
    if not found:
        raise UnanswerableQuery("no query keyword is in the model vocabulary")
    return found


def topic_posterior(topic_model: TopicModel, keywords: Iterable[str]) -> np.ndarray:
    """P(topic | keywords) with a naive-Bayes keyword likelihood and the
    fitted topic prior, computed in the log domain."""
    kw = _keyword_indices(topic_model.terms, keywords)
    with np.errstate(divide="ignore"):
        log_post = np.log(topic_model.p_t) + np.log(topic_model.p_w_given_t[:, kw]).sum(axis=1)
    shift = log_post.max()
    if not np.isfinite(shift):
        raise UnanswerableQuery("query keywords have zero probability in every topic")
    post = np.exp(log_post - shift)
    return post / post.sum()


def _member(bloggers: Sequence[str], member: str) -> int:
    try:
        return _index(tuple(bloggers))[member]
    except KeyError:
        raise UnknownMember(f"unknown member {member!r}") from None


def _candidates(bloggers: Sequence[str], exclude: Iterable[str]) -> np.ndarray:
    """Which of ``bloggers`` are not in ``exclude``, as a mask."""
    index = _index(tuple(bloggers))  # built once per model
    mask = np.ones(len(bloggers), dtype=bool)
    mask[[index[b] for b in set(exclude) if b in index]] = False
    return mask


def _rank_candidates(
    bloggers: Sequence[str], scores: np.ndarray, candidates: np.ndarray, n: int
) -> list[tuple[str, float]]:
    candidates = np.flatnonzero(candidates)  # ascending, so the total sums in index order
    if not candidates.size:
        return []
    total = float(scores[candidates].sum())
    if total > 0:
        normalized = scores / total
    else:
        normalized = np.full(len(bloggers), 1.0 / candidates.size)
    # Stable: equal scores keep ascending blogger index.
    ranked = candidates[np.argsort(-normalized[candidates], kind="stable")[:n]]
    return [(bloggers[i], float(normalized[i])) for i in ranked.tolist()]


def influencer_topic_matrix(model: IolapModel) -> np.ndarray:
    """Column t holds P(influencer blogger | topic t); columns sum to one."""
    pi = model.core.sum(axis=0)  # (J, K)
    sums = pi.sum(axis=0)
    pi = np.divide(pi, sums, out=np.full_like(pi, 1.0 / pi.shape[0]), where=sums > 0)
    return model.influencer_factors @ pi


def recommend_tg(
    iolap_model: IolapModel,
    topic_model: TopicModel,
    keywords: Iterable[str],
    n: int,
    exclude: Iterable[str] = (),
) -> list[tuple[str, float]]:
    """Topic-specific global recommendation: P(B|W) = sum_t P(B|t) P(t|W).

    The ranking depends only on the keywords, never on who is asking.
    """
    if iolap_model.n_topics != topic_model.n_topics:
        raise ValueError("tensor model and topic model disagree on topic count")
    post = topic_posterior(topic_model, keywords)
    scores = influencer_topic_matrix(iolap_model) @ post
    bloggers = iolap_model.bloggers
    return _rank_candidates(bloggers, scores, _candidates(bloggers, exclude), n)


def recommend_iolap(
    model: IolapModel,
    member: str,
    keywords: Iterable[str],
    n: int,
    exclude: Iterable[str] = (),
) -> list[tuple[str, float]]:
    """Personalized ranking from the joint tensor model: score(B) is the
    model mass on (member, B, w) summed over the query keywords."""
    a = _member(model.bloggers, member)
    kw = _keyword_indices(model.terms, keywords)
    term_mass = model.topic_factors[kw, :].sum(axis=0)  # (K,)
    member_core = np.einsum("a,abc->bc", model.influenced_factors[a], model.core)
    scores = model.influencer_factors @ (member_core @ term_mass)
    return _rank_candidates(model.bloggers, scores, _candidates(model.bloggers, exclude), n)


def _pcl_family_ranking(
    model: PcldcModel | PclModel, community_posterior: np.ndarray, exclude: Iterable[str], n: int
) -> list[tuple[str, float]]:
    candidates = _candidates(model.nodes, exclude)
    weighted = model.memberships * model.popularity[:, None]  # (b, K)
    denom = (weighted * candidates[:, None]).sum(axis=0)
    frac = np.divide(weighted, denom, out=np.zeros_like(weighted), where=denom > 0)
    return _rank_candidates(model.nodes, frac @ community_posterior, candidates, n)


def recommend_pcldc(
    model: PcldcModel,
    member: str,
    keywords: Iterable[str],
    n: int,
    exclude: Iterable[str] = (),
) -> list[tuple[str, float]]:
    """Personalized ranking from the content-tied block model.

    P(k|member, W) combines the member's memberships with the per-topic
    keyword likelihood (content weight columns renormalized by softmax
    over the vocabulary); candidates are then scored by their
    membership-weighted popularity within each community.
    """
    a = _member(model.nodes, member)
    kw = _keyword_indices(model.terms, keywords)
    logits = model.content_weights - model.content_weights.max(axis=0, keepdims=True)
    log_norm = np.log(np.exp(logits).sum(axis=0))
    log_kw = (logits[kw, :] - log_norm).sum(axis=0)
    with np.errstate(divide="ignore"):
        log_post = np.log(model.memberships[a]) + log_kw
    shift = log_post.max()
    if not np.isfinite(shift):
        raise UnanswerableQuery("query keywords have zero weight in every community")
    post = np.exp(log_post - shift)
    post /= post.sum()
    return _pcl_family_ranking(model, post, exclude, n)


def recommend_pcl(
    model: PclModel,
    member: str,
    keywords: Iterable[str],
    n: int,
    exclude: Iterable[str] = (),
) -> list[tuple[str, float]]:
    """Content-free variant: the community posterior is the member's
    membership row alone, so the keywords cannot steer the ranking."""
    a = _member(model.nodes, member)
    post = model.memberships[a] / model.memberships[a].sum()
    return _pcl_family_ranking(model, post, exclude, n)


Recommender = Callable[[str, list[str], int, set[str]], list[tuple[str, float]]]


def recommenders(iolap_model: IolapModel, topic_model: TopicModel, pcldc_model: PcldcModel,
                 pcl_model: PclModel) -> dict[str, Recommender]:
    """The four methods by name, each a recommender over its fitted models."""
    return {
        "tg": lambda member, kw, n, excl: recommend_tg(iolap_model, topic_model, kw, n, excl),
        "iolap": lambda member, kw, n, excl: recommend_iolap(iolap_model, member, kw, n, excl),
        "pcldc": lambda member, kw, n, excl: recommend_pcldc(pcldc_model, member, kw, n, excl),
        "pcl": lambda member, kw, n, excl: recommend_pcl(pcl_model, member, kw, n, excl),
    }


# --------------------------------------------------------------------------
# evaluation

def recall_curve(split: TrainTestSplit, recommender: Recommender, top_n: int) -> list[float]:
    """recall@1..top_n: entry n-1 is the fraction of held-out (A, B) pairs
    with B in the top-n list for (A, held-out keywords).

    Each query is ranked once, at ``top_n``, and recall@n is read off the
    rank of the first hit; this equals ranking again per n because a
    ranking's top-n is the prefix of its top-``top_n``.  A query the
    recommender cannot answer counts as a miss.
    """
    if not split.test:
        raise ValueError("empty test set")
    if top_n < 1:
        raise ValueError("top_n must be >= 1")
    followed: dict[str, set[str]] = {}
    for a, b in split.train_edges:
        followed.setdefault(a, set()).add(b)
    hits_at_rank = [0] * top_n
    for a, b, keywords in split.test:
        exclude = {a} | followed.get(a, set())
        try:
            recs = recommender(a, sorted(keywords), top_n, exclude)
        except UnanswerableQuery:
            continue
        for rank, (name, _) in enumerate(recs[:top_n]):
            if name == b:
                hits_at_rank[rank] += 1
                break
    curve = []
    hits = 0
    for count in hits_at_rank:
        hits += count
        curve.append(hits / len(split.test))
    return curve


def recall_at_n(split: TrainTestSplit, recommender: Recommender, n: int) -> float:
    """recall@n alone; see ``recall_curve``."""
    return recall_curve(split, recommender, n)[-1]
