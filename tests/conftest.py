from dataclasses import dataclass

import numpy as np
import pytest

from blogfluence.corpus import AccessRecord, Activity, BlogPost, Corpus
from blogfluence.implicit import Links
from blogfluence.textvec import PostTerms, Vocabulary
from blogfluence.topics import build_doc_term

# 2008-09-01T00:00:00Z, a Monday.
BASE_TS = 1220227200


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


def make_corpus(posts, accesses):
    return Corpus.from_records(posts, accesses)


def make_activity(posts, accesses=()):
    return Activity.from_corpus(make_corpus(posts, accesses))


def links_table(rows):
    """The ``Links`` table of ``(q, p, reader, author, gap[, similarity])``
    rows; a similarity that is missing or None is NaN."""
    rows = list(rows)
    table = Links.from_columns(*([row[i] for row in rows] for i in range(5)))
    table.similarity = np.array(
        [np.nan if len(row) < 6 or row[5] is None else row[5] for row in rows], dtype=float)
    return table


# --------------------------------------------------------------------------
# The per-post dict vectors the model stages used before they read the
# post-term columns, kept as the oracle the columns are checked against.

@dataclass
class TermVector:
    """Sparse raw term-frequency vector over vocabulary indices."""

    entries: dict[int, int]
    token_count: int  # sum of kept (in-vocabulary) token counts


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
    """Each post's counts of the ``max_size``-term vocabulary's terms."""
    _, term, count, bounds = terms.capped(max_size)
    bounds, term, count = bounds.tolist(), term.tolist(), count.tolist()
    vectors = {}
    for (url, _), lo, hi in zip(terms.posts, bounds, bounds[1:]):
        entries = dict(zip(term[lo:hi], count[lo:hi]))
        vectors[url] = TermVector(entries, sum(entries.values()))
    return VectorSpace(terms.vocabulary(max_size), vectors, dict(terms.posts))


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
    return build_doc_term(post_terms(docs, n_terms), n_terms, docs)


@pytest.fixture
def hour():
    return 3600
