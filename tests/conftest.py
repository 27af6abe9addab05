import numpy as np
import pytest

from blogfluence.corpus import AccessRecord, BlogPost, Corpus
from blogfluence.implicit import Links
from blogfluence.textvec import PostTerms

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


def links_table(rows):
    """The ``Links`` table of ``(q, p, reader, author, gap[, similarity])``
    rows; a similarity that is missing or None is NaN."""
    rows = list(rows)
    table = Links.from_columns(*([row[i] for row in rows] for i in range(5)))
    table.similarity = np.array(
        [np.nan if len(row) < 6 or row[5] is None else row[5] for row in rows], dtype=float)
    return table


def post_terms(vectors, n_terms):
    """Post terms whose space over ``n_terms`` terms holds ``vectors``: the
    vector index of a term is its rank."""
    urls = sorted(vectors)
    entries = [(d, t, c) for d, url in enumerate(urls) for t, c in vectors[url].entries.items()]
    return PostTerms([(f"t{i}", 1) for i in range(n_terms)], [(url, "a") for url in urls],
                     np.array(entries, dtype=np.int64).reshape(-1, 3))


@pytest.fixture
def hour():
    return 3600
