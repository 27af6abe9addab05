"""Tokenization, vocabulary building, and sparse term-vector similarity."""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

from blogfluence import artifacts

_WORD_RE = re.compile(r"\w+", re.UNICODE)

DEFAULT_STOPWORDS = frozenset(
    """a an and are as at be but by for from had has have he her his i if in is
    it its me my no not of on or our she so that the their them they this to
    was we were will with you your""".split()
)


@dataclass(frozen=True)
class TokenizerConfig:
    stopwords: frozenset[str] = DEFAULT_STOPWORDS
    min_len: int = 2


_DEFAULT_TOKENIZER = TokenizerConfig()


def tokenize(text: str, config: TokenizerConfig | None = None) -> list[str]:
    """Unicode-word tokens, lowercased, stopwords and short tokens dropped."""
    cfg = config or _DEFAULT_TOKENIZER
    return [
        tok
        for tok in map(str.lower, _WORD_RE.findall(text))
        if len(tok) >= cfg.min_len and tok not in cfg.stopwords
    ]


@dataclass
class Vocabulary:
    terms: list[str]
    doc_freq: list[int]
    index: dict[str, int]

    def __len__(self) -> int:
        return len(self.terms)


def build_vocabulary(docs: Iterable[Sequence[str]], max_size: int) -> Vocabulary:
    """Keep the ``max_size`` terms with highest document frequency.

    Ties are broken lexicographically, so truncation is deterministic and
    never keeps a term with strictly lower document frequency than a
    dropped one.
    """
    if max_size < 1:
        raise ValueError("max_size must be >= 1")
    df: Counter[str] = Counter()
    for tokens in docs:
        df.update(set(tokens))
    ranked = sorted(df.items(), key=lambda kv: (-kv[1], kv[0]))[:max_size]
    terms = [t for t, _ in ranked]
    return Vocabulary(
        terms=terms,
        doc_freq=[c for _, c in ranked],
        index={t: i for i, t in enumerate(terms)},
    )


def write_vocabulary(vocab: Vocabulary, path: str, header: str | None = None) -> None:
    artifacts.write_rows(path, header, zip(vocab.terms, vocab.doc_freq))


@dataclass
class TermVector:
    """Sparse raw term-frequency vector over vocabulary indices."""

    entries: dict[int, int]
    token_count: int  # sum of kept (in-vocabulary) token counts


def vectorize(tokens: Sequence[str], vocab: Vocabulary) -> TermVector:
    """Counts of the in-vocabulary tokens, keyed in order of first occurrence."""
    index = vocab.index
    entries = {index[tok]: n for tok, n in Counter(tokens).items() if tok in index}
    return TermVector(entries=entries, token_count=sum(entries.values()))


def cosine(u: TermVector, v: TermVector, idf: Sequence[float] | None = None) -> float:
    """Cosine similarity in [0, 1]; zero when either vector is empty.

    ``idf`` optionally reweights both vectors per term index; the default
    uses raw term frequencies.
    """
    if not u.entries or not v.entries:
        return 0.0
    if idf is None:
        nu = math.sqrt(sum(c * c for c in u.entries.values()))
        nv = math.sqrt(sum(c * c for c in v.entries.values()))
        small, large = (u.entries, v.entries) if len(u.entries) <= len(v.entries) else (v.entries, u.entries)
        dot = sum(c * large.get(i, 0) for i, c in small.items())
    else:
        nu = math.sqrt(sum((c * idf[i]) ** 2 for i, c in u.entries.items()))
        nv = math.sqrt(sum((c * idf[i]) ** 2 for i, c in v.entries.items()))
        small, large = (u.entries, v.entries) if len(u.entries) <= len(v.entries) else (v.entries, u.entries)
        dot = sum(c * large.get(i, 0) * idf[i] * idf[i] for i, c in small.items())
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return dot / (nu * nv)


def shared_terms(u: TermVector, v: TermVector) -> list[int]:
    """Sorted vocabulary indices present in both vectors."""
    if len(u.entries) > len(v.entries):
        u, v = v, u
    return sorted(i for i in u.entries if i in v.entries)
