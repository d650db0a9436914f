"""Feature weighting passes: normalized tf-idf and BM25.

Both schemes read only the content relation (raw occurrence counts) and
produce a fresh weighting relation, so re-running a pass is idempotent.
Each pass works on the index's arrays and computes every weight with the
same operations, in the same order, as the per-entry formula; logarithms
are taken with :mod:`math`, since numpy's can differ in the last bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .index import Index
from .sums import row_sums

DEFAULT_K1 = 1.2
DEFAULT_B = 0.75


@dataclass(frozen=True)
class CorpusStats:
    """Document-frequency and length statistics feeding the weighting formulas.

    avgdl is None on an empty corpus (flagged undefined rather than zero).
    """

    n: int
    df: dict          # fID -> document frequency
    doc_len: dict     # dID -> total occurrence count
    avgdl: float | None
    k1: float = DEFAULT_K1
    b: float = DEFAULT_B


def recompute_stats(index: Index, k1: float = DEFAULT_K1,
                    b: float = DEFAULT_B) -> CorpusStats:
    """Exact df and length statistics from the content relation."""
    n = index.num_documents
    view = index.arrays()
    df = np.bincount(view.features, minlength=index.num_features)
    # lengths are Python int sums, which cannot overflow
    counts, bounds = view.counts.tolist(), view.indptr.tolist()
    doc_len = [sum(counts[i:j]) for i, j in zip(bounds, bounds[1:])]
    avgdl = (sum(doc_len) / n) if n > 0 else None
    return CorpusStats(n=n, df=dict(enumerate(df.tolist())),
                       doc_len=dict(enumerate(doc_len)),
                       avgdl=avgdl, k1=k1, b=b)


def tfidf_normalized(index: Index) -> Index:
    """w(t, d) = tf * ln(N / df), then each document vector is scaled to
    unit Euclidean length.  Documents whose every term has zero idf keep
    their all-zero weights (there is nothing to normalize)."""
    stats = recompute_stats(index)
    view = index.arrays()
    # df = 0 only for features no document has, whose idf is never read
    idf = np.array([math.log(stats.n / df) if df else 0.0
                    for df in stats.df.values()])
    weights = view.counts * idf[view.features]
    norms = np.sqrt(row_sums(view.rows, weights * weights, stats.n, start=0.0))
    scale = np.repeat(norms, np.diff(view.indptr))
    np.divide(weights, scale, out=weights, where=scale > 0.0)
    return index.with_weight_values(weights)


def bm25(index: Index, k1: float = DEFAULT_K1, b: float = DEFAULT_B) -> Index:
    """w(t, d) = idf(t) * tf / (tf + k1 * (1 - b + b * |d| / avgdl)).

    idf is ln((N - df + 0.5) / (df + 0.5)) floored at zero, so terms in more
    than half of the corpus never get a negative weight.
    """
    if not math.isfinite(k1) or k1 <= 0:
        raise ValidationError("k1 must be finite and > 0")
    if not 0 <= b <= 1:
        raise ValidationError("b must be in [0, 1]")
    stats = recompute_stats(index, k1=k1, b=b)
    view = index.arrays()
    idf = np.array([max(0.0, math.log((stats.n - df + 0.5) / (df + 0.5)))
                    for df in stats.df.values()])
    length_norm = k1
    if stats.avgdl:  # else every document is empty
        doc_len = np.array(list(stats.doc_len.values()),
                           dtype=np.float64)[view.rows]
        length_norm = k1 * (1.0 - b + b * doc_len / stats.avgdl)
    tf = view.counts.astype(np.float64)
    return index.with_weight_values(
        idf[view.features] * tf / (tf + length_norm))
