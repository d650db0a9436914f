"""The array weighting passes against the per-entry loops they replace: every
weight must be the same float, bit for bit."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from jatecs import bm25, recompute_stats, subset_index, tfidf_normalized

from conftest import make_corpus, random_corpus


def reference_tfidf(index):
    """{dID: {fID: weight}} of normalized tf-idf, one entry at a time."""
    n = index.num_documents
    weights = {}
    for d in range(n):
        row = {}
        for f, tf in index.document_features(d).items():
            row[f] = tf * math.log(n / index.document_frequency(f))
        norm = 0.0
        for w in row.values():
            norm += w * w
        norm = math.sqrt(norm)
        if norm > 0.0:
            row = {f: w / norm for f, w in row.items()}
        weights[d] = row
    return weights


def reference_bm25(index, k1, b):
    """{dID: {fID: weight}} of BM25, one entry at a time."""
    n = index.num_documents
    doc_len = {d: sum(index.document_features(d).values()) for d in range(n)}
    avgdl = sum(doc_len.values()) / n if n else None
    weights = {}
    for d in range(n):
        length_norm = k1 * (1.0 - b + b * doc_len[d] / avgdl) if avgdl else k1
        row = {}
        for f, tf in index.document_features(d).items():
            df = index.document_frequency(f)
            idf = max(0.0, math.log((n - df + 0.5) / (df + 0.5)))
            row[f] = idf * tf / (tf + length_norm)
        weights[d] = row
    return weights


def _bits(index):
    return {d: [repr(w) for w in index.document_weights(d).values()]
            for d in range(index.num_documents)}


def _bits_of(reference):
    return {d: [repr(w) for w in row.values()] for d, row in reference.items()}


@st.composite
def indexes(draw):
    """Random corpora, some cut to a feature subset so that features with
    no documents and empty documents occur."""
    index = random_corpus(draw(st.integers(0, 10_000)), max_docs=40)
    if index.num_features > 1 and draw(st.booleans()):
        keep = {f for f in range(index.num_features) if draw(st.booleans())}
        index = subset_index(index, keep_features=keep or {0})
    return index


class TestMatchesScalarLoops:
    @given(indexes())
    @settings(max_examples=150, deadline=None)
    def test_tfidf(self, index):
        assert _bits(tfidf_normalized(index)) == \
            _bits_of(reference_tfidf(index))

    @given(indexes(), st.floats(0.1, 3.0), st.floats(0.0, 1.0))
    @settings(max_examples=150, deadline=None)
    def test_bm25(self, index, k1, b):
        assert _bits(bm25(index, k1=k1, b=b)) == \
            _bits_of(reference_bm25(index, k1, b))

    def test_large_counts_keep_exact_lengths(self):
        big = 5 * 10**18  # two of these overflow a 64-bit sum
        index = make_corpus([("d0", {"a": big, "b": big}, []),
                             ("d1", {"a": 1}, [])], ["c"])
        assert recompute_stats(index).doc_len == {0: 2 * big, 1: 1}
        assert _bits(bm25(index)) == _bits_of(reference_bm25(index, 1.2, 0.75))
