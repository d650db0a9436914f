"""Memory high-water marks of the index build and the Naive Bayes fold
pass, measured with tracemalloc on fixed corpora.

Each bound sits between the peak of a build that keeps about 20 eight-byte
arrays per entry alive, and of a fold pass that keeps each fold's counts
and classifier alive while the next fold is built, and the peak of this
code, with room on both sides:

* build_index: bytes of peak above its inputs per entry (was 135, now
  76 on the corpus below);
* Naive Bayes out_of_fold and train: peak in C x F float64 arrays (were
  9.6 and 7.4, now 6.5 and 5.4).
"""

import tracemalloc

import pytest

from jatecs import build_index
from jatecs.experiments import STRATIFIED, make_folds, out_of_fold
from jatecs.learners import NaiveBayesLearner, train
from jatecs.rng import SplitMix64


def _peak_bytes(fn) -> int:
    """The traced peak of `fn()` above the memory traced before it."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()


def _corpus(seed, n_docs, per_doc, n_words, n_cats, skew=3):
    """(docs, labels, categories) for build_index: per_doc distinct words
    per document, drawn from n_words (uniform at skew 1, Zipf-like above),
    with counts 1-4 and one or two labels from n_cats."""
    rng = SplitMix64(seed)
    categories = [f"c{i}" for i in range(n_cats)]
    docs, labels = [], []
    for d in range(n_docs):
        words = {}
        while len(words) < per_doc:
            rank = int(n_words * (rng.next_below(2**20) / 2**20) ** skew)
            words.setdefault(f"w{rank}", 1 + rng.next_below(4))
        docs.append((f"d{d}", list(words.items())))
        labels.append((f"d{d}", sorted({categories[rng.next_below(n_cats)]
                                        for _ in range(1 + d % 2)})))
    return docs, labels, categories


def test_build_index_peak_per_entry():
    docs, labels, categories = _corpus(3, 500, 48, 6000, 10)
    entries = sum(len(feats) for _, feats in docs)
    assert entries >= 20_000
    per_entry = _peak_bytes(lambda: build_index(docs, labels,
                                                categories)) / entries
    assert per_entry < 100, per_entry


@pytest.fixture(scope="module")
def wide_index():
    """An index whose C x F counts outweigh its nonzeros tenfold: 10
    categories over about 19k features, 20,000 nonzeros."""
    docs, labels, categories = _corpus(5, 200, 100, 400_000, 10, skew=1)
    index = build_index(docs, labels, categories)
    assert index.num_features > 15_000
    return index


def _in_cf_arrays(index, peak) -> float:
    return peak / (index.num_categories * index.num_features * 8)


def test_naive_bayes_fold_pass_peak(wide_index):
    plan = make_folds(wide_index, 10, mode=STRATIFIED, seed=0)
    peak = _peak_bytes(lambda: out_of_fold(NaiveBayesLearner(), wide_index,
                                           plan))
    in_arrays = _in_cf_arrays(wide_index, peak)
    assert in_arrays < 8.0, in_arrays


def test_naive_bayes_train_peak(wide_index):
    peak = _peak_bytes(lambda: train(NaiveBayesLearner(), wide_index))
    in_arrays = _in_cf_arrays(wide_index, peak)
    assert in_arrays < 6.4, in_arrays
