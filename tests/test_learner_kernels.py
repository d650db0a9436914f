"""The learner kernels against scalar loop references, bit for bit, where
they are easiest to get wrong: kNN similarities tied across the k-th place,
k at or above the training size, empty query rows, and a `score_index` call
split into many blocks; NB class counts above the log lookup table; and
boosting rounds whose Z ties on every round.  Each reference sums left to
right in ascending id and breaks ties to the lower id."""

import math

import numpy as np
import pytest

import jatecs.learners as learners
from jatecs import (AdaBoostMHLearner, KnnLearner, NaiveBayesLearner,
                    build_index, train)
from jatecs.index import DomainDb, subset_index
from jatecs.learners import MIN_SCORE, _log_counts
from jatecs.rng import SplitMix64
from jatecs.weighting import tfidf_normalized

from conftest import aligned_test_index, random_corpus

CATEGORIES = ["x", "y"]


def _loop_sum(values):
    total = 0.0
    for v in values:
        total += v
    return total


def _valid(index, c):
    if not index.domain.local:
        return set(range(index.num_features))
    return set(index.domain.valid_features(c))


def _index(docs):
    """docs: (name, [(text, count, weight)], [labels]) triples."""
    return build_index([(name, feats) for name, feats, _ in docs],
                       [(name, labels) for name, _, labels in docs],
                       CATEGORIES)


def _local(index, valid_texts):
    """`index` with a local domain: category c keeps the features whose text
    is in valid_texts[c]."""
    ids = index.features.names
    return index.with_domain(DomainDb(local=True, valid={
        c: frozenset(f for f, text in enumerate(ids) if text in texts)
        for c, texts in enumerate(valid_texts)}))


def _bits(array):
    return np.ascontiguousarray(array, dtype=np.float64).tobytes()


# -- kNN ---------------------------------------------------------------------


def _knn_reference(k, train_index, test, d, c):
    valid = _valid(train_index, c)
    query = {f: w for f, w in test.document_weights(d).items() if f in valid}
    q_norm = math.sqrt(_loop_sum(w * w for w in query.values()))
    sims = []
    for dd in range(train_index.num_documents):
        vector = {f: w for f, w in train_index.document_weights(dd).items()
                  if f in valid}
        t_norm = math.sqrt(_loop_sum(w * w for w in vector.values()))
        dot = _loop_sum(w * query[f] for f, w in vector.items() if f in query)
        sims.append(0.0 if t_norm == 0.0 or q_norm == 0.0
                    else dot / (t_norm * q_norm))
    top = sorted(range(len(sims)), key=lambda dd: (-sims[dd], dd))[:k]
    denom = _loop_sum(sims[dd] for dd in top)
    if denom == 0.0:
        return 0.0
    members = train_index.category_documents(c)
    return _loop_sum(sims[dd] for dd in top if dd in members) / denom


def _tied_knn_split(local):
    """Training documents in groups of equal direction, so similarities tie
    in runs, with labels that differ inside each run; test documents that
    hit those runs, one without features and one with only a feature unseen
    in training."""
    a, b, c = ("a", 1, 1.0), ("b", 1, 1.0), ("c", 1, 1.0)
    train_index = _index([
        ("t0", [a], ["x"]), ("t1", [a, b], ["y"]), ("t2", [a], ["y"]),
        ("t3", [a, b], ["x"]), ("t4", [a], ["x", "y"]), ("t5", [c], ["y"]),
        ("t6", [a], []), ("t7", [b], ["x"]), ("t8", [("a", 2, 2.0)], ["y"]),
        ("t9", [a, b], ["x", "y"]), ("t10", [("a", 3, 0.5)], ["x"])])
    if local:
        train_index = _local(train_index, [{"a", "b"}, {"a", "c"}])
    test = aligned_test_index(train_index, [
        ("q0", {"a": 1}, []), ("q1", {"a": 1, "b": 1}, []),
        ("q2", {}, []), ("q3", {"zzz": 2}, []), ("q4", {"b": 3}, []),
        ("q5", {"c": 1, "a": 1}, [])])
    return train_index, test


@pytest.mark.parametrize("local", [False, True], ids=["global", "local"])
@pytest.mark.parametrize("k", range(1, 15))
def test_knn_ties_across_kth_place_and_k_beyond_training_size(local, k):
    train_index, test = _tied_knn_split(local)
    classifier = train(KnnLearner(k=k), train_index)
    expected = [[_knn_reference(k, train_index, test, d, c)
                 for c in range(test.num_categories)]
                for d in range(test.num_documents)]
    scores = classifier.score_index(test)
    assert _bits(scores) == _bits(expected)
    for d in range(test.num_documents):
        assert classifier.score_document(test, d) == expected[d], d
    # the empty and the unseen-only queries vote nothing
    assert scores[2].tolist() == scores[3].tolist() == [0.0, 0.0]


@pytest.mark.parametrize("k", [2, 3])
def test_knn_neighbours_summing_to_zero_vote_nothing(k):
    train_index = _index([("p", [("a", 1, 1.0)], ["x"]),
                          ("m", [("a", 1, -1.0)], ["y"]),
                          ("z", [("b", 1, 1.0)], ["x", "y"])])
    classifier = train(KnnLearner(k=k), train_index)
    expected = [[_knn_reference(k, train_index, train_index, d, c)
                 for c in range(2)] for d in range(3)]
    scores = classifier.score_index(train_index)
    assert _bits(scores) == _bits(expected)
    if k == 3:  # sims 1, -1 and 0: members of x sum to 1, all to 0
        assert scores[0].tolist() == [0.0, 0.0]


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_knn_nan_similarities_from_overflowing_weights(k):
    """Weights near 1e200 overflow the dot products and norms to inf, and
    inf / inf similarities are NaN: below the training size, k leaves them
    out; at or above it, every document is a neighbour and the votes NaN."""
    train_index = _index([("p", [("a", 1, 1e200)], ["x"]),
                          ("m", [("a", 1, 1e200), ("b", 1, 1.0)], ["y"]),
                          ("z", [("b", 1, 1.0)], ["x", "y"]),
                          ("w", [("b", 1, 2.0), ("c", 1, 1.0)], ["y"])])
    with np.errstate(all="ignore"):
        scores = train(KnnLearner(k=k), train_index).score_index(train_index)
    overflowing = [[math.nan] * 2] * 2 if k >= 4 else [[0.0, 0.0]] * 2
    rest = ([[1.0, 1.0], [0.0, 1.0]] if k == 1 else
            [[0.5278640450004206, 1.0], [0.4721359549995794, 1.0]])
    np.testing.assert_array_equal(scores, overflowing + rest)


# seeds whose random corpus splits into two halves of three or more documents
SPLIT_SEEDS = [seed for seed in range(100, 140)
               if random_corpus(seed, max_docs=40).num_documents >= 6][:8]


def _random_split(seed, local):
    index = tfidf_normalized(random_corpus(seed, max_docs=40))
    if local:
        rng = SplitMix64(seed)
        index = index.with_domain(DomainDb(local=True, valid={
            c: frozenset(f for f in range(index.num_features)
                         if rng.next_below(3))
            for c in range(index.num_categories)}))
    n = index.num_documents
    return (subset_index(index, keep_docs=set(range(0, n, 2))),
            subset_index(index, keep_docs=set(range(1, n, 2))))


@pytest.mark.parametrize("cells", [1, 5, 37, 200])
@pytest.mark.parametrize("local", [False, True], ids=["global", "local"])
@pytest.mark.parametrize("seed", SPLIT_SEEDS)
def test_knn_blocks_equal_one_block(monkeypatch, seed, local, cells):
    train_index, test = _random_split(seed, local)
    classifier = train(KnnLearner(k=3), train_index)
    whole = classifier.score_index(test)
    monkeypatch.setattr(learners, "KNN_BLOCK_CELLS", cells)
    assert _bits(classifier.score_index(test)) == _bits(whole)
    if cells == 1:  # a block per row
        view = test.arrays()
        keep = view.features < classifier.num_features
        lengths = np.ones(int(keep.sum()), dtype=np.intp)
        assert len(learners._knn_blocks(view.rows[keep], lengths,
                                        test.num_documents,
                                        train_index.num_documents)) \
            == test.num_documents


def test_knn_block_bounds_similarities_and_joined_postings(monkeypatch):
    monkeypatch.setattr(learners, "KNN_BLOCK_CELLS", 12)
    rows = np.array([0, 0, 1, 2, 2, 2, 4])   # row 3 has no nonzero
    lengths = np.array([5, 4, 2, 3, 3, 3, 20])
    blocks = learners._knn_blocks(rows, lengths, 5, 4)
    # at most 12 // 4 = 3 rows and 12 joined postings, but one row at least
    assert blocks == [(0, 2, 0, 3), (2, 4, 3, 6), (4, 5, 6, 7)]


# -- naive Bayes --------------------------------------------------------------


def test_log_counts_above_and_below_the_table_bound():
    counts = np.array([[0.0, 1.0, 5.0, 10.0 ** 12],
                       [7.0, 8.0, 2.0 ** 53, 3.0]])  # the table bound is 8
    expected = [[0.0 if n == 0 else math.log(n + 1.0) for n in row]
                for row in counts.tolist()]
    assert _bits(_log_counts(counts)) == _bits(expected)
    assert _log_counts(np.zeros((2, 0))).shape == (2, 0)


def _nb_reference(train_index, test, d, c):
    n = train_index.num_documents
    positives = train_index.category_documents(c)
    if not positives:
        return MIN_SCORE
    if len(positives) == n:
        return -MIN_SCORE
    valid = _valid(train_index, c)
    pos, neg = {}, {}
    for dd in range(n):
        target = pos if dd in positives else neg
        for f, tf in train_index.document_features(dd).items():
            if f in valid:
                target[f] = target.get(f, 0) + tf
    den_pos = math.log(sum(pos.values()) + len(valid))
    den_neg = math.log(sum(neg.values()) + len(valid))
    score = (math.log(len(positives) / n)
             - math.log((n - len(positives)) / n))
    for f, tf in test.document_features(d).items():
        if f in valid:
            score += tf * ((math.log(pos.get(f, 0) + 1.0) - den_pos)
                           - (math.log(neg.get(f, 0) + 1.0) - den_neg))
    return score


@pytest.mark.parametrize("local", [False, True], ids=["global", "local"])
def test_nb_count_above_table_bound_equals_math_log(local):
    big = 10 ** 12
    train_index = _index([
        ("t0", [("a", big, 1.0), ("b", 1, 1.0)], ["x"]),
        ("t1", [("a", 2, 1.0), ("c", 9, 1.0)], ["y"]),
        ("t2", [("b", 5, 1.0), ("c", 1, 1.0)], ["x", "y"]),
        ("t3", [("c", big + 3, 1.0)], [])])
    if local:
        train_index = _local(train_index, [{"a", "c"}, {"a", "b", "c"}])
    test = aligned_test_index(train_index, [
        ("q0", {"a": 1, "b": 2}, []), ("q1", {"c": 3}, []), ("q2", {}, [])])
    classifier = train(NaiveBayesLearner(), train_index)
    expected = [[_nb_reference(train_index, test, d, c)
                 for c in range(test.num_categories)]
                for d in range(test.num_documents)]
    assert _bits(classifier.score_index(test)) == _bits(expected)


# -- AdaBoost.MH --------------------------------------------------------------


def _boost_rounds(iterations, train_index, c):
    n = train_index.num_documents
    positive = [dd in train_index.category_documents(c) for dd in range(n)]
    eps = 1.0 / n
    weights = [1.0 / n] * n
    rounds = []
    for _ in range(iterations):
        w_pos = _loop_sum(w for w, y in zip(weights, positive) if y)
        w_neg = _loop_sum(w for w, y in zip(weights, positive) if not y)
        best = None
        for f in sorted(_valid(train_index, c)):
            posting = train_index.feature_documents(f)
            w1p = _loop_sum(weights[dd] for dd in posting if positive[dd])
            w1m = _loop_sum(weights[dd] for dd in posting if not positive[dd])
            w0p, w0m = w_pos - w1p, w_neg - w1m
            c0 = 0.5 * math.log((w0p + eps) / (w0m + eps))
            c1 = 0.5 * math.log((w1p + eps) / (w1m + eps))
            z = (w0p * math.exp(-c0) + w0m * math.exp(c0)
                 + w1p * math.exp(-c1) + w1m * math.exp(c1))
            if best is None or z < best[0]:  # ties keep the lower id
                best = (z, f, c0, c1)
        z, f, c0, c1 = best
        rounds.append((f, c0, c1))
        posting = train_index.feature_documents(f)
        for dd in range(n):
            h = c1 if dd in posting else c0
            y = 1.0 if positive[dd] else -1.0
            weights[dd] = weights[dd] * math.exp(-y * h) / z
    return rounds


def _twin_corpus(seed):
    """Every feature has a twin in exactly the same documents, so Z ties on
    every round; labels leave both categories positives and negatives."""
    rng = SplitMix64(seed)
    docs = []
    for d in range(14):
        groups = [g for g in range(5) if rng.next_below(2)] or [d % 5]
        feats = [(f"g{g}{twin}", 1 + rng.next_below(3), 1.0)
                 for g in groups for twin in "ab"]
        labels = [label for i, label in enumerate(CATEGORIES)
                  if (d + i) % 3 == 0 or rng.next_below(3) == 0]
        docs.append((f"d{d}", feats, labels))
    return _index(docs)


@pytest.mark.parametrize("local", [False, True], ids=["global", "local"])
@pytest.mark.parametrize("seed", range(6))
def test_boost_z_ties_pick_lowest_feature_id(seed, local):
    train_index = _twin_corpus(seed)
    names = train_index.features.names
    if local:  # category y loses the "a" twin of groups 0 and 1
        train_index = _local(train_index, [
            set(names), set(names) - {"g0a", "g1a"}])
    classifier = train(AdaBoostMHLearner(iterations=8), train_index)
    for c in range(train_index.num_categories):
        expected = _boost_rounds(8, train_index, c)
        assert classifier.rounds[c] == expected, c
        valid = _valid(train_index, c)
        for f, _, _ in classifier.rounds[c]:
            twin = names.index(names[f][:-1] + ("b" if names[f][-1] == "a"
                                                 else "a"))
            assert twin not in valid or f < twin, (c, names[f])
