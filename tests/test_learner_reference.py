"""The array learners against scalar loop references of their definitions.

Every reference sums left to right in ascending id, the order the array code
keeps, and takes its logarithms and exponentials with `math`, so scores must
match bit for bit, with global and with local feature domains.
"""

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from jatecs import (AdaBoostMHLearner, KnnLearner, NaiveBayesLearner,
                    RocchioLearner, train)
from jatecs.index import DomainDb, subset_index
from jatecs.learners import MIN_SCORE
from jatecs.rng import SplitMix64
from jatecs.weighting import tfidf_normalized

from conftest import random_corpus


def _loop_sum(values):
    total = 0.0
    for v in values:
        total += v
    return total


def _valid(index, c):
    if not index.domain.local:
        return set(range(index.num_features))
    return set(index.domain.valid_features(c))


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


def _rocchio_reference(learner, train_index, test, d, c):
    n = train_index.num_documents
    positives = train_index.category_documents(c)
    if not positives:
        return MIN_SCORE
    valid = _valid(train_index, c)
    n_neg = n - len(positives)
    pos_w = learner.beta / len(positives)
    neg_w = learner.gamma / n_neg if n_neg else 0.0
    profile = {}
    for dd in range(n):
        scale = pos_w if dd in positives else -neg_w
        for f, w in train_index.document_weights(dd).items():
            if f in valid:
                profile[f] = profile.get(f, 0.0) + scale * w
    profile = {f: w for f, w in sorted(profile.items()) if w > 0.0}
    norm = math.sqrt(_loop_sum(w * w for w in profile.values()))
    vector = {f: w for f, w in test.document_weights(d).items() if f in valid}
    v_norm = math.sqrt(_loop_sum(w * w for w in vector.values()))
    if norm == 0.0 or v_norm == 0.0:
        return 0.0
    dot = _loop_sum(w * profile.get(f, 0.0) for f, w in vector.items())
    return dot / (norm * v_norm)


def _knn_reference(learner, train_index, test, d, c):
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
    top = sorted(range(len(sims)), key=lambda dd: (-sims[dd], dd))[:learner.k]
    denom = _loop_sum(sims[dd] for dd in top)
    if denom == 0.0:
        return 0.0
    members = train_index.category_documents(c)
    return _loop_sum(sims[dd] for dd in top if dd in members) / denom


def _boost_rounds(learner, train_index, c):
    n = train_index.num_documents
    positive = [dd in train_index.category_documents(c) for dd in range(n)]
    if not any(positive):
        return None
    eps = 1.0 / n
    weights = [1.0 / n] * n
    rounds = []
    for _ in range(learner.iterations):
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
            if best is None or z < best[0]:
                best = (z, f, c0, c1)
        z, f, c0, c1 = best
        rounds.append((f, c0, c1))
        posting = train_index.feature_documents(f)
        for dd in range(n):
            h = c1 if dd in posting else c0
            y = 1.0 if positive[dd] else -1.0
            weights[dd] = weights[dd] * math.exp(-y * h) / z
    return rounds


def _boost_reference(learner, train_index, test, d, c):
    rounds = _boost_rounds(learner, train_index, c)
    if rounds is None:
        return MIN_SCORE
    present = test.document_features(d)
    return _loop_sum(c1 if f in present else c0 for f, c0, c1 in rounds)


_REFERENCES = [
    (NaiveBayesLearner(), lambda ln, *args: _nb_reference(*args)),
    (RocchioLearner(), _rocchio_reference),
    (KnnLearner(k=4), _knn_reference),
    (AdaBoostMHLearner(iterations=5), _boost_reference),
]


def _split(seed, local):
    """A tf-idf weighted random corpus cut into train and test halves."""
    index = tfidf_normalized(random_corpus(seed, max_docs=40))
    assume(index.num_documents >= 2 and index.num_features >= 1)
    if local:
        rng = SplitMix64(seed)
        valid = {c: frozenset({0} | {f for f in range(index.num_features)
                                     if rng.next_below(2)})
                 for c in range(index.num_categories)}
        index = index.with_domain(DomainDb(local=True, valid=valid))
    n = index.num_documents
    return (subset_index(index, keep_docs=set(range(0, n, 2))),
            subset_index(index, keep_docs=set(range(1, n, 2))))


@pytest.mark.parametrize("local", [False, True], ids=["global", "local"])
@pytest.mark.parametrize("learner,reference", _REFERENCES,
                         ids=[learner.kind for learner, _ in _REFERENCES])
@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None)
def test_scores_equal_loop_reference(learner, reference, local, seed):
    train_index, test = _split(seed, local)
    classifier = train(learner, train_index)
    for d in range(test.num_documents):
        expected = [reference(learner, train_index, test, d, c)
                    for c in range(test.num_categories)]
        assert classifier.score_document(test, d) == expected, d
