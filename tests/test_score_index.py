"""The batch scoring path: `score_index` runs each learner's one kernel over
every row of an index and must equal the stacked `score_document` rows bit
for bit; classifiers without a kernel fall back to per-cell scoring."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jatecs import (AdaBoostMHLearner, KnnLearner, NaiveBayesLearner,
                    RocchioLearner, TrainedClassifier, ValidationError,
                    classify_category, classify_document, learn_quantifiers,
                    quantify, train)
from jatecs.index import ConceptDb, DomainDb, Index
from jatecs.learners import predict_classification
from jatecs.rng import SplitMix64
from jatecs.weighting import tfidf_normalized

from conftest import aligned_test_index, make_corpus

LEARNERS = [NaiveBayesLearner(), RocchioLearner(), KnnLearner(k=4),
            AdaBoostMHLearner(iterations=6)]


def _doc_specs(rng, n_docs, vocab, categories, prefix):
    specs = []
    for d in range(n_docs):
        feats = {}
        for _ in range(rng.next_below(10)):
            feats[vocab[rng.next_below(len(vocab))]] = 1 + rng.next_below(4)
        labels = [c for c in categories if rng.next_below(3) == 0]
        specs.append((f"{prefix}{d}", feats, labels))
    return specs


def _split(seed, local):
    """A weighted training index, optionally with a local domain, and a test
    index in its feature space that also holds texts unseen in training,
    whose ids are at or above the training F."""
    rng = SplitMix64(seed)
    categories = [f"cat{i}" for i in range(1 + rng.next_below(4))]
    vocab = [f"w{i}" for i in range(4 + rng.next_below(20))]
    train_index = tfidf_normalized(make_corpus(
        _doc_specs(rng, 2 + rng.next_below(30), vocab, categories, "tr"),
        categories))
    if local:
        valid = {c: frozenset(f for f in range(train_index.num_features)
                              if rng.next_below(3))
                 for c in range(train_index.num_categories)}
        train_index = train_index.with_domain(DomainDb(local=True,
                                                       valid=valid))
    unseen = [f"u{i}" for i in range(1 + rng.next_below(6))]
    test_index = aligned_test_index(train_index, _doc_specs(
        rng, rng.next_below(15), vocab + unseen, categories, "te"))
    return train_index, test_index


def _stacked(classifier, index):
    rows = [classifier.score_document(index, d)
            for d in range(index.num_documents)]
    return np.array(rows, dtype=np.float64).reshape(
        index.num_documents, classifier.num_categories)


@pytest.mark.parametrize("learner", LEARNERS, ids=lambda ln: ln.kind)
@pytest.mark.parametrize("local", [False, True], ids=["global", "local"])
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_score_index_equals_stacked_score_document(learner, local, seed):
    train_index, test_index = _split(seed, local)
    try:
        classifier = train(learner, train_index)
    except ValidationError:  # boosting on a category with no valid feature
        return
    assert test_index.num_features >= classifier.num_features
    for index in (train_index, test_index):
        batch = classifier.score_index(index)
        assert batch.dtype == np.float64
        assert batch.shape == (index.num_documents, classifier.num_categories)
        assert np.array_equal(batch.view(np.int64),
                              _stacked(classifier, index).view(np.int64))


def test_row_of_negative_zero_terms_scores_negative_zero():
    # the profile is 0 on "b"; a negative weight there makes the only term
    # -0.0, and a left-to-right sum of -0.0 terms is -0.0
    index = tfidf_normalized(make_corpus([("d0", {"a": 1}, ["c0"]),
                                          ("d1", {"b": 1}, [])], ["c0"]))
    classifier = train(RocchioLearner(), index)
    test = Index(index.categories, ConceptDb(["a", "b"], kind="feature"),
                 ConceptDb(["t0", "t1"], kind="document"),
                 {0: {1: 1}, 1: {0: 1}}, {0: [], 1: []},
                 {0: {1: -2.0}, 1: {0: 1.0}})
    scores = classifier.score_index(test)
    assert np.signbit(scores[0, 0]) and scores[0, 0] == 0.0
    assert scores[1, 0] == pytest.approx(1.0)
    assert np.array_equal(scores.view(np.int64),
                          _stacked(classifier, test).view(np.int64))


class _Delegate(TrainedClassifier):
    """A kernel-less classifier that scores one cell at a time."""

    kind = "delegate"

    def __init__(self, inner):
        super().__init__(inner.category_labels, inner.thresholds,
                         inner.num_features, strict=inner.strict)
        self.inner = inner

    def score_document_category(self, index, d_id, c_id):
        return self.inner.score_document(index, d_id)[c_id]


@pytest.mark.parametrize("learner", LEARNERS, ids=lambda ln: ln.kind)
def test_cell_only_subclass_matches_its_kernel(learner):
    train_index, test_index = _split(5, local=False)
    classifier = train(learner, train_index)
    stub = _Delegate(classifier)
    assert np.array_equal(stub.score_index(test_index).view(np.int64),
                          classifier.score_index(test_index).view(np.int64))
    assert predict_classification(stub, test_index) == \
        predict_classification(classifier, test_index)
    for c in range(classifier.num_categories):
        assert classify_category(stub, test_index, c) == \
            classify_category(classifier, test_index, c)
    pool = learn_quantifiers(learner, train_index, folds=2)
    assert quantify(dataclasses.replace(pool, classifier=stub),
                    test_index) == quantify(pool, test_index)


@pytest.mark.parametrize("learner", LEARNERS, ids=lambda ln: ln.kind)
def test_bad_document_id_raises(learner):
    train_index, _ = _split(9, local=False)
    classifier = train(learner, train_index)
    for d_id in (-1, train_index.num_documents):
        with pytest.raises(ValidationError):
            classifier.score_document(train_index, d_id)
        with pytest.raises(ValidationError):
            classify_document(classifier, train_index, d_id)
