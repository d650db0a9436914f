"""Every feature domain is a C x F mask, all True when global, so each
learner has one path.  kNN and Rocchio make one pass per distinct mask row,
shared by the categories that have it.  Also covers the quantify command,
which rejects a test index with another category table before it trains."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import jatecs.experiments as experiments
import jatecs.quantification as quantification
from jatecs import (AdaBoostMHLearner, KnnLearner, NaiveBayesLearner,
                    RocchioLearner, train)
from jatecs.cli import EXIT_DATA, main
from jatecs.errors import ValidationError
from jatecs.index import DomainDb, subset_index
from jatecs.rng import SplitMix64
from jatecs.weighting import tfidf_normalized

from conftest import make_corpus, random_corpus
from test_learner_reference import _knn_reference, _rocchio_reference
from test_out_of_fold import two_tables  # noqa: F401 (a fixture)

LEARNERS = [NaiveBayesLearner(), RocchioLearner(), KnnLearner(k=4),
            AdaBoostMHLearner(iterations=5)]
LEARNER_IDS = [learner.kind for learner in LEARNERS]


def _halves(index):
    n = index.num_documents
    return (subset_index(index, keep_docs=set(range(0, n, 2))),
            subset_index(index, keep_docs=set(range(1, n, 2))))


def _random_split():
    return _halves(tfidf_normalized(random_corpus(17, max_docs=60)))


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("learner", LEARNERS, ids=LEARNER_IDS)
def test_a_global_domain_is_the_all_true_mask(learner):
    train_index, _ = _random_split()
    classifier = train(learner, train_index)
    masks = classifier.masks
    assert isinstance(masks, np.ndarray) and masks.dtype == bool
    assert masks.shape == (train_index.num_categories,
                           train_index.num_features)
    assert masks.all()


@pytest.mark.parametrize("learner", LEARNERS, ids=LEARNER_IDS)
def test_every_feature_valid_locally_scores_as_global(learner):
    train_index, test = _random_split()
    every = frozenset(range(train_index.num_features))
    local = train_index.with_domain(DomainDb(
        local=True,
        valid={c: every for c in range(train_index.num_categories)}))
    global_model = train(learner, train_index)
    local_model = train(learner, local)
    assert _same_bits(global_model.score_index(test),
                      local_model.score_index(test))
    for d in range(test.num_documents):
        assert _same_bits(global_model.score_document(test, d),
                          local_model.score_document(test, d)), d


def _shared_split(seed):
    """A weighted random corpus with a local domain in which every category
    but the last keeps one shared feature set, cut into halves."""
    index = tfidf_normalized(random_corpus(seed, max_docs=40))
    assume(index.num_documents >= 2 and index.num_features >= 1
           and index.num_categories >= 3)
    rng = SplitMix64(seed)
    shared, own = ({0} | {f for f in range(index.num_features)
                          if rng.next_below(2)} for _ in range(2))
    last = index.num_categories - 1
    valid = {c: frozenset(own if c == last else shared)
             for c in range(index.num_categories)}
    return _halves(index.with_domain(DomainDb(local=True, valid=valid)))


@pytest.mark.parametrize("learner,reference", [
    (RocchioLearner(), _rocchio_reference), (KnnLearner(k=4), _knn_reference),
], ids=["Rocchio", "KNN"])
@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=20, deadline=None)
def test_shared_mask_rows_score_as_the_loop_reference(learner, reference,
                                                      seed):
    train_index, test = _shared_split(seed)
    classifier = train(learner, train_index)
    # a group with more than one category
    distinct = {row.tobytes() for row in classifier.masks}
    assert len(distinct) < classifier.num_categories
    scores = classifier.score_index(test)
    for d in range(test.num_documents):
        expected = [reference(learner, train_index, test, d, c)
                    for c in range(test.num_categories)]
        assert classifier.score_document(test, d) == expected, d
        assert _same_bits(scores[d], expected), d


def _featureless_index():
    return tfidf_normalized(make_corpus(
        [("d0", {}, ["a"]), ("d1", {}, ["b"]), ("d2", {}, ["a"])],
        ["a", "b"]))


def test_featureless_global_index_boosting_raises():
    with pytest.raises(ValidationError, match="has no features to boost on"):
        train(AdaBoostMHLearner(iterations=2), _featureless_index())


@pytest.mark.parametrize("learner,row", [
    (NaiveBayesLearner(), [math.log(2 / 3) - math.log(1 / 3),
                           math.log(1 / 3) - math.log(2 / 3)]),
    (RocchioLearner(), [0.0, 0.0]),
    (KnnLearner(k=2), [0.0, 0.0]),
], ids=["NaiveBayes", "Rocchio", "KNN"])
def test_featureless_global_index_scores(learner, row):
    index = _featureless_index()
    assert index.num_features == 0
    classifier = train(learner, index)
    assert classifier.score_index(index).tolist() == [row] * 3
    assert [classifier.score_document(index, d) for d in range(3)] == [row] * 3


# -- quantify checks the category tables before it trains -------------------


def test_quantify_rejects_another_category_table_before_training(
        tmp_path, capsys, monkeypatch, two_tables):
    same, reversed_ = two_tables
    calls = []
    real = experiments.train

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)
    monkeypatch.setattr(experiments, "train", counting)
    monkeypatch.setattr(quantification, "train", counting)
    out = tmp_path / "q.tsv"
    assert main(["quantify", "--train", same, "--test", reversed_,
                 "--folds", "5", "--out", str(out)]) == EXIT_DATA
    assert calls == []
    assert capsys.readouterr().err == (
        "error: the test index's category table differs from the training "
        "index's\n")
    assert not out.exists()
