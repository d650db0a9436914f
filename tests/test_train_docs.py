"""train(learner, index, docs): a classifier fitted on the documents `docs`
from their rows of the index's arrays, equal field for field and bit for bit
to the one trained on a subset_index copy of them, for every learner on
global and local feature domains.  Bad `docs` are a ValidationError.  Also
covers the float64 class counts of a fold that holds no nonzero."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import jatecs.learners as learners
from jatecs import build_index
from jatecs.errors import ValidationError
from jatecs.index import subset_index
from jatecs.learners import (AdaBoostMHLearner, KnnLearner, NaiveBayesLearner,
                             RocchioLearner, train)
from jatecs.weighting import tfidf_normalized

from test_fold_pass import _case_index

LEARNERS = [NaiveBayesLearner(), RocchioLearner(), KnnLearner(k=2),
            AdaBoostMHLearner(iterations=3)]


def _bits(array):
    array = np.asarray(array)
    return array.dtype.str, array.shape, array.tobytes()


def _fields(classifier):
    """Every field a classifier of its kind scores with, as bytes or exact
    values."""
    common = (classifier.kind, classifier.category_labels,
              classifier.thresholds, classifier.num_features,
              _bits(classifier.masks), classifier.strict,
              classifier.warnings, classifier.hyperparameters)
    if classifier.kind == learners.NAIVE_BAYES:
        own = (_bits(classifier.deltas), _bits(classifier.log_odds),
               repr(classifier.fixed))
    elif classifier.kind == learners.ROCCHIO:
        own = (_bits(classifier.profile_matrix), repr(classifier.norms),
               classifier.trained)
    elif classifier.kind == learners.KNN:
        view = classifier.view
        own = (tuple(_bits(getattr(view, name)) for name in (
            "indptr", "rows", "features", "counts", "weights", "labels")),
            _bits(classifier.norms), classifier.k)
    else:
        own = (repr(classifier.rounds), repr(classifier.z_values),
               classifier.iterations, repr(classifier.epsilon))
    return common + own


def _trained(fit, index):
    """The fields of fit()'s classifier and its scores of the whole index,
    or the message of the ValidationError it raised."""
    try:
        classifier = fit()
    except ValidationError as exc:
        return str(exc)
    return _fields(classifier), _bits(classifier.score_index(index))


@st.composite
def training_cases(draw):
    n_docs = draw(st.integers(1, 7))
    row = st.dictionaries(st.integers(0, 4),
                          st.tuples(st.integers(1, 4),
                                    st.floats(-1.0, 2.0, allow_nan=False)),
                          max_size=4)  # an empty row has no nonzeros
    docs = draw(st.lists(row, min_size=n_docs, max_size=n_docs))
    labels = draw(st.lists(st.sets(st.integers(0, 2)),
                           min_size=n_docs, max_size=n_docs))
    valid = None
    if draw(st.booleans()):  # a local domain
        valid = [draw(st.sets(st.sampled_from([f"f{f}" for f in range(5)])))
                 for _ in range(3)]
    keep = sorted(draw(st.sets(st.integers(0, n_docs - 1), min_size=1)))
    return (docs, [sorted(cats) for cats in labels], valid,
            draw(st.booleans()), keep)


# a lone featureless document of c0 alone: no positive of c1 or c2
_LONE_FEATURELESS = ([{0: (2, 1.0)}, {}, {1: (1, 0.5)}],
                     [[1], [0], [1, 2]], None, False, [1])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=training_cases(), learner=st.sampled_from(LEARNERS))
@example(case=_LONE_FEATURELESS, learner=NaiveBayesLearner())
@example(case=_LONE_FEATURELESS, learner=RocchioLearner())
@example(case=_LONE_FEATURELESS, learner=KnnLearner(k=2))
@example(case=_LONE_FEATURELESS, learner=AdaBoostMHLearner(iterations=3))
@example(case=_LONE_FEATURELESS[:4] + ([0],),
         learner=AdaBoostMHLearner(iterations=3))
@example(case=_LONE_FEATURELESS[:2] + ([{"f0"}, set(), {"f1"}], True, [0, 2]),
         learner=KnnLearner(k=2))
@example(case=_LONE_FEATURELESS[:2] + ([{"f0"}, set(), {"f1"}], True, [0, 2]),
         learner=AdaBoostMHLearner(iterations=3))
def test_training_on_ids_equals_training_on_a_subset_copy(case, learner):
    docs, labels, valid, weighted, keep = case
    index = _case_index(docs, labels, valid)
    if weighted:
        index = tfidf_normalized(index)
    assert _trained(lambda: train(learner, index, keep), index) == \
        _trained(lambda: train(learner, subset_index(index, keep_docs=keep)),
                 index)


@pytest.mark.parametrize("learner", LEARNERS, ids=lambda ln: ln.kind)
def test_every_id_sequence_type_trains_alike(learner):
    index = tfidf_normalized(_case_index(
        [{0: (1, 1.0)}, {1: (2, 1.0)}, {0: (1, 0.5), 1: (1, 0.5)}],
        [[0], [1], [0, 2]], None))
    expected = _trained(lambda: train(learner, index, [0, 2]), index)
    for keep in (range(0, 3, 2), np.array([0, 2], dtype=np.int32),
                 np.array([0, 2], dtype=np.uint64), (0, 2)):
        assert _trained(lambda: train(learner, index, keep), index) == \
            expected


_BAD_DOCS = [[], [1, 0], [0, 0], [-1], [3], [0, 3], [2**63], [2**70],
             np.array([], dtype=np.intp), np.array([[0, 1]]),
             np.array(1), np.array([2**64 - 1], dtype=np.uint64),
             [0.0, 1.0], [True], ["0"]]


@pytest.mark.parametrize("docs", _BAD_DOCS, ids=repr)
def test_bad_ids_are_a_validation_error(docs):
    index = _case_index([{0: (1, 1.0)}, {1: (2, 1.0)}, {}],
                        [[0], [1], []], None)
    for learner in LEARNERS:
        with pytest.raises(ValidationError, match="training documents"):
            train(learner, index, docs)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(docs=st.lists(st.integers(-3, 6), max_size=5))
def test_ids_that_do_not_ascend_within_range_are_rejected(docs):
    index = _case_index([{0: (1, 1.0)}, {1: (2, 1.0)}, {}, {0: (3, 2.0)}],
                        [[0], [1], [], [0, 1]], None)
    good = bool(docs) and docs == sorted(set(docs)) \
        and 0 <= docs[0] and docs[-1] < index.num_documents
    for learner in LEARNERS:
        if good:
            train(learner, index, docs)
        else:
            with pytest.raises(ValidationError):
                train(learner, index, docs)


def test_nb_counts_of_a_fold_without_nonzeros_are_float64():
    index = build_index([("d0", [("a", 2)]), ("d1", [])],
                        [("d0", ["x"]), ("d1", ["y"])], ["x", "y"])
    view = index.arrays()
    for nz in (learners._doc_nonzeros(view.indptr, [1])[0],
               np.zeros(0, dtype=np.intp)):
        pos, totals = learners._nb_counts(view, nz, index.num_features)
        assert (pos.dtype, totals.dtype) == (np.float64, np.float64)
        assert (pos.tolist(), totals.tolist()) == ([[0.0], [0.0]], [0.0])


def test_a_keep_list_or_array_with_repeats_keeps_each_id_once():
    index = _case_index([{0: (1, 1.0)}, {1: (2, 1.0)}, {}],
                        [[0], [1], []], None)
    for keep in ({"keep_docs": [2, 1, 1]}, {"keep_features": [1, 1]},
                 {"keep_docs": np.array([2, 0, 2])},
                 {"keep_features": np.array([0, 1])}):
        repeated = subset_index(index, **keep)
        once = subset_index(index, **{name: set(ids)
                                      for name, ids in keep.items()})
        assert repeated.documents.names == once.documents.names
        assert repeated.features.names == once.features.names
        assert all(_bits(getattr(repeated.arrays(), name))
                   == _bits(getattr(once.arrays(), name))
                   for name in ("indptr", "rows", "features", "counts",
                                "weights", "labels"))
