"""compare counts its tables from two D x C boolean matrices.

A (dID -> cIDs) map is checked and set into a matrix first.  These tests
hold the matrix path, the map path and the per-category set loop kept
here as the reference to equal tables: on random universes with empty
rows and columns, absent documents, repeated ids and ids given as bools,
numpy integers or integral floats.  They also pin each rejected id or
matrix, and k-fold tables on the toy index for every learner.
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jatecs import ValidationError
from jatecs.corpus import documents_to_index, read_category_file, read_csv
from jatecs.evaluation import (ContingencyTable, ContingencyTableSet, compare,
                               label_map)
from jatecs.experiments import (SIMPLE, STRATIFIED, kfold_evaluate,
                                make_folds, out_of_fold)
from jatecs.learners import (AdaBoostMHLearner, KnnLearner, NaiveBayesLearner,
                             RocchioLearner)
from jatecs.textproc import ExtractorConfig
from jatecs.weighting import tfidf_normalized

TOY_DIR = os.path.join(os.path.dirname(__file__), "..", "src", "jatecs",
                       "data", "toy")


def reference_compare(predictions: dict, gold: dict, num_documents: int,
                      num_categories: int) -> ContingencyTableSet:
    """Tables from two maps by one pair of document sets per category."""
    tables = {}
    for c in range(num_categories):
        pred_docs = {d for d, cats in predictions.items() if c in cats}
        gold_docs = {d for d, cats in gold.items() if c in cats}
        tp = len(pred_docs & gold_docs)
        fp = len(pred_docs - gold_docs)
        fn = len(gold_docs - pred_docs)
        tables[c] = ContingencyTable(tp=tp, tn=num_documents - tp - fp - fn,
                                     fp=fp, fn=fn)
    return ContingencyTableSet(tables)


def as_map(matrix: np.ndarray, draw) -> dict:
    """A (dID -> cIDs) map of `matrix` as a caller might write one: rows
    in drawn order, empty rows absent or kept, ids repeated, and each id
    an int, a bool, a numpy integer or an integral float."""
    def spelled(i):
        form = draw(st.sampled_from(["int", "numpy", "float", "bool"]))
        if form == "numpy":
            return np.int64(i)
        if form == "float":
            return float(i)
        return bool(i) if form == "bool" and i in (0, 1) else i

    rows = list(range(matrix.shape[0]))
    rows = draw(st.permutations(rows))
    mapping = {}
    for d in rows:
        cats = np.flatnonzero(matrix[d]).tolist()
        if not cats and draw(st.booleans()):
            continue  # an absent document has no labels
        cats = cats + draw(st.lists(st.sampled_from(cats), max_size=2)) \
            if cats else cats
        mapping[spelled(d)] = tuple(spelled(c) for c in draw(
            st.permutations(cats)))
    return mapping


@st.composite
def universes(draw):
    """(predictions, gold) D x C matrices, D and C from 0, with sparse
    and dense rows so that whole rows and columns come out empty."""
    n_docs = draw(st.integers(0, 12))
    n_cats = draw(st.integers(0, 5))
    cells = st.lists(st.booleans(), min_size=n_docs * n_cats,
                     max_size=n_docs * n_cats)
    pred = np.array(draw(cells), dtype=bool).reshape(n_docs, n_cats)
    gold = np.array(draw(cells), dtype=bool).reshape(n_docs, n_cats)
    return pred, gold


@settings(max_examples=300, deadline=None, derandomize=True)
@given(universes())
def test_matrices_and_label_maps_count_as_the_set_loop(sides):
    pred, gold = sides
    shape = pred.shape
    expected = reference_compare(label_map(pred), label_map(gold), *shape)
    assert compare(pred, gold, *shape) == expected
    assert compare(label_map(pred), label_map(gold), *shape) == expected
    assert compare(pred, label_map(gold), *shape) == expected


@settings(max_examples=300, deadline=None, derandomize=True)
@given(universes(), st.data())
def test_maps_in_any_spelling_count_as_the_set_loop(sides, data):
    pred, gold = sides
    shape = pred.shape
    pred_map, gold_map = as_map(pred, data.draw), as_map(gold, data.draw)
    expected = reference_compare(pred_map, gold_map, *shape)
    assert expected == reference_compare(label_map(pred), label_map(gold),
                                         *shape)
    tables = compare(pred_map, gold_map, *shape)
    assert tables == expected
    assert compare(pred, gold, *shape) == expected
    for table in tables.per_category.values():
        assert all(type(cell) is int
                   for cell in (table.tp, table.tn, table.fp, table.fn))


@pytest.mark.parametrize("bad, message", [
    ({1.5: (0,)}, "predictions reference unknown document 1.5"),
    ({"1": (0,)}, "predictions reference unknown document 1"),
    ({None: (0,)}, "predictions reference unknown document None"),
    ({float("nan"): (0,)}, "predictions reference unknown document nan"),
    ({float("inf"): (0,)}, "predictions reference unknown document inf"),
    ({3: (0,)}, "predictions reference unknown document 3"),
    ({-1: (0,)}, "predictions reference unknown document -1"),
    ({np.int64(3): (0,)}, "predictions reference unknown document 3"),
    ({0: (0.5,)}, "predictions reference unknown category 0.5"),
    ({0: ("0",)}, "predictions reference unknown category 0"),
    ({0: (2,)}, "predictions reference unknown category 2"),
    ({0: (1 + 0j,)}, r"predictions reference unknown category \(1\+0j\)"),
], ids=["half", "text", "none", "nan", "inf", "past-end", "negative",
        "numpy-past-end", "half-category", "text-category", "past-category",
        "complex-category"])
def test_an_id_that_is_no_int_in_range_is_rejected(bad, message):
    with pytest.raises(ValidationError, match=f"^{message}$"):
        compare(bad, {1: (0,)}, 3, 2)
    with pytest.raises(ValidationError,
                       match=f"^{message.replace('predictions', 'gold')}$"):
        compare({1: (0,)}, bad, 3, 2)


def test_the_phantom_document_is_gone():
    # counted, a half document makes tp=0, tn=1, fp=1, fn=1: four documents
    # in a 3-document universe
    with pytest.raises(ValidationError, match="unknown document 1.5"):
        compare({1.5: (0,)}, {1: (0,)}, 3, 1)


def test_ids_equal_to_an_int_in_range_keep_their_meaning():
    gold = {0: (0,), 1: (1,), 2: (0, 1)}
    spelled = {False: (np.int64(0),), 1.0: (True, np.True_),
               np.int32(2): (0.0, np.uint8(1))}
    tables = compare(spelled, gold, 3, 2)
    assert tables == compare(gold, gold, 3, 2)
    assert tables.per_category[0] == ContingencyTable(tp=2, tn=1)


def test_the_first_bad_entry_in_map_order_is_named_predictions_first():
    with pytest.raises(ValidationError, match="document 7$"):
        compare({0: (0,), 7: (9,), 8: (0,)}, {5: ()}, 3, 1)
    with pytest.raises(ValidationError, match="category 9$"):
        compare({0: (9,), 7: (0,)}, {}, 3, 1)
    with pytest.raises(ValidationError, match="^predictions"):
        compare({0: (4,)}, {9: (0,)}, 3, 1)
    with pytest.raises(ValidationError, match="^predictions.*category 5"):
        compare({1: (0, 5, 6)}, {}, 3, 1)


@pytest.mark.parametrize("bad", [
    np.zeros((3, 1), dtype=bool),
    np.zeros((2, 2), dtype=bool),
    np.zeros(6, dtype=bool),
    np.zeros((3, 2), dtype=np.int64),
    np.zeros((3, 2)),
], ids=["columns", "rows", "flat", "int", "float"])
def test_a_matrix_of_another_shape_or_dtype_is_rejected(bad):
    good = np.zeros((3, 2), dtype=bool)
    with pytest.raises(ValidationError, match="^predictions must be a"):
        compare(bad, good, 3, 2)
    with pytest.raises(ValidationError, match="^gold must be a"):
        compare(good, bad, 3, 2)


@pytest.fixture(scope="module")
def toy_index():
    categories = read_category_file(os.path.join(TOY_DIR, "categories.txt"))
    docs = read_csv(os.path.join(TOY_DIR, "corpus.csv"),
                    categories=categories)
    return tfidf_normalized(documents_to_index(docs, categories,
                                               ExtractorConfig(kind="BOW")))


@pytest.mark.parametrize("mode", [SIMPLE, STRATIFIED])
@pytest.mark.parametrize("learner", [
    NaiveBayesLearner(), RocchioLearner(), KnnLearner(k=5),
    AdaBoostMHLearner(iterations=5)], ids=lambda ln: ln.kind)
def test_kfold_tables_count_as_the_set_loop(toy_index, learner, mode):
    plan = make_folds(toy_index, 5, mode=mode, seed=11)
    _, decisions, _ = out_of_fold(learner, toy_index, plan)
    expected = reference_compare(
        label_map(decisions), label_map(toy_index.arrays().labels),
        toy_index.num_documents, toy_index.num_categories)
    tables = kfold_evaluate(learner, toy_index, plan)
    assert tables == expected
    assert tables.global_table.total == \
        toy_index.num_documents * toy_index.num_categories
