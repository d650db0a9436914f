"""build_index against the entry-by-entry build it replaced, kept here as
the oracle: the same files, arrays and dtypes on good input, and the same
exception type and text on bad input, the first bad entry in input order
winning."""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jatecs import ValidationError, build_index
from jatecs.index import ConceptDb, Index, _check_name, index_file_map


def reference_build_index(docs, labels, categories) -> Index:
    """The dict-per-document build: every entry checked as it comes."""
    cat_db = ConceptDb(categories, kind="category")
    doc_names = []
    seen_docs = set()
    feature_names: list = []
    feature_ids: dict = {}
    content: dict = {}
    weights: dict = {}
    for name, feats in docs:
        _check_name("document", name)
        if name in seen_docs:
            raise ValidationError(f"duplicate docName {name!r}")
        seen_docs.add(name)
        d = len(doc_names)
        doc_names.append(name)
        row: dict = {}
        wrow: dict = {}
        for entry in feats:
            if len(entry) == 3:
                text, count, weight = entry
            else:
                text, count = entry
                weight = None
            if count <= 0:
                raise ValidationError(
                    f"non-positive count {count} for feature {text!r} in {name!r}")
            if count != int(count):  # counts are stored as int64
                raise ValidationError(
                    f"fractional count {count} for feature {text!r} in {name!r}")
            f = feature_ids.get(text)
            if f is None:
                _check_name("feature", text)
                f = len(feature_names)
                feature_ids[text] = f
                feature_names.append(text)
            row[f] = row.get(f, 0) + count
            w = float(count) if weight is None else float(weight)
            wrow[f] = wrow.get(f, 0.0) + w
        content[d] = row
        weights[d] = wrow
    doc_db = ConceptDb(doc_names, kind="document")
    feat_db = ConceptDb(feature_names, kind="feature")

    classification: dict = {}
    seen_label_docs = set()
    for name, cats in labels:
        if name not in doc_db:
            raise ValidationError(f"labels reference unknown document {name!r}")
        if name in seen_label_docs:
            raise ValidationError(f"duplicate label entry for document {name!r}")
        seen_label_docs.add(name)
        d = doc_db.id(name)
        c_ids = []
        for label in cats:
            if label not in cat_db:
                raise ValidationError(f"unknown category {label!r}")
            c = cat_db.id(label)
            if c not in c_ids:
                c_ids.append(c)
        classification[d] = c_ids
    return Index(cat_db, feat_db, doc_db, content, classification, weights)


def outcome(build, docs, labels, categories):
    """The index `build` returns, or the type and text of what it raises."""
    try:
        return build(docs, labels, categories)
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return type(exc), str(exc)


def assert_same_outcome(docs, labels, categories):
    expected = outcome(reference_build_index, docs, labels, categories)
    got = outcome(build_index, docs, labels, categories)
    if not isinstance(expected, Index):
        assert got == expected
        return
    assert isinstance(got, Index), got
    assert index_file_map(got) == index_file_map(expected)
    a, b = got.arrays(), expected.arrays()
    for field in ("indptr", "rows", "features", "counts", "weights", "labels"):
        x, y = getattr(a, field), getattr(b, field)
        assert x.dtype == y.dtype, field
        assert x.shape == y.shape, field
        assert x.tobytes() == y.tobytes(), field  # -0.0 differs from 0.0
        assert not x.flags.writeable, field
    assert list(got.weight_items()) == list(expected.weight_items())


TEXTS = ["a", "b", "c", "dé", "x y"]
COUNTS = st.sampled_from([1, 1, 2, 3, 7, 2.0, 5.0, 10**6])
# 0.1 + 0.2 + 0.3 != 0.3 + 0.2 + 0.1: weights must add in input order
WEIGHTS = st.sampled_from([-0.0, 0.0, 0.5, 3.25, -2.0, 0.1, 0.2, 0.3, 1e-300])
CATEGORIES = ["x", "y", "z"]


@st.composite
def corpora(draw):
    """(docs, labels, categories) of good entries, with texts repeated in a
    document, 2- and 3-tuples and integral float counts."""
    categories = draw(st.lists(st.sampled_from(CATEGORIES), min_size=1,
                               unique=True))
    docs, labels = [], []
    for i in range(draw(st.integers(0, 5))):
        entries = []
        for _ in range(draw(st.integers(0, 6))):
            text, count = draw(st.sampled_from(TEXTS)), draw(COUNTS)
            if draw(st.booleans()):
                entries.append((text, count, draw(WEIGHTS)))
            else:
                entries.append((text, count))
        docs.append((f"d{i}", entries))
        if draw(st.booleans()):
            labels.append((f"d{i}", draw(st.lists(st.sampled_from(categories),
                                                  max_size=3))))
    return docs, draw(st.permutations(labels)), categories


# one bad input each: (name, how it changes docs, labels and categories)
def _set_name(name):
    def change(draw, docs, labels, categories):
        if docs:
            i = draw(st.integers(0, len(docs) - 1))
            docs[i] = (name(draw, docs), docs[i][1])
    return change


def _set_entry(make):
    def change(draw, docs, labels, categories):
        with_entries = [d for d, (_, entries) in enumerate(docs) if entries]
        if with_entries:
            d = draw(st.sampled_from(with_entries))
            entries = docs[d][1]
            e = draw(st.integers(0, len(entries) - 1))
            entries[e] = make(entries[e])
    return change


def _add_label(make):
    def change(draw, docs, labels, categories):
        labels.insert(draw(st.integers(0, len(labels))), make(draw, docs))
    return change


DEFECTS = {
    "empty document name": _set_name(lambda draw, docs: ""),
    "tabbed document name": _set_name(lambda draw, docs: "d\t9"),
    "duplicate document": _set_name(
        lambda draw, docs: draw(st.sampled_from(docs))[0]),
    "empty feature": _set_entry(lambda entry: ("", *entry[1:])),
    "tabbed feature": _set_entry(lambda entry: ("a\tb", *entry[1:])),
    "zero count": _set_entry(lambda entry: (entry[0], 0, *entry[2:])),
    "negative count": _set_entry(lambda entry: (entry[0], -1, *entry[2:])),
    "fractional count": _set_entry(lambda entry: (entry[0], 1.5, *entry[2:])),
    "nan count": _set_entry(lambda entry: (entry[0], math.nan, *entry[2:])),
    "infinite count": _set_entry(lambda entry: (entry[0], math.inf)),
    "count beyond int64": _set_entry(lambda entry: (entry[0], 2**64)),
    "nan weight": _set_entry(lambda entry: (*entry[:2], math.nan)),
    "infinite weight sum": _set_entry(lambda entry: (*entry[:2], 1e308)),
    "unknown document label": _add_label(lambda draw, docs: ("nosuch", [])),
    "duplicate label entry": _add_label(
        lambda draw, docs: (draw(st.sampled_from(docs))[0], [])
        if docs else ("d0", [])),
    "unknown category": _add_label(
        lambda draw, docs: (draw(st.sampled_from(docs))[0], ["nosuch"])
        if docs else ("nosuch", [])),
}


@st.composite
def bad_corpora(draw):
    """A corpus with one or two bad inputs anywhere in it."""
    docs, labels, categories = draw(corpora())
    docs = [(name, list(entries)) for name, entries in docs]
    labels = list(labels)
    for name in draw(st.lists(st.sampled_from(sorted(DEFECTS)), min_size=1,
                              max_size=2)):
        DEFECTS[name](draw, docs, labels, categories)
    return docs, labels, categories


class TestBuildIndexMatchesReference:
    @given(corpora())
    @settings(max_examples=300, deadline=None)
    @example(([("d0", [("a", 1, -0.0)]), ("d1", [("b", 2), ("b", 1, -0.0),
                                                  ("b", 2.0, 0.5)])],
              [("d1", ["x", "x"])], ["x"]))
    @example(([("d0", [("a", 1, 0.1), ("b", 1), ("a", 1, 0.2), ("a", 2, 0.3)])],
              [], ["x"]))
    def test_good_corpora(self, corpus):
        assert_same_outcome(*corpus)

    @given(bad_corpora())
    @settings(max_examples=500, deadline=None)
    def test_bad_corpora(self, corpus):
        assert_same_outcome(*corpus)

    def test_first_bad_input_in_traversal_order_wins(self):
        # each corpus mends the first bad input of the one before it; the
        # NaN weight and the unknown label come first in traversal order,
        # but the entry-by-entry build meets them only after its last entry
        good_d0 = ("d0", [("a", 1, math.nan), ("b", 1)])
        cases = [
            ([("d0", [("a", 1, math.nan), ("b", 1.5)]), ("d1", [("", 1)])],
             [("nosuch", [])], "fractional count 1.5 for feature 'b' in 'd0'"),
            ([good_d0, ("d1", [("", 1)])], [("nosuch", [])],
             "empty feature name"),
            ([good_d0, ("d1", [("c", 1)])], [("nosuch", [])],
             "labels reference unknown document 'nosuch'"),
            ([good_d0, ("d1", [("c", 1)])], [],
             "weighting entry (0, 0): non-finite weight"),
        ]
        for docs, labels, message in cases:
            assert_same_outcome(docs, labels, ["x"])
            assert outcome(build_index, docs, labels, ["x"]) == (
                ValidationError, message)

    def test_bad_category_table(self):
        for categories in (["x", "x"], ["", "x"], ["a\nb"]):
            assert_same_outcome([("d0", [("a", 1)])], [], categories)

    def test_counts_too_large_for_float64_sums(self):
        # the bulk path cannot add these exactly; the result must not change
        for count in (2**52, 2**53 + 1, 2**62):
            assert_same_outcome([("d0", [("a", count), ("a", 1)])], [], ["x"])
        assert_same_outcome([("d0", [("a", 2**62), ("a", 2**62)])], [], ["x"])
        assert_same_outcome([("d0", [("a", 2.0**53), ("a", 1)])], [], ["x"])

    def test_numpy_and_odd_entries(self):
        assert_same_outcome([("d0", [("a", np.int64(3)), ("b", True)])], [],
                            ["x"])
        assert_same_outcome([("d0", [["a", 2, "0.5"]])], [], ["x"])
        assert_same_outcome([("d0", [("a",)])], [], ["x"])
        assert_same_outcome([("d0", [("a", 1, 1.0, 1.0)])], [], ["x"])
        assert_same_outcome([("d0", [("a", "2")])], [], ["x"])
        assert_same_outcome([("d0", [(["a"], 1)])], [], ["x"])
        assert_same_outcome([(7, [("a", 1)])], [], ["x"])

    def test_empty_corpus(self):
        assert_same_outcome([], [], ["x"])
        assert_same_outcome([("d0", [])], [("d0", [])], ["x"])
