"""build_index has one build: inputs the reference strategies do not draw
(odd count types, totals past 2**53 and 2**63, non-finite sums in an order
other than id order, huge lone counts) match the entry-by-entry oracle, and
no input reaches the dict-of-dicts constructor."""

import math
from collections import namedtuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jatecs import ValidationError, build_index
from jatecs import index as index_module
from jatecs.index import Index, index_file_map

from test_build_index_reference import (
    assert_same_outcome,
    bad_corpora,
    corpora,
    outcome,
    reference_build_index,
)

# np.int64 totals that wrap warn, in the oracle as in build_index
pytestmark = pytest.mark.filterwarnings(
    "ignore:overflow encountered in scalar add:RuntimeWarning")

# a lone count of 2**63 or more, or a total that reaches it, overflows;
# np.int64 totals wrap instead, to a non-positive count
ODD_COUNTS = st.sampled_from([
    1, 2.0, True, np.int64(3), 2**52, 2**53 + 1, 2.0**53, 2.0**62, 2**62,
    np.int64(2**62), 10**16, 2**63])
WEIGHTS = st.sampled_from([None, 0.5, -0.0, "0.5", np.float64(0.25), 1e308])


@st.composite
def repeated_corpora(draw):
    """Corpora whose few texts repeat within a document, with counts of
    mixed types and sizes and some explicit weights."""
    docs = []
    for i in range(draw(st.integers(1, 3))):
        entries = []
        for _ in range(draw(st.integers(1, 5))):
            text, count = draw(st.sampled_from(["a", "b"])), draw(ODD_COUNTS)
            weight = draw(WEIGHTS)
            entries.append((text, count) if weight is None
                           else (text, count, weight))
        docs.append((f"d{i}", entries))
    return docs, [("d0", ["x"])], ["x"]


@st.composite
def corpora_with_a_huge_count(draw):
    """A good corpus with one count of 10**16, past the float64 gate."""
    docs, labels, categories = draw(corpora())
    docs = [(name, list(entries)) for name, entries in docs]
    with_entries = [d for d, (_, entries) in enumerate(docs) if entries]
    if with_entries:
        entries = docs[draw(st.sampled_from(with_entries))][1]
        e = draw(st.integers(0, len(entries) - 1))
        entries[e] = (entries[e][0], 10**16, *entries[e][2:])
    return docs, labels, categories


def _seen(result):
    """What must match: an index's files and arrays, or an error's type
    and text."""
    if not isinstance(result, Index):
        return result
    a = result.arrays()
    return index_file_map(result), [
        (field, x.dtype.str, x.shape, x.tobytes()) for field in
        ("indptr", "rows", "features", "counts", "weights", "labels")
        for x in [getattr(a, field)]]


def _refuse(*args, **kwargs):
    raise AssertionError("build_index took the dict-of-dicts build")


def assert_one_build(docs, labels, categories):
    """build_index matches the oracle with the dict-of-dicts constructor
    patched out; the oracle runs before the patch, as it needs it."""
    expected = outcome(reference_build_index, docs, labels, categories)
    with mock.patch.object(index_module, "_DictRows", _refuse), \
            mock.patch.object(Index, "__init__", _refuse):
        got = outcome(build_index, docs, labels, categories)
    assert _seen(got) == _seen(expected)


OddEntry = namedtuple("OddEntry", "text count")

ODD_CORPORA = [
    [("d0", [("a", np.int64(3)), ("b", True)])],
    [("d0", [["a", 2, "0.5"], ("a", np.int64(2), np.float64(0.25))])],
    [("d0", [OddEntry("a", 2), OddEntry("a", 3)])],  # other sequences
    [("d0", [{"a": 1, 2: 3}])],  # unpacked as a feature "a" with count 2
    [("d0", [("a", 10**16), ("b", 1)]), ("d1", [("b", 2), ("a", 1)])],
    [("d0", [("a", 2**62), ("a", 2**62)])],
    [("d0", [("a", 2.0**53), ("a", 1), ("a", 1)])],
    [(("d", "0"), [("a", 1)])],  # names that are no str
    [("d0", [(("a",), 1)])],
    [("d0", [(("a",), 10**16)])],
]


class TestSinglePath:
    @given(repeated_corpora())
    @settings(max_examples=300, deadline=None)
    def test_repeated_odd_counts(self, corpus):
        assert_same_outcome(*corpus)

    @given(corpora_with_a_huge_count())
    @settings(max_examples=100, deadline=None)
    def test_one_huge_count(self, corpus):
        assert_same_outcome(*corpus)

    def test_odd_corpora(self):
        for docs in ODD_CORPORA:
            assert_same_outcome(docs, [], ["x"])

    def test_first_bad_sum_in_input_order(self):
        # feature ids come from d0 (a=0, b=1); d1 meets b first, so the
        # first bad group in input order is (1, 1), not (1, 0)
        d0 = ("d0", [("a", 1), ("b", 1)])
        big, wraps = (1, 1e308), (np.int64(2**62),)
        cases = [
            ([d0, ("d1", [("b", *big), ("a", *big), ("b", *big),
                          ("a", *big)])],
             "weighting entry (1, 1): non-finite weight"),
            ([d0, ("d1", [("b", *wraps), ("a", *wraps), ("b", *wraps),
                          ("a", *wraps)])],
             "content entry (1, 1): non-positive count"),
            ([d0, ("d1", [("b", *wraps), ("a", *big), ("b", *wraps),
                          ("a", *big)])],
             "content entry (1, 1): non-positive count"),
        ]
        for docs, message in cases:
            assert_same_outcome(docs, [], ["x"])
            assert outcome(build_index, docs, [], ["x"]) == (
                ValidationError, message)

    def test_a_sum_that_raises_comes_before_later_entries(self):
        later = ("d1", [("", 1)])
        for a, b in ((2.0, 10**400), (np.int64(1), 10**30)):
            docs = [("d0", [("a", a, 1.0), ("a", b, 1.0)]), later]
            assert_same_outcome(docs, [], ["x"])
            assert outcome(build_index, docs, [], ["x"])[0] is OverflowError

    def test_count_overflow_after_label_errors(self):
        docs = [("d0", [("a", 2**63)])]
        assert outcome(build_index, docs, [("nosuch", [])], ["x"]) == (
            ValidationError, "labels reference unknown document 'nosuch'")
        assert outcome(build_index, docs, [], ["x"]) == (
            OverflowError, "Python int too large to convert to C long")

    def test_nan_count_is_an_entry_error(self):
        assert_same_outcome([("d0", [("a", 1), ("b", math.nan)])], [], ["x"])


class TestNoSecondBuilder:
    @given(corpora())
    @settings(max_examples=100, deadline=None)
    def test_good_corpora(self, corpus):
        assert_one_build(*corpus)

    @given(st.one_of(repeated_corpora(), corpora_with_a_huge_count()))
    @settings(max_examples=100, deadline=None)
    def test_odd_corpora(self, corpus):
        assert_one_build(*corpus)

    @given(bad_corpora())
    @settings(max_examples=100, deadline=None)
    def test_bad_corpora(self, corpus):
        assert_one_build(*corpus)

    def test_listed_corpora(self):
        for docs in ODD_CORPORA:
            assert_one_build(docs, [], ["x"])
