"""build_index converts each repeated entry's total, not its terms, to
int64: a total that wraps in np.int64 arithmetic is a non-positive count,
as in an entry-by-entry build, and a total of 2**63 or more overflows."""

import numpy as np
import pytest

from jatecs import ValidationError, build_index

from test_build_index_reference import assert_same_outcome, outcome

pytestmark = pytest.mark.filterwarnings(
    "ignore:overflow encountered in scalar add:RuntimeWarning")


def test_a_wrapped_total_with_a_huge_term_is_a_non_positive_count():
    # 2**62 + np.int64(2**62) wraps to -2**63; + 2.0, + 2**63 ends at 0.0
    docs = [("d0", [("a", 2**62), ("a", np.int64(2**62)), ("a", 2.0),
                    ("a", 2**63)])]
    assert_same_outcome(docs, [], ["x"])
    assert outcome(build_index, docs, [], ["x"]) == (
        ValidationError, "content entry (0, 0): non-positive count")


def test_totals_of_2_to_the_63_overflow():
    for entries in ([("a", 2**63)], [("a", 2**62), ("a", 2**62)],
                    [("a", 2.0**62), ("a", np.int64(1)), ("a", 2.0**62)]):
        docs = [("d0", [("b", 1)] + entries)]
        assert_same_outcome(docs, [], ["x"])
        assert outcome(build_index, docs, [], ["x"]) == (
            OverflowError, "Python int too large to convert to C long")


def test_conversion_errors_come_in_input_order():
    # d1 meets b (feature 0) after a (feature 1): a's infinite total is
    # converted first, as an entry-by-entry build converts it
    docs = [("d0", [("b", 1)]),
            ("d1", [("a", 1e308), ("a", 1e308), ("b", 2**63)])]
    assert_same_outcome(docs, [], ["x"])
    assert outcome(build_index, docs, [], ["x"]) == (
        OverflowError, "cannot convert float infinity to integer")
