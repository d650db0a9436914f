"""A document that fails the bulk check is walked entry by entry: the walk
hands build_index each distinct text once, in first-seen order, with its
count total and weight sum, and build_index keeps matching the
entry-by-entry oracle on corpora that mix walked and bulk documents."""

import math
import random
from decimal import Decimal

import numpy as np
import pytest

from jatecs.index import _walked_document

from test_build_index_reference import assert_same_outcome

# np.int64 totals that wrap warn, in the oracle as in build_index
pytestmark = pytest.mark.filterwarnings(
    "ignore:overflow encountered in scalar add:RuntimeWarning")


def test_walk_returns_each_text_once_with_its_sums():
    entries = [("a", 1, 0.1), ("b", 2), ("a", 2.0, 0.2), ("a", True),
               ["c", np.int64(3), None], ("b", 1, -0.0), ("c", 1, "0.5")]
    texts, counts, weights = _walked_document("d0", entries)
    assert texts == ["a", "b", "c"]
    assert counts == [4.0, 3, np.int64(4)]
    assert [type(c) for c in counts] == [float, int, np.int64]
    assert weights == {0: 0.0 + 0.1 + 0.2 + 1.0, 1: 0.0 + 2.0 + -0.0,
                       2: 0.0 + 3.0 + 0.5}


def test_walk_starts_weight_sums_at_zero():
    texts, counts, weights = _walked_document("d0", [("a", 1.0, -0.0)])
    assert (texts, counts) == (["a"], [1.0])
    assert math.copysign(1.0, weights[0]) == 1.0  # 0.0 + -0.0 is 0.0


def test_walk_adds_counts_in_input_order():
    # 0 + 2**62 + np.int64(2**62) wraps; 0 + 2.0 + 2**63 is a float
    _, counts, _ = _walked_document(
        "d0", [("a", 2**62), ("b", 2.0), ("a", np.int64(2**62)),
               ("b", 2**63)])
    assert counts == [np.int64(-2**63), 2.0 + 2**63]


# counts a walk sums and converts, then ones that fail
ODD_COUNTS = [2.0, True, Decimal(2), np.int64(3), np.int64(2**62), 2**62,
              2**63, 2.0**63, 10**400, 0, 1.5]
ODD_WEIGHTS = [None, None, 0.5, -0.0, "0.5", 0.1, 0.2, 0.3, 1e308,
               math.inf, -math.inf, math.nan]
BAD_TEXTS = ["", "x\ty", 7]


def _corpus(rng):
    """Up to four documents: bulk ones of good entries, or odd ones (most of
    them walked) that repeat texts and draw odd counts, weights and
    texts."""
    docs = []
    for d in range(rng.randrange(5)):
        odd = rng.random() < 0.5
        entries = []
        for _ in range(rng.randrange(6)):
            if odd:  # the first few odd values are good ones
                text = rng.choice(BAD_TEXTS if rng.random() < 0.03
                                  else ["a", "b", "c", "dé"])
                count = (rng.choice(ODD_COUNTS[:rng.choice((4, 11))])
                         if rng.random() < 0.4 else rng.randrange(1, 4))
                weight = rng.choice(ODD_WEIGHTS[:rng.choice((9, 12))])
            else:
                text, count = rng.choice("abcd"), rng.randrange(1, 4)
                weight = rng.choice([None, 0.1, 0.2, 0.3, -0.0, 2.5])
            entries.append((text, count) if weight is None
                           and rng.random() < 0.5 else (text, count, weight))
        docs.append((f"d{d}", entries))
    labels = [(name, ["x"]) for name, _ in docs if rng.random() < 0.5]
    return docs, labels, ["x", "y"]


def test_mixed_corpora_match_the_oracle():
    rng = random.Random(20170628)
    for _ in range(3000):
        assert_same_outcome(*_corpus(rng))
