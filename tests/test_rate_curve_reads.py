"""Every read of an array-backed rate curve gives what the same read of the
tuple of its (threshold, tpr, fpr) points gives, as the reads of an
array-backed TSR ranking are checked against its tuple entries."""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jatecs.index import ArrayRows
from jatecs.quantification import RateCurve, _rate_curves
from jatecs.tsr import RankingEntries

from test_rate_curves import _tuple_rate_curves
from test_tsr_arrays import SLICES


def bits(points):
    return [tuple(v.hex() if math.isfinite(v) else repr(v) for v in point)
            for point in points]


def assert_reads_as(curve, expected):
    """Every read of `curve` gives what the same read of the tuple curve
    `expected` gives."""
    assert isinstance(curve, RateCurve) and isinstance(curve, ArrayRows)
    n = len(expected)
    assert len(curve) == n
    for i in range(-n, n):
        point = curve[i]
        assert type(point) is tuple and len(point) == 3
        assert all(type(v) is float for v in point)
        assert bits([point]) == bits([expected[i]])
    for i in (n, -n - 1):
        try:
            curve[i]
        except IndexError:
            pass
        else:
            raise AssertionError(f"curve[{i}] of {n} did not raise")
    for cut in SLICES:
        assert type(curve[cut]) is tuple
        assert bits(curve[cut]) == bits(expected[cut])
    listed = list(curve)
    assert all(type(v) is float for point in listed for v in point)
    assert bits(listed) == bits(expected)
    assert curve == expected and expected == curve
    assert curve != list(expected)
    assert hash(curve) == hash(expected)
    assert repr(curve) == repr(expected)


SCORE = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.25, 1e300, -1e300])


@st.composite
def score_columns(draw):
    """(scores, labels), D x C, with ties, signed zeros and 1e300."""
    n_docs = draw(st.integers(min_value=0, max_value=12))
    n_cats = draw(st.integers(min_value=1, max_value=3))
    cells = st.lists(st.tuples(SCORE, st.booleans()),
                     min_size=n_docs * n_cats, max_size=n_docs * n_cats)
    scores, labels = zip(*draw(cells)) if n_docs else ((), ())
    return (np.array(scores, dtype=np.float64).reshape(n_docs, n_cats),
            np.array(labels, dtype=bool).reshape(n_docs, n_cats))


@given(score_columns())
@settings(max_examples=150, deadline=None, derandomize=True)
@example((np.zeros((0, 1)), np.zeros((0, 1), dtype=bool)))
@example((np.array([[0.0, 1e300], [-0.0, -0.0], [-0.0, 0.25], [0.0, 0.25],
                    [1e300, -1e300], [1e300, 0.0]]),
          np.array([[True, False], [False, False]] * 3)))
def test_curves_read_as_their_tuple_points(columns):
    scores, labels = columns
    expected = _tuple_rate_curves(scores, labels)
    for curve, points in zip(_rate_curves(scores, labels), expected,
                             strict=True):
        assert_reads_as(curve, points)
        assert curve.points.shape == (3, len(points))
        assert not curve.points.flags.writeable


def test_views_of_equal_rows_compare_equal_across_subclasses():
    """A view answers ==, hash and repr as the tuple of its rows, whatever
    subclass holds the columns."""
    ids, scores = np.array([2, 0]), np.array([0.5, 0.5])
    ranking = RankingEntries(ids, scores)
    plain = ArrayRows(ids, scores)
    assert ranking == plain == ((2, 0.5), (0, 0.5))
    assert hash(ranking) == hash(plain) == hash(((2, 0.5), (0, 0.5)))
    assert repr(plain) == repr(((2, 0.5), (0, 0.5)))
    assert ranking != [(2, 0.5), (0, 0.5)]
