"""The quantifier rate curves as arrays: a RateCurve reads its points from
one 3 x n float64 array, and the pool learns and quantifies to the bits of
the pool that kept its curves as tuples of (threshold, tpr, fpr) points."""

import tracemalloc

import numpy as np
import pytest

from jatecs import build_index
from jatecs import quantification
from jatecs.learners import (AdaBoostMHLearner, KnnLearner, NaiveBayesLearner,
                             RocchioLearner)
from jatecs.quantification import (QUANTIFIERS, RateCurve, _rate_curve,
                                   learn_quantifiers, quantify)

from test_building_blocks import toy_index  # noqa: F401 (a fixture)
from test_memory_bounds import _corpus

ALL_LEARNERS = [NaiveBayesLearner(), RocchioLearner(), KnnLearner(k=5),
                AdaBoostMHLearner(iterations=5)]


def _tuple_rate_curves(scores, labels) -> list:
    """The rate curves as tuples of (threshold, tpr, fpr) floats: one
    stable sort per column, a point per run of equal scores."""
    n_docs, n_cats = scores.shape
    if not n_docs:
        return [()] * n_cats
    order = np.argsort(-scores, axis=0, kind="stable")
    ordered = np.take_along_axis(scores, order, axis=0).T
    tp = np.cumsum(np.take_along_axis(labels, order, axis=0), axis=0).T
    fp = np.arange(1, n_docs + 1) - tp
    first = np.ones(ordered.shape, dtype=bool)
    first[:, 1:] = ordered[:, 1:] != ordered[:, :-1]
    last = np.ones(ordered.shape, dtype=bool)
    last[:, :-1] = first[:, 1:]
    n_pos = tp[:, -1:]
    tpr = np.zeros(tp.shape)
    np.divide(tp, n_pos, out=tpr, where=n_pos != 0)
    fpr = np.zeros(fp.shape)
    np.divide(fp, n_docs - n_pos, out=fpr, where=n_pos != n_docs)
    thresholds, tpr, fpr = ordered[first], tpr[last], fpr[last]
    ends = np.cumsum(np.count_nonzero(first, axis=1)).tolist()
    return [tuple(zip(thresholds[start:end].tolist(), tpr[start:end].tolist(),
                      fpr[start:end].tolist()))
            for start, end in zip([0] + ends[:-1], ends)]


def _hex(value):
    """Every float in `value`, nested in tuples, as float.hex."""
    if isinstance(value, float):
        return value.hex()
    return tuple(map(_hex, value))


def _rates_bits(pool) -> list:
    return [(c, _hex((r.tpr, r.fpr, r.tpr_p, r.fpr_p)), _hex(r.curve),
             _hex(r.curve_scaled)) for c, r in sorted(pool.rates.items())]


def _estimate_bits(estimate) -> list:
    return [(name, c, estimate.of(name, c).hex())
            for name in QUANTIFIERS for c in sorted(estimate.estimates[name])]


@pytest.mark.parametrize("learner", ALL_LEARNERS,
                         ids=lambda learner: type(learner).__name__)
def test_array_curves_learn_and_quantify_as_tuple_curves(toy_index, learner,
                                                         monkeypatch):
    pool = learn_quantifiers(learner, toy_index, folds=4)
    estimate = quantify(pool, toy_index)
    with monkeypatch.context() as patch:
        patch.setattr(quantification, "_rate_curves", _tuple_rate_curves)
        tuple_pool = learn_quantifiers(learner, toy_index, folds=4)
    assert all(type(r.curve) is tuple and type(r.curve_scaled) is tuple
               for r in tuple_pool.rates.values())
    assert all(isinstance(r.curve, RateCurve) for r in pool.rates.values())
    assert _rates_bits(pool) == _rates_bits(tuple_pool)
    assert pool.rates == tuple_pool.rates
    # a pool built with tuple curves still quantifies, to the same bits
    assert _estimate_bits(quantify(tuple_pool, toy_index)) == \
        _estimate_bits(estimate)


def test_a_curve_is_the_tuple_of_its_points():
    scores = [0.5, -0.0, 0.0, 2.0, 0.5]
    labels = [True, False, True, False, False]
    curve = _rate_curve(scores, labels)
    points = _tuple_rate_curves(np.array(scores).reshape(-1, 1),
                                np.array(labels).reshape(-1, 1))[0]
    assert isinstance(curve, RateCurve)
    assert curve == points and points == curve
    assert hash(curve) == hash(points)
    assert len(curve) == len(points) == 3
    assert list(curve) == list(points)
    assert curve[0] == points[0] and curve[-1] == points[-1]
    assert curve[1:] == points[1:]
    assert all(type(v) is float for point in curve for v in point)
    assert curve != points[:-1] and curve != list(points)
    assert _rate_curve([], []) == () and hash(_rate_curve([], [])) == hash(())
    with pytest.raises(ValueError):
        curve.points[0, 0] = 1.0  # read-only


def test_curves_retain_few_bytes_per_point():
    """learn_quantifiers' retained bytes (the pool: classifier and curves)
    per curve point, on 60 categories of 400 documents: 154 when each
    point was a tuple of three floats (144 bytes), 34 as arrays."""
    docs, labels, categories = _corpus(11, 400, 20, 2000, 60)
    index = build_index(docs, labels, categories)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        pool = learn_quantifiers(NaiveBayesLearner(), index, folds=10)
        retained = tracemalloc.get_traced_memory()[0] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    points = sum(len(r.curve) + len(r.curve_scaled)
                 for r in pool.rates.values())
    assert points >= 40_000
    assert retained / points < 80, retained / points
