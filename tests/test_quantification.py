"""Quantifier pool: scaling, rate estimation, corrections, error report."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jatecs import (LogisticScaling, NaiveBayesLearner, ValidationError,
                    evaluate_quantification, learn_quantifiers, quantify,
                    scale_score)
from jatecs.learners import TrainedClassifier
from jatecs.quantification import (QUANTIFIERS, PrevalenceEstimate,
                                   QuantifierPool, RatesEstimate, _corrected,
                                   _rate_curve, smoothed_kld, true_prevalences)

from conftest import make_corpus, separable_corpus


class TestScaling:
    def test_zero_maps_to_half(self):
        assert scale_score(LogisticScaling(), 0.0) == 0.5

    def test_log_three_maps_to_three_quarters(self):
        assert scale_score(LogisticScaling(), math.log(3)) == \
            pytest.approx(0.75, abs=1e-12)

    def test_monotone_and_bounded(self):
        scaling = LogisticScaling()
        values = [scale_score(scaling, s)
                  for s in (-1e9, -50, -1, 0, 1, 50, 1e9)]
        assert values == sorted(values)
        assert all(0.0 <= v <= 1.0 for v in values)
        assert values[-1] == pytest.approx(1.0)

    def test_slope_steepens(self):
        assert scale_score(LogisticScaling(slope=4.0), 1.0) > \
            scale_score(LogisticScaling(slope=1.0), 1.0)

    def test_positive_slope_required(self):
        with pytest.raises(ValidationError):
            LogisticScaling(slope=0.0)


class TestCorrectionArithmetic:
    def test_textbook_case(self):
        assert _corrected(0.5, tpr=0.8, fpr=0.2) == pytest.approx(0.5,
                                                                  abs=1e-15)

    def test_clipping_below_zero(self):
        assert _corrected(0.1, tpr=0.8, fpr=0.2) == 0.0

    def test_clipping_above_one(self):
        assert _corrected(0.95, tpr=0.7, fpr=0.1) == 1.0

    def test_degenerate_rates_fall_back_to_observed(self):
        assert _corrected(0.37, tpr=0.5, fpr=0.5) == 0.37


class _FixedScoreClassifier(TrainedClassifier):
    kind = "fixed"

    def __init__(self, scores_by_doc):
        super().__init__(["c0"], [0.0], num_features=0)
        self._scores = scores_by_doc

    def score_document_category(self, index, d_id, c_id):
        return self._scores[d_id]


def _pool_with_rates(scores_by_doc, tpr, fpr):
    rates = RatesEstimate(tpr=tpr, fpr=fpr, tpr_p=tpr, fpr_p=fpr,
                          curve=((0.0, tpr, fpr),),
                          curve_scaled=((0.5, tpr, fpr),))
    return QuantifierPool(classifier=_FixedScoreClassifier(scores_by_doc),
                          scaling=LogisticScaling(), rates={0: rates},
                          category_labels=("c0",))


class TestQuantify:
    def test_acc_correction_through_pool(self):
        # 5 of 10 docs decided positive -> CC 0.5; ACC (0.5-0.2)/0.6 = 0.5
        scores = {d: (1.0 if d < 5 else -1.0) for d in range(10)}
        pool = _pool_with_rates(scores, tpr=0.8, fpr=0.2)
        test = make_corpus([(f"d{i}", {"w": 1}, []) for i in range(10)], ["c0"])
        estimates = quantify(pool, test)
        assert estimates.of("CC", 0) == 0.5
        assert estimates.of("ACC", 0) == pytest.approx(0.5, abs=1e-12)

    def test_acc_clips_at_zero(self):
        scores = {d: (1.0 if d < 1 else -1.0) for d in range(10)}
        pool = _pool_with_rates(scores, tpr=0.8, fpr=0.2)
        test = make_corpus([(f"d{i}", {"w": 1}, []) for i in range(10)], ["c0"])
        estimates = quantify(pool, test)
        assert estimates.of("CC", 0) == pytest.approx(0.1)
        assert estimates.of("ACC", 0) == 0.0

    def test_all_six_within_unit_interval(self):
        scores = {d: math.sin(d * 1.7) * 3 for d in range(20)}
        pool = _pool_with_rates(scores, tpr=0.9, fpr=0.3)
        test = make_corpus([(f"d{i}", {"w": 1}, []) for i in range(20)], ["c0"])
        estimates = quantify(pool, test)
        for name in QUANTIFIERS:
            assert 0.0 <= estimates.of(name, 0) <= 1.0, name

    def test_empty_test_rejected(self):
        pool = _pool_with_rates({}, 0.8, 0.2)
        empty = make_corpus([], ["c0"])
        with pytest.raises(ValidationError):
            quantify(pool, empty)

    def test_pcc_ignores_thresholds(self):
        # PCC averages scaled scores; moving the decision threshold must not
        # move it, while CC reacts
        scores = {d: (d - 4.5) for d in range(10)}
        test = make_corpus([(f"d{i}", {"w": 1}, []) for i in range(10)], ["c0"])
        low = _pool_with_rates(scores, tpr=0.9, fpr=0.1)
        high = _pool_with_rates(scores, tpr=0.9, fpr=0.1)
        high.classifier.thresholds = (3.0,)
        a = quantify(low, test)
        b = quantify(high, test)
        assert a.of("PCC", 0) == b.of("PCC", 0)
        assert a.of("CC", 0) != b.of("CC", 0)

    def test_cc_invariant_under_monotone_rescaling(self):
        # any strictly increasing rescaling that keeps the 0-threshold
        # dichotomy leaves CC untouched
        scores = {d: (d - 4.5) for d in range(10)}
        rescaled = {d: 3.0 * s + (0.5 if s > 0 else -0.5)
                    for d, s in scores.items()}
        test = make_corpus([(f"d{i}", {"w": 1}, []) for i in range(10)], ["c0"])
        a = quantify(_pool_with_rates(scores, 0.9, 0.1), test)
        b = quantify(_pool_with_rates(rescaled, 0.9, 0.1), test)
        assert a.of("CC", 0) == b.of("CC", 0)

    def test_labels_never_consulted(self):
        from conftest import aligned_test_index, separable_docs
        index = separable_corpus(n_per_cat=20)
        pool = learn_quantifiers(NaiveBayesLearner(), index, folds=5)
        docs = separable_docs(n_per_cat=10, seed=5, name_suffix="t")
        with_labels = aligned_test_index(index, docs)
        without_labels = aligned_test_index(
            index, [(name, feats, []) for name, feats, _ in docs])
        assert quantify(pool, with_labels) == quantify(pool, without_labels)


class TestLearnQuantifiers:
    def test_separable_learner_gets_perfect_rates(self):
        index = separable_corpus(n_per_cat=20)
        pool = learn_quantifiers(NaiveBayesLearner(), index, folds=10)
        for c in range(2):
            assert pool.rates[c].tpr == 1.0
            assert pool.rates[c].fpr == 0.0

    def test_acc_equals_cc_under_perfect_rates(self):
        index = separable_corpus(n_per_cat=20)
        pool = learn_quantifiers(NaiveBayesLearner(), index, folds=10)
        test = separable_corpus(n_per_cat=15, seed=31)
        estimates = quantify(pool, test)
        for c in range(2):
            assert estimates.of("ACC", c) == estimates.of("CC", c)

    def test_perfect_classifier_counts_exactly(self):
        index = separable_corpus(n_per_cat=20)
        pool = learn_quantifiers(NaiveBayesLearner(), index, folds=10)
        # prevalence 0.3 for alpha: 6 alpha docs, 14 beta docs
        from conftest import aligned_test_index, separable_docs
        docs = separable_docs(n_per_cat=14, seed=13, name_suffix="t")
        alpha_docs = [d for d in docs if d[2] == ["alpha"]][:6]
        beta_docs = [d for d in docs if d[2] == ["beta"]]
        test = aligned_test_index(index, alpha_docs + beta_docs)
        estimates = quantify(pool, test)
        assert estimates.of("CC", 0) == pytest.approx(0.3, abs=1e-12)

    def test_folds_clamped_to_corpus_size(self):
        index = separable_corpus(n_per_cat=6)
        pool = learn_quantifiers(NaiveBayesLearner(), index, folds=500)
        assert pool.rates[0].tpr == 1.0

    def test_minimum_folds(self):
        index = separable_corpus(n_per_cat=5)
        with pytest.raises(ValidationError):
            learn_quantifiers(NaiveBayesLearner(), index, folds=1)

    def test_thin_category_falls_back_to_simple_folds(self):
        specs = [(f"d{i}", {"a": 1}, ["common"]) for i in range(9)]
        specs.append(("rare0", {"b": 1}, ["rare"]))
        index = make_corpus(specs, ["common", "rare"])
        pool = learn_quantifiers(NaiveBayesLearner(), index, folds=3)
        assert any("simple folds" in w for w in pool.warnings)


def _rate_curve_reference(scores, labels):
    """The O(D^2) definition: rates of `score >= thr` at every distinct
    score, descending."""
    n_pos = sum(1 for y in labels if y)
    n_neg = len(labels) - n_pos
    curve = []
    for thr in sorted(set(scores), reverse=True):
        tp = sum(1 for s, y in zip(scores, labels) if y and s >= thr)
        fp = sum(1 for s, y in zip(scores, labels) if not y and s >= thr)
        curve.append((thr,
                      tp / n_pos if n_pos else 0.0,
                      fp / n_neg if n_neg else 0.0))
    return tuple(curve)


def _signed(curve):
    """The curve with each threshold's sign bit, so -0.0 differs from 0.0."""
    return [(math.copysign(1.0, thr), thr, tpr, fpr)
            for thr, tpr, fpr in curve]


# a few values drawn often enough to tie, both zeros among them
_TIED_SCORES = st.sampled_from([-2.0, -0.0, 0.0, 0.5, 1.0, 1e300])
_SCORES = st.one_of(_TIED_SCORES,
                    st.floats(allow_nan=False, allow_infinity=False))


class TestRateCurve:
    @given(st.lists(st.tuples(_SCORES, st.booleans()), max_size=60))
    @settings(max_examples=300, deadline=None)
    @example([(-0.0, True), (0.0, False), (0.0, True)])
    @example([(0.0, False), (-0.0, True), (1.0, True)])
    def test_matches_quadratic_definition(self, pairs):
        scores = [s for s, _ in pairs]
        labels = [y for _, y in pairs]
        assert _signed(_rate_curve(scores, labels)) == \
            _signed(_rate_curve_reference(scores, labels))

    @given(st.lists(_TIED_SCORES, min_size=1, max_size=40), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_single_class_labels(self, scores, label):
        labels = [label] * len(scores)
        curve = _rate_curve(scores, labels)
        assert _signed(curve) == _signed(_rate_curve_reference(scores, labels))
        # the absent class's rate is reported as 0 at every threshold
        absent = 2 if label else 1
        assert all(point[absent] == 0.0 for point in curve)

    def test_empty(self):
        assert _rate_curve([], []) == ()


class TestReport:
    def test_exact_estimate_zero_errors(self):
        estimates = PrevalenceEstimate({"CC": {0: 0.5}})
        report = evaluate_quantification(estimates, {0: 0.5}, test_size=100)
        _, _, _, _, ae, rae, kld = report.rows[0]
        assert ae == 0.0
        assert rae == 0.0
        assert kld == pytest.approx(0.0, abs=1e-15)

    def test_absolute_error(self):
        estimates = PrevalenceEstimate({"CC": {0: 0.6}})
        report = evaluate_quantification(estimates, {0: 0.5}, test_size=100)
        assert report.rows[0][4] == pytest.approx(0.1, abs=1e-12)

    def test_kld_against_direct_formula(self):
        # oracle: evaluate the smoothed binary KLD expression directly
        eps = 1.0 / (2 * 100)
        p = (0.5 + eps) / (1 + 2 * eps)
        q = (0.6 + eps) / (1 + 2 * eps)
        expected = p * math.log(p / q) + (1 - p) * math.log((1 - p) / (1 - q))
        estimates = PrevalenceEstimate({"CC": {0: 0.6}})
        report = evaluate_quantification(estimates, {0: 0.5}, test_size=100)
        assert report.rows[0][6] == pytest.approx(expected, abs=1e-15)
        assert smoothed_kld(0.6, 0.5, eps) == pytest.approx(expected,
                                                            abs=1e-15)

    def test_rae_smoothing_guards_zero_truth(self):
        estimates = PrevalenceEstimate({"CC": {0: 0.01}})
        report = evaluate_quantification(estimates, {0: 0.0}, test_size=50)
        eps = 1.0 / 100
        assert report.rows[0][5] == pytest.approx(0.01 / eps)

    def test_means_average_categories(self):
        estimates = PrevalenceEstimate({"CC": {0: 0.2, 1: 0.6}})
        report = evaluate_quantification(estimates, {0: 0.0, 1: 0.6},
                                         test_size=10)
        assert report.means["CC"]["AE"] == pytest.approx(0.1)

    def test_true_prevalences_helper(self):
        index = separable_corpus(n_per_cat=10)
        truth = true_prevalences(index)
        assert truth == {0: 0.5, 1: 0.5}
