"""Prevalence estimation: a pool of six quantifiers over one classifier.

The pool pairs classify-and-count with its adjusted and threshold-policy
corrections, plus the probabilistic (score averaging) counterparts:

  CC    fraction of documents decided positive
  ACC   CC corrected by fold-estimated tpr/fpr
  MAX   ACC at the rate-curve threshold maximizing tpr - fpr
  PCC   mean logistic-scaled score
  PACC  PCC corrected by mean scaled scores on positives/negatives
  PMAX  MAX computed over the scaled scores

Correction rates are estimated from out-of-fold predictions on the training
set only; the test set is never consulted (quantify receives no labels).
The pool composition is a registry, so swapping members is trivial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .experiments import SIMPLE, STRATIFIED, make_folds, out_of_fold
from .index import Index, subset_index  # bench/tracing.py rebinds it
from .learners import TrainedClassifier, train
from .sums import seq_sum

QUANTIFIERS = ("CC", "ACC", "MAX", "PCC", "PACC", "PMAX")

DEFAULT_FOLDS = 50

_RATE_EPS = 1e-9


@dataclass(frozen=True)
class LogisticScaling:
    """Maps raw classifier scores into (0, 1) via 1 / (1 + exp(-slope * s))."""

    slope: float = 1.0

    def __post_init__(self):
        if not math.isfinite(self.slope) or self.slope <= 0:
            raise ValidationError("logistic slope must be finite and > 0")


def scale_score(scaling: LogisticScaling, raw_score: float) -> float:
    x = scaling.slope * raw_score
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def scale_scores(scaling: LogisticScaling, raw_scores) -> np.ndarray:
    """:func:`scale_score` of every raw score, bit for bit: the exponential
    is math.exp's (numpy's exp may round another way), the rest are IEEE
    operations on the same operands."""
    with np.errstate(over="ignore"):  # slope * s may overflow to +-inf
        x = scaling.slope * np.asarray(raw_scores, dtype=np.float64)
    positive = x >= 0  # False for NaN, as in scale_score
    e = np.fromiter(map(math.exp, np.where(positive, -x, x).tolist()),
                    np.float64, len(x))
    return np.where(positive, 1.0 / (1.0 + e), e / (1.0 + e))


def _rate_curve(scores, labels):
    """(threshold, tpr, fpr) at every distinct score, descending threshold.

    One stable sort and a cumulative sum, O(D log D) (the threshold sweep of
    Forman 2008).  Scores that compare equal, such as -0.0 and 0.0, share one
    point whose threshold is their first occurrence in `scores`.
    """
    return _rate_curves(np.asarray(scores, dtype=np.float64).reshape(-1, 1),
                        np.asarray(labels, dtype=bool).reshape(-1, 1))[0]


def _rate_curves(scores, labels) -> list:
    """_rate_curve of every column of the D x C `scores` and `labels`, from
    one stable sort of each column by descending score."""
    n_docs, n_cats = scores.shape
    if not n_docs:
        return [()] * n_cats
    order = np.argsort(-scores, axis=0, kind="stable")
    ordered = np.take_along_axis(scores, order, axis=0).T
    tp = np.cumsum(np.take_along_axis(labels, order, axis=0), axis=0).T
    fp = np.arange(1, n_docs + 1) - tp
    # a point per run of equal scores: its first score, the rates at its end
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


@dataclass(frozen=True)
class RatesEstimate:
    """Fold-estimated correction rates for one category."""

    tpr: float
    fpr: float
    tpr_p: float
    fpr_p: float
    curve: tuple         # over raw scores
    curve_scaled: tuple  # over logistic-scaled scores


@dataclass(frozen=True)
class PrevalenceEstimate:
    """per quantifier name -> {cID: estimated prevalence in [0, 1]}."""

    estimates: dict

    def of(self, quantifier: str, c_id: int) -> float:
        return self.estimates[quantifier][c_id]


@dataclass(frozen=True)
class QuantifierPool:
    classifier: TrainedClassifier
    scaling: LogisticScaling
    rates: dict  # cID -> RatesEstimate
    category_labels: tuple
    warnings: tuple = field(default_factory=tuple)


def learn_quantifiers(learner, train_index: Index, folds: int = DEFAULT_FOLDS,
                      scaling: LogisticScaling | None = None) -> QuantifierPool:
    """Estimate rates from out-of-fold predictions, then train on everything.

    Any classification learner plugs in.  `folds` is clamped to the training
    size; stratified folds are used unless some category has fewer than two
    positives, in which case simple folds are used and a warning is added
    to the pool's `warnings`.
    """
    if scaling is None:
        scaling = LogisticScaling()
    if folds < 2:
        raise ValidationError("folds must be >= 2")
    n_docs = train_index.num_documents
    if n_docs < 2:
        raise ValidationError("need at least 2 training documents")
    folds = min(folds, n_docs)
    warnings = []
    mode = STRATIFIED
    sizes = np.count_nonzero(train_index.arrays().labels, axis=0).tolist()
    thin = [train_index.categories.name(c)
            for c, size in enumerate(sizes) if size < 2]
    if thin:
        mode = SIMPLE
        message = ("categories with fewer than 2 positives, falling back to "
                   f"simple folds: {', '.join(thin)}")
        warnings.append(message)
    plan = make_folds(train_index, folds, mode=mode, seed=0)
    oof_scores, oof_decisions, _ = out_of_fold(learner, train_index, plan)
    # trained before the rate curves are built, so its training buffers and
    # the curves are not alive at once
    classifier = train(learner, train_index)
    warnings.extend(classifier.warnings)

    labels = train_index.arrays().labels
    scaled = scale_scores(scaling, oof_scores.ravel()).reshape(
        oof_scores.shape)
    means = zip(*_class_means(oof_decisions, labels),
                *_class_means(scaled, labels))
    rates = {c: RatesEstimate(tpr=tpr, fpr=fpr, tpr_p=tpr_p, fpr_p=fpr_p,
                              curve=curve, curve_scaled=curve_scaled)
             for c, ((tpr, fpr, tpr_p, fpr_p), curve, curve_scaled)
             in enumerate(zip(means, _rate_curves(oof_scores, labels),
                              _rate_curves(scaled, labels)))}
    return QuantifierPool(classifier=classifier, scaling=scaling, rates=rates,
                          category_labels=train_index.categories.names,
                          warnings=tuple(warnings))


def _mean_where(values, labels, label: bool) -> float:
    """Mean of the values whose label is `label`, summed left to right; 0.0
    when there are none."""
    picked = [v for v, y in zip(values, labels) if y == label]
    return seq_sum(picked) / len(picked) if picked else 0.0


def _class_means(values, labels) -> tuple:
    """Per column of the D x C `values`, _mean_where over the documents
    whose label is True and over those whose label is False, as lists: the
    values of a column added left to right onto 0.0, in a bincount."""
    means = []
    for label in (labels.T, ~labels.T):
        cats, docs = np.nonzero(label)
        sizes = np.count_nonzero(label, axis=1)
        sums = np.bincount(cats, weights=values.T[cats, docs],
                           minlength=len(sizes))
        mean = np.zeros(len(sizes))
        np.divide(sums, sizes, out=mean, where=sizes != 0)
        means.append(mean.tolist())
    return tuple(means)


def _clip(p: float) -> float:
    return min(1.0, max(0.0, p))


def _corrected(observed: float, tpr: float, fpr: float) -> float:
    if abs(tpr - fpr) < _RATE_EPS:
        return _clip(observed)
    return _clip((observed - fpr) / (tpr - fpr))


def _best_threshold(curve) -> tuple:
    """Curve point maximizing tpr - fpr, the first of equal ones, so ties
    keep the highest threshold; None when the curve is empty.  The rates
    are never NaN."""
    if not curve:
        return None
    _, tpr, fpr = np.array(curve).T
    return curve[int(np.argmax(tpr - fpr))]


def _at_best_threshold(curve, values: np.ndarray, fallback: float) -> float:
    """The share of values at or above the curve's best threshold, corrected
    by that point's rates; `fallback`, clipped, when the curve is empty."""
    point = _best_threshold(curve)
    if point is None:
        return _clip(fallback)
    thr, tpr, fpr = point
    return _corrected(int(np.count_nonzero(values >= thr)) / len(values),
                      tpr, fpr)


def check_test_categories(test: Index, category_labels: tuple) -> None:
    """Reject a test index whose category table is not the training one."""
    if test.categories.names != category_labels:
        raise ValidationError("the test index's category table differs from "
                              "the training index's")


def quantify(pool: QuantifierPool, test: Index) -> PrevalenceEstimate:
    """All six prevalence estimates per category on an unlabeled test index
    whose category table is the training index's."""
    check_test_categories(test, pool.category_labels)
    n_docs = test.num_documents
    if n_docs == 0:
        raise ValidationError("cannot quantify an empty test set")
    estimates: dict = {name: {} for name in QUANTIFIERS}
    scores = pool.classifier.score_index(test)
    decided = pool.classifier.decisions(scores).sum(axis=0).tolist()
    for c in range(pool.classifier.num_categories):
        rates = pool.rates[c]
        scaled = scale_scores(pool.scaling, scores[:, c])
        cc = decided[c] / n_docs
        pcc = seq_sum(scaled) / n_docs
        estimates["CC"][c] = _clip(cc)
        estimates["PCC"][c] = _clip(pcc)
        estimates["ACC"][c] = _corrected(cc, rates.tpr, rates.fpr)
        estimates["PACC"][c] = _corrected(pcc, rates.tpr_p, rates.fpr_p)
        estimates["MAX"][c] = _at_best_threshold(rates.curve, scores[:, c], cc)
        estimates["PMAX"][c] = _at_best_threshold(rates.curve_scaled,
                                                  scaled, pcc)
    return PrevalenceEstimate(estimates=estimates)


# -- evaluation -----------------------------------------------------------------


@dataclass(frozen=True)
class QuantificationReport:
    """Per (quantifier, category) errors plus per-quantifier means."""

    rows: tuple   # (quantifier, cID, estimate, true, AE, RAE, KLD)
    means: dict   # quantifier -> {"AE": .., "RAE": .., "KLD": ..}


def smoothed_kld(estimated: float, true: float, eps: float) -> float:
    """Binary KL divergence with both distributions epsilon-smoothed."""
    p = (true + eps) / (1.0 + 2.0 * eps)
    q = (estimated + eps) / (1.0 + 2.0 * eps)
    return p * math.log(p / q) + (1.0 - p) * math.log((1.0 - p) / (1.0 - q))


def evaluate_quantification(estimates: PrevalenceEstimate,
                            true_prevalences: dict,
                            test_size: int) -> QuantificationReport:
    """AE, RAE and epsilon-smoothed KLD per quantifier and category.

    eps = 1 / (2 * |test|) smooths both the KLD and the RAE denominator.
    """
    if test_size < 1:
        raise ValidationError("test_size must be >= 1")
    eps = 1.0 / (2.0 * test_size)
    rows = []
    for name, per_cat in estimates.estimates.items():
        if set(per_cat) != set(true_prevalences):
            raise ValidationError("estimate and truth category sets differ")
        for c in sorted(per_cat):
            p_hat, p = per_cat[c], true_prevalences[c]
            ae = abs(p_hat - p)
            rows.append((name, c, p_hat, p, ae, ae / max(p, eps),
                         smoothed_kld(p_hat, p, eps)))
    n_cats = max(1, len(true_prevalences))
    means = {name: {key: seq_sum([r[i] for r in rows if r[0] == name]) / n_cats
                    for i, key in ((4, "AE"), (5, "RAE"), (6, "KLD"))}
             for name in estimates.estimates}
    return QuantificationReport(rows=tuple(rows), means=means)


def true_prevalences(index: Index) -> dict:
    """Gold prevalence of every category in a labeled index."""
    n = index.num_documents
    sizes = np.count_nonzero(index.arrays().labels, axis=0).tolist()
    return {c: (size / n if n else 0.0) for c, size in enumerate(sizes)}
