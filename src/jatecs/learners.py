"""Native learning algorithms and the classifier contract.

Every learner treats each category as an independent binary problem, so all
classifiers are multilabel-capable.  Naive Bayes consumes raw occurrence
counts, Rocchio and kNN consume the weighting relation, and the boosting
learner consumes binary feature presence.

Training and scoring read the index's array view (:meth:`Index.arrays`): a
document-major CSR of the content and weighting relations plus a D x C label
matrix.  With nnz the training nonzeros and n those of the scored documents:

  NB       one bincount over the (nonzero, label) pairs gives the class
           counts of every category, and their logs come from a table
           filled at the counts that occur, without a sort; scoring adds n
           terms per category
  Rocchio  one weighted bincount over the nonzeros per category; scoring
           adds n profile products per category
  kNN      training keeps the view; score_index sorts it into feature-major
           postings once per call, O(nnz log D), then takes the query rows
           in blocks of at most KNN_BLOCK_CELLS similarities and joined
           postings: one bincount over the block's postings join gives the
           dot products, a partition per row the k nearest, and row sums
           over those, sorted once by (row, -similarity, id), the votes.
           A single score_document call builds the postings too, so it
           costs O(nnz log D) rather than a scan's O(nnz)
  boost    each category's nonzeros are split by class once; a round is one
           weighted bincount over each class's nonzeros (W+ and W- of every
           feature) and an argmin of Z over the features, and the chosen
           stump's documents come from postings built once per train;
           scoring adds the rounds in order over a row x stump feature
           presence

Sums behind a score run left to right in ascending id, the order of a scalar
loop, through :mod:`jatecs.sums` (or a weighted bincount, which adds in the
same order), so interleaved zeros leave them unchanged and ties go to the
lower id.  Logarithms and exponentials that end up in a model are taken with
:mod:`math`: numpy's vectorized ones can differ from them in the last bit.

A trained classifier can score any index sharing the training feature space;
feature ids beyond the trained vocabulary are ignored.  The training index's
feature domain becomes a C x F feature mask, all True when the domain is
global, and features that are invalid for a category contribute nothing to
that category's score.  kNN and Rocchio make one pass per distinct mask row,
shared by the categories that have it, so a global domain takes one pass.
"""

from __future__ import annotations

import math
import os
import pickle
from dataclasses import dataclass

import numpy as np

from .errors import ParseError, ValidationError
from .evaluation import label_map
from .index import Index
from .sums import row_sums, seq_sum

#: score emitted for categories that could not be trained (no positives)
MIN_SCORE = -1e300

NAIVE_BAYES = "NaiveBayes"
ROCCHIO = "Rocchio"
KNN = "KNN"
ADABOOST_MH = "AdaBoostMH"


def _check_finite(learner, *names) -> None:
    for name in names:
        if not math.isfinite(getattr(learner, name)):
            raise ValidationError(f"{name} must be finite")


@dataclass(frozen=True)
class NaiveBayesLearner:
    """Multinomial Bayes with Laplace(1) smoothing, log-odds decisions."""

    kind = NAIVE_BAYES


@dataclass(frozen=True)
class RocchioLearner:
    """Profile classifier: positive centroid minus a weighted negative one.

    Negative profile components are clipped at zero; the score is the cosine
    between profile and document vector.  A document is assigned when its
    similarity strictly exceeds the threshold ("any positive similarity").
    """

    kind = ROCCHIO
    beta: float = 16.0
    gamma: float = 4.0
    threshold: float = 0.0

    def __post_init__(self):
        _check_finite(self, "beta", "gamma", "threshold")


@dataclass(frozen=True)
class KnnLearner:
    """k nearest neighbors by cosine similarity, vote weighted by similarity."""

    kind = KNN
    k: int = 30
    threshold: float = 0.5

    def __post_init__(self):
        if self.k < 1:
            raise ValidationError("k must be >= 1")
        _check_finite(self, "threshold")


@dataclass(frozen=True)
class AdaBoostMHLearner:
    """Real-valued one-feature stumps boosted for T rounds per category."""

    kind = ADABOOST_MH
    iterations: int = 100

    def __post_init__(self):
        if self.iterations < 1:
            raise ValidationError("iterations must be >= 1")


LEARNERS = {
    "nb": NaiveBayesLearner,
    "rocchio": RocchioLearner,
    "knn": KnnLearner,
    "boost": AdaBoostMHLearner,
}


def make_learner(kind: str, /, **params):
    """CLI/grid-search factory; rejects unknown kinds and parameters."""
    try:
        cls = LEARNERS[kind]
    except KeyError:
        raise ValidationError(f"unknown learner kind {kind!r}") from None
    fields = cls.__dataclass_fields__
    coerced = {}
    for name, value in params.items():
        if name not in fields:
            raise ValidationError(f"unknown {kind} hyperparameter {name!r}")
        try:  # to the type of the field's default
            coerced[name] = type(fields[name].default)(value)
        except (TypeError, ValueError):
            raise ValidationError(f"bad value {value!r} for {kind} "
                                  f"hyperparameter {name!r}") from None
    return cls(**coerced)


@dataclass(frozen=True)
class ClassificationResult:
    """Per-category scores and threshold decisions for one document.

    Covers all categories when produced by classify_document, or a single
    one when produced by classify_category.
    """

    scores: dict
    decisions: dict


class TrainedClassifier:
    """Base classifier: per-category scoring plus threshold decisions.

    A learner implements ``_kernel``, the scores of the rows `_block`
    returns.  A subclass without one overrides :meth:`score_document` or
    :meth:`score_document_category`; each defaults to the other.
    """

    kind = "?"
    _kernel = None

    def __init__(self, category_labels, thresholds, num_features,
                 masks=None, strict=False, warnings=()):
        self.category_labels = tuple(category_labels)
        self.thresholds = tuple(thresholds)
        self.num_features = num_features       # trained vocabulary size
        self.masks = masks                     # C x F valid features (None
                                               # only in a kernel-less stub)
        self.strict = strict                   # decision uses > instead of >=
        self.warnings = list(warnings)
        self.hyperparameters = {}              # filled in by train()

    @property
    def num_categories(self) -> int:
        return len(self.category_labels)

    def decisions(self, scores: np.ndarray) -> np.ndarray:
        """Threshold decisions of a score row or D x C score matrix:
        score >= the category's threshold, or > when strict."""
        return (np.greater if self.strict else np.greater_equal)(
            scores, self.thresholds)

    def score_index(self, index: Index) -> np.ndarray:
        """D x C float64 scores of every document of `index`; row d equals
        score_document(index, d) bit for bit."""
        n_docs = index.num_documents
        if self._kernel is not None:
            return self._kernel(*self._block(index, 0, n_docs))
        rows = [self.score_document(index, d) for d in range(n_docs)]
        return np.array(rows, dtype=np.float64).reshape(n_docs,
                                                        self.num_categories)

    def score_document_category(self, index: Index, d_id: int, c_id: int) -> float:
        return self.score_document(index, d_id)[c_id]

    def score_document(self, index: Index, d_id: int) -> list:
        """Scores of one document against every category."""
        index.documents.name(d_id)
        if self._kernel is None:
            return [self.score_document_category(index, d_id, c)
                    for c in range(self.num_categories)]
        return self._kernel(*self._block(index, d_id, d_id + 1))[0].tolist()

    def _block(self, index: Index, first: int, stop: int) -> tuple:
        """(row count, row from 0, feature, count, weight) of the nonzeros of
        documents first..stop-1 in the trained vocabulary, in CSR order."""
        view = index.arrays()
        nz = slice(view.indptr[first], view.indptr[stop])
        keep = view.features[nz] < self.num_features
        return (stop - first, view.rows[nz][keep] - first,
                view.features[nz][keep], view.counts[nz][keep],
                view.weights[nz][keep])


def _feature_masks(index: Index) -> np.ndarray:
    """C x F validity of the index's feature domain; all True when global."""
    if not index.domain.local:
        return np.ones((index.num_categories, index.num_features), dtype=bool)
    masks = np.zeros((index.num_categories, index.num_features), dtype=bool)
    for c in range(index.num_categories):
        valid = index.domain.valid_features(c)
        masks[c, np.fromiter(valid, dtype=np.intp, count=len(valid))] = True
    return masks


def _mask_groups(masks: np.ndarray) -> list:
    """The category ids of each distinct row of `masks`, in order of first
    appearance.  Rows are keyed by their bytes: np.unique(axis=0) builds a
    structured dtype with F fields and is far slower."""
    groups = {}
    for c, row in enumerate(masks):
        groups.setdefault(row.tobytes(), []).append(c)
    return list(groups.values())


def _feature_major(features, n_feats: int) -> tuple:
    """Feature-major postings of a CSR's nonzeros: (starts, order), where
    ``order[starts[f]:starts[f + 1]]`` are the nonzeros of feature f in
    ascending document id."""
    starts = np.zeros(n_feats + 1, dtype=np.intp)
    np.cumsum(np.bincount(features, minlength=n_feats), out=starts[1:])
    return starts, np.argsort(features, kind="stable")


def _no_positives(label: str) -> str:
    return f"category {label!r} has no positive training documents"


# -- Naive Bayes ---------------------------------------------------------------


class NaiveBayesClassifier(TrainedClassifier):
    kind = NAIVE_BAYES

    def __init__(self, category_labels, num_features, log_odds, deltas,
                 fixed, masks=None, warnings=()):
        super().__init__(category_labels, [0.0] * len(category_labels),
                         num_features, masks=masks, warnings=warnings)
        self.log_odds = log_odds  # per category prior log-odds
        self.deltas = deltas      # C x F log-likelihood ratio per occurrence
        self.fixed = fixed        # per category None, or the constant score

    def _kernel(self, n, rows, ids, counts, weights):
        # each row's sum starts from the prior log-odds
        return np.stack([
            np.full(n, fixed) if fixed is not None
            else row_sums(rows, counts * delta[ids], n, start=prior)
            for prior, delta, fixed in zip(self.log_odds, self.deltas,
                                           self.fixed)], axis=1)


def _log_counts(counts: np.ndarray) -> np.ndarray:
    """math.log(n + 1.0) of every class count, 0.0 where it is 0.  The
    counts are whole numbers; those below counts.size are looked up in a
    table filled at the counts that occur, any larger ones go through
    np.unique, so the table is never longer than `counts`."""
    small = counts < counts.size
    at = np.where(small, counts, 0).astype(np.intp)
    occurring = np.flatnonzero(np.bincount(at.ravel())).tolist()
    table = np.zeros(occurring[-1] + 1 if occurring else 1)
    table[occurring] = [math.log(n + 1.0) for n in occurring]
    out = table[at]
    if not small.all():
        values, inverse = np.unique(counts[~small], return_inverse=True)
        out[~small] = np.array([math.log(n + 1.0) for n in values.tolist()],
                               dtype=np.float64)[inverse]
    return out


def _train_naive_bayes(learner, index: Index):
    labels = index.categories.names
    masks = _feature_masks(index)
    view = index.arrays()
    n_docs, n_feats = index.num_documents, index.num_features
    n_cats = index.num_categories
    # the class counts of every category from one pass over the
    # (nonzero, label) pairs; integer sums, so exact in any order
    nz, cats = np.nonzero(view.labels[view.rows])
    pos = np.bincount(cats * n_feats + view.features[nz],
                      weights=view.counts[nz],
                      minlength=n_cats * n_feats).reshape(n_cats, n_feats)
    neg = np.bincount(view.features, weights=view.counts,
                      minlength=n_feats) - pos
    pos *= masks
    neg *= masks
    vocab = masks.sum(axis=1)
    pos_totals, neg_totals = pos.sum(axis=1), neg.sum(axis=1)
    log_odds = np.zeros(n_cats)
    den_pos = np.zeros(n_cats)
    den_neg = np.zeros(n_cats)
    fixed = []
    warnings = []
    for c, n_pos in enumerate(view.labels.sum(axis=0).tolist()):
        if not n_pos:
            warnings.append(_no_positives(labels[c]))
            fixed.append(MIN_SCORE)
            continue
        if n_pos == n_docs:
            warnings.append(f"category {labels[c]!r} has no negative "
                            "training documents")
            fixed.append(-MIN_SCORE)
            continue
        fixed.append(None)
        log_odds[c] = math.log(n_pos / n_docs) - \
            math.log((n_docs - n_pos) / n_docs)
        if vocab[c]:  # without features there is no delta to normalize
            den_pos[c] = math.log(int(pos_totals[c]) + int(vocab[c]))
            den_neg[c] = math.log(int(neg_totals[c]) + int(vocab[c]))
    deltas = ((_log_counts(pos) - den_pos[:, None])
              - (_log_counts(neg) - den_neg[:, None]))
    deltas[~masks] = 0.0
    return NaiveBayesClassifier(labels, n_feats, log_odds, deltas, fixed,
                                masks=masks, warnings=warnings)


# -- Rocchio ---------------------------------------------------------------------


class RocchioClassifier(TrainedClassifier):
    kind = ROCCHIO

    def __init__(self, category_labels, num_features, profile_matrix, norms,
                 trained, threshold, masks=None, warnings=()):
        super().__init__(category_labels, [threshold] * len(category_labels),
                         num_features, masks=masks, strict=True,
                         warnings=warnings)
        self.profile_matrix = profile_matrix  # C x F, zero where clipped
        self.norms = norms
        self.trained = trained                # per category bool

    @property
    def profiles(self) -> list:
        """Per category {fID: weight} of the profile, or None if untrained."""
        return [{f: float(row[f]) for f in np.flatnonzero(row).tolist()}
                if trained else None
                for row, trained in zip(self.profile_matrix, self.trained)]

    def _kernel(self, n, rows, ids, counts, weights):
        squares = weights * weights
        dots = np.stack([row_sums(rows, profile[ids] * weights, n)
                         for profile in self.profile_matrix], axis=1)
        v_norms = np.empty(dots.shape)
        for group in _mask_groups(self.masks):
            v_norms[:, group] = np.sqrt(row_sums(
                rows, self.masks[group[0], ids] * squares, n))[:, None]
        norms = np.asarray(self.norms)
        scores = np.zeros(dots.shape)
        np.divide(dots, norms * v_norms, out=scores,
                  where=(norms != 0.0) & (v_norms != 0.0))
        scores[:, ~np.asarray(self.trained)] = MIN_SCORE
        return scores


def _train_rocchio(learner, index: Index):
    labels = index.categories.names
    masks = _feature_masks(index)
    view = index.arrays()
    n_docs = index.num_documents
    profiles = np.zeros((index.num_categories, index.num_features))
    norms = []
    trained = []
    warnings = []
    for c in range(index.num_categories):
        positive = view.labels[:, c]
        n_pos = int(positive.sum())
        trained.append(n_pos > 0)
        if not n_pos:
            warnings.append(_no_positives(labels[c]))
            norms.append(0.0)
            continue
        n_neg = n_docs - n_pos
        pos_w = learner.beta / n_pos
        neg_w = learner.gamma / n_neg if n_neg else 0.0
        scale = np.where(positive, pos_w, -neg_w)
        profile = np.bincount(view.features,
                              weights=scale[view.rows] * view.weights,
                              minlength=index.num_features)
        profile[~masks[c]] = 0.0
        profile[~(profile > 0.0)] = 0.0
        profiles[c] = profile
        norms.append(math.sqrt(seq_sum(profile * profile)))
    return RocchioClassifier(labels, index.num_features, profiles, norms,
                             trained, learner.threshold, masks=masks,
                             warnings=warnings)


# -- k nearest neighbors ----------------------------------------------------------


class KnnClassifier(TrainedClassifier):
    kind = KNN

    def __init__(self, category_labels, num_features, view, norms, k,
                 threshold, masks=None, warnings=()):
        super().__init__(category_labels, [threshold] * len(category_labels),
                         num_features, masks=masks, warnings=warnings)
        self.view = view    # the training index's IndexArrays
        self.norms = norms  # G x D_train, row g for _mask_groups()[g]
        self.k = k

    def _kernel(self, n, rows, ids, counts, weights):
        starts, order = _feature_major(self.view.features, self.num_features)
        postings = (starts, self.view.rows[order], self.view.weights[order])
        lengths = starts[ids + 1] - starts[ids]  # postings per query nonzero
        blocks = _knn_blocks(rows, lengths, n, self.view.labels.shape[0])
        scores = np.empty((n, self.num_categories))
        # one pass per distinct mask row, filling its categories' columns
        for group, norms in zip(_mask_groups(self.masks), self.norms):
            w = weights * self.masks[group[0], ids]
            q_norms = np.sqrt(np.bincount(rows, weights=w * w, minlength=n))
            for first, stop, lo, hi in blocks:
                scores[first:stop, group] = self._block_votes(
                    postings, rows[lo:hi] - first, ids[lo:hi], w[lo:hi],
                    lengths[lo:hi], norms * q_norms[first:stop, None],
                    self.view.labels[:, group])
        return scores

    def _block_votes(self, postings, rows, ids, w, lengths, denominators,
                     labels):
        """Votes of a block of query rows: the dot products from one join of
        their nonzeros with the postings, ascending feature id within a row,
        then the top k by (-similarity, id)."""
        starts, docs, values = postings
        n_rows, n_train = denominators.shape
        # where each joined posting sits in the postings arrays
        at = (np.repeat(starts[ids] - (np.cumsum(lengths) - lengths), lengths)
              + np.arange(int(lengths.sum())))
        dots = np.bincount(np.repeat(rows * n_train, lengths) + docs[at],
                           weights=values[at] * np.repeat(w, lengths),
                           minlength=n_rows * n_train).reshape(n_rows, n_train)
        sims = np.zeros(dots.shape)
        np.divide(dots, denominators, out=sims, where=denominators != 0.0)
        k = min(self.k, n_train)
        if k < n_train:  # every sim above the k-th, then its equals by id
            kth = np.partition(sims, n_train - k, axis=1)[:, n_train - k, None]
            above = sims > kth
            ties = sims == kth
            room = k - above.sum(axis=1, keepdims=True)
            fits = np.cumsum(ties, axis=1, dtype=np.int32) <= room
            chosen = above | (ties & fits)
        else:  # every training document, NaN sims included
            chosen = np.ones(sims.shape, dtype=bool)
        rows_top, top_ids = np.nonzero(chosen)
        # each row's neighbours by (-similarity, id), as lexsort keeps the
        # ascending ids of equal sims; NaN sims (from overflowing weights)
        # come last and make their row's votes NaN
        top_sims = sims[rows_top, top_ids]
        order = np.lexsort((-top_sims, rows_top))
        rows_top, top_ids, top_sims = (rows_top[order], top_ids[order],
                                       top_sims[order])
        members = row_sums(rows_top,
                           np.where(labels[top_ids], top_sims[:, None], 0.0),
                           n_rows)
        denom = row_sums(rows_top, top_sims, n_rows)[:, None]
        votes = np.zeros(members.shape)  # 0.0 where the k sims sum to 0
        np.divide(members, denom, out=votes, where=denom != 0.0)
        return votes


#: the most similarities, and the most joined postings, one block of a kNN
#: score_index call holds; a block has at least one row
KNN_BLOCK_CELLS = 1 << 22


def _knn_blocks(rows, lengths, n: int, n_train: int) -> list:
    """(first row, stop row, first nonzero, stop nonzero) of each block."""
    bounds = np.searchsorted(rows, np.arange(n + 1))
    joined = np.concatenate(([0], np.cumsum(lengths)))[bounds]
    cap = max(1, KNN_BLOCK_CELLS // n_train)
    blocks = []
    first = 0
    while first < n:
        fit = int(np.searchsorted(joined, joined[first] + KNN_BLOCK_CELLS,
                                  side="right")) - 1
        stop = max(first + 1, min(first + cap, fit))
        blocks.append((first, stop, bounds[first], bounds[stop]))
        first = stop
    return blocks


def _train_knn(learner, index: Index):
    labels = index.categories.names
    masks = _feature_masks(index)
    view = index.arrays()
    n_docs = index.num_documents
    squares = view.weights * view.weights
    norms = np.sqrt(np.stack([
        np.bincount(view.rows, minlength=n_docs,
                    weights=squares * masks[group[0], view.features])
        for group in _mask_groups(masks)]))
    warnings = [_no_positives(labels[c])
                for c in np.flatnonzero(~view.labels.any(axis=0)).tolist()]
    return KnnClassifier(labels, index.num_features, view, norms, learner.k,
                         learner.threshold, masks=masks, warnings=warnings)


# -- AdaBoost.MH with real-valued stumps -------------------------------------------


class BoostClassifier(TrainedClassifier):
    kind = ADABOOST_MH

    def __init__(self, category_labels, num_features, rounds, z_values,
                 iterations, epsilon, masks=None, warnings=()):
        super().__init__(category_labels, [0.0] * len(category_labels),
                         num_features, masks=masks, warnings=warnings)
        self.rounds = rounds      # per category: list of (fID, c0, c1) or None
        self.z_values = z_values  # per category: per-round normalizer Z_t
        self.iterations = iterations
        self.epsilon = epsilon
        # a stump's feature is valid for its category, so scoring needs no mask
        self._trained = [c for c, r in enumerate(rounds) if r is not None]
        stumps = np.array([rounds[c] for c in self._trained],
                          dtype=np.float64).reshape(-1, iterations, 3)
        self._stump_features = stumps[:, :, 0].astype(np.intp)
        self._c0 = stumps[:, :, 1]
        self._c1 = stumps[:, :, 2]

    def _kernel(self, n, rows, ids, counts, weights):
        # row x distinct stump feature presence
        distinct, column = np.unique(self._stump_features, return_inverse=True)
        column = column.reshape(self._stump_features.shape)
        hit = np.isin(ids, distinct)
        present = np.zeros((n, len(distinct)), dtype=bool)
        present[rows[hit], np.searchsorted(distinct, ids[hit])] = True
        sums = np.where(present[:, column[:, 0]], self._c1[:, 0],
                        self._c0[:, 0])
        for t in range(1, self.iterations):  # rounds added in order
            sums += np.where(present[:, column[:, t]], self._c1[:, t],
                             self._c0[:, t])
        scores = np.full((n, self.num_categories), MIN_SCORE)
        scores[:, self._trained] = sums
        return scores


def _stump(w0p, w0m, w1p, w1m, epsilon):
    """(Z, c0, c1) of the real-valued stump on a feature."""
    c0 = 0.5 * math.log((w0p + epsilon) / (w0m + epsilon))
    c1 = 0.5 * math.log((w1p + epsilon) / (w1m + epsilon))
    z = (w0p * math.exp(-c0) + w0m * math.exp(c0)
         + w1p * math.exp(-c1) + w1m * math.exp(c1))
    return z, c0, c1


def _best_stump(w0p, w0m, w1p, w1m, epsilon, candidates):
    """(Z, fID, c0, c1) of the candidate feature minimizing Z, lowest id
    first among equals.  Z is screened for every feature with numpy, as
    w+ r + w- / r with r = exp(-c) = sqrt((w- + epsilon) / (w+ + epsilon));
    the few within rounding of the minimum are then compared by the exact
    scalar Z, so the choice equals a scalar loop's."""
    r0 = np.sqrt((w0m + epsilon) / (w0p + epsilon))
    r1 = np.sqrt((w1m + epsilon) / (w1p + epsilon))
    z = (w0p * r0 + w0m / r0 + w1p * r1 + w1m / r1)[candidates]
    near = np.flatnonzero(z <= z.min() * (1.0 + 1e-9))
    best = None
    for f in candidates[near].tolist():
        z_f, c0, c1 = _stump(float(w0p[f]), float(w0m[f]),
                             float(w1p[f]), float(w1m[f]), epsilon)
        if best is None or z_f < best[0]:
            best = (z_f, f, c0, c1)
    return best


def _train_boost(learner, index: Index):
    labels = index.categories.names
    masks = _feature_masks(index)
    view = index.arrays()
    n_docs, n_feats = index.num_documents, index.num_features
    features = view.features.astype(np.intp)
    starts, order = _feature_major(features, n_feats)
    docs = view.rows[order]
    epsilon = 1.0 / n_docs
    all_rounds = []
    all_z = []
    warnings = []
    for c in range(index.num_categories):
        positive = view.labels[:, c]
        if not positive.any():
            warnings.append(_no_positives(labels[c]))
            all_rounds.append(None)
            all_z.append([])
            continue
        candidates = np.flatnonzero(masks[c])
        if not len(candidates):
            raise ValidationError(
                f"category {labels[c]!r} has no features to boost on")
        # the nonzeros split by class, each in CSR order
        positive_nz = positive[view.rows]
        pos_features, pos_docs = (features[positive_nz],
                                  view.rows[positive_nz])
        neg_features, neg_docs = (features[~positive_nz],
                                  view.rows[~positive_nz])
        weights = np.full(n_docs, 1.0 / n_docs)
        rounds = []
        z_values = []
        for _ in range(learner.iterations):
            w_pos_total = seq_sum(weights[positive])
            w_neg_total = seq_sum(weights[~positive])
            # W+ and W- of every feature; bincount adds in CSR order, so
            # each feature's sum runs in ascending document id
            w1p = np.bincount(pos_features, weights[pos_docs],
                              minlength=n_feats)
            w1m = np.bincount(neg_features, weights[neg_docs],
                              minlength=n_feats)
            z, f, c0, c1 = _best_stump(w_pos_total - w1p, w_neg_total - w1m,
                                       w1p, w1m, epsilon, candidates)
            rounds.append((f, c0, c1))
            z_values.append(z)
            present = np.zeros(n_docs, dtype=bool)
            present[docs[starts[f]:starts[f + 1]]] = True
            factor = np.where(
                present,
                np.where(positive, math.exp(-c1), math.exp(c1)),
                np.where(positive, math.exp(-c0), math.exp(c0)))
            weights = weights * factor / z
        all_rounds.append(rounds)
        all_z.append(z_values)
    return BoostClassifier(labels, n_feats, all_rounds, all_z,
                           iterations=learner.iterations, epsilon=epsilon,
                           masks=masks, warnings=warnings)


# -- shared operations ---------------------------------------------------------------


_TRAINERS = {
    NAIVE_BAYES: _train_naive_bayes,
    ROCCHIO: _train_rocchio,
    KNN: _train_knn,
    ADABOOST_MH: _train_boost,
}


def train(learner, index: Index) -> TrainedClassifier:
    """Fit the learner on a training index; deterministic given its inputs.

    Categories without positive training documents yield a minimum-score
    model and are flagged in the classifier's warnings.
    """
    if index.num_documents < 1:
        raise ValidationError("cannot train on an empty index")
    if index.num_categories < 1:
        raise ValidationError("cannot train without categories")
    try:
        trainer = _TRAINERS[learner.kind]
    except (AttributeError, KeyError):
        raise ValidationError(f"unknown learner {learner!r}") from None
    classifier = trainer(learner, index)
    classifier.hyperparameters = {
        name: getattr(learner, name) for name in learner.__dataclass_fields__}
    return classifier


def classify_document(classifier: TrainedClassifier, index: Index,
                      d_id: int) -> ClassificationResult:
    """Scores and decisions for one document against every category."""
    scores = classifier.score_document(index, d_id)
    decided = classifier.decisions(np.array(scores, dtype=np.float64))
    return ClassificationResult(scores=dict(enumerate(scores)),
                                decisions=dict(enumerate(decided.tolist())))


def classify_category(classifier: TrainedClassifier, index: Index,
                      c_id: int) -> list:
    """One single-category result per document, in ascending document id."""
    if not 0 <= c_id < classifier.num_categories:
        raise ValidationError(f"unknown category id {c_id}")
    scores = classifier.score_index(index)
    decided = classifier.decisions(scores)[:, c_id].tolist()
    return [ClassificationResult(scores={c_id: score},
                                 decisions={c_id: decision})
            for score, decision in zip(scores[:, c_id].tolist(), decided)]


def one_vs_all_predict(classifier: TrainedClassifier, index: Index,
                       d_id: int) -> int:
    """Single-label prediction: argmax score, ties to the lower category id."""
    return int(np.argmax(classifier.score_document(index, d_id)))


def predict_classification(classifier: TrainedClassifier, index: Index) -> dict:
    """Decided (document -> sorted category tuple) map over a whole index."""
    return label_map(classifier.decisions(classifier.score_index(index)))


# -- model persistence -----------------------------------------------------------------


def save_classifier(classifier: TrainedClassifier, directory) -> None:
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, "model.pkl"), "wb") as fh:
        pickle.dump(classifier, fh)
    lines = [f"kind\t{classifier.kind}\n"]
    for name in sorted(classifier.hyperparameters):
        lines.append(f"param\t{name}\t{classifier.hyperparameters[name]!r}\n")
    for c, label in enumerate(classifier.category_labels):
        lines.append(f"category\t{c}\t{label}\n")
    for c, thr in enumerate(classifier.thresholds):
        lines.append(f"threshold\t{c}\t{thr!r}\n")
    with open(os.path.join(directory, "model-meta.tsv"), "w",
              encoding="utf-8", newline="\n") as fh:
        fh.writelines(lines)


def load_classifier(directory) -> TrainedClassifier:
    path = os.path.join(directory, "model.pkl")
    if not os.path.exists(path):
        raise ValidationError(f"no model payload at {path}")
    with open(path, "rb") as fh:
        try:
            classifier = pickle.load(fh)
        except Exception as exc:  # garbage bytes raise any of a dozen types
            raise ParseError(path, 0, f"not a model file ({exc!r})") from exc
    if not isinstance(classifier, TrainedClassifier):
        raise ParseError(path, 0, "not a model file (holds a "
                         f"{type(classifier).__name__}, not a classifier)")
    return classifier
