"""Native learning algorithms and the classifier contract.

Every learner treats each category as an independent binary problem, so all
classifiers are multilabel-capable.  Naive Bayes consumes raw occurrence
counts, Rocchio and kNN consume the weighting relation, and the boosting
learner consumes binary feature presence.

Training and scoring read the index's array view (:meth:`Index.arrays`): a
document-major CSR of the content and weighting relations plus a D x C label
matrix.  A trainer reads a training view, the C x F feature mask and the
category names; `train` hands it the whole view, or given document ids
their rows cut from it, as subset_index cuts them.  With nnz the training
nonzeros and n those of the scored documents:

  NB       one bincount over the (nonzero, label) pairs gives the counts
           of the (category, feature) cells that occur, found by one
           np.unique of the pairs, and their logs come from a table filled
           at the counts that occur.  Any other cell's delta is a term of
           its category's less a term of its feature's, so a model holds
           O(nnz + C + F) floats beside its C x F mask.  Scoring builds
           the C x U deltas of the U features it reads and adds n terms
           per category.  A fold model of out_of_fold takes the whole
           index's cell counts less those of the fold's pairs, and all of
           a pass's fold models share one table of logs
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
  boost    the categories advance through each round in lockstep, in
           blocks of at most BOOST_BLOCK_CELLS keys: a round is one
           weighted bincount over (class, category, feature) keys in CSR
           order (every category's W+ and W- of every feature, and its
           class totals) and a row-wise argmin of Z over the C x F matrix,
           and the chosen stumps' documents come from postings built once
           per train; scoring adds the rounds in order over a row x stump
           feature presence

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
from .index import Index, _doc_nonzeros, document_arrays
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


#: the most boosting rounds a learner accepts; the rounds are trained one
#: after another, so a training run's time grows with them
MAX_ITERATIONS = 10_000


@dataclass(frozen=True)
class AdaBoostMHLearner:
    """Real-valued one-feature stumps boosted for T rounds per category.

    Each category picks its own stump feature in every round, the rule of
    MP-Boost (Esuli, Fagni & Sebastiani 2006), rather than AdaBoost.MH's one
    feature shared by all categories (Schapire & Singer 2000).
    """

    kind = ADABOOST_MH
    iterations: int = 100

    def __post_init__(self):
        if self.iterations < 1:
            raise ValidationError("iterations must be >= 1")
        if not self.iterations <= MAX_ITERATIONS:  # NaN fails it too
            raise ValidationError(
                f"iterations must be <= {MAX_ITERATIONS}")


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
        return self.score_subset(index, range(index.num_documents))

    def score_subset(self, index: Index, docs) -> np.ndarray:
        """The scores of the sorted document ids `docs`, one row each: the
        score_index of subset_index(index, keep_docs=docs), without the
        copy."""
        if self._kernel is not None:
            return self._kernel(*self._block(index, docs))
        rows = [self.score_document(index, d) for d in docs]
        return np.array(rows, dtype=np.float64).reshape(len(rows),
                                                        self.num_categories)

    def score_document_category(self, index: Index, d_id: int, c_id: int) -> float:
        return self.score_document(index, d_id)[c_id]

    def score_document(self, index: Index, d_id: int) -> list:
        """Scores of one document against every category."""
        index.documents.name(d_id)
        if self._kernel is None:
            return [self.score_document_category(index, d_id, c)
                    for c in range(self.num_categories)]
        return self._kernel(*self._block(index, [d_id]))[0].tolist()

    def _block(self, index: Index, docs) -> tuple:
        """(row count, row in `docs`, feature, count, weight) of the
        nonzeros of the sorted document ids `docs` in the trained
        vocabulary, in CSR order."""
        view = index.arrays()
        nz, rows = _doc_nonzeros(view.indptr, docs)
        keep = view.features[nz] < self.num_features
        nz = nz[keep]
        return (len(docs), rows[keep], view.features[nz], view.counts[nz],
                view.weights[nz])


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
    """Multinomial Naive Bayes stored by its cells.  A (category, feature)
    cell without a positive count has the delta (0.0 - den_pos[c]) -
    (log_totals[f] - den_neg[c]), 0.0 where the mask is off, so only the
    valid cells with a count keep a delta of their own: O(nnz + C + F)
    floats rather than C x F."""

    kind = NAIVE_BAYES

    def __init__(self, category_labels, num_features, log_odds, fixed,
                 den_pos, den_neg, log_totals, cells, cell_deltas,
                 masks=None, warnings=()):
        super().__init__(category_labels, [0.0] * len(category_labels),
                         num_features, masks=masks, warnings=warnings)
        self.log_odds = log_odds  # per category prior log-odds
        self.fixed = fixed        # per category None, or the constant score
        self.den_pos = den_pos    # per category log normalizers
        self.den_neg = den_neg
        self.log_totals = log_totals    # per feature math.log(total + 1.0)
        self.cells = cells              # (categories, features) of the
                                        # valid cells with counts, sorted
        self.cell_deltas = cell_deltas  # each such cell's delta

    @property
    def deltas(self) -> np.ndarray:
        """The C x F log-likelihood ratios per occurrence, built when read."""
        return np.ascontiguousarray(
            self._deltas(np.ones(self.num_features, dtype=bool))[0])

    def _deltas(self, present) -> tuple:
        """(deltas, column) of the features where `present` holds: their C
        x U deltas in ascending feature id, and each feature's column among
        them.  Every cell takes its category's and its feature's term, by
        the operations a cell with a count takes, in the same order; then
        the cells with counts are written over them (those of the other
        features into one more column, cut off) and the masked ones set to
        0.0."""
        features = np.flatnonzero(present)
        n_cols = len(features)
        column = np.full(self.num_features, n_cols, dtype=np.int32)
        column[features] = np.arange(n_cols)
        deltas = np.empty((len(self.den_pos), n_cols + 1))
        block = deltas[:, :n_cols]  # (0.0 - den_pos) - (log_totals - den_neg)
        block[:] = self.log_totals[features]
        block -= self.den_neg[:, None]
        np.subtract((0.0 - self.den_pos)[:, None], block, out=block)
        cats, feats = self.cells
        at = cats * (n_cols + 1)
        at += column[feats]
        deltas.ravel()[at] = self.cell_deltas
        valid = self.masks[:, features]
        if not valid.all():
            block[~valid] = 0.0
        return block, column

    def _kernel(self, n, rows, ids, counts, weights):
        present = np.zeros(self.num_features, dtype=bool)
        present[ids] = True
        deltas, column = self._deltas(present)
        columns = column[ids]
        # each row's sum starts from the prior log-odds
        return np.stack([
            np.full(n, fixed) if fixed is not None
            else row_sums(rows, counts * delta[columns], n, start=prior)
            for prior, delta, fixed in zip(self.log_odds, deltas,
                                           self.fixed)], axis=1)


def _log_counts(counts: np.ndarray, table=None) -> np.ndarray:
    """math.log(n + 1.0) of every class count, 0.0 where it is 0.  The
    counts are whole numbers; those below the length of `table`, which
    holds math.log(n + 1.0) at every n that may occur below it, are looked
    up in it, any larger ones go through np.unique.  The default table is
    filled at the counts below counts.size that occur, so it is never
    longer than `counts`."""
    if table is None:
        occurring = np.flatnonzero(np.bincount(np.where(
            counts < counts.size, counts, 0).astype(np.intp).ravel())).tolist()
        table = np.zeros(occurring[-1] + 1 if occurring else 1)
        table[occurring] = [math.log(n + 1.0) for n in occurring]
    small = counts < len(table)
    # the table position of each count, cast as it is computed (no float
    # copy); a count past the table reads its last entry until replaced
    at = np.empty(counts.shape, dtype=np.intp)
    np.minimum(counts, len(table) - 1, out=at, casting="unsafe")
    out = table[at]
    if not small.all():
        values, inverse = np.unique(counts[~small], return_inverse=True)
        out[~small] = np.array([math.log(n + 1.0) for n in values.tolist()],
                               dtype=np.float64)[inverse]
    return out


def _label_pairs(labels, rows) -> tuple:
    """(position in `rows`, category) of every label of the documents
    `rows`, row after row, ascending category within a row: np.nonzero of
    labels[rows] without that len(rows) x C matrix."""
    docs, cats = np.nonzero(labels)
    n_labels = np.bincount(docs, minlength=len(labels))
    per_row = n_labels[rows]
    at = np.repeat(np.arange(len(rows)), per_row)
    # a pair's label: its document's first one plus the pair's rank among
    # its row's pairs
    label = (np.cumsum(n_labels) - n_labels)[rows]
    label -= np.cumsum(per_row)
    label += per_row
    label = label[at]
    label += np.arange(len(label))
    return at, cats[label]


def _sums(keys, weights, n: int) -> np.ndarray:
    """float64 sums of the integer `weights` per key below n, each added in
    input order onto 0.0 (a bincount of no values is int64, weights or
    not)."""
    return np.bincount(keys, weights=weights, minlength=n).astype(
        float, copy=False)


def _nb_cells(view, nz, masks) -> tuple:
    """The class counts of the nonzeros `nz` (a slice, bool mask or
    positions, in CSR order) of an index's view, by cell: (cells, counts,
    totals, pair cells, pair nonzeros).  `cells` are the categories and
    features of the distinct (category, feature) cells that `masks` holds
    valid and a (nonzero, label) pair falls in, sorted, and `counts` their
    sums of the integer counts; `totals` are the F counts in all
    documents.  Each pair's cell and its nonzero's position in `nz` follow
    in CSR order, a nonzero's labels in ascending category."""
    n_feats = masks.shape[1]
    features, counts = view.features[nz], view.counts[nz]
    at, keys = _label_pairs(view.labels, view.rows[nz])
    keys *= n_feats
    keys += features[at]
    valid = masks.ravel()[keys]
    if not valid.all():
        at, keys = at[valid], keys[valid]
    # the distinct keys, then each pair's cell written over its key
    # (np.unique would hold more copies of the pairs at once)
    order = np.argsort(keys)
    ordered = keys[order]
    first = np.ones(len(keys), dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    cells = ordered[first]
    del ordered
    pair_cells = keys
    pair_cells[order] = np.cumsum(first) - 1
    return (np.divmod(cells, n_feats), _sums(pair_cells, counts[at],
                                             len(cells)),
            _sums(features, counts, n_feats), pair_cells, at)


def _nb_counts(view, nz, n_feats: int) -> tuple:
    """The class counts of _nb_cells with every cell valid, as dense
    arrays: the C x F counts in each category's positive documents and the
    F counts in all of them."""
    n_cats = view.labels.shape[1]
    cells, counts, totals, _, _ = _nb_cells(
        view, nz, np.ones((n_cats, n_feats), dtype=bool))
    pos = np.zeros((n_cats, n_feats))
    pos[cells] = counts
    return pos, totals


#: below this total, every sum of counts is a float64 integer that any
#: order of adding gives exactly
_EXACT_COUNT_TOTAL = 2.0 ** 53


def _naive_bayes_model(labels, masks, groups, cells, pos, totals, n_pos,
                       n_docs: int, log_table=None):
    """The classifier of the counts `pos` of the cells `cells` and the
    feature totals `totals` (see _nb_cells) of n_docs training documents,
    n_pos[c] of them in category c.  `groups` are _mask_groups(masks) and
    `log_table` is _log_counts' table.  Every delta, normalizer and score
    has the bits of the dense C x F model: each cell's value takes the same
    operations in the same order, and a category's class totals are the
    sums of its rows of C x F counts, summed as such rows when some sum
    may round (from a total of 2^53 on)."""
    n_cats, n_feats = masks.shape
    cats, feats = cells
    vocab = np.empty(n_cats, dtype=np.intp)
    valid_totals = np.empty(n_cats)
    for group in groups:
        valid = masks[group[0]]
        vocab[group] = np.count_nonzero(valid)
        valid_totals[group] = totals[valid].sum()
    if totals.sum() < _EXACT_COUNT_TOTAL:  # every sum is exact, in any order
        pos_totals = _sums(cats, pos, n_cats)
        neg_totals = valid_totals - pos_totals
    else:  # a row sum rounds by the row's length and order, zeros and all
        pos_totals, neg_totals = np.empty(n_cats), np.empty(n_cats)
        starts = np.searchsorted(cats, np.arange(n_cats + 1))
        for c in range(n_cats):
            row = np.zeros(n_feats)
            row[feats[starts[c]:starts[c + 1]]] = pos[starts[c]:starts[c + 1]]
            pos_totals[c] = row.sum()
            row = totals - row
            row *= masks[c]
            neg_totals[c] = row.sum()
    log_odds = np.zeros(n_cats)
    den_pos = np.zeros(n_cats)
    den_neg = np.zeros(n_cats)
    fixed = []
    warnings = []
    for c, n_pos_c in enumerate(n_pos.tolist()):
        if not n_pos_c:
            warnings.append(_no_positives(labels[c]))
            fixed.append(MIN_SCORE)
            continue
        if n_pos_c == n_docs:
            warnings.append(f"category {labels[c]!r} has no negative "
                            "training documents")
            fixed.append(-MIN_SCORE)
            continue
        fixed.append(None)
        log_odds[c] = math.log(n_pos_c / n_docs) - \
            math.log((n_docs - n_pos_c) / n_docs)
        if vocab[c]:  # without features there is no delta to normalize
            den_pos[c] = math.log(int(pos_totals[c]) + int(vocab[c]))
            den_neg[c] = math.log(int(neg_totals[c]) + int(vocab[c]))
    # (log pos - den_pos) - (log neg - den_neg) of each cell with a count;
    # one lookup gives the negative counts' logs and every feature's
    logs = _log_counts(np.concatenate((totals[feats] - pos, totals)),
                       log_table)
    neg, log_totals = logs[:len(pos)], logs[len(pos):]
    deltas = _log_counts(pos, log_table)
    deltas -= den_pos[cats]
    neg -= den_neg[cats]
    deltas -= neg
    return NaiveBayesClassifier(labels, n_feats, log_odds, fixed, den_pos,
                                den_neg, log_totals, cells, deltas,
                                masks=masks, warnings=warnings)


def _train_naive_bayes(learner, view, masks, labels):
    cells, pos, totals, _, _ = _nb_cells(view, slice(None), masks)
    return _naive_bayes_model(labels, masks, _mask_groups(masks), cells, pos,
                              totals, view.labels.sum(axis=0),
                              view.labels.shape[0])


def _naive_bayes_folds(learner, index: Index, folds):
    """NB's fold classifiers (see fold_classifiers) without a copy of the
    index or a C x F array: a fold's complement has the whole index's cell
    counts less the fold's, through each (nonzero, label) pair's cell
    found once per pass, and the feature totals less the fold's, which is
    exact while the index's total count is below 2^53.  At or above it,
    the complement's counts are counted directly, as train counts them, in
    the same order.  A fold model costs O(nnz + C + F) and scores its fold
    from the deltas of the fold's features alone.  No fold count exceeds
    the whole index's largest feature total, so one table of
    math.log(n + 1.0) at every n up to it (at most as long as the cells
    and features together) serves every fold."""
    view = index.arrays()
    n_docs, n_feats = index.num_documents, index.num_features
    cells = None
    for fold, test_ids in folds:
        if cells is None:  # set up once `folds` has checked the plan
            _check_training_index(index)
            labels, masks = index.categories.names, _feature_masks(index)
            groups = _mask_groups(masks)
            cells, whole_pos, whole_totals, pair_cells, pair_at = _nb_cells(
                view, slice(None), masks)
            exact = whole_totals.sum() < _EXACT_COUNT_TOTAL
            # each document's pairs, which follow in CSR order
            pair_indptr = np.zeros(n_docs + 1, dtype=np.intp)
            np.cumsum(np.bincount(view.rows[pair_at], minlength=n_docs),
                      out=pair_indptr[1:])
            pair_counts = view.counts[pair_at]
            n_pos = view.labels.sum(axis=0)
            log_table = np.array([math.log(n + 1.0) for n in range(min(
                int(whole_totals.max(initial=0.0)) + 1,
                max(1, len(whole_pos) + n_feats)))])
        if exact:
            nz = _doc_nonzeros(view.indptr, test_ids)[0]
            pairs = _doc_nonzeros(pair_indptr, test_ids)[0]
            fold_cells = cells
            pos = whole_pos - _sums(pair_cells[pairs], pair_counts[pairs],
                                    len(whole_pos))
            totals = whole_totals - _sums(view.features[nz], view.counts[nz],
                                          n_feats)
        else:
            kept = np.ones(n_docs, dtype=bool)
            kept[test_ids] = False
            fold_cells, pos, totals, _, _ = _nb_cells(view, kept[view.rows],
                                                      masks)
        yield fold, test_ids, _naive_bayes_model(
            labels, masks, groups, fold_cells, pos, totals,
            n_pos - view.labels[test_ids].sum(axis=0),
            n_docs - len(test_ids), log_table)


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


def _train_rocchio(learner, view, masks, labels):
    n_docs = view.labels.shape[0]
    n_cats, n_feats = masks.shape
    profiles = np.zeros((n_cats, n_feats))
    norms = []
    trained = []
    warnings = []
    for c in range(n_cats):
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
                              minlength=n_feats)
        profile[~masks[c]] = 0.0
        profile[~(profile > 0.0)] = 0.0
        profiles[c] = profile
        norms.append(math.sqrt(seq_sum(profile * profile)))
    return RocchioClassifier(labels, n_feats, profiles, norms,
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


def _train_knn(learner, view, masks, labels):
    squares = view.weights * view.weights
    norms = np.sqrt(np.stack([
        np.bincount(view.rows, minlength=view.labels.shape[0],
                    weights=squares * masks[group[0], view.features])
        for group in _mask_groups(masks)]))
    warnings = [_no_positives(labels[c])
                for c in np.flatnonzero(~view.labels.any(axis=0)).tolist()]
    return KnnClassifier(labels, masks.shape[1], view, norms, learner.k,
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


#: the most (category, nonzero or document) keys of one block of categories
#: boosted in lockstep.  Every round walks the block's arrays, which are kept
#: small enough for a core's cache: with far larger blocks a round is slower
#: than one category at a time
BOOST_BLOCK_CELLS = 1 << 18


def _boost_lockstep(positive, masks, rows, features, postings,
                    iterations: int) -> tuple:
    """(rounds, Z values) of each category of `positive` (C x D) and `masks`
    (C x F), the categories advancing through every round together.

    A round takes every category's W+ and W- of each feature, and its class
    totals, from one weighted bincount over keys laid out category by
    category in CSR order, so each sum adds its terms in ascending document
    id.  Z is screened for every (category, feature) with numpy, as
    w+ r + w- / r with r = exp(-c) = sqrt((w- + epsilon) / (w+ + epsilon));
    the few within rounding of their category's minimum are then compared
    by the exact scalar Z, lowest id first among equals, so each choice
    equals a scalar loop's."""
    n_cats, n_docs = positive.shape
    n_feats = masks.shape[1]
    n_cells = n_cats * n_feats
    starts, docs = postings
    epsilon = 1.0 / n_docs
    cats = np.arange(n_cats)[:, None]
    negative = ~positive
    # one key per (category, nonzero), its (class, category, feature) cell,
    # then one per (category, document), its (class, category) total
    keys = np.concatenate((
        (negative[:, rows] * n_cats + cats) * n_feats + features,
        2 * n_cells + negative * n_cats + cats), axis=1).ravel()
    gathers = (cats * n_docs + np.concatenate((rows, np.arange(n_docs)))
               ).ravel()
    blocked = np.where(masks, 0.0, np.inf)
    # a document's place in the flat C x 4 table of update factors, with 2
    # added where it holds the round's feature
    outcome = positive + 4 * cats
    weights = np.full((n_cats, n_docs), 1.0 / n_docs)
    rounds = [[] for _ in range(n_cats)]
    z_values = [[] for _ in range(n_cats)]
    for _ in range(iterations):
        sums = np.bincount(keys, np.take(weights, gathers),
                           minlength=2 * n_cells + 2 * n_cats)
        w1p, w1m = sums[:2 * n_cells].reshape(2, n_cats, n_feats)
        w_pos, w_neg = sums[2 * n_cells:].reshape(2, n_cats, 1)
        w0p, w0m = w_pos - w1p, w_neg - w1m
        r0 = np.sqrt((w0m + epsilon) / (w0p + epsilon))
        r1 = np.sqrt((w1m + epsilon) / (w1p + epsilon))
        z = w0p * r0 + w0m / r0 + w1p * r1 + w1m / r1 + blocked
        near = np.nonzero(z <= z.min(axis=1, keepdims=True) * (1.0 + 1e-9))
        best = {}
        for c, f, *terms in zip(*(a.tolist() for a in (
                *near, w0p[near], w0m[near], w1p[near], w1m[near]))):
            z_f, c0, c1 = _stump(*terms, epsilon)
            if c not in best or z_f < best[c][0]:
                best[c] = (z_f, f, c0, c1)
        chosen, z_round, factors = [], [], []
        for c in range(n_cats):
            z_c, f, c0, c1 = best[c]
            rounds[c].append((f, c0, c1))
            z_values[c].append(z_c)
            chosen.append(f)
            z_round.append(z_c)
            factors += (math.exp(c0), math.exp(-c0),
                        math.exp(c1), math.exp(-c1))
        # the documents holding each category's chosen feature
        at, owners = _doc_nonzeros(starts, chosen)
        place = outcome.copy()
        place[owners, docs[at]] += 2
        weights = weights * np.take(factors, place) / np.array(
            z_round)[:, None]
    return rounds, z_values


def _train_boost(learner, view, masks, labels):
    n_docs = view.labels.shape[0]
    n_cats, n_feats = masks.shape
    has_positives = view.labels.any(axis=0)
    warnings = [_no_positives(labels[c])
                for c in np.flatnonzero(~has_positives).tolist()]
    trained = np.flatnonzero(has_positives)
    featureless = trained[~masks[trained].any(axis=1)]
    if len(featureless):
        raise ValidationError(f"category {labels[featureless[0]]!r} has "
                              "no features to boost on")
    features = view.features.astype(np.intp)
    starts, order = _feature_major(features, n_feats)
    postings = (starts, view.rows[order])
    all_rounds = [None] * n_cats
    all_z = [[] for _ in range(n_cats)]
    # categories per block: its keys hold at most BOOST_BLOCK_CELLS
    # (category, nonzero or document) cells, its Z screen as many
    # (category, feature) cells
    size = max(1, BOOST_BLOCK_CELLS // max(len(features) + n_docs, n_feats))
    for first in range(0, len(trained), size):
        block = trained[first:first + size]
        for c, rounds, z_values in zip(block.tolist(), *_boost_lockstep(
                np.ascontiguousarray(view.labels[:, block].T), masks[block],
                view.rows, features, postings, learner.iterations)):
            all_rounds[c] = rounds
            all_z[c] = z_values
    return BoostClassifier(labels, n_feats, all_rounds, all_z,
                           iterations=learner.iterations,
                           epsilon=1.0 / n_docs, masks=masks,
                           warnings=warnings)


# -- shared operations ---------------------------------------------------------------


_TRAINERS = {
    NAIVE_BAYES: _train_naive_bayes,
    ROCCHIO: _train_rocchio,
    KNN: _train_knn,
    ADABOOST_MH: _train_boost,
}


def _check_training_index(index: Index) -> None:
    if index.num_documents < 1:
        raise ValidationError("cannot train on an empty index")
    if index.num_categories < 1:
        raise ValidationError("cannot train without categories")


def train(learner, index: Index, docs=None) -> TrainedClassifier:
    """Fit the learner on a training index; deterministic given its inputs.

    Given `docs`, ascending document ids, it fits on those documents alone,
    from their rows of the index's arrays: the classifier equals
    train(learner, subset_index(index, keep_docs=docs)) bit for bit,
    without the copy.  Categories without positive training documents yield
    a minimum-score model and are flagged in the classifier's warnings.
    """
    _check_training_index(index)
    try:
        trainer = _TRAINERS[learner.kind]
    except (AttributeError, KeyError):
        raise ValidationError(f"unknown learner {learner!r}") from None
    view = index.arrays()
    if docs is not None:
        docs = np.asarray(docs)
        if docs.dtype.kind not in "iu" or docs.ndim != 1 or not len(docs) \
                or docs[0] < 0 or docs[-1] >= index.num_documents \
                or (docs[1:] <= docs[:-1]).any():
            raise ValidationError("training documents must be ascending ids "
                                  f"below {index.num_documents}, at least one")
        view = document_arrays(view, docs)[0]
    classifier = trainer(learner, view, _feature_masks(index),
                         index.categories.names)
    classifier.hyperparameters = {
        name: getattr(learner, name) for name in learner.__dataclass_fields__}
    return classifier


def fold_classifiers(learner, index: Index, folds, trainer):
    """(fold, test ids, classifier) for each (fold, sorted test ids) of
    `folds`, in order: the classifier trained on the index's other
    documents, equal to train(learner, subset_index(index, keep_docs=those
    documents)).  Naive Bayes takes each fold's model from the whole
    index's cell counts less the fold's, in O(nnz + C + F) with no C x F
    float array; any other learner calls trainer(learner, index, the other
    documents' ids), that is train or a stand-in for it."""
    if getattr(learner, "kind", None) == NAIVE_BAYES:
        return _naive_bayes_folds(learner, index, folds)
    return ((fold, test_ids, trainer(learner, index, np.delete(
                np.arange(index.num_documents), test_ids)))
            for fold, test_ids in folds)


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
