"""Naive Bayes stored by its cells: the classifier of `train`, the fold
models of `out_of_fold` and the rates of `learn_quantifiers` give the bits
of the dense C x F model kept here as the reference, on global and local
domains, from a total count of 2^53 on, with categories without positives
or negatives, featureless documents and scored feature ids past the trained
vocabulary.  Also bounds the memory of `train` and of a fold pass as the
category count grows at a fixed number of nonzeros."""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jatecs import build_index
from jatecs.experiments import SIMPLE, STRATIFIED, make_folds, out_of_fold
from jatecs.index import _doc_nonzeros, subset_index
from jatecs.learners import NaiveBayesLearner, _feature_masks, train
from jatecs.quantification import (LogisticScaling, _mean_where,
                                   learn_quantifiers, scale_score)

from test_fold_pass import _case_index
from test_memory_bounds import _corpus, _peak_bytes
from test_quantification import _rate_curve_reference

MIN_SCORE = -1e300


# -- the dense reference ------------------------------------------------------


def _dense_model(index, docs):
    """(log odds, C x F deltas, fixed scores, warnings) of Naive Bayes on
    the documents `docs` of `index`, as the dense model computes them: C x
    F class counts, each row summed whole, and a log per cell."""
    view = index.arrays()
    kept = np.zeros(index.num_documents, dtype=bool)
    kept[docs] = True
    nz = kept[view.rows]
    rows, features, counts = view.rows[nz], view.features[nz], view.counts[nz]
    n_cats, n_feats = index.num_categories, index.num_features
    at, cats = np.nonzero(view.labels[rows])
    pos = np.bincount(cats * n_feats + features[at], weights=counts[at],
                      minlength=n_cats * n_feats).reshape(n_cats, n_feats)
    pos = pos.astype(float)
    totals = np.bincount(features, weights=counts,
                         minlength=n_feats).astype(float)
    masks = _feature_masks(index)
    neg = totals - pos
    neg *= masks
    pos *= masks
    vocab = masks.sum(axis=1)
    pos_totals, neg_totals = pos.sum(axis=1), neg.sum(axis=1)
    n_docs = len(docs)
    n_pos = view.labels[docs].sum(axis=0).tolist()
    labels = index.categories.names
    log_odds, den_pos, den_neg = (np.zeros(n_cats) for _ in range(3))
    fixed, warnings = [], []
    for c, n_pos_c in enumerate(n_pos):
        if not n_pos_c:
            warnings.append(f"category {labels[c]!r} has no positive "
                            "training documents")
            fixed.append(MIN_SCORE)
        elif n_pos_c == n_docs:
            warnings.append(f"category {labels[c]!r} has no negative "
                            "training documents")
            fixed.append(-MIN_SCORE)
        else:
            fixed.append(None)
            log_odds[c] = math.log(n_pos_c / n_docs) - \
                math.log((n_docs - n_pos_c) / n_docs)
            if vocab[c]:
                den_pos[c] = math.log(int(pos_totals[c]) + int(vocab[c]))
                den_neg[c] = math.log(int(neg_totals[c]) + int(vocab[c]))

    def logs(table):
        return np.array([[math.log(n + 1.0) for n in row]
                         for row in table.tolist()]).reshape(table.shape)
    deltas = (logs(pos) - den_pos[:, None]) - (logs(neg) - den_neg[:, None])
    deltas[~masks] = 0.0
    return log_odds, deltas, fixed, warnings


def _dense_scores(model, index, docs):
    """The scores of the documents `docs` of `index`: the prior log odds
    plus count x delta of each nonzero in the trained vocabulary, added
    left to right."""
    log_odds, deltas, fixed, _ = model
    view = index.arrays()
    scores = np.zeros((len(docs), len(fixed)))
    for row, d in enumerate(docs):
        nz = _doc_nonzeros(view.indptr, [d])[0].tolist()
        for c, prior in enumerate(log_odds.tolist()):
            if fixed[c] is not None:
                scores[row, c] = fixed[c]
                continue
            total = prior
            for f, n in zip(view.features[nz].tolist(),
                            view.counts[nz].tolist()):
                if f < deltas.shape[1]:
                    total += n * deltas[c, f]
            scores[row, c] = total
    return scores


def _dense_out_of_fold(index, plan):
    n_docs = index.num_documents
    scores = np.zeros((n_docs, index.num_categories))
    warnings = []
    for fold, test_ids in enumerate(plan.folds()):
        model = _dense_model(index, np.setdiff1d(np.arange(n_docs), test_ids))
        warnings.extend((fold, message) for message in model[3])
        scores[test_ids] = _dense_scores(model, index, test_ids)
    return scores, scores >= 0.0, warnings


def _dense_rates(index, folds):
    """learn_quantifiers' rates per category from the dense fold models:
    (tpr, fpr, tpr_p, fpr_p, curve, scaled curve)."""
    n_docs = index.num_documents
    thin = (index.arrays().labels.sum(axis=0) < 2).any()
    plan = make_folds(index, min(folds, n_docs),
                      mode=SIMPLE if thin else STRATIFIED, seed=0)
    scores, decided, _ = _dense_out_of_fold(index, plan)
    scaling = LogisticScaling()
    rates = []
    for c, labels in enumerate(index.arrays().labels.T.tolist()):
        raw = scores[:, c].tolist()
        scaled = [scale_score(scaling, s) for s in raw]
        rates.append((
            _mean_where(decided[:, c].tolist(), labels, True),
            _mean_where(decided[:, c].tolist(), labels, False),
            _mean_where(scaled, labels, True),
            _mean_where(scaled, labels, False),
            _signed(_rate_curve_reference(raw, labels)),
            _signed(_rate_curve_reference(scaled, labels))))
    return rates


def _signed(curve):
    """The curve's floats as bits, so -0.0 differs from 0.0."""
    return [tuple(float(v).hex() for v in point) for point in curve]


def _bits(array):
    array = np.asarray(array)
    return array.dtype.str, array.shape, array.tobytes()


# -- the cases ----------------------------------------------------------------


@st.composite
def nb_cases(draw):
    """(docs, labels, valid, trained feature count): up to six features,
    three categories, any of which may have no positives or no negatives,
    featureless documents, maybe a local domain, and maybe one count that
    brings the total to 2^52 or more."""
    n_docs = draw(st.integers(2, 9))
    row = st.dictionaries(st.integers(0, 5),
                          st.tuples(st.integers(1, 4), st.just(1.0)),
                          max_size=4)  # an empty row has no nonzeros
    docs = draw(st.lists(row, min_size=n_docs, max_size=n_docs))
    labels = draw(st.lists(st.sets(st.integers(0, 2)),
                           min_size=n_docs, max_size=n_docs))
    valid = None
    if draw(st.booleans()):  # a local domain
        valid = [draw(st.sets(st.sampled_from([f"f{f}" for f in range(6)])))
                 for _ in range(3)]
    huge = draw(st.one_of(st.none(), st.integers(2 ** 52, 2 ** 60)))
    if huge is not None and any(docs):
        d = draw(st.sampled_from([d for d, row in enumerate(docs) if row]))
        f = draw(st.sampled_from(sorted(docs[d])))
        docs[d] = {**docs[d], f: (huge, 1.0)}
    return docs, [sorted(cats) for cats in labels], valid, \
        draw(st.integers(1, 6))


def _indexes(case):
    """(training index, scored index): the scored one holds every feature,
    the training one its first `trained` feature ids, or all of them."""
    docs, labels, valid, trained = case
    index = _case_index(docs, labels, valid)
    if trained >= index.num_features:
        return index, index
    return subset_index(index, keep_features=set(range(trained))), index


_GLOBAL = ([{0: (1, 1.0), 1: (2, 1.0)}, {}, {2: (3, 1.0)}, {1: (1, 1.0)}],
           [[0, 1], [0], [1], [0]], None, 6)
_HUGE_LOCAL = ([{0: (2 ** 53 - 1, 1.0), 1: (2, 1.0)}, {1: (3, 1.0)},
                {0: (1, 1.0), 2: (1, 1.0)}, {}],
               [[0], [1], [0, 1], [2]], [{"f0", "f2"}, {"f1"}, set()], 6)
_PAST_VOCAB = ([{0: (1, 1.0), 4: (2, 1.0)}, {3: (1, 1.0), 5: (4, 1.0)},
                {1: (2, 1.0), 5: (1, 1.0)}], [[0], [1], [0, 2]], None, 2)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(case=nb_cases())
@example(case=_GLOBAL)
@example(case=_HUGE_LOCAL)
@example(case=_PAST_VOCAB)
def test_train_gives_the_dense_model(case):
    train_index, scored = _indexes(case)
    classifier = train(NaiveBayesLearner(), train_index)
    log_odds, deltas, fixed, warnings = model = _dense_model(
        train_index, np.arange(train_index.num_documents))
    assert _bits(classifier.deltas) == _bits(deltas)
    assert _bits(classifier.log_odds) == _bits(log_odds)
    assert repr(classifier.fixed) == repr(fixed)
    assert classifier.warnings == warnings
    assert _bits(classifier.score_index(scored)) == \
        _bits(_dense_scores(model, scored, range(scored.num_documents)))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(case=nb_cases(), mode=st.sampled_from([SIMPLE, STRATIFIED]),
       seed=st.integers(0, 3))
@example(case=_GLOBAL, mode=STRATIFIED, seed=0)
@example(case=_HUGE_LOCAL, mode=SIMPLE, seed=1)
def test_out_of_fold_gives_the_dense_fold_models(case, mode, seed):
    index = _indexes(case)[0]
    n_docs = index.num_documents
    for k in sorted({2, min(5, n_docs), n_docs}):  # n_docs: leave-one-out
        plan = make_folds(index, k, mode=mode, seed=seed)
        scores, decisions, warnings = out_of_fold(NaiveBayesLearner(), index,
                                                  plan)
        expected = _dense_out_of_fold(index, plan)
        assert _bits(scores) == _bits(expected[0])
        assert _bits(decisions) == _bits(expected[1])
        assert warnings == expected[2]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=nb_cases(), folds=st.integers(2, 10))
@example(case=_GLOBAL, folds=3)
@example(case=_HUGE_LOCAL, folds=4)
def test_quantifier_rates_are_the_dense_models(case, folds):
    index = _indexes(case)[0]
    pool = learn_quantifiers(NaiveBayesLearner(), index, folds=folds)
    got = [(r.tpr, r.fpr, r.tpr_p, r.fpr_p, _signed(r.curve),
            _signed(r.curve_scaled)) for _, r in sorted(pool.rates.items())]
    assert [tuple(map(repr, point[:4])) + point[4:] for point in got] == \
        [tuple(map(repr, point[:4])) + point[4:]
         for point in _dense_rates(index, folds)]


# -- memory as the category count grows ---------------------------------------


def _nb_peaks(n_cats):
    """The traced peaks of NB train and of a 10-fold out_of_fold on a
    corpus of 10,000 nonzeros (200 documents of 50 distinct words each,
    drawn from 100,000) in n_cats categories."""
    docs, labels, categories = _corpus(11, 200, 50, 100_000, n_cats, skew=1)
    index = build_index(docs, labels, categories)
    assert index.arrays().features.size == 10_000
    plan = make_folds(index, 10, mode=SIMPLE, seed=0)
    return (_peak_bytes(lambda: train(NaiveBayesLearner(), index)),
            _peak_bytes(lambda: out_of_fold(NaiveBayesLearner(), index,
                                            plan)))


def test_peaks_do_not_grow_with_the_categories():
    """A C x F float64 array is ten times larger at C=100 than at C=10;
    the dense model's peaks grew 9.8 (train) and 9.7 (fold pass) times
    here, the cells' grow 1.7 and 2.0 times."""
    ratios = [hundred / ten for ten, hundred in zip(_nb_peaks(10),
                                                    _nb_peaks(100))]
    assert max(ratios) < 3.0, ratios
