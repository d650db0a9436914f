"""Boosting rounds in lockstep over the categories: every category's W+ and
W- come from one bincount per round, and the rounds, Z values, scores and
pickled model bytes equal those of a loop that boosts one category at a
time.  Also covers the cap on the number of boosting rounds."""

import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import jatecs.learners as learners
from jatecs import build_index
from jatecs.cli import EXIT_DATA, main
from jatecs.errors import ValidationError
from jatecs.index import DomainDb
from jatecs.learners import (MAX_ITERATIONS, AdaBoostMHLearner,
                             BoostClassifier, make_learner, train)
from jatecs.sums import seq_sum

from conftest import random_corpus
from test_building_blocks import TOY_CATEGORIES, TOY_CORPUS


# -- the reference: one category at a time -------------------------------------


def _best_stump(w0p, w0m, w1p, w1m, epsilon, candidates):
    r0 = np.sqrt((w0m + epsilon) / (w0p + epsilon))
    r1 = np.sqrt((w1m + epsilon) / (w1p + epsilon))
    z = (w0p * r0 + w0m / r0 + w1p * r1 + w1m / r1)[candidates]
    near = np.flatnonzero(z <= z.min() * (1.0 + 1e-9))
    best = None
    for f in candidates[near].tolist():
        z_f, c0, c1 = learners._stump(float(w0p[f]), float(w0m[f]),
                                      float(w1p[f]), float(w1m[f]), epsilon)
        if best is None or z_f < best[0]:
            best = (z_f, f, c0, c1)
    return best


def _reference_boost(learner, index):
    """The boosting trainer as a loop over the categories, each running its
    T rounds before the next starts."""
    labels = index.categories.names
    masks = learners._feature_masks(index)
    view = index.arrays()
    n_docs, n_feats = index.num_documents, index.num_features
    features = view.features.astype(np.intp)
    starts, order = learners._feature_major(features, n_feats)
    docs = view.rows[order]
    epsilon = 1.0 / n_docs
    all_rounds, all_z, warnings = [], [], []
    for c in range(index.num_categories):
        positive = view.labels[:, c]
        if not positive.any():
            warnings.append(learners._no_positives(labels[c]))
            all_rounds.append(None)
            all_z.append([])
            continue
        candidates = np.flatnonzero(masks[c])
        if not len(candidates):
            raise ValidationError(
                f"category {labels[c]!r} has no features to boost on")
        positive_nz = positive[view.rows]
        pos_features, pos_docs = (features[positive_nz],
                                  view.rows[positive_nz])
        neg_features, neg_docs = (features[~positive_nz],
                                  view.rows[~positive_nz])
        weights = np.full(n_docs, 1.0 / n_docs)
        rounds, z_values = [], []
        for _ in range(learner.iterations):
            w_pos_total = seq_sum(weights[positive])
            w_neg_total = seq_sum(weights[~positive])
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
    classifier = BoostClassifier(labels, n_feats, all_rounds, all_z,
                                 iterations=learner.iterations,
                                 epsilon=epsilon, masks=masks,
                                 warnings=warnings)
    classifier.hyperparameters = {"iterations": learner.iterations}
    return classifier


def _outcome(trainer, learner, index):
    """(rounds, Z values, score bits, pickle bytes, warnings) of a trained
    classifier, or the message of the ValidationError training raised."""
    try:
        classifier = trainer(learner, index)
    except ValidationError as exc:
        return str(exc)
    return (classifier.rounds, classifier.z_values,
            classifier.score_index(index).tobytes(),
            pickle.dumps(classifier), classifier.warnings)


# -- small indexes ---------------------------------------------------------------


@st.composite
def boost_cases(draw):
    """(index, iterations, categories per block or None for one block)."""
    n_docs = draw(st.integers(1, 12))
    n_cats = draw(st.integers(1, 4))
    n_words = draw(st.integers(0, 6))
    twins = draw(st.booleans())  # each word twice, in the same documents
    columns = [[f"w{i}a", f"w{i}b"] if twins else [f"w{i}"]
               for i in range(n_words)]
    categories = [f"c{i}" for i in range(n_cats)]
    # a category is random, without positives, or positive everywhere
    kinds = draw(st.lists(st.sampled_from(["random", "none", "all"]),
                          min_size=n_cats, max_size=n_cats))
    docs, labels = [], []
    for d in range(n_docs):
        words = draw(st.lists(st.integers(0, n_words - 1), max_size=4,
                              unique=True)) if n_words else []
        count = draw(st.integers(1, 3))
        docs.append((f"d{d}", [(name, count) for i in words
                               for name in columns[i]]))
        labels.append((f"d{d}", [cat for cat, kind in zip(categories, kinds)
                                 if kind == "all" or kind == "random"
                                 and draw(st.booleans())]))
    index = build_index(docs, labels, categories)
    if draw(st.booleans()):  # a local domain: per category a feature subset
        n_feats = index.num_features
        index = index.with_domain(DomainDb(local=True, valid={
            c: frozenset(draw(st.lists(st.integers(0, max(n_feats - 1, 0)),
                                       max_size=n_feats, unique=True))
                         if n_feats else ())
            for c in range(n_cats)}))
    return (index, draw(st.integers(1, 6)),
            draw(st.sampled_from([None, 1, 2, 3])))


def _lockstep_train(learner, index, per_block, calls):
    """train() with blocks of `per_block` categories (one block when None),
    counting the blocks in calls[0]."""
    lockstep = learners._boost_lockstep

    def counted(*args):
        calls[0] += 1
        return lockstep(*args)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(learners, "_boost_lockstep", counted)
        if per_block is not None:
            cells = max(len(index.arrays().rows) + index.num_documents,
                        index.num_features)
            mp.setattr(learners, "BOOST_BLOCK_CELLS", per_block * cells)
        return train(learner, index)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(boost_cases())
def test_lockstep_equals_one_category_at_a_time(case):
    index, iterations, per_block = case
    learner = AdaBoostMHLearner(iterations=iterations)
    calls = [0]
    got = _outcome(
        lambda ln, ix: _lockstep_train(ln, ix, per_block, calls),
        learner, index)
    assert got == _outcome(_reference_boost, learner, index)
    if not isinstance(got, str):
        trained = sum(r is not None for r in got[0])
        blocks = -(-trained // (per_block or index.num_categories))
        assert calls[0] == blocks


@pytest.mark.parametrize("seed", [43, 306, 313, 340])
def test_the_exact_z_decides_within_the_screens_rounding(seed):
    """Corpora on which some round's least screened Z is not the least
    exact Z: without the screen's margin of 1e-9 the choice would differ."""
    index = random_corpus(seed, max_docs=40)
    learner = AdaBoostMHLearner(iterations=15)
    assert _outcome(train, learner, index) == \
        _outcome(_reference_boost, learner, index)


def _corpus(docs, categories):
    return build_index([(name, feats) for name, feats, _ in docs],
                       [(name, labs) for name, _, labs in docs], categories)


def _twin_docs():
    """Six documents whose every word comes in two columns with the same
    documents, so Z ties on every round."""
    docs = []
    for d in range(6):
        words = [w for w in range(4) if (d >> w) & 1 or w == d % 4]
        docs.append((f"d{d}", [(f"w{w}{t}", 1 + w) for w in words
                               for t in "ab"],
                     ["x"] + (["y"] if d % 3 == 0 else [])))
    return docs


@pytest.mark.parametrize("per_block", [None, 1])
def test_twin_columns_tie_every_round(per_block):
    index = _corpus(_twin_docs(), ["x", "y", "z"])
    learner = AdaBoostMHLearner(iterations=12)
    calls = [0]
    got = _outcome(lambda ln, ix: _lockstep_train(ln, ix, per_block, calls),
                   learner, index)
    assert got == _outcome(_reference_boost, learner, index)
    names = index.features.names
    # x is positive everywhere, y in two documents, z nowhere
    assert got[4] == ["category 'z' has no positive training documents"]
    for f, _, _ in got[0][1]:
        assert names[f].endswith("a")  # the lower id of each twin pair
    assert calls[0] == (2 if per_block else 1)


def test_first_featureless_category_with_positives_raises():
    docs = [("d0", [("a", 1)], ["p", "q", "r"]),
            ("d1", [("b", 2)], ["r"]),
            ("d2", [("a", 1), ("b", 1)], [])]
    index = _corpus(docs, ["n", "p", "q", "r"])
    local = index.with_domain(DomainDb(local=True, valid={
        0: frozenset(), 1: frozenset({0}), 2: frozenset(), 3: frozenset()}))
    learner = AdaBoostMHLearner(iterations=3)
    message = "category 'q' has no features to boost on"
    assert _outcome(_reference_boost, learner, local) == message
    assert _outcome(train, learner, local) == message


def test_a_global_index_without_features_raises():
    index = _corpus([("d0", [], ["p"]), ("d1", [], [])], ["p"])
    learner = AdaBoostMHLearner(iterations=2)
    assert _outcome(train, learner, index) == \
        _outcome(_reference_boost, learner, index) == \
        "category 'p' has no features to boost on"


def test_block_cells_bound_the_keys():
    """One block's keys never exceed the cell budget, unless one category
    alone needs more."""
    docs = [(f"d{d}", [(f"w{w}", 1) for w in range(d % 5 + 1)],
             [f"c{c}" for c in range(4) if (d + c) % 3 == 0])
            for d in range(20)]
    index = _corpus(docs, [f"c{c}" for c in range(4)])
    per_category = len(index.arrays().rows) + index.num_documents
    seen = []
    lockstep = learners._boost_lockstep

    def recording(positive, *args):
        seen.append(positive.shape[0])
        return lockstep(positive, *args)
    for budget, blocks in ((per_category * 4, [4]), (per_category * 3, [3, 1]),
                           (per_category + 1, [1, 1, 1, 1]), (1, [1] * 4)):
        seen.clear()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(learners, "_boost_lockstep", recording)
            mp.setattr(learners, "BOOST_BLOCK_CELLS", budget)
            got = train(AdaBoostMHLearner(iterations=4), index)
        assert seen == blocks
        assert got.rounds == _reference_boost(
            AdaBoostMHLearner(iterations=4), index).rounds


# -- the cap on the rounds -----------------------------------------------------------


def test_iterations_are_capped():
    assert AdaBoostMHLearner(iterations=MAX_ITERATIONS).iterations == \
        MAX_ITERATIONS
    for value in (MAX_ITERATIONS + 1, 10 ** 21, float("nan")):
        with pytest.raises(ValidationError, match="iterations must be"):
            AdaBoostMHLearner(iterations=value)
    with pytest.raises(ValidationError,
                       match=f"iterations must be <= {MAX_ITERATIONS}"):
        make_learner("boost", iterations=str(MAX_ITERATIONS + 1))


@pytest.mark.parametrize("command", ["kfold", "grid"])
def test_cli_rejects_too_many_iterations_before_any_work(tmp_path, capsys,
                                                         monkeypatch,
                                                         command):
    index = str(tmp_path / "index")
    assert main(["index", "--input", TOY_CORPUS, "--categories",
                 TOY_CATEGORIES, "--out", index]) == 0
    capsys.readouterr()

    def no_training(*args):
        raise AssertionError("trained a capped-out learner")
    monkeypatch.setitem(learners._TRAINERS, learners.ADABOOST_MH,
                        no_training)
    values = str(MAX_ITERATIONS + 1) if command == "kfold" \
        else f"1,{MAX_ITERATIONS + 1}"
    out = tmp_path / "out.tsv"
    assert main([command, "--index", index, "--learner", "boost",
                 "--param", f"iterations={values}",
                 "--out", str(out)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err == f"error: iterations must be <= {MAX_ITERATIONS}\n"
    assert not out.exists()
