"""The out-of-fold pass without per-fold index copies: Naive Bayes fold models
by subtraction of the fold's class counts (or counted over the complement
once a feature's total count reaches 2^53), and every fold scored in place,
bit for bit as a fold loop over subset_index copies gives them.  Also covers
the checks that ride along: `main` builds its parser once, and a concept
file read in bulk gives the names, and a bad one the error, of the
line-by-line walk."""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import jatecs.cli as cli
import jatecs.experiments as experiments
import jatecs.index as index_module
import jatecs.learners as learners
from jatecs import build_index
from jatecs.errors import ParseError, ValidationError
from jatecs.experiments import (SIMPLE, STRATIFIED, fold_splits, make_folds,
                                out_of_fold)
from jatecs.index import (DomainDb, _concept_names, _read_concepts, _TsvFile,
                          _walked_concepts, subset_index)
from jatecs.learners import (AdaBoostMHLearner, KnnLearner, NaiveBayesLearner,
                             RocchioLearner, train)
from jatecs.weighting import tfidf_normalized

from conftest import random_corpus
from test_building_blocks import toy_index  # noqa: F401 (a fixture)
from test_out_of_fold import local_index  # noqa: F401 (a fixture)

LEARNERS = [NaiveBayesLearner(), RocchioLearner(), KnnLearner(k=3),
            AdaBoostMHLearner(iterations=3)]


def _bits(array):
    return np.ascontiguousarray(array, dtype=np.float64).tobytes()


def _reference_out_of_fold(learner, index, plan):
    """The fold loop over subset_index copies: train on each fold's
    complement, score the fold's own copy."""
    scores = np.zeros((index.num_documents, index.num_categories))
    decisions = np.zeros(scores.shape, dtype=bool)
    warnings = []
    for fold, test_ids, fold_train, fold_test in fold_splits(index, plan):
        classifier = train(learner, fold_train)
        warnings.extend((fold, message) for message in classifier.warnings)
        fold_scores = classifier.score_index(fold_test)
        scores[test_ids] = fold_scores
        decisions[test_ids] = classifier.decisions(fold_scores)
    return scores, decisions, warnings


def _outcome(pass_, learner, index, plan):
    """The pass's scores and decisions as bytes plus its warnings, or the
    message of the ValidationError it raised."""
    try:
        scores, decisions, warnings = pass_(learner, index, plan)
    except ValidationError as exc:
        return str(exc)
    return _bits(scores), decisions.tobytes(), warnings


# -- out_of_fold against the per-fold reference -------------------------------


def _case_index(docs, labels, valid):
    """An index of docs[d] = {feature: (count, weight)} and labels[d] = the
    ids of document d's categories, of three; `valid`, when given, holds
    the valid feature texts of each category."""
    categories = ["c0", "c1", "c2"]
    index = build_index(
        [(f"d{d}", [(f"f{f}", n, w) for f, (n, w) in sorted(row.items())])
         for d, row in enumerate(docs)],
        [(f"d{d}", [categories[c] for c in cats])
         for d, cats in enumerate(labels)], categories)
    if valid is None:
        return index
    names = index.features.names
    return index.with_domain(DomainDb(local=True, valid={
        c: frozenset(f for f, text in enumerate(names) if text in texts)
        for c, texts in enumerate(valid)}))


@st.composite
def fold_cases(draw):
    n_docs = draw(st.integers(2, 8))
    row = st.dictionaries(st.integers(0, 4),
                          st.tuples(st.integers(1, 4),
                                    st.floats(0.0, 2.0, allow_nan=False)),
                          max_size=4)
    docs = draw(st.lists(row, min_size=n_docs, max_size=n_docs))
    labels = draw(st.lists(st.sets(st.integers(0, 2)),
                           min_size=n_docs, max_size=n_docs))
    valid = None
    if draw(st.booleans()):  # a local domain
        valid = [draw(st.sets(st.sampled_from([f"f{f}" for f in range(5)])))
                 for _ in range(3)]
    k = draw(st.integers(2, n_docs))
    mode = draw(st.sampled_from([SIMPLE, STRATIFIED]))
    return docs, [sorted(cats) for cats in labels], valid, k, mode


# one document of c0 and one of every category but c1: in leave-one-out,
# the fold holding either has a complement without a positive or without a
# negative document of that category
_ONE_POSITIVE_ONE_NEGATIVE = (
    [{0: (2, 1.0)}, {1: (1, 0.5)}, {0: (1, 2.0), 2: (3, 1.5)}, {}],
    [[0, 2], [2], [2], [1]], None, 4, SIMPLE)


@settings(max_examples=60, deadline=None)
@given(case=fold_cases(), learner=st.sampled_from(LEARNERS),
       seed=st.integers(0, 3))
@example(case=_ONE_POSITIVE_ONE_NEGATIVE, learner=NaiveBayesLearner(), seed=0)
@example(case=_ONE_POSITIVE_ONE_NEGATIVE[:2] + ([{"f0"}, set(), {"f1", "f2"}],)
         + _ONE_POSITIVE_ONE_NEGATIVE[3:], learner=NaiveBayesLearner(), seed=1)
def test_out_of_fold_equals_the_copying_fold_loop(case, learner, seed):
    docs, labels, valid, k, mode = case
    index = tfidf_normalized(_case_index(docs, labels, valid))
    plan = make_folds(index, k, mode=mode, seed=seed)
    assert _outcome(out_of_fold, learner, index, plan) == \
        _outcome(_reference_out_of_fold, learner, index, plan)


@pytest.mark.parametrize("learner", LEARNERS, ids=lambda ln: ln.kind)
def test_every_fold_of_a_leave_one_out_plan(learner, local_index):
    plan = make_folds(local_index, local_index.num_documents, seed=1)
    assert _outcome(out_of_fold, learner, local_index, plan) == \
        _outcome(_reference_out_of_fold, learner, local_index, plan)


def test_nb_counts_from_2_53_are_counted_over_the_complement():
    # 'a' totals 2^53 + 2: the whole index's class counts lose the 1s that
    # d0 and d3 add, so whole less fold is not the complement's count
    index = build_index(
        [("d0", [("a", 1), ("b", 1)]), ("d1", [("b", 3)]),
         ("d2", [("a", 2**53), ("b", 1)]), ("d3", [("a", 1), ("b", 2)])],
        [("d0", ["x"]), ("d1", ["y"]), ("d2", ["x"]), ("d3", ["y"])],
        ["x", "y"])
    view = index.arrays()
    totals = np.bincount(view.features, weights=view.counts)
    assert totals.max() >= 2.0 ** 53
    learner = NaiveBayesLearner()
    for mode in (SIMPLE, STRATIFIED):
        for k in (2, 4):
            plan = make_folds(index, k, mode=mode, seed=2)
            assert _outcome(out_of_fold, learner, index, plan) == \
                _outcome(_reference_out_of_fold, learner, index, plan)


# -- scoring in place ---------------------------------------------------------


@pytest.mark.parametrize("learner", LEARNERS, ids=lambda ln: ln.kind)
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32), picks=st.data())
def test_scores_of_ids_equal_the_scores_of_a_subset_copy(learner, seed, picks):
    index = tfidf_normalized(random_corpus(seed, max_docs=40))
    assume(index.num_features)  # boosting needs a feature to split on
    docs = sorted(picks.draw(st.sets(
        st.integers(0, index.num_documents - 1), min_size=1)))
    blocks = []
    real_blocks = learners._knn_blocks
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(learners, "KNN_BLOCK_CELLS", 8)
        mp.setattr(learners, "_knn_blocks",
                   lambda *a: blocks.append(real_blocks(*a)) or blocks[-1])
        classifier = train(learner, index)
        got = classifier.score_subset(index, docs)
        copied = classifier.score_index(subset_index(index,
                                                     keep_docs=set(docs)))
    assert _bits(got) == _bits(copied)
    if learner.kind == learners.KNN and len(docs) > 1 \
            and index.num_documents > 8:  # one query row per block
        assert len(blocks[0]) == len(docs)


# -- what a fold pass calls ---------------------------------------------------


@pytest.mark.parametrize("local", [False, True], ids=["global", "local"])
@pytest.mark.parametrize("learner", LEARNERS, ids=lambda ln: ln.kind)
def test_no_fold_pass_copies_and_only_nb_skips_train(
        learner, local, toy_index, local_index, monkeypatch):
    index = local_index if local else toy_index
    calls = {"subset_index": 0, "train": 0}

    def counting(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper
    for module in (experiments, index_module, learners):
        for name in calls:
            if hasattr(module, name):
                monkeypatch.setattr(module, name,
                                    counting(name, getattr(module, name)))
    plan = make_folds(index, 5, mode=STRATIFIED, seed=3)
    out_of_fold(learner, index, plan)
    per_fold = 0 if learner.kind == learners.NAIVE_BAYES else 1
    assert calls == {"subset_index": 0, "train": per_fold * plan.k}


# -- one parser per process ---------------------------------------------------


def test_main_builds_its_parser_once(monkeypatch, capsys):
    built = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser",
                        lambda: built.append(1) or real())
    cli._parser.cache_clear()
    try:
        for argv in (["kfold"], ["quantify", "--bogus"], []):
            assert cli.main(argv) == cli.EXIT_USAGE
    finally:
        cli._parser.cache_clear()
    assert len(built) == 1
    assert "--index is required for 'kfold'" in capsys.readouterr().err


# -- concept files read in bulk -----------------------------------------------


_PIECES = ["0", "1", "2", "3", "x", "é", "\t", "\t\t", "\r", "\n", "\n\n",
           " ", "a\tb"]


def _walk(directory, expected):
    try:
        return _walked_concepts(_TsvFile(directory, "features.tsv"),
                                "features.tsv", "feature", expected)
    except (ParseError, ValidationError) as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(lines=st.lists(st.tuples(st.sampled_from(["0", "1", "2", "3", "x"]),
                                st.lists(st.sampled_from(_PIECES),
                                         max_size=3)), max_size=4),
       expected=st.integers(0, 4), tail=st.sampled_from(["", "\n", "\r\n"]))
@example(lines=[("0", ["a"]), ("1", ["b"])], expected=2, tail="\n")
@example(lines=[("0", ["a\t1"]), ("b", [])], expected=2, tail="\n")
def test_bulk_concept_names_are_the_walks(lines, expected, tail):
    text = "\n".join(f"{id_}\t{''.join(name)}" if name else id_
                     for id_, name in lines) + tail
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "features.tsv")
        with open(path, "wb") as fh:
            fh.write(text.encode("utf-8"))
        walked = _walk(directory, expected)
        bulk = _concept_names(text.encode("utf-8"), expected, "feature")
        if bulk is not None:
            assert bulk == walked
        try:
            read = _read_concepts(directory, "features.tsv", "feature",
                                  expected).names
        except (ParseError, ValidationError) as exc:
            read = type(exc), str(exc)
    assert read == (tuple(walked) if isinstance(walked, list) else walked)


def test_bulk_concept_names_reject_non_utf8():
    assert _concept_names(b"0\t\xff\n", 1, "feature") is None


def test_a_wrong_feature_id_names_its_line(toy_index, tmp_path, capsys):
    directory = str(tmp_path / "index")
    index_module.serialize_index(toy_index, directory)
    path = os.path.join(directory, "features.tsv")
    with open(path, encoding="utf-8") as fh:
        lines = fh.readlines()
    lines[2] = "7" + lines[2][lines[2].index("\t"):]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(lines)
    assert cli.main(["weight", "--index", directory, "--out",
                     str(tmp_path / "w")]) == cli.EXIT_DATA
    assert "features.tsv:3: expected id 2" in capsys.readouterr().err
