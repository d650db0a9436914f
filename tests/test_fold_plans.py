"""Fold plans and fold models without a pass per fold: stratified plans dealt
with a heap of the folds, every fold's documents from one pass over the
plan, and one table of log counts for all of a pass's Naive Bayes fold
models.  Each gives the plans and bits of the per-fold loops kept here."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import jatecs.learners as learners
from jatecs.experiments import SIMPLE, STRATIFIED, FoldPlan, make_folds
from jatecs.index import subset_index
from jatecs.learners import NaiveBayesLearner, _log_counts, train
from jatecs.rng import SplitMix64

from conftest import random_corpus


def _reference_plan(index, k, mode, seed):
    """make_folds as a scan of every fold and every document per category."""
    n_docs = index.num_documents
    order = list(range(n_docs))
    SplitMix64(seed).shuffle(order)
    assignment = {}
    if mode == SIMPLE:
        for i, d in enumerate(order):
            assignment[d] = i % k
    else:
        sizes = [0] * k
        for c in range(index.num_categories):
            members = index.category_documents(c)
            per_fold = [0] * k
            for d in assignment:
                if d in members:
                    per_fold[assignment[d]] += 1
            for d in order:
                if d not in members or d in assignment:
                    continue
                fold = min(range(k), key=lambda f: (per_fold[f], sizes[f], f))
                assignment[d] = fold
                per_fold[fold] += 1
                sizes[fold] += 1
        for d in order:
            if d not in assignment:
                fold = min(range(k), key=lambda f: (sizes[f], f))
                assignment[d] = fold
                sizes[fold] += 1
    return assignment


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.integers(0, 10 ** 6), st.integers(2, 60),
       st.sampled_from([SIMPLE, STRATIFIED]), st.integers(0, 3))
def test_plans_equal_the_per_fold_scans(corpus_seed, k, mode, seed):
    index = random_corpus(corpus_seed, max_docs=80)
    k = min(k, index.num_documents)
    if k < 2:
        return
    plan = make_folds(index, k, mode=mode, seed=seed)
    # the same documents in the same folds, dealt in the same order
    assert list(plan.assignment.items()) == \
        list(_reference_plan(index, k, mode, seed).items())
    scans = [sorted(d for d, f in plan.assignment.items() if f == fold)
             for fold in range(k)]
    assert plan.folds() == scans
    assert [plan.fold_documents(fold) for fold in range(k)] == scans


def test_fold_documents_outside_the_plan():
    plan = FoldPlan(k=2, assignment={0: 1, 1: 0, 2: 5, 3: 1}, mode=SIMPLE,
                    seed=0)
    assert plan.folds() == [[1], [0, 3]]
    assert plan.fold_documents(5) == []
    assert plan.fold_documents(-1) == []


# -- one table of log counts per pass -------------------------------------------


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.lists(st.integers(0, 200), min_size=0, max_size=30),
       st.integers(1, 250))
def test_a_longer_table_gives_the_same_logs(values, length):
    counts = np.array(values, dtype=np.float64).reshape(-1, 1)
    table = np.array([math.log(n + 1.0) for n in range(length)])
    assert _log_counts(counts, table).tobytes() == \
        _log_counts(counts).tobytes()


def test_one_table_serves_every_fold(monkeypatch):
    index = random_corpus(5, max_docs=80)
    plan = make_folds(index, 10, mode=STRATIFIED, seed=2)
    tables = []
    log_counts = learners._log_counts

    def recording(counts, table=None):
        tables.append(table)
        return log_counts(counts, table)
    monkeypatch.setattr(learners, "_log_counts", recording)
    folds = list(learners.fold_classifiers(
        NaiveBayesLearner(), index,
        ((fold, ids) for fold, ids in enumerate(plan.folds())), None))
    assert len(tables) == 2 * len(folds)
    assert tables[0] is not None
    assert all(table is tables[0] for table in tables)
    monkeypatch.undo()
    for fold, test_ids, classifier in folds:
        keep = set(range(index.num_documents)).difference(test_ids)
        expected = train(NaiveBayesLearner(),
                         subset_index(index, keep_docs=keep))
        assert classifier.deltas.tobytes() == expected.deltas.tobytes()


@pytest.mark.parametrize("total", [6.0, 2.0 ** 20])
def test_counts_past_the_table_go_through_unique(total):
    """The table is never longer than C x F: counts beyond it take the
    np.unique branch and still get math.log's bits."""
    counts = np.array([[0.0, 1.0, total], [total, 2.0, 0.0]])
    table = np.array([math.log(n + 1.0) for n in range(counts.size)])
    expected = [[math.log(n + 1.0) for n in row] for row in counts.tolist()]
    assert _log_counts(counts, table).tolist() == expected
