"""Experiment templates: k-fold cross-validation and grid search.

Fold assignment is driven by the deterministic seeded generator, so plans,
evaluations and grid searches are exactly reproducible.  `out_of_fold` is
the one pass that trains on each fold's complement and scores the fold;
k-fold tables, grid points and the quantifiers' rates are read from it,
without a copy of the index (`fold_splits` yields the folds as copies).
Folds and grid points run one after another, in (point, fold) order.  The
`threads` keyword is accepted and ignored: the work is GIL-bound, and a
thread pool over it never ran faster than one thread.
"""

from __future__ import annotations

import heapq
import itertools
import logging
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .evaluation import ContingencyTableSet, compare, label_map, micro_macro
from .index import Index, subset_index
from .learners import fold_classifiers, make_learner, train
from .rng import SplitMix64

log = logging.getLogger("jatecs")

SIMPLE = "simple"
STRATIFIED = "stratified"

OBJECTIVES = {
    "macrof1": "macroF1",
    "microf1": "microF1",
    "accuracy": "microAcc",
}


@dataclass(frozen=True)
class FoldPlan:
    k: int
    assignment: dict  # dID -> fold
    mode: str
    seed: int

    def fold_documents(self, fold: int) -> list:
        folds = self.folds()
        return folds[fold] if 0 <= fold < self.k else []

    def folds(self) -> list:
        """Every fold's sorted document ids, in fold order, from one pass
        over the assignment."""
        folds = {fold: [] for fold in range(self.k)}
        for d in sorted(self.assignment):  # a fold outside range(k) is dropped
            folds.get(self.assignment[d], []).append(d)
        return list(folds.values())


def make_folds(index: Index, k: int, mode: str = SIMPLE,
               seed: int = 0) -> FoldPlan:
    """Deal documents into k folds, optionally stratifying by category.

    Simple mode shuffles and deals round-robin, so fold sizes differ by at
    most one.  Stratified mode deals each category's positives round-robin
    first (ascending category id, one fold assignment per document), then
    spreads the remaining documents over the smallest folds.
    """
    n_docs = index.num_documents
    if k < 2:
        raise ValidationError("k must be >= 2")
    if k > n_docs:
        raise ValidationError(f"k={k} exceeds the {n_docs} documents")
    if mode not in (SIMPLE, STRATIFIED):
        raise ValidationError(f"unknown fold mode {mode!r}")
    order = list(range(n_docs))
    SplitMix64(seed).shuffle(order)
    assignment: dict = {}
    if mode == SIMPLE:
        for i, d in enumerate(order):
            assignment[d] = i % k
    else:
        # a document goes to the fold least by (members dealt, size, id);
        # a heap of the folds by that key finds it without a scan
        labels = index.arrays().labels
        shuffled = np.array(order, dtype=np.intp)
        dealt = np.full(n_docs, k)  # each document's fold, k until dealt
        sizes = [0] * k
        for c in range(index.num_categories):
            members = labels[:, c]
            # the members dealt for earlier categories, counted per fold
            per_fold = np.bincount(dealt[members], minlength=k + 1).tolist()
            heap = [(per_fold[f], sizes[f], f) for f in range(k)]
            heapq.heapify(heap)
            for d in shuffled[members[shuffled]].tolist():
                if d in assignment:
                    continue
                count, size, fold = heap[0]
                heapq.heapreplace(heap, (count + 1, size + 1, fold))
                assignment[d] = fold
                dealt[d] = fold
                sizes[fold] = size + 1
        heap = [(size, f) for f, size in enumerate(sizes)]
        heapq.heapify(heap)
        for d in order:
            if d not in assignment:
                size, fold = heap[0]
                heapq.heapreplace(heap, (size + 1, fold))
                assignment[d] = fold
    return FoldPlan(k=k, assignment=assignment, mode=mode, seed=seed)


def _fold_ids(index: Index, plan: FoldPlan):
    """(fold, sorted test ids) of every fold, in order, once the plan is
    checked to cover the index and the fold to leave neither split empty."""
    n_docs = index.num_documents
    if set(plan.assignment) != set(range(n_docs)):
        raise ValidationError("fold plan does not cover this index")
    for fold, test_ids in enumerate(plan.folds()):
        if not test_ids or len(test_ids) == n_docs:
            raise ValidationError(f"fold {fold} leaves an empty split")
        yield fold, test_ids


def fold_splits(index: Index, plan: FoldPlan):
    """(fold, test ids, training index, test index) of every fold, in order,
    with out_of_fold's plan checks."""
    for fold, test_ids in _fold_ids(index, plan):
        rest = set(range(index.num_documents)).difference(test_ids)
        yield (fold, test_ids, subset_index(index, keep_docs=rest),
               subset_index(index, keep_docs=set(test_ids)))


def out_of_fold(learner, index: Index, plan: FoldPlan) -> tuple:
    """(D x C scores, D x C decisions, [(fold, warning)]) of classifiers
    trained on each fold's complement, each scoring its fold, in fold order.

    No fold copies the index: Naive Bayes takes each fold model from the
    whole index's class counts, any other learner trains through
    train(learner, index, complement ids), and every fold is scored in
    place."""
    scores = np.zeros((index.num_documents, index.num_categories))
    decisions = np.zeros(scores.shape, dtype=bool)
    warnings = []
    # through this module's train, which bench/tracing.py rebinds
    for fold, test_ids, classifier in fold_classifiers(
            learner, index, _fold_ids(index, plan), train):
        warnings.extend((fold, message) for message in classifier.warnings)
        fold_scores = classifier.score_subset(index, test_ids)
        scores[test_ids] = fold_scores
        decisions[test_ids] = classifier.decisions(fold_scores)
        del classifier  # before the next fold's is trained
    return scores, decisions, warnings


def kfold_evaluate(learner, index: Index, plan: FoldPlan,
                   threads: int = 1) -> ContingencyTableSet:
    """The out-of-fold decisions' tables: the per-fold tables summed."""
    _, decisions, warnings = out_of_fold(learner, index, plan)
    for fold, message in warnings:
        log.warning("fold %d: %s", fold, message)
    return compare(label_map(decisions), label_map(index.arrays().labels),
                   index.num_documents, index.num_categories)


def grid_search(learner_kind: str, grid: dict, index: Index, plan: FoldPlan,
                objective: str = "macrof1", threads: int = 1):
    """Exhaustive search over the Cartesian product of the grid axes.

    Returns (best parameter dict, [(params, objective value)] for every
    point).  Ties keep the earliest point in axis order.
    """
    if not grid or any(not values for values in grid.values()):
        raise ValidationError("grid axes and value lists must be non-empty")
    key = OBJECTIVES.get(objective.lower())
    if key is None:
        raise ValidationError(f"unknown objective {objective!r}")
    names = list(grid)
    points = [dict(zip(names, combo))
              for combo in itertools.product(*(grid[name] for name in names))]
    learners = [make_learner(learner_kind, **params) for params in points]
    score_table = [(params, micro_macro(kfold_evaluate(ln, index, plan))[key])
                   for params, ln in zip(points, learners)]
    best_params, _ = max(score_table, key=lambda point: point[1])
    return best_params, score_table
