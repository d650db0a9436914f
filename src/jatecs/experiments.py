"""Experiment templates: k-fold cross-validation and grid search.

Fold assignment is driven by the deterministic seeded generator, so plans,
evaluations and grid searches are exactly reproducible.  Folds and grid
points run one after another and are reduced in (point, fold) order.  The
`threads` keyword is accepted and ignored: the work is GIL-bound, and a
thread pool over it never ran faster than one thread.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass

from .errors import ValidationError
from .evaluation import ContingencyTableSet, compare, micro_macro
from .index import Index, subset_index
from .learners import make_learner, predict_classification, train
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
        return sorted(d for d, f in self.assignment.items() if f == fold)


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
    return FoldPlan(k=k, assignment=assignment, mode=mode, seed=seed)


def _evaluate_fold(learner, index, plan, fold):
    test_ids = plan.fold_documents(fold)
    train_ids = [d for d in range(index.num_documents)
                 if plan.assignment[d] != fold]
    if not train_ids or not test_ids:
        raise ValidationError(f"fold {fold} leaves an empty split")
    train_index = subset_index(index, keep_docs=set(train_ids))
    test_index = subset_index(index, keep_docs=set(test_ids))
    classifier = train(learner, train_index)
    for message in classifier.warnings:
        log.warning("fold %d: %s", fold, message)
    predictions = predict_classification(classifier, test_index)
    gold = {d: test_index.document_categories(d)
            for d in range(test_index.num_documents)}
    return compare(predictions, gold, test_index.num_documents,
                   test_index.num_categories)


def kfold_evaluate(learner, index: Index, plan: FoldPlan,
                   threads: int = 1) -> ContingencyTableSet:
    """Train on each fold complement, classify the fold, sum the tables."""
    if set(plan.assignment) != set(range(index.num_documents)):
        raise ValidationError("fold plan does not cover this index")
    total = ContingencyTableSet({})
    for fold in range(plan.k):
        total = total + _evaluate_fold(learner, index, plan, fold)
    return total


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
