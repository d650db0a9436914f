"""Contingency-table evaluation for multilabel classifiers.

One table per category plus their cellwise sum; precision/recall/F1/accuracy
with fixed conventions for degenerate denominators (an empty category
predicted empty scores perfect, the least surprising choice when macro
averaging over rare categories).  Single-label predictions can additionally
be summarized as a confusion matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .sums import seq_sum


@dataclass(frozen=True)
class ContingencyTable:
    tp: int = 0
    tn: int = 0
    fp: int = 0
    fn: int = 0

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn

    def __add__(self, other: "ContingencyTable") -> "ContingencyTable":
        return ContingencyTable(self.tp + other.tp, self.tn + other.tn,
                                self.fp + other.fp, self.fn + other.fn)

    def precision(self) -> float:
        return self.tp / (self.tp + self.fp) if self.tp + self.fp else 1.0

    def recall(self) -> float:
        return self.tp / (self.tp + self.fn) if self.tp + self.fn else 1.0

    def f1(self) -> float:
        p, r = self.precision(), self.recall()
        return 2 * p * r / (p + r) if p + r else 0.0

    def accuracy(self) -> float:
        return (self.tp + self.tn) / self.total if self.total else 1.0


@dataclass(frozen=True)
class ContingencyTableSet:
    per_category: dict  # cID -> ContingencyTable

    @property
    def global_table(self) -> ContingencyTable:
        total = ContingencyTable()
        for table in self.per_category.values():
            total = total + table
        return total

    def __add__(self, other: "ContingencyTableSet") -> "ContingencyTableSet":
        keys = set(self.per_category) | set(other.per_category)
        return ContingencyTableSet({
            c: self.per_category.get(c, ContingencyTable())
            + other.per_category.get(c, ContingencyTable())
            for c in sorted(keys)})


def compare(predictions, gold, num_documents: int,
            num_categories: int) -> ContingencyTableSet:
    """Tables from two D x C boolean decision matrices, D and C given by the
    two size arguments: tp, fp and fn are column counts, tn the rest.

    Either side may instead be a (dID -> iterable of cID) map in the same
    universe; documents absent from a map simply have no labels.  A map's
    ids are checked in map order, predictions before gold, and set into a
    matrix.
    """
    shape = (num_documents, num_categories)
    pred = _decision_matrix("predictions", predictions, shape)
    true = _decision_matrix("gold", gold, shape)
    tp = np.count_nonzero(pred & true, axis=0).tolist()
    fp = np.count_nonzero(pred & ~true, axis=0).tolist()
    fn = np.count_nonzero(~pred & true, axis=0).tolist()
    return ContingencyTableSet({
        c: ContingencyTable(tp=tp[c], tn=num_documents - tp[c] - fp[c] - fn[c],
                            fp=fp[c], fn=fn[c])
        for c in range(num_categories)})


def _decision_matrix(name: str, side, shape: tuple) -> np.ndarray:
    """`side` as a D x C boolean matrix: a matrix of that shape as given,
    a (dID -> cIDs) map checked entry by entry and set into a new one."""
    if isinstance(side, np.ndarray):
        if side.dtype != bool or side.shape != shape:
            raise ValidationError(f"{name} must be a {shape} boolean matrix, "
                                  f"not {side.shape} {side.dtype}")
        return side
    matrix = np.zeros(shape, dtype=bool)
    for d, cats in side.items():
        row = _known_id(name, "document", d, shape[0])
        for c in cats:
            matrix[row, _known_id(name, "category", c, shape[1])] = True
    return matrix


def _known_id(name: str, kind: str, value, size: int) -> int:
    """`value` as an int in range(size); it must equal that int, as a bool,
    a numpy integer or 1.0 does, and 1.5 or "1" does not."""
    try:
        known = int(value)
    except (TypeError, ValueError, OverflowError):  # None, "x", nan, inf
        known = -1
    if known != value or not 0 <= known < size:
        raise ValidationError(f"{name} reference unknown {kind} {value}")
    return known


def label_map(matrix: np.ndarray) -> dict:
    """{dID: ascending cID tuple} of every row of a D x C boolean matrix:
    one nonzero pass, its row-major column list split by the row counts."""
    cats = np.nonzero(matrix)[1].tolist()
    ends = np.cumsum(np.count_nonzero(matrix, axis=1)).tolist()
    return {d: tuple(cats[start:end])
            for d, (start, end) in enumerate(zip([0] + ends, ends))}


def measures(table: ContingencyTable) -> tuple:
    """(precision, recall, f1, accuracy) with the degenerate conventions."""
    return table.precision(), table.recall(), table.f1(), table.accuracy()


def micro_macro(table_set: ContingencyTableSet) -> dict:
    """Micro scores from the pooled table, macro as unweighted means.

    Macro-F1 is the mean of per-category F1 values (not the harmonic mean of
    macro precision and recall).
    """
    if not table_set.per_category:
        raise ValidationError("no categories to evaluate")
    micro_p, micro_r, micro_f1, micro_acc = measures(table_set.global_table)
    per_cat = [measures(t) for _, t in sorted(table_set.per_category.items())]
    k = len(per_cat)
    return {
        "microP": micro_p,
        "microR": micro_r,
        "microF1": micro_f1,
        "microAcc": micro_acc,
        "macroP": seq_sum([m[0] for m in per_cat]) / k,
        "macroR": seq_sum([m[1] for m in per_cat]) / k,
        "macroF1": seq_sum([m[2] for m in per_cat]) / k,
        "macroAcc": seq_sum([m[3] for m in per_cat]) / k,
    }


@dataclass(frozen=True)
class ConfusionMatrix:
    """cells[i][j] = number of documents with gold category i predicted j."""

    cells: tuple  # tuple of tuples, C x C

    @property
    def num_categories(self) -> int:
        return len(self.cells)

    def trace_accuracy(self) -> float:
        total = sum(sum(row) for row in self.cells)
        correct = sum(self.cells[i][i] for i in range(len(self.cells)))
        return correct / total if total else 1.0


def confusion(predictions: dict, gold: dict,
              num_categories: int | None = None) -> ConfusionMatrix:
    """Single-label confusion matrix from two (dID -> cID) maps."""
    if set(predictions) != set(gold):
        raise ValidationError("predictions and gold cover different documents")
    if num_categories is None:
        ids = list(predictions.values()) + list(gold.values())
        num_categories = max(ids) + 1 if ids else 0
    cells = [[0] * num_categories for _ in range(num_categories)]
    for d, g in gold.items():
        p = predictions[d]
        if not 0 <= g < num_categories or not 0 <= p < num_categories:
            raise ValidationError(f"category id out of range for document {d}")
        cells[g][p] += 1
    return ConfusionMatrix(cells=tuple(tuple(row) for row in cells))
