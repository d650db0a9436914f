"""Published worked examples as independent oracles: each case is typed in
from its source, with the source's numbers, and cited where it is tested.

IIR is Manning, Raghavan & Schütze, *Introduction to Information
Retrieval*, Cambridge University Press, 2008.
"""

import math

import numpy as np
import pytest

from jatecs.evaluation import (ContingencyTable, ContingencyTableSet,
                               micro_macro)
from jatecs.learners import NaiveBayesLearner, train
from jatecs.quantification import quantify
from jatecs.tsr import CooccurrenceCounts, chi_square, information_gain

from conftest import make_corpus
from test_quantification import _pool_with_rates


def test_iir_example_13_1_naive_bayes_log_odds():
    """IIR §13.2, Table 13.1 and Example 13.1: multinomial NB with add-one
    smoothing over the six-term vocabulary; the test document d5 scores
    P(c|d5) ∝ 3/4 · (3/7)^3 · 1/14 · 1/14 ≈ 0.0003 for c = China against
    P(~c|d5) ∝ 1/4 · (2/9)^3 · 2/9 · 2/9 ≈ 0.0001, log-odds 0.798991."""
    index = make_corpus([
        ("d1", {"Chinese": 2, "Beijing": 1}, ["China"]),
        ("d2", {"Chinese": 2, "Shanghai": 1}, ["China"]),
        ("d3", {"Chinese": 1, "Macao": 1}, ["China"]),
        ("d4", {"Tokyo": 1, "Japan": 1, "Chinese": 1}, []),
        ("d5", {"Chinese": 3, "Tokyo": 1, "Japan": 1}, []),
    ], ["China"])
    classifier = train(NaiveBayesLearner(), index, docs=[0, 1, 2, 3])
    score = classifier.score_index(index)[4, 0]
    book = math.log((3 / 4 * (3 / 7) ** 3 / 14 / 14)
                    / (1 / 4 * (2 / 9) ** 3 * (2 / 9) * (2 / 9)))
    assert round(book, 6) == 0.798991
    assert score == pytest.approx(book, abs=1e-15)
    assert classifier.decisions(np.array([[score]])).tolist() == [[True]]


# IIR §13.5.1: the class poultry and the term export in Reuters-RCV1
EXPORT_POULTRY = CooccurrenceCounts(a=49, b=27_652, c=141, d=774_106)


def test_iir_13_5_1_mutual_information_of_export_in_poultry():
    """IIR §13.5.1, Example 13.3, on the export/poultry counts (N11 = 49,
    N10 = 27,652, N01 = 141, N00 = 774,106): I(U; C) ≈ 0.0001105."""
    assert round(information_gain(EXPORT_POULTRY), 7) == 0.0001105


def test_iir_13_5_2_chi_square_of_export_in_poultry():
    """IIR §13.5.2, Example 13.4, on the same counts:
    X²(D, t, c) ≈ 284."""
    assert chi_square(EXPORT_POULTRY) == pytest.approx(284.0, abs=0.5)
    assert round(chi_square(EXPORT_POULTRY), 1) == 284.3


def test_iir_table_13_8_macro_against_micro_precision():
    """IIR §13.6, Table 13.8: class 1 (tp 10, fp 10), class 2 (tp 90,
    fp 10) and their pooled table (tp 100, fp 20): macroaveraged precision
    (10/20 + 90/100) / 2 = 0.7, microaveraged 100/120 ≈ 0.83."""
    scores = micro_macro(ContingencyTableSet({
        0: ContingencyTable(tp=10, fp=10, fn=10, tn=970),
        1: ContingencyTable(tp=90, fp=10, fn=10, tn=890)}))
    assert scores["macroP"] == pytest.approx(0.7, abs=1e-15)
    assert scores["microP"] == pytest.approx(100 / 120, abs=1e-15)
    assert round(scores["microP"], 3) == 0.833


@pytest.mark.parametrize("positives, adjusted", [
    (5, 0.75),  # (5/8 - 1/4) / (3/4 - 1/4)
    (1, 0.0),   # (1/8 - 1/4) / (1/2) = -1/4, clipped at 0
    (8, 1.0),   # (8/8 - 1/4) / (1/2) = 3/2, clipped at 1
])
def test_forman_2008_adjusted_count(positives, adjusted):
    """Forman, "Quantifying counts and costs via classification", Data
    Mining and Knowledge Discovery 17(2), 2008, the Adjusted Count method:
    p = (p' - fpr) / (tpr - fpr), clipped to [0, 1], with the observed
    positive rate p' of classify and count; by hand for tpr = 3/4 and
    fpr = 1/4 on 8 test documents."""
    scores = {d: (1.0 if d < positives else -1.0) for d in range(8)}
    pool = _pool_with_rates(scores, tpr=0.75, fpr=0.25)
    test = make_corpus([(f"d{i}", {"w": 1}, []) for i in range(8)], ["c0"])
    estimates = quantify(pool, test)
    assert estimates.of("CC", 0) == positives / 8
    assert estimates.of("ACC", 0) == adjusted
