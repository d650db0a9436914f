"""Filter feature selection: TSR scoring functions and selection policies.

Each feature/category pair is summarized by the four document counts of the
presence/membership contingency table; the scoring functions (information
gain, chi-square, pointwise mutual information, odds ratio) map those counts
to a relevance score.  Selection policies turn per-category rankings into a
reduced feature space: local per-category selection, the max / sum / weighted
global variants, and round robin.

Rankings count every (feature, category) pair at once from the index's
array view (Yang & Pedersen 1997): df is one bincount over the nonzeros and
each category's a one bincount over its documents' nonzeros.  Only distinct
count tables are scored.  A ranking keeps its id order and scores as two
arrays; a (fID, score) pair is built only when a caller reads it, so the
policies, which read a ranking's head, never build a whole ranking's pairs.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .index import ArrayRows, DomainDb, Index, subset_index

IG = "IG"
CHI2 = "Chi2"
PMI = "PMI"
ODDS_RATIO = "OddsRatio"

TSR_FUNCTIONS = (IG, CHI2, PMI, ODDS_RATIO)

LOCAL = "local"
GLOBAL_MAX = "max"
GLOBAL_SUM = "sum"
GLOBAL_WAVG = "wavg"
ROUND_ROBIN = "rr"


@dataclass(frozen=True)
class CooccurrenceCounts:
    """Document counts for one (feature, category) pair.

    a: docs containing the feature and in the category
    b: docs containing the feature, not in the category
    c: docs in the category without the feature
    d: the rest; a+b+c+d equals the corpus document count
    """

    a: int
    b: int
    c: int
    d: int

    @property
    def n(self) -> int:
        return self.a + self.b + self.c + self.d


def cooccurrence_counts(index: Index, f_id: int, c_id: int) -> CooccurrenceCounts:
    """Contingency counts of one feature against one category."""
    feature_docs = set(index.feature_documents(f_id))
    cat_docs = index.category_documents(c_id)
    a = len(feature_docs & cat_docs)
    b = len(feature_docs) - a
    c = len(cat_docs) - a
    d = index.num_documents - a - b - c
    return CooccurrenceCounts(a, b, c, d)


def _plog(p_joint: float, p_marg: float) -> float:
    if p_joint == 0.0:
        return 0.0
    return p_joint * math.log2(p_joint / p_marg)


# the formulas read the four counts a, b, c, d of one contingency table


def _information_gain(a: int, b: int, c: int, d: int) -> float:
    n = a + b + c + d
    pt = (a + b) / n
    pc = (a + c) / n
    score = 0.0
    score += _plog(a / n, pt * pc) if pt * pc else 0.0
    score += _plog(b / n, pt * (1 - pc)) if pt * (1 - pc) else 0.0
    score += _plog(c / n, (1 - pt) * pc) if (1 - pt) * pc else 0.0
    score += _plog(d / n, (1 - pt) * (1 - pc)) if (1 - pt) * (1 - pc) else 0.0
    return score


def _chi_square(a: int, b: int, c: int, d: int) -> float:
    denom = (a + c) * (b + d) * (a + b) * (c + d)
    if denom == 0:
        return 0.0
    diff = a * d - c * b
    return (a + b + c + d) * diff * diff / denom


def _pointwise_mutual_information(a: int, b: int, c: int, d: int) -> float:
    if a == 0:
        return 0.0
    n = a + b + c + d
    return math.log2((a / n) / (((a + b) / n) * ((a + c) / n)))


def _odds_ratio(a: int, b: int, c: int, d: int) -> float:
    # Haldane-Anscombe 0.5 smoothing avoids division by zero
    return math.log(((a + 0.5) * (d + 0.5)) / ((b + 0.5) * (c + 0.5)))


_FORMULAS = {
    IG: _information_gain,
    CHI2: _chi_square,
    PMI: _pointwise_mutual_information,
    ODDS_RATIO: _odds_ratio,
}


def information_gain(t: CooccurrenceCounts) -> float:
    return _information_gain(t.a, t.b, t.c, t.d)


def chi_square(t: CooccurrenceCounts) -> float:
    return _chi_square(t.a, t.b, t.c, t.d)


def pointwise_mutual_information(t: CooccurrenceCounts) -> float:
    return _pointwise_mutual_information(t.a, t.b, t.c, t.d)


def odds_ratio(t: CooccurrenceCounts) -> float:
    return _odds_ratio(t.a, t.b, t.c, t.d)


def _formula(func: str):
    try:
        return _FORMULAS[func]
    except KeyError:
        raise ValidationError(f"unknown TSR function {func!r}") from None


def tsr_score(counts: CooccurrenceCounts, func: str) -> float:
    if counts.n <= 0:
        raise ValidationError("empty corpus: no documents to score against")
    return _formula(func)(counts.a, counts.b, counts.c, counts.d)


class RankingEntries(ArrayRows):
    """The (fID, score) pairs of a ranking, read from its id order and its
    scores: an item is an (int, float) pair, a slice a tuple of them."""

    __slots__ = ()


@dataclass(frozen=True)
class FeatureRanking:
    """Features ordered by descending score; ties broken by ascending id.

    scope is either a category id (per-category ranking) or None (global).
    """

    scope: int | None
    entries: Sequence  # of (fID, score): a tuple or a RankingEntries

    def top(self, k: int) -> list:
        """The ids of entries[:k], read without building the other pairs."""
        return [f for f, _ in self.entries[:k]]


def _category_scores(index: Index, func: str, categories) -> np.ndarray:
    """len(categories) x F scores of every feature against each category.

    a[f] comes from one bincount of the category's nonzeros and df from one
    bincount of all of them; the scalar formula of `func` scores each
    distinct (a, df) pair once, from its four counts, so every score is
    tsr_score's bit for bit.
    """
    formula = _formula(func)
    view = index.arrays()
    n, n_feats = index.num_documents, index.num_features
    df = np.bincount(view.features, minlength=n_feats)
    scores = np.zeros((len(categories), n_feats))
    sizes = np.count_nonzero(view.labels, axis=0).tolist()
    for row, c in enumerate(categories):
        n_pos = sizes[c]
        a = np.bincount(view.features[view.labels[view.rows, c]],
                        minlength=n_feats)
        pairs, inverse = np.unique(a * (n + 1) + df, return_inverse=True)
        a_values, df_values = divmod(pairs, n + 1)
        distinct = [formula(a_, df_ - a_, n_pos - a_, n - df_ - n_pos + a_)
                    for a_, df_ in zip(a_values.tolist(), df_values.tolist())]
        scores[row] = np.asarray(distinct)[inverse]
    return scores


def _sorted_ranking(scope, scores: np.ndarray) -> FeatureRanking:
    order = np.argsort(-scores, kind="stable")  # ties: ascending id
    ranked = scores[order]
    order.flags.writeable = ranked.flags.writeable = False
    return FeatureRanking(scope=scope, entries=RankingEntries(order, ranked))


def rank_features(index: Index, func: str, scope=None, policy=GLOBAL_MAX):
    """Per-category ranking (scope = cID) or a global one (scope = None).

    Global rankings combine the per-category scores in ascending category
    order: `max` keeps each feature's best score (the first one on ties),
    `sum` adds them, `wavg` weighs each category's score by its prior |c|/D.
    """
    if index.num_documents == 0:
        raise ValidationError("cannot rank features of an empty index")
    if scope is not None:
        index.categories.name(scope)  # an unknown id is a ValidationError
        return _sorted_ranking(scope, _category_scores(index, func, [scope])[0])
    if policy not in (GLOBAL_MAX, GLOBAL_SUM, GLOBAL_WAVG):
        raise ValidationError(f"unknown global policy {policy!r}")
    d_total = index.num_documents
    per_cat = _category_scores(index, func, range(index.num_categories))
    if policy == GLOBAL_MAX:
        combined = np.full(index.num_features, -np.inf)
        for scores in per_cat:
            combined = np.where(scores > combined, scores, combined)
    else:
        combined = np.zeros(index.num_features)
        sizes = np.count_nonzero(index.arrays().labels, axis=0).tolist()
        for c, scores in enumerate(per_cat):
            if policy == GLOBAL_WAVG:
                scores = (sizes[c] / d_total) * scores
            combined = combined + scores
    return _sorted_ranking(None, combined)


def per_category_rankings(index: Index, func: str) -> list:
    """One ranking per category, ascending cID."""
    if index.num_categories and index.num_documents == 0:
        raise ValidationError("cannot rank features of an empty index")
    per_cat = _category_scores(index, func, range(index.num_categories))
    return [_sorted_ranking(c, scores) for c, scores in enumerate(per_cat)]


def select_round_robin(rankings, k: int) -> set:
    """Interleave per-category rankings, taking each category's next best
    not-yet-selected feature in turn until k features are chosen.

    Rankings must be ordered by ascending category id.  Asking for more
    features than exist selects them all.
    """
    if k < 1:
        raise ValidationError("k must be >= 1")
    selected: set = set()
    walks = [(f for f, _ in ranking.entries) for ranking in rankings]
    while len(selected) < k:
        progressed = False
        for walk in walks:
            f = next((f for f in walk if f not in selected), None)
            if f is None:
                continue  # this ranking is exhausted
            selected.add(f)
            progressed = True
            if len(selected) >= k:
                break
        if not progressed:
            break  # every ranking exhausted
    return selected


def apply_selection(index: Index, selected=None, local=None) -> Index:
    """Restrict the index feature space.

    A global `selected` set re-compacts the feature table.  A `local`
    mapping (cID -> feature set) keeps the union of all sets and switches
    the domain relation to local mode so each feature is only valid in the
    categories that selected it.
    """
    if (selected is None) == (local is None):
        raise ValidationError("specify exactly one of selected / local")
    if selected is not None:
        if not selected:
            raise ValidationError("empty feature selection")
        return subset_index(index, keep_features=set(selected))
    if not local or not any(local.values()):
        raise ValidationError("empty local feature selection")
    union = sorted(set().union(*local.values()))
    reduced = subset_index(index, keep_features=set(union))
    remap = {old: new for new, old in enumerate(union)}
    valid = {c: frozenset(remap[f] for f in fs) for c, fs in local.items()}
    return reduced.with_domain(DomainDb(local=True, valid=valid))
