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
count tables are scored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .index import DomainDb, Index, subset_index

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


def information_gain(t: CooccurrenceCounts) -> float:
    n = t.n
    pt = (t.a + t.b) / n
    pc = (t.a + t.c) / n
    score = 0.0
    score += _plog(t.a / n, pt * pc) if pt * pc else 0.0
    score += _plog(t.b / n, pt * (1 - pc)) if pt * (1 - pc) else 0.0
    score += _plog(t.c / n, (1 - pt) * pc) if (1 - pt) * pc else 0.0
    score += _plog(t.d / n, (1 - pt) * (1 - pc)) if (1 - pt) * (1 - pc) else 0.0
    return score


def chi_square(t: CooccurrenceCounts) -> float:
    denom = (t.a + t.c) * (t.b + t.d) * (t.a + t.b) * (t.c + t.d)
    if denom == 0:
        return 0.0
    diff = t.a * t.d - t.c * t.b
    return t.n * diff * diff / denom


def pointwise_mutual_information(t: CooccurrenceCounts) -> float:
    if t.a == 0:
        return 0.0
    n = t.n
    return math.log2((t.a / n) / (((t.a + t.b) / n) * ((t.a + t.c) / n)))


def odds_ratio(t: CooccurrenceCounts) -> float:
    # Haldane-Anscombe 0.5 smoothing avoids division by zero
    return math.log(((t.a + 0.5) * (t.d + 0.5)) / ((t.b + 0.5) * (t.c + 0.5)))


_SCORERS = {
    IG: information_gain,
    CHI2: chi_square,
    PMI: pointwise_mutual_information,
    ODDS_RATIO: odds_ratio,
}


def tsr_score(counts: CooccurrenceCounts, func: str) -> float:
    if counts.n <= 0:
        raise ValidationError("empty corpus: no documents to score against")
    try:
        return _SCORERS[func](counts)
    except KeyError:
        raise ValidationError(f"unknown TSR function {func!r}") from None


@dataclass(frozen=True)
class FeatureRanking:
    """Features ordered by descending score; ties broken by ascending id.

    scope is either a category id (per-category ranking) or None (global).
    """

    scope: int | None
    entries: tuple  # of (fID, score)

    def top(self, k: int) -> list:
        return [f for f, _ in self.entries[:k]]


def _category_scores(index: Index, func: str, categories) -> np.ndarray:
    """len(categories) x F scores of every feature against each category.

    a[f] comes from one bincount of the category's nonzeros and df from one
    bincount of all of them; tsr_score is called once per distinct
    (a, df) pair, so every score is the scalar one bit for bit.
    """
    view = index.arrays()
    n, n_feats = index.num_documents, index.num_features
    df = np.bincount(view.features, minlength=n_feats)
    scores = np.zeros((len(categories), n_feats))
    for row, c in enumerate(categories):
        n_pos = len(index.category_documents(c))
        a = np.bincount(view.features[view.labels[view.rows, c]],
                        minlength=n_feats)
        pairs, inverse = np.unique(a * (n + 1) + df, return_inverse=True)
        a_values, df_values = divmod(pairs, n + 1)
        distinct = [tsr_score(CooccurrenceCounts(a_, df_ - a_, n_pos - a_,
                                                 n - df_ - n_pos + a_), func)
                    for a_, df_ in zip(a_values.tolist(), df_values.tolist())]
        scores[row] = np.asarray(distinct)[inverse]
    return scores


def _sorted_ranking(scope, scores: np.ndarray) -> FeatureRanking:
    order = np.lexsort((np.arange(len(scores)), -scores))
    return FeatureRanking(scope=scope, entries=tuple(
        zip(order.tolist(), scores[order].tolist())))


def rank_features(index: Index, func: str, scope=None, policy=GLOBAL_MAX):
    """Per-category ranking (scope = cID) or a global one (scope = None).

    Global rankings combine the per-category scores in ascending category
    order: `max` keeps each feature's best score (the first one on ties),
    `sum` adds them, `wavg` weighs each category's score by its prior |c|/D.
    """
    if index.num_documents == 0:
        raise ValidationError("cannot rank features of an empty index")
    if scope is not None:
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
        for c, scores in enumerate(per_cat):
            if policy == GLOBAL_WAVG:
                scores = (len(index.category_documents(c)) / d_total) * scores
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
    cursors = [0] * len(rankings)
    while len(selected) < k:
        progressed = False
        for i, ranking in enumerate(rankings):
            entries = ranking.entries
            pos = cursors[i]
            while pos < len(entries) and entries[pos][0] in selected:
                pos += 1
            cursors[i] = pos
            if pos < len(entries):
                selected.add(entries[pos][0])
                cursors[i] = pos + 1
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
