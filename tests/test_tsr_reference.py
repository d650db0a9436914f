"""TSR rankings against the scalar definition: every (feature, category)
pair scored from cooccurrence_counts + tsr_score, one pair at a time."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from jatecs import (cooccurrence_counts, per_category_rankings, rank_features,
                    select_round_robin, tsr_score)
from jatecs.cli import select_features
from jatecs.index import DomainDb
from jatecs.tsr import TSR_FUNCTIONS

from conftest import random_corpus


def reference_scores(index, func):
    """{cID: {fID: score}} from the scalar definitions."""
    return {c: {f: tsr_score(cooccurrence_counts(index, f, c), func)
                for f in range(index.num_features)}
            for c in range(index.num_categories)}


def reference_ranking(scores):
    return [(f, repr(s)) for f, s in
            sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))]


def _loop_sum(values):
    total = 0.0
    for v in values:
        total += v
    return total


def reference_global(index, per_cat, policy):
    d_total = index.num_documents
    combined = {}
    for f in range(index.num_features):
        if policy == "max":
            combined[f] = max(per_cat[c][f] for c in per_cat)
        elif policy == "sum":
            combined[f] = _loop_sum(per_cat[c][f] for c in per_cat)
        else:
            combined[f] = _loop_sum(
                (len(index.category_documents(c)) / d_total) * per_cat[c][f]
                for c in per_cat)
    return reference_ranking(combined)


def entries(ranking):
    return [(f, repr(s)) for f, s in ranking.entries]


def indexes(seed):
    index = random_corpus(seed, max_docs=60)
    yield index
    # a local domain does not change what TSR counts
    yield index.with_domain(DomainDb(local=True, valid={
        0: frozenset(range(min(1, index.num_features)))}))


@pytest.mark.parametrize("func", TSR_FUNCTIONS)
class TestRankingsMatchScalarDefinition:
    @given(st.integers(min_value=0, max_value=100_000))
    @settings(max_examples=25, deadline=None)
    def test_per_category_and_global(self, func, seed):
        for index in indexes(seed):
            per_cat = reference_scores(index, func)
            rankings = per_category_rankings(index, func)
            assert [r.scope for r in rankings] == list(per_cat)
            for c, ranking in enumerate(rankings):
                assert entries(ranking) == reference_ranking(per_cat[c])
                assert entries(rank_features(index, func, scope=c)) == \
                    reference_ranking(per_cat[c])
            for policy in ("max", "sum", "wavg"):
                assert entries(rank_features(index, func, policy=policy)) \
                    == reference_global(index, per_cat, policy), policy

    @given(st.integers(min_value=0, max_value=100_000),
           st.integers(min_value=1, max_value=12))
    @settings(max_examples=25, deadline=None)
    def test_rr_and_local_selection(self, func, seed, k):
        index = random_corpus(seed, max_docs=60)
        assume(index.num_features > 0)  # nothing to select from
        per_cat = reference_scores(index, func)
        ranked = {c: [f for f, _ in reference_ranking(per_cat[c])]
                  for c in per_cat}

        class Ranking:
            def __init__(self, c):
                self.entries = [(f, None) for f in ranked[c]]

        expected_rr = select_round_robin([Ranking(c) for c in ranked], k)
        reduced = select_features(index, func, "rr", k)
        assert set(reduced.features.names) == \
            {index.features.name(f) for f in expected_rr}

        reduced = select_features(index, func, "local", k)
        for c in ranked:
            valid = reduced.domain.valid_features(c)
            assert {reduced.features.name(f) for f in valid} == \
                {index.features.name(f) for f in ranked[c][:k]}
