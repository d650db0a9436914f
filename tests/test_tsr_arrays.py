"""Rankings backed by their id order and scores: the pairs a caller reads
are the tuple entries of a sort over the scalar scores, and the policies
read only a ranking's head."""

import math
from collections import Counter
from unittest import mock

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from jatecs import per_category_rankings, rank_features, select_round_robin
from jatecs.cli import select_features
from jatecs.tsr import (GLOBAL_MAX, GLOBAL_SUM, GLOBAL_WAVG, TSR_FUNCTIONS,
                        FeatureRanking, RankingEntries, _sorted_ranking)

from conftest import make_corpus, random_corpus
from test_tsr_reference import _loop_sum, reference_scores


def reference_entries(scores):
    """The tuple entries of a ranking of `scores`: descending score, ties
    by ascending id."""
    scores = np.asarray(scores, dtype=np.float64)
    order = np.lexsort((np.arange(len(scores)), -scores))
    return tuple(zip(order.tolist(), scores[order].tolist()))


def reference_global(index, per_cat, policy):
    """Combined scores of every feature, category by category in ascending
    id: the first best on ties, a left-to-right sum, or one weighted by
    each category's prior."""
    combined = []
    for f in range(index.num_features):
        scores = [per_cat[c][f] for c in per_cat]
        if policy == GLOBAL_MAX:
            combined.append(max(scores))
        elif policy == GLOBAL_SUM:
            combined.append(_loop_sum(scores))
        else:
            combined.append(_loop_sum(
                (len(index.category_documents(c)) / index.num_documents) * s
                for c, s in zip(per_cat, scores)))
    return combined


def bits(pairs):
    return [(f, s.hex() if math.isfinite(s) else repr(s)) for f, s in pairs]


SLICES = (slice(None), slice(2), slice(-3, None), slice(1, None, 2),
          slice(None, None, -1), slice(5, 1), slice(-100, 100))


def assert_reads_as(ranking, expected):
    """Every read of an array-backed ranking gives what the same reads of
    a ranking with tuple entries `expected` give."""
    entries = ranking.entries
    assert isinstance(entries, RankingEntries)
    n = len(expected)
    assert len(entries) == n
    for i in range(-n, n):
        f, s = entries[i]
        assert type(f) is int and type(s) is float
        assert bits([(f, s)]) == bits([expected[i]])
    for i in (n, -n - 1):
        try:
            entries[i]
        except IndexError:
            pass
        else:
            raise AssertionError(f"entries[{i}] of {n} did not raise")
    for cut in SLICES:
        assert type(entries[cut]) is tuple
        assert bits(entries[cut]) == bits(expected[cut])
    listed = list(entries)
    assert all(type(f) is int and type(s) is float for f, s in listed)
    assert bits(listed) == bits(expected)
    assert entries == expected and expected == entries
    assert entries != list(expected)
    assert hash(entries) == hash(expected)
    assert repr(entries) == repr(expected)
    as_tuples = FeatureRanking(scope=ranking.scope, entries=expected)
    assert ranking == as_tuples and as_tuples == ranking
    assert hash(ranking) == hash(as_tuples)
    assert repr(ranking) == repr(as_tuples)
    for k in range(-2, n + 2):
        assert ranking.top(k) == as_tuples.top(k) == \
            [f for f, _ in expected[:k]]


SCORES = st.lists(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.25, 1e-300,
                                   math.inf, -math.inf]), max_size=12)


@given(SCORES, st.sampled_from([None, 0, 3]))
@settings(max_examples=200, deadline=None)
@example([], None)
@example([0.0, -0.0, -0.0, 0.0, 1.0, 1.0], 0)
def test_sorted_scores_read_as_the_tuple_entries(scores, scope):
    scores = np.array(scores, dtype=np.float64)
    assert_reads_as(_sorted_ranking(scope, scores), reference_entries(scores))


@given(st.integers(min_value=0, max_value=100_000),
       st.sampled_from(TSR_FUNCTIONS), st.integers(min_value=1, max_value=12))
@settings(max_examples=60, deadline=None)
def test_every_policy_reads_as_the_tuple_entries(seed, func, k):
    index = random_corpus(seed, max_docs=40)
    per_cat = reference_scores(index, func)
    expected = {c: reference_entries([per_cat[c][f]
                                      for f in range(index.num_features)])
                for c in per_cat}
    rankings = per_category_rankings(index, func)
    for c, ranking in enumerate(rankings):
        assert ranking.scope == c
        assert_reads_as(ranking, expected[c])
        assert_reads_as(rank_features(index, func, scope=c), expected[c])
    for policy in (GLOBAL_MAX, GLOBAL_SUM, GLOBAL_WAVG):
        assert_reads_as(rank_features(index, func, policy=policy),
                        reference_entries(reference_global(index, per_cat,
                                                           policy)))

    assume(index.num_features > 0)  # nothing to select from
    as_tuples = [FeatureRanking(scope=c, entries=expected[c])
                 for c in expected]
    for j in (k, index.num_features + 1):
        assert select_round_robin(rankings, j) == \
            select_round_robin(as_tuples, j)
    expected_rr = select_round_robin(as_tuples, k)
    reduced = select_features(index, func, "rr", k)
    assert set(reduced.features.names) == \
        {index.features.name(f) for f in expected_rr}
    reduced = select_features(index, func, "local", k)
    for ranking in as_tuples:
        valid = reduced.domain.valid_features(ranking.scope)
        assert {reduced.features.name(f) for f in valid} == \
            {index.features.name(f) for f in ranking.top(k)}


def test_rr_and_local_build_no_whole_ranking():
    # 300 features over 3 categories; a selection of 10 reads each
    # ranking's head only
    specs = [(f"d{d}", {f"w{(7 * d + j) % 300}": 1 + j % 3 for j in range(12)},
              [f"c{d % 3}"] + ([f"c{(d + 1) % 3}"] if d % 4 == 0 else []))
             for d in range(90)]
    index = make_corpus(specs, ["c0", "c1", "c2"])
    assert index.num_features == 300
    pairs_read, sizes = Counter(), {}
    real_getitem, real_iter = RankingEntries.__getitem__, RankingEntries.__iter__

    def counting_getitem(self, i):
        got = real_getitem(self, i)
        sizes[id(self)] = len(self)
        pairs_read[id(self)] += len(got) if isinstance(i, slice) else 1
        return got

    def counting_iter(self):
        sizes[id(self)] = len(self)
        for pair in real_iter(self):
            pairs_read[id(self)] += 1
            yield pair

    for policy in ("rr", "local"):
        pairs_read.clear()
        sizes.clear()
        with mock.patch.object(RankingEntries, "__getitem__",
                               counting_getitem), \
                mock.patch.object(RankingEntries, "__iter__", counting_iter):
            reduced = select_features(index, "IG", policy, 10)
        assert reduced.num_features >= 10
        assert len(sizes) == index.num_categories, policy
        assert all(0 < pairs_read[r] < sizes[r] / 10 for r in sizes), \
            (policy, pairs_read)
