"""Rankings sorted only as far as they are read: every read of a ranking,
in any order, gives what the same read of its tuple entries gives, also
past the first heads (512 and 2048 pairs) and across ties between a = 0
and a > 0 features and between features of different df."""

import math
from itertools import islice

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jatecs import per_category_rankings, rank_features, select_round_robin
from jatecs.cli import select_features
from jatecs.tsr import (CHI2, GLOBAL_MAX, GLOBAL_SUM, GLOBAL_WAVG,
                        TSR_FUNCTIONS, FeatureRanking, RankingEntries,
                        _sorted_ranking)

from conftest import make_corpus
from test_tsr_arrays import reference_entries, reference_global
from test_tsr_reference import reference_scores

CATEGORIES = ["c0", "none", "c1", "every"]


def corpus_index(spec):
    """The index of (n_docs, feature document sets, label sets): "none"
    has no document, "every" has them all."""
    n_docs, doc_sets, labels = spec
    specs = [(f"d{d}", {f"w{j}": 1 for j, docs in enumerate(doc_sets)
                        if d in docs},
              [f"c{c}" for c in sorted(labels[d])] + ["every"])
             for d in range(n_docs)]
    return make_corpus(specs, CATEGORIES)


@st.composite
def corpora(draw):
    n_docs = draw(st.integers(min_value=1, max_value=8))
    some_docs = st.frozensets(st.integers(min_value=0, max_value=n_docs - 1),
                              min_size=1)
    doc_sets = draw(st.lists(some_docs, min_size=1, max_size=10))
    # a feature and its complement score alike under chi-square, one with
    # a = 0 and the other with a > 0 where the category is one side
    doc_sets += [frozenset(range(n_docs)) - docs for docs in doc_sets
                 if draw(st.booleans())]
    # many features per (a, df): ties in every head and past it
    pad = draw(st.sampled_from([0, 600, 2100]))
    doc_sets += [doc_sets[j % len(doc_sets)] for j in range(pad)]
    labels = draw(st.lists(st.frozensets(st.integers(0, 1)),
                           min_size=n_docs, max_size=n_docs))
    return n_docs, doc_sets, labels


# a position m * F + offset of a ranking of F pairs
POSITION = st.tuples(st.sampled_from([-1, 0, 1]),
                     st.integers(-3, 3) | st.sampled_from(
                         [-513, 511, 512, 513, 2047, 2048, 2049]))
SIMPLE_READ = st.one_of(
    st.tuples(st.just("item"), POSITION),
    st.tuples(st.just("slice"), st.none() | POSITION, st.none() | POSITION,
              st.sampled_from([None, 1, 2, 7, -1, -3])),
    st.tuples(st.just("top"), POSITION))
READ = SIMPLE_READ | st.tuples(st.just("iter"), POSITION, SIMPLE_READ)

# reads every ranking also gets, each on a fresh ranking
FIXED_SCRIPTS = (
    [("item", (1, -1))],                       # entry F - 1 first
    [("item", (0, -1)), ("item", (-1, 0)), ("item", (1, 0)),
     ("item", (-1, -1))],                      # negative and out of range
    [("slice", None, None, -1)],
    [("slice", (0, 1), None, 3), ("slice", (1, -2), (0, 5), -7)],
    [("iter", (0, 3), ("item", (1, -1)))],     # stopped, read, resumed
    [("iter", (0, 600), ("top", (0, 1)))],
    *[[("top", k)] for k in ((0, 0), (0, 1), (1, -1), (1, 0), (1, 1))],
)


def bits(pairs):
    """The ids and the scores' bit patterns of (fID, score) pairs."""
    ids, scores = zip(*pairs) if pairs else ((), ())
    return ids, np.array(scores, dtype=np.float64).view(np.int64).tolist()


def _read(entries, op, n):
    """What one read of `entries` (F = n) gives, IndexError included."""
    def at(position):
        return None if position is None else position[0] * n + position[1]

    try:
        if op[0] == "item":
            return bits([entries[at(op[1])]])
        if op[0] == "slice":
            got = entries[at(op[1]):at(op[2]):op[3]]
            return type(got), bits(got)
        if op[0] == "top":
            return FeatureRanking(scope=None, entries=entries).top(at(op[1]))
        walk = iter(entries)
        head = list(islice(walk, max(at(op[1]), 0)))
        return bits(head), _read(entries, op[2], n), bits(list(walk))
    except IndexError:
        return IndexError


def assert_script_reads(ranking, expected, script):
    """The reads of `script`, then a whole read, of a ranking no one has
    read give what they give on the tuple entries `expected`."""
    entries = ranking.entries
    assert isinstance(entries, RankingEntries)
    n = len(expected)
    assert len(entries) == n
    for op in script:
        assert _read(entries, op, n) == _read(expected, op, n), op
    assert bits(list(entries)) == bits(entries[:]) == bits(expected)


@given(corpora(), st.lists(READ, max_size=4))
@settings(max_examples=12, deadline=None, derandomize=True)
@example((4, [frozenset({0}), frozenset({1, 2, 3}), frozenset({0, 1}),
              frozenset({2, 3})] * 200,
          [frozenset({0}), frozenset(), frozenset({1}), frozenset({0, 1})]),
         [("item", (1, -1)), ("iter", (0, 513), ("item", (0, 2048)))])
def test_lazy_rankings_read_as_their_tuple_entries(spec, script):
    index = corpus_index(spec)
    n_feats = index.num_features
    for func in TSR_FUNCTIONS:
        per_cat = reference_scores(index, func)
        expected = [reference_entries([per_cat[c][f] for f in range(n_feats)])
                    for c in per_cat]
        for reads in (script, *FIXED_SCRIPTS):
            for c, ranking in enumerate(per_category_rankings(index, func)):
                assert ranking.scope == c
                assert_script_reads(ranking, expected[c], reads)
        for c in per_cat:
            assert_script_reads(rank_features(index, func, scope=c),
                                expected[c], script)
        for policy in (GLOBAL_MAX, GLOBAL_SUM, GLOBAL_WAVG):
            assert_script_reads(
                rank_features(index, func, policy=policy),
                reference_entries(reference_global(index, per_cat, policy)),
                script)

        as_tuples = [FeatureRanking(scope=c, entries=expected[c])
                     for c in per_cat]
        for k in (1, n_feats, n_feats + 1):
            assert select_round_robin(per_category_rankings(index, func),
                                      k) == select_round_robin(as_tuples, k)
            reduced = select_features(index, func, "local", k)
            for ranking in as_tuples:
                valid = reduced.domain.valid_features(ranking.scope)
                assert {reduced.features.name(f) for f in valid} == \
                    {index.features.name(f) for f in ranking.top(k)}


def test_the_example_ties_across_a_and_df():
    """The explicit example above holds the ties the lazy heads must
    order by id: under chi-square, a feature with a = 0 and one with
    a > 0 score alike in c0, and their df differ."""
    index = corpus_index((4, [frozenset({0}), frozenset({1, 2, 3})],
                          [frozenset({0})] + [frozenset()] * 3))
    c0 = CATEGORIES.index("c0")
    scores = reference_scores(index, CHI2)[c0]
    in_c0 = index.category_documents(c0)
    a = [len(set(index.feature_documents(f)) & in_c0) for f in range(2)]
    df = [len(index.feature_documents(f)) for f in range(2)]
    assert scores[0] == scores[1] and sorted(a) == [0, 1] and df[0] != df[1]


SCORE = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.25, math.inf, -math.inf,
                         math.nan])


@st.composite
def score_arrays(draw):
    """Up to 3000 scores drawn from a few values: ties in every head."""
    values = draw(st.lists(SCORE, min_size=1, max_size=6))
    size = draw(st.sampled_from([0, 7, 600, 2100, 3000]))
    rng = draw(st.randoms(use_true_random=False))
    return np.array([rng.choice(values) for _ in range(size)])


@given(score_arrays(), st.lists(READ, max_size=4))
@settings(max_examples=40, deadline=None, derandomize=True)
@example(np.array([0.25] * 700 + [math.nan] * 10 + [1.0] * 600),
         [("iter", (0, 1300), ("item", (1, -1)))])
def test_heads_of_any_scores_read_as_a_stable_argsort(scores, script):
    """Heads past 512 and 2048 pairs over ties, signed zeros, infinities
    and NaN, which sorts last: a global ranking's reads."""
    for reads in (script, *FIXED_SCRIPTS):
        assert_script_reads(_sorted_ranking(None, scores),
                            reference_entries(scores), reads)
