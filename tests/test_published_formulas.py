"""Published formulas worked by hand as independent oracles: BM25 term
weights, the Rocchio class centroid and one real-valued boosting round.
Each case states its source, and its expected numbers are computed from
that source's formula on a corpus small enough to work on paper.

IIR is Manning, Raghavan & Schütze, *Introduction to Information
Retrieval*, Cambridge University Press, 2008.
"""

import math

import pytest

from jatecs.learners import AdaBoostMHLearner, RocchioLearner, train
from jatecs.weighting import bm25

from conftest import make_corpus


def _weights(index) -> dict:
    """{(document name, feature text): weight} of every weighted entry."""
    return {(index.documents.name(d), index.features.name(f)): w
            for d in range(index.num_documents)
            for f, w in index.document_weights(d).items()}


def test_robertson_zaragoza_2009_bm25_weights():
    """Robertson & Zaragoza, "The Probabilistic Relevance Framework: BM25
    and Beyond", Foundations and Trends in IR 3(4), 2009: the BM25 weight
    tf / (k1 ((1 - b) + b dl / avdl) + tf) times the Robertson/Sparck Jones
    weight without relevance information, log((N - n + 0.5) / (n + 0.5)).

    jatecs floors that idf at zero (the bm25 docstring and the README), so
    "a" (in 3 of 3 documents, log(1/7)) and "b" (2 of 3, log(3/5)) weigh
    0.  "c" and "d" are in one document each: idf log(2.5 / 1.5) =
    0.5108256.  The lengths are 3, 4 and 5, so avdl = 4; with k1 = 1.2 and
    b = 0.75, "c" (tf 3, dl 4) weighs 0.5108256 * 3 / (3 + 1.2) = 0.3648754
    and "d" (tf 3, dl 5) 0.5108256 * 3 / (3 + 1.2 * 1.1875) = 0.3463225."""
    index = make_corpus([
        ("d0", {"a": 2, "b": 1}, []),
        ("d1", {"a": 1, "c": 3}, []),
        ("d2", {"a": 1, "b": 1, "d": 3}, []),
    ], ["c0"])
    weights = _weights(bm25(index, k1=1.2, b=0.75))
    idf = math.log(2.5 / 1.5)
    assert round(idf, 7) == 0.5108256
    assert round(idf * 3 / (3 + 1.2), 7) == 0.3648754
    assert round(idf * 3 / (3 + 1.2 * (0.25 + 0.75 * 5 / 4)), 7) == 0.3463225
    assert weights == pytest.approx({
        ("d0", "a"): 0.0, ("d0", "b"): 0.0,
        ("d1", "a"): 0.0, ("d1", "c"): 0.3648754,
        ("d2", "a"): 0.0, ("d2", "b"): 0.0, ("d2", "d"): 0.3463225,
    }, abs=5e-8)
    assert weights[("d1", "c")] == pytest.approx(
        idf * 3 / (3 + 1.2 * (0.25 + 0.75 * 4 / 4)), abs=1e-15)
    assert weights[("d2", "d")] == pytest.approx(
        idf * 3 / (3 + 1.2 * (0.25 + 0.75 * 5 / 4)), abs=1e-15)


def test_iir_14_2_rocchio_profile_is_the_class_centroid():
    """IIR §14.2, Eq. 14.1: the centroid of class c is
    mu(c) = 1/|D_c| * sum of v(d) over the documents d of c.  With
    beta = 1 and gamma = 0 a Rocchio profile is that centroid of the
    weight vectors (here an unweighted index's counts): the two documents
    of "x", (1, 2, 0) and (3, 0, 1) over (u, v, w), average to (2, 1, 0.5),
    and "y"'s one document (0, 0, 4) is its own centroid.  Only the
    profiles are compared: jatecs scores by cosine and assigns on any
    positive similarity (the README), which is not IIR's nearest-centroid
    rule."""
    index = make_corpus([
        ("d0", {"u": 1, "v": 2}, ["x"]),
        ("d1", {"u": 3, "w": 1}, ["x"]),
        ("d2", {"w": 4}, ["y"]),
    ], ["x", "y"])
    classifier = train(RocchioLearner(beta=1.0, gamma=0.0), index)
    profiles = [{index.features.name(f): w for f, w in profile.items()}
                for profile in classifier.profiles]
    assert profiles == [{"u": 2.0, "v": 1.0, "w": 0.5}, {"w": 4.0}]
    assert classifier.norms == pytest.approx(
        [math.sqrt(2 ** 2 + 1 ** 2 + 0.5 ** 2), 4.0], abs=1e-15)


def test_schapire_singer_2000_real_stump_round():
    """Schapire & Singer, "BoosTexter: A boosting-based system for text
    categorization", Machine Learning 39(2/3), 2000: the real-valued weak
    hypothesis of AdaBoost.MH that tests one term's presence.  On the
    documents holding the term (block 1) and the others (block 0), the
    smoothed predictions are c_j = 1/2 ln((W+_j + eps) / (W-_j + eps)),
    and the round's normalizer is Z = sum over the blocks of
    W+_j exp(-c_j) + W-_j exp(c_j); the stump with the least Z is chosen.
    jatecs smooths with eps = 1/D.

    By hand, four documents of weight 1/4 (eps = 1/4), d0 and d1 in "p":
    - "a" (d0, d1): W+_1 = 1/2, W-_0 = 1/2, the rest 0, so
      c1 = 1/2 ln 3, c0 = -1/2 ln 3 and Z = 1/sqrt(3) = 0.5773503;
    - "b" (d1, d2): every W is 1/4, so c0 = c1 = 0 and Z = 1;
    - "c" (d3): W-_1 = 1/4, W+_0 = 1/2, W-_0 = 1/4, so
      Z = 1/4 sqrt(1/2) + 1/2 sqrt(2/3) + 1/4 sqrt(3/2) = 0.8912112.
    The round picks "a"; its stump scores d0 and d1 with c1 and d2 and d3
    with c0."""
    index = make_corpus([
        ("d0", {"a": 1}, ["p"]),
        ("d1", {"a": 1, "b": 1}, ["p"]),
        ("d2", {"b": 1}, []),
        ("d3", {"c": 1}, []),
    ], ["p"])
    z_c = (0.25 * math.sqrt(0.5) + 0.5 * math.sqrt(2 / 3)
           + 0.25 * math.sqrt(1.5))
    assert round(z_c, 7) == 0.8912112 > round(1 / math.sqrt(3), 7) == 0.5773503
    classifier = train(AdaBoostMHLearner(iterations=1), index)
    assert classifier.epsilon == 0.25
    [(f, c0, c1)] = classifier.rounds[0]
    assert index.features.name(f) == "a"
    assert c1 == pytest.approx(0.5 * math.log(3), abs=1e-15)
    assert c0 == pytest.approx(-0.5 * math.log(3), abs=1e-15)
    assert classifier.z_values[0] == [pytest.approx(1 / math.sqrt(3),
                                                    abs=1e-15)]
    assert classifier.score_index(index)[:, 0].tolist() == \
        pytest.approx([c1, c1, c0, c0], abs=0)
