"""Learner oracles: hand-computed posteriors, profiles, votes and stumps."""

import math

import pytest

from jatecs import (AdaBoostMHLearner, KnnLearner, NaiveBayesLearner,
                    RocchioLearner, ValidationError, classify_category,
                    classify_document, make_learner, one_vs_all_predict,
                    train)
from jatecs.index import DomainDb, subset_index
from jatecs.learners import MIN_SCORE, TrainedClassifier
from jatecs.rng import SplitMix64
from jatecs.weighting import tfidf_normalized

from conftest import (aligned_test_index, make_corpus, random_corpus,
                      separable_corpus, separable_docs)


class TestNaiveBayes:
    def test_two_doc_posterior_hand_computed(self):
        index = make_corpus([("d0", {"a": 1}, ["c0"]),
                             ("d1", {"b": 1}, ["c1"])], ["c0", "c1"])
        classifier = train(NaiveBayesLearner(), index)
        test = aligned_test_index(index, [("t0", {"a": 1}, [])])
        result = classify_document(classifier, test, 0)
        # equal priors cancel; theta(a|c0)=2/3 vs theta(a|not c0)=1/3
        assert result.scores[0] == pytest.approx(math.log(2), abs=1e-12)
        assert result.scores[1] == pytest.approx(-math.log(2), abs=1e-12)
        assert result.decisions == {0: True, 1: False}

    def test_empty_document_follows_priors(self):
        index = make_corpus(
            [(f"p{i}", {"a": 1}, ["big"]) for i in range(3)]
            + [("n0", {"b": 1}, [])], ["big"])
        classifier = train(NaiveBayesLearner(), index)
        test = aligned_test_index(index, [("t0", {}, [])])
        result = classify_document(classifier, test, 0)
        assert result.scores[0] == pytest.approx(math.log(3), abs=1e-12)
        assert result.decisions[0] is True

    def test_duplicated_training_set_keeps_decisions(self):
        index = separable_corpus(n_per_cat=20)
        doubled = _duplicate_corpus(index)
        a = train(NaiveBayesLearner(), index)
        b = train(NaiveBayesLearner(), doubled)
        test = aligned_test_index(
            index, separable_docs(n_per_cat=10, seed=99, name_suffix="t"))
        for d in range(test.num_documents):
            assert classify_document(a, test, d).decisions == \
                classify_document(b, test, d).decisions

    def test_zero_positive_category_flagged(self):
        index = make_corpus([("d0", {"a": 1}, ["used"])], ["used", "unused"])
        classifier = train(NaiveBayesLearner(), index)
        assert any("unused" in w for w in classifier.warnings)
        result = classify_document(classifier, index, 0)
        assert result.scores[1] == MIN_SCORE
        assert result.decisions[1] is False


class TestRocchio:
    def test_self_similarity_is_one(self):
        index = make_corpus([("d0", {"x": 2, "y": 1}, ["c"]),
                             ("d1", {"z": 1}, [])], ["c"])
        classifier = train(RocchioLearner(gamma=0.0), index)
        result = classify_document(classifier, index, 0)
        assert result.scores[0] == pytest.approx(1.0, abs=1e-12)
        assert result.decisions[0] is True

    def test_zero_similarity_not_decided(self):
        # threshold 0 means "any positive similarity": cosine 0 stays out
        index = make_corpus([("d0", {"x": 1}, ["c"]),
                             ("d1", {"y": 1}, [])], ["c"])
        classifier = train(RocchioLearner(), index)
        result = classify_document(classifier, index, 1)
        assert result.scores[0] == 0.0
        assert result.decisions[0] is False

    def test_negative_profile_components_clipped(self):
        index = make_corpus([("d0", {"x": 1, "shared": 1}, ["c"]),
                             ("d1", {"neg": 5, "shared": 5}, [])], ["c"])
        classifier = train(RocchioLearner(beta=1.0, gamma=4.0), index)
        profile = classifier.profiles[0]
        assert all(v > 0 for v in profile.values())
        assert classifier.norms[0] > 0
        # the purely negative feature cannot appear at all
        assert index.features.id("neg") not in profile

    def test_scores_within_unit_interval(self):
        index = separable_corpus(n_per_cat=10)
        classifier = train(RocchioLearner(), index)
        for d in range(index.num_documents):
            for s in classify_document(classifier, index, d).scores.values():
                assert 0.0 <= s <= 1.0


class TestKnn:
    def test_k1_copies_duplicate_labels(self):
        index = make_corpus([("d0", {"a": 3}, ["c0"]),
                             ("d1", {"b": 2}, ["c1"])], ["c0", "c1"])
        classifier = train(KnnLearner(k=1), index)
        test = aligned_test_index(index, [("t0", {"b": 7}, [])])
        result = classify_document(classifier, test, 0)
        assert result.decisions == {0: False, 1: True}
        assert result.scores[1] == pytest.approx(1.0)

    def test_vote_is_similarity_weighted(self):
        # neighbors: d0 (sim 1, in c) and d1 (sim 0.6, not in c), k=2
        index = make_corpus([("d0", {"a": 1}, ["c"]),
                             ("d1", {"a": 3, "b": 4}, [])], ["c"])
        classifier = train(KnnLearner(k=2), index)
        test = aligned_test_index(index, [("t0", {"a": 1}, [])])
        result = classify_document(classifier, test, 0)
        assert result.scores[0] == pytest.approx(1.0 / 1.6, abs=1e-12)

    def test_zero_denominator_scores_zero(self):
        index = make_corpus([("d0", {"a": 1}, ["c"])], ["c"])
        classifier = train(KnnLearner(k=1), index)
        test = aligned_test_index(index, [("t0", {"unseen": 1}, [])])
        result = classify_document(classifier, test, 0)
        assert result.scores[0] == 0.0

    def test_k_clamped_to_training_size(self):
        index = make_corpus([("d0", {"a": 1}, ["c"]),
                             ("d1", {"b": 1}, [])], ["c"])
        classifier = train(KnnLearner(k=30), index)
        result = classify_document(classifier, index, 0)
        assert 0.0 <= result.scores[0] <= 1.0


class TestAdaBoost:
    def test_one_round_hand_run(self):
        # 4 positives all holding the marker, 4 negatives without it
        specs = [(f"p{i}", {"m0": 1, f"u{i}": 1}, ["pos"]) for i in range(4)]
        specs += [(f"n{i}", {f"v{i}": 1}, []) for i in range(4)]
        index = make_corpus(specs, ["pos"])
        classifier = train(AdaBoostMHLearner(iterations=1), index)
        f, c0, c1 = classifier.rounds[0][0]
        assert f == index.features.id("m0")
        # hand arithmetic with eps = 1/8: c1 = ln(5)/2, Z = 1/sqrt(5)
        assert c1 == pytest.approx(0.5 * math.log(5.0), abs=1e-12)
        assert c0 == pytest.approx(-0.5 * math.log(5.0), abs=1e-12)
        assert classifier.z_values[0][0] == pytest.approx(5 ** -0.5, abs=1e-12)
        for d in range(index.num_documents):
            decided = classify_document(classifier, index, d).decisions[0]
            assert decided == (d < 4)

    def test_z_product_non_increasing_on_noisy_data(self):
        index = _noisy_corpus()
        classifier = train(AdaBoostMHLearner(iterations=50), index)
        for z_values in classifier.z_values:
            assert len(z_values) == 50
            product = 1.0
            products = []
            for z in z_values:
                product *= z
                products.append(product)
            for prev, cur in zip(products, products[1:]):
                assert cur <= prev + 1e-15

    def test_separable_data_perfect_after_training(self):
        index = separable_corpus(n_per_cat=25)
        classifier = train(AdaBoostMHLearner(iterations=30), index)
        for d in range(index.num_documents):
            gold = set(index.document_categories(d))
            decided = {c for c, v in
                       classify_document(classifier, index, d).decisions.items()
                       if v}
            assert decided == gold


class TestSharedContract:
    @pytest.mark.parametrize("learner", [
        NaiveBayesLearner(), RocchioLearner(), KnnLearner(k=3),
        AdaBoostMHLearner(iterations=10)])
    def test_document_and_category_paths_agree(self, learner):
        index = separable_corpus(n_per_cat=10)
        classifier = train(learner, index)
        by_cat = {c: classify_category(classifier, index, c)
                  for c in range(index.num_categories)}
        for d in range(index.num_documents):
            by_doc = classify_document(classifier, index, d)
            for c in range(index.num_categories):
                assert by_cat[c][d].scores[c] == by_doc.scores[c]
                assert by_cat[c][d].decisions[c] == by_doc.decisions[c]

    def test_classify_category_empty_corpus(self):
        index = make_corpus([("d0", {"a": 1}, ["c"])], ["c"])
        classifier = train(NaiveBayesLearner(), index)
        empty = make_corpus([], ["c"])
        assert classify_category(classifier, empty, 0) == []

    def test_scores_deterministic_for_duplicate_documents(self):
        index = separable_corpus(n_per_cat=5)
        classifier = train(NaiveBayesLearner(), index)
        test = aligned_test_index(index, [("t0", {"a0": 1}, []),
                                          ("t1", {"a0": 1}, [])])
        assert classify_document(classifier, test, 0).scores == \
            classify_document(classifier, test, 1).scores

    def test_score_count_equals_category_count(self, tiny_index):
        classifier = train(NaiveBayesLearner(), tiny_index)
        result = classify_document(classifier, tiny_index, 0)
        assert len(result.scores) == tiny_index.num_categories

    def test_unknown_features_ignored(self):
        index = make_corpus([("d0", {"a": 2}, ["c"]), ("d1", {"b": 1}, [])],
                            ["c"])
        classifier = train(NaiveBayesLearner(), index)
        plain = aligned_test_index(index, [("t0", {"a": 1}, [])])
        extra = aligned_test_index(
            index, [("t0", {"a": 1, "novel1": 4, "novel2": 9}, [])])
        assert classify_document(classifier, extra, 0).scores == \
            classify_document(classifier, plain, 0).scores

    def test_train_preconditions(self):
        empty_docs = make_corpus([], ["c"])
        with pytest.raises(ValidationError):
            train(NaiveBayesLearner(), empty_docs)


class _StubClassifier(TrainedClassifier):
    kind = "stub"

    def __init__(self, score_map):
        labels = [f"c{i}" for i in range(len(score_map[0]))]
        super().__init__(labels, [0.0] * len(labels), num_features=0)
        self.score_map = score_map

    def score_document_category(self, index, d_id, c_id):
        return self.score_map[d_id][c_id]


class TestOneVsAll:
    def test_argmax(self, tiny_index):
        classifier = _StubClassifier({0: [0.2, 0.9]})
        assert one_vs_all_predict(classifier, tiny_index, 0) == 1

    def test_tie_goes_to_lower_id(self, tiny_index):
        classifier = _StubClassifier({0: [0.7, 0.7]})
        assert one_vs_all_predict(classifier, tiny_index, 0) == 0

    def test_affine_transform_keeps_argmax(self, tiny_index):
        scores = [0.1, 0.85, 0.3]
        transformed = [2.5 * s + 1.0 for s in scores]
        a = _StubClassifier({0: scores})
        b = _StubClassifier({0: transformed})
        assert one_vs_all_predict(a, tiny_index, 0) == \
            one_vs_all_predict(b, tiny_index, 0)

    def test_separable_single_label_accuracy(self):
        index = separable_corpus(n_per_cat=30)
        holdout = aligned_test_index(
            index, separable_docs(n_per_cat=10, seed=77, name_suffix="t"))
        for learner in (NaiveBayesLearner(), RocchioLearner(), KnnLearner(),
                        AdaBoostMHLearner(iterations=20)):
            classifier = train(learner, index)
            correct = 0
            for d in range(holdout.num_documents):
                predicted = one_vs_all_predict(classifier, holdout, d)
                if predicted == holdout.document_categories(d)[0]:
                    correct += 1
            assert correct == holdout.num_documents, learner


class TestLocalDomain:
    def test_invalid_features_contribute_zero(self):
        from jatecs.index import DomainDb
        base = make_corpus([("d0", {"a": 1, "b": 1}, ["c0"]),
                            ("d1", {"b": 1}, [])], ["c0"])
        a = base.features.id("a")
        local = base.with_domain(DomainDb(local=True,
                                          valid={0: frozenset({a})}))
        classifier = train(RocchioLearner(gamma=0.0), local)
        assert set(classifier.profiles[0]) == {a}
        # a document holding only invalid features looks empty to c0
        test_b = make_corpus([("t0", {"a": 0 + 1}, []), ("t1", {"b": 1}, [])],
                             ["c0"]).with_domain(local.domain)
        assert classify_document(classifier, test_b, 1).scores[0] == 0.0
        assert classify_document(classifier, test_b, 0).scores[0] == \
            pytest.approx(1.0)

    def test_boost_rejects_category_without_valid_features(self):
        base = make_corpus([("d0", {"a": 1}, ["c0"]),
                            ("d1", {"b": 1}, [])], ["c0"])
        local = base.with_domain(DomainDb(local=True, valid={}))
        with pytest.raises(ValidationError):
            train(AdaBoostMHLearner(iterations=1), local)


class TestLocalDomainMatchesSubset:
    """A local-domain classifier scores category c exactly as the same
    learner trained on the index cut down to c's valid features."""

    @pytest.mark.parametrize("learner", [
        NaiveBayesLearner(), RocchioLearner(), KnnLearner(k=5),
        AdaBoostMHLearner(iterations=8)], ids=lambda ln: ln.kind)
    @pytest.mark.parametrize("seed", [3, 12, 21])
    def test_each_category_matches_its_subset(self, learner, seed):
        index = tfidf_normalized(random_corpus(seed, max_docs=60))
        rng = SplitMix64(seed)
        valid = {}
        for c in range(index.num_categories):
            kept = {f for f in range(index.num_features)
                    if rng.next_below(3) != 0}
            valid[c] = frozenset(kept or {0})
        local = index.with_domain(DomainDb(local=True, valid=valid))
        classifier = train(learner, local)
        for c in range(index.num_categories):
            sub = subset_index(local, keep_features=valid[c])
            sub_classifier = train(learner, sub)
            for d in range(index.num_documents):
                assert classifier.score_document(local, d)[c] == \
                    sub_classifier.score_document(sub, d)[c], (c, d)


class TestFactory:
    def test_known_kinds(self):
        assert make_learner("nb") == NaiveBayesLearner()
        assert make_learner("knn", k="5") == KnnLearner(k=5)
        assert make_learner("rocchio", beta="8", gamma="2") == \
            RocchioLearner(beta=8.0, gamma=2.0)
        assert make_learner("boost", iterations="25") == \
            AdaBoostMHLearner(iterations=25)

    def test_unknown_kind(self):
        with pytest.raises(ValidationError):
            make_learner("svm")

    def test_unknown_parameter(self):
        with pytest.raises(ValidationError):
            make_learner("knn", neighbors=3)

    def test_invalid_value(self):
        with pytest.raises(ValidationError):
            make_learner("knn", k="0")


def _duplicate_corpus(index):
    specs = []
    for d in range(index.num_documents):
        feats = {index.features.name(f): n
                 for f, n in index.document_features(d).items()}
        labels = [index.categories.name(c)
                  for c in index.document_categories(d)]
        specs.append((index.documents.name(d), feats, labels))
    doubled = [(f"{name}+", feats, labels) for name, feats, labels in specs]
    return make_corpus(specs + doubled, list(index.categories.names))


def _noisy_corpus(n_per_cat=30, flip_every=10):
    base = separable_corpus(n_per_cat=n_per_cat)
    specs = []
    for d in range(base.num_documents):
        feats = {base.features.name(f): n
                 for f, n in base.document_features(d).items()}
        labels = [base.categories.name(c)
                  for c in base.document_categories(d)]
        if d % flip_every == flip_every - 1:  # plant label noise
            labels = [{"alpha": "beta", "beta": "alpha"}[labels[0]]]
        specs.append((base.documents.name(d), feats, labels))
    return make_corpus(specs, list(base.categories.names))


class TestEmptyVocabulary:
    """An index without features (every text was stop words) trains, and
    each document scores its category's prior."""

    def test_naive_bayes_scores_the_prior(self):
        index = make_corpus([("d0", {}, ["c0"]), ("d1", {}, []),
                             ("d2", {}, [])], ["c0"])
        classifier = train(NaiveBayesLearner(), index)
        assert classify_document(classifier, index, 0).scores[0] == \
            pytest.approx(math.log(1 / 3) - math.log(2 / 3))
