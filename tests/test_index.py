"""Index data model: construction, queries, subsetting, serialization."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jatecs import (ValidationError, build_index, deserialize_index,
                    query_category_documents, query_document_features,
                    serialize_index, subset_index, tfidf_normalized)
from jatecs.index import index_file_map

from conftest import make_corpus, random_corpus


class TestBuildIndex:
    def test_smallest_index(self):
        index = build_index([("d0", [("cat", 2)])], [("d0", ["sports"])],
                            ["sports"])
        assert index.num_documents == 1
        assert index.num_features == 1
        assert index.num_categories == 1
        assert index.document_features(0) == {0: 2}

    def test_unknown_category_label(self):
        with pytest.raises(ValidationError, match="unknown category"):
            build_index([("d0", [("cat", 1)])], [("d0", ["nosuch"])], ["sports"])

    def test_first_seen_feature_order(self):
        # 3 docs, 5 distinct features; ids follow first mention
        index = build_index(
            [("d0", [("e", 1), ("b", 1)]),
             ("d1", [("b", 2), ("a", 1), ("c", 1)]),
             ("d2", [("d", 1), ("a", 1)])],
            [("d0", ["x"]), ("d1", ["y"]), ("d2", [])],
            ["x", "y"])
        assert index.num_features == 5
        assert index.features.names == ("e", "b", "a", "c", "d")
        assert index.features.id("d") == 4

    def test_duplicate_doc_name(self):
        with pytest.raises(ValidationError, match="duplicate docName"):
            build_index([("d0", [("a", 1)]), ("d0", [("b", 1)])],
                        [], ["x"])

    def test_non_positive_count(self):
        with pytest.raises(ValidationError, match="non-positive count"):
            build_index([("d0", [("a", 0)])], [], ["x"])

    def test_repeated_feature_entries_aggregate(self):
        index = build_index([("d0", [("a", 1), ("a", 2)])], [], ["x"])
        assert index.document_features(0) == {0: 3}

    def test_default_weights_are_counts(self, tiny_index):
        assert query_document_features(tiny_index, 0) == [(0, 2, 2.0),
                                                          (1, 1, 1.0)]


class TestQueries:
    def test_empty_document_features(self, tiny_index):
        assert query_document_features(tiny_index, 2) == []

    def test_feature_order_ascending(self):
        index = build_index([("d0", [("a", 1)]), ("d1", [("b", 5), ("x", 2)]),
                             ("d2", [("y", 2), ("b", 1)])],
                            [], ["c"])
        # d2 content mentions fID 3 (y) before fID 1 (b); output sorts by fID
        assert [f for f, _, _ in query_document_features(index, 2)] == [1, 3]

    def test_weights_follow_weighting_pass(self):
        import math
        index = make_corpus([("d0", {"a": 2, "b": 1}, ["c"]),
                             ("d1", {"b": 1}, [])], ["c"])
        weighted = tfidf_normalized(index)
        # hand oracle: idf(a)=ln 2, idf(b)=0; d0 normalizes to (1, 0)
        w = dict((f, wt) for f, _, wt in query_document_features(weighted, 0))
        assert w[0] == pytest.approx(1.0, abs=1e-12)
        assert w[1] == 0.0
        assert math.isclose(sum(x * x for x in w.values()), 1.0)

    def test_category_empty(self, tiny_index):
        index = make_corpus([("d0", {"a": 1}, [])], ["c"])
        assert query_category_documents(index, 0) == set()

    def test_multilabel_doc_in_both_sets(self, tiny_index):
        assert 1 in query_category_documents(tiny_index, 0)
        assert 1 in query_category_documents(tiny_index, 1)

    def test_hand_enumerated_assignment(self):
        specs = [(f"d{i}", {"w": 1}, ["even" if i % 2 == 0 else "odd"])
                 for i in range(10)]
        index = make_corpus(specs, ["even", "odd"])
        assert query_category_documents(index, 0) == {0, 2, 4, 6, 8}
        assert query_category_documents(index, 1) == {1, 3, 5, 7, 9}

    def test_unknown_ids_rejected(self, tiny_index):
        with pytest.raises(ValidationError):
            query_document_features(tiny_index, 99)
        with pytest.raises(ValidationError):
            query_category_documents(tiny_index, 5)

    def test_classification_size_partition(self, tiny_index):
        per_cat = sum(len(query_category_documents(tiny_index, c))
                      for c in range(tiny_index.num_categories))
        assert per_cat == tiny_index.classification_size() == 3


class TestSubset:
    def test_keep_all_docs_identity(self, tiny_index):
        sub = subset_index(tiny_index, keep_docs={0, 1, 2})
        assert index_file_map(sub) == index_file_map(tiny_index)

    def test_keep_one_doc(self, tiny_index):
        sub = subset_index(tiny_index, keep_docs={1})
        assert sub.num_documents == 1
        assert sub.documents.name(0) == "d1"
        assert sub.document_features(0) == dict(tiny_index.document_features(1))
        # feature space untouched so models stay compatible
        assert sub.num_features == tiny_index.num_features

    def test_keep_features_remap(self):
        index = build_index(
            [("d0", [("f0", 1), ("f1", 2), ("f3", 1)]),
             ("d1", [("f2", 1), ("f4", 4), ("f1", 1)])],
            [("d0", ["c"]), ("d1", [])], ["c"])
        # first-seen ids: f0=0 f1=1 f3=2 f2=3 f4=4; keep old ids {1, 3}
        sub = subset_index(index, keep_features={1, 3})
        assert sub.num_features == 2
        assert sub.features.names == ("f1", "f2")
        assert sub.document_features(0) == {0: 2}
        assert sub.document_features(1) == {0: 1, 1: 1}

    def test_empty_keep_set(self, tiny_index):
        with pytest.raises(ValidationError):
            subset_index(tiny_index, keep_docs=set())

    def test_unknown_id(self, tiny_index):
        with pytest.raises(ValidationError):
            subset_index(tiny_index, keep_docs={0, 77})

    def test_exactly_one_keep_set(self, tiny_index):
        with pytest.raises(ValidationError):
            subset_index(tiny_index)
        with pytest.raises(ValidationError):
            subset_index(tiny_index, keep_docs={0}, keep_features={0})

    def test_subset_twice_idempotent(self, tiny_index):
        once = subset_index(tiny_index, keep_docs={0, 2})
        twice = subset_index(once, keep_docs={0, 1})
        assert index_file_map(once) == index_file_map(twice)


class TestInvariants:
    def test_weight_keys_subset_of_content(self):
        index = random_corpus(3)
        content = {(d, f) for d, f, _ in index.content_items()}
        for d, f, _ in index.weight_items():
            assert (d, f) in content

    def test_category_sizes_sum_to_classification_size(self):
        index = random_corpus(4)
        total = sum(len(index.category_documents(c))
                    for c in range(index.num_categories))
        assert total == index.classification_size()

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_two_builds_serialize_identically(self, seed):
        assert index_file_map(random_corpus(seed)) == \
            index_file_map(random_corpus(seed))


class TestSerialization:
    def test_round_trip_equality(self, tiny_index, tmp_path):
        serialize_index(tiny_index, tmp_path / "idx")
        again = deserialize_index(tmp_path / "idx")
        assert index_file_map(again) == index_file_map(tiny_index)

    def test_round_trip_byte_identical(self, tmp_path):
        index = random_corpus(11)
        first = tmp_path / "first"
        second = tmp_path / "second"
        serialize_index(index, first)
        serialize_index(deserialize_index(first), second)
        for name in index_file_map(index):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_weights_round_trip_exactly(self, tmp_path):
        index = tfidf_normalized(random_corpus(5))
        serialize_index(index, tmp_path / "w")
        again = deserialize_index(tmp_path / "w")
        for d in range(index.num_documents):
            assert index.document_weights(d) == again.document_weights(d)

    def test_local_domain_round_trip(self, tiny_index, tmp_path):
        from jatecs.index import DomainDb
        local = tiny_index.with_domain(
            DomainDb(local=True, valid={0: frozenset({0, 2}),
                                        1: frozenset({1})}))
        serialize_index(local, tmp_path / "loc")
        again = deserialize_index(tmp_path / "loc")
        assert again.domain.local
        assert again.domain.valid_features(0) == frozenset({0, 2})
        assert (tmp_path / "loc" / "domain.tsv").exists()

    def test_global_index_has_no_domain_file(self, tiny_index, tmp_path):
        serialize_index(tiny_index, tmp_path / "g")
        assert not (tmp_path / "g" / "domain.tsv").exists()

    def test_missing_file_rejected(self, tiny_index, tmp_path):
        serialize_index(tiny_index, tmp_path / "broken")
        (tmp_path / "broken" / "content.tsv").unlink()
        with pytest.raises(ValidationError, match="missing index file"):
            deserialize_index(tmp_path / "broken")


class TestArrayView:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_view_matches_relations(self, seed):
        index = random_corpus(seed)
        # a weighting relation with gaps, which the view fills with 0.0
        index = index.with_weighting({
            d: {f: w for f, w in index.document_weights(d).items()
                if (d + f) % 3}
            for d in range(index.num_documents)})
        view = index.arrays()
        for d in range(index.num_documents):
            row = slice(view.indptr[d], view.indptr[d + 1])
            counts = index.document_features(d)
            weights = index.document_weights(d)
            assert view.features[row].tolist() == list(counts)
            assert view.counts[row].tolist() == list(counts.values())
            assert view.weights[row].tolist() == \
                [weights.get(f, 0.0) for f in counts]
            assert set(view.rows[row].tolist()) <= {d}
            assert view.labels[d].nonzero()[0].tolist() == \
                list(index.document_categories(d))
        assert view.indptr[-1] == len(view.features) == len(view.rows)
        assert index.arrays() is view
        assert not view.weights.flags.writeable

    def test_document_subset_view(self, tiny_index):
        sub = subset_index(tiny_index, keep_docs={0, 2})
        view = sub.arrays()
        for new, old in enumerate((0, 2)):
            row = slice(view.indptr[new], view.indptr[new + 1])
            assert view.features[row].tolist() == \
                list(tiny_index.document_features(old))
