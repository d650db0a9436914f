"""The index's one storage: subset_index cuts its source's arrays,
build_index rejects a count the int64 storage would truncate, and a
re-serialized index directory holds exactly the files of the last index
written to it."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jatecs import (ValidationError, build_index, deserialize_index,
                    serialize_index, subset_index)
from jatecs.index import ConceptDb, DomainDb, Index, index_file_map

from conftest import random_corpus


def _relations(index):
    """The content, weighting and classification relations as dicts."""
    docs = range(index.num_documents)
    return ({d: index.document_features(d) for d in docs},
            {d: index.document_weights(d) for d in docs},
            {d: index.document_categories(d) for d in docs})


def reference_subset(index, keep_docs=None, keep_features=None):
    """subset_index by filtering the relations' dicts."""
    content, weights, classification = _relations(index)
    if keep_docs is not None:
        old_ids = sorted(keep_docs)
        doc_db = ConceptDb([index.documents.name(d) for d in old_ids],
                           kind="document")

        def kept_rows(relation):
            return {new: relation[old] for new, old in enumerate(old_ids)
                    if old in relation}
        return Index(index.categories, index.features, doc_db,
                     kept_rows(content), kept_rows(classification),
                     kept_rows(weights), index.domain)

    old_ids = sorted(keep_features)
    feat_db = ConceptDb([index.features.name(f) for f in old_ids],
                        kind="feature")
    remap = {old: new for new, old in enumerate(old_ids)}

    def kept_columns(relation):
        rows = {}
        for d, row in relation.items():
            kept = {remap[f]: v for f, v in row.items() if f in remap}
            if kept:
                rows[d] = kept
        return rows
    domain = index.domain
    if domain.local:
        domain = DomainDb(local=True, valid={
            c: frozenset(remap[f] for f in fs if f in remap)
            for c, fs in domain.valid.items()})
    return Index(index.categories, feat_db, index.documents,
                 kept_columns(content), classification,
                 kept_columns(weights), domain)


def _nonempty_subset(data, n):
    keep = {i for i in range(n) if data.draw(st.booleans())}
    return keep or {data.draw(st.integers(0, n - 1))}


@st.composite
def gapped_indexes(draw):
    """random_corpus with a weighting relation that misses some content
    entries, and sometimes a local domain."""
    index = random_corpus(draw(st.integers(0, 10_000)), max_docs=30)
    index = index.with_weighting({
        d: {f: w for f, w in index.document_weights(d).items()
            if draw(st.booleans())}
        for d in range(index.num_documents)})
    if draw(st.booleans()):
        index = index.with_domain(DomainDb(local=True, valid={
            c: frozenset(f for f in range(index.num_features)
                         if draw(st.booleans()))
            for c in range(index.num_categories)}))
    return index


def assert_same_index(got, want):
    assert index_file_map(got) == index_file_map(want)
    got_arrays, want_arrays = got.arrays(), want.arrays()
    for name, array in vars(want_arrays).items():
        other = getattr(got_arrays, name)
        assert other.dtype == array.dtype, name
        assert np.array_equal(other, array), name
        assert not other.flags.writeable, name
    for d in range(want.num_documents):
        assert got.document_weights(d) == want.document_weights(d)


class TestSubsetMatchesReference:
    @given(gapped_indexes(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_keep_docs(self, index, data):
        keep = _nonempty_subset(data, index.num_documents)
        assert_same_index(subset_index(index, keep_docs=keep),
                          reference_subset(index, keep_docs=keep))

    @given(gapped_indexes(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_keep_features(self, index, data):
        if index.num_features == 0:
            return
        keep = _nonempty_subset(data, index.num_features)
        assert_same_index(subset_index(index, keep_features=keep),
                          reference_subset(index, keep_features=keep))


class TestStoredArrays:
    def test_arrays_are_the_storage(self, tiny_index):
        view = tiny_index.arrays()
        assert tiny_index.arrays() is view
        assert tiny_index.with_domain(DomainDb(local=False)).arrays() is view

    def test_reweighting_shares_content(self, tiny_index):
        reweighted = tiny_index.with_weighting({0: {1: 0.5}})
        assert reweighted.arrays().counts is tiny_index.arrays().counts
        assert reweighted.document_weights(0) == {1: 0.5}
        assert reweighted.document_weights(1) == {}
        assert list(reweighted.weight_items()) == [(0, 1, 0.5)]


class TestBuildChecks:
    def test_fractional_count_rejected(self):
        # int64 counts would truncate it
        with pytest.raises(ValidationError, match="fractional count"):
            build_index([("d0", [("a", 1.5)])], [], ["c"])

    def test_integral_float_count_accepted(self):
        index = build_index([("d0", [("a", 2.0)])], [], ["c"])
        assert index.document_features(0) == {0: 2}


class TestReserialize:
    def test_global_index_replaces_local_one(self, tiny_index, tmp_path):
        local = tiny_index.with_domain(
            DomainDb(local=True, valid={0: frozenset({0, 3}),
                                        1: frozenset({2})}))
        serialize_index(local, tmp_path / "idx")
        assert deserialize_index(tmp_path / "idx").domain.local
        serialize_index(tiny_index, tmp_path / "idx")
        again = deserialize_index(tmp_path / "idx")
        assert not again.domain.local
        assert not (tmp_path / "idx" / "domain.tsv").exists()
        assert index_file_map(again) == index_file_map(tiny_index)

    def test_smaller_global_index_after_local_one(self, tmp_path):
        index = random_corpus(5)
        local = index.with_domain(DomainDb(local=True, valid={
            0: frozenset(range(index.num_features))}))
        serialize_index(local, tmp_path / "idx")
        smaller = subset_index(index, keep_features={0, 1})
        serialize_index(smaller, tmp_path / "idx")
        again = deserialize_index(tmp_path / "idx")
        assert not again.domain.local
        assert index_file_map(again) == index_file_map(smaller)
