"""The bulk index encoder against a row-wise encoder: one f-string per row
of each relation, the weights through repr().  The cases are those where
the bulk encoder takes a shortcut or splits its work: weights that are
exactly the counts, and relations longer than one chunk."""

import numpy as np
import pytest

from jatecs import build_index
from jatecs import index as index_module
from jatecs.index import ConceptDb, Index, index_file_map


def row_wise_file_map(index):
    def concepts(db):
        return "".join(f"{i}\t{name}\n" for i, name in db)

    meta = (("format_version", index_module.FORMAT_VERSION),
            ("documents", index.num_documents),
            ("features", index.num_features),
            ("categories", index.num_categories))
    files = {
        "meta.tsv": "".join(f"{key}\t{value}\n" for key, value in meta),
        "categories.tsv": concepts(index.categories),
        "features.tsv": concepts(index.features),
        "documents.tsv": concepts(index.documents),
        "content.tsv": "".join(f"{d}\t{f}\t{n}\n"
                               for d, f, n in index.content_items()),
        "classification.tsv": "".join(f"{d}\t{c}\n" for d, c
                                      in index.classification_items()),
        "weights.tsv": "".join(f"{d}\t{f}\t{w!r}\n"
                               for d, f, w in index.weight_items()),
    }
    return {name: text.encode("utf-8") for name, text in files.items()}


def counts_index(counts_by_doc, categories=("c",)):
    """An index whose weights are its counts, built like any corpus."""
    docs = [(f"d{d}", [(f"f{f}", n) for f, n in row.items()])
            for d, row in enumerate(counts_by_doc)]
    labels = [(f"d{d}", [categories[d % len(categories)]])
              for d in range(len(counts_by_doc))]
    return build_index(docs, labels, list(categories))


def dict_index(content, weights):
    n_feats = 1 + max((f for row in content.values() for f in row), default=0)
    return Index(ConceptDb(["c"], kind="category"),
                 ConceptDb([f"f{f}" for f in range(n_feats)], kind="feature"),
                 ConceptDb([f"d{d}" for d in content], kind="document"),
                 content, {d: [0] for d in content}, weights)


def assert_matches_row_wise(index):
    assert index_file_map(index) == row_wise_file_map(index)


def test_weights_equal_to_the_counts():
    index = counts_index([{0: 1, 1: 3}, {}, {1: 12, 2: 1000}])
    assert_matches_row_wise(index)
    assert index_file_map(index)["weights.tsv"] == (
        b"0\t0\t1.0\n0\t1\t3.0\n2\t1\t12.0\n2\t2\t1000.0\n")


def test_one_weight_that_differs():
    index = counts_index([{0: 1, 1: 3}, {1: 12, 2: 1000}])
    a = index.arrays()
    values = a.weights.copy()
    values[2] = 12.5
    assert_matches_row_wise(index.with_weight_values(values))


def test_a_partly_weighted_index():
    index = counts_index([{0: 1, 1: 3}, {1: 12, 2: 1000}])
    a = index.arrays()
    weighted = np.array([True, False, True, True])
    # the weights held are still the counts: the mask must keep the rest out
    assert_matches_row_wise(index.with_weight_values(a.weights, weighted))
    assert_matches_row_wise(index.with_weight_values(
        np.zeros(len(weighted)), np.zeros(len(weighted), dtype=bool)))


@pytest.mark.parametrize("count", [2**53 - 1, 2**53, 2**53 + 1, 2**62])
def test_counts_at_the_edge_of_float64(count):
    # weights == counts holds for all of these, as float64 compares them;
    # from 2**53 + 1 on repr(float(n)) is not f"{n}.0"
    index = dict_index({0: {0: count, 1: 7}},
                       {0: {0: float(count), 1: 7.0}})
    assert bool((index.arrays().weights == index.arrays().counts).all())
    assert_matches_row_wise(index)


def test_an_empty_index():
    assert_matches_row_wise(build_index([], [], ["c"]))
    assert_matches_row_wise(counts_index([{}, {}]))
    files = index_file_map(build_index([], [], ["c"]))
    assert files["content.tsv"] == files["weights.tsv"] == b""
    assert files["classification.tsv"] == b""


@pytest.mark.parametrize("chunk", [1, 2, 3, 5, 64])
def test_more_than_one_chunk(monkeypatch, chunk):
    monkeypatch.setattr(index_module, "_ENCODE_CHUNK_ROWS", chunk)
    index = counts_index([{f: 1 + (d * f) % 5 for f in range(d % 4, 7)}
                          for d in range(6)], categories=("a", "b"))
    assert_matches_row_wise(index)
    values = index.arrays().weights / 3.0
    weighted = np.arange(len(values)) % 3 != 1
    assert_matches_row_wise(index.with_weight_values(values, weighted))
