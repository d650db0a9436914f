"""The local feature domain as sorted (feature, category) id pairs.

A local DomainDb holds two int64 arrays, `features` and `categories`,
sorted by feature and then category.  These tests read that form against a
{cID: frozenset of fIDs} reference kept here: through `valid`,
`valid_features` and the learners' mask, across a serialize/deserialize
round trip, through subset_index and through local selection.  They also
pin the exit code and message of each kind of malformed domain.tsv row,
and the memory local selection takes.
"""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jatecs import ValidationError, build_index, deserialize_index
from jatecs.cli import EXIT_DATA, EXIT_OK, main, select_features
from jatecs.index import (DomainDb, index_file_map, serialize_index,
                          subset_index)
from jatecs.learners import _feature_masks
from jatecs.tsr import apply_selection

from conftest import random_corpus
from test_memory_bounds import _corpus, _in_cf_arrays, _peak_bytes

TOY_DIR = os.path.join(os.path.dirname(__file__), "..", "src", "jatecs",
                       "data", "toy")


def reference_pairs(valid: dict) -> list:
    """The distinct (fID, cID) pairs of a {cID: fIDs} domain, sorted."""
    return sorted({(f, c) for c, fs in valid.items() for f in fs})


def assert_reads_as(domain: DomainDb, valid: dict, n_cats: int) -> None:
    """`domain` reads as the frozenset domain `valid` in every form."""
    expected = {c: frozenset(fs) for c, fs in valid.items() if len(fs)}
    assert domain.local
    assert domain.valid == expected
    for c in range(n_cats + 1):
        assert domain.valid_features(c) == expected.get(c, frozenset())
    pairs = list(zip(domain.features.tolist(), domain.categories.tolist()))
    assert pairs == reference_pairs(valid)
    assert domain.features.dtype == domain.categories.dtype == np.int64


def reference_masks(index, valid: dict) -> np.ndarray:
    masks = np.zeros((index.num_categories, index.num_features), dtype=bool)
    for c, fs in valid.items():
        for f in fs:
            masks[c, f] = True
    return masks


@st.composite
def local_domains(draw):
    """(index, {cID: fIDs}): a random corpus and a domain over it with
    empty categories, categories left out, and sets, arrays and lists
    (which may repeat an id)."""
    index = random_corpus(draw(st.integers(0, 2**32)), max_docs=15)
    n_feats, n_cats = index.num_features, index.num_categories
    valid = {}
    for c in draw(st.permutations(range(n_cats))):
        kind = draw(st.sampled_from(["missing", "empty", "set", "array",
                                     "list"]))
        if kind == "missing":
            continue
        fs = [] if kind == "empty" else draw(
            st.lists(st.integers(0, n_feats - 1), unique=kind != "list"))
        valid[c] = {"array": np.array(fs, dtype=np.intp),
                    "list": fs}.get(kind, set(fs))
    return index, valid


class TestArrayDomainReadsAsFrozensets:

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(local_domains())
    def test_every_read_and_the_round_trip(self, drawn):
        index, valid = drawn
        local = index.with_domain(DomainDb(local=True, valid=valid))
        assert_reads_as(local.domain, valid, index.num_categories)
        assert np.array_equal(_feature_masks(local),
                              reference_masks(index, valid))
        files = index_file_map(local)
        assert files["domain.tsv"] == "".join(
            f"{f}\t{c}\n" for f, c in reference_pairs(valid)).encode()
        with tempfile.TemporaryDirectory() as directory:
            serialize_index(local, directory)
            again = deserialize_index(directory)
        assert index_file_map(again) == files
        assert_reads_as(again.domain, valid, index.num_categories)
        assert np.array_equal(_feature_masks(again), _feature_masks(local))

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(local_domains(), st.data())
    def test_subset_remaps_the_pairs(self, drawn, data):
        index, valid = drawn
        local = index.with_domain(DomainDb(local=True, valid=valid))
        keep = data.draw(st.sets(st.integers(0, index.num_features - 1),
                                 min_size=1))
        new_id = {f: i for i, f in enumerate(sorted(keep))}
        expected = {c: {new_id[f] for f in fs if f in new_id}
                    for c, fs in valid.items()}
        sub = subset_index(local, keep_features=keep)
        assert_reads_as(sub.domain, expected, index.num_categories)

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(local_domains(), st.data())
    def test_local_selection_on_a_local_index_narrows(self, drawn, data):
        index, valid = drawn
        local = index.with_domain(DomainDb(local=True, valid=valid))
        chosen = {c: data.draw(st.sets(st.integers(0, index.num_features - 1),
                                       min_size=1))
                  for c in range(index.num_categories)}
        out = apply_selection(local, local=chosen)
        union = sorted(set().union(*chosen.values()))
        assert out.features.names == tuple(
            index.features.name(f) for f in union)
        new_id = {f: i for i, f in enumerate(union)}
        expected = {c: {new_id[f] for f in fs if f in set(valid.get(c, ()))}
                    for c, fs in chosen.items()}
        assert_reads_as(out.domain, expected, index.num_categories)

    def test_empty_domains(self, tiny_index):
        for valid in ({}, {0: set()}, {0: set(), 1: np.array([], dtype=int)}):
            local = tiny_index.with_domain(DomainDb(local=True, valid=valid))
            assert_reads_as(local.domain, valid, 2)
            assert not _feature_masks(local).any()
            assert index_file_map(local)["domain.tsv"] == b""

    def test_global_domain(self, tiny_index):
        domain = tiny_index.domain
        assert not domain.local
        assert domain.valid is None and domain.valid_features(0) is None
        assert domain.features is None and domain.categories is None
        assert _feature_masks(tiny_index).all()

    def test_the_domain_neither_compares_nor_hashes_its_arrays(self):
        one, two = (DomainDb(local=True, valid={0: {1}}) for _ in range(2))
        assert one != two and one == one
        assert hash(one) != hash(two) or one is two

    def test_the_arrays_are_read_only(self):
        domain = DomainDb(local=True, valid={0: {1, 2}})
        with pytest.raises(ValueError):
            domain.features[0] = 5


class TestSelectionIdChecks:

    def test_an_unknown_category_names_the_callers_feature_id(
            self, tiny_index):
        with pytest.raises(ValidationError, match=r"domain entry \(7, 1\): "
                           "unknown category id"):
            apply_selection(tiny_index, local={7: {1}})

    def test_an_unknown_feature_names_the_callers_ids(self, tiny_index):
        with pytest.raises(ValidationError,
                           match=r"domain entry \(0, 9\): unknown feature id"):
            apply_selection(tiny_index, local={0: {1, 9}})

    def test_a_repeated_id_is_one_pair(self, tiny_index, tmp_path):
        out = apply_selection(tiny_index, local={0: [1, 1], 1: [1]})
        assert index_file_map(out)["domain.tsv"] == b"0\t0\n0\t1\n"
        serialize_index(out, tmp_path)
        assert deserialize_index(tmp_path).domain.valid == {
            0: frozenset({0}), 1: frozenset({0})}

    def test_the_empty_check_comes_first(self, tiny_index):
        with pytest.raises(ValidationError,
                           match="empty local feature selection"):
            apply_selection(tiny_index, local={7: set()})


def _run(*argv):
    assert main([str(arg) for arg in argv]) == EXIT_OK, argv


@pytest.fixture(scope="module")
def toy_local(tmp_path_factory):
    """The stemmed toy index and its IG/local k=5 selection: 15 pairs."""
    root = tmp_path_factory.mktemp("toy")
    _run("index", "--input", os.path.join(TOY_DIR, "corpus.csv"),
         "--categories", os.path.join(TOY_DIR, "categories.txt"),
         "--stoplist", "en", "--stem", "en", "--out", root / "index")
    _run("tsr", "--index", root / "index", "--func", "ig", "--policy",
         "local", "--k", 5, "--out", root / "local")
    return root


def _named_domain(directory) -> dict:
    index = deserialize_index(directory)
    return {index.categories.name(c): {index.features.name(f) for f in fs}
            for c, fs in index.domain.valid.items()}


def test_local_tsr_on_a_local_index_keeps_its_domain(toy_local, tmp_path):
    _run("tsr", "--index", toy_local / "local", "--policy", "local",
         "--k", 8, "--out", tmp_path / "again")
    before, after = _named_domain(toy_local / "local"), _named_domain(
        tmp_path / "again")
    assert after and all(after[c] <= before[c] for c in after), (before,
                                                                 after)
    assert after == before  # k=8 reaches past each category's 5 features


@pytest.mark.parametrize("row, message", [
    ("first", "duplicate domain row"),
    ("F\t0", "unknown feature id"),
    ("0\tC", "unknown category id"),
    ("-1\t0", "unknown feature id"),
    ("0\t0\t0", "expected 2 tab-separated fields, got 3"),
], ids=["duplicate", "feature", "category", "negative", "three-fields"])
def test_malformed_domain_row_exits_2(toy_local, tmp_path, capsys, row,
                                      message):
    source = toy_local / "local"
    copy = tmp_path / "index"
    copy.mkdir()
    for name in os.listdir(source):
        copy.joinpath(name).write_bytes(source.joinpath(name).read_bytes())
    lines = (source / "domain.tsv").read_text().splitlines()
    assert len(lines) == 15
    n_feats = len((source / "features.tsv").read_text().splitlines())
    n_cats = len((source / "categories.tsv").read_text().splitlines())
    row = lines[0] if row == "first" else row.replace(
        "F", str(n_feats)).replace("C", str(n_cats))
    with open(copy / "domain.tsv", "a") as fh:
        fh.write(row + "\n")
    capsys.readouterr()
    assert main(["weight", "--index", str(copy), "--scheme", "tfidf",
                 "--out", str(tmp_path / "weighted")]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert f"domain.tsv:16: {message}" in err, err
    assert not (tmp_path / "weighted").exists()


def test_local_selection_holds_less_than_one_category_by_feature_array():
    docs, labels, categories = _corpus(11, 600, 40, 20_000, 40, skew=2)
    index = build_index(docs, labels, categories)
    peak = _peak_bytes(lambda: select_features(index, "IG", "local", 1000))
    in_arrays = _in_cf_arrays(index, peak)
    assert in_arrays < 1.0, in_arrays
