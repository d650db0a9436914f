"""The raw-weights read of deserialize_index against the full parse.

A weights.tsv that is content.tsv with ".0" before every newline, as
serialize_index writes for an index weighted by its counts, is taken from
the parsed counts; any other pair of files is parsed and placed.  Each
(content.tsv, weights.tsv) pair below, written by serialize_index and then
mutated, must load to the arrays, weight mask and file bytes of today's
reader, which parses weights.tsv whatever it holds and places its rows with
_placed, or fail with the same error.
"""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jatecs import (ParseError, ValidationError, build_index,
                    deserialize_index, serialize_index)
from jatecs.index import (_CONTENT_ROW, _PAIR_ROW, _WEIGHT_ROW,
                          GLOBAL_DOMAIN, DomainDb, Index, _read_concepts,
                          _read_meta, _stored, _TsvFile, index_file_map)
from jatecs.weighting import tfidf_normalized

from conftest import random_corpus


def reference_load(directory) -> Index:
    """Today's reader: every weights.tsv parsed, its rows placed on the
    content entries by _placed, in the same order of parses and checks."""
    meta = _read_meta(directory)
    categories = _read_concepts(directory, "categories.tsv", "category",
                                meta["categories"])
    features = _read_concepts(directory, "features.tsv", "feature",
                              meta["features"])
    documents = _read_concepts(directory, "documents.tsv", "document",
                               meta["documents"])
    arrays, weighted = _stored(
        len(documents), len(features), len(categories),
        _TsvFile(directory, "content.tsv", _CONTENT_ROW),
        _TsvFile(directory, "weights.tsv", _WEIGHT_ROW),
        _TsvFile(directory, "classification.tsv", _PAIR_ROW))
    domain = GLOBAL_DOMAIN  # domain.tsv is never mutated: read, not checked
    if os.path.exists(os.path.join(directory, "domain.tsv")):
        rows = _TsvFile(directory, "domain.tsv", _PAIR_ROW).rows
        domain = DomainDb(local=True, valid={
            c: frozenset(rows["a"][rows["b"] == c].tolist())
            for c in set(rows["b"].tolist())})
    return Index._from_arrays(categories, features, documents, arrays,
                              weighted, domain)


def _outcome(load, directory):
    """(arrays as bytes, weight mask, file map), or (error type, message)."""
    try:
        index = load(directory)
    except (ParseError, ValidationError) as exc:
        return type(exc), str(exc)
    a = index.arrays()
    arrays = {name: (getattr(a, name).dtype.str, getattr(a, name).shape,
                     getattr(a, name).tobytes())
              for name in ("indptr", "rows", "features", "counts", "weights",
                           "labels")}
    return arrays, index._weighted.tolist(), index_file_map(index)


# -- the indexes --------------------------------------------------------------


def _raw(seed):
    return random_corpus(seed, max_docs=12)


def _tfidf(seed):
    return tfidf_normalized(_raw(seed))


def _partly_weighted(seed):
    index = _raw(seed)
    counts = index.arrays().counts
    return index.with_weight_values(counts * 0.5 + 1,
                                    weighted=np.arange(len(counts)) % 3 != 0)


def _local(seed):
    index = _raw(seed)
    return index.with_domain(DomainDb(local=True, valid={
        c: frozenset(range(c % 2, index.num_features, 2))
        for c in range(index.num_categories)}))


def _empty(seed):
    return build_index([], [], ["only"])


INDEXES = {"raw": _raw, "tfidf": _tfidf, "partly weighted": _partly_weighted,
           "local": _local, "empty": _empty}


# -- the mutations of (content.tsv, weights.tsv) ------------------------------


def _lines(data: bytes) -> list:
    return data.split(b"\n")[:-1] if data.endswith(b"\n") else \
        data.split(b"\n")


def _raw_pair(content: bytes):
    """content.tsv and the raw weights.tsv that matches it byte for byte."""
    return content, content.replace(b"\n", b".0\n")


def _at_line(data: bytes, pick: int, edit) -> bytes:
    """`data` with line `pick` (modulo the line count) replaced by
    edit(line); `data` as it is when it has no line."""
    if not data:
        return data
    lines = _lines(data)
    i = pick % len(lines)
    lines[i] = edit(lines[i])
    return b"\n".join(lines) + b"\n"


def _as_is(content, weights, pick):
    return content, weights


def _one_weight_edited(content, weights, pick):
    return content, _at_line(
        weights, pick,
        lambda line: line.replace(b".0", b".5") if line.endswith(b".0")
        else line[:line.rindex(b"\t") + 1] + b"0.25")


def _matching(edit):
    def mutate(content, weights, pick):
        return _raw_pair(_at_line(content, pick, edit))
    return mutate


def _blank_line(content, weights, pick):
    lines = _lines(content)
    lines.insert(pick % (len(lines) + 1), b"")
    return _raw_pair(b"".join(line + b"\n" for line in lines))


def _no_final_newline(content, weights, pick):
    if pick % 2:  # weights.tsv ends in "n.0" without its newline
        return content[:-1], weights[:-1]
    return _raw_pair(content[:-1])  # weights.tsv ends in "n"


def _unsorted(content, weights, pick):
    lines = _lines(content)
    return _raw_pair(b"".join(line + b"\n" for line in lines[::-1]))


def _leading_zeros(content, weights, pick):
    return _raw_pair(_at_line(
        content, pick,
        lambda line: b"\t".join(b"000" + cell for cell in line.split(b"\t"))))


def _huge_count(content, weights, pick):
    count = str(2**53 + 1 + pick * 2**40).encode()
    return _raw_pair(_at_line(
        content, pick,
        lambda line: line[:line.rindex(b"\t") + 1] + count))


def _one_row_short(content, weights, pick):
    return content, b"".join(line + b"\n" for line in _lines(weights)[:-1])


MUTATIONS = {
    "as is": _as_is,
    "one weight edited": _one_weight_edited,
    "trailing space": _matching(lambda line: line + b" "),
    "crlf": _matching(lambda line: line + b"\r"),
    "vertical tab": _matching(lambda line: line + b"\x0b"),
    "blank line": _blank_line,
    "no final newline": _no_final_newline,
    "unsorted": _unsorted,
    "leading zeros": _leading_zeros,
    "count above 2**53": _huge_count,
    "one row short": _one_row_short,
}


def _written(index, directory, mutation, pick) -> None:
    serialize_index(index, directory)
    files = [os.path.join(directory, name)
             for name in ("content.tsv", "weights.tsv")]
    pair = []
    for path in files:
        with open(path, "rb") as fh:
            pair.append(fh.read())
    for path, data in zip(files, MUTATIONS[mutation](*pair, pick)):
        with open(path, "wb") as fh:
            fh.write(data)


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
@given(st.sampled_from(sorted(INDEXES)),
       st.integers(min_value=0, max_value=2**16),
       st.integers(min_value=0, max_value=63))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_the_raw_read_loads_what_the_parse_loads(mutation, kind, seed, pick):
    index = INDEXES[kind](seed)
    with tempfile.TemporaryDirectory() as directory:
        _written(index, directory, mutation, pick)
        assert _outcome(deserialize_index, directory) == \
            _outcome(reference_load, directory)


@pytest.mark.parametrize("mutation", ["trailing space", "crlf",
                                      "vertical tab", "blank line"])
def test_a_content_field_that_parses_is_still_a_weights_error(tmp_path,
                                                              mutation):
    _written(_raw(3), tmp_path, mutation, 0)
    with pytest.raises(ParseError, match=r"weights\.tsv:\d+:"):
        deserialize_index(tmp_path)


def test_a_huge_count_loads_as_its_float(tmp_path):
    _written(_raw(4), tmp_path, "count above 2**53", 0)
    a = deserialize_index(tmp_path).arrays()
    assert a.counts.max() == 2**53 + 1
    assert a.weights.tolist() == a.counts.astype(np.float64).tolist()


@pytest.fixture
def parsed_files(monkeypatch):
    """The base names of the index files whose rows are parsed."""
    names = []
    columns = _TsvFile.columns

    def counted(self, row_type):
        names.append(os.path.basename(self.path))
        return columns(self, row_type)

    monkeypatch.setattr(_TsvFile, "columns", counted)
    return names


def test_a_raw_index_never_parses_its_weights(tmp_path, parsed_files):
    index = _raw(5)
    serialize_index(index, tmp_path / "raw")
    loaded = deserialize_index(tmp_path / "raw")
    assert parsed_files == ["content.tsv", "classification.tsv"]
    assert index_file_map(loaded) == index_file_map(index)
    serialize_index(tfidf_normalized(index), tmp_path / "tfidf")
    deserialize_index(tmp_path / "tfidf")
    assert parsed_files[2:] == ["content.tsv", "weights.tsv",
                                "classification.tsv"]
