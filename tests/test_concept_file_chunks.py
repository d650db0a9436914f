"""The concept files of an index are encoded a chunk of rows at a time, as
the relations are: their bytes are one "id\\tname\\n" line per entry, at any
size around a chunk's, and serializing an index whose features.tsv is most
of its bytes holds about a chunk of that file at once, not the whole of it.
"""

import os

import pytest

from jatecs import build_index
from jatecs.index import _ENCODE_CHUNK_ROWS, index_file_map, serialize_index

from test_memory_bounds import _peak_bytes


def _index(n_features, docs=1):
    """An index of `docs` documents over n_features long feature names,
    each in one document."""
    per_doc = -(-n_features // docs) if n_features else 0
    return build_index(
        [(f"d{d}", [(f"feature-{i:07d}-" + "x" * 24, 1)
                    for i in range(d * per_doc,
                                   min(n_features, (d + 1) * per_doc))])
         for d in range(docs)], [(f"d{d}", ["c"]) for d in range(docs)],
        ["c"])


@pytest.mark.parametrize("n", [0, 1, _ENCODE_CHUNK_ROWS - 1,
                               _ENCODE_CHUNK_ROWS, _ENCODE_CHUNK_ROWS + 1,
                               2 * _ENCODE_CHUNK_ROWS])
def test_concept_files_are_their_lines(n):
    index = _index(n)
    files = index_file_map(index)
    for name, table in (("features.tsv", index.features),
                        ("documents.tsv", index.documents),
                        ("categories.tsv", index.categories)):
        assert files[name] == "".join(
            f"{i}\t{text}\n" for i, text in table).encode("utf-8")


def test_features_file_serialize_peak(tmp_path):
    """Peak over the bytes of features.tsv, with 32,000 features of about
    47 bytes a line: was 3.24 when the file was encoded whole, now 0.87."""
    index = _index(32_000, docs=16)
    peak = _peak_bytes(lambda: serialize_index(index, tmp_path))
    features = os.path.getsize(tmp_path / "features.tsv")
    assert features >= 1.4e6
    assert features > 2 * sum(os.path.getsize(tmp_path / name) for name in
                              os.listdir(tmp_path) if name != "features.tsv")
    assert peak / features < 2.0, peak / features
