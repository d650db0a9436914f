"""Repeated ARFF attribute names and bad names in an index's concept files
are data errors (exit 2) on their `file:line`; every index file may end its
lines with CRLF."""

import os

import pytest

from jatecs.cli import EXIT_DATA, EXIT_OK, main
from jatecs.corpus import read_arff
from jatecs.errors import ParseError
from jatecs.index import deserialize_index, index_file_map, serialize_index

CONCEPT_FILES = {"categories.tsv": "category", "features.tsv": "feature",
                 "documents.tsv": "document"}


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("attributes, row", [
    ("@attribute x numeric\n@attribute x numeric\n", "1,2,a"),
    ("@attribute x numeric\n@attribute x numeric\n", "5e18,5e18,a"),
    ("@attribute 'x' numeric\n@attribute x string\n", "1,'w',a"),
    ("@attribute x {p,q}\n@attribute \"x\" {p,q}\n", "p,q,a"),
])
def test_arff_repeated_attribute_name_is_a_data_error(tmp_path, capsys,
                                                      attributes, row):
    path = _write(tmp_path, "t.arff", "@relation r\n" + attributes
                  + "@attribute class {a,b}\n@data\n" + row + "\n")
    message = f"{path}:3: duplicate attribute name 'x'"
    with pytest.raises(ParseError) as exc:
        read_arff(path)
    assert str(exc.value) == message
    cats = _write(tmp_path, "cats.txt", "a\nb\n")
    assert main(["index", "--reader", "arff", "--input", path,
                 "--categories", cats,
                 "--out", str(tmp_path / "index")]) == EXIT_DATA
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.fixture
def index_dir(tmp_path, tiny_index):
    directory = tmp_path / "index"
    serialize_index(tiny_index, directory)
    return directory


def _weight(directory, out):
    return main(["weight", "--index", str(directory), "--scheme", "tfidf",
                 "--out", str(out)])


@pytest.mark.parametrize("name", sorted(CONCEPT_FILES))
@pytest.mark.parametrize("lines, line_no, problem", [
    (["0\tsame", "1\tsame"], 2, "duplicate {kind} name 'same'"),
    (["0\tsame", "", "1\tsame"], 3, "duplicate {kind} name 'same'"),
    (["0\tone", "1\t"], 2, "empty {kind} name"),
    (["0\tone", "1"], 2, "empty {kind} name"),
    (["0\tone", "1\ta\tb"], 2, "{kind} name 'a\\tb' contains tab/newline"),
    (["0\ta\tb", "1\ta\tb"], 1, "{kind} name 'a\\tb' contains tab/newline"),
])
def test_bad_concept_name_names_its_line(index_dir, tmp_path, capsys, name,
                                         lines, line_no, problem):
    path = index_dir / name
    rows = path.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join(lines + rows[2:]) + "\n", encoding="utf-8")
    message = f"{path}:{line_no}: " + problem.format(kind=CONCEPT_FILES[name])
    with pytest.raises(ParseError) as exc:
        deserialize_index(index_dir)
    assert str(exc.value) == message
    assert _weight(index_dir, tmp_path / "weighted") == EXIT_DATA
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("names", [[name] for name in sorted(CONCEPT_FILES)]
                         + [None])
def test_crlf_index_files_read_as_lf(index_dir, tmp_path, names):
    """One concept file, or (None) every index file, with CRLF line ends."""
    lf_bytes = index_file_map(deserialize_index(index_dir))
    assert _weight(index_dir, tmp_path / "lf") == EXIT_OK
    for name in names or os.listdir(index_dir):
        path = index_dir / name
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    assert index_file_map(deserialize_index(index_dir)) == lf_bytes
    assert _weight(index_dir, tmp_path / "crlf") == EXIT_OK
    for name in os.listdir(tmp_path / "lf"):
        assert ((tmp_path / "crlf" / name).read_bytes()
                == (tmp_path / "lf" / name).read_bytes())
