"""A numeric index file holding only spaces and tabs is a parse error on
its first such line, as the same line before a good row is; a file whose
lines are all blank (only LF and CR bytes) still loads as an empty
relation."""

import pytest

from jatecs import ParseError, build_index, deserialize_index, serialize_index
from jatecs.cli import EXIT_DATA, EXIT_OK, main

CATEGORIES = ["sports", "politics", "science"]


@pytest.fixture
def empty_index_dir(tmp_path):
    directory = tmp_path / "empty"
    serialize_index(build_index([], [], CATEGORIES), directory)
    return directory


@pytest.mark.parametrize("name, data, line_no, message", [
    ("content.tsv", b"\t\t\n \n", 1, "non-numeric field"),
    ("content.tsv", b" \n", 1, "expected 3 tab-separated fields"),
    ("content.tsv", b"\n\r\n\t\t\n", 3, "non-numeric field"),
    ("weights.tsv", b" \n", 1, "expected 3 tab-separated fields"),
    ("classification.tsv", b" \n", 1, "expected 2 tab-separated fields"),
    ("classification.tsv", b"\t\r\n", 1, "non-numeric field"),
])
def test_a_line_of_spaces_or_tabs_fails_on_its_line(empty_index_dir, name,
                                                     data, line_no, message):
    (empty_index_dir / name).write_bytes(data)
    with pytest.raises(ParseError) as info:
        deserialize_index(empty_index_dir)
    assert info.value.line_no == line_no
    assert f"{name}:{line_no}: {message}" in str(info.value)


def test_the_same_line_before_a_good_row_fails_alike(empty_index_dir):
    """The error an empty relation gets is the one a non-empty one gets."""
    content = empty_index_dir / "content.tsv"
    content.write_bytes(b"\t\t\n0\t0\t1\n")
    with pytest.raises(ParseError) as before:
        deserialize_index(empty_index_dir)
    content.write_bytes(b"\t\t\n \n")
    with pytest.raises(ParseError) as alone:
        deserialize_index(empty_index_dir)
    assert str(alone.value) == str(before.value)


@pytest.mark.parametrize("data", [b"", b"\n", b"\n\n", b"\r\n", b"\r\n\n\r\n"])
@pytest.mark.parametrize("name", ["content.tsv", "weights.tsv",
                                  "classification.tsv"])
def test_blank_lines_still_load_as_empty(empty_index_dir, name, data):
    (empty_index_dir / name).write_bytes(data)
    index = deserialize_index(empty_index_dir)
    assert index.num_documents == 0 and index.num_categories == 3
    assert index.arrays().counts.size == 0


def test_weight_exits_2_on_a_blank_content_line(tmp_path, capsys):
    corpus = tmp_path / "empty.csv"
    corpus.write_bytes(b"")
    categories = tmp_path / "categories.txt"
    categories.write_text("\n".join(CATEGORIES) + "\n", encoding="utf-8")
    out = tmp_path / "blank"
    assert main(["index", "--input", str(corpus), "--categories",
                 str(categories), "--out", str(out)]) == EXIT_OK
    (out / "content.tsv").write_bytes(b"\t\t\n \n")
    capsys.readouterr()
    assert main(["weight", "--index", str(out), "--scheme", "tfidf",
                 "--out", str(tmp_path / "blank-w")]) == EXIT_DATA
    assert "content.tsv:1:" in capsys.readouterr().err
