"""meta.tsv's counts: a negative count and a repeated key are data errors
(exit 2) on their meta.tsv line, not an empty index or an error that names
another file."""

import pytest

from jatecs.cli import EXIT_DATA, main
from jatecs.errors import ParseError
from jatecs.index import build_index, deserialize_index, serialize_index


@pytest.fixture
def index_dir(tmp_path, tiny_index):
    directory = tmp_path / "index"
    serialize_index(tiny_index, directory)
    return directory


def _meta_lines(directory) -> list:
    return (directory / "meta.tsv").read_text(encoding="utf-8").splitlines()


def _fails_on(directory, tmp_path, capsys, message) -> None:
    with pytest.raises(ParseError) as exc:
        deserialize_index(directory)
    assert str(exc.value) == message
    assert main(["weight", "--index", str(directory), "--scheme", "tfidf",
                 "--out", str(tmp_path / "weighted")]) == EXIT_DATA
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("line_no, key", [(2, "documents"), (3, "features"),
                                          (4, "categories")])
def test_a_negative_count_names_its_line(index_dir, tmp_path, capsys,
                                         line_no, key):
    lines = _meta_lines(index_dir)
    assert lines[line_no - 1].startswith(f"{key}\t")
    lines[line_no - 1] = f"{key}\t-1"
    (index_dir / "meta.tsv").write_text("\n".join(lines) + "\n",
                                        encoding="utf-8")
    _fails_on(index_dir, tmp_path, capsys,
              f"{index_dir / 'meta.tsv'}:{line_no}: negative {key} count")


def test_an_empty_index_with_minus_one_documents_is_rejected(tmp_path,
                                                             capsys):
    directory = tmp_path / "empty"
    serialize_index(build_index([], [], []), directory)
    text = (directory / "meta.tsv").read_text(encoding="utf-8")
    (directory / "meta.tsv").write_text(
        text.replace("documents\t0\n", "documents\t-1\n"), encoding="utf-8")
    _fails_on(directory, tmp_path, capsys,
              f"{directory / 'meta.tsv'}:2: negative documents count")


@pytest.mark.parametrize("repeated", ["documents\t5", "format_version\t1",
                                      "categories\t2"])
def test_a_repeated_key_names_its_second_line(index_dir, tmp_path, capsys,
                                              repeated):
    lines = _meta_lines(index_dir) + [repeated]
    (index_dir / "meta.tsv").write_text("\n".join(lines) + "\n",
                                        encoding="utf-8")
    key = repeated.split("\t")[0]
    _fails_on(index_dir, tmp_path, capsys,
              f"{index_dir / 'meta.tsv'}:{len(lines)}: repeated {key}")
