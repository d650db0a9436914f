"""Reader values too large for an int64 count, and bad or repeated names in
CSV and category files, are data errors (exit 2); the text readers name
the offending line."""

import pytest

from jatecs.cli import EXIT_DATA, EXIT_OK, main
from jatecs.corpus import (documents_to_index, instances_to_documents,
                           read_arff, read_category_file, read_csv,
                           read_libsvm)
from jatecs.errors import ParseError, ValidationError

# the largest float below 2**63: its ceiling still fits an int64 count
LARGEST_COUNT_VALUE = float(2**63 - 1024)


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def _index(tmp_path, *args):
    cats = _write(tmp_path, "cats.txt", "a\nb\n")
    return main(["index", *args, "--categories", cats,
                 "--out", str(tmp_path / "index")])


@pytest.mark.parametrize("value", ["1e19", "9.223372036854775808e18",
                                   "1e300"])
def test_libsvm_value_too_large_for_a_count(tmp_path, capsys, value):
    path = _write(tmp_path, "c.svm", f"a 1:2\nb 3:1 7:{value}\n")
    with pytest.raises(ValidationError) as exc:
        instances_to_documents(read_libsvm(path))
    assert str(exc.value) == (f"document 'doc1' feature 7: value "
                              f"{float(value)!r} too large for a count")
    assert _index(tmp_path, "--reader", "libsvm", "--input", path) == EXIT_DATA
    assert capsys.readouterr().err == f"error: {exc.value}\n"


def test_libsvm_largest_count_value_is_indexed(tmp_path):
    path = _write(tmp_path, "c.svm", f"a 1:{LARGEST_COUNT_VALUE!r}\n")
    index = documents_to_index(instances_to_documents(read_libsvm(path)),
                               ["a"])
    assert index.document_features(0) == {0: 2**63 - 1024}
    assert _index(tmp_path, "--reader", "libsvm", "--input", path) == EXIT_OK


_ARFF = "@relation r\n@attribute x numeric\n@attribute class {a,b}\n@data\n"


def test_arff_value_too_large_for_a_count(tmp_path, capsys):
    path = _write(tmp_path, "t.arff", _ARFF + "3,a\n1e19,b\n")
    with pytest.raises(ParseError) as exc:
        read_arff(path)
    assert str(exc.value) == (
        f"{path}:6: numeric value '1e19' too large for a count")
    assert _index(tmp_path, "--reader", "arff", "--input", path) == EXIT_DATA
    assert capsys.readouterr().err == f"error: {exc.value}\n"
    _write(tmp_path, "t.arff", _ARFF + f"{LARGEST_COUNT_VALUE!r},a\n")
    assert read_arff(path)[1][0].features == (
        ("x", 2**63 - 1024, LARGEST_COUNT_VALUE),)


@pytest.mark.parametrize("text, separator, message", [
    ("d1\ta\tx y\nd2\t\tz\nd1\tb\tw\n", "\t", ":3: duplicate docName 'd1'"),
    ("d\t1,a,x y\n", ",", ":1: document name 'd\\t1' contains tab/newline"),
    ("d1,a,x\n,b,y\n", ",", ":2: empty document name"),
])
def test_csv_name_errors_name_their_line(tmp_path, capsys, text, separator,
                                         message):
    path = _write(tmp_path, "c.csv", text)
    with pytest.raises(ParseError) as exc:
        read_csv(path, separator=separator)
    assert str(exc.value) == path + message
    assert _index(tmp_path, "--input", path,
                  "--separator", separator) == EXIT_DATA
    assert capsys.readouterr().err == f"error: {path}{message}\n"


def test_category_name_with_a_tab_names_its_line(tmp_path, capsys):
    path = _write(tmp_path, "cats.txt", "# labels\na\nb\tc\n")
    with pytest.raises(ParseError) as exc:
        read_category_file(path)
    assert str(exc.value) == (
        f"{path}:3: category name 'b\\tc' contains tab/newline")
    corpus = _write(tmp_path, "c.csv", "d1\ta\tx\n")
    code = main(["index", "--input", corpus, "--categories", path,
                 "--out", str(tmp_path / "index")])
    assert code == EXIT_DATA
    assert capsys.readouterr().err == f"error: {exc.value}\n"
