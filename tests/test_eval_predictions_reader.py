"""`jatecs eval` over edited copies of a toy pipeline's predictions.tsv.

The reader sets each row into a D x C decision matrix, so reordered,
repeated, CRLF-ended or blank rows must evaluate to the pipeline's own
eval.tsv bytes.  A malformed row is one `error:` line naming its line,
exit code 2, and no eval.tsv.
"""

import os

import pytest

from jatecs.cli import EXIT_DATA, EXIT_OK, main
from jatecs.rng import SplitMix64

TOY_DIR = os.path.join(os.path.dirname(__file__), "..", "src", "jatecs",
                       "data", "toy")


@pytest.fixture(scope="module")
def toy_run(tmp_path_factory):
    """A stemmed bag-of-words toy pipeline: index to eval, NB."""
    root = tmp_path_factory.mktemp("toy") / "run"
    assert main(["pipeline",
                 "--input", os.path.join(TOY_DIR, "corpus.csv"),
                 "--categories", os.path.join(TOY_DIR, "categories.txt"),
                 "--extractor", "bow", "--stoplist", "en", "--stem", "en",
                 "--func", "ig", "--policy", "rr", "--k", "500",
                 "--scheme", "tfidf", "--learner", "nb",
                 "--out", str(root)]) == EXIT_OK
    return root


def _rows(toy_run) -> list:
    rows = (toy_run / "predictions.tsv").read_bytes().splitlines(True)
    assert len(rows) > 10
    return rows


def _eval(toy_run, tmp_path, capsys, data: bytes):
    """(exit code, stderr, eval.tsv path) of eval over `data` as pred.tsv,
    with the category table classify wrote beside the original."""
    pred = tmp_path / "pred.tsv"
    pred.write_bytes(data)
    (tmp_path / "pred-categories.tsv").write_bytes(
        (toy_run / "predictions-categories.tsv").read_bytes())
    out = tmp_path / "eval.tsv"
    capsys.readouterr()
    code = main(["eval", "--pred", str(pred), "--gold",
                 str(toy_run / "weight"), "--out", str(out)])
    return code, capsys.readouterr().err, out


def _shuffled(rows):
    rows = list(rows)
    SplitMix64(5).shuffle(rows)
    return rows


EQUAL_EDITS = {
    "clean": lambda rows: rows,
    "shuffled": _shuffled,
    "repeated-row": lambda rows: rows[:3] + [rows[2]] + rows[3:],
    "shuffled-repeats": lambda rows: _shuffled(rows + rows[::4]),
    "crlf": lambda rows: [row.replace(b"\n", b"\r\n") for row in rows],
    "blank-lines": lambda rows: [b"\n"] + rows[:5] + [b"\n", b"\r\n"]
    + rows[5:] + [b"\n"],
}


@pytest.mark.parametrize("edit", list(EQUAL_EDITS))
def test_reordered_repeated_or_blank_rows_evaluate_alike(toy_run, tmp_path,
                                                         capsys, edit):
    data = b"".join(EQUAL_EDITS[edit](_rows(toy_run)))
    code, err, out = _eval(toy_run, tmp_path, capsys, data)
    assert (code, err) == (EXIT_OK, "")
    assert out.read_bytes() == (toy_run / "eval.tsv").read_bytes()


@pytest.mark.parametrize("row, message", [
    (b"0\t1\t1\n", "expected dID<TAB>cID"),
    (b"0\n", "expected dID<TAB>cID"),
    (b"x\t0\n", "non-integer id"),
    (b"0\t1.0\n", "non-integer id"),
    (b"60\t0\n", "unknown document 60"),
    (b"0\t-1\n", "unknown category -1"),
    (b"0\t\xff\n", "not UTF-8"),
], ids=["three-fields", "one-field", "text-id", "float-id", "document",
        "category", "undecodable"])
def test_a_malformed_row_exits_2_naming_its_line(toy_run, tmp_path, capsys,
                                                 row, message):
    rows = _rows(toy_run)
    data = b"".join(rows[:6] + [row] + rows[6:])
    code, err, out = _eval(toy_run, tmp_path, capsys, data)
    assert code == EXIT_DATA
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert f"pred.tsv:7: {message}" in err, err
    assert not out.exists()
