"""`classify` writes the model's category table next to its predictions,
and `eval` checks it against the gold index's: predictions made over
another category table exit 2 instead of being scored by their ids."""

import os

import pytest

from jatecs.cli import EXIT_DATA, EXIT_OK, main

TOY_DIR = os.path.join(os.path.dirname(__file__), "..", "src", "jatecs",
                       "data", "toy")
TOY_CORPUS = os.path.join(TOY_DIR, "corpus.csv")
TOY_CATEGORIES = os.path.join(TOY_DIR, "categories.txt")
INDEX = ["--input", TOY_CORPUS, "--extractor", "chargrams", "--ngram", "4"]


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    """A toy pipeline run, and the toy corpus indexed with its category
    file reversed."""
    root = tmp_path_factory.mktemp("eval-table")
    assert main(["pipeline", *INDEX, "--categories", TOY_CATEGORIES,
                 "--out", str(root / "run")]) == EXIT_OK
    with open(TOY_CATEGORIES, encoding="utf-8") as fh:
        names = fh.read().splitlines()
    (root / "reversed.txt").write_text("\n".join(names[::-1]) + "\n",
                                       encoding="utf-8")
    assert main(["index", *INDEX, "--categories", str(root / "reversed.txt"),
                 "--out", str(root / "reversed")]) == EXIT_OK
    return root


def _eval(pred, gold, out):
    return main(["eval", "--pred", str(pred), "--gold", str(gold),
                 "--out", str(out)])


def test_the_side_file_is_the_models_category_table(run):
    side = run / "run" / "predictions-categories.tsv"
    assert side.read_bytes() == \
        (run / "run" / "weight" / "categories.tsv").read_bytes()


def test_matching_gold_evaluates_as_the_pipeline_does(run, tmp_path, capsys):
    assert _eval(run / "run" / "predictions.tsv", run / "run" / "weight",
                 tmp_path / "eval.tsv") == EXIT_OK
    assert (tmp_path / "eval.tsv").read_bytes() == \
        (run / "run" / "eval.tsv").read_bytes()


def test_gold_with_another_category_table_exits_2(run, tmp_path, capsys):
    capsys.readouterr()
    assert _eval(run / "run" / "predictions.tsv", run / "reversed",
                 tmp_path / "eval.tsv") == EXIT_DATA
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert "predictions-categories.tsv" in err[0]
    assert not (tmp_path / "eval.tsv").exists()


def test_predictions_without_the_side_file_are_evaluated_by_id(run,
                                                               tmp_path):
    pred = tmp_path / "pred.tsv"
    pred.write_bytes((run / "run" / "predictions.tsv").read_bytes())
    assert _eval(pred, run / "reversed", tmp_path / "eval.tsv") == EXIT_OK


@pytest.mark.parametrize("text, line", [
    ("0\tsports\n2\tpolitics\n1\tscience\n", 2),  # an id out of sequence
    ("0\tsports\n1\t\n2\tscience\n", 2),          # an empty name
])
def test_a_bad_side_file_line_exits_2_naming_it(run, tmp_path, capsys, text,
                                                line):
    pred = tmp_path / "pred.tsv"
    pred.write_bytes((run / "run" / "predictions.tsv").read_bytes())
    (tmp_path / "pred-categories.tsv").write_text(text, encoding="utf-8")
    capsys.readouterr()
    assert _eval(pred, run / "run" / "weight",
                 tmp_path / "eval.tsv") == EXIT_DATA
    assert f"pred-categories.tsv:{line}:" in capsys.readouterr().err
