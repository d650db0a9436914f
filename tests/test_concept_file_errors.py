"""A concept file with fewer entries than its count says is a data error
that names the file by its path, as every other index file error does."""

import os

import pytest

from jatecs.cli import EXIT_DATA, EXIT_OK, main

TOY_DIR = os.path.join(os.path.dirname(__file__), "..", "src", "jatecs",
                       "data", "toy")
TOY_CORPUS = os.path.join(TOY_DIR, "corpus.csv")
TOY_CATEGORIES = os.path.join(TOY_DIR, "categories.txt")


def _drop_last_lines(path, keep):
    lines = path.read_bytes().splitlines(keepends=True)
    path.write_bytes(b"".join(lines[:keep]))
    return len(lines)


def test_weight_on_a_features_file_without_its_last_line(tmp_path, capsys):
    index = tmp_path / "index"
    assert main(["index", "--input", TOY_CORPUS, "--categories",
                 TOY_CATEGORIES, "--out", str(index)]) == EXIT_OK
    features = index / "features.tsv"
    expected = _drop_last_lines(features, -1)
    capsys.readouterr()
    assert main(["weight", "--index", str(index), "--scheme", "tfidf",
                 "--out", str(tmp_path / "weight")]) == EXIT_DATA
    assert capsys.readouterr().err == (
        f"error: {features}: expected {expected} entries\n")


@pytest.fixture
def pipeline_run(tmp_path):
    out = tmp_path / "run"
    assert main(["pipeline", "--input", TOY_CORPUS, "--categories",
                 TOY_CATEGORIES, "--out", str(out)]) == EXIT_OK
    return out


def test_eval_with_a_two_line_category_table(pipeline_run, tmp_path,
                                             capsys):
    side = pipeline_run / "predictions-categories.tsv"
    assert _drop_last_lines(side, 2) == 3
    capsys.readouterr()
    assert main(["eval", "--pred", str(pipeline_run / "predictions.tsv"),
                 "--gold", str(pipeline_run / "weight"),
                 "--out", str(tmp_path / "eval.tsv")]) == EXIT_DATA
    assert capsys.readouterr().err == f"error: {side}: expected 3 entries\n"
    assert not (tmp_path / "eval.tsv").exists()
