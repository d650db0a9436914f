"""An n-gram size below 1 is a usage error: the `--ngram` flag and a config
line `ngram=` both exit 1 with one `error:` line, and nothing is written."""

import os

import pytest

from jatecs.cli import EXIT_USAGE, main

TOY_DIR = os.path.join(os.path.dirname(__file__), "..", "src", "jatecs",
                       "data", "toy")
TOY_CORPUS = os.path.join(TOY_DIR, "corpus.csv")
TOY_CATEGORIES = os.path.join(TOY_DIR, "categories.txt")


def _one_error(capsys, needle):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert needle in err, err


@pytest.mark.parametrize("ngram", ["0", "-2"])
def test_ngram_flag_below_one_exits_1(tmp_path, capsys, ngram):
    out = tmp_path / "idx"
    assert main(["index", "--input", TOY_CORPUS, "--categories",
                 TOY_CATEGORIES, "--extractor", "chargrams",
                 f"--ngram={ngram}", "--out", str(out)]) == EXIT_USAGE
    _one_error(capsys, f"argument --ngram: must be >= 1, got {int(ngram)}")
    assert not out.exists()


def test_ngram_config_line_below_one_exits_1_with_its_line(tmp_path, capsys):
    config = tmp_path / "index.conf"
    config.write_text("extractor=chargrams\nngram=0\n", encoding="utf-8")
    out = tmp_path / "idx"
    assert main(["index", "--input", TOY_CORPUS, "--categories",
                 TOY_CATEGORIES, "--config", str(config),
                 "--out", str(out)]) == EXIT_USAGE
    _one_error(capsys, f"{config}:2: argument --ngram: must be >= 1, got 0")
    assert not out.exists()


def test_ngram_not_an_int_keeps_argparse_wording(tmp_path, capsys):
    assert main(["index", "--input", TOY_CORPUS, "--categories",
                 TOY_CATEGORIES, "--ngram", "x",
                 "--out", str(tmp_path / "idx")]) == EXIT_USAGE
    _one_error(capsys, "argument --ngram: invalid int value: 'x'")


def test_pipeline_ngram_below_one_exits_1(tmp_path, capsys):
    assert main(["pipeline", "--input", TOY_CORPUS, "--categories",
                 TOY_CATEGORIES, "--extractor", "chargrams", "--ngram", "0",
                 "--out", str(tmp_path / "run")]) == EXIT_USAGE
    _one_error(capsys, "argument --ngram: must be >= 1, got 0")
