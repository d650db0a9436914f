"""CLI options: a --config line is parsed as the flag --key=value, with the
same type and choice checks; flags and keys are spelled in full; a
hyperparameter value that does not convert is a data error; each warning
is printed once."""

import os
import subprocess
import sys

import pytest

from jatecs.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, main
from jatecs.errors import ValidationError
from jatecs.learners import make_learner

TOY_DIR = os.path.join(os.path.dirname(__file__), "..", "src", "jatecs",
                       "data", "toy")
TOY_CORPUS = os.path.join(TOY_DIR, "corpus.csv")
TOY_CATEGORIES = os.path.join(TOY_DIR, "categories.txt")
SRC = os.path.join(os.path.dirname(__file__), "..", "src")

# the README's toy pipeline, as (key, value) pairs
README_TOY = [("input", TOY_CORPUS), ("categories", TOY_CATEGORIES),
              ("extractor", "chargrams"), ("ngram", "4"), ("func", "ig"),
              ("policy", "rr"), ("k", "500"), ("scheme", "tfidf"),
              ("learner", "nb")]


def _cli(*argv):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, "-m", "jatecs.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)


def _tree(root) -> dict:
    files = {}
    for directory, _, names in os.walk(root):
        for name in names:
            path = os.path.join(directory, name)
            with open(path, "rb") as fh:
                files[os.path.relpath(path, root)] = fh.read()
    return files


def _write_config(tmp_path, text) -> str:
    path = tmp_path / "run.conf"
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_pipeline_from_config_matches_flags(tmp_path, capsys):
    flags = [part for key, value in README_TOY for part in (f"--{key}", value)]
    by_flags, by_config = tmp_path / "flags", tmp_path / "config"
    assert main(["pipeline", *flags, "--out", str(by_flags)]) == EXIT_OK
    flags_out = capsys.readouterr().out
    config = _write_config(tmp_path, "# the README toy run\n\n" + "".join(
        f"{key} = {value}\n" for key, value in README_TOY))
    assert main(["pipeline", "--config", config,
                 "--out", str(by_config)]) == EXIT_OK
    config_out = capsys.readouterr().out
    assert config_out == flags_out.replace(str(by_flags), str(by_config))
    assert _tree(by_config) == _tree(by_flags)
    assert "model/model.pkl" in _tree(by_flags)


def test_undecodable_config_byte_exits_1_with_line(tmp_path):
    config = tmp_path / "bad.conf"
    config.write_bytes(b"k=\xff\n")
    done = _cli("kfold", "--config", str(config), "--index", str(tmp_path))
    assert done.returncode == EXIT_USAGE
    assert f"{config}:1:" in done.stderr
    assert "Traceback" not in done.stderr
    assert done.stderr.startswith("error: ")


@pytest.mark.parametrize("line, reason", [
    ("reader=xml", "invalid choice"),
    ("k=abc", "invalid int value"),
    ("inp=x", "unrecognized arguments"),
    ("word-bounded=maybe", "expected true/false"),
    ("separator=ab", "single character"),
    ("param=k=3", "command line"),
    ("nokey", "expected key=value"),
], ids=["choice", "type", "abbreviated-key", "bool", "separator", "param",
        "no-equals"])
def test_bad_config_line_exits_1_with_file_line(tmp_path, capsys, line,
                                                reason):
    config = _write_config(tmp_path, f"# comment\n{line}\n")
    code = main(["pipeline", "--config", config, "--input", TOY_CORPUS,
                 "--categories", TOY_CATEGORIES,
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"error: {config}:2: ")
    assert reason in err
    assert not (tmp_path / "out").exists()


def test_missing_config_file_exits_1(tmp_path, capsys):
    assert main(["kfold", "--config", str(tmp_path / "nope.conf"),
                 "--index", str(tmp_path)]) == EXIT_USAGE
    assert "nope.conf" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["--inp", TOY_CORPUS],
    ["--input", TOY_CORPUS, "--cat", TOY_CATEGORIES],
    ["--input", TOY_CORPUS, "--seed", "1"],
], ids=["inp", "cat", "seed"])
def test_abbreviated_or_removed_flag_exits_1(tmp_path, argv):
    assert main(["pipeline", *argv, "--categories", TOY_CATEGORIES,
                 "--out", str(tmp_path / "out")]) == EXIT_USAGE
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("missing", ["input", "categories", "test-input",
                                     "index", "model", "pred"])
def test_missing_path_exits_2_naming_it(tmp_path, capsys, missing):
    index = str(tmp_path / "idx")
    assert main(["pipeline", "--input", TOY_CORPUS, "--categories",
                 TOY_CATEGORIES, "--stages", "index,tsr,weight,train,classify",
                 "--out", str(tmp_path / "run")]) == EXIT_OK
    run = tmp_path / "run"
    nope = str(tmp_path / "nope")
    argv = {
        "input": ["index", "--input", nope, "--categories", TOY_CATEGORIES,
                  "--out", index],
        "categories": ["index", "--input", TOY_CORPUS, "--categories", nope,
                       "--out", index],
        "test-input": ["pipeline", "--input", TOY_CORPUS, "--categories",
                       TOY_CATEGORIES, "--test-input", nope,
                       "--out", str(tmp_path / "split")],
        "index": ["kfold", "--index", nope],
        "model": ["classify", "--model", nope, "--index", str(run / "weight"),
                  "--out", str(tmp_path / "p.tsv")],
        "pred": ["eval", "--pred", nope, "--gold", str(run / "weight"),
                 "--out", str(tmp_path / "e.tsv")],
    }[missing]
    capsys.readouterr()
    assert main(argv) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert nope in err


@pytest.mark.parametrize("command, param", [
    ("kfold", "k=abc"), ("kfold", "k=1.0"), ("grid", "k=abc,3"),
    ("kfold", "beta=x")])
def test_unconvertible_hyperparameter_exits_2(tmp_path, capsys, command,
                                              param):
    index = str(tmp_path / "idx")
    assert main(["index", "--input", TOY_CORPUS, "--categories",
                 TOY_CATEGORIES, "--out", index]) == EXIT_OK
    capsys.readouterr()
    learner = "rocchio" if param.startswith("beta") else "knn"
    code = main([command, "--index", index, "--learner", learner,
                 "--param", param, "--out", str(tmp_path / "out.tsv")])
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1


def test_make_learner_converts_to_the_default_type():
    assert make_learner("knn", k="7", threshold="1") == \
        make_learner("knn", k=7, threshold=1.0)
    assert isinstance(make_learner("knn", threshold="1").threshold, float)
    with pytest.raises(ValidationError, match="knn hyperparameter 'k'"):
        make_learner("knn", k="2.5")
    with pytest.raises(ValidationError, match="boost hyperparameter"):
        make_learner("boost", iterations="many")


def test_quantify_fallback_warning_printed_once(tmp_path):
    corpus = tmp_path / "c.csv"
    corpus.write_text("d0\tham\tx y z\nd1\tham\tx y\nd2\tspam\tz w\n"
                      "d3\tham\tx z\nd4\tham\ty y\n", encoding="utf-8")
    cats = tmp_path / "cats.txt"
    cats.write_text("ham\nspam\n", encoding="utf-8")
    index = str(tmp_path / "idx")
    assert main(["index", "--input", str(corpus), "--categories", str(cats),
                 "--out", index]) == EXIT_OK
    done = _cli("quantify", "--train", index, "--test", index, "--folds", "2",
                "--out", str(tmp_path / "q.tsv"))
    assert done.returncode == EXIT_OK
    message = "falling back to simple folds: spam"
    assert done.stderr.count(message) == 1
    assert done.stderr == f"warning: categories with fewer than 2 " \
                          f"positives, {message}\n"
