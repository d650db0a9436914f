"""What the CLI writes: a pipeline rerun rebuilds its test index; an output
path that cannot be written and a model file that does not unpickle to a
classifier are data errors, and any other failure an internal error, each
one line and not a traceback."""

import os
import pickle
import subprocess
import sys

import pytest

from jatecs import cli
from jatecs.cli import EXIT_DATA, EXIT_INTERNAL, EXIT_OK, main
from jatecs.errors import ParseError
from jatecs.learners import load_classifier

TOY_DIR = os.path.join(os.path.dirname(__file__), "..", "src", "jatecs",
                       "data", "toy")
TOY_CORPUS = os.path.join(TOY_DIR, "corpus.csv")
TOY_CATEGORIES = os.path.join(TOY_DIR, "categories.txt")
SRC = os.path.join(os.path.dirname(__file__), "..", "src")


def _toy_lines():
    with open(TOY_CORPUS, encoding="utf-8") as fh:
        return fh.read().splitlines(keepends=True)


def test_pipeline_rebuilds_test_index_on_rerun(tmp_path, capsys):
    lines = _toy_lines()
    train, first, second = lines[::3], lines[1::3], lines[2::3][:7]
    paths = {}
    for name, rows in (("train", train), ("a", first), ("b", second)):
        paths[name] = tmp_path / f"{name}.csv"
        paths[name].write_text("".join(rows), encoding="utf-8")
    out = tmp_path / "out"

    def run(test_corpus):
        assert main(["pipeline", "--input", str(paths["train"]),
                     "--categories", TOY_CATEGORIES,
                     "--test-input", str(test_corpus),
                     "--stages", "index,tsr,weight,train,classify,eval",
                     "--k", "50", "--out", str(out)]) == EXIT_OK
        return capsys.readouterr().out

    run(paths["a"])
    stdout = run(paths["b"])
    assert f"classified D={len(second)} " in stdout
    names = (out / "test-index" / "documents.tsv").read_text(
        encoding="utf-8").splitlines()
    assert [row.split("\t")[1] for row in names] == \
        [row.split("\t")[0] for row in second]


def test_unwritable_out_exits_2_without_traceback(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("not a directory\n", encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-m", "jatecs.cli", "index", "--input", TOY_CORPUS,
         "--categories", TOY_CATEGORIES, "--out", str(blocker / "idx")],
        capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == EXIT_DATA
    assert "Traceback" not in done.stderr
    assert done.stderr.startswith("error: ")
    assert done.stderr.count("\n") == 1


def test_garbage_model_exits_2_without_traceback(tmp_path):
    index_dir = tmp_path / "idx"
    assert main(["index", "--input", TOY_CORPUS, "--categories",
                 TOY_CATEGORIES, "--out", str(index_dir)]) == EXIT_OK
    model_dir = tmp_path / "m"
    model_dir.mkdir()
    (model_dir / "model.pkl").write_bytes(b"garbage")
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-m", "jatecs.cli", "classify", "--model",
         str(model_dir), "--index", str(index_dir),
         "--out", str(tmp_path / "pred.tsv")],
        capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == EXIT_DATA
    assert "Traceback" not in done.stderr
    assert done.stderr.startswith("error: ")
    assert done.stderr.count("\n") == 1
    assert "model.pkl:0: not a model file" in done.stderr


@pytest.mark.parametrize("payload", [b"", b"\x80\x05garbage",
                                     pickle.dumps({"kind": "NaiveBayes"}),
                                     pickle.dumps(None)],
                         ids=["empty", "truncated", "dict", "none"])
def test_model_file_without_classifier_is_parse_error(tmp_path, payload):
    (tmp_path / "model.pkl").write_bytes(payload)
    with pytest.raises(ParseError, match=r"model\.pkl:0: not a model file"):
        load_classifier(str(tmp_path))


def test_unexpected_exception_is_one_internal_error_line(tmp_path, monkeypatch,
                                                        capsys):
    def broken(*args, **kwargs):
        raise RuntimeError("stage blew up\nsecond line")

    monkeypatch.setattr(cli, "documents_to_index", broken)
    code = main(["pipeline", "--input", TOY_CORPUS,
                 "--categories", TOY_CATEGORIES, "--out", str(tmp_path)])
    assert code == EXIT_INTERNAL
    err = capsys.readouterr().err
    assert err == "internal error: RuntimeError('stage blew up\\nsecond line')\n"


@pytest.mark.parametrize("text, feature", [
    ("x&#99999999;y", "x�y"), ("a&#xD800;b", "a�b")])
def test_invalid_numeric_entity_indexes_as_replacement_char(tmp_path, text,
                                                            feature):
    corpus = tmp_path / "c.csv"
    corpus.write_text(f"d0\tsports\t{text}\n", encoding="utf-8")
    out = tmp_path / "idx"
    assert main(["index", "--input", str(corpus), "--categories",
                 TOY_CATEGORIES, "--out", str(out)]) == EXIT_OK
    features = (out / "features.tsv").read_text(encoding="utf-8")
    assert f"\t{feature}\n" in features


def test_undecodable_corpus_bytes_exit_2_with_line(tmp_path, capsys):
    corpus = tmp_path / "c.csv"
    corpus.write_bytes(b"d0\tsports\tgood\nd1\tsports\t\xff\xfe\n")
    assert main(["index", "--input", str(corpus), "--categories",
                 TOY_CATEGORIES, "--out", str(tmp_path / "idx")]) == EXIT_DATA
    assert f"{corpus}:2:" in capsys.readouterr().err


def test_undecodable_predictions_bytes_exit_2_with_line(tmp_path, capsys):
    idx = str(tmp_path / "idx")
    assert main(["index", "--input", TOY_CORPUS, "--categories",
                 TOY_CATEGORIES, "--out", idx]) == EXIT_OK
    pred = tmp_path / "pred.tsv"
    pred.write_bytes(b"0\t0\n1\t\xff\n")
    assert main(["eval", "--pred", str(pred), "--gold", idx,
                 "--out", str(tmp_path / "eval.tsv")]) == EXIT_DATA
    assert f"{pred}:2:" in capsys.readouterr().err
