"""A saved model names its format and kind in the first line of its
model-meta.tsv: a model saved and loaded again scores bit for bit as the
one trained, and a model directory whose header is another format's or
another kind's, missing, or not UTF-8 is a data error (exit 2, one
`error:` line naming model-meta.tsv)."""

import os

import numpy as np
import pytest

from jatecs.cli import EXIT_DATA, EXIT_OK, main
from jatecs.errors import ParseError
from jatecs.index import deserialize_index
from jatecs import learners
from jatecs.learners import (LEARNERS, load_classifier, make_learner,
                             save_classifier, train)

TOY_DIR = os.path.join(os.path.dirname(__file__), "..", "src", "jatecs",
                       "data", "toy")


@pytest.fixture(scope="module")
def toy(tmp_path_factory):
    """The weighted toy index and an NB model trained on it by the CLI."""
    root = tmp_path_factory.mktemp("toy")
    assert main(["pipeline", "--input", os.path.join(TOY_DIR, "corpus.csv"),
                 "--categories", os.path.join(TOY_DIR, "categories.txt"),
                 "--stages", "index,tsr,weight,train", "--k", "200",
                 "--out", str(root)]) == EXIT_OK
    return root


@pytest.mark.parametrize("kind", sorted(LEARNERS))
def test_round_trip_scores_bit_equal(toy, tmp_path, kind):
    index = deserialize_index(str(toy / "weight"))
    classifier = train(make_learner(kind), index)
    save_classifier(classifier, tmp_path)
    with open(tmp_path / "model-meta.tsv", encoding="utf-8") as fh:
        assert fh.readline() == (
            f"jatecs-model\t{learners.MODEL_FORMAT}\t{classifier.kind}\n")
    loaded = load_classifier(str(tmp_path))
    assert loaded.kind == classifier.kind
    got, expected = loaded.score_index(index), classifier.score_index(index)
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()
    assert np.array_equal(loaded.thresholds, classifier.thresholds)


def _broken_model(toy, tmp_path, change):
    """A copy of the toy model whose model-meta.tsv `change` rewrites (it
    is given the file's bytes and returns new ones, or None to delete it)."""
    model = tmp_path / "model"
    model.mkdir()
    for name in ("model.pkl", "model-meta.tsv"):
        (model / name).write_bytes((toy / "model" / name).read_bytes())
    data = change((model / "model-meta.tsv").read_bytes())
    if data is None:
        (model / "model-meta.tsv").unlink()
    else:
        (model / "model-meta.tsv").write_bytes(data)
    return model


def _first_line(line):
    """Replace the first line by `line` (a function of the model format)."""
    def change(data):
        return line(learners.MODEL_FORMAT).encode() + data[data.index(b"\n"):]
    return change


CASES = {
    "old kind line": (_first_line(lambda n: "kind\tNaiveBayes"), 1),
    "another kind": (_first_line(lambda n: f"jatecs-model\t{n}\tRocchio"), 1),
    "another format": (_first_line(
        lambda n: f"jatecs-model\t{n + 1}\tNaiveBayes"), 1),
    "missing": (lambda data: None, 0),
    "not UTF-8": (lambda data: b"\xff" + data, 1),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_bad_header_exits_2_naming_the_file(toy, tmp_path, capsys, case):
    change, line_no = CASES[case]
    model = _broken_model(toy, tmp_path, change)
    code = main(["classify", "--model", str(model), "--index",
                 str(toy / "weight"), "--out", str(tmp_path / "pred.tsv")])
    err = capsys.readouterr().err
    assert code == EXIT_DATA
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"model-meta.tsv:{line_no}: " in err
    assert not (tmp_path / "pred.tsv").exists()
    with pytest.raises(ParseError, match=rf"model-meta\.tsv:{line_no}: "):
        load_classifier(str(model))


def test_header_is_checked_after_the_payload(toy, tmp_path):
    # a model.pkl that holds no classifier keeps its own message
    model = _broken_model(toy, tmp_path, lambda data: None)
    (model / "model.pkl").write_bytes(b"garbage")
    with pytest.raises(ParseError, match=r"model\.pkl:0: not a model file"):
        load_classifier(str(model))
