"""A warning numpy raises while a command runs is one `warning: <message>`
line on stderr, like the toolkit's own warnings: no file name, no echoed
source line, and the exit code and stdout of the command are unchanged.
Also: an Achlioptas projection model records no nonzeros count, since it
has none fixed."""

import os

import pytest

from jatecs.cli import EXIT_OK, main

TOY_DIR = os.path.join(os.path.dirname(__file__), "..", "src", "jatecs",
                       "data", "toy")


@pytest.fixture(scope="module")
def toy(tmp_path_factory):
    root = tmp_path_factory.mktemp("toy")
    assert main(["pipeline", "--input", os.path.join(TOY_DIR, "corpus.csv"),
                 "--categories", os.path.join(TOY_DIR, "categories.txt"),
                 "--k", "200", "--scheme", "tfidf", "--learner", "nb",
                 "--stages", "index,tsr,weight",
                 "--out", str(root / "run")]) == EXIT_OK
    return root / "run"


def _run(capsys, argv):
    capsys.readouterr()
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err.splitlines()


def test_overflowing_rocchio_warns_in_one_line_per_warning(toy, tmp_path,
                                                           capsys):
    model = str(tmp_path / "model")
    code, out, err = _run(capsys, [
        "train", "--index", str(toy / "weight"), "--learner", "rocchio",
        "--param", "beta=1e308", "--out", model])
    assert code == EXIT_OK
    assert out == f"trained Rocchio on D=60 -> {model}\n"
    assert err == ["warning: overflow encountered in multiply"]

    pred = str(tmp_path / "pred.tsv")
    code, out, err = _run(capsys, [
        "classify", "--model", model, "--index", str(toy / "index"),
        "--out", pred])
    assert code == EXIT_OK
    assert out == f"classified D=60 -> {pred}\n"
    assert err == ["warning: overflow encountered in at",
                   "warning: invalid value encountered in divide"]

    # a second run in the same process warns again
    code, _, again = _run(capsys, [
        "classify", "--model", model, "--index", str(toy / "index"),
        "--out", pred])
    assert code == EXIT_OK and again == err


def test_achlioptas_model_does_not_depend_on_nonzeros(toy, tmp_path, capsys):
    models = []
    for nonzeros in ("2", "50"):
        out = tmp_path / f"nz{nonzeros}"
        assert main(["project", "--index", str(toy / "weight"),
                     "--kind", "achlioptas", "--dim", "200",
                     "--nonzeros", nonzeros, "--out", str(out)]) == EXIT_OK
        models.append((out / "model.tsv").read_bytes())
    assert models[0] == models[1]
    assert b"nonzeros\t0\n" in models[0]
