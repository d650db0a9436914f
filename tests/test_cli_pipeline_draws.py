"""`pipeline` against the same stages run as subcommands, over drawn
configurations: every file the pipeline writes under --out must equal the
file the subcommands write at the same relative path, and the two runs
must print the same lines.  A stage list the stage table rejects exits 1
before any work."""

import contextlib
import io
import os
import tempfile

import pytest
from hypothesis import example, given, settings, strategies as st

from jatecs.cli import EXIT_OK, EXIT_USAGE, main

TOY_DIR = os.path.join(os.path.dirname(__file__), "..", "src", "jatecs",
                       "data", "toy")
TOY_CORPUS = os.path.join(TOY_DIR, "corpus.csv")
TOY_CATEGORIES = os.path.join(TOY_DIR, "categories.txt")

CHAINS = ("index,tsr,weight,train,classify,eval",
          "index,tsr,weight,train,classify,eval,quantify",
          "index,tsr,weight,train,quantify",
          "index,tsr,weight,quantify")

# one hyperparameter per learner; boosting rounds kept few for speed
PARAMS = {
    "nb": st.just([]),
    "rocchio": st.floats(0.0, 32.0).map(lambda v: [f"beta={v!r}"]),
    "knn": st.integers(1, 70).map(lambda k: [f"k={k}"]),
    "boost": st.integers(1, 10).map(lambda t: [f"iterations={t}"]),
}


@st.composite
def configurations(draw):
    extractor = draw(st.sampled_from(["bow", "chargrams", "set"]))
    reader = ["--extractor", extractor,
              "--stoplist", draw(st.sampled_from(["en", "none"])),
              "--stem", draw(st.sampled_from(["en", "none"]))]
    if extractor != "bow":
        reader += ["--ngram", str(draw(st.integers(2, 5)))]
    tsr = ["--func", draw(st.sampled_from(["ig", "chi2", "pmi", "or"])),
           "--policy", draw(st.sampled_from(["local", "max", "sum", "wavg",
                                             "rr"])),
           "--k", str(draw(st.integers(1, 400)))]
    weight = ["--scheme", draw(st.sampled_from(["tfidf", "bm25"]))]
    if weight[1] == "bm25":
        weight += ["--k1", repr(draw(st.floats(0.1, 3.0))),
                   "--b", repr(draw(st.floats(0.0, 1.0)))]
    learner = draw(st.sampled_from(sorted(PARAMS)))
    learner = ["--learner", learner] + [
        arg for param in draw(PARAMS[learner]) for arg in ("--param", param)]
    return {"reader": reader, "tsr": tsr, "weight": weight,
            "learner": learner, "stages": draw(st.sampled_from(CHAINS)),
            "folds": ["--folds", str(draw(st.integers(2, 4)))],
            "test_third": draw(st.none() | st.integers(0, 2))}


def _tree(root):
    """{relative path: bytes} of every file below root."""
    files = {}
    for base, _, names in os.walk(root):
        for name in names:
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                files[os.path.relpath(path, root)] = fh.read()
    return files


def _run(argv):
    """(exit code, stdout, stderr) of one CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _staged_calls(config, root, test_index):
    """The subcommand of each pipeline stage after `index`, by stage."""
    def path(name):
        return os.path.join(root, name)

    gold = test_index or path("weight")
    return {
        "tsr": ["tsr", "--index", path("index"), *config["tsr"],
                "--out", path("tsr")],
        "weight": ["weight", "--index", path("tsr"), *config["weight"],
                   "--out", path("weight")],
        "train": ["train", "--index", path("weight"), *config["learner"],
                  "--out", path("model")],
        "classify": ["classify", "--model", path("model"), "--index", gold,
                     "--out", path("predictions.tsv")],
        "eval": ["eval", "--pred", path("predictions.tsv"), "--gold", gold,
                 "--out", path("eval.tsv")],
        "quantify": ["quantify", "--train", path("weight"), "--test", gold,
                     *config["learner"], *config["folds"],
                     "--out", path("quantify.tsv")],
    }


@settings(max_examples=30, deadline=None, derandomize=True)
@given(config=configurations())
@example(config={  # kNN scoring a test index, which the draws above miss
    "reader": ["--extractor", "bow", "--stoplist", "en", "--stem", "en"],
    "tsr": ["--func", "chi2", "--policy", "local", "--k", "40"],
    "weight": ["--scheme", "bm25", "--k1", "1.4", "--b", "0.5"],
    "learner": ["--learner", "knn", "--param", "k=5"],
    "stages": CHAINS[1], "folds": ["--folds", "3"], "test_third": 1})
def test_pipeline_equals_its_stages_as_subcommands(config):
    with tempfile.TemporaryDirectory() as tmp:
        piped, staged = os.path.join(tmp, "piped"), os.path.join(tmp, "staged")
        inputs = ["--input", TOY_CORPUS, "--categories", TOY_CATEGORIES]
        test_input = test_index = None
        if config["test_third"] is not None:
            test_input = os.path.join(tmp, "test.csv")
            with open(TOY_CORPUS, encoding="utf-8") as fh:
                lines = fh.readlines()[config["test_third"]::3]
            with open(test_input, "w", encoding="utf-8") as fh:
                fh.writelines(lines)
            test_index = os.path.join(staged, "test-index")
        stages = config["stages"]
        options = [*config["reader"], *config["tsr"], *config["weight"],
                   *config["learner"], *config["folds"], "--stages", stages]
        if test_input:
            options += ["--test-input", test_input]
        code, piped_out, piped_err = _run(["pipeline", *inputs, *options,
                                           "--out", piped])
        assert code == EXIT_OK, piped_err

        # the pipeline's index stage, and its test index, report nothing
        indexes = [(inputs, os.path.join(staged, "index"))]
        if test_input:
            indexes.append((["--input", test_input, "--categories",
                             TOY_CATEGORIES], test_index))
        for reader, out in indexes:
            code, _, err = _run(["index", *reader, *config["reader"],
                                 "--out", out])
            assert code == EXIT_OK, err
        calls = _staged_calls(config, staged, test_index)
        staged_out = staged_err = ""
        for stage in stages.split(",")[1:]:
            code, out, err = _run(calls[stage])
            assert code == EXIT_OK, (stage, err)
            staged_out += out
            staged_err += err

        piped_files, staged_files = _tree(piped), _tree(staged)
        assert sorted(piped_files) == sorted(staged_files)
        for name, data in piped_files.items():
            assert data == staged_files[name], name
        assert piped_out.replace(piped, "ROOT") == \
            staged_out.replace(staged, "ROOT") + \
            f"pipeline done: {stages} -> ROOT\n"
        assert piped_err == staged_err


@pytest.mark.parametrize("stages, message", [
    ("index,classify", "'classify' requires the 'train' stage"),
    ("index,train,eval", "'eval' requires the 'classify' stage"),
    ("tsr,weight", "'tsr' requires the 'index' stage"),
    ("train,classify,eval", "'train' requires the 'index' stage"),
    ("index,weight,tsr", "stages out of order: index,weight,tsr (canonical "
     "order: index,tsr,weight,train,classify,eval,quantify)"),
    ("index,index", "stages out of order"),
    ("index,fit", "unknown stage 'fit'"),
    (",", "empty stage list"),
])
def test_a_bad_stage_list_exits_1_before_any_work(tmp_path, capsys, stages,
                                                  message):
    code, out, err = _run(["pipeline", "--input", TOY_CORPUS, "--categories",
                           TOY_CATEGORIES, "--stages", stages,
                           "--out", str(tmp_path / "run")])
    assert code == EXIT_USAGE
    assert err.startswith(f"error: {message}") and err.count("\n") == 1
    assert not (tmp_path / "run").exists()
