"""The CLI stages: a pipeline run hands its stages' objects over in memory
and must write what the same stages write as separate subcommands; a
malformed index row exits 2 naming its file and line."""

import os

import pytest

from jatecs.cli import EXIT_DATA, EXIT_OK, main

TOY_DIR = os.path.join(os.path.dirname(__file__), "..", "src", "jatecs",
                       "data", "toy")
TOY_CORPUS = os.path.join(TOY_DIR, "corpus.csv")
TOY_CATEGORIES = os.path.join(TOY_DIR, "categories.txt")


def _tree(root):
    """{relative path: bytes} of every file below root."""
    files = {}
    for base, _, names in os.walk(root):
        for name in names:
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                files[os.path.relpath(path, root)] = fh.read()
    return files


@pytest.mark.parametrize("tsr, weight, learner", [
    (["--func", "ig", "--policy", "rr", "--k", "300"],
     ["--scheme", "tfidf"], ["--learner", "nb"]),
    (["--func", "chi2", "--policy", "local", "--k", "60"],
     ["--scheme", "bm25", "--k1", "1.4"],
     ["--learner", "rocchio", "--param", "beta=8"]),
])
def test_pipeline_equals_separate_subcommands(tmp_path, capsys, tsr, weight,
                                              learner):
    reader = ["--input", TOY_CORPUS, "--categories", TOY_CATEGORIES,
              "--extractor", "chargrams", "--ngram", "4"]
    piped, staged = str(tmp_path / "piped"), str(tmp_path / "staged")
    assert main(["pipeline", *reader, *tsr, *weight, *learner,
                 "--out", piped]) == EXIT_OK
    piped_out = capsys.readouterr().out

    def path(name):
        return os.path.join(staged, name)

    assert main(["index", *reader, "--out", path("index")]) == EXIT_OK
    capsys.readouterr()  # the pipeline's index stage reports nothing
    for argv in (
            ["tsr", "--index", path("index"), *tsr, "--out", path("tsr")],
            ["weight", "--index", path("tsr"), *weight, "--out",
             path("weight")],
            ["train", "--index", path("weight"), *learner, "--out",
             path("model")],
            ["classify", "--model", path("model"), "--index", path("weight"),
             "--out", path("predictions.tsv")],
            ["eval", "--pred", path("predictions.tsv"), "--gold",
             path("weight"), "--out", path("eval.tsv")]):
        assert main(argv) == EXIT_OK, argv
    staged_out = capsys.readouterr().out

    piped_files, staged_files = _tree(piped), _tree(staged)
    assert "model/model.pkl" in piped_files
    assert sorted(piped_files) == sorted(staged_files)
    for name, data in piped_files.items():
        assert data == staged_files[name], name
    stages = "index,tsr,weight,train,classify,eval"
    assert piped_out.replace(piped, "ROOT") == \
        staged_out.replace(staged, "ROOT") + f"pipeline done: {stages} -> ROOT\n"


@pytest.fixture
def index_dir(tmp_path):
    corpus = tmp_path / "corpus.csv"
    corpus.write_text(
        "d0\tham\tthe quick brown fox jumps over the dog\n"
        "d1\tham\tthe lazy dog sleeps in the sun all day\n"
        "d2\tspam\tbuy cheap pills now great offer deal\n"
        "d3\tspam\tcheap offer winner click now free prize\n",
        encoding="utf-8")
    cats = tmp_path / "cats.txt"
    cats.write_text("ham\nspam\n", encoding="utf-8")
    out = tmp_path / "idx"
    assert main(["index", "--input", str(corpus), "--categories", str(cats),
                 "--out", str(out)]) == EXIT_OK
    return out


def _replace_line(path, line_no, text):
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[line_no - 1] = text
    path.write_text("".join(lines), encoding="utf-8")


@pytest.mark.parametrize("name, line_no, text", [
    ("content.tsv", 4, "0\t3\n"),              # wrong field count
    ("content.tsv", 5, "0\tfour\t1\n"),        # non-numeric field
    ("content.tsv", 6, "0\t4\t1\n"),           # duplicate (d, f) row
    ("weights.tsv", 3, "0\t1\t1.0\n"),         # duplicate (d, f) row
])
def test_malformed_index_row_exits_2(index_dir, tmp_path, capsys, name,
                                     line_no, text):
    path = index_dir / name
    rows = path.read_text(encoding="utf-8").splitlines()
    # lines 1-6 hold document 0's features 0..5
    assert [row.split("\t")[:2] for row in rows[:6]] == \
        [["0", str(f)] for f in range(6)]
    _replace_line(path, line_no, text)
    code = main(["kfold", "--index", str(index_dir), "--k", "2",
                 "--out", str(tmp_path / "kfold.tsv")])
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert f"{name}:{line_no}:" in err
    assert "Traceback" not in err
