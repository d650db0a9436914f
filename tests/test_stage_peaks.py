"""Memory of the tsr and classify stages: feature selection holds no
C x F array, and the scores side file is written chunk by chunk with the
bytes of one f-string per score.

On the index below (40 categories), select_features peaked at about 3 C x F
float64 arrays for rr and local and 1.2 for max when every ranking was
held as a sorted score array; the bound is 1.0.
"""

import os

import pytest

from jatecs import build_index, deserialize_index, index as index_module
from jatecs.cli import EXIT_OK, main, select_features
from jatecs.learners import load_classifier

from test_memory_bounds import _corpus, _in_cf_arrays, _peak_bytes

TOY_DIR = os.path.join(os.path.dirname(__file__), "..", "src", "jatecs",
                       "data", "toy")


@pytest.fixture(scope="module")
def many_categories():
    """40 categories over about 9,000 features."""
    docs, labels, categories = _corpus(11, 600, 40, 20_000, 40, skew=2)
    index = build_index(docs, labels, categories)
    assert index.num_categories == 40 and index.num_features > 5_000
    return index


@pytest.mark.parametrize("policy", ["rr", "local", "max"])
def test_select_features_holds_no_category_by_feature_array(many_categories,
                                                            policy):
    index = many_categories
    peak = _peak_bytes(lambda: select_features(index, "IG", policy, 200))
    in_arrays = _in_cf_arrays(index, peak)
    assert in_arrays < 1.0, in_arrays


@pytest.mark.parametrize("rows", [1, 7])
def test_scores_side_file_is_the_f_string_rendering(tmp_path, monkeypatch,
                                                    rows):
    def path(name):
        return str(tmp_path / name)

    for argv in (
            ["index", "--input", os.path.join(TOY_DIR, "corpus.csv"),
             "--categories", os.path.join(TOY_DIR, "categories.txt"),
             "--out", path("index")],
            ["weight", "--index", path("index"), "--scheme", "tfidf",
             "--out", path("weight")],
            ["train", "--index", path("weight"), "--learner", "rocchio",
             "--out", path("model")]):
        assert main(argv) == EXIT_OK, argv
    monkeypatch.setattr(index_module, "_ENCODE_CHUNK_ROWS", rows)
    assert main(["classify", "--model", path("model"), "--index",
                 path("weight"), "--out", path("pred.tsv")]) == EXIT_OK

    scores = load_classifier(path("model")).score_index(
        deserialize_index(path("weight")))
    assert scores.shape[0] > 7 and scores.shape[1] > 1
    expected = "".join(f"{d}\t{c}\t{score!r}\n"
                       for d, row in enumerate(scores.tolist())
                       for c, score in enumerate(row))
    with open(path("pred-scores.tsv"), "rb") as fh:
        assert fh.read() == expected.encode()
