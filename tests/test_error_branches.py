"""Error branches no other test reaches: a bad CLI option exits 1, a
malformed predictions, LibSVM or ARFF file exits 2 with one `error:` line
naming its file and line, and the library's argument checks raise
ValidationError with their documented text."""

import os

import pytest

from jatecs import build_index
from jatecs.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, main
from jatecs.errors import ValidationError
from jatecs.evaluation import ContingencyTableSet, micro_macro
from jatecs.experiments import make_folds
from jatecs.index import subset_index
from jatecs.learners import (AdaBoostMHLearner, NaiveBayesLearner,
                             classify_category, train)
from jatecs.projection import LIGHTWEIGHT_RI, build_projection
from jatecs.quantification import (PrevalenceEstimate,
                                   evaluate_quantification, learn_quantifiers)
from jatecs.tsr import IG, apply_selection, per_category_rankings, rank_features

TOY_DIR = os.path.join(os.path.dirname(__file__), "..", "src", "jatecs",
                       "data", "toy")


@pytest.fixture(scope="module")
def toy_index_dir(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("toy") / "index")
    assert main(["index", "--input", os.path.join(TOY_DIR, "corpus.csv"),
                 "--categories", os.path.join(TOY_DIR, "categories.txt"),
                 "--out", out]) == EXIT_OK
    return out


def _one_error(capsys, needle):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert needle in err, err


@pytest.mark.parametrize("argv, message", [
    (["kfold", "--param", "k"], "--param expects name=value, got 'k'"),
    (["grid", "--learner", "knn", "--param", "k=,"],
     "empty value list for grid axis 'k'"),
], ids=["param without value", "empty grid axis"])
def test_bad_option_exits_1(toy_index_dir, tmp_path, capsys, argv, message):
    out = tmp_path / "out.tsv"
    assert main([*argv, "--index", toy_index_dir, "--k", "3",
                 "--out", str(out)]) == EXIT_USAGE
    _one_error(capsys, message)
    assert not out.exists()


@pytest.mark.parametrize("row, message", [
    ("0\t0\t1", "pred.tsv:2: expected dID<TAB>cID"),
    ("x\t0", "pred.tsv:2: non-integer id"),
], ids=["three fields", "non-integer id"])
def test_malformed_predictions_exit_2(toy_index_dir, tmp_path, capsys, row,
                                      message):
    pred = tmp_path / "pred.tsv"
    pred.write_text(f"0\t0\n{row}\n", encoding="utf-8")
    assert main(["eval", "--pred", str(pred), "--gold", toy_index_dir,
                 "--out", str(tmp_path / "eval.tsv")]) == EXIT_DATA
    _one_error(capsys, message)


def _index_file(tmp_path, reader, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    cats = tmp_path / "cats.txt"
    cats.write_text("p\nn\n", encoding="utf-8")
    out = tmp_path / "index"
    code = main(["index", "--reader", reader, "--input", str(path),
                 "--categories", str(cats), "--out", str(out)])
    assert not out.exists()
    return code


@pytest.mark.parametrize("pairs, message", [
    ("0:1", "c.svm:2: feature index 0 is not >= 1"),
    ("a:1", "c.svm:2: unparsable feature index 'a'"),
    ("1:nan", "c.svm:2: non-finite value 'nan'"),
], ids=["index 0", "index not an int", "nan value"])
def test_malformed_libsvm_exits_2(tmp_path, capsys, pairs, message):
    text = f"p 1:1\nn {pairs}\n"
    assert _index_file(tmp_path, "libsvm", "c.svm", text) == EXIT_DATA
    _one_error(capsys, message)


HEADER = ("@relation r\n@attribute a numeric\n@attribute color {red, blue}\n"
          "@attribute class {p, n}\n@data\n")


@pytest.mark.parametrize("text, message", [
    ("@relation r\n@data\n", "c.arff:2: @data before any @attribute"),
    (HEADER + "{0 1, 2 p\n", "c.arff:6: unterminated sparse row"),
    (HEADER + "{0 1, 2}\n", "c.arff:6: malformed sparse entry '2'"),
    (HEADER + "{0 1, x p}\n", "c.arff:6: unparsable sparse index 'x'"),
    (HEADER + "{0 1, 0 2}\n", "c.arff:6: duplicate sparse index 0"),
    (HEADER + "1, red, p\nx, red, p\n",
     "c.arff:7: unparsable numeric value 'x'"),
    (HEADER + "1, green, p\n",
     "c.arff:6: nominal value 'green' not in declared set"),
], ids=["data first", "unterminated", "malformed entry", "bad sparse index",
        "duplicate sparse index", "bad numeric", "undeclared nominal"])
def test_malformed_arff_exits_2(tmp_path, capsys, text, message):
    assert _index_file(tmp_path, "arff", "c.arff", text) == EXIT_DATA
    _one_error(capsys, message)


def _index(num_docs=4, categories=("x", "y")):
    docs = [(f"d{d}", [("a", d + 1), (f"f{d % 2}", 1)])
            for d in range(num_docs)]
    labels = [(name, [categories[d % len(categories)]] if categories else [])
              for d, (name, _) in enumerate(docs)]
    return build_index(docs, labels, list(categories))


LIBRARY_ERRORS = {
    "rank an empty index": (
        lambda: rank_features(_index(0), IG),
        "cannot rank features of an empty index"),
    "unknown global policy": (
        lambda: rank_features(_index(), IG, policy="median"),
        "unknown global policy 'median'"),
    "per-category rankings of an empty index": (
        lambda: per_category_rankings(_index(0), IG),
        "cannot rank features of an empty index"),
    "selection and local both given": (
        lambda: apply_selection(_index(), selected={0}, local={0: {0}}),
        "specify exactly one of selected / local"),
    "unknown fold mode": (
        lambda: make_folds(_index(), 2, mode="random"),
        "unknown fold mode 'random'"),
    "no categories to evaluate": (
        lambda: micro_macro(ContingencyTableSet({})),
        "no categories to evaluate"),
    "no boosting iterations": (
        lambda: AdaBoostMHLearner(iterations=0), "iterations must be >= 1"),
    "train without categories": (
        lambda: train(NaiveBayesLearner(), _index(categories=())),
        "cannot train without categories"),
    "unknown learner": (
        lambda: train(object(), _index()), "unknown learner <object"),
    "unknown category id": (
        lambda: classify_category(train(NaiveBayesLearner(), _index()),
                                  _index(), 2),
        "unknown category id 2"),
    "quantify one training document": (
        lambda: learn_quantifiers(NaiveBayesLearner(), _index(1), folds=2),
        "need at least 2 training documents"),
    "empty test set": (
        lambda: evaluate_quantification(PrevalenceEstimate({}), {}, 0),
        "test_size must be >= 1"),
    "estimate and truth differ": (
        lambda: evaluate_quantification(PrevalenceEstimate({"CC": {0: 0.5}}),
                                        {1: 0.5}, 2),
        "estimate and truth category sets differ"),
    "projection dim 0": (
        lambda: build_projection(_index(), LIGHTWEIGHT_RI, 0),
        "projection dim must be >= 1"),
    "unknown projection kind": (
        lambda: build_projection(_index(), "Gaussian", 4),
        "unknown projection kind 'Gaussian'"),
    "random indexing without nonzeros": (
        lambda: build_projection(_index(), LIGHTWEIGHT_RI, 4, nonzeros=0),
        "nonzeros must be >= 1"),
    "empty feature keep set": (
        lambda: subset_index(_index(), keep_features=[]),
        "empty feature keep set"),
}


@pytest.mark.parametrize("case", sorted(LIBRARY_ERRORS))
def test_library_argument_checks(case):
    call, message = LIBRARY_ERRORS[case]
    with pytest.raises(ValidationError) as exc:
        call()
    assert str(exc.value).startswith(message), str(exc.value)
