"""Each experiment building block is defined once and every caller uses it:
one k-fold split, one reader registry, one learner registry, one extractor
config per pipeline run.  Also covers the checks that ride along: non-finite
hyperparameters, slopes and k1 exit 2; `eval --pred` errors name their line;
every warning is one `warning:` line."""

import dataclasses
import os

import numpy as np
import pytest

import jatecs.textproc as textproc
from jatecs.cli import (COMMANDS, EXIT_DATA, EXIT_OK, build_parser, main)
from jatecs.corpus import (READERS, documents_to_index, read_arff,
                           read_category_file, read_corpus, read_csv)
from jatecs.errors import ParseError, ValidationError
from jatecs.evaluation import ContingencyTableSet, compare
from jatecs.experiments import (SIMPLE, STRATIFIED, fold_splits,
                                kfold_evaluate, make_folds)
from jatecs.index import subset_index
from jatecs.learners import (LEARNERS, AdaBoostMHLearner, KnnLearner,
                             NaiveBayesLearner, RocchioLearner, make_learner,
                             predict_classification, train)
from jatecs.quantification import (LogisticScaling, RatesEstimate, _mean_where,
                                   _rate_curve, learn_quantifiers, scale_score)
from jatecs.textproc import ExtractorConfig
from jatecs.weighting import tfidf_normalized

TOY_DIR = os.path.join(os.path.dirname(__file__), "..", "src", "jatecs",
                       "data", "toy")
TOY_CORPUS = os.path.join(TOY_DIR, "corpus.csv")
TOY_CATEGORIES = os.path.join(TOY_DIR, "categories.txt")

ALL_LEARNERS = [NaiveBayesLearner(), RocchioLearner(), KnnLearner(k=5),
                AdaBoostMHLearner(iterations=5)]


@pytest.fixture(scope="module")
def toy_index():
    categories = read_category_file(TOY_CATEGORIES)
    docs = read_csv(TOY_CORPUS, categories=categories)
    return tfidf_normalized(documents_to_index(docs, categories,
                                               ExtractorConfig(kind="BOW")))


@pytest.fixture(scope="module")
def thin_index(toy_index):
    """The toy index with one 'science' document left."""
    science = toy_index.categories.id("science")
    drop = sorted(toy_index.category_documents(science))[1:]
    return subset_index(toy_index,
                        keep_docs=set(range(toy_index.num_documents))
                        - set(drop))


# -- one k-fold split -------------------------------------------------------


def _reference_splits(index, plan):
    """The fold loop written out: (test ids, train index, test index)."""
    every = range(index.num_documents)
    for fold in range(plan.k):
        test_ids = [d for d in every if plan.assignment[d] == fold]
        train_ids = {d for d in every if plan.assignment[d] != fold}
        yield (test_ids, subset_index(index, keep_docs=train_ids),
               subset_index(index, keep_docs=set(test_ids)))


def _reference_kfold(learner, index, plan):
    total = ContingencyTableSet({})
    for _, train_index, test_index in _reference_splits(index, plan):
        predictions = predict_classification(train(learner, train_index),
                                             test_index)
        gold = {d: test_index.document_categories(d)
                for d in range(test_index.num_documents)}
        total = total + compare(predictions, gold, test_index.num_documents,
                                test_index.num_categories)
    return total


@pytest.mark.parametrize("mode", [SIMPLE, STRATIFIED])
@pytest.mark.parametrize("learner", ALL_LEARNERS, ids=lambda ln: ln.kind)
def test_kfold_evaluate_equals_the_reference_fold_loop(toy_index, learner,
                                                       mode):
    plan = make_folds(toy_index, 4, mode=mode, seed=5)
    assert kfold_evaluate(learner, toy_index, plan).per_category == \
        _reference_kfold(learner, toy_index, plan).per_category


def test_fold_splits_partition_the_documents(toy_index):
    plan = make_folds(toy_index, 3, mode=STRATIFIED, seed=1)
    splits = list(fold_splits(toy_index, plan))
    assert [fold for fold, *_ in splits] == [0, 1, 2]
    seen = []
    for fold, test_ids, train_index, test_index in splits:
        assert test_ids == plan.fold_documents(fold)
        assert test_index.documents.names == \
            tuple(toy_index.documents.name(d) for d in test_ids)
        assert train_index.num_documents + len(test_ids) == \
            toy_index.num_documents
        seen.extend(test_ids)
    assert sorted(seen) == list(range(toy_index.num_documents))


def test_fold_splits_keep_the_plan_checks(toy_index, thin_index):
    plan = make_folds(thin_index, 3, seed=0)
    with pytest.raises(ValidationError, match="does not cover"):
        next(fold_splits(toy_index, plan))
    lopsided = dataclasses.replace(
        plan, assignment={d: 0 for d in range(thin_index.num_documents)})
    with pytest.raises(ValidationError, match="empty split"):
        next(fold_splits(thin_index, lopsided))


def _reference_rates(learner, index, folds, mode):
    n_docs, n_cats = index.num_documents, index.num_categories
    plan = make_folds(index, min(folds, n_docs), mode=mode, seed=0)
    scores = np.zeros((n_docs, n_cats))
    decided = np.zeros((n_docs, n_cats), dtype=bool)
    for test_ids, train_index, test_index in _reference_splits(index, plan):
        classifier = train(learner, train_index)
        scores[test_ids] = classifier.score_index(test_index)
        decided[test_ids] = classifier.decisions(scores[test_ids])
    rates = {}
    scaling = LogisticScaling()
    for c in range(n_cats):
        labels = [c in index.document_categories(d) for d in range(n_docs)]
        raw = scores[:, c].tolist()
        scaled = [scale_score(scaling, s) for s in raw]
        rates[c] = RatesEstimate(
            tpr=_mean_where(decided[:, c].tolist(), labels, True),
            fpr=_mean_where(decided[:, c].tolist(), labels, False),
            tpr_p=_mean_where(scaled, labels, True),
            fpr_p=_mean_where(scaled, labels, False),
            curve=_rate_curve(raw, labels),
            curve_scaled=_rate_curve(scaled, labels))
    return rates


@pytest.mark.parametrize("learner", ALL_LEARNERS, ids=lambda ln: ln.kind)
def test_learn_quantifiers_rates_equal_the_reference_stratified(toy_index,
                                                                learner):
    pool = learn_quantifiers(learner, toy_index, folds=5)
    assert not any("simple folds" in w for w in pool.warnings)
    assert pool.rates == _reference_rates(learner, toy_index, 5, STRATIFIED)


@pytest.mark.parametrize("learner", ALL_LEARNERS, ids=lambda ln: ln.kind)
def test_learn_quantifiers_rates_equal_the_reference_simple(thin_index,
                                                            learner):
    pool = learn_quantifiers(learner, thin_index, folds=4)
    assert any("simple folds" in w for w in pool.warnings)
    assert pool.rates == _reference_rates(learner, thin_index, 4, SIMPLE)


# -- one reader and one learner registry ------------------------------------


def _choices(option):
    return {command: choices for command, rows in COMMANDS.items()
            for name, _, _, choices, _ in rows if name == option}


def test_reader_and_learner_choices_are_the_registries():
    readers, learners = _choices("reader"), _choices("learner")
    assert set(readers) == {"index", "pipeline"}
    assert set(learners) == {"train", "quantify", "kfold", "grid",
                             "pipeline"}
    assert all(c == tuple(READERS) for c in readers.values())
    assert all(c == tuple(LEARNERS) for c in learners.values())
    parser = build_parser()
    for name in LEARNERS:
        assert parser.parse_args(["train", "--learner", name]).learner == name
    for name in READERS:
        assert parser.parse_args(["index", "--reader", name]).reader == name


def test_read_corpus_dispatches_through_readers(tmp_path, monkeypatch):
    path = tmp_path / "c.txt"
    path.write_text("x\n", encoding="utf-8")
    calls = []
    monkeypatch.setitem(READERS, "fake", lambda p, **kw: calls.append(kw)
                        or ["doc"])
    assert read_corpus("fake", str(path), ["a"], separator=";") == ["doc"]
    assert calls == [{"categories": ["a"], "separator": ";"}]
    with pytest.raises(ValidationError, match="unknown reader"):
        read_corpus("xml", str(path), ["a"])


def test_kind_is_a_class_constant_not_a_field():
    assert NaiveBayesLearner().kind == "NaiveBayes"
    for cls in LEARNERS.values():
        assert "kind" not in {f.name for f in dataclasses.fields(cls)}
    with pytest.raises(ValidationError, match="hyperparameter 'kind'"):
        make_learner("nb", kind="KNN")
    with pytest.raises(TypeError):
        NaiveBayesLearner(kind="KNN")


def test_trained_hyperparameters_are_the_fields(toy_index):
    classifier = train(RocchioLearner(beta=8.0), toy_index)
    assert classifier.hyperparameters == {"beta": 8.0, "gamma": 4.0,
                                          "threshold": 0.0}


def test_cli_param_kind_is_a_data_error(tmp_path, capsys):
    index = _toy_index_dir(tmp_path, capsys)
    code = main(["train", "--index", index, "--param", "kind=KNN",
                 "--out", str(tmp_path / "m")])
    assert code == EXIT_DATA
    assert capsys.readouterr().err == \
        "error: unknown nb hyperparameter 'kind'\n"


# -- readers check labels on their line -------------------------------------

_ARFF = ("@relation t\n"
         "@attribute text string\n"
         "@attribute class {a,b,z}\n"
         "@data\n"
         "'x y',a\n"
         "'y z',z\n"
         "'unparsable\n")


def test_arff_unknown_label_names_its_data_line(tmp_path, capsys):
    path = tmp_path / "t.arff"
    path.write_text(_ARFF, encoding="utf-8")
    with pytest.raises(ParseError) as exc:
        read_arff(str(path), categories=["a", "b"])
    assert exc.value.line_no == 6
    assert str(exc.value).endswith("t.arff:6: unknown label 'z'")
    with pytest.raises(ParseError, match=r"t\.arff:6: unknown label"):
        read_corpus("arff", str(path), ["a", "b"])
    cats = tmp_path / "cats.txt"
    cats.write_text("a\nb\n", encoding="utf-8")
    code = main(["index", "--reader", "arff", "--input", str(path),
                 "--categories", str(cats), "--out", str(tmp_path / "i")])
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert err == f"error: {path}:6: unknown label 'z'\n"


def test_arff_without_categories_keeps_every_label(tmp_path):
    path = tmp_path / "t.arff"
    path.write_text(_ARFF.rsplit("'unparsable", 1)[0], encoding="utf-8")
    _, docs = read_arff(str(path))
    assert [doc.labels for doc in docs] == [("a",), ("z",)]


# -- one extractor config per pipeline run ----------------------------------


def _count_porter(monkeypatch):
    calls = []
    real = textproc.porter_stem

    def counting(token):
        calls.append(token)
        return real(token)
    monkeypatch.setattr(textproc, "porter_stem", counting)
    return calls


def test_test_input_reuses_the_stem_memo(tmp_path, monkeypatch, capsys):
    calls = _count_porter(monkeypatch)
    base = ["pipeline", "--input", TOY_CORPUS, "--categories",
            TOY_CATEGORIES, "--stem", "en", "--stages",
            "index,tsr,weight,train,classify"]
    assert main(base + ["--out", str(tmp_path / "alone")]) == EXIT_OK
    alone = len(calls)
    assert alone > 0
    del calls[:]
    assert main(base + ["--test-input", TOY_CORPUS,
                        "--out", str(tmp_path / "both")]) == EXIT_OK
    # two corpus passes over the same tokens stem each token once
    assert len(calls) == alone
    capsys.readouterr()


def test_pipeline_help_shows_the_k_default(capsys):
    with pytest.raises(SystemExit):
        main(["pipeline", "--help"])
    line = next(line for line in capsys.readouterr().out.splitlines()
                if line.lstrip().startswith("--k K"))
    assert "(default: 500)" in line
    with pytest.raises(SystemExit):
        main(["tsr", "--help"])
    line = next(line for line in capsys.readouterr().out.splitlines()
                if line.lstrip().startswith("--k K"))
    assert "default" not in line


def test_tsr_k_stays_required(tmp_path, capsys):
    index = _toy_index_dir(tmp_path, capsys)
    assert main(["tsr", "--index", index, "--out", str(tmp_path / "t")]) == 1
    assert "--k is required" in capsys.readouterr().err


# -- non-finite values exit 2 -----------------------------------------------


def _toy_index_dir(tmp_path, capsys, *extra):
    index = str(tmp_path / "idx")
    assert main(["index", "--input", TOY_CORPUS, "--categories",
                 TOY_CATEGORIES, "--out", index, *extra]) == EXIT_OK
    capsys.readouterr()
    return index


def _one_error(capsys, needle):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert needle in err, err


@pytest.mark.parametrize("learner,param,name", [
    ("rocchio", "beta=nan", "beta"), ("rocchio", "gamma=-inf", "gamma"),
    ("rocchio", "threshold=inf", "threshold"),
    ("knn", "threshold=nan", "threshold")])
def test_non_finite_hyperparameter_exits_2(tmp_path, capsys, learner, param,
                                           name):
    index = _toy_index_dir(tmp_path, capsys)
    out = tmp_path / "kfold.tsv"
    assert main(["kfold", "--index", index, "--learner", learner, "--param",
                 param, "--k", "3", "--out", str(out)]) == EXIT_DATA
    _one_error(capsys, f"{name} must be finite")
    assert not out.exists()
    assert main(["grid", "--index", index, "--learner", learner, "--param",
                 param, "--k", "3", "--out", str(out)]) == EXIT_DATA
    _one_error(capsys, f"{name} must be finite")


def test_non_finite_learner_fields_raise():
    for bad in (float("nan"), float("inf"), -float("inf")):
        for make in (lambda v: RocchioLearner(beta=v),
                     lambda v: RocchioLearner(gamma=v),
                     lambda v: RocchioLearner(threshold=v),
                     lambda v: KnnLearner(threshold=v),
                     lambda v: LogisticScaling(slope=v)):
            with pytest.raises(ValidationError):
                make(bad)
    # ranges stay as they were: negative Rocchio and kNN values are legal
    RocchioLearner(beta=-1.0, gamma=-2.0, threshold=-0.5)
    KnnLearner(threshold=-1.0)


@pytest.mark.parametrize("slope", ["nan", "inf"])
def test_non_finite_slope_exits_2(tmp_path, capsys, slope):
    index = _toy_index_dir(tmp_path, capsys)
    assert main(["quantify", "--train", index, "--test", index, "--folds",
                 "3", "--slope", slope,
                 "--out", str(tmp_path / "q.tsv")]) == EXIT_DATA
    _one_error(capsys, "logistic slope must be finite")


@pytest.mark.parametrize("k1", ["nan", "inf"])
def test_non_finite_bm25_k1_exits_2(tmp_path, capsys, k1):
    index = _toy_index_dir(tmp_path, capsys)
    out = tmp_path / "w"
    assert main(["weight", "--index", index, "--scheme", "bm25", "--k1", k1,
                 "--out", str(out)]) == EXIT_DATA
    _one_error(capsys, "k1 must be finite")
    assert not out.exists()


# -- eval --pred errors name their line -------------------------------------


@pytest.mark.parametrize("row,message", [
    ("999\t0", "pred.tsv:2: unknown document 999"),
    ("-1\t0", "pred.tsv:2: unknown document -1"),
    ("0\t3", "pred.tsv:2: unknown category 3")])
def test_eval_pred_id_outside_gold_names_its_line(tmp_path, capsys, row,
                                                  message):
    index = _toy_index_dir(tmp_path, capsys)
    pred = tmp_path / "pred.tsv"
    pred.write_text(f"0\t0\n{row}\n", encoding="utf-8")
    assert main(["eval", "--pred", str(pred), "--gold", index,
                 "--out", str(tmp_path / "eval.tsv")]) == EXIT_DATA
    _one_error(capsys, message)


# -- every warning on one line format ---------------------------------------


@pytest.fixture
def no_science_index(tmp_path, capsys):
    corpus = tmp_path / "none.csv"
    with open(TOY_CORPUS, encoding="utf-8") as fh:
        corpus.write_text("".join(line for line in fh
                                  if "science" not in line.split("\t")[1]),
                          encoding="utf-8")
    index = str(tmp_path / "none")
    assert main(["index", "--input", str(corpus), "--categories",
                 TOY_CATEGORIES, "--out", index]) == EXIT_OK
    capsys.readouterr()
    return index


def test_fold_warnings_get_the_warning_prefix(tmp_path, capsys,
                                              no_science_index):
    expected = "".join(
        f"warning: fold {fold}: category 'science' has no positive "
        "training documents\n" for fold in range(3))
    for _ in range(2):  # a second main in one process prints each once
        assert main(["kfold", "--index", no_science_index, "--k", "3",
                     "--out", str(tmp_path / "k.tsv")]) == EXIT_OK
        assert capsys.readouterr().err == expected
    assert main(["grid", "--index", no_science_index, "--k", "3", "--learner",
                 "knn", "--param", "k=1,5",
                 "--out", str(tmp_path / "g.tsv")]) == EXIT_OK
    assert capsys.readouterr().err == expected * 2


def test_train_and_quantify_warnings_share_the_format(tmp_path, capsys,
                                                      no_science_index):
    message = "category 'science' has no positive training documents"
    for _ in range(2):
        assert main(["train", "--index", no_science_index,
                     "--out", str(tmp_path / "m")]) == EXIT_OK
        assert capsys.readouterr().err == f"warning: {message}\n"
    assert main(["quantify", "--train", no_science_index, "--test",
                 no_science_index, "--folds", "3",
                 "--out", str(tmp_path / "q.tsv")]) == EXIT_OK
    err = capsys.readouterr().err.splitlines()
    assert err[-1] == f"warning: {message}"
    assert all(line.startswith("warning: ") for line in err)
