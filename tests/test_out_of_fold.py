"""One out-of-fold pass feeds k-fold tables and quantifier rates; label
matrices become {dID: cIDs} maps in one place.  Also covers the checks that
ride along: an index whose category table differs from the model's, and an
ARFF attribute whose feature text an earlier attribute yields, exit 2."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import jatecs.experiments as experiments
import jatecs.quantification as quantification
from jatecs.cli import EXIT_DATA, EXIT_OK, main
from jatecs.corpus import (documents_to_index, read_arff, read_category_file,
                           read_csv)
from jatecs.errors import ParseError, ValidationError
from jatecs.evaluation import label_map
from jatecs.experiments import (SIMPLE, STRATIFIED, kfold_evaluate, make_folds,
                                out_of_fold)
from jatecs.learners import NaiveBayesLearner
from jatecs.quantification import learn_quantifiers, quantify
from jatecs.textproc import ExtractorConfig
from jatecs.tsr import (GLOBAL_WAVG, IG, apply_selection,
                        per_category_rankings, rank_features)
from jatecs.weighting import tfidf_normalized

from test_building_blocks import (  # noqa: F401 (thin_index, toy_index)
    ALL_LEARNERS, TOY_CATEGORIES, TOY_CORPUS, _reference_kfold,
    _reference_rates, thin_index, toy_index)


@pytest.fixture(scope="module")
def local_index():
    """The toy index, weighted, with a 20-feature local domain per category."""
    categories = read_category_file(TOY_CATEGORIES)
    index = documents_to_index(read_csv(TOY_CORPUS, categories=categories),
                               categories, ExtractorConfig(kind="BOW"))
    local = {r.scope: set(r.top(20)) for r in per_category_rankings(index, IG)}
    return tfidf_normalized(apply_selection(index, local=local))


# -- one out-of-fold pass ---------------------------------------------------


def _count_out_of_fold(monkeypatch):
    calls = []
    real = experiments.out_of_fold

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)
    # learn_quantifiers reads the name from its own module's globals
    monkeypatch.setattr(experiments, "out_of_fold", counting)
    monkeypatch.setattr(quantification, "out_of_fold", counting)
    return calls


def test_kfold_and_rates_each_make_one_out_of_fold_pass(local_index,
                                                        monkeypatch):
    calls = _count_out_of_fold(monkeypatch)
    learner = NaiveBayesLearner()
    kfold_evaluate(learner, local_index, make_folds(local_index, 3, seed=2))
    assert len(calls) == 1
    learn_quantifiers(learner, local_index, folds=4)
    assert len(calls) == 2
    assert calls[1][1] is local_index


def test_out_of_fold_pairs_warnings_with_their_fold(thin_index):
    # one 'science' document: only the fold holding it trains without one
    plan = make_folds(thin_index, 3, seed=4)
    scores, decisions, warnings = out_of_fold(NaiveBayesLearner(),
                                              thin_index, plan)
    shape = (thin_index.num_documents, thin_index.num_categories)
    assert scores.shape == decisions.shape == shape
    assert decisions.dtype == bool
    science = thin_index.categories.id("science")
    (doc,) = thin_index.category_documents(science)
    assert warnings == [(plan.assignment[doc], "category 'science' has no "
                         "positive training documents")]


@pytest.mark.parametrize("mode", [SIMPLE, STRATIFIED])
@pytest.mark.parametrize("learner", ALL_LEARNERS, ids=lambda ln: ln.kind)
def test_local_domain_kfold_equals_the_reference(local_index, learner, mode):
    plan = make_folds(local_index, 4, mode=mode, seed=3)
    assert kfold_evaluate(learner, local_index, plan).per_category == \
        _reference_kfold(learner, local_index, plan).per_category


@pytest.mark.parametrize("learner", ALL_LEARNERS, ids=lambda ln: ln.kind)
def test_local_domain_rates_equal_the_reference(local_index, learner):
    pool = learn_quantifiers(learner, local_index, folds=5)
    assert not any("simple folds" in w for w in pool.warnings)
    assert pool.rates == _reference_rates(learner, local_index, 5, STRATIFIED)


def test_category_sizes_from_the_label_matrix_keep_the_id_check(local_index):
    for scope in (-1, local_index.num_categories):
        with pytest.raises(ValidationError, match="unknown category id"):
            rank_features(local_index, IG, scope=scope)
    assert rank_features(local_index, IG, policy=GLOBAL_WAVG).entries


# -- one label-matrix conversion --------------------------------------------


@st.composite
def bool_matrices(draw):
    n_docs = draw(st.integers(0, 8))
    n_cats = draw(st.integers(0, 5))
    cells = draw(st.lists(st.booleans(), min_size=n_docs * n_cats,
                          max_size=n_docs * n_cats))
    return np.array(cells, dtype=bool).reshape(n_docs, n_cats)


@settings(max_examples=150, deadline=None)
@given(bool_matrices())
@example(np.zeros((3, 0), dtype=bool))
@example(np.zeros((0, 4), dtype=bool))
@example(np.array([[False, True], [False, False]]))
def test_label_map_is_the_per_row_nonzero_map(matrix):
    got = label_map(matrix)
    assert got == {d: tuple(np.flatnonzero(matrix[d]).tolist())
                   for d in range(matrix.shape[0])}
    assert all(type(c) is int for cats in got.values() for c in cats)


# -- a category table that differs from the model's -------------------------


def _index_dir(tmp_path, capsys, name, category_lines):
    cats = tmp_path / f"{name}-categories.txt"
    cats.write_text("".join(f"{line}\n" for line in category_lines),
                    encoding="utf-8")
    out = str(tmp_path / name)
    assert main(["index", "--input", TOY_CORPUS, "--categories", str(cats),
                 "--out", out]) == EXIT_OK
    capsys.readouterr()
    return out


@pytest.fixture
def two_tables(tmp_path, capsys):
    names = read_category_file(TOY_CATEGORIES)
    return (_index_dir(tmp_path, capsys, "same", names),
            _index_dir(tmp_path, capsys, "reversed", names[::-1]))


def _one_error(capsys, needle):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert needle in err, err


def test_classify_rejects_a_differing_category_table(tmp_path, capsys,
                                                     two_tables):
    same, reversed_ = two_tables
    model = str(tmp_path / "model")
    assert main(["train", "--index", same, "--out", model]) == EXIT_OK
    pred = tmp_path / "pred.tsv"
    assert main(["classify", "--model", model, "--index", same,
                 "--out", str(pred)]) == EXIT_OK
    capsys.readouterr()
    pred.unlink()
    assert main(["classify", "--model", model, "--index", reversed_,
                 "--out", str(pred)]) == EXIT_DATA
    _one_error(capsys, "category table differs")
    assert not pred.exists()


def test_quantify_rejects_a_differing_category_table(tmp_path, capsys,
                                                     two_tables):
    same, reversed_ = two_tables
    out = tmp_path / "q.tsv"
    assert main(["quantify", "--train", same, "--test", reversed_,
                 "--folds", "3", "--out", str(out)]) == EXIT_DATA
    _one_error(capsys, "category table differs")
    assert not out.exists()
    assert main(["quantify", "--train", reversed_, "--test", reversed_,
                 "--folds", "3", "--out", str(out)]) == EXIT_OK


def test_quantify_checks_the_pool_category_labels(local_index):
    pool = learn_quantifiers(NaiveBayesLearner(), local_index, folds=3)
    quantify(pool, local_index)
    renamed = quantification.QuantifierPool(
        classifier=pool.classifier, scaling=pool.scaling, rates=pool.rates,
        category_labels=pool.category_labels[::-1])
    with pytest.raises(ValidationError, match="category table differs"):
        quantify(renamed, local_index)


# -- ARFF attributes that yield the same feature text -----------------------


@pytest.mark.parametrize("header,row,line_no,feature", [
    (["@attribute a {b,c}", "@attribute 'a=b' numeric"], "b,3,x", 3, "a=b"),
    (["@attribute 'a=b' real", "@attribute a {c,b}"], "2,b,x", 3, "a=b"),
    (["@attribute a {b,c}", "@attribute t string", "@attribute a=c {x}",
      "@attribute 'a=c=x' numeric"], "b,'t',x,1,x", 5, "a=c=x")])
def test_arff_feature_text_collision_names_the_later_line(
        tmp_path, capsys, header, row, line_no, feature):
    path = tmp_path / "c.arff"
    path.write_text("\n".join(["@relation r", *header,
                               "@attribute class {x,y}", "@data", row])
                    + "\n", encoding="utf-8")
    with pytest.raises(ParseError) as exc:
        read_arff(str(path))
    assert exc.value.line_no == line_no
    assert repr(feature) in str(exc.value)
    cats = tmp_path / "cats.txt"
    cats.write_text("x\ny\n", encoding="utf-8")
    out = tmp_path / "i"
    assert main(["index", "--reader", "arff", "--input", str(path),
                 "--categories", str(cats), "--out", str(out)]) == EXIT_DATA
    _one_error(capsys, f"{path}:{line_no}: ")
    assert not out.exists()


def test_arff_texts_that_do_not_collide_stay_legal(tmp_path):
    # the class attribute yields no feature and a string attribute no fixed
    # text; a value repeated inside one nominal attribute is one feature
    path = tmp_path / "ok.arff"
    path.write_text("\n".join([
        "@relation r", "@attribute a {b,b}", "@attribute 'class=x' numeric",
        "@attribute s string", "@attribute class {x,y}", "@data",
        "b,2,'a=b',x"]) + "\n", encoding="utf-8")
    _, docs = read_arff(str(path))
    assert docs[0].features == (("a=b", 1, 1.0), ("class=x", 2, 2.0))
    assert docs[0].text == "a=b"
