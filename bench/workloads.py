"""The benchmark's workloads: their inputs, set-up and timed CLI calls.

Nothing here imports jatecs at module level, so the orchestrator can use the
definitions without loading the library.  Why each workload exists is written
down in WORKLOADS.md.
"""

from __future__ import annotations

import os

import corpus_gen

WORKLOADS = ("pipeline", "learn")

CATEGORIES = 10
PIPELINE_DOCS = 800
KFOLD_DOCS = 500
QUANTIFY_TRAIN_DOCS = 700
QUANTIFY_TEST_DOCS = 350
QUANTIFY_FOLDS = 10
TSR_K = 2000
KFOLD_TSR_K = 1000
# (learner, extra flags); T=20 keeps boosting from swamping the round
KFOLD_LEARNERS = (("nb", ()), ("rocchio", ()), ("knn", ()),
                  ("boost", ("--param", "iterations=20")))
# each learner's 5-fold micro-F1 must clear its floor on every seed
KFOLD_F1_FLOOR = {"nb": 0.8, "rocchio": 0.1, "knn": 0.7, "boost": 0.8}

CATEGORY_FILE = "categories.txt"
STEMMED_BOW = ("--stoplist", "en", "--stem", "en")


def corpora(workload: str, seed: int) -> dict:
    """{file name: Corpus} of every generated input of a workload."""
    if workload == "pipeline":
        return {"corpus.csv": corpus_gen.generate(seed, PIPELINE_DOCS,
                                                  CATEGORIES, stream=0)}
    if workload == "learn":
        vocab = corpus_gen.Vocabulary(seed, CATEGORIES)
        return {
            "corpus.csv": corpus_gen.generate(seed, KFOLD_DOCS, CATEGORIES,
                                              stream=1),
            "train.csv": corpus_gen.generate(seed, QUANTIFY_TRAIN_DOCS,
                                             CATEGORIES, stream=2, vocab=vocab,
                                             prefix="tr"),
            "test.csv": corpus_gen.generate(seed, QUANTIFY_TEST_DOCS,
                                            CATEGORIES, stream=3, vocab=vocab,
                                            shifted=True, prefix="te"),
        }
    raise ValueError(f"unknown workload {workload!r}")


def set_up(workload: str, seed: int, directory: str) -> dict:
    """Write the inputs of one run into `directory` and build any index the
    timed calls read.  Returns the generator's corpus statistics."""
    stats = {}
    categories = None
    for name, corpus in corpora(workload, seed).items():
        corpus.write(os.path.join(directory, name))
        categories = corpus.categories
        stats[name] = corpus.stats()
    with open(os.path.join(directory, CATEGORY_FILE), "w", encoding="utf-8",
              newline="\n") as fh:
        fh.writelines(f"{c}\n" for c in categories)

    def path(name):
        return os.path.join(directory, name)

    if workload == "learn":
        from jatecs.cli import main
        for argv in (
                ["index", "--input", path("corpus.csv"),
                 "--categories", path(CATEGORY_FILE), *STEMMED_BOW,
                 "--out", path("index")],
                ["tsr", "--index", path("index"), "--func", "ig",
                 "--policy", "rr", "--k", str(KFOLD_TSR_K),
                 "--out", path("tsr")],
                ["weight", "--index", path("tsr"), "--scheme", "tfidf",
                 "--out", path("weight")]):
            if main(argv) != 0:
                raise RuntimeError(f"set-up call failed: {argv}")
        _build_quantify_indexes(directory)
    return stats


def _build_quantify_indexes(directory: str) -> None:
    """One BOW index over train and test, split with subset_index so both
    halves share feature ids (the CLI cannot index a test set in the
    training feature space yet)."""
    from jatecs import documents_to_index, serialize_index, subset_index
    from jatecs.corpus import read_category_file, read_csv
    from jatecs.textproc import ExtractorConfig, english_stopwords

    categories = read_category_file(os.path.join(directory, CATEGORY_FILE))
    train = read_csv(os.path.join(directory, "train.csv"),
                     categories=categories)
    test = read_csv(os.path.join(directory, "test.csv"), categories=categories)
    config = ExtractorConfig(kind="BOW", stoplist=english_stopwords(),
                             stemmer="EnglishPorter")
    both = documents_to_index(train + test, categories, config)
    n_train = len(train)
    serialize_index(subset_index(both, keep_docs=set(range(n_train))),
                    os.path.join(directory, "train-index"))
    serialize_index(
        subset_index(both, keep_docs=set(range(n_train, len(train) + len(test)))),
        os.path.join(directory, "test-index"))


def round_calls(workload: str, inputs: str, out: str) -> list:
    """The CLI argument lists of one timed round, in order.  A round is the
    unit `wall_s` times; each call is one operation."""
    def path(name):
        return os.path.join(inputs, name)

    if workload == "pipeline":
        return [["pipeline", "--input", path("corpus.csv"),
                 "--categories", path(CATEGORY_FILE), *STEMMED_BOW,
                 "--func", "ig", "--policy", "rr", "--k", str(TSR_K),
                 "--scheme", "tfidf", "--learner", "nb",
                 "--stages", "index,tsr,weight,train,classify,eval",
                 "--threads", "1", "--out", os.path.join(out, "pipeline")]]
    if workload == "learn":
        kfold = [["kfold", "--index", path("weight"), "--k", "5",
                  "--mode", "stratified", "--threads", "1",
                  "--learner", learner, *extra,
                  "--out", os.path.join(out, f"kfold-{learner}.tsv")]
                 for learner, extra in KFOLD_LEARNERS]
        return kfold + [
            ["quantify", "--train", path("train-index"),
             "--test", path("test-index"), "--learner", "nb",
             "--folds", str(QUANTIFY_FOLDS), "--threads", "1",
             "--out", os.path.join(out, "quantify.tsv")]]
    raise ValueError(f"unknown workload {workload!r}")


def footprint_index(workload: str, inputs: str, round_out: str) -> str:
    """The index directory whose in-memory size gives index.bytes_per_nnz."""
    if workload == "pipeline":
        return os.path.join(round_out, "pipeline", "index")
    return os.path.join(inputs, "train-index")
