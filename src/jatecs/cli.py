"""The `jatecs` command line tool.

Each stage is a plain function over an in-memory Index (select_features,
weight_index, train, a classifier's score_index and decisions, compare).
The pipeline's stages are declared once, in canonical order, in one table
(_STAGES): each row gives the stage function, the objects it reads, the
object it makes and its output name.  A subcommand reads the stage's index
and model directories, runs it and writes its output, so every stage is
independently runnable and testable.  `pipeline` runs the table's rows,
hands each stage's index, classifier and predictions to the next stage in
memory and writes each stage's output once, byte-identical to what the
subcommand writes.  Exit codes: 0 success, 1 usage/config error, 2
data/parse error or a file that cannot be read or written, 3 internal
invariant violation.  Given identical inputs, flags and seeds, every
subcommand writes byte-identical outputs.

Each option is registered on its subcommand's parser with its type and
choices, and must be spelled in full.  Each `key=value` line of a --config
file is parsed by that same parser as the flag --key=value, so a config
value gets the same checks as a flag; a bad line exits 1 with file:line.
Flags win over config values, which win over the defaults.
"""

from __future__ import annotations

import argparse
import functools
import logging
import os
import sys
import warnings

import numpy as np

from . import weighting
from .corpus import (READERS, documents_to_index, numbered_lines,
                     read_category_file, read_corpus)
from .errors import InternalError, JatecsError, ParseError, ValidationError
from .evaluation import compare, measures, micro_macro
from .experiments import grid_search, kfold_evaluate, make_folds
from .index import (_format_rows, _read_concepts, deserialize_index,
                    serialize_index)
from .learners import (LEARNERS, load_classifier, make_learner,
                       save_classifier, train)
from .projection import build_projection, project, save_projection
from .quantification import (LogisticScaling, check_test_categories,
                             evaluate_quantification, learn_quantifiers,
                             quantify, true_prevalences, QUANTIFIERS)
from .textproc import ExtractorConfig, english_stopwords
from .tsr import (apply_selection, per_category_rankings, rank_features,
                  select_round_robin)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3

log = logging.getLogger("jatecs")


class _WarningLines(logging.Handler):
    """Each warning as one `warning: <message>` line on the sys.stderr of
    the moment, so a redirected or captured stderr receives it."""

    def emit(self, record):
        print(f"warning: {record.getMessage()}", file=sys.stderr)


_WARNINGS = _WarningLines(logging.WARNING)


def _log_warning(message, category, filename, lineno, file=None, line=None):
    """`warnings.showwarning` while a command runs: a Python warning (say,
    numpy's overflow RuntimeWarning) goes to the log like any other."""
    log.warning("%s", message)


_FUNC_NAMES = {"ig": "IG", "chi2": "Chi2", "pmi": "PMI", "or": "OddsRatio"}
_KIND_NAMES = {"ri": "RandomIndexing", "lri": "LightweightRI",
               "achlioptas": "Achlioptas"}


class CliError(Exception):
    """Usage or configuration problem; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        raise CliError(message)


def _bool(value: str) -> bool:
    low = value.lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise argparse.ArgumentTypeError(f"expected true/false, got {value!r}")


def _positive_int(value: str) -> int:
    try:
        number = int(value)
    except ValueError:  # argparse's own wording for a bad int
        raise argparse.ArgumentTypeError(
            f"invalid int value: {value!r}") from None
    if number < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {number}")
    return number


def _separator(value: str) -> str:
    if value == "\\t":
        return "\t"
    if len(value) != 1:
        raise argparse.ArgumentTypeError(
            f"separator must be a single character, got {value!r}")
    return value


# Option tables: (name, type, default, choices, help). All options take a
# value, so a config line key=value is the flag --key=value.
_COMMON = [
    ("config", str, None, None, "config file of key=value lines"),
    ("threads", int, 0, None,
     "accepted for compatibility, no effect; env JATECS_THREADS overrides"),
]

_READER_OPTS = [
    ("reader", str, "csv", tuple(READERS), "corpus format"),
    ("input", str, None, None, "corpus file"),
    ("categories", str, None, None, "category label file"),
    ("separator", _separator, "\t", None, "CSV field separator (\\t for tab)"),
]

_EXTRACTOR_OPTS = [
    ("extractor", str, "bow", ("bow", "chargrams", "set"), "feature extractor"),
    ("ngram", _positive_int, 3, None, "character n-gram size"),
    ("word-bounded", _bool, True, None, "n-grams within tokens (true/false)"),
    ("stoplist", str, "none", ("en", "none"), "stop word list"),
    ("stem", str, "none", ("en", "none"), "stemmer"),
]

_TSR_OPTS = [
    ("func", str, "ig", tuple(_FUNC_NAMES), "TSR scoring function"),
    ("policy", str, "rr", ("local", "max", "sum", "wavg", "rr"),
     "selection policy"),
]

_WEIGHT_OPTS = [
    ("scheme", str, "tfidf", ("tfidf", "bm25"), "weighting scheme"),
    ("k1", float, weighting.DEFAULT_K1, None, "BM25 k1"),
    ("b", float, weighting.DEFAULT_B, None, "BM25 b"),
]

_LEARNER_OPTS = [
    ("learner", str, "nb", tuple(LEARNERS), "learner kind"),
    ("param", "append", None, None,
     "learner hyperparameter as name=value (repeatable)"),
]

COMMANDS = {
    "index": _READER_OPTS + _EXTRACTOR_OPTS + [
        ("out", str, None, None, "output index directory")],
    "tsr": [("index", str, None, None, "input index directory"),
            ("out", str, None, None, "output index directory")] + _TSR_OPTS + [
        ("k", int, None, None, "number of features to keep")],
    "project": [
        ("index", str, None, None, "input index directory"),
        ("out", str, None, None, "output directory"),
        ("kind", str, "ri", tuple(_KIND_NAMES), "projection kind"),
        ("dim", int, None, None, "latent dimensionality"),
        ("nonzeros", int, 0, None, "nonzeros per index vector (0 = dim/100)"),
        ("seed", int, 0, None, "random seed"),
    ],
    "weight": [("index", str, None, None, "input index directory"),
               ("out", str, None, None, "output index directory")] + _WEIGHT_OPTS,
    "train": [("index", str, None, None, "training index directory"),
              ("out", str, None, None, "output model directory")] + _LEARNER_OPTS,
    "classify": [
        ("model", str, None, None, "model directory"),
        ("index", str, None, None, "index directory to classify"),
        ("out", str, "predictions.tsv", None, "predictions output file"),
    ],
    "eval": [
        ("pred", str, None, None, "predictions file (dID cID pairs)"),
        ("gold", str, None, None, "gold index directory"),
        ("out", str, "eval.tsv", None, "machine-readable results file"),
    ],
    "quantify": [
        ("train", str, None, None, "training index directory"),
        ("test", str, None, None, "test index directory"),
        ("folds", int, 50, None, "folds for rate estimation"),
        ("slope", float, 1.0, None, "logistic scaling slope"),
        ("out", str, "quantify.tsv", None, "report output file"),
    ] + _LEARNER_OPTS,
    "kfold": [
        ("index", str, None, None, "index directory"),
        ("k", int, 10, None, "number of folds"),
        ("mode", str, "simple", ("simple", "stratified"), "fold mode"),
        ("seed", int, 0, None, "shuffle seed"),
        ("out", str, "kfold.tsv", None, "results output file"),
    ] + _LEARNER_OPTS,
    "grid": [
        ("index", str, None, None, "index directory"),
        ("objective", str, "macrof1", ("macrof1", "microf1", "accuracy"),
         "selection objective"),
        ("k", int, 10, None, "number of folds"),
        ("mode", str, "simple", ("simple", "stratified"), "fold mode"),
        ("seed", int, 0, None, "shuffle seed"),
        ("out", str, "grid.tsv", None, "score table output file"),
    ] + _LEARNER_OPTS,
    "pipeline": (_READER_OPTS + _EXTRACTOR_OPTS + _TSR_OPTS
                 + [("k", int, 500, None, "number of features to keep")]
                 + _WEIGHT_OPTS + _LEARNER_OPTS + [
                     ("stages", str, "index,tsr,weight,train,classify,eval",
                      None, "comma-separated stage list"),
                     ("test-input", str, None, None,
                      "separate test corpus for classify/quantify stages"),
                     ("folds", int, 50, None, "quantify stage folds"),
                     ("slope", float, 1.0, None, "quantify scaling slope"),
                     ("out", str, None, None, "output root directory"),
                 ]),
}

_REQUIRED = {
    "index": ("input", "categories", "out"),
    "tsr": ("index", "out", "k"),
    "project": ("index", "out", "dim"),
    "weight": ("index", "out"),
    "train": ("index", "out"),
    "classify": ("model", "index"),
    "eval": ("pred", "gold"),
    "quantify": ("train", "test"),
    "kfold": ("index",),
    "grid": ("index", "param"),
    "pipeline": ("input", "categories", "out"),
}

def build_parser() -> _Parser:
    parser = _Parser(prog="jatecs", description=__doc__, allow_abbrev=False)
    subparsers = parser.add_subparsers(dest="command")
    for command, options in COMMANDS.items():
        sub = subparsers.add_parser(command, description=f"jatecs {command}",
                                    allow_abbrev=False)
        for name, kind, default, choices, help_text in options + _COMMON:
            text = help_text
            if default not in (None, ""):
                text += f" (default: {default!r})"
            how = ({"action": "append"} if kind == "append"
                   else {"type": kind, "choices": choices})
            # no argparse default: defaults go in under config values; the
            # metavar keeps NAME in the help where argparse lists choices
            sub.add_argument(f"--{name}", help=text,
                             metavar=name.replace("-", "_").upper(), **how)
    return parser


@functools.cache
def _parser() -> _Parser:
    """The parser main uses, built on its first call: parsing leaves a
    parser as it was, so every later call in the process reuses it."""
    return build_parser()


def _given(args) -> dict:
    """The options a parse set, by attribute name."""
    return {key: value for key, value in vars(args).items()
            if value is not None and key != "command"}


def _config_options(parser, command: str, path) -> dict:
    """The options of a config file: each key=value line is parsed as the
    flag --key=value of `command`."""
    values = {}
    try:
        for line_no, line in numbered_lines(path, newline=None):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            key = key.strip()
            if not sep:
                raise CliError(f"{path}:{line_no}: expected key=value")
            if key == "param":
                raise CliError(f"{path}:{line_no}: config key 'param' must "
                               "be given on the command line")
            try:
                args = parser.parse_args([command, f"--{key}={value.strip()}"])
            except CliError as exc:
                raise CliError(f"{path}:{line_no}: {exc}") from None
            values.update(_given(args))
    except ParseError as exc:  # an undecodable byte
        raise CliError(str(exc)) from None
    except OSError as exc:
        raise CliError(f"cannot read config file: {exc}") from None
    return values


def _options(parser, args) -> dict:
    """defaults <- config file <- explicit flags, rightmost wins."""
    command = args.command
    opts = {name.replace("-", "_"): default
            for name, _, default, _, _ in COMMANDS[command] + _COMMON}
    if args.config is not None:
        opts.update(_config_options(parser, command, args.config))
    opts.update(_given(args))
    for key in _REQUIRED[command]:
        if opts[key.replace("-", "_")] is None:
            raise CliError(f"--{key} is required for '{command}'")
    return opts


def _threads(opts) -> int:
    """JATECS_THREADS if set, else --threads; validated but without effect."""
    env = os.environ.get("JATECS_THREADS")
    try:
        return int(env) if env is not None else opts.get("threads") or 0
    except ValueError:
        raise CliError(f"bad JATECS_THREADS value {env!r}") from None


def _extractor_config(opts) -> ExtractorConfig:
    stoplist = english_stopwords() if opts["stoplist"] == "en" else None
    stemmer = "EnglishPorter" if opts["stem"] == "en" else None
    bow = ExtractorConfig(kind="BOW", stoplist=stoplist, stemmer=stemmer)
    grams = ExtractorConfig(kind="CharNGram", ngram_size=opts["ngram"],
                            word_bounded=opts["word_bounded"],
                            stoplist=stoplist, stemmer=stemmer)
    if opts["extractor"] == "set":
        return ExtractorConfig(kind="Set", children=(bow, grams))
    return bow if opts["extractor"] == "bow" else grams


def _parse_params(param_list) -> dict:
    params = {}
    for item in param_list or []:
        key, sep, value = item.partition("=")
        if not sep or not key:
            raise CliError(f"--param expects name=value, got {item!r}")
        params[key] = value
    return params


def _learner_from(opts):
    return make_learner(opts["learner"], **_parse_params(opts.get("param")))


def _write_text(path, text: str) -> None:
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _write_tsv(path, rows) -> None:
    _write_text(path, "".join("\t".join(map(str, row)) + "\n"
                              for row in rows))


def _index_corpus(opts, input_path, extractor):
    categories = read_category_file(opts["categories"])
    docs = read_corpus(opts["reader"], input_path, categories,
                       separator=opts["separator"])
    if not docs:
        log.warning("empty corpus, building an empty index")
    return documents_to_index(docs, categories, extractor)


# -- stages: plain functions over an in-memory Index ---------------------------


def select_features(index, func: str, policy: str, k: int):
    """TSR stage: the index reduced to the k best features of `policy`."""
    if k < 1:
        raise CliError("--k must be >= 1")
    if policy == "rr":
        rankings = per_category_rankings(index, func)
        return apply_selection(index, selected=select_round_robin(rankings, k))
    if policy == "local":
        rankings, local = per_category_rankings(index, func)[::-1], {}
        while rankings:  # each ranking goes once its head is read
            ranking = rankings.pop()
            local[ranking.scope] = np.array(ranking.top(k), dtype=np.int64)
        return apply_selection(index, local=local)
    ranking = rank_features(index, func, policy=policy)
    return apply_selection(index, selected=set(ranking.top(k)))


def weight_index(index, scheme: str, k1: float, b: float):
    """Weighting stage: the index with a tf-idf or BM25 weighting relation."""
    if scheme == "tfidf":
        return weighting.tfidf_normalized(index)
    return weighting.bm25(index, k1=k1, b=b)


# Each _*_stage runs a stage on objects in memory, writes its output to
# opts["out"] and reports it.  A subcommand reads the stage's inputs from
# its option directories (_subcommand); cmd_pipeline runs the rows of
# _STAGES, handing each stage the objects earlier stages made.


def _tsr_stage(opts, index):
    reduced = select_features(index, _FUNC_NAMES[opts["func"]],
                              opts["policy"], opts["k"])
    serialize_index(reduced, opts["out"])
    print(f"selected F={reduced.num_features} of {index.num_features} "
          f"({opts['func']}/{opts['policy']}) -> {opts['out']}")
    return reduced


def _weight_stage(opts, index):
    weighted = weight_index(index, opts["scheme"], opts["k1"], opts["b"])
    serialize_index(weighted, opts["out"])
    print(f"weighted ({opts['scheme']}) -> {opts['out']}")
    return weighted


def _train_stage(opts, index):
    classifier = train(_learner_from(opts), index)
    for message in classifier.warnings:
        log.warning("%s", message)
    save_classifier(classifier, opts["out"])
    print(f"trained {classifier.kind} on D={index.num_documents} "
          f"-> {opts['out']}")
    return classifier


def _classify_stage(opts, classifier, index) -> np.ndarray:
    if index.categories.names != classifier.category_labels:
        raise ValidationError("the index's category table differs from the "
                              "model's")
    scores = classifier.score_index(index)
    decisions = classifier.decisions(scores)
    _write_tsv(opts["out"], np.argwhere(decisions).tolist())
    n_docs, n_cats = scores.shape
    with open(_side_path(opts["out"], "scores"), "wb") as fh:
        fh.writelines(_format_rows(  # each chunk as soon as it is encoded
            "%d\t%d\t%r\n", np.repeat(np.arange(n_docs), n_cats),
            np.tile(np.arange(n_cats), n_docs), scores.ravel()))
    # the ids above mean something only with this table; eval checks it
    _write_tsv(_side_path(opts["out"], "categories"),
               enumerate(classifier.category_labels))
    print(f"classified D={index.num_documents} -> {opts['out']}")
    return decisions


def _eval_stage(opts, predictions, gold_index) -> None:
    table_set = compare(predictions, gold_index.arrays().labels,
                        gold_index.num_documents, gold_index.num_categories)
    for c in sorted(table_set.per_category):
        _print_table(f"category {gold_index.categories.name(c)}",
                     table_set.per_category[c])
    _print_table("Global results (micro-averaged evaluation)",
                 table_set.global_table)
    _write_tsv(opts["out"], _eval_rows(gold_index, table_set))


def _quantify_stage(opts, train_index, test_index) -> None:
    # before the pool trains its folds, which is most of the stage's time
    check_test_categories(test_index, train_index.categories.names)
    pool = learn_quantifiers(_learner_from(opts), train_index,
                             folds=opts["folds"],
                             scaling=LogisticScaling(slope=opts["slope"]))
    for message in pool.warnings:
        log.warning("%s", message)
    estimates = quantify(pool, test_index)
    truth = true_prevalences(test_index)
    report = evaluate_quantification(estimates, truth,
                                     test_index.num_documents)
    # (estimate, true, AE, RAE, KLD) per (quantifier, category)
    errors = {(row[0], row[1]): row[2:] for row in report.rows}
    _write_tsv(opts["out"], [
        (test_index.categories.name(c), name, *map(repr, errors[name, c]))
        for c in sorted(truth) for name in QUANTIFIERS])
    for name in QUANTIFIERS:
        print(f"{name}: mean AE = {report.means[name]['AE']:.4f}")


# The pipeline's stages in canonical order: (name, stage, objects it reads,
# object it makes, output name under pipeline --out).  An object is the
# current `index`, the `model`, the `predictions` or `test`: --test-input's
# index, built on first use, else the current one.  The index stage has no
# function: cmd_pipeline reads the corpus itself.
_STAGES = (
    ("index", None, (), "index", "index"),
    ("tsr", _tsr_stage, ("index",), "index", "tsr"),
    ("weight", _weight_stage, ("index",), "index", "weight"),
    ("train", _train_stage, ("index",), "model", "model"),
    ("classify", _classify_stage, ("model", "test"), "predictions",
     "predictions.tsv"),
    ("eval", _eval_stage, ("predictions", "test"), None, "eval.tsv"),
    ("quantify", _quantify_stage, ("index", "test"), None, "quantify.tsv"),
)


# -- subcommands ----------------------------------------------------------------


def cmd_index(opts) -> int:
    index = _index_corpus(opts, opts["input"], _extractor_config(opts))
    serialize_index(index, opts["out"])
    nnz = len(index.arrays().features)
    print(f"indexed D={index.num_documents} F={index.num_features} "
          f"C={index.num_categories} nnz={nnz} -> {opts['out']}")
    return EXIT_OK


def _subcommand(stage, *options):
    """The subcommand that runs `stage` on what its `options` name, read in
    order: the classifier of --model, the index directory of any other."""
    def command(opts) -> int:
        stage(opts, *(load_classifier(opts[name]) if name == "model"
                      else deserialize_index(opts[name]) for name in options))
        return EXIT_OK
    return command


def _project_stage(opts, index) -> None:
    dim = opts["dim"]
    nonzeros = opts["nonzeros"] or max(1, round(dim * 0.01))
    model = build_projection(index, _KIND_NAMES[opts["kind"]], dim,
                             nonzeros=nonzeros, seed=opts["seed"])
    matrix = project(model, index)
    save_projection(model, matrix, opts["out"])
    print(f"projected D={index.num_documents} into dim={dim} "
          f"({opts['kind']}) -> {opts['out']}")


def _side_path(out_path: str, name: str) -> str:
    """The file `name` written next to the output file `out_path`."""
    root, ext = os.path.splitext(out_path)
    return f"{root}-{name}{ext or '.tsv'}"


def _read_predictions(path, gold_index) -> np.ndarray:
    """The D x C decision matrix of a predictions file, where a repeated
    row counts once; an id outside the gold index is a ParseError on its
    line.  The category table classify wrote next to it, if any, must be
    the gold index's."""
    categories = _side_path(path, "categories")
    if os.path.exists(categories):
        table = _read_concepts(*os.path.split(categories), "category",
                               gold_index.num_categories)
        if table.names != gold_index.categories.names:
            raise ValidationError(f"{categories}: the predictions' category "
                                  "table differs from the gold index's")
    predictions = np.zeros((gold_index.num_documents,
                            gold_index.num_categories), dtype=bool)
    for line_no, line in numbered_lines(path, newline=None):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise ParseError(path, line_no, "expected dID<TAB>cID")
        try:
            d, c = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(path, line_no, "non-integer id") from None
        if not 0 <= d < gold_index.num_documents:
            raise ParseError(path, line_no, f"unknown document {d}")
        if not 0 <= c < gold_index.num_categories:
            raise ParseError(path, line_no, f"unknown category {c}")
        predictions[d, c] = True
    return predictions


def _print_table(label, table):
    p, r, f1, acc = measures(table)
    print(label)
    print(f"tp = {table.tp}\ttn = {table.tn}\tfp = {table.fp}\tfn = {table.fn}")
    print(f"p = {p:.3f}\tr = {r:.3f}\tf1 = {f1:.3f}\tacc = {acc:.3f}")


def _eval_rows(index, table_set):
    rows = []
    for c in sorted(table_set.per_category):
        t = table_set.per_category[c]
        p, r, f1, acc = measures(t)
        rows.append((index.categories.name(c), t.tp, t.tn, t.fp, t.fn,
                     repr(p), repr(r), repr(f1), repr(acc)))
    g = table_set.global_table
    p, r, f1, acc = measures(g)
    rows.append(("GLOBAL", g.tp, g.tn, g.fp, g.fn,
                 repr(p), repr(r), repr(f1), repr(acc)))
    summary = micro_macro(table_set)
    rows.append(("MACRO", "", "", "", "", repr(summary["macroP"]),
                 repr(summary["macroR"]), repr(summary["macroF1"]),
                 repr(summary["macroAcc"])))
    return rows


def cmd_eval(opts) -> int:
    gold_index = deserialize_index(opts["gold"])
    _eval_stage(opts, _read_predictions(opts["pred"], gold_index), gold_index)
    return EXIT_OK


def _kfold_stage(opts, index) -> None:
    plan = make_folds(index, opts["k"], mode=opts["mode"], seed=opts["seed"])
    table_set = kfold_evaluate(_learner_from(opts), index, plan,
                               threads=_threads(opts))
    _write_tsv(opts["out"], _eval_rows(index, table_set))
    summary = micro_macro(table_set)
    print(f"{opts['k']}-fold {opts['mode']}: microF1 = "
          f"{summary['microF1']:.4f} macroF1 = {summary['macroF1']:.4f}")


def _grid_stage(opts, index) -> None:
    grid = {}
    for name, value in _parse_params(opts.get("param")).items():
        grid[name] = [v for v in value.split(",") if v]
        if not grid[name]:
            raise CliError(f"empty value list for grid axis {name!r}")
    plan = make_folds(index, opts["k"], mode=opts["mode"], seed=opts["seed"])
    best, score_table = grid_search(opts["learner"], grid, index, plan,
                                    objective=opts["objective"],
                                    threads=_threads(opts))
    rows = []
    for params, score in score_table:
        spec = ",".join(f"{k}={v}" for k, v in params.items())
        rows.append((spec, repr(score)))
    _write_tsv(opts["out"], rows)
    best_spec = ",".join(f"{k}={v}" for k, v in best.items())
    print(f"best: {best_spec} ({opts['objective']})")


def cmd_pipeline(opts) -> int:
    """Run the stages in one process.  Each stage's index, classifier or
    predictions go to the next stage in memory; every stage still writes
    its output under --out once, the same bytes its subcommand writes."""
    stages = [s.strip() for s in opts["stages"].split(",") if s.strip()]
    if not stages:
        raise CliError("empty stage list")
    order = [row[0] for row in _STAGES]
    for stage in stages:
        if stage not in order:
            raise CliError(f"unknown stage {stage!r}")
    positions = [order.index(s) for s in stages]
    if positions != sorted(set(positions)):  # in order, none repeated
        raise CliError(f"stages out of order: {','.join(stages)} "
                       f"(canonical order: {','.join(order)})")
    rows = [_STAGES[at] for at in positions]
    have = set()
    for name, _, reads, makes, _ in rows:
        for need in reads:
            # `test` is the index, or --test-input's, built once it exists
            need = "index" if need == "test" else need
            if need not in have:
                maker = next(row[0] for row in _STAGES if row[3] == need)
                raise CliError(f"'{name}' requires the '{maker}' stage")
        have.add(makes)
    root = opts["out"]
    os.makedirs(root, exist_ok=True)
    test_input = opts.get("test_input")
    made = {}
    extractor = _extractor_config(opts)  # one stem memo for both corpora

    def fetch(name):
        """An object a stage reads; --test-input's index is built once and
        written to test-index/ (without it, `test` is the current index)."""
        if name == "test":
            if test_input is None:
                return made["index"]
            if "test" not in made:
                made["test"] = _index_corpus(opts, test_input, extractor)
                serialize_index(made["test"], os.path.join(root, "test-index"))
        return made[name]

    for name, stage, reads, makes, out_name in rows:
        out = os.path.join(root, out_name)
        try:
            if stage is None:  # the index stage, which reports nothing
                made["index"] = _index_corpus(opts, opts["input"], extractor)
                if test_input is None:
                    extractor = None  # frees the stem memo: no other corpus
                serialize_index(made["index"], out)
            else:
                result = stage(dict(opts, out=out), *map(fetch, reads))
                if makes is not None:
                    made[makes] = result
        except (CliError, JatecsError) as exc:
            message = f"stage '{name}' failed: {exc}"
            if isinstance(exc, CliError):
                raise CliError(message) from exc
            if isinstance(exc, InternalError):
                raise InternalError(message) from exc
            raise ValidationError(message) from exc
    print(f"pipeline done: {','.join(stages)} -> {root}")
    return EXIT_OK


_HANDLERS = {
    "index": cmd_index,
    "tsr": _subcommand(_tsr_stage, "index"),
    "project": _subcommand(_project_stage, "index"),
    "weight": _subcommand(_weight_stage, "index"),
    "train": _subcommand(_train_stage, "index"),
    "classify": _subcommand(_classify_stage, "model", "index"),
    "eval": cmd_eval,
    "quantify": _subcommand(_quantify_stage, "train", "test"),
    "kfold": _subcommand(_kfold_stage, "index"),
    "grid": _subcommand(_grid_stage, "index"),
    "pipeline": cmd_pipeline,
}


def main(argv=None) -> int:
    log.addHandler(_WARNINGS)  # a no-op once it is attached
    parser = _parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_help()
            return EXIT_USAGE
        opts = _options(parser, args)
        with warnings.catch_warnings():
            warnings.showwarning = _log_warning
            return _HANDLERS[args.command](opts)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (JatecsError, OSError) as exc:  # bad data, failed read or write
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:  # a bug: one line; the traceback at debug level
        log.debug("internal error", exc_info=True)
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
