"""Per-layer tracing from outside the library.

`install()` rebinds public names in the jatecs modules that call them, so
the call goes through a wrapper that records a span (name, start, end,
parent, run id).  Calls too hot to span one by one (Porter stemming) only
add to a counter and a time total, which is charged to the enclosing span.
A wrapper whose target name is gone is reported as unmeasured.  Nothing
under src/ is edited, and untraced rounds never install the wrappers.
"""

from __future__ import annotations

import os
import time

_now = time.perf_counter

# learner kind (TrainedClassifier.kind) -> metric prefix
LEARNER_KEYS = {"NaiveBayes": "nb", "Rocchio": "rocchio", "KNN": "knn",
                "AdaBoostMH": "boost"}


def _dir_bytes(path) -> int:
    try:
        return sum(e.stat().st_size for e in os.scandir(path) if e.is_file())
    except OSError:
        return 0


class Recorder:
    """Spans and counters of one process, kept in memory until `dump`."""

    def __init__(self, run_id: int):
        self.run_id = run_id
        self.spans = []        # [name, start, end, parent, run_id, hot_s]
        self.stack = []        # indices of open spans
        self.counters = {}     # name -> number
        self.hot = {}          # name -> [calls, seconds]
        self.unmeasured = set()

    def add(self, name: str, amount) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def span(self, fn, name, count=None):
        """Wrap `fn`; `name` is a string or a function of the call's
        arguments.  A call made while a span of the same name is open is
        part of that span and is not recorded again."""
        def wrapper(*args, **kwargs):
            label = name if isinstance(name, str) else name(*args)
            stack = self.stack
            if stack and self.spans[stack[-1]][0] == label:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            parent = stack[-1] if stack else -1
            record = [label, 0.0, 0.0, parent, self.run_id, 0.0]
            self.spans.append(record)
            stack.append(idx)
            record[1] = _now()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = _now()
                stack.pop()
            if count is not None:
                try:
                    count(self, label, args, result)
                except (AttributeError, TypeError):  # the API it reads moved
                    self.unmeasured.add(f"{label} counter")
            return result
        return wrapper

    def counter(self, fn, name):
        """Wrap a hot function: count calls and time, no span."""
        totals = self.hot.setdefault(name, [0, 0.0])
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            t0 = _now()
            result = fn(*args, **kwargs)
            dt = _now() - t0
            totals[0] += 1
            totals[1] += dt
            if stack:
                spans[stack[-1]][5] += dt
            return result
        return wrapper

    def dump(self) -> dict:
        return {"spans": self.spans, "counters": self.counters,
                "hot": self.hot, "unmeasured": sorted(self.unmeasured)}


def _rebind(recorder, module, attr, make):
    target = getattr(module, attr, None)
    if target is None:
        recorder.unmeasured.add(f"{module.__name__}.{attr}")
        return
    setattr(module, attr, make(target))


def _learner_key(obj) -> str:
    return LEARNER_KEYS.get(getattr(obj, "kind", ""), "other")


# -- counters computed from a call's result, outside its span --------------


def _count_docs(rec, label, args, result):
    rec.add("corpus.docs", len(result))


def _count_features(rec, label, args, result):
    rec.add("textproc.features_out", len(result))


def _count_nnz(rec, label, args, result):
    rec.add("index.nnz", sum(1 for _ in result.content_items()))


def _count_written(rec, label, args, result):
    rec.add("index.serialize_calls", 1)
    rec.add("index.bytes_written", _dir_bytes(args[1]))


def _count_read(rec, label, args, result):
    rec.add("index.deserialize_calls", 1)
    rec.add("index.bytes_read", _dir_bytes(args[0]))


def _count_subset(rec, label, args, result):
    rec.add("index.subset_calls", 1)


def _count_weights(rec, label, args, result):
    rec.add("weighting.nnz", sum(1 for _ in result.weight_items()))


def _count_pairs(rec, label, args, result):
    index = args[0]
    rec.add("tsr.pairs_scored", index.num_features * index.num_categories)


def _count_train(rec, label, args, result):
    rec.add(f"{label}_calls", 1)


def _count_model(rec, label, args, result):
    rec.add("learners.model_bytes", _dir_bytes(args[1]))


def _count_scores(rec, label, args, result):
    rec.add(label.replace(".score", ".scores"),
            len(result) if isinstance(result, list) else 1)


def install(run_id: int) -> Recorder:
    """Wrap the library's layers and return the recorder that collects."""
    from jatecs import (cli, corpus, experiments, learners, quantification,
                        textproc, tsr, weighting)

    rec = Recorder(run_id)

    def span(name, count=None):
        return lambda fn: rec.span(fn, name, count)

    def train_name(learner, *_):
        return f"learners.{_learner_key(learner)}.train"

    def score_name(classifier, *_):
        return f"learners.{_learner_key(classifier)}.score"

    # cli: the stages every subcommand is made of
    for attr, make in (
            ("read_corpus", span("corpus.read", _count_docs)),
            ("read_category_file", span("corpus.read")),
            ("documents_to_index", span("corpus.to_index")),
            ("deserialize_index", span("index.deserialize", _count_read)),
            ("serialize_index", span("index.serialize", _count_written)),
            ("per_category_rankings", span("tsr.rank", _count_pairs)),
            ("rank_features", span("tsr.rank", _count_pairs)),
            ("select_round_robin", span("tsr.select")),
            ("apply_selection", span("tsr.select")),
            ("train", span(train_name, _count_train)),
            ("save_classifier", span("learners.model_io", _count_model)),
            ("load_classifier", span("learners.model_io")),
            ("compare", span("evaluation.compare")),
            ("make_folds", span("experiments.make_folds")),
            ("kfold_evaluate", span("experiments.kfold")),
            ("learn_quantifiers", span("quantification.learn")),
            ("quantify", span("quantification.quantify"))):
        _rebind(rec, cli, attr, make)
    # weighting is looked up as an attribute of the module by cli
    _rebind(rec, weighting, "tfidf_normalized",
            span("weighting.tfidf", _count_weights))
    # corpus: index construction behind documents_to_index
    _rebind(rec, corpus, "build_index", span("index.build", _count_nnz))
    # textproc: extraction per document, stemming per token
    for attr in ("extract_bow", "extract_char_ngrams", "extract_set"):
        _rebind(rec, textproc, attr, span("textproc.extract", _count_features))
    _rebind(rec, textproc, "porter_stem",
            lambda fn: rec.counter(fn, "porter.stem"))
    # tsr: the per-category ranking calls inside per_category_rankings
    _rebind(rec, tsr, "rank_features", span("tsr.rank"))
    # experiments and quantification: folds, subsets, training, evaluation
    for module in (experiments, quantification):
        _rebind(rec, module, "subset_index", span("index.subset", _count_subset))
        _rebind(rec, module, "train", span(train_name, _count_train))
    _rebind(rec, experiments, "compare", span("evaluation.compare"))
    _rebind(rec, quantification, "make_folds", span("experiments.make_folds"))
    # scoring methods of every classifier class
    for cls_name in ("TrainedClassifier", "NaiveBayesClassifier",
                     "RocchioClassifier", "KnnClassifier", "BoostClassifier"):
        cls = getattr(learners, cls_name, None)
        if cls is None:
            rec.unmeasured.add(f"jatecs.learners.{cls_name}")
            continue
        for attr in ("score_document", "score_document_category"):
            if attr in vars(cls):
                setattr(cls, attr, rec.span(vars(cls)[attr], score_name,
                                            _count_scores))
    return rec


# -- aggregation -------------------------------------------------------------


def _self_times(spans) -> list:
    child = [0.0] * len(spans)
    for name, start, end, parent, _, hot in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] - hot
            for i, (_, start, end, _, _, hot) in enumerate(spans)]


# span name -> (metric, use self time rather than the span's duration)
SPAN_METRICS = {
    "corpus.read": ("corpus.read_s", False),
    "corpus.to_index": ("corpus.to_index_self_s", True),
    "textproc.extract": ("textproc.extract_s", True),
    "index.build": ("index.build_s", False),
    "index.serialize": ("index.serialize_s", False),
    "index.deserialize": ("index.deserialize_s", False),
    "index.subset": ("index.subset_s", False),
    "tsr.rank": ("tsr.rank_s", False),
    "tsr.select": ("tsr.select_s", False),
    "weighting.tfidf": ("weighting.tfidf_s", False),
    "learners.model_io": ("learners.model_io_s", False),
    "evaluation.compare": ("evaluation.compare_s", False),
    "experiments.make_folds": ("experiments.make_folds_s", False),
    "experiments.kfold": ("experiments.kfold_self_s", True),
    "quantification.learn": ("quantification.learn_self_s", True),
    "quantification.quantify": ("quantification.quantify_s", False),
    "cli.main": ("cli.self_s", True),
}
for _key in LEARNER_KEYS.values():
    SPAN_METRICS[f"learners.{_key}.train"] = (f"learners.{_key}.train_s", False)
    SPAN_METRICS[f"learners.{_key}.score"] = (f"learners.{_key}.score_s", False)

# hot counter -> (time metric, call-count metric)
HOT_METRICS = {"porter.stem": ("porter.stem_s", "porter.calls")}


def layer_totals(dump: dict) -> dict:
    """Per-layer metrics of one process's trace: busy seconds per layer
    (self time where the metric says so) plus the counters."""
    spans = dump["spans"]
    selfs = _self_times(spans)
    out = {}
    for i, (name, start, end, *_rest) in enumerate(spans):
        metric = SPAN_METRICS.get(name)
        if metric is None:
            continue
        key, use_self = metric
        out[key] = out.get(key, 0.0) + (selfs[i] if use_self else end - start)
    for name, (calls, seconds) in dump["hot"].items():
        time_key, count_key = HOT_METRICS[name]
        out[time_key] = out.get(time_key, 0.0) + seconds
        out[count_key] = out.get(count_key, 0) + calls
    for name, value in dump["counters"].items():
        out[name] = out.get(name, 0) + value
    return out
