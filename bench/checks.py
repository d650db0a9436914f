"""Output checks that use neither jatecs nor its evaluation code.

Every check compares a CLI output file with what the benchmark knows from
the generator: the labels it drew and the documents it wrote.  A check
returns a list of error strings (empty when the output is right) and the
quality figures read from the output.
"""

from __future__ import annotations

import os

import workloads

# relative tolerance for figures the benchmark recomputes in another order
_TOL = 1e-9


def read_rows(path) -> list:
    with open(path, encoding="utf-8", newline="") as fh:
        return [line.rstrip("\n").split("\t") for line in fh if line.strip()]


def read_labels(csv_path) -> dict:
    """{document name: set of labels} from a generated corpus file."""
    labels = {}
    for row in read_rows(csv_path):
        labels[row[0]] = {lab for lab in row[1].split(",") if lab}
    return labels


def read_categories(inputs) -> list:
    path = os.path.join(inputs, workloads.CATEGORY_FILE)
    return [row[0] for row in read_rows(path)]


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= _TOL * max(1.0, abs(a), abs(b))


def _eval_table(rows) -> dict:
    return {row[0]: row for row in rows}


def check_classification(out_dir, index_dir, truth: dict,
                         categories: list) -> tuple:
    """predictions.tsv and eval.tsv of one classify+eval run against the
    generator's labels.  Per category and GLOBAL, tp/fp/fn/tn recomputed
    from the predictions must equal the eval.tsv row."""
    errors = []
    doc_names = [row[1] for row in read_rows(
        os.path.join(index_dir, "documents.tsv"))]
    cat_names = [row[1] for row in read_rows(
        os.path.join(index_dir, "categories.tsv"))]
    if sorted(doc_names) != sorted(truth):
        errors.append(f"{index_dir}: documents differ from the corpus")
        return errors, {}
    if cat_names != categories:
        errors.append(f"{index_dir}: categories differ from the corpus")
        return errors, {}
    predicted = {c: set() for c in categories}
    for d, c in read_rows(os.path.join(out_dir, "predictions.tsv")):
        predicted[cat_names[int(c)]].add(doc_names[int(d)])
    n_docs = len(doc_names)
    table = _eval_table(read_rows(os.path.join(out_dir, "eval.tsv")))
    totals = [0, 0, 0, 0]
    for cat in categories:
        gold = {name for name, labs in truth.items() if cat in labs}
        tp = len(predicted[cat] & gold)
        fp = len(predicted[cat] - gold)
        fn = len(gold - predicted[cat])
        counts = [tp, n_docs - tp - fp - fn, fp, fn]
        totals = [a + b for a, b in zip(totals, counts)]
        row = table.get(cat)
        if row is None or [int(x) for x in row[1:5]] != counts:
            errors.append(f"eval.tsv row {cat}: {row and row[1:5]} "
                          f"!= tp/tn/fp/fn {counts}")
    glob = table.get("GLOBAL")
    if glob is None or [int(x) for x in glob[1:5]] != totals:
        errors.append(f"eval.tsv GLOBAL {glob and glob[1:5]} != {totals}")
        return errors, {}
    tp, _, fp, fn = totals
    micro = float(glob[7])
    if not _close(micro, 2 * tp / (2 * tp + fp + fn)):
        errors.append(f"eval.tsv GLOBAL f1 {micro} disagrees with its counts")
    return errors, {"micro_f1": micro, "macro_f1": float(table["MACRO"][7]),
                    "learner_f1": {"nb": micro}}


def check_kfold_table(path, truth: dict, categories: list,
                      floor: float) -> tuple:
    """One kfold result table: every category's tp+fn is its positive count
    in the corpus, every table sums to D, GLOBAL is the sum, micro-F1 clears
    the learner's floor."""
    errors = []
    table = _eval_table(read_rows(path))
    n_docs = len(truth)
    totals = [0, 0, 0, 0]
    for cat in categories:
        row = table.get(cat)
        if row is None:
            errors.append(f"{path}: no row for {cat}")
            continue
        tp, tn, fp, fn = (int(x) for x in row[1:5])
        positives = sum(1 for labs in truth.values() if cat in labs)
        if tp + fn != positives:
            errors.append(f"{path} {cat}: tp+fn={tp + fn} != {positives}")
        if tp + tn + fp + fn != n_docs:
            errors.append(f"{path} {cat}: table sums to {tp + tn + fp + fn}")
        totals = [a + b for a, b in zip(totals, (tp, tn, fp, fn))]
    glob = table.get("GLOBAL")
    if glob is None or [int(x) for x in glob[1:5]] != totals:
        errors.append(f"{path}: GLOBAL {glob and glob[1:5]} != {totals}")
        return errors, {}
    micro = float(glob[7])
    if micro < floor:
        errors.append(f"{path}: micro-F1 {micro} below the floor {floor}")
    return errors, {"micro_f1": micro, "macro_f1": float(table["MACRO"][7])}


def check_quantify(path, truth: dict, categories: list) -> tuple:
    """quantify.tsv: the true prevalences equal the generator's, every
    estimate lies in [0, 1], AE is |estimate - truth|, and every category
    has all six quantifiers."""
    errors = []
    n_docs = len(truth)
    seen = {cat: set() for cat in categories}
    abs_errors = []
    for label, quantifier, est, true, ae, *_ in read_rows(path):
        if label not in seen:
            errors.append(f"{path}: unknown category {label}")
            continue
        seen[label].add(quantifier)
        expected = sum(1 for labs in truth.values() if label in labs) / n_docs
        est, true, ae = float(est), float(true), float(ae)
        if true != expected:
            errors.append(f"{path} {label}: true prevalence {true} "
                          f"!= {expected}")
        if not 0.0 <= est <= 1.0:
            errors.append(f"{path} {label} {quantifier}: estimate {est}")
        if not _close(ae, abs(est - expected)):
            errors.append(f"{path} {label} {quantifier}: AE {ae}")
        abs_errors.append(abs(est - expected))
    for cat, names in seen.items():
        if len(names) != 6:
            errors.append(f"{path} {cat}: {len(names)} quantifiers, not 6")
    if not abs_errors:
        return errors + [f"{path}: empty"], {}
    return errors, {"quant_mae": sum(abs_errors) / len(abs_errors)}


def check_round(workload: str, inputs: str, out: str) -> tuple:
    """(errors per call of the round, quality figures of the round)."""
    categories = read_categories(inputs)
    if workload == "pipeline":
        truth = read_labels(os.path.join(inputs, "corpus.csv"))
        root = os.path.join(out, "pipeline")
        errors, quality = check_classification(
            root, os.path.join(root, "index"), truth, categories)
        return [errors], quality
    truth = read_labels(os.path.join(inputs, "corpus.csv"))
    per_call, per_learner = [], {}
    for learner, _ in workloads.KFOLD_LEARNERS:
        errors, quality = check_kfold_table(
            os.path.join(out, f"kfold-{learner}.tsv"), truth, categories,
            workloads.KFOLD_F1_FLOOR[learner])
        per_call.append(errors)
        per_learner[learner] = quality
    quality = {}
    if all(per_learner.values()):
        for key in ("micro_f1", "macro_f1"):
            quality[key] = (sum(q[key] for q in per_learner.values())
                            / len(per_learner))
        quality["learner_f1"] = {k: q["micro_f1"]
                                 for k, q in per_learner.items()}
    errors, quant = check_quantify(
        os.path.join(out, "quantify.tsv"),
        read_labels(os.path.join(inputs, "test.csv")), categories)
    per_call.append(errors)
    quality.update(quant)
    return per_call, quality
