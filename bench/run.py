"""The jatecs benchmark: seeded workloads run through the `jatecs` CLI.

    python3 bench/run.py --workload pipeline|learn|all \\
        --seed N --seconds S --trace 0|1

Run it from a checkout of the repository; it reads the library from
src/jatecs and writes only under .bench_work/.  It pins itself and every
process it starts to one CPU.  For each workload it

1. sets up the inputs SETUP_REPEATS times, each in a fresh process
   (interpreter start, `import jatecs`, corpus generation, set-up index
   build), and reports the median normalized time as `setup_s`;
2. runs timed rounds of CLI calls in a closed loop, one client and one fresh
   process per round, until S seconds have passed;
3. normalizes every call and set-up time for host contention
   (contention.py) and reports the median round as `wall_norm_s`;
4. checks every call's outputs against the generator's labels and checks
   that every round wrote byte-identical files;
5. prints every metric as `name value unit`, then one JSON line with
   `correct`, `attempted`, `failed` and `metrics`.

With --trace 0 the metrics are the end-to-end ones.  With --trace 1 rounds
alternate between untraced and traced, and the metrics are the per-layer
ones from the traced rounds (see tracing.py).  The full result, with the
set-up facts and the environment, is written to
.bench_work/results/<workload>-seed<N>-trace<T>.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import contention  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

WORKER = os.path.join(HERE, "worker.py")
WORK_ROOT = os.path.join(ROOT, ".bench_work")
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 150

END_TO_END = {"wall_norm_s": "s", "setup_s": "s", "peak_rss_mb": "MiB",
              "ok_frac": "ratio", "micro_f1": "ratio", "macro_f1": "ratio"}

_LEARNERS = tuple(tracing.LEARNER_KEYS.values())
PER_LAYER = {
    "corpus.read_s": "s", "corpus.docs": "count",
    "corpus.to_index_self_s": "s",
    "textproc.extract_s": "s", "textproc.features_out": "count",
    "porter.stem_s": "s", "porter.calls": "count",
    "index.build_s": "s", "index.nnz": "count", "index.bytes_per_nnz": "B/nnz",
    "index.serialize_s": "s", "index.serialize_calls": "count",
    "index.bytes_written": "B",
    "index.deserialize_s": "s", "index.deserialize_calls": "count",
    "index.bytes_read": "B",
    "index.subset_s": "s", "index.subset_calls": "count",
    "tsr.rank_s": "s", "tsr.pairs_scored": "count", "tsr.select_s": "s",
    "weighting.tfidf_s": "s", "weighting.nnz": "count",
    **{f"learners.{k}.{m}": unit for k in _LEARNERS
       for m, unit in (("train_s", "s"), ("train_calls", "count"),
                       ("score_s", "s"), ("scores", "count"),
                       ("micro_f1", "ratio"))},
    "learners.model_io_s": "s", "learners.model_bytes": "B",
    "evaluation.compare_s": "s",
    "experiments.make_folds_s": "s", "experiments.kfold_self_s": "s",
    "quantification.learn_self_s": "s", "quantification.quantify_s": "s",
    "quantification.mae": "ratio",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


class BenchError(Exception):
    """The benchmark cannot produce a result (set-up failed, no source)."""


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("JATECS_THREADS", None)  # the calls pass --threads themselves
    return env


def _run_child(args, what: str) -> None:
    proc = subprocess.run([sys.executable, WORKER, *args], env=_child_env(),
                          capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"{what} failed (exit {proc.returncode}):\n"
                         f"{proc.stderr[-4000:]}")


def _tree_hashes(directory) -> dict:
    """{relative path: sha256} of every file below `directory`."""
    out = {}
    for base, _, files in os.walk(directory):
        for name in files:
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            out[os.path.relpath(path, directory)] = digest
    return dict(sorted(out.items()))


def _load(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _run_process(work, calls, trace: bool, run_id: int) -> dict:
    """Run CLI calls in one fresh process, as a user's shell would."""
    spec = os.path.join(work, f"spec-{run_id}.json")
    result = os.path.join(work, f"result-{run_id}.json")
    with open(spec, "w", encoding="utf-8") as fh:
        json.dump({"calls": calls, "trace": int(trace), "run_id": run_id}, fh)
    _run_child(["calls", spec, result], f"round {run_id}")
    return _load(result)


def _set_up(name: str, seed: int, work: str) -> tuple:
    """SETUP_REPEATS fresh set-ups; returns (input dir, seconds, contention
    samples around each set-up, errors)."""
    seconds, hashes, errors = [], [], []
    boundaries = [contention.sample()]
    for k in range(SETUP_REPEATS):
        directory = os.path.join(work, f"setup{k}")
        start = time.perf_counter()
        _run_child(["setup", name, str(seed), directory], f"{name} set-up")
        seconds.append(time.perf_counter() - start)
        boundaries.append(contention.sample())
        hashes.append(_tree_hashes(directory))
        if k > 0:
            if hashes[k] != hashes[0]:
                errors.append(f"set-up {k} wrote other bytes than set-up 0")
            shutil.rmtree(directory)
    return os.path.join(work, "setup0"), seconds, boundaries, errors


def _timed_rounds(name: str, inputs: str, work: str, seconds: float,
                  trace: bool) -> list:
    """Closed loop of one client: the next round starts when the previous
    one has ended, until `seconds` have passed.  With tracing, rounds
    alternate untraced / traced and at least one of each runs."""
    rounds = []
    start = time.perf_counter()
    while True:
        index = len(rounds)
        traced = trace and index % 2 == 1
        out = os.path.join(work, f"round{index}")
        calls = workloads.round_calls(name, inputs, out)
        rounds.append(dict(_run_process(work, calls, traced, index),
                           out=out, traced=traced))
        if (time.perf_counter() - start >= seconds
                and (not trace or len(rounds) >= 2)):
            return rounds


def _judge_rounds(name: str, inputs: str, rounds: list) -> tuple:
    """Check every call; returns (attempted, failed, quality, errors).
    A call fails on an exception, a non-zero exit, a failed output check,
    or output bytes that differ from round 0's."""
    attempted = failed = 0
    quality, errors = {}, []
    reference = None
    for i, r in enumerate(rounds):
        try:
            call_errors, r_quality = checks.check_round(name, inputs, r["out"])
        except (OSError, ValueError, IndexError, KeyError) as exc:
            call_errors = [[f"unreadable output: {exc!r}"]] * len(r["calls"])
            r_quality = {}
        hashes = _tree_hashes(r["out"])
        if reference is None:
            reference, quality = hashes, r_quality
        elif hashes != reference:
            call_errors = [e + ["outputs differ from round 0"]
                           for e in call_errors]
        for call, problems in zip(r["calls"], call_errors):
            attempted += 1
            if call["rc"] != 0:
                problems = problems + [f"exit code {call['rc']}: "
                                       f"{call['error']}"]
            if problems:
                failed += 1
                errors.append(f"round {i} {call['argv'][0]}: "
                              + "; ".join(problems))
    return attempted, failed, quality, errors


def _round_wall(r) -> float:
    return sum(call["seconds"] for call in r["calls"])


def _normalize_rounds(rounds: list) -> None:
    """Set each round's `norm_s`: its calls' normalized times, summed."""
    for r in rounds:
        r["norm_s"] = sum(contention.normalize(
            [call["seconds"] for call in r["calls"]], r["boundaries"]))


def _layer_metrics(rounds: list, quality: dict, footprint: dict) -> tuple:
    """Per-layer figures per round: the median over traced rounds."""
    per_round, unmeasured, spans = [], set(), []
    for r in rounds:
        if r["traced"]:
            unmeasured.update(r["trace"]["unmeasured"])
            spans.extend(r["trace"]["spans"])
            per_round.append(tracing.layer_totals(r["trace"]))
    metrics = {key: statistics.median(t.get(key, 0) for t in per_round)
               for key in PER_LAYER}
    untraced = [r["norm_s"] for r in rounds if not r["traced"]]
    traced = [r["norm_s"] for r in rounds if r["traced"]]
    metrics["trace.overhead_s"] = (statistics.median(traced)
                                   - statistics.median(untraced))
    metrics["index.bytes_per_nnz"] = footprint["bytes"] / footprint["nnz"]
    for key, f1 in quality.get("learner_f1", {}).items():
        metrics[f"learners.{key}.micro_f1"] = f1
    metrics["quantification.mae"] = quality.get("quant_mae", 0.0)
    return metrics, sorted(unmeasured), spans


def _source_lines() -> int:
    total = 0
    src = os.path.join(ROOT, "src", "jatecs")
    for base, _, files in os.walk(src):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(base, name), "rb") as fh:
                    total += fh.read().count(b"\n")
    return total


def _git_commit() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or "unknown"


def _index_shape(index_dir) -> dict:
    """D/F/C from meta.tsv and nnz from content.tsv of a written index."""
    meta = {row[0]: int(row[1]) for row in
            checks.read_rows(os.path.join(index_dir, "meta.tsv"))}
    with open(os.path.join(index_dir, "content.tsv"), "rb") as fh:
        nnz = sum(1 for _ in fh)
    return {"D": meta["documents"], "F": meta["features"],
            "C": meta["categories"], "nnz": nnz}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    work = os.path.join(WORK_ROOT, f"{name}-seed{seed}-pid{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        inputs, setup_seconds, setup_bounds, errors = _set_up(name, seed,
                                                              work)
        rounds = _timed_rounds(name, inputs, work, seconds, trace)
        _normalize_rounds(rounds)
        setup_norm = contention.normalize(setup_seconds, setup_bounds)
        attempted, failed, quality, call_errors = _judge_rounds(
            name, inputs, rounds)
        errors += call_errors
        shape_dir = workloads.footprint_index(name, inputs, rounds[0]["out"])
        inputs_facts = _load(os.path.join(inputs, "setup.json"))
        inputs_facts["index"] = _index_shape(shape_dir)
        untraced = [r for r in rounds if not r["traced"]]
        metrics = {
            "wall_norm_s": statistics.median(r["norm_s"] for r in untraced),
            "setup_s": statistics.median(setup_norm),
            "peak_rss_mb": statistics.median(r["maxrss_kb"] / 1024.0
                                             for r in untraced),
            "ok_frac": (attempted - failed) / attempted,
            "micro_f1": quality.get("micro_f1"),
            "macro_f1": quality.get("macro_f1"),
        }
        if any(v is None for v in metrics.values()):
            errors.append("the output checks gave no F1 figures")
        result = {
            "workload": name, "seed": seed, "seconds": seconds,
            "trace": int(trace), "end_to_end": metrics, "quality": quality,
            "untraced_rounds": len(untraced),
            "raw": {"wall_s": statistics.median(_round_wall(r)
                                                for r in untraced),
                    "setup_s": statistics.median(setup_seconds)},
            "round_walls_s": [_round_wall(r) for r in untraced],
            "round_norms_s": [r["norm_s"] for r in untraced],
            "call_seconds": [[c["seconds"] for c in r["calls"]]
                             for r in rounds],
            "setup_runs_s": setup_seconds, "setup_norms_s": setup_norm,
            "contention_samples": {
                "setup": setup_bounds,
                "rounds": [r["boundaries"] for r in rounds]},
            "inputs": inputs_facts}
        if trace:
            fp_path = os.path.join(work, "footprint.json")
            _run_child(["footprint", shape_dir, fp_path], "footprint")
            layers, unmeasured, spans = _layer_metrics(rounds, quality,
                                                       _load(fp_path))
            result.update(per_layer=layers, unmeasured=unmeasured,
                          traced_rounds=len(rounds) - len(untraced))
            result["spans_file"] = _write_result(
                f"{name}-seed{seed}-spans.json",
                {"fields": ["name", "start", "end", "parent", "run_id",
                            "hot_s"], "spans": spans})
        result.update(correct=not errors, attempted=attempted, failed=failed,
                      errors=errors)
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _write_result(file_name: str, data: dict) -> str:
    directory = os.path.join(WORK_ROOT, "results")
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, file_name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1)
    return os.path.relpath(path, ROOT)


def _environment() -> dict:
    return {"nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "python": sys.version.split()[0], "git_commit": _git_commit(),
            "src_jatecs_lines": _source_lines()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "jatecs", "cli.py")):
        print(f"error: no jatecs sources under {ROOT}/src; run the benchmark "
              "from a checkout of the repository", file=sys.stderr)
        return 2
    # one CPU for the calls and the contention samples that normalize them
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    names = (workloads.WORKLOADS if args.workload == "all"
             else (args.workload,))
    env = _environment()
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for name in names:
            result = run_workload(name, args.seed, args.seconds,
                                  bool(args.trace))
            result["environment"] = env
            path = _write_result(
                f"{name}-seed{args.seed}-trace{args.trace}.json", result)
            metrics = result["per_layer"] if args.trace else result["end_to_end"]
            units = PER_LAYER if args.trace else END_TO_END
            prefix = f"{name}." if len(names) > 1 else ""
            for key in units:
                print(f"{prefix}{key} {metrics[key]!r} {units[key]}")
                summary["metrics"][prefix + key] = {"value": metrics[key],
                                                    "unit": units[key]}
            if not args.trace:
                for key, value in result["raw"].items():
                    print(f"{prefix}raw.{key} {value!r} s")
            for error in result["errors"]:
                print(f"check failed: {error}", file=sys.stderr)
            print(f"# {name}: {result['untraced_rounds']} untraced rounds, "
                  f"result in {path}",
                  file=sys.stderr)
            summary["correct"] = summary["correct"] and result["correct"]
            summary["attempted"] += result["attempted"]
            summary["failed"] += result["failed"]
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
