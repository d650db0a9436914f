"""Child process of the benchmark; every jatecs import happens here.

    worker.py setup WORKLOAD SEED DIR       write inputs, build set-up indexes
    worker.py calls SPEC.json RESULT.json   run CLI calls in this process
    worker.py footprint INDEX_DIR RESULT.json

`calls` reads {"calls": [argv, ...], "trace": 0|1, "run_id": n} and times
each call from its entry into `jatecs.cli.main` to its return, which is after
the call's last output file is written.  Before the first call and after each
call it takes contention samples (contention.py).  The CLI's own printing goes
to /dev/null so it does not mix with the result.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, HERE)
sys.path.insert(0, SRC)

import contention  # noqa: E402


def _import_cli():
    from jatecs import cli
    expected = os.path.join(SRC, "jatecs")
    if os.path.dirname(os.path.abspath(cli.__file__)) != expected:
        raise SystemExit(f"jatecs imported from {cli.__file__}, not {expected}")
    return cli


@contextlib.contextmanager
def _quiet():
    """Send the CLI's printing to /dev/null."""
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        yield


def _write_json(path, data) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)


def setup(workload: str, seed: int, directory: str) -> None:
    import numpy

    import jatecs
    import workloads

    _import_cli()
    os.makedirs(directory, exist_ok=True)
    with _quiet():
        stats = workloads.set_up(workload, seed, directory)
    _write_json(os.path.join(directory, "setup.json"), {
        "corpora": stats, "jatecs_version": jatecs.__version__,
        "numpy_version": numpy.__version__,
        "python_version": sys.version.split()[0]})


def calls(spec_path: str, result_path: str) -> None:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    cli = _import_cli()
    main = cli.main
    recorder = None
    if spec["trace"]:
        import tracing
        recorder = tracing.install(spec["run_id"])
        main = recorder.span(main, "cli.main")
    results = []
    boundaries = [contention.sample()]
    with _quiet():
        for argv in spec["calls"]:
            error = None
            rc = None
            start = time.perf_counter()
            try:
                rc = main(argv)
            except Exception:  # an operation that fails must not stop the run
                error = traceback.format_exc()
            seconds = time.perf_counter() - start
            results.append({"argv": argv, "rc": rc, "error": error,
                            "seconds": seconds})
            boundaries.append(contention.sample())
    _write_json(result_path, {
        "calls": results, "boundaries": boundaries,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "trace": recorder.dump() if recorder is not None else None})


def footprint(index_dir: str, result_path: str) -> None:
    """Bytes the library retains for one freshly loaded index, per nonzero.
    Runs in its own process, outside every timed call."""
    import tracemalloc

    _import_cli()
    from jatecs.index import deserialize_index

    tracemalloc.start()
    index = deserialize_index(index_dir)
    retained, _ = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    nnz = sum(1 for _ in index.content_items())
    _write_json(result_path, {"bytes": retained, "nnz": nnz})


def main(argv) -> int:
    command, *rest = argv
    if command == "setup":
        setup(rest[0], int(rest[1]), rest[2])
    elif command == "calls":
        calls(rest[0], rest[1])
    elif command == "footprint":
        footprint(rest[0], rest[1])
    else:
        print(f"unknown worker command {command!r}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
