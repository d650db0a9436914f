"""The summation kernels add left to right, and no output of the command line
depends on how the interpreter's builtin sum() rounds.

From Python 3.12 on, builtin sum() over floats is compensated (Neumaier);
`neumaier_sum` below follows its algorithm in Python/bltinmodule.c, so the
second part checks on any interpreter what a 3.12 run would write.
"""

import builtins
import math
import os
import random
import shutil
import sys

import pytest

from jatecs.cli import EXIT_OK, main
from jatecs.sums import row_sums, seq_sum

TOY_DIR = os.path.join(os.path.dirname(__file__), "..", "src", "jatecs",
                       "data", "toy")
TOY_CORPUS = os.path.join(TOY_DIR, "corpus.csv")
TOY_CATEGORIES = os.path.join(TOY_DIR, "categories.txt")

_C_LONG = range(-2 ** 63, 2 ** 63)


def neumaier_sum(iterable, /, start=0):
    """builtins.sum as CPython 3.12 computes it: exact ints, then exact
    floats (and C-long ints) with Neumaier's compensation, then the generic
    `+` for anything else."""
    items = iter(iterable)
    total = start
    if type(total) is int:
        for item in items:
            total = total + item
            if type(item) not in (int, bool):
                break
        else:
            return total
    if type(total) is float:
        f, c = total, 0.0
        for item in items:
            if type(item) is float:
                t = f + item
                if abs(f) >= abs(item):
                    c += (f - t) + item
                else:
                    c += (item - t) + f
                f = t
            elif isinstance(item, int) and item in _C_LONG:
                f += float(item)
            else:
                if c and math.isfinite(c):
                    f += c
                total = f + item
                break
        else:
            if c and math.isfinite(c):
                f += c
            return f
    for item in items:
        total = total + item
    return total


class TestNeumaierEmulation:
    def test_compensates_like_python_3_12(self):
        assert neumaier_sum([0.1] * 10) == 1.0
        assert neumaier_sum([1e16, 1.0, -1e16]) == 1.0
        assert neumaier_sum([1, 2, True]) == 4
        assert neumaier_sum([]) == 0

    @pytest.mark.skipif(sys.version_info < (3, 12),
                        reason="builtin sum() compensates from Python 3.12")
    def test_equals_the_builtin(self):
        rng = random.Random(5)
        for _ in range(200):
            values = [rng.uniform(-1, 1) * 10 ** rng.randint(-8, 16)
                      for _ in range(rng.randint(0, 40))]
            assert repr(neumaier_sum(values)) == repr(sum(values))


class TestKernels:
    def test_seq_sum_runs_left_to_right(self):
        # a compensated sum gives 1.0 for both
        assert seq_sum([0.1] * 10) == 0.9999999999999999
        assert seq_sum([1e16, 1.0, -1e16]) == 0.0
        assert seq_sum([1e16, -1e16, 1.0]) == 1.0

    def test_seq_sum_start(self):
        assert seq_sum([]) == 0.0
        assert math.copysign(1.0, seq_sum([-0.0])) == 1.0
        assert math.copysign(1.0, seq_sum([-0.0], start=-0.0)) == -1.0
        assert seq_sum([0.5, 0.25], start=2.0) == 2.75
        assert type(seq_sum([True, False, True])) is float

    def test_row_sums_add_in_input_order(self):
        sums = row_sums([0, 1, 0, 0, 1, 1],
                        [1e16, 1e16, 1.0, -1e16, -1e16, 1.0], 3)
        assert sums[0] == 0.0   # (1e16 + 1.0) - 1e16
        assert sums[1] == 1.0   # (1e16 - 1e16) + 1.0
        assert math.copysign(1.0, sums[2]) == -1.0  # no terms: the start

    def test_row_sums_start_and_term_rows(self):
        sums = row_sums([0, 0], [0.5, 0.25], 2, start=1.0)
        assert sums.tolist() == [1.75, 1.0]
        assert row_sums([1, 0, 1], [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]],
                        2).tolist() == [[3.0, 4.0], [6.0, 8.0]]


def _toy_run(root):
    """The toy corpus through every pipeline stage and a kfold per learner;
    returns {path under root: bytes} of every file written."""
    out = os.path.join(root, "pipeline")
    calls = [["pipeline", "--input", TOY_CORPUS,
              "--categories", TOY_CATEGORIES,
              "--stoplist", "en", "--stem", "en", "--k", "50", "--stages",
              "index,tsr,weight,train,classify,eval,quantify", "--folds", "5",
              "--out", out]]
    for learner in ("nb", "rocchio", "knn", "boost"):
        calls.append(["kfold", "--index", os.path.join(out, "weight"),
                      "--learner", learner, "--k", "5", "--mode", "stratified",
                      "--out", os.path.join(root, f"kfold-{learner}.tsv")])
    for args in calls:
        assert main(args) == EXIT_OK
    files = {}
    for folder, _, names in os.walk(root):
        for name in names:
            path = os.path.join(folder, name)
            with open(path, "rb") as fh:
                files[os.path.relpath(path, root)] = fh.read()
    return files


def test_outputs_do_not_depend_on_builtin_sum(tmp_path, monkeypatch, capsys):
    root = str(tmp_path / "run")  # one path for both runs, as logs name it
    plain = _toy_run(root)
    plain_log = capsys.readouterr()
    shutil.rmtree(root)
    monkeypatch.setattr(builtins, "sum", neumaier_sum)
    patched = _toy_run(root)
    patched_log = capsys.readouterr()
    assert sorted(patched) == sorted(plain)
    assert len(plain) > 20
    for name, data in plain.items():
        assert patched[name] == data, name
    assert patched_log == plain_log
