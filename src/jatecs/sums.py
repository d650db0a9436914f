"""The float summation kernels behind the library's outputs.

A sum adds its terms left to right onto a start value, the order of the
scalar loop ``total = start; for v in values: total += v``, on every
supported Python.  Builtin ``sum()`` is not used for floats, because from
Python 3.12 on it compensates its rounding (Neumaier 1974) and so gives
other bits than on 3.10 and 3.11; nor is ``np.sum``, whose pairwise
summation groups the terms by the array's length.  The start is part of the
result: ``0.0 + -0.0`` is ``0.0``, while ``-0.0``, the identity of addition,
leaves the first term as it is.  A weighted ``np.bincount`` adds in the same
order onto 0.0, as ``row_sums`` with that start does; the learners keep it
where it is the faster keyed sum.
"""

from __future__ import annotations

import numpy as np


def seq_sum(values, start=0.0) -> float:
    """`start` plus the values (a sequence), added left to right."""
    return float(np.cumsum(np.concatenate(([start], values)))[-1])


def row_sums(rows, terms, n_rows: int, start=-0.0) -> np.ndarray:
    """Per row, `start` plus its terms, added left to right in input order.

    ``terms[i]`` (a number, or a row of them) belongs to row ``rows[i]``; a
    row without terms keeps `start`.
    """
    sums = np.full((n_rows,) + np.shape(terms)[1:], start, dtype=np.float64)
    np.add.at(sums, rows, terms)
    return sums
