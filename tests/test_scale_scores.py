"""The quantifiers' logistic over an array of scores is scale_score's,
bit for bit, whatever the score and the slope."""

import math
import struct

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jatecs.quantification import LogisticScaling, scale_score, scale_scores

NEGATIVE_NAN = struct.unpack("<d", struct.pack("<Q", 0xFFF8000000000001))[0]
EDGES = [0.0, -0.0, math.inf, -math.inf, math.nan, NEGATIVE_NAN, 1e308,
         -1e308, 5e-324, -5e-324, 709.8, -709.8, 745.2, -745.2, 36.8, -36.8]
SLOPES = st.one_of(st.sampled_from([1.0, 0.5, 2.0, 1e-3, 1e3, 1e-300, 1e300]),
                   st.floats(min_value=1e-300, max_value=1e300))


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


@given(st.lists(st.one_of(st.sampled_from(EDGES),
                          st.floats(min_value=-1e308, max_value=1e308),
                          st.floats(allow_nan=True, allow_infinity=True))),
       SLOPES)
@settings(max_examples=300, deadline=None)
@example(EDGES, 1.0)
@example(EDGES, 1e300)
@example([], 1.0)
def test_array_logistic_is_the_scalar_one(scores, slope):
    scaling = LogisticScaling(slope=slope)
    got = scale_scores(scaling, np.array(scores, dtype=np.float64))
    assert got.dtype == np.float64 and got.shape == (len(scores),)
    assert [bits(x) for x in got.tolist()] == \
        [bits(scale_score(scaling, s)) for s in scores]
