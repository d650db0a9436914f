"""kNN with k above the training-set size: every training document is then a
neighbour, so k = D_train + 1 and k = 10**9 score as k = D_train does, bit
for bit, both for a whole index and one document at a time."""

import numpy as np
import pytest

from jatecs import KnnLearner, train
from jatecs.weighting import tfidf_normalized

from conftest import random_corpus


def _bits(array):
    return np.ascontiguousarray(array, dtype=np.float64).tobytes()


@pytest.mark.parametrize("seed", range(12))
def test_k_above_the_training_size_scores_as_k_equal_to_it(seed):
    index = tfidf_normalized(random_corpus(seed, max_docs=40))
    n_train = index.num_documents
    expected = train(KnnLearner(k=n_train), index).score_index(index)
    for k in (n_train + 1, 10**9):
        classifier = train(KnnLearner(k=k), index)
        assert _bits(classifier.score_index(index)) == _bits(expected), k
        assert [classifier.score_document(index, d)
                for d in range(n_train)] == expected.tolist(), k
