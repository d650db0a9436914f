"""Memory high-water marks of the index stage, measured with tracemalloc on
a generated text corpus (stop list and Porter stemmer on).

Each bound sits between the peak of the code that keeps every document's
(featureText, count) list, or both of a raw index's relation files, alive
at once, and the peak of this code, with room on both sides:

* documents_to_index: bytes of peak per nonzero (was 166, now 75 on the
  corpus below);
* serialize_index of the raw index: peak over the bytes of its
  content.tsv (was 2.2, now 0.7).
"""

import os

import pytest

from jatecs.corpus import RawDocument, documents_to_index
from jatecs.index import serialize_index
from jatecs.rng import SplitMix64
from jatecs.textproc import ExtractorConfig, english_stopwords

from test_memory_bounds import _peak_bytes

_SYLLABLES = ["ka", "ro", "mi", "tu", "le", "sa", "no", "vi", "de", "pa",
              "go", "ri", "ze", "lo", "ba", "te", "fu", "ni", "ce", "ma"]
_SUFFIXES = ["", "s", "ing", "ed", "ness", "ly"]


def _word(rank):
    """A pronounceable word per rank; ranks a suffix apart share a stem."""
    stem, suffix = divmod(rank, len(_SUFFIXES))
    syllables = [_SYLLABLES[stem % 20]]
    while stem >= 20:
        stem //= 20
        syllables.append(_SYLLABLES[stem % 20])
    return "".join(syllables) + _SUFFIXES[suffix]


def _documents(seed, n_docs, tokens, n_words):
    """n_docs texts of `tokens` Zipf-like draws from n_words words, with a
    stop word every fifth token, one category label each."""
    rng = SplitMix64(seed)
    stop = sorted(english_stopwords())
    docs = []
    for d in range(n_docs):
        words = [stop[rng.next_below(len(stop))] if i % 5 == 4 else
                 _word(int(n_words * (rng.next_below(2**20) / 2**20) ** 2))
                 for i in range(tokens)]
        docs.append(RawDocument(name=f"d{d}", text=" ".join(words),
                                labels=(f"c{rng.next_below(4)}",)))
    return docs


CATEGORIES = ["c0", "c1", "c2", "c3"]


def _extractor():
    return ExtractorConfig(kind="BOW", stoplist=english_stopwords(),
                           stemmer="EnglishPorter")


@pytest.fixture(scope="module")
def documents():
    return _documents(11, 1200, 120, 30_000)


def test_documents_to_index_peak_per_nonzero(documents):
    built = []
    peak = _peak_bytes(lambda: built.append(
        documents_to_index(documents, CATEGORIES, _extractor())))
    nnz = len(built[0].arrays().counts)
    assert nnz >= 80_000
    assert peak / nnz < 120, peak / nnz


def test_raw_index_serialize_peak(documents, tmp_path):
    index = documents_to_index(documents, CATEGORIES, _extractor())
    peak = _peak_bytes(lambda: serialize_index(index, tmp_path))
    content = os.path.getsize(tmp_path / "content.tsv")
    assert content >= 10**6
    assert peak / content < 1.4, peak / content
