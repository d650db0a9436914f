"""`documents_to_index` is one `build_index` call that extracts each
document once, as it reads it: an extractor sees every document exactly
once, whatever entries it gives, and a document's entries are its text
features followed by its pre-extracted ones, as the entry-by-entry oracle
of `test_build_index_reference` builds them.  `build_index` checks each
document as it reads it, so its first error is the oracle's."""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from jatecs import ValidationError, build_index
from jatecs.corpus import RawDocument, documents_to_index
from jatecs.index import index_file_map
from jatecs.textproc import ExtractorConfig

from test_build_index_reference import (
    assert_same_outcome,
    outcome,
    reference_build_index,
)
from test_streamed_index import CATEGORIES, extractors, texts


class _Counting:
    """An extractor that counts its calls, giving the entries of `extract`
    or, if a text is a key of `listed`, that text's entries."""

    def __init__(self, extract, listed=None):
        self._extract = extract
        self.listed = listed or {}
        self.calls = 0

    def extract(self, text):
        self.calls += 1
        if text in self.listed:
            return self.listed[text]
        return self._extract(text)


def _text_documents(n):
    return [RawDocument(name=f"d{i}", text=f"ball goal {'team ' * i}",
                        labels=(CATEGORIES[i % 3],)) for i in range(n)]


def test_a_text_corpus_is_extracted_once():
    documents = _text_documents(5)
    extractor = _Counting(ExtractorConfig(kind="BOW").extract)
    documents_to_index(documents, CATEGORIES, extractor)
    assert extractor.calls == len(documents)


def test_odd_entries_are_extracted_once():
    """A repeated text, a 3-tuple and a float count: entries the bulk check
    leaves to the walk, which reads them without a second extraction."""
    documents = _text_documents(4)
    extractor = _Counting(ExtractorConfig(kind="BOW").extract, listed={
        documents[1].text: [("a", 1), ("a", 2)],
        documents[2].text: [("a", 1, 0.5)],
        documents[3].text: [("b", 2.0)]})
    index = documents_to_index(documents, CATEGORIES, extractor)
    assert extractor.calls == len(documents)
    assert index.num_documents == len(documents)


def test_documents_with_features_are_extracted_once():
    documents = [RawDocument(name=doc.name, text=doc.text, labels=doc.labels,
                             features=(("x", 2, 1.5), ("k=v", 1, 1.0)))
                 for doc in _text_documents(5)]
    extractor = _Counting(ExtractorConfig(kind="BOW").extract)
    index = documents_to_index(documents, CATEGORIES, extractor)
    assert extractor.calls == len(documents)
    assert "x" in index.features and "k=v" in index.features


def test_build_index_checks_each_document_as_it_reads_it():
    """A bad first name raises before the next document is drawn, and
    before a later pair that is malformed, as in the oracle."""
    drawn = []

    def documents():
        for name in ("", "d1"):
            drawn.append(name)
            yield name, [("a", 1)]

    assert outcome(build_index, documents(), [], ["x"]) == (
        ValidationError, "empty document name")
    assert drawn == [""]
    assert_same_outcome([("", [("a", 1)]), ("d1", [("a", 1)], "extra")],
                        [], ["x"])


# ARFF-style features: a numeric attribute as (name, its ceiling, at least
# 1, and the value as weight), a nominal one as a "name=value" presence;
# names that clash with text features or each other add up, and the rarer
# empty and tabbed names fail, as do counts that add up to 2**63
_NAMES = ["x", "y", "ball", "goal"] * 4 + ["", "a\tb"]
_VALUES = [0.5, 2.25, -1.5, 3.0, 1e-3, 7, 2.0**62]

numeric = st.builds(lambda name, v: (name, max(1, math.ceil(v)), v),
                    st.sampled_from(_NAMES), st.sampled_from(_VALUES))
nominal = st.builds(lambda name, value: (f"{name}={value}", 1, 1.0),
                    st.sampled_from(_NAMES), st.sampled_from(["a", "b"]))


@st.composite
def featured_corpora(draw):
    n = draw(st.integers(0, 5))
    return [RawDocument(
        name=draw(st.sampled_from([f"d{i}"] * 12 + ["d0", ""])),
        text=draw(texts),
        labels=tuple(draw(st.lists(st.sampled_from(CATEGORIES),
                                   unique=True))),
        features=tuple(draw(st.lists(st.one_of(numeric, nominal),
                                     max_size=4))))
        for i in range(n)]


def _outcome(build):
    """The serialized index `build()` returns, or its error's type and
    text."""
    try:
        return index_file_map(build())
    except Exception as exc:  # compared, whatever it is
        return type(exc), str(exc)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(documents=featured_corpora(), extractor=extractors())
@example(documents=[RawDocument("d0", "ball ball", (), (("ball", 2, 0.5),))],
         extractor=ExtractorConfig())
@example(documents=[RawDocument("d0", "", (), (("x", 1, 1e308),
                                               ("x", 1, 1e308)))],
         extractor=ExtractorConfig())
def test_text_and_features_match_the_oracle(documents, extractor):
    """The same index or error as the oracle over each document's text
    entries followed by its pre-extracted ones."""
    expected = _outcome(lambda: reference_build_index(
        [(doc.name, [*extractor.extract(doc.text), *doc.features])
         for doc in documents],
        [(doc.name, list(doc.labels)) for doc in documents], CATEGORIES))
    assert _outcome(lambda: documents_to_index(
        documents, CATEGORIES, extractor)) == expected
