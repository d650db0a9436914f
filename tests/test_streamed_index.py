"""`documents_to_index` builds a text corpus with one `build_index` call,
which reads each document's entries once and keeps a feature id and a count
per entry, not the entries.  Checked against the entry-by-entry oracle of
`test_build_index_reference` over the same extracted entries: valid corpora
serialize to the same bytes, and odd inputs (bad or repeated names, unknown
labels, entries that are not (str, positive int) pairs, texts repeated
within a document) give the same index or raise the same error."""

from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jatecs.corpus import RawDocument, documents_to_index
from jatecs.index import index_file_map
from jatecs.textproc import ExtractorConfig, english_stopwords

from test_build_index_reference import reference_build_index

CATEGORIES = ["sports", "politics", "science"]

# words, stop words, stemmable forms, entities, unicode, punctuation and
# whitespace other than a space
_PIECES = ["ball", "the", "and", "running", "caresses", "ponies", "goal",
           "&amp;", "&lt;b&gt;", "&#233;t&#xE9;", "&#99999999;", "&quot;",
           "Café", "STRASSE", "straße", "İstanbul", "ﬁle", "東京", "😀",
           "a.b", "x,y", "(on)", "!?", "-", "7", "42nd", " ", "\t",
           " "]

texts = st.lists(st.sampled_from(_PIECES), max_size=8).map(" ".join)


@st.composite
def extractors(draw):
    stoplist = draw(st.sampled_from([None, english_stopwords()]))
    stemmer = draw(st.sampled_from([None, "EnglishPorter"]))

    def leaf():
        if draw(st.booleans()):
            return ExtractorConfig(kind="BOW", stoplist=stoplist,
                                   stemmer=stemmer)
        return ExtractorConfig(kind="CharNGram",
                               ngram_size=draw(st.integers(1, 4)),
                               word_bounded=draw(st.booleans()),
                               stoplist=stoplist, stemmer=stemmer)

    if draw(st.booleans()):
        return leaf()
    return ExtractorConfig(kind="Set", namespacing=draw(st.booleans()),
                           children=(leaf(), leaf()))


@st.composite
def corpora(draw):
    n = draw(st.integers(0, 6))
    return [RawDocument(name=f"d{i}", text=draw(texts),
                        labels=tuple(draw(st.lists(
                            st.sampled_from(CATEGORIES), unique=True))))
            for i in range(n)]


def _reference(documents, extractor):
    """The oracle over the entries the extractor gives each document."""
    return reference_build_index(
        [(doc.name, list(extractor.extract(doc.text))) for doc in documents],
        [(doc.name, list(doc.labels)) for doc in documents], CATEGORIES)


def _outcome(build):
    """The serialized index `build()` returns, or its error's type and
    text."""
    try:
        return index_file_map(build())
    except Exception as exc:  # compared, whatever it is
        return type(exc), str(exc)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(documents=corpora(), extractor=extractors())
@example(documents=[], extractor=ExtractorConfig())
@example(documents=[RawDocument("d0", "", ()), RawDocument("d1", "", ())],
         extractor=ExtractorConfig())
def test_streamed_text_corpora_are_build_index(documents, extractor):
    expected = index_file_map(_reference(documents, extractor))
    assert index_file_map(documents_to_index(documents, CATEGORIES,
                                             extractor)) == expected


@settings(max_examples=60, deadline=None, derandomize=True)
@given(documents=corpora().filter(len),
       faults=st.lists(st.tuples(st.integers(0, 5), st.sampled_from(
           ["", "a\tb", "a\nb", "repeat", "label"])), min_size=1, max_size=2))
def test_bad_names_and_unknown_labels_raise_as_build_index(documents,
                                                           faults):
    """An empty or tab/newline-holding document name, a repeated one (the
    document again, after itself) or an unknown label: the same error as
    the oracle's, the first in its order."""
    for position, fault in faults:
        at = position % len(documents)
        doc = documents[at]
        if fault == "repeat":
            documents.insert(at + 1, doc)
        elif fault == "label":
            documents[at] = replace(doc, labels=(*doc.labels, "weather"))
        else:
            documents[at] = replace(doc, name=fault)
    extractor = ExtractorConfig(kind="BOW")
    expected = _outcome(lambda: _reference(documents, extractor))
    assert not isinstance(expected, dict)
    assert _outcome(lambda: documents_to_index(
        documents, CATEGORIES, extractor)) == expected


class _Listed:
    """An extractor giving each document the entries its text indexes."""

    def __init__(self, entries):
        self.entries = entries

    def extract(self, text):
        return self.entries[int(text)]


_FEATURES = ["a", "b", "é", "", "a\tb"]
_COUNTS = [1, 2, 3, 0, -1, 2.0, 1.5, float("nan"), True, 2**53 + 1, 2**63]

entries = st.one_of(
    st.tuples(st.sampled_from(_FEATURES), st.sampled_from(_COUNTS)),
    st.tuples(st.sampled_from(_FEATURES), st.sampled_from(_COUNTS),
              st.sampled_from([None, 0.5, -0.0])),
    st.lists(st.sampled_from(_FEATURES + _COUNTS), min_size=2, max_size=2))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(per_doc=st.lists(st.lists(entries, max_size=4), max_size=4))
@example(per_doc=[[("a", 1), ("a", 2)]])
@example(per_doc=[[("a", 1)], [("b", 1, 0.5)]])
@example(per_doc=[[("a", 1.0)]])
@example(per_doc=[[("a", 2**63)]])
def test_odd_entries_give_build_index_outcome(per_doc):
    """Repeated texts, 3-tuples, lists, float, bool, non-positive and huge
    counts, bad feature names: the index or the error the oracle gives."""
    documents = [RawDocument(name=f"d{i}", text=str(i), labels=())
                 for i in range(len(per_doc))]
    extractor = _Listed(per_doc)
    assert _outcome(lambda: documents_to_index(
        documents, CATEGORIES, extractor)) == _outcome(
        lambda: _reference(documents, extractor))


@pytest.mark.parametrize("per_doc", [
    [[("a", 1), ("a", 2)]], [[("a", 1, 1.0)]], [[["a", 1]]], [[("a", 1.0)]],
    [[("a", True)]], [[("a", 0)]], [[("a", 2**63)]], [[("", 1)]],
    [[(1, 1)]]])
def test_the_pass_leaves_odd_entries_to_build_index(per_doc):
    """Entries the bulk check does not take are walked one by one: the
    index or the error the oracle gives."""
    documents = [RawDocument(name="d0", text="0", labels=())]
    extractor = _Listed(per_doc)
    assert _outcome(lambda: documents_to_index(
        documents, CATEGORIES, extractor)) == _outcome(
        lambda: _reference(documents, extractor))
