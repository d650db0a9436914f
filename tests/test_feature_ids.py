"""Extraction straight to feature ids.

`documents_to_index` with an `ExtractorConfig` extracts each document to its
distinct {feature id: count} in the build's one vocabulary.  Checked here:

* against the text path it replaced, kept as the reference: `build_index`
  over each document's `[*config.extract(text), *doc.features]`, for every
  extractor kind, with and without a stop list and stemmer, and for one
  config reused across two corpora; and against the oracles that share no
  code with either, the pre-memo extractors of `test_textproc_reference`
  (with the Set merge as it was) and the entry-by-entry build of
  `test_build_index_reference`;
* the calls the benchmark tracer counts: one extract call per document
  through the module's `extract_*` attributes, whose results' lengths sum
  to the index's nonzeros, and one `porter_stem` call per distinct kept
  token;
* the tracemalloc peak of `documents_to_index` per nonzero.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from jatecs import build_index, textproc
from jatecs.corpus import RawDocument, documents_to_index
from jatecs.index import index_file_map
from jatecs.textproc import (ExtractorConfig, decode_entities,
                             english_stopwords, tokenize)

from test_build_index_reference import reference_build_index
from test_index_stage_memory import CATEGORIES as MEMORY_CATEGORIES
from test_index_stage_memory import _documents, _extractor
from test_memory_bounds import _peak_bytes
from test_textproc_reference import (reference_aggregate, reference_bow,
                                     reference_char_ngrams, reference_ngrams)

CATEGORIES = ["sports", "politics", "science"]

# words, stop words, stemmable forms, entities, punctuation, unicode and
# whitespace other than a space
_PIECES = ["ball", "balls", "the", "and", "of", "running", "runs", "goal",
           "&amp;", "&lt;b&gt;", "&#233;t&#xE9;", "&#9;", "a.b", "(on)",
           "!?", "-", "42nd", "Café", "東京", "\t", " "]
_STOP_ONLY = ["the", "and", "of", "a"]

texts = st.one_of(
    st.lists(st.sampled_from(_PIECES), max_size=10).map(" ".join),
    st.lists(st.sampled_from(_STOP_ONLY), max_size=4).map(" ".join))

# pre-extracted (text, count, weight) entries; some texts are ones the
# extractors give too, namespaced or not
_FEATURE_TEXTS = ["ball", "run", "goal", "0#ball", "1#bal", "0#0#ball",
                  "bal", "all", "x=1", "score"]
features = st.lists(st.tuples(st.sampled_from(_FEATURE_TEXTS),
                              st.integers(1, 3),
                              st.sampled_from([0.5, 1.0, 2.25, -0.0])),
                    max_size=3)


@st.composite
def configs(draw, depth=0):
    """A fresh ExtractorConfig of any kind; a Set nests at most once."""
    stoplist = draw(st.sampled_from([None, english_stopwords()]))
    stemmer = draw(st.sampled_from([None, "EnglishPorter"]))
    kind = draw(st.sampled_from(["BOW", "CharNGram", "Set"] if depth < 2
                                else ["BOW", "CharNGram"]))
    if kind == "BOW":
        return ExtractorConfig(kind="BOW", stoplist=stoplist, stemmer=stemmer)
    if kind == "CharNGram":
        return ExtractorConfig(kind="CharNGram",
                               ngram_size=draw(st.integers(1, 4)),
                               word_bounded=draw(st.booleans()),
                               stoplist=stoplist, stemmer=stemmer)
    children = tuple(draw(st.lists(configs(depth + 1), min_size=1,
                                   max_size=3)))
    return ExtractorConfig(kind="Set", namespacing=draw(st.booleans()),
                           children=children)


@st.composite
def corpora(draw):
    n = draw(st.integers(0, 5))
    return [RawDocument(name=f"d{i}", text=draw(texts),
                        labels=tuple(draw(st.lists(
                            st.sampled_from(CATEGORIES), unique=True))),
                        features=tuple(draw(features)))
            for i in range(n)]


def _fresh(config: ExtractorConfig) -> ExtractorConfig:
    """An equal config with an empty stem memo."""
    return ExtractorConfig(
        kind=config.kind, ngram_size=config.ngram_size,
        word_bounded=config.word_bounded, stoplist=config.stoplist,
        stemmer=config.stemmer, namespacing=config.namespacing,
        children=tuple(map(_fresh, config.children)))


def _text_path(documents, config):
    """The reference: each document's extracted (text, count) entries, then
    its pre-extracted ones, through build_index."""
    return index_file_map(build_index(
        [(doc.name, [*config.extract(doc.text), *doc.features])
         for doc in documents],
        [(doc.name, list(doc.labels)) for doc in documents], CATEGORIES))


def _oracle_extract(config, text) -> list:
    """[(featureText, count)] of `text`, from the pre-memo oracles."""
    if config.kind == "BOW":
        return reference_bow(text, config.stoplist, config.stemmer)
    if config.kind == "CharNGram":
        if config.word_bounded:
            return reference_char_ngrams(text, config.ngram_size,
                                         config.stoplist, config.stemmer)
        flat = " ".join(decode_entities(text).lower().split())
        return reference_aggregate(
            reference_ngrams(flat, config.ngram_size) if flat else [])
    merged: dict = {}
    for i, child in enumerate(config.children):
        for text_feat, n in _oracle_extract(child, text):
            key = f"{i}#{text_feat}" if config.namespacing else text_feat
            merged[key] = merged.get(key, 0) + n
    return list(merged.items())


def _oracle(documents, config):
    return index_file_map(reference_build_index(
        [(doc.name, [*_oracle_extract(config, doc.text), *doc.features])
         for doc in documents],
        [(doc.name, list(doc.labels)) for doc in documents], CATEGORIES))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(documents=corpora(), config=configs())
@example(documents=[], config=ExtractorConfig())
@example(documents=[RawDocument("d0", "", ()),
                    RawDocument("d1", "the of and", ())],
         config=ExtractorConfig(stoplist=english_stopwords()))
@example(documents=[RawDocument("d0", "ball balls", (),
                                (("ball", 2, 0.5),))],
         config=ExtractorConfig(stemmer="EnglishPorter"))
@example(documents=[RawDocument("d0", "ball", (), (("0#ball", 1, 2.25),))],
         config=ExtractorConfig(kind="Set", children=(
             ExtractorConfig(), ExtractorConfig(kind="CharNGram"))))
def test_ids_give_the_text_path_bytes(documents, config):
    built = index_file_map(documents_to_index(documents, CATEGORIES, config))
    assert built == _text_path(documents, _fresh(config))
    assert built == _oracle(documents, config)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(first=corpora(), second=corpora(), config=configs())
def test_a_config_reused_across_corpora_gives_fresh_config_bytes(
        first, second, config):
    """The stem memo outlives a build; the vocabulary and raw-token maps
    do not, so a second corpus gets the ids a fresh config gives it."""
    assert index_file_map(documents_to_index(first, CATEGORIES, config)) == \
        _text_path(first, _fresh(config))
    built = index_file_map(documents_to_index(second, CATEGORIES, config))
    assert built == index_file_map(documents_to_index(second, CATEGORIES,
                                                      _fresh(config)))
    assert built == _text_path(second, _fresh(config))
    assert built == _oracle(second, config)


def test_entries_walked_after_the_extracted_features():
    """Entries the bulk check leaves to the walk (counts adding up to 2**63,
    a float count) are walked after the document's extracted features, as
    entries, so their weights add up in the text path's order."""
    config = ExtractorConfig(stemmer="EnglishPorter")
    documents = [
        RawDocument("d0", "ball goal", (), (("ball", 2**62, 0.1),
                                            ("x", 2**62, 1.5))),
        RawDocument("d1", "team balls", (), (("ball", 2**61, 0.1),
                                             ("ball", 1, 0.1),
                                             ("team", 2**62 + 2**61, 0.3))),
        RawDocument("d2", "goal", (), (("goal", 2.0, None),))]
    built = index_file_map(documents_to_index(documents, CATEGORIES, config))
    assert built == _text_path(documents, _fresh(config))
    assert built == _oracle(documents, config)


def _trace_calls(monkeypatch):
    """Count calls as the benchmark tracer does: an extract call made inside
    another is part of it; every porter_stem call counts."""
    lengths, stems, depth = [], [], [0]

    def wrap(extract):
        def counted(*args, **kwargs):
            depth[0] += 1
            try:
                result = extract(*args, **kwargs)
            finally:
                depth[0] -= 1
            if depth[0] == 0:
                lengths.append(len(result))
            return result
        return counted

    for attr in ("extract_bow", "extract_char_ngrams", "extract_set"):
        monkeypatch.setattr(textproc, attr, wrap(getattr(textproc, attr)))
    stem = textproc.porter_stem

    def counted_stem(token):
        stems.append(token)
        return stem(token)
    monkeypatch.setattr(textproc, "porter_stem", counted_stem)
    return lengths, stems


_TRACED_TEXTS = ["The runners were running to the goals",
                 "a goal, a ball &amp; balls; RUNNING", "", "the of and",
                 "balls balls balls"]


def _traced_documents():
    return [RawDocument(name=f"d{i}", text=text, labels=("sports",),
                        features=())
            for i, text in enumerate(_TRACED_TEXTS * 3)]


def _stemmed(**kwargs):
    return ExtractorConfig(stoplist=english_stopwords(),
                           stemmer="EnglishPorter", **kwargs)


def test_the_tracer_counts_one_extract_call_per_document(monkeypatch):
    documents = _traced_documents()
    kept = {token for doc in documents for token in tokenize(doc.text)
            if token not in english_stopwords()}
    for config, stemming_leaves in (
            (_stemmed(kind="BOW"), 1),
            (_stemmed(kind="CharNGram", ngram_size=3), 1),
            (ExtractorConfig(kind="Set", children=(
                _stemmed(kind="BOW"), _stemmed(kind="CharNGram"))), 2)):
        lengths, stems = _trace_calls(monkeypatch)
        index = documents_to_index(documents, CATEGORIES, config)
        assert len(lengths) == len(documents)
        assert sum(lengths) == len(index.arrays().counts)
        assert len(stems) == stemming_leaves * len(kept)
        assert set(stems) == kept
        # a second build with the config stems nothing again
        del lengths[:], stems[:]
        documents_to_index(documents[::-1], CATEGORIES, config)
        monkeypatch.undo()
        assert len(lengths) == len(documents)
        assert stems == []


def test_documents_to_index_peak_per_nonzero_with_feature_ids():
    """The raw-token maps and the vocabulary are gone before the build's
    arrays are made (74.6 B/nnz on this corpus; keeping them is 87)."""
    documents = _documents(11, 1200, 120, 30_000)
    built = []
    peak = _peak_bytes(lambda: built.append(
        documents_to_index(documents, MEMORY_CATEGORIES, _extractor())))
    nnz = len(built[0].arrays().counts)
    assert nnz >= 80_000
    assert peak / nnz <= 85, peak / nnz
