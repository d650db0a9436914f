"""Extraction against the per-character, per-token version it replaced.

The oracle below is the tokenizer, stop-list filter and stemming list
comprehension as they were before extraction memoized each distinct token
and split with one `str.translate`.  Tokens, bags of words and word-bounded
character n-grams must equal the oracle's, with and without a stop list and
stemmer, and one `ExtractorConfig` reused across documents must give what a
fresh config gives for each document.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from jatecs import ExtractorConfig, english_stopwords, porter_stem
from jatecs.textproc import (PUNCTUATION, decode_entities,
                             extract_bow, extract_char_ngrams, tokenize)


def reference_tokenize(text):
    text = decode_entities(text).lower()
    chars = [" " if ch in PUNCTUATION or ch.isspace() else ch for ch in text]
    tokens = "".join(chars).split()
    return [t for t in tokens if any(ch.isalnum() for ch in t)]


def reference_tokens(text, stoplist, stemmer):
    tokens = reference_tokenize(text)
    if stoplist is not None:
        tokens = [t for t in tokens if t not in stoplist]
    if stemmer == "EnglishPorter":
        tokens = [porter_stem(t) for t in tokens]
    return tokens


def reference_aggregate(features):
    counts = {}
    for f in features:
        counts[f] = counts.get(f, 0) + 1
    return list(counts.items())


def reference_ngrams(token, n):
    if len(token) <= n:
        return [token]
    return [token[i:i + n] for i in range(len(token) - n + 1)]


def reference_bow(text, stoplist, stemmer):
    return reference_aggregate(reference_tokens(text, stoplist, stemmer))


def reference_char_ngrams(text, n, stoplist, stemmer):
    return reference_aggregate(
        g for t in reference_tokens(text, stoplist, stemmer)
        for g in reference_ngrams(t, n))


# every character str.isspace() accepts
WHITESPACE = (" \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u1680"
              "\u2000\u2001\u2002\u2003\u2004\u2005\u2006\u2007\u2008\u2009"
              "\u200a\u2028\u2029\u202f\u205f\u3000")
# look-alikes that are not whitespace, so they stay inside tokens
NOT_WHITESPACE = "\u200b\u180e\ufeff"
ENTITIES = ["&amp;", "&lt;", "&gt;", "&quot;", "&apos;", "&#65;", "&#x42;",
            "&#32;", "&#x2028;", "&#160;", "&#x2c;", "&", "&amp", "&#;"]
WORDS = ["the", "The", "running", "Cats", "ational", "relational", "and",
         "ÉTÉ", "straße", "İstanbul", "ﬁne", "Σίσυφος", "x1", "42", "a-b",
         "--", "**", "_", "café", "naïve", "ponies", "hopping"]
CHARS = ("abcxyzABCXYZ0123456789-_*&#;éßΣİ" + "".join(sorted(PUNCTUATION))
         + WHITESPACE + NOT_WHITESPACE)

fragments = st.one_of(
    st.sampled_from(WORDS), st.sampled_from(ENTITIES),
    st.sampled_from(sorted(PUNCTUATION)), st.sampled_from(WHITESPACE),
    st.text(alphabet=CHARS, max_size=6), st.text(max_size=4))
texts = st.lists(fragments, max_size=30).map("".join)

STOPLISTS = [None, english_stopwords(), frozenset({"cats", "a-b", "été", "42"})]
stoplists = st.sampled_from(STOPLISTS)
stemmers = st.sampled_from([None, "EnglishPorter"])


def test_every_separator_splits():
    for sep in WHITESPACE + "".join(sorted(PUNCTUATION)):
        text = f"Ab{sep}c{sep}{sep}"
        assert tokenize(text) == reference_tokenize(text) == ["ab", "c"]


@given(texts)
@settings(max_examples=400, deadline=None)
def test_tokenize_matches_reference(text):
    assert tokenize(text) == reference_tokenize(text)


@given(texts, stoplists, stemmers)
@settings(max_examples=400, deadline=None)
def test_bow_matches_reference(text, stoplist, stemmer):
    assert extract_bow(text, stoplist, stemmer) == \
        reference_bow(text, stoplist, stemmer)


@given(texts, st.integers(1, 5), stoplists, stemmers)
@settings(max_examples=400, deadline=None)
def test_char_ngrams_match_reference(text, n, stoplist, stemmer):
    assert extract_char_ngrams(text, n, True, stoplist, stemmer) == \
        reference_char_ngrams(text, n, stoplist, stemmer)


def _configs(stoplist, stemmer, n):
    bow = ExtractorConfig(kind="BOW", stoplist=stoplist, stemmer=stemmer)
    grams = ExtractorConfig(kind="CharNGram", ngram_size=n, stoplist=stoplist,
                            stemmer=stemmer)
    both = ExtractorConfig(kind="Set", children=(
        ExtractorConfig(kind="BOW", stoplist=stoplist, stemmer=stemmer),
        ExtractorConfig(kind="CharNGram", ngram_size=n, stoplist=stoplist,
                        stemmer=stemmer)))
    return bow, grams, both


@given(st.lists(texts, min_size=1, max_size=8), st.integers(1, 4), stoplists,
       stemmers)
@settings(max_examples=200, deadline=None)
def test_reused_config_matches_fresh_configs(docs, n, stoplist, stemmer):
    reused = _configs(stoplist, stemmer, n)
    for text in docs + docs[::-1]:
        fresh = _configs(stoplist, stemmer, n)
        for config, new in zip(reused, fresh):
            assert config.extract(text) == new.extract(text)
        assert reused[0].extract(text) == reference_bow(text, stoplist, stemmer)
        assert reused[1].extract(text) == \
            reference_char_ngrams(text, n, stoplist, stemmer)


def test_memo_is_not_part_of_config_identity():
    used = ExtractorConfig(kind="BOW", stemmer="EnglishPorter")
    used.extract("Running cats ran &amp; ran")
    fresh = ExtractorConfig(kind="BOW", stemmer="EnglishPorter")
    assert used == fresh
    assert hash(used) == hash(fresh)
    assert repr(used) == repr(fresh)
