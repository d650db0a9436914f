"""Feature extractors: tokenization, entities, n-grams, set composition."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jatecs import (ExtractorConfig, english_stopwords, extract_bow,
                    extract_char_ngrams, extract_set)
from jatecs.textproc import decode_entities, tokenize


class TestTokenizer:
    def test_punctuation_splits(self):
        assert tokenize("The cat, the cat.") == ["the", "cat", "the", "cat"]

    def test_all_separators(self):
        text = "a,b.c;d:e!f?g(h)i[j]k{l}m\"n'o<p>q"
        assert tokenize(text) == list("abcdefghijklmnopq")

    def test_unicode_whitespace(self):
        assert tokenize("a b c") == ["a", "b", "c"]

    def test_entities_decoded_before_split(self):
        assert decode_entities("a &amp; b") == "a & b"
        assert decode_entities("&lt;tag&gt; &quot;x&quot; &apos;y&apos;") == \
            '<tag> "x" \'y\''
        assert decode_entities("&#65;&#x42;") == "AB"

    def test_punctuation_only_tokens_dropped(self):
        assert tokenize("a &amp; b") == ["a", "b"]
        assert tokenize("-- ** a") == ["a"]


class TestBow:
    def test_counts_aggregate(self):
        assert extract_bow("The cat, the cat.") == [("the", 2), ("cat", 2)]

    def test_empty_text(self):
        assert extract_bow("") == []

    def test_entity_token_dropped(self):
        assert extract_bow("a &amp; b") == [("a", 1), ("b", 1)]

    def test_stoplist_removes_before_counts(self):
        stop = english_stopwords()
        assert "the" in stop
        assert extract_bow("The cat, the cat.", stoplist=stop) == [("cat", 2)]

    def test_stemming_after_stoplist(self):
        out = extract_bow("the cats were running", stoplist=english_stopwords(),
                          stemmer="EnglishPorter")
        assert out == [("cat", 1), ("run", 1)]

    @given(st.lists(st.sampled_from(["cat", "dog", "the", "runs"]),
                    max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_permutation_invariance(self, tokens):
        import random
        shuffled = tokens[:]
        random.Random(0).shuffle(shuffled)
        original = dict(extract_bow(" ".join(tokens)))
        permuted = dict(extract_bow(" ".join(shuffled)))
        assert original == permuted

    @given(st.text(max_size=80))
    @settings(max_examples=60, deadline=None)
    def test_stoplist_never_increases_counts(self, text):
        plain = dict(extract_bow(text))
        stopped = dict(extract_bow(text, stoplist=english_stopwords()))
        for feature, count in stopped.items():
            assert count <= plain[feature]


class TestCharNgrams:
    def test_token_equal_to_n(self):
        assert extract_char_ngrams("and", 3, True) == [("and", 1)]

    def test_sliding_window(self):
        assert extract_char_ngrams("cats", 3, True) == [("cat", 1), ("ats", 1)]

    def test_short_token_emitted_whole(self):
        assert extract_char_ngrams("ox", 3, True) == [("ox", 1)]

    def test_continuous_includes_spaces(self):
        assert extract_char_ngrams("a b", 3, False) == [("a b", 1)]

    def test_continuous_collapses_whitespace(self):
        assert extract_char_ngrams("a \t\n b", 3, False) == [("a b", 1)]

    def test_continuous_shorter_than_n(self):
        assert extract_char_ngrams("ab", 5, False) == [("ab", 1)]

    def test_empty_text(self):
        assert extract_char_ngrams("", 3, True) == []
        assert extract_char_ngrams("", 3, False) == []

    def test_bad_n(self):
        with pytest.raises(ValueError):
            extract_char_ngrams("abc", 0, True)

    def test_stoplist_and_stemming_in_word_bounded_mode(self):
        out = extract_char_ngrams("the running", 4, True,
                                  stoplist=english_stopwords(),
                                  stemmer="EnglishPorter")
        assert out == [("run", 1)]

    @given(st.lists(st.text(alphabet="abcd", min_size=1, max_size=8),
                    max_size=8), st.integers(min_value=1, max_value=5))
    @settings(max_examples=60, deadline=None)
    def test_word_bounded_count_total(self, tokens, n):
        text = " ".join(tokens)
        grams = extract_char_ngrams(text, n, True)
        expected = sum(max(len(t) - n + 1, 1) for t in tokens)
        assert sum(c for _, c in grams) == expected


class TestSetExtractor:
    def test_namespacing_keeps_collisions_apart(self):
        bow = ExtractorConfig(kind="BOW")
        tri = ExtractorConfig(kind="CharNGram", ngram_size=3)
        assert extract_set("and", (bow, tri), True) == \
            [("0#and", 1), ("1#and", 1)]

    def test_merged_without_namespacing(self):
        bow = ExtractorConfig(kind="BOW")
        tri = ExtractorConfig(kind="CharNGram", ngram_size=3)
        assert extract_set("and", (bow, tri), False) == [("and", 2)]

    def test_empty_children_output(self):
        bow = ExtractorConfig(kind="BOW")
        assert extract_set("", (bow, bow), True) == []

    def test_namespaced_size_is_sum_of_children(self):
        text = "the quick brown fox jumps"
        bow = ExtractorConfig(kind="BOW")
        four = ExtractorConfig(kind="CharNGram", ngram_size=4)
        combined = extract_set(text, (bow, four), True)
        assert len(combined) == len(bow.extract(text)) + len(four.extract(text))

    def test_config_requires_children(self):
        with pytest.raises(ValueError):
            ExtractorConfig(kind="Set")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            ExtractorConfig(kind="Skipgram")


class TestInvalidNumericEntities:
    """Numeric entities that name no character decode to U+FFFD."""

    def test_out_of_range_code_point(self):
        assert decode_entities("x &#99999999; y") == "x � y"
        assert decode_entities("&#x110000;") == "�"
        assert decode_entities("&#" + "9" * 5000 + ";") == "�"

    def test_surrogate_code_point(self):
        assert decode_entities("a&#xD800;b") == "a�b"
        assert decode_entities("&#57343;") == "�"

    def test_neighbours_of_the_invalid_ranges_decode(self):
        assert decode_entities("&#xD7FF;&#xE000;&#x10FFFF;&#00065;") == \
            "퟿\U0010ffffA"
