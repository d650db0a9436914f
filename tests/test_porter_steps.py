"""The one-pass stemmer's carried form and its suffix tables.

`porter_stem` computes a word's consonant/vowel form once and cuts it with
the word, so it relies on the form of a prefix being the prefix of the form.
That is checked over every word of 1 to 6 letters from an alphabet with
vowels, `y` and consonants.  The last-letter tables are checked by stacking
two suffixes of the rule-by-rule stemmer on short stems: every ordered pair
after every stem of 0 to 2 letters must stem as `reference_stem` does.
"""

from itertools import product

from jatecs.porter import _cv, porter_stem

from test_porter_reference import SUFFIXES, _is_cons, reference_stem


def _strings(letters, lengths):
    return [word for n in lengths
            for word in map("".join, product(letters, repeat=n))]


def test_form_of_a_prefix_is_the_prefix_of_the_form():
    words = _strings("aeiybsl", range(1, 7))
    assert len(words) == sum(7**n for n in range(1, 7))
    forms = dict(zip(words, map(_cv, words)))
    bad = [word for word, form in forms.items()
           if any(forms[word[:k]] != form[:k] for k in range(1, len(word)))]
    assert bad == []


def test_form_classes_letters_as_the_reference_does():
    for word in _strings("aeiybsl", range(1, 6)):
        expected = "".join("c" if _is_cons(word, i) else "v"
                           for i in range(len(word)))
        assert _cv(word) == expected, word


def test_every_pair_of_suffixes_after_a_short_stem_matches_reference():
    stems = _strings("aeiybswlt", range(3))
    assert len(stems) == 1 + 9 + 81
    words = list(dict.fromkeys(stem + first + second for stem in stems
                               for first in SUFFIXES for second in SUFFIXES))
    stemmed = map(porter_stem, words)
    expected = map(reference_stem, words)
    assert [word for word, got, want in zip(words, stemmed, expected)
            if got != want] == []
