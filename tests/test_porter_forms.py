"""Every short word over a few letters stems as the rule-by-rule stemmer does.

The letters hold vowels, `y` (a consonant or a vowel by its left neighbour)
and consonants that end suffixes (s, l) or not (b, w), so all words of 3 to
5 letters over them exercise the `y` resolution and *o (with its w and y
exceptions) exhaustively at those lengths.  Step 1b needs a d or an ng, so
every stem of 1 to 3 such letters is also tried before -ed, -eed and -ing:
that covers *v*, *d (with its l and s exceptions) and *o after step 1b.
"""

from itertools import product

from jatecs.porter import porter_stem

from test_porter_reference import reference_stem

LETTERS = "aeiybswl"


def _words(lengths, suffixes=("",)):
    return [stem + suffix for n in lengths
            for stem in map("".join, product(LETTERS, repeat=n))
            for suffix in suffixes]


def test_every_short_word_matches_reference():
    words = _words(range(3, 6))
    assert len(words) == 8**3 + 8**4 + 8**5
    assert [w for w in words if porter_stem(w) != reference_stem(w)] == []


def test_every_short_stem_before_step_1b_suffixes_matches_reference():
    words = _words(range(1, 4), ("ed", "eed", "ing"))
    assert [w for w in words if porter_stem(w) != reference_stem(w)] == []
