"""The Porter stemmer against the rule-by-rule version it replaced.

`reference_stem` is the stemmer as it was before each rule group got a
one-call suffix pre-check; `porter_stem` must return the same stem for every
test vector and for words built from letters and the suffixes of steps 1-5.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from jatecs.porter import porter_stem

from test_porter import VECTORS

_VOWELS = "aeiou"


def _is_cons(word, i):
    ch = word[i]
    if ch in _VOWELS:
        return False
    if ch == "y":
        return i == 0 or not _is_cons(word, i - 1)
    return True


def _measure(stem):
    m = 0
    prev_vowel = False
    for i in range(len(stem)):
        if _is_cons(stem, i):
            if prev_vowel:
                m += 1
            prev_vowel = False
        else:
            prev_vowel = True
    return m


def _has_vowel(stem):
    return any(not _is_cons(stem, i) for i in range(len(stem)))


def _ends_double_cons(word):
    return (len(word) >= 2 and word[-1] == word[-2]
            and _is_cons(word, len(word) - 1))


def _ends_cvc(stem):
    if len(stem) < 3:
        return False
    n = len(stem)
    return (_is_cons(stem, n - 3) and not _is_cons(stem, n - 2)
            and _is_cons(stem, n - 1) and stem[-1] not in "wxy")


def _apply_rules(word, rules):
    for suffix, repl, cond in rules:
        if word.endswith(suffix):
            stem = word[: len(word) - len(suffix)]
            if cond is None or cond(stem):
                return stem + repl
            return word
    return word


def _m_gt_0(stem):
    return _measure(stem) > 0


def _m_gt_1(stem):
    return _measure(stem) > 1


STEP1A = [("sses", "ss", None), ("ies", "i", None), ("ss", "ss", None),
          ("s", "", None)]
STEP2 = [(s, r, _m_gt_0) for s, r in (
    ("ational", "ate"), ("ization", "ize"), ("iveness", "ive"),
    ("fulness", "ful"), ("ousness", "ous"), ("biliti", "ble"),
    ("tional", "tion"), ("ousli", "ous"), ("entli", "ent"), ("aliti", "al"),
    ("iviti", "ive"), ("ation", "ate"), ("alism", "al"), ("enci", "ence"),
    ("anci", "ance"), ("izer", "ize"), ("abli", "able"), ("alli", "al"),
    ("ator", "ate"), ("eli", "e"))]
STEP3 = [(s, r, _m_gt_0) for s, r in (
    ("icate", "ic"), ("ative", ""), ("alize", "al"), ("iciti", "ic"),
    ("ical", "ic"), ("ness", ""), ("ful", ""))]
STEP4 = [(s, "", _m_gt_1) for s in (
    "ement", "ance", "ence", "able", "ible", "ment", "ant", "ent")] + [
    ("ion", "", lambda s: _m_gt_1(s) and s[-1:] in ("s", "t"))] + [
    (s, "", _m_gt_1) for s in (
        "ism", "ate", "iti", "ous", "ive", "ize", "al", "er", "ic", "ou")]


def _step1b(word):
    if word.endswith("eed"):
        stem = word[:-3]
        return stem + "ee" if _measure(stem) > 0 else word
    removed = None
    if word.endswith("ed") and _has_vowel(word[:-2]):
        removed = word[:-2]
    elif word.endswith("ing") and _has_vowel(word[:-3]):
        removed = word[:-3]
    if removed is None:
        return word
    word = removed
    if word.endswith(("at", "bl", "iz")):
        return word + "e"
    if _ends_double_cons(word) and word[-1] not in "lsz":
        return word[:-1]
    if _measure(word) == 1 and _ends_cvc(word):
        return word + "e"
    return word


def _step1c(word):
    if word.endswith("y") and _has_vowel(word[:-1]):
        return word[:-1] + "i"
    return word


def _step5a(word):
    if word.endswith("e"):
        stem = word[:-1]
        m = _measure(stem)
        if m > 1 or (m == 1 and not _ends_cvc(stem)):
            return stem
    return word


def _step5b(word):
    if _measure(word) > 1 and _ends_double_cons(word) and word.endswith("l"):
        return word[:-1]
    return word


def reference_stem(token):
    if len(token) <= 2 or not token.isascii() or not token.isalpha() \
            or not token.islower():
        return token
    word = _apply_rules(token, STEP1A)
    word = _step1b(word)
    word = _step1c(word)
    word = _apply_rules(word, STEP2)
    word = _apply_rules(word, STEP3)
    word = _apply_rules(word, STEP4)
    word = _step5a(word)
    word = _step5b(word)
    return word


SUFFIXES = sorted({suffix for rules in (STEP1A, STEP2, STEP3, STEP4)
                   for suffix, _, _ in rules}
                  | {"eed", "ed", "ing", "at", "bl", "iz", "y", "e", "ll"})

words = st.builds(
    lambda stem, suffixes: stem + "".join(suffixes),
    st.text(alphabet="abcdefghijklmnopqrstuvwxyz", max_size=8),
    st.lists(st.sampled_from(SUFFIXES), max_size=3))


def test_vectors_match_reference():
    for word, _ in VECTORS:
        assert porter_stem(word) == reference_stem(word), word


@given(words)
@settings(max_examples=1500, deadline=None)
def test_suffixed_words_match_reference(word):
    assert porter_stem(word) == reference_stem(word)


@given(st.text(alphabet="abcyzAY1é-", max_size=10))
@settings(max_examples=300, deadline=None)
def test_any_token_matches_reference(token):
    assert porter_stem(token) == reference_stem(token)
