"""English Porter stemmer, the original 1980 algorithm.

Implements the five-step suffix stripping procedure with the classic
measure/condition machinery.  Within each rule group the longest matching
suffix is selected and, if its condition fails, no other rule of the group is
tried (standard longest-match semantics).  Words of length <= 2 and tokens
containing anything but ASCII letters are returned unchanged.
"""

_VOWELS = "aeiou"


def _is_cons(word: str, i: int) -> bool:
    ch = word[i]
    if ch in _VOWELS:
        return False
    if ch == "y":
        # y is a consonant at the start or after a vowel, else a vowel
        return i == 0 or not _is_cons(word, i - 1)
    return True


def _measure(stem: str) -> int:
    """Number of vowel->consonant transitions: the m in [C](VC)^m[V]."""
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


def _has_vowel(stem: str) -> bool:
    return any(not _is_cons(stem, i) for i in range(len(stem)))


def _ends_double_cons(word: str) -> bool:
    return (len(word) >= 2 and word[-1] == word[-2]
            and _is_cons(word, len(word) - 1))


def _ends_cvc(stem: str) -> bool:
    if len(stem) < 3:
        return False
    n = len(stem)
    return (_is_cons(stem, n - 3) and not _is_cons(stem, n - 2)
            and _is_cons(stem, n - 1) and stem[-1] not in "wxy")


def _rule_group(rules) -> tuple:
    """(all suffixes, rules): the tuple lets one endswith reject a word."""
    return tuple(suffix for suffix, _, _ in rules), rules


def _apply_rules(word: str, group) -> str:
    """Longest-match rule application: rules are (suffix, replacement, cond).

    Tries suffixes in the given order (rule groups list them longest first);
    once a suffix matches, its condition decides and no further rule is
    tried.
    """
    suffixes, rules = group
    if not word.endswith(suffixes):
        return word
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


_STEP2_RULES = _rule_group([
    ("ational", "ate", _m_gt_0),
    ("ization", "ize", _m_gt_0),
    ("iveness", "ive", _m_gt_0),
    ("fulness", "ful", _m_gt_0),
    ("ousness", "ous", _m_gt_0),
    ("biliti", "ble", _m_gt_0),
    ("tional", "tion", _m_gt_0),
    ("ousli", "ous", _m_gt_0),
    ("entli", "ent", _m_gt_0),
    ("aliti", "al", _m_gt_0),
    ("iviti", "ive", _m_gt_0),
    ("ation", "ate", _m_gt_0),
    ("alism", "al", _m_gt_0),
    ("enci", "ence", _m_gt_0),
    ("anci", "ance", _m_gt_0),
    ("izer", "ize", _m_gt_0),
    ("abli", "able", _m_gt_0),
    ("alli", "al", _m_gt_0),
    ("ator", "ate", _m_gt_0),
    ("eli", "e", _m_gt_0),
])

_STEP3_RULES = _rule_group([
    ("icate", "ic", _m_gt_0),
    ("ative", "", _m_gt_0),
    ("alize", "al", _m_gt_0),
    ("iciti", "ic", _m_gt_0),
    ("ical", "ic", _m_gt_0),
    ("ness", "", _m_gt_0),
    ("ful", "", _m_gt_0),
])

_STEP4_RULES = _rule_group([
    ("ement", "", _m_gt_1),
    ("ance", "", _m_gt_1),
    ("ence", "", _m_gt_1),
    ("able", "", _m_gt_1),
    ("ible", "", _m_gt_1),
    ("ment", "", _m_gt_1),
    ("ant", "", _m_gt_1),
    ("ent", "", _m_gt_1),
    ("ion", "", lambda s: _m_gt_1(s) and s[-1:] in ("s", "t")),
    ("ism", "", _m_gt_1),
    ("ate", "", _m_gt_1),
    ("iti", "", _m_gt_1),
    ("ous", "", _m_gt_1),
    ("ive", "", _m_gt_1),
    ("ize", "", _m_gt_1),
    ("al", "", _m_gt_1),
    ("er", "", _m_gt_1),
    ("ic", "", _m_gt_1),
    ("ou", "", _m_gt_1),
])


_STEP1A_RULES = _rule_group([
    ("sses", "ss", None),
    ("ies", "i", None),
    ("ss", "ss", None),
    ("s", "", None),
])


def _step1b(word: str) -> str:
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


def _step1c(word: str) -> str:
    if word.endswith("y") and _has_vowel(word[:-1]):
        return word[:-1] + "i"
    return word


def _step5a(word: str) -> str:
    if word.endswith("e"):
        stem = word[:-1]
        m = _measure(stem)
        if m > 1 or (m == 1 and not _ends_cvc(stem)):
            return stem
    return word


def _step5b(word: str) -> str:
    if word.endswith("ll") and _measure(word) > 1:
        return word[:-1]
    return word


def porter_stem(token: str) -> str:
    """Stem a lowercase English token. Non-alphabetic tokens pass through."""
    if len(token) <= 2 or not token.isascii() or not token.isalpha() \
            or not token.islower():
        return token
    word = _apply_rules(token, _STEP1A_RULES)
    word = _step1b(word)
    word = _step1c(word)
    word = _apply_rules(word, _STEP2_RULES)
    word = _apply_rules(word, _STEP3_RULES)
    word = _apply_rules(word, _STEP4_RULES)
    word = _step5a(word)
    word = _step5b(word)
    return word
