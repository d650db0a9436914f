"""English Porter stemmer, the original 1980 algorithm.

Porter writes every word as [C](VC)^m[V], and so does this module: `_cv`
gives a word's form, one 'c' (consonant) or 'v' (vowel) per letter, and the
conditions of the rules read it.  The measure m of a stem is the number of
"vc" in its form; *v* (the stem holds a vowel) is a 'v' in the form; *d (a
double consonant) is two equal last letters whose form ends in 'c'; *o is a
form ending "cvc" whose last letter is not w, x or y.

Each rule group of steps 1a, 2, 3 and 4 is one table suffix ->
(replacement, condition).  A word is looked up in it once per distinct
suffix length, longest first: the longest matching suffix decides and, if
its condition fails, the group leaves the word unchanged.  Words of length
<= 2 and tokens holding anything but lowercase ASCII letters are returned
unchanged.
"""

from string import ascii_lowercase

# a letter's class; a `y` is resolved by `_cv` from the letter before it
_CLASS = str.maketrans(ascii_lowercase, "".join(
    "v" if ch in "aeiou" else "y" if ch == "y" else "c"
    for ch in ascii_lowercase))


def _cv(word: str) -> str:
    """The form of `word`: a `y` is a consonant at the start or after a
    vowel, and a vowel after a consonant."""
    form = word.translate(_CLASS)
    i = form.find("y")
    while i >= 0:
        cls = "c" if i == 0 or form[i - 1] == "v" else "v"
        form = form[:i] + cls + form[i + 1:]
        i = form.find("y", i + 1)
    return form


def _ends_cvc(stem: str, form: str) -> bool:
    """*o: the stem ends consonant-vowel-consonant, the last not w, x, y."""
    return form.endswith("cvc") and stem[-1] not in "wxy"


def _m_gt_0(stem: str) -> bool:
    return "vc" in _cv(stem)


def _m_gt_1(stem: str) -> bool:
    return _cv(stem).count("vc") > 1


def _rule_group(rules: dict) -> tuple:
    """(all suffixes, their distinct lengths longest first, rules): the
    tuple lets one endswith reject a word that matches no rule."""
    return (tuple(rules), sorted({len(s) for s in rules}, reverse=True),
            rules)


def _apply_rules(word: str, group) -> str:
    """The word with its longest matching suffix replaced, if the rule's
    condition (None: always) holds for the stem."""
    suffixes, lengths, rules = group
    if not word.endswith(suffixes):
        return word
    for n in lengths:
        # a word shorter than n is its own tail: a rule for the whole word
        # is then the longest match, with the empty stem
        rule = rules.get(word[-n:])
        if rule is not None:
            repl, cond = rule
            stem = word[:-n]
            return stem + repl if cond is None or cond(stem) else word
    return word


_STEP1A_RULES = _rule_group({
    "sses": ("ss", None),
    "ies": ("i", None),
    "ss": ("ss", None),
    "s": ("", None),
})

_STEP2_RULES = _rule_group({
    "ational": ("ate", _m_gt_0),
    "ization": ("ize", _m_gt_0),
    "iveness": ("ive", _m_gt_0),
    "fulness": ("ful", _m_gt_0),
    "ousness": ("ous", _m_gt_0),
    "biliti": ("ble", _m_gt_0),
    "tional": ("tion", _m_gt_0),
    "ousli": ("ous", _m_gt_0),
    "entli": ("ent", _m_gt_0),
    "aliti": ("al", _m_gt_0),
    "iviti": ("ive", _m_gt_0),
    "ation": ("ate", _m_gt_0),
    "alism": ("al", _m_gt_0),
    "enci": ("ence", _m_gt_0),
    "anci": ("ance", _m_gt_0),
    "izer": ("ize", _m_gt_0),
    "abli": ("able", _m_gt_0),
    "alli": ("al", _m_gt_0),
    "ator": ("ate", _m_gt_0),
    "eli": ("e", _m_gt_0),
})

_STEP3_RULES = _rule_group({
    "icate": ("ic", _m_gt_0),
    "ative": ("", _m_gt_0),
    "alize": ("al", _m_gt_0),
    "iciti": ("ic", _m_gt_0),
    "ical": ("ic", _m_gt_0),
    "ness": ("", _m_gt_0),
    "ful": ("", _m_gt_0),
})

_STEP4_RULES = _rule_group({
    "ement": ("", _m_gt_1),
    "ance": ("", _m_gt_1),
    "ence": ("", _m_gt_1),
    "able": ("", _m_gt_1),
    "ible": ("", _m_gt_1),
    "ment": ("", _m_gt_1),
    "ant": ("", _m_gt_1),
    "ent": ("", _m_gt_1),
    "ion": ("", lambda s: s[-1:] in ("s", "t") and _m_gt_1(s)),
    "ism": ("", _m_gt_1),
    "ate": ("", _m_gt_1),
    "iti": ("", _m_gt_1),
    "ous": ("", _m_gt_1),
    "ive": ("", _m_gt_1),
    "ize": ("", _m_gt_1),
    "al": ("", _m_gt_1),
    "er": ("", _m_gt_1),
    "ic": ("", _m_gt_1),
    "ou": ("", _m_gt_1),
})


def _step1b(word: str) -> str:
    if word.endswith("eed"):
        return word[:-1] if _m_gt_0(word[:-3]) else word
    stem = (word[:-2] if word.endswith("ed")
            else word[:-3] if word.endswith("ing") else "")
    form = _cv(stem)
    if "v" not in form:
        return word
    if stem.endswith(("at", "bl", "iz")):
        return stem + "e"
    if (stem[-2:] == stem[-1] * 2 and form.endswith("c")
            and stem[-1] not in "lsz"):
        return stem[:-1]
    if form.count("vc") == 1 and _ends_cvc(stem, form):
        return stem + "e"
    return stem


def _step1c(word: str) -> str:
    if word.endswith("y") and "v" in _cv(word[:-1]):
        return word[:-1] + "i"
    return word


def _step5a(word: str) -> str:
    if word.endswith("e"):
        stem = word[:-1]
        form = _cv(stem)
        m = form.count("vc")
        if m > 1 or (m == 1 and not _ends_cvc(stem, form)):
            return stem
    return word


def _step5b(word: str) -> str:
    if word.endswith("ll") and _m_gt_1(word):
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
