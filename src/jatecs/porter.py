"""English Porter stemmer, the original 1980 algorithm, in one pass.

Porter writes every word as [C](VC)^m[V], and so does this module: `_cv`
gives a word's form, one 'c' (consonant) or 'v' (vowel) per letter, and the
conditions of the rules read it.  The measure m of a stem is the number of
"vc" in its form; *v* (the stem holds a vowel) is a 'v' in the form; *d (a
double consonant) is two equal last letters whose form ends in 'c'; *o is a
form ending "cvc" whose last letter is not w, x or y.

A `y` takes its class from the letter before it only, so the form of a
prefix is the prefix of the form: the stem left by cutting n letters has the
form `form[:-n]`.  `porter_stem` computes the word's form at most once, in
the first step that reads it (step 1b on a final d or g, else a step whose
suffix matches), and carries it along: a cut cuts the form, and appended
letters (never a `y`) append their fixed classes.

Each step looks only at the rules for the word's last letter: step 1a runs
on a final s, 1b on a final d or g, 1c on a final y, and steps 2, 3 and 4
are tables keyed by the last letter, longest suffix first.  The longest
matching suffix decides and, if its condition fails, the step leaves the
word unchanged.  Words of length <= 2 and tokens holding anything but the
letters a-z are returned unchanged.
"""

from string import ascii_lowercase

# a letter's class; a `y` is resolved by `_cv` from the letter before it.
# bytes.translate is a plain 256-entry lookup, about twice as fast here as
# str.translate over the same word
_CLASS = bytes.maketrans(ascii_lowercase.encode(), "".join(
    "v" if ch in "aeiou" else "y" if ch == "y" else "c"
    for ch in ascii_lowercase).encode())


def _cv(word: str) -> str:
    """The form of `word`: a `y` is a consonant at the start or after a
    vowel, and a vowel after a consonant."""
    form = word.encode().translate(_CLASS).decode()
    i = form.find("y")
    while i >= 0:
        cls = "c" if i == 0 or form[i - 1] == "v" else "v"
        form = form[:i] + cls + form[i + 1:]
        i = form.find("y", i + 1)
    return form


def _by_last_letter(rules: dict, cuts=None) -> dict:
    """{last letter: (its suffixes, ((suffix, cut, replacement, its form),
    ...))}, longest suffix first.  `cut` is the number of letters removed
    (the suffix's length unless `cuts` says otherwise); no replacement holds
    a `y`, so its form does not depend on the stem."""
    table = {}
    for suffix in sorted(rules, key=len, reverse=True):
        repl = rules[suffix]
        cut = (cuts or {}).get(suffix, len(suffix))
        table.setdefault(suffix[-1], []).append(
            (suffix, cut, repl, _cv(repl)))
    return {last: (tuple(rule[0] for rule in group), tuple(group))
            for last, group in table.items()}


_STEP2 = _by_last_letter({
    "ational": "ate", "ization": "ize", "iveness": "ive", "fulness": "ful",
    "ousness": "ous", "biliti": "ble", "tional": "tion", "ousli": "ous",
    "entli": "ent", "aliti": "al", "iviti": "ive", "ation": "ate",
    "alism": "al", "enci": "ence", "anci": "ance", "izer": "ize",
    "abli": "able", "alli": "al", "ator": "ate", "eli": "e",
})

_STEP3 = _by_last_letter({
    "icate": "ic", "ative": "", "alize": "al", "iciti": "ic", "ical": "ic",
    "ness": "", "ful": "",
})

# (*S or *T) ION is read as the suffixes "sion" and "tion" cutting "ion":
# no other step-4 suffix ends in n, so an "ion" after any other letter
# leaves the word unchanged either way
_STEP4 = _by_last_letter({
    "ement": "", "ance": "", "ence": "", "able": "", "ible": "", "ment": "",
    "ant": "", "ent": "", "sion": "", "tion": "", "ism": "", "ate": "",
    "iti": "", "ous": "", "ive": "", "ize": "", "al": "", "er": "", "ic": "",
    "ou": "",
}, cuts={"sion": 3, "tion": 3})

# steps 2 and 3 need m > 0 of the stem, step 4 m > 1
_STEPS_2_TO_4 = ((_STEP2, 1), (_STEP3, 1), (_STEP4, 2))


def porter_stem(token: str) -> str:
    """Stem a lowercase English token. Non-alphabetic tokens pass through."""
    if len(token) <= 2 or token.strip(ascii_lowercase):
        return token
    word, form = token, None  # form: `_cv(word)`, once a step needs it
    if word[-1] == "s":  # step 1a
        if word.endswith(("sses", "ies")):
            word = word[:-2]
        elif not word.endswith("ss"):
            word = word[:-1]
    if word[-1] in "dg":  # step 1b
        form = _cv(word)
        if word.endswith("eed"):
            if "vc" in form[:-3]:
                word, form = word[:-1], form[:-1]
        elif word.endswith(("ed", "ing")):
            cut = 2 if word[-1] == "d" else 3
            if "v" in form[:-cut]:
                word, form = word[:-cut], form[:-cut]
                if word.endswith(("at", "bl", "iz")):
                    word, form = word + "e", form + "v"
                elif (word[-2:] == word[-1] * 2 and form[-1] == "c"
                      and word[-1] not in "lsz"):
                    word, form = word[:-1], form[:-1]
                elif (form.count("vc") == 1 and form.endswith("cvc")
                      and word[-1] not in "wxy"):
                    word, form = word + "e", form + "v"
    if word[-1] == "y":  # step 1c
        if form is None:
            form = _cv(word)
        if "v" in form[:-1]:
            word, form = word[:-1] + "i", form[:-1] + "v"
    for rules, min_m in _STEPS_2_TO_4:
        group = rules.get(word[-1])  # (its suffixes, its rules)
        if group is None or not word.endswith(group[0]):
            continue
        for suffix, cut, repl, repl_form in group[1]:
            if word.endswith(suffix):
                if form is None:
                    form = _cv(word)
                stem_form = form[:-cut]
                if stem_form.count("vc") >= min_m:
                    word, form = word[:-cut] + repl, stem_form + repl_form
                break
    if word[-1] == "e":  # step 5a
        if form is None:
            form = _cv(word)
        m = form[:-1].count("vc")
        if m > 1 or m == 1 and not (form.endswith("cvcv")
                                    and word[-2] not in "wxy"):
            word, form = word[:-1], form[:-1]
    if word.endswith("ll"):  # step 5b
        if (form or _cv(word)).count("vc") > 1:
            word = word[:-1]
    return word
