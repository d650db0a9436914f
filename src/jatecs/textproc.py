"""Feature extraction from raw text: bag of words, character n-grams, sets.

All extractors share the same base behavior: XML/HTML entities are decoded,
text is lowercased, and tokenization splits on Unicode whitespace plus a
fixed punctuation set.  Tokens left with no letter or digit (e.g. a bare "&")
are dropped.  Stop word removal runs before stemming.

Extraction assigns feature ids as it reads.  A :class:`FeatureIds`, one per
index build, holds the build's vocabulary (feature text -> id, ids in
first-seen order) and a raw-token map: a lowercased raw token -> its id
(None for a dropped token) for bag of words, or -> the tuple of its grams'
ids for word-bounded n-grams.  Given one, `extract_bow`,
`extract_char_ngrams` and `extract_set` return a document's distinct
{feature id: count}; called without, they return [(featureText, count)] in
first-seen order, through a FeatureIds of their own.  So per-token work (the
letter/digit test, the stop list, stemming and the id lookup) runs once per
distinct token of a build.  An `ExtractorConfig` also keeps a stem memo:
each lowercased raw token -> its feature text, or None for a dropped token,
which outlives the build, so a second corpus indexed with the same config
stems no token again.
"""

from __future__ import annotations

import importlib.resources
import re
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, filterfalse

from .porter import porter_stem

# separators used on top of whitespace; a fixed superset of the usual signs
PUNCTUATION = frozenset(",.;:!?()[]{}\"'<>")
_PUNCTUATION_TO_SPACE = str.maketrans(dict.fromkeys(PUNCTUATION, " "))

_ENTITIES = {"amp": "&", "lt": "<", "gt": ">", "quot": '"', "apos": "'"}
_ENTITY_RE = re.compile(r"&(amp|lt|gt|quot|apos|#x[0-9a-fA-F]+|#[0-9]+);")

_english_stopwords: frozenset | None = None


def english_stopwords() -> frozenset:
    """The bundled English stop list (classic ~300-word SMART-derived list)."""
    global _english_stopwords
    if _english_stopwords is None:
        text = (importlib.resources.files("jatecs") / "data" / "stopwords_en.txt"
                ).read_text(encoding="utf-8")
        _english_stopwords = frozenset(
            line.strip() for line in text.splitlines()
            if line.strip() and not line.startswith("#"))
    return _english_stopwords


def decode_entities(text: str) -> str:
    """Replace &amp; &lt; &gt; &quot; &apos; and numeric &#nn;/&#xhh; forms;
    one beyond U+10FFFF or in the surrogate range becomes U+FFFD."""
    def sub(match):
        name = match.group(1)
        if name in _ENTITIES:
            return _ENTITIES[name]
        hex_form = name[1] in "xX"
        # 9 significant digits already exceed U+10FFFF in either base
        digits = name[1 + hex_form:].lstrip("0")[:9] or "0"
        code = int(digits, 16 if hex_form else 10)
        if code > 0x10FFFF or 0xD800 <= code <= 0xDFFF:
            return "\ufffd"
        return chr(code)

    return _ENTITY_RE.sub(sub, text)


def _raw_tokens(text: str) -> list:
    # str.split() splits on exactly the characters str.isspace() accepts
    return decode_entities(text).lower().translate(_PUNCTUATION_TO_SPACE).split()


def _has_alnum(token: str) -> bool:
    return token.isalnum() or any(ch.isalnum() for ch in token)


def tokenize(text: str) -> list:
    """Lowercased tokens, split on whitespace and punctuation separators."""
    return [t for t in _raw_tokens(text) if _has_alnum(t)]


class FeatureIds:
    """One index build's feature ids (see the module doc).

    `vocabulary` is shared by the whole build; `tokens` and `prefix` belong
    to one extractor: a Set's child `i` gets its own FeatureIds from
    `child`, whose texts are namespaced "<i>#" when the Set namespaces.
    Use a FeatureIds with one extractor only.
    """

    def __init__(self, vocabulary=None, prefix=""):
        self.vocabulary = {} if vocabulary is None else vocabulary
        self.prefix = prefix
        self.tokens: dict = {}
        self._children: dict = {}

    def assign(self, texts) -> list:
        """The ids of the features `texts` (namespaced), new ones in turn;
        a None stays None."""
        vocabulary, prefix = self.vocabulary, self.prefix
        return [None if text is None else
                vocabulary.setdefault(prefix + text, len(vocabulary))
                for text in texts]

    def child(self, i: int, namespacing: bool) -> "FeatureIds":
        child = self._children.get(i)
        if child is None:
            prefix = f"{self.prefix}{i}#" if namespacing else self.prefix
            child = self._children[i] = FeatureIds(self.vocabulary, prefix)
        return child


def _texts(extract, *args, **kwargs) -> list:
    """[(featureText, count)] in first-seen order: `extract`'s features
    through a FeatureIds of its own."""
    ids = FeatureIds()
    counts = extract(*args, ids=ids, **kwargs)
    names = list(ids.vocabulary)
    return [(names[i], n) for i, n in counts.items()]


def _feature_text(token, stoplist, stemmer):
    """A raw token's feature text, or None when the token is dropped."""
    if not _has_alnum(token) or (stoplist is not None and token in stoplist):
        return None
    return porter_stem(token) if stemmer == "EnglishPorter" else token


def _new_tokens(tokens, ids, stoplist, stemmer, memo):
    """The tokens `ids` has not mapped, once each in first-seen order, and
    their feature texts (None for a dropped token) through `memo`, as in
    `extract_bow`, or a memo of their own."""
    new = dict.fromkeys(filterfalse(ids.tokens.__contains__, tokens))
    if memo is None:
        memo = {}
    for token in filterfalse(memo.__contains__, new):
        memo[token] = _feature_text(token, stoplist, stemmer)
    return new, map(memo.__getitem__, new)


def extract_bow(text: str, stoplist=None, stemmer=None, *, memo=None,
                ids=None):
    """Bag of words: [(featureText, count)] in first-seen order, or with
    `ids` (a FeatureIds) the {feature id: count} of the distinct features.

    `memo` maps raw tokens to feature texts; reuse one only with the same
    stoplist and stemmer.
    """
    if ids is None:
        return _texts(extract_bow, text, stoplist, stemmer, memo=memo)
    tokens = _raw_tokens(text)
    new, features = _new_tokens(tokens, ids, stoplist, stemmer, memo)
    token_ids = ids.tokens
    token_ids.update(zip(new, ids.assign(features)))
    counts = Counter(map(token_ids.__getitem__, tokens))
    counts.pop(None, None)
    return counts


def _token_ngrams(token: str, n: int):
    if len(token) <= n:
        # short tokens emit themselves once so no word disappears entirely
        yield token
        return
    for i in range(len(token) - n + 1):
        yield token[i:i + n]


def extract_char_ngrams(text: str, n: int, word_bounded: bool = True,
                        stoplist=None, stemmer=None, *, memo=None, ids=None):
    """Character n-grams, within tokens or continuously across the string.

    Continuous mode slides over the lowercased raw string with whitespace
    runs collapsed to single spaces; stop word removal and stemming only
    apply in word-bounded mode (there are no tokens otherwise).  `memo` and
    `ids`, and what is returned, are as in `extract_bow`.
    """
    if n < 1:
        raise ValueError("n-gram size must be >= 1")
    if ids is None:
        return _texts(extract_char_ngrams, text, n, word_bounded, stoplist,
                      stemmer, memo=memo)
    if word_bounded:
        tokens = _raw_tokens(text)
        new, features = _new_tokens(tokens, ids, stoplist, stemmer, memo)
        token_ids = ids.tokens
        token_ids.update((token, () if feature is None else tuple(
            ids.assign(_token_ngrams(feature, n))))
            for token, feature in zip(new, features))
        return Counter(chain.from_iterable(map(token_ids.__getitem__,
                                               tokens)))
    flat = " ".join(decode_entities(text).lower().split())
    grams = Counter(_token_ngrams(flat, n) if flat else ())
    return dict(zip(ids.assign(grams), grams.values()))


@dataclass(frozen=True)
class ExtractorConfig:
    """Declarative extractor description.

    kind: "BOW", "CharNGram" or "Set".  ngram_size / word_bounded apply to
    CharNGram; children and namespacing to Set.  stoplist is a set of tokens
    or None; stemmer is "EnglishPorter" or None.
    """

    kind: str = "BOW"
    ngram_size: int = 3
    word_bounded: bool = True
    stoplist: frozenset | None = None
    stemmer: str | None = None
    namespacing: bool = True
    children: tuple = field(default_factory=tuple)
    # the stem memo, raw token -> feature text or None (see module doc)
    _memo: dict = field(default_factory=dict, init=False, repr=False,
                        compare=False, hash=False)

    def __post_init__(self):
        if self.kind not in ("BOW", "CharNGram", "Set"):
            raise ValueError(f"unknown extractor kind {self.kind!r}")
        if self.kind == "Set" and not self.children:
            raise ValueError("Set extractor requires children")

    def extract(self, text: str, ids=None):
        """The features of `text`, as the extractor functions return them."""
        if self.kind == "BOW":
            return extract_bow(text, self.stoplist, self.stemmer,
                               memo=self._memo, ids=ids)
        if self.kind == "CharNGram":
            return extract_char_ngrams(text, self.ngram_size, self.word_bounded,
                                       self.stoplist, self.stemmer,
                                       memo=self._memo, ids=ids)
        return extract_set(text, self.children, self.namespacing, ids=ids)


def extract_set(text: str, children, namespacing: bool = True, *, ids=None):
    """Concatenate child extractor outputs.

    With namespacing on, features are prefixed "<childIndex>#" so identical
    strings produced by different extractors stay distinct; with it off,
    identical features merge and their counts add up.  `ids`, and what is
    returned, are as in `extract_bow`.
    """
    if ids is None:
        return _texts(extract_set, text, children, namespacing)
    merged = Counter()
    for i, child in enumerate(children):
        merged.update(child.extract(text, ids.child(i, namespacing)))
    return merged
