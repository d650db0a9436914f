"""Feature extraction from raw text: bag of words, character n-grams, sets.

All extractors share the same base behavior: XML/HTML entities are decoded,
text is lowercased, and tokenization splits on Unicode whitespace plus a
fixed punctuation set.  Tokens left with no letter or digit (e.g. a bare "&")
are dropped.  Stop word removal runs before stemming.

Per-token work (the letter/digit test, the stop list and stemming) runs once
per distinct token of a corpus pass: an `ExtractorConfig` memoizes each
lowercased raw token's feature text, or None for a dropped token, and hands
that memo to `extract_bow` / `extract_char_ngrams`.  Called without a memo,
they memoize within the one text.  Sharing a config across threads stays
safe: a dict lookup or store is atomic under the GIL, and two threads that
miss on the same token both compute the same pure value.
"""

from __future__ import annotations

import importlib.resources
import re
from collections import Counter
from dataclasses import dataclass, field

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


def _aggregate(features) -> list:
    return list(Counter(features).items())


def _feature_text(token, stoplist, stemmer):
    """A raw token's feature text, or None when the token is dropped."""
    if not _has_alnum(token) or (stoplist is not None and token in stoplist):
        return None
    return porter_stem(token) if stemmer == "EnglishPorter" else token


def _processed_tokens(text, stoplist, stemmer, memo):
    tokens = _raw_tokens(text)
    if memo is None:
        memo = {}
    for token in set(tokens).difference(memo):
        memo[token] = _feature_text(token, stoplist, stemmer)
    return [f for f in map(memo.__getitem__, tokens) if f is not None]


def extract_bow(text: str, stoplist=None, stemmer=None, *, memo=None) -> list:
    """Bag of words: [(featureText, count)] in first-seen order.

    `memo` maps raw tokens to feature texts; reuse one only with the same
    stoplist and stemmer.
    """
    return _aggregate(_processed_tokens(text, stoplist, stemmer, memo))


def _token_ngrams(token: str, n: int):
    if len(token) <= n:
        # short tokens emit themselves once so no word disappears entirely
        yield token
        return
    for i in range(len(token) - n + 1):
        yield token[i:i + n]


def extract_char_ngrams(text: str, n: int, word_bounded: bool = True,
                        stoplist=None, stemmer=None, *, memo=None) -> list:
    """Character n-grams, within tokens or continuously across the string.

    Continuous mode slides over the lowercased raw string with whitespace
    runs collapsed to single spaces; stop word removal and stemming only
    apply in word-bounded mode (there are no tokens otherwise).  `memo` is
    as in `extract_bow`.
    """
    if n < 1:
        raise ValueError("n-gram size must be >= 1")
    if word_bounded:
        grams = (g for token in _processed_tokens(text, stoplist, stemmer, memo)
                 for g in _token_ngrams(token, n))
        return _aggregate(grams)
    flat = " ".join(decode_entities(text).lower().split())
    if not flat:
        return []
    return _aggregate(_token_ngrams(flat, n))


@dataclass(frozen=True)
class ExtractorConfig:
    """Declarative extractor description; build one per corpus pass.

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
    # raw token -> feature text or None, filled by extract (see module doc)
    _memo: dict = field(default_factory=dict, init=False, repr=False,
                        compare=False, hash=False)

    def __post_init__(self):
        if self.kind not in ("BOW", "CharNGram", "Set"):
            raise ValueError(f"unknown extractor kind {self.kind!r}")
        if self.kind == "Set" and not self.children:
            raise ValueError("Set extractor requires children")

    def extract(self, text: str) -> list:
        if self.kind == "BOW":
            return extract_bow(text, self.stoplist, self.stemmer,
                               memo=self._memo)
        if self.kind == "CharNGram":
            return extract_char_ngrams(text, self.ngram_size, self.word_bounded,
                                       self.stoplist, self.stemmer,
                                       memo=self._memo)
        return extract_set(text, self.children, self.namespacing)


def extract_set(text: str, children, namespacing: bool = True) -> list:
    """Concatenate child extractor outputs.

    With namespacing on, features are prefixed "<childIndex>#" so identical
    strings produced by different extractors stay distinct; with it off,
    identical features merge and their counts add up.
    """
    merged: dict = {}
    for i, child in enumerate(children):
        for text_feat, count in child.extract(text):
            key = f"{i}#{text_feat}" if namespacing else text_feat
            merged[key] = merged.get(key, 0) + count
    return list(merged.items())
