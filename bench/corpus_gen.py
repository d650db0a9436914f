"""Seeded synthetic text corpora for the benchmark.

This module imports nothing from jatecs, so the inputs do not change when the
library does.  It carries its own copy of SplitMix64 (the same algorithm as
``jatecs.rng``) and derives every random draw from the seed it is given.

Token mix of a document (the property that decides where extraction time
goes, so it is fixed here and recorded in WORKLOADS.md):

* ``STOP_SHARE`` of tokens are English stop words (all on the bundled stop
  list), drawn Zipf-wise from ``STOP_WORDS``, so stop word removal does work.
* ``TOPIC_SHARE`` of tokens come from a topical slice of stems owned by one of
  the document's categories, so learners have real signal.
* The rest come from a Zipf background over ``BACKGROUND_STEMS`` stems.
* Every content token is a pseudo-word stem plus an inflection suffix drawn
  from ``SUFFIXES``, so the Porter stemmer strips real suffixes and several
  surface forms collapse into one feature.
* Sentences of 8 to 16 tokens end in a full stop and start capitalised; a
  few tokens carry a comma or are an ``&amp;`` entity, so the tokenizer's
  punctuation and entity paths run.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_STREAM_SALT = 0x517CC1B727220A95


def mix64(z: int) -> int:
    """The SplitMix64 finalizer."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """SplitMix64 stream (Steele, Lea & Flood)."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    @classmethod
    def for_stream(cls, seed: int, stream: int) -> "SplitMix64":
        return cls(mix64(seed) ^ mix64((stream ^ _STREAM_SALT) & _MASK64))

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        return mix64(self._state)

    def next_below(self, n: int) -> int:
        return self.next_u64() % n

    def next_float(self) -> float:
        return (self.next_u64() >> 11) * (2.0 ** -53)


STOP_WORDS = (
    "the of and a to in is that it for was on are as with be at by this have "
    "from or an but not which were been has had they their would there we all "
    "can more its also other into than these").split()

# (suffix, relative frequency); the empty suffix is the bare stem
SUFFIXES = (("", 40), ("s", 14), ("ed", 8), ("ing", 8), ("er", 5), ("ly", 4),
            ("ness", 3), ("ment", 3), ("ation", 3), ("izes", 2), ("ful", 2),
            ("ous", 2), ("ive", 2), ("ity", 2), ("ance", 2))

BACKGROUND_STEMS = 12000
TOPIC_STEMS = 150          # per category
STOP_SHARE = 0.30
TOPIC_SHARE = 0.20
SECOND_LABEL_SHARE = 0.25  # documents with a second category
ZIPF_EXPONENT = 1.0
DOC_TOKENS = (60, 100)     # inclusive range, mean 80

_ONSETS = ("b", "c", "d", "f", "g", "h", "j", "k", "l", "m", "n", "p", "r",
           "s", "t", "v", "w", "z", "br", "cl", "dr", "gr", "pl", "st", "tr")
_VOWELS = ("a", "e", "i", "o", "u", "ai", "ou")
_CODAS = ("", "", "", "n", "r", "l", "m", "st", "nd", "k")


@dataclass(frozen=True)
class Document:
    name: str
    labels: tuple
    text: str


@dataclass(frozen=True)
class Corpus:
    categories: tuple
    documents: tuple

    def write(self, path) -> None:
        """The corpus as the CLI's tab-separated CSV: name, labels, text."""
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(f"{d.name}\t{','.join(d.labels)}\t{d.text}\n"
                          for d in self.documents)

    def stats(self) -> dict:
        """Token counts as the text stands (before any stop list or stemmer):
        whitespace tokens, lowercased and stripped of ``,.``."""
        tokens = 0
        distinct = set()
        for doc in self.documents:
            for tok in doc.text.split():
                tok = tok.strip(",.").lower()
                tokens += 1
                distinct.add(tok)
        return {"docs": len(self.documents), "categories": len(self.categories),
                "tokens": tokens, "distinct_tokens": len(distinct),
                "distinct_token_share": len(distinct) / tokens if tokens else 0.0}


def _cumulative(weights):
    out, total = [], 0.0
    for w in weights:
        total += w
        out.append(total)
    return out


def _zipf_cdf(n: int):
    return _cumulative(1.0 / (r + 1) ** ZIPF_EXPONENT for r in range(n))


def _draw(rng: SplitMix64, cdf) -> int:
    return bisect.bisect_right(cdf, rng.next_float() * cdf[-1])


def _make_stems(rng: SplitMix64, count: int, taken: set) -> list:
    stems = []
    while len(stems) < count:
        syllables = 1 + rng.next_below(3)
        word = "".join(_ONSETS[rng.next_below(len(_ONSETS))]
                       + _VOWELS[rng.next_below(len(_VOWELS))]
                       + _CODAS[rng.next_below(len(_CODAS))]
                       for _ in range(syllables))
        if word not in taken:
            taken.add(word)
            stems.append(word)
    return stems


class Vocabulary:
    """Background stems, per-category topical stems and the draw tables."""

    def __init__(self, seed: int, num_categories: int):
        rng = SplitMix64.for_stream(seed, 1)
        taken = set(STOP_WORDS)
        self.background = _make_stems(rng, BACKGROUND_STEMS, taken)
        self.topics = [_make_stems(rng, TOPIC_STEMS, taken)
                       for _ in range(num_categories)]
        self.background_cdf = _zipf_cdf(BACKGROUND_STEMS)
        self.topic_cdf = _zipf_cdf(TOPIC_STEMS)
        self.stop_cdf = _zipf_cdf(len(STOP_WORDS))
        self.suffixes = [s for s, _ in SUFFIXES]
        self.suffix_cdf = _cumulative(w for _, w in SUFFIXES)

    def token(self, rng: SplitMix64, topic_categories) -> str:
        u = rng.next_float()
        if u < STOP_SHARE:
            return STOP_WORDS[_draw(rng, self.stop_cdf)]
        if u < STOP_SHARE + TOPIC_SHARE:
            c = topic_categories[rng.next_below(len(topic_categories))]
            stem = self.topics[c][_draw(rng, self.topic_cdf)]
        else:
            stem = self.background[_draw(rng, self.background_cdf)]
        return stem + self.suffixes[_draw(rng, self.suffix_cdf)]


def category_priors(num_categories: int, shifted: bool = False) -> list:
    """Skewed priors p(c) ~ 1 / (c + 1)^0.7; the shifted variant reverses
    them, so the most frequent training category is the rarest test one."""
    raw = [1.0 / (c + 1) ** 0.7 for c in range(num_categories)]
    if shifted:
        raw.reverse()
    total = sum(raw)
    return [w / total for w in raw]


def _document_text(rng: SplitMix64, vocab: Vocabulary, labels_ids) -> str:
    lo, hi = DOC_TOKENS
    length = lo + rng.next_below(hi - lo + 1)
    words = []
    sentence_left = 0
    for _ in range(length):
        if sentence_left == 0:
            if words:
                words[-1] += "."
            sentence_left = 8 + rng.next_below(9)
            capitalise = True
        else:
            capitalise = False
        sentence_left -= 1
        if rng.next_below(200) == 0:
            words.append("&amp;")
            continue
        word = vocab.token(rng, labels_ids)
        if capitalise:
            word = word[0].upper() + word[1:]
        if rng.next_below(20) == 0:
            word += ","
        words.append(word)
    return " ".join(words) + "."


def generate(seed: int, num_docs: int, num_categories: int = 10,
             stream: int = 0, shifted: bool = False, prefix: str = "d",
             vocab: Vocabulary | None = None) -> Corpus:
    """A multilabel corpus of `num_docs` documents.

    Each document has one category drawn from the priors and, with
    probability SECOND_LABEL_SHARE, a second distinct one.  `stream` keeps
    corpora drawn from the same seed (train and test halves) independent.
    """
    if vocab is None:
        vocab = Vocabulary(seed, num_categories)
    categories = tuple(f"cat{c:02d}" for c in range(num_categories))
    prior_cdf = _cumulative(category_priors(num_categories, shifted))
    rng = SplitMix64.for_stream(seed, 100 + stream)
    docs = []
    for i in range(num_docs):
        first = _draw(rng, prior_cdf)
        label_ids = [first]
        if rng.next_float() < SECOND_LABEL_SHARE:
            second = _draw(rng, prior_cdf)
            if second != first:
                label_ids.append(second)
        label_ids.sort()
        docs.append(Document(name=f"{prefix}{i:05d}",
                             labels=tuple(categories[c] for c in label_ids),
                             text=_document_text(rng, vocab, label_ids)))
    return Corpus(categories=categories, documents=tuple(docs))
