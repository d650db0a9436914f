"""Corpus-centric index: the data model every other module reads from.

An :class:`Index` ties together three concept tables (categories, features,
documents) and the sparse relations between them: content (document x feature
occurrence counts), classification (document x category, multilabel), domain
(feature x category validity) and weighting (document x feature real weights).

Content, weighting and classification are stored once, as the numpy arrays
of :class:`IndexArrays` (a document-major CSR and a label matrix), built at
construction; every accessor is a read of those arrays.  Indexes are
immutable and therefore safe to share across threads.  All iteration orders
are deterministic (ascending ID), which is what makes two builds from
identical input serialize byte-identically.
"""

from __future__ import annotations

import io
import os
from collections.abc import Sequence
from contextlib import ExitStack, suppress
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import chain, count, filterfalse, islice
from operator import itemgetter

import numpy as np

from .errors import ParseError, ValidationError
from .sums import row_sums

#: dense IDs are 32-bit non-negative ints; documented capacity limit
MAX_ID = 2**31 - 1

_FORBIDDEN_NAME_CHARS = ("\t", "\n", "\r")


def _check_name(kind: str, name: str) -> None:
    if not name:
        raise ValidationError(f"empty {kind} name")
    if any(ch in name for ch in _FORBIDDEN_NAME_CHARS):
        raise ValidationError(f"{kind} name {name!r} contains tab/newline")


def _first_bad_name(kind: str, names: list):
    """(position, message) of the first empty, tab/newline-holding or
    repeated name; None, after one bulk check, when every name is good."""
    joined = "".join(names)
    if (len(set(names)) == len(names) and all(names)
            and not any(ch in joined for ch in _FORBIDDEN_NAME_CHARS)):
        return None
    seen = set()
    for i, name in enumerate(names):
        try:
            _check_name(kind, name)
        except ValidationError as exc:
            return i, str(exc)
        if name in seen:
            return i, f"duplicate {kind} name {name!r}"
        seen.add(name)
    return None


class ConceptDb:
    """Ordered table of (id, name) pairs with contiguous ids 0..n-1.

    Names are checked in bulk; `_checked` skips that for names taken from a
    table that was checked already (subset_index) or checked by the caller
    (_read_concepts, which names the line of a bad one).  The name -> id
    map is built on the first lookup by name: building an index looks names
    up, but no stage run on a loaded index does.
    """

    def __init__(self, names, kind="entry", _checked=False):
        self.kind = kind
        self._names = list(names)
        if not _checked:
            bad = _first_bad_name(kind, self._names)
            if bad is not None:
                raise ValidationError(bad[1])

    @cached_property
    def _ids(self) -> dict:
        return dict(zip(self._names, range(len(self._names))))

    def __len__(self):
        return len(self._names)

    def __iter__(self):
        return iter(enumerate(self._names))

    def name(self, id_: int) -> str:
        if not 0 <= id_ < len(self._names):
            raise ValidationError(f"unknown {self.kind} id {id_}")
        return self._names[id_]

    def id(self, name: str) -> int:
        try:
            return self._ids[name]
        except KeyError:
            raise ValidationError(f"unknown {self.kind} {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._ids

    @property
    def names(self):
        return tuple(self._names)


@dataclass(frozen=True)
class IndexArrays:
    """The storage of an index's content, weighting and classification.

    The content relation is a document-major CSR: the nonzeros of document
    d are ``indptr[d]:indptr[d + 1]``, in ascending feature id, and ``rows``
    holds the document id of every nonzero.  ``weights`` holds the weighting
    relation aligned with the content entries (0.0 where it has none; the
    index keeps which entries it has apart from this).  ``labels`` is the
    D x C classification matrix.  Every array is read-only.
    """

    indptr: np.ndarray    # int64, D + 1
    rows: np.ndarray      # intp, nnz
    features: np.ndarray  # int32, nnz
    counts: np.ndarray    # int64, nnz
    weights: np.ndarray   # float64, nnz
    labels: np.ndarray    # bool, D x C


# one row of a relation, as decoded from its file or flattened from dicts
_CONTENT_ROW = np.dtype([("d", np.int64), ("f", np.int64), ("n", np.int64)])
_WEIGHT_ROW = np.dtype([("d", np.int64), ("f", np.int64), ("w", np.float64)])
_PAIR_ROW = np.dtype([("a", np.int64), ("b", np.int64)])


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _offsets(keys, n: int) -> np.ndarray:
    """The n + 1 int64 offsets of the groups of the keys below n: the
    positions of key k are offsets[k]:offsets[k + 1] once they are sorted."""
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys, minlength=n), out=offsets[1:])
    return offsets


class ArrayRows(Sequence):
    """The rows of equal-length numpy columns, read as they are asked for:
    an item is the tuple of each column's item, as Python scalars, and a
    slice a tuple of such rows.  It compares equal to, and hashes like, the
    tuple of its rows."""

    __slots__ = ("columns",)

    def __init__(self, *columns: np.ndarray):
        self.columns = columns

    def __len__(self) -> int:
        return len(self.columns[0])

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(zip(*[column[i].tolist() for column in self.columns]))
        return tuple([column.item(i) for column in self.columns])

    def __iter__(self):
        positions = range(len(self))
        return zip(*[map(column.item, positions) for column in self.columns])

    def __eq__(self, other):
        if isinstance(other, (tuple, ArrayRows)):
            return self[:] == other  # an ArrayRows answers reflected
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self[:])

    def __repr__(self) -> str:
        return repr(self[:])


def _csr(n_docs, rows, features, counts, weights, labels) -> IndexArrays:
    """IndexArrays over nonzeros sorted by (document, feature)."""
    return IndexArrays(
        indptr=_frozen(_offsets(rows, n_docs)),
        rows=_frozen(np.ascontiguousarray(rows, dtype=np.intp)),
        features=_frozen(np.ascontiguousarray(features, dtype=np.int32)),
        counts=_frozen(np.ascontiguousarray(counts, dtype=np.int64)),
        weights=_frozen(np.ascontiguousarray(weights, dtype=np.float64)),
        labels=_frozen(labels))


def _doc_nonzeros(indptr, docs) -> tuple:
    """(position, row in `docs`) of every nonzero of the rows `docs` of a
    CSR (or of any offsets like it, such as feature-major postings), row
    after row in the order of `docs`; sorted ids give CSR order."""
    docs = np.asarray(docs, dtype=np.intp)
    starts = indptr[docs]
    lengths = indptr[docs + 1] - starts
    rows = np.repeat(np.arange(len(docs)), lengths)
    # a nonzero's position: its row's start plus its rank within the row
    offsets = starts - (np.cumsum(lengths) - lengths)
    return offsets[rows] + np.arange(len(rows)), rows


def document_arrays(arrays: IndexArrays, docs) -> tuple:
    """(arrays, positions): the arrays of the sorted document ids `docs`,
    renumbered from 0 in their order, and where their nonzeros sit in
    `arrays`.  The arrays are those of subset_index(keep_docs=docs)."""
    nz, rows = _doc_nonzeros(arrays.indptr, docs)
    return _csr(len(docs), rows, arrays.features[nz], arrays.counts[nz],
                arrays.weights[nz], arrays.labels[docs]), nz


class _Rows:
    """The rows of one relation (`rows`) and checks on them; a subclass's
    `fail(row, message)` makes the error that says where the row is."""

    def check(self, bad: np.ndarray, message: str) -> None:
        """Raise at the first row where `bad` holds."""
        if bad.any():
            raise self.fail(int(np.argmax(bad)), message)

    def check_ids(self, ids: np.ndarray, bound: int, what: str) -> None:
        self.check((ids < 0) | (ids >= bound), f"unknown {what} id")

    def sorted_rows(self, rows, major, minor, n_minor, what):
        """Rows sorted by (major, minor) id; a repeated pair is an error at
        its second row."""
        keys = rows[major] * n_minor + rows[minor]
        if np.all(keys[1:] > keys[:-1]):
            return rows
        order = np.argsort(keys, kind="stable")
        repeats = order[1:][keys[order[1:]] == keys[order[:-1]]]
        if repeats.size:
            raise self.fail(int(repeats.min()), f"duplicate {what} row")
        return rows[order]


class _DictRows(_Rows):
    """The rows of a relation given as {key: {key2: value}} or
    {key: [key2]}; a failed check is a ValidationError naming the entry."""

    def __init__(self, name: str, relation: dict, row_type: np.dtype):
        self.name = name
        sizes = list(map(len, relation.values()))
        self.rows = np.zeros(sum(sizes), dtype=row_type)
        first, second, *value = row_type.names
        self.rows[first] = np.repeat(
            np.fromiter(relation, np.int64, len(relation)), sizes)
        self.rows[second] = np.fromiter(chain.from_iterable(
            relation.values()), np.int64, len(self.rows))
        if value:
            self.rows[value[0]] = list(chain.from_iterable(
                cells.values() for cells in relation.values()))

    def fail(self, row, message):
        key = self.rows[row].tolist()[:2]
        return ValidationError(f"{self.name} entry {key}: {message}")


class DomainDb(_Rows):
    """Feature/category validity. Global mode: every feature valid everywhere.

    Local mode holds the valid (fID, cID) pairs as two read-only int64
    arrays, `features` and `categories`, sorted by feature and then by
    category: the rows of domain.tsv, in their order.  They are given as
    `pairs` in that order, or as `valid`, {cID: iterable of fIDs}; `valid`
    and valid_features read them back as frozensets.
    """

    def __init__(self, local: bool, valid: dict | None = None, pairs=None):
        if local and pairs is None:  # sorted, a repeated pair kept once
            rows = _DictRows("domain", valid or {}, _PAIR_ROW).rows
            rows = rows[np.lexsort((rows["a"], rows["b"]))]
            first = np.ones(len(rows), dtype=bool)
            first[1:] = rows[1:] != rows[:-1]
            pairs = rows["b"][first], rows["a"][first]
        self.local = local
        self.features, self.categories = [
            _frozen(np.ascontiguousarray(ids, dtype=np.int64))
            for ids in pairs] if local else (None, None)

    @property
    def valid(self):
        """{cID: frozenset of fIDs} of each category with a valid feature;
        None in global mode."""
        return {c: self.valid_features(c) for c in sorted(set(
            self.categories.tolist()))} if self.local else None

    def valid_features(self, c_id: int):
        """None means 'all features valid' (global mode)."""
        return (frozenset(self.features[self.categories == c_id].tolist())
                if self.local else None)

    def fail(self, row, message):
        key = (self.categories.item(row), self.features.item(row))
        return ValidationError(f"domain entry {key}: {message}")


GLOBAL_DOMAIN = DomainDb(local=False)


def _placed(docs, feats, n_docs, n_feats, source: _Rows):
    """Weight rows placed on the content entries (`docs`, `feats`, sorted):
    the weights, 0.0 where a row is missing, and the mask of the placed
    entries."""
    rows = source.rows
    source.check_ids(rows["d"], n_docs, "document")
    source.check_ids(rows["f"], n_feats, "feature")
    source.check(~np.isfinite(rows["w"]), "non-finite weight")
    keys = docs.astype(np.int64) * n_feats + feats
    wanted = rows["d"] * n_feats + rows["f"]
    at = np.searchsorted(keys, wanted)
    source.check(np.append(keys, -1)[at] != wanted,  # -1: past the end
                 "weight without a content entry")
    source.sorted_rows(rows, "d", "f", n_feats, "weight")  # rejects repeats
    weights = np.zeros(len(keys))
    weights[at] = rows["w"]
    weighted = np.zeros(len(keys), dtype=bool)
    weighted[at] = True
    return weights, weighted


def _stored(n_docs, n_feats, n_cats, content, weights, classification):
    """The arrays and the weight mask of an index from the rows of its
    content, weighting and classification relations; bad ids, counts and
    weights and repeated keys are rejected.  `weights` None weights every
    entry by its count."""
    rows = content.rows
    content.check_ids(rows["d"], n_docs, "document")
    content.check_ids(rows["f"], n_feats, "feature")
    content.check(rows["n"] <= 0, "non-positive count")
    rows = content.sorted_rows(rows, "d", "f", n_feats, "content")
    if weights is None:  # the weights are the counts
        placed = rows["n"].astype(np.float64)
        weighted = np.ones(len(rows), dtype=bool)
    else:
        placed, weighted = _placed(rows["d"], rows["f"], n_docs, n_feats,
                                   weights)
    pairs = classification.rows
    classification.check_ids(pairs["a"], n_docs, "document")
    classification.check_ids(pairs["b"], n_cats, "category")
    classification.sorted_rows(pairs, "a", "b", n_cats, "classification")
    labels = np.zeros((n_docs, n_cats), dtype=bool)
    labels[pairs["a"], pairs["b"]] = True
    return _csr(n_docs, rows["d"], rows["f"], rows["n"], placed,
                labels), _frozen(weighted)


def _check_domain(domain: DomainDb, n_feats, n_cats) -> None:
    if domain.local:
        domain.check_ids(domain.categories, n_cats, "category")
        domain.check_ids(domain.features, n_feats, "feature")


class Index:
    """Immutable corpus index. Use :func:`build_index` to construct one."""

    def __init__(self, categories: ConceptDb, features: ConceptDb,
                 documents: ConceptDb, content: dict, classification: dict,
                 weights: dict, domain: DomainDb = GLOBAL_DOMAIN):
        _check_domain(domain, len(features), len(categories))
        arrays, weighted = _stored(
            len(documents), len(features), len(categories),
            _DictRows("content", content, _CONTENT_ROW),
            _DictRows("weighting", weights, _WEIGHT_ROW),
            _DictRows("classification", classification, _PAIR_ROW))
        self._set(categories, features, documents, arrays, weighted, domain)

    @classmethod
    def _from_arrays(cls, *parts) -> "Index":
        """An index over already checked arrays (see :meth:`_set`)."""
        index = cls.__new__(cls)
        index._set(*parts)
        return index

    def _set(self, categories, features, documents, arrays: IndexArrays,
             weighted: np.ndarray, domain: DomainDb) -> None:
        # weighted: bool per content entry, True where the weighting has it
        self._categories, self._features, self._documents = (
            categories, features, documents)
        self._arrays, self._weighted, self._domain = arrays, weighted, domain

    # -- concept tables ----------------------------------------------------

    @property
    def categories(self) -> ConceptDb:
        return self._categories

    @property
    def features(self) -> ConceptDb:
        return self._features

    @property
    def documents(self) -> ConceptDb:
        return self._documents

    @property
    def domain(self) -> DomainDb:
        return self._domain

    @property
    def num_categories(self) -> int:
        return len(self._categories)

    @property
    def num_features(self) -> int:
        return len(self._features)

    @property
    def num_documents(self) -> int:
        return len(self._documents)

    # -- relations ---------------------------------------------------------

    def _row(self, d_id: int) -> slice:
        self._documents.name(d_id)
        indptr = self._arrays.indptr
        return slice(indptr[d_id], indptr[d_id + 1])

    def document_features(self, d_id: int) -> dict:
        """Content row for a document: {fID: count}, ascending fID."""
        row, a = self._row(d_id), self._arrays
        return dict(zip(a.features[row].tolist(), a.counts[row].tolist()))

    def document_weights(self, d_id: int) -> dict:
        """Weight row for a document: {fID: weight}, ascending fID, only
        the entries the weighting relation has."""
        row, a = self._row(d_id), self._arrays
        has = self._weighted[row]
        return dict(zip(a.features[row][has].tolist(),
                        a.weights[row][has].tolist()))

    def feature_documents(self, f_id: int) -> dict:
        """Posting list for a feature: {dID: count}, ascending dID; O(nnz)."""
        self._features.name(f_id)
        a = self._arrays
        hits = a.features == f_id
        return dict(zip(a.rows[hits].tolist(), a.counts[hits].tolist()))

    def document_frequency(self, f_id: int) -> int:
        return len(self.feature_documents(f_id))

    def document_categories(self, d_id: int) -> tuple:
        self._documents.name(d_id)
        return tuple(np.flatnonzero(self._arrays.labels[d_id]).tolist())

    def category_documents(self, c_id: int) -> frozenset:
        self._categories.name(c_id)
        return frozenset(np.flatnonzero(self._arrays.labels[:, c_id]).tolist())

    def classification_size(self) -> int:
        """Total number of (document, category) label pairs."""
        return int(np.count_nonzero(self._arrays.labels))

    def content_items(self):
        """All (dID, fID, count) triples, sorted by dID then fID."""
        a = self._arrays
        return zip(a.rows.tolist(), a.features.tolist(), a.counts.tolist())

    def weight_items(self):
        """All (dID, fID, weight) triples of the weighting relation."""
        a, has = self._arrays, self._weighted
        return zip(a.rows[has].tolist(), a.features[has].tolist(),
                   a.weights[has].tolist())

    def classification_items(self):
        """All (dID, cID) label pairs, sorted by dID then cID."""
        docs, cats = np.nonzero(self._arrays.labels)
        return zip(docs.tolist(), cats.tolist())

    def arrays(self) -> IndexArrays:
        """The stored, read-only arrays of content, weights and labels."""
        return self._arrays

    # -- derived constructors ---------------------------------------------

    def with_weighting(self, weights: dict) -> "Index":
        """New index sharing everything but the weighting relation.

        `weights` is document-major: {dID: {fID: weight}}; its keys must be
        a subset of the content keys.
        """
        a = self._arrays
        return self.with_weight_values(*_placed(
            a.rows, a.features, self.num_documents, self.num_features,
            _DictRows("weighting", weights, _WEIGHT_ROW)))

    def with_weight_values(self, values, weighted=None) -> "Index":
        """New index sharing everything but the weights: `values` aligned
        with ``arrays().features``, of which the weighting relation has the
        entries where `weighted` holds (every entry by default)."""
        if weighted is None:
            weighted = np.ones(len(values), dtype=bool)
        arrays = replace(self._arrays, weights=_frozen(
            np.ascontiguousarray(values, dtype=np.float64)))
        return Index._from_arrays(self._categories, self._features,
                                  self._documents, arrays,
                                  _frozen(np.asarray(weighted, dtype=bool)),
                                  self._domain)

    def with_domain(self, domain: DomainDb) -> "Index":
        _check_domain(domain, self.num_features, self.num_categories)
        return Index._from_arrays(self._categories, self._features,
                                  self._documents, self._arrays,
                                  self._weighted, domain)


def build_index(docs, labels, categories, vocabulary=None) -> Index:
    """Build an index from raw per-document feature counts and labels.

    docs: an iterable of (docName, [(featureText, count)]) pairs, read once;
          a third tuple element may carry an explicit weight (defaults to
          the count).
    labels: list of (docName, [categoryLabel]) pairs.
    categories: the category label universe, ids assigned in list order.
    vocabulary: None, or the dict featureText -> id that an extraction
          grows as build_index reads `docs` (a
          :class:`~jatecs.textproc.FeatureIds`' vocabulary).  Each item of
          `docs` is then a (docName, {featureId: count}, entries) triple:
          the document's distinct extracted features by id, taken as they
          are, followed by its entries as above.  The vocabulary is emptied
          once it has become the feature table.

    IDs are assigned in first-seen order starting at 0.  Entries repeated
    within a document are aggregated: their counts add up as Python numbers
    in input order from 0 (int64; 2**63 or more is an OverflowError), and
    their weights add left to right in input order onto 0.0 (so a lone -0.0
    weight is stored as 0.0).  The weighting relation starts out as raw
    frequencies so an unweighted index is still classifiable.

    Each document's name is checked and its features become feature ids and
    counts in flat lists, with a weight kept only for an entry that carries
    one; the entries themselves are not kept.  Entries that fail
    :func:`_bulk_document` are walked, after the document's extracted
    features as entries, by :func:`_walked_document`, which raises the first
    bad entry's error, as an entry-by-entry build would, and hands in each
    text once, with its count total and weight sum.
    """
    cat_db = ConceptDb(categories, kind="category")
    labels = list(labels)
    if vocabulary is None:
        vocabulary = {}  # feature text -> id
        docs = ((name, None, entries) for name, entries in docs)
    names, lengths, feature_ids, given = [], [], [], []
    explicit_at, explicit = [], []  # the entries that carry a weight
    seen_docs = set()
    in_bulk = True  # every document's entries read in bulk
    known: list = []  # the vocabulary's texts by id, made for a walk
    for name, extracted, entries in docs:
        _check_name("document", name)
        if name in seen_docs:
            raise ValidationError(f"duplicate docName {name!r}")
        seen_docs.add(name)
        if type(entries) is not list:
            entries = list(entries)
        texts = ()
        if entries:
            read = _bulk_document(entries)
            if read is None:
                if extracted:
                    known += _texts_after(vocabulary, len(known))
                    entries = [*zip(map(known.__getitem__, extracted),
                                    extracted.values()), *entries]
                    extracted = None
                read = _walked_document(name, entries)
                in_bulk = False
            texts, counts, weights = read
        del entries
        length = len(texts)
        if extracted:
            feature_ids += extracted
            given += extracted.values()
            length += len(extracted)
        if texts:
            # a text is new when the vocabulary, which the update grows as
            # it reads, lacks it: a text repeated in the document takes one
            # id
            vocabulary.update(zip(filterfalse(vocabulary.__contains__, texts),
                                  count(len(vocabulary))))
            feature_ids += map(vocabulary.__getitem__, texts)
            if weights:
                explicit_at += (len(given) + i for i in weights)
                explicit += weights.values()
            given += counts
        names.append(name)
        lengths.append(length)
    del seen_docs
    # names that are no str fail the tables; texts read in bulk are checked
    doc_db = ConceptDb(names, kind="document")
    feat_db = ConceptDb(vocabulary, kind="feature", _checked=in_bulk)
    vocabulary.clear()  # the caller holds it too
    label_matrix = _label_matrix(labels, doc_db, cat_db)
    # one (document, feature) key per entry, sorted once; a group is the
    # entries of one key, in input order
    n_feats = len(feat_db)
    keys = np.array(feature_ids, dtype=np.int64)
    del feature_ids
    keys += np.repeat(np.arange(len(names), dtype=np.int64) * n_feats,
                      np.array(lengths, dtype=np.int64))
    given = np.array(given, dtype=np.int64)  # 2**63 or more: OverflowError
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    first = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    # the group and the input position of each entry of a repeated group;
    # a group's number is its position less the later entries before it
    repeats = np.flatnonzero(~(first & np.append(first[1:], True)))
    group = repeats - np.searchsorted(np.flatnonzero(~first), repeats,
                                      side="right")
    repeats = order[repeats]
    at = order[first]  # the input position of each group's first entry
    del order
    keys = keys[first]
    del first
    # repeated groups, added up in input order as Python ints
    totals: dict = {}
    for g, n in zip(group.tolist(), given[repeats].tolist()):
        totals[g] = totals.get(g, 0) + n
    counts = given[at]
    counts[list(totals)] = list(totals.values())  # 2**63: OverflowError
    if explicit_at or len(repeats):
        weights = given.astype(np.float64)
        weights[explicit_at] = explicit
        del given
        repeated, inverse = np.unique(group, return_inverse=True)
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            sums = row_sums(inverse, weights[repeats], len(repeated),
                            start=0.0)
            weights = weights[at]
            weights += 0.0  # a lone weight w is stored as 0.0 + w
            weights[repeated] = sums
    else:  # no weights to add up: each is its count
        del given
        weights = counts.astype(np.float64)
    del explicit_at, explicit
    for bad, error in ((counts <= 0, "content entry {}: non-positive count"),
                       (~np.isfinite(weights),
                        "weighting entry {}: non-finite weight")):
        if bad.any():  # the first bad group in input order
            g = np.flatnonzero(bad)[np.argmin(at[bad])]
            raise ValidationError(error.format(divmod(int(keys[g]),
                                                      n_feats)))
    del at, bad
    # the remainders overwrite the keys
    rows, features = np.divmod(keys, n_feats,
                               out=(np.empty_like(keys), keys))
    del keys
    arrays = _csr(len(names), rows, features, counts, weights, label_matrix)
    return Index._from_arrays(cat_db, feat_db, doc_db, arrays,
                              _frozen(np.ones(len(counts), dtype=bool)),
                              GLOBAL_DOMAIN)


def _texts_after(vocabulary: dict, n: int) -> list:
    """The texts of `vocabulary` after its first `n`, in id order."""
    texts = list(islice(reversed(vocabulary), len(vocabulary) - n))
    texts.reverse()
    return texts


def _bulk_document(entries):
    """The texts, counts and weights {position: weight} of a document's
    `entries`, checked in bulk; None unless each entry is a 2- or 3-tuple of
    a good feature name, a positive int count and, if a third item is given,
    None or a number as weight, and the counts add up to less than 2**63,
    so each sum of them is an int64."""
    try:
        sizes = set(map(len, entries))
        if not (set(map(type, entries)) <= {tuple} and sizes <= {2, 3}):
            return None
        texts = list(map(itemgetter(0), entries))
        counts = list(map(itemgetter(1), entries))
        joined = "".join(texts)
        if not (all(texts)
                and not any(ch in joined for ch in _FORBIDDEN_NAME_CHARS)
                and set(map(type, counts)) <= {int}
                and 0 < min(counts, default=1) and sum(counts) < 2**63):
            return None
        weights = {}
        if 3 in sizes:
            weights = {i: float(entry[2]) for i, entry in enumerate(entries)
                       if len(entry) == 3 and entry[2] is not None}
    except (TypeError, ValueError, OverflowError):
        return None
    return texts, counts, weights


def _walked_document(name, entries):
    """The texts, counts and weights {position: weight} of the document
    `name`'s `entries`, read one by one: the first bad entry raises the
    error of the type and text an entry-by-entry build gives it.  Each text
    comes once, in first-seen order, with its counts added up from 0 and its
    weights (an entry's count as a float when it carries none) added onto
    0.0, both in input order."""
    totals, sums = {}, {}  # text -> count total, weight sum
    for entry in entries:
        if len(entry) == 3:
            text, count, weight = entry
        else:
            text, count = entry
            weight = None
        if count <= 0:
            raise ValidationError(
                f"non-positive count {count} for feature {text!r} in {name!r}")
        if count != int(count):  # counts are stored as int64
            raise ValidationError(
                f"fractional count {count} for feature {text!r} in {name!r}")
        total = totals.get(text, 0)  # hashes the text first
        _check_name("feature", text)
        totals[text] = total + count
        sums[text] = sums.get(text, 0.0) + float(
            count if weight is None else weight)
    return list(totals), list(totals.values()), dict(enumerate(sums.values()))


def _label_matrix(labels, doc_db: ConceptDb, cat_db: ConceptDb) -> np.ndarray:
    """The D x C classification matrix of (docName, [categoryLabel]) pairs."""
    d_ids, c_ids = [], []
    seen = set()
    for name, cats in labels:
        if name not in doc_db:
            raise ValidationError(f"labels reference unknown document {name!r}")
        if name in seen:
            raise ValidationError(f"duplicate label entry for document {name!r}")
        seen.add(name)
        row = [cat_db.id(label) for label in cats]  # unknown: ValidationError
        d_ids += [doc_db.id(name)] * len(row)
        c_ids += row
    matrix = np.zeros((len(doc_db), len(cat_db)), dtype=bool)
    matrix[d_ids, c_ids] = True
    return matrix


def query_document_features(index: Index, d_id: int):
    """All (fID, count, weight) triples of a document, ascending fID.

    The weight is 0.0 for content entries absent from the weighting relation.
    """
    weights = index.document_weights(d_id)
    return [(f, n, weights.get(f, 0.0))
            for f, n in index.document_features(d_id).items()]


def query_category_documents(index: Index, c_id: int) -> set:
    """The exact set of documents labeled with the category."""
    return set(index.category_documents(c_id))


def subset_index(index: Index, keep_docs=None, keep_features=None) -> Index:
    """Restrict an index to a subset of documents OR of features.

    Exactly one keep set must be given; it must be a non-empty subset of the
    existing ids.  Kept ids are re-compacted to a contiguous range preserving
    their original relative order; the other two concept tables are untouched
    (in particular, subsetting documents keeps the full feature space, which
    is what k-fold splitting relies on).  The result's arrays are cut from
    the source's.
    """
    if (keep_docs is None) == (keep_features is None):
        raise ValidationError("specify exactly one of keep_docs / keep_features")
    a = index.arrays()
    doc_db, feat_db, domain = index.documents, index.features, index.domain
    if keep_docs is not None:
        old_ids = sorted(set(keep_docs))
        if not old_ids:
            raise ValidationError("empty document keep set")
        doc_db = ConceptDb([doc_db.name(d) for d in old_ids],
                           kind="document", _checked=True)
        arrays, kept = document_arrays(a, old_ids)
    else:
        old_ids = np.array(sorted(set(keep_features)), dtype=np.int64)
        if not len(old_ids):
            raise ValidationError("empty feature keep set")
        feat_db = ConceptDb([feat_db.name(f) for f in old_ids.tolist()],
                            kind="feature", _checked=True)
        # a feature's new id: its rank among the kept ones, -1 if dropped
        new_feats = np.full(index.num_features, -1, dtype=np.int32)
        new_feats[old_ids] = np.arange(len(old_ids))
        if domain.local:  # the remap is monotone: the pairs stay sorted
            feats = new_feats[domain.features]
            domain = DomainDb(True, pairs=(feats[feats >= 0],
                                           domain.categories[feats >= 0]))
        kept = new_feats[a.features] >= 0
        arrays = _csr(len(doc_db), a.rows[kept], new_feats[a.features[kept]],
                      a.counts[kept], a.weights[kept], a.labels)
    return Index._from_arrays(index.categories, feat_db, doc_db, arrays,
                              _frozen(index._weighted[kept]), domain)


# -- serialization ----------------------------------------------------------
#
# An index directory holds UTF-8, LF-terminated, tab-separated files.  The
# layout is stable and sorted so that serializing the same index twice (or a
# deserialized copy of it) produces byte-identical files.  The concept,
# relation and domain files are encoded in bulk, one %-format per chunk of
# rows: "%d" writes an int as str() does, "%s" a name as it is and "%r" a
# float as repr() does, so the bytes are those of one f-string per row.  A
# file is written chunk by chunk as it is encoded.  A weighting relation
# that is exactly the counts is written along with the content, each content
# chunk with ".0" before each newline, since repr(float(n)) == f"{n}.0" for
# every integer 0 < n <= 2**53.  Each file is decoded with one read and, for
# the numeric relations, one numpy parse of all its rows; a concept file is
# one split of its text.  Blank lines are skipped.  A malformed row (wrong
# field count, non-numeric field, unknown id, duplicate key) is a ParseError
# naming its line; the line is looked up only once a file has failed to
# decode.

FORMAT_VERSION = 1

#: rows per %-format when encoding a file; bounds the size of the format
#: string, of the list and tuple of cells it formats and of a chunk
_ENCODE_CHUNK_ROWS = 2**12


def _format_rows(row_format: str, *columns):
    """One `row_format` line per row of the equal-length `columns`, encoded
    one chunk of rows at a time; no rows are one empty chunk."""
    width = len(columns)
    n = len(columns[0])
    for start in range(0, max(n, 1), _ENCODE_CHUNK_ROWS):
        stop = min(start + _ENCODE_CHUNK_ROWS, n)
        cells = [None] * ((stop - start) * width)
        for j, column in enumerate(columns):
            cells[j::width] = column[start:stop].tolist()
        yield (row_format * (stop - start) % tuple(cells)).encode()


def _index_chunks(index: Index):
    """(file name, chunk) of each chunk of the serialized form, encoded as
    it is read: a file's bytes are its chunks joined.  Files come one after
    another, but a raw index's weights.tsv chunks alternate with the
    content chunks they are made from."""
    def rows(name, row_format, *columns):
        for chunk in _format_rows(row_format, *columns):
            yield name, chunk

    def concepts(name, table):
        return rows(name, "%d\t%s\n", np.arange(len(table)),
                    np.array(table._names, dtype=object))

    yield "meta.tsv", (f"format_version\t{FORMAT_VERSION}\n"
                       f"documents\t{index.num_documents}\n"
                       f"features\t{index.num_features}\n"
                       f"categories\t{index.num_categories}\n").encode()
    yield from concepts("categories.tsv", index.categories)
    yield from concepts("features.tsv", index.features)
    yield from concepts("documents.tsv", index.documents)
    a, weighted = index.arrays(), index._weighted
    content = _format_rows("%d\t%d\t%d\n", a.rows, a.features, a.counts)
    if (weighted.all() and (not a.counts.size or a.counts.max() <= 2**53)
            and np.array_equal(a.weights, a.counts)):
        for chunk in content:
            yield "content.tsv", chunk
            yield "weights.tsv", chunk.replace(b"\n", b".0\n")
    else:
        for chunk in content:
            yield "content.tsv", chunk
        yield from rows("weights.tsv", "%d\t%d\t%r\n", a.rows[weighted],
                        a.features[weighted], a.weights[weighted])
    yield from rows("classification.tsv", "%d\t%d\n", *np.nonzero(a.labels))
    if index.domain.local:
        yield from rows("domain.tsv", "%d\t%d\n", index.domain.features,
                        index.domain.categories)


def index_file_map(index: Index) -> dict:
    """The serialized form as {filename: bytes}."""
    files: dict = {}
    for name, chunk in _index_chunks(index):
        files.setdefault(name, []).append(chunk)
    return {name: b"".join(chunks) for name, chunks in files.items()}


def serialize_index(index: Index, directory) -> None:
    """Write the index files, each chunk as soon as it is encoded; a global
    index also removes the domain.tsv an earlier local index left in
    `directory`."""
    os.makedirs(directory, exist_ok=True)
    with ExitStack() as stack:
        files: dict = {}
        for name, chunk in _index_chunks(index):
            if name not in files:
                files[name] = stack.enter_context(
                    open(os.path.join(directory, name), "wb"))
            files[name].write(chunk)
    if not index.domain.local:
        with suppress(FileNotFoundError):
            os.remove(os.path.join(directory, "domain.tsv"))


class _TsvFile(_Rows):
    """The bytes of one index file, the line numbers of its rows and, given
    a row type, its rows decoded."""

    def __init__(self, directory, name, row_type=None):
        self.path = os.path.join(directory, name)
        if not os.path.exists(self.path):
            raise ValidationError(f"missing index file {self.path}")
        with open(self.path, "rb") as fh:
            self.data = fh.read()
        if row_type is not None:
            self.parse(row_type)

    def parse(self, row_type: np.dtype) -> "_TsvFile":
        """Decode the rows, with the columns of `row_type`."""
        self.rows = self.columns(row_type)
        return self

    def lines(self):
        """(line number, line) of every non-blank line."""
        for line_no, line in enumerate(self.data.split(b"\n"), start=1):
            if line.rstrip(b"\r"):
                yield line_no, line

    def fail(self, row: int, message: str):
        """ParseError at the `row`-th non-blank line (0-based)."""
        for i, (line_no, _) in enumerate(self.lines()):
            if i == row:
                return ParseError(self.path, line_no, message)
        return ParseError(self.path, 0, message)

    def text_rows(self) -> list:
        """[line number, id text, name] of every non-blank line, without
        the `\\r` of a CRLF line end."""
        try:
            text = self.data.decode("utf-8")
        except UnicodeDecodeError as exc:
            line_no = self.data.count(b"\n", 0, exc.start) + 1
            raise ParseError(self.path, line_no, "not UTF-8") from None
        lines = text.split("\n")
        if "\r" in text:
            lines = [line[:-1] if line.endswith("\r") else line
                     for line in lines]
        return [[line_no, *line.partition("\t")[::2]]
                for line_no, line in enumerate(lines, start=1) if line]

    def columns(self, row_type: np.dtype) -> np.ndarray:
        """All rows of a numeric file parsed at once, one field per column;
        no rows when every line is blank (only LF and CR bytes), while a
        line of spaces or tabs fails on its line."""
        if not self.data.strip(b"\r\n"):
            return np.zeros(0, dtype=row_type)
        try:
            return np.loadtxt(io.BytesIO(self.data), dtype=row_type,
                              delimiter="\t", comments=None, encoding="utf-8",
                              ndmin=1)
        except ValueError:  # UnicodeDecodeError included
            raise self._first_bad_line(row_type) from None

    def _first_bad_line(self, row_type) -> ParseError:
        width = len(row_type.names)
        for line_no, line in self.lines():
            fields = line.rstrip(b"\r").split(b"\t")
            if len(fields) != width:
                return ParseError(self.path, line_no, f"expected {width} "
                                  f"tab-separated fields, got {len(fields)}")
            try:
                np.loadtxt([line.decode("utf-8")], dtype=row_type,
                           delimiter="\t", comments=None)
            except ValueError:
                return ParseError(self.path, line_no,
                                  f"non-numeric field in {line!r}")
        return ParseError(self.path, 0, "unreadable rows")


_META_COUNTS = ("documents", "features", "categories")


def _read_meta(directory) -> dict:
    tsv = _TsvFile(directory, "meta.tsv")
    meta = {}
    for line_no, key, value in tsv.text_rows():
        if key in meta:
            raise ParseError(tsv.path, line_no, f"repeated {key}")
        try:
            meta[key] = int(value)
        except ValueError:
            raise ParseError(tsv.path, line_no, f"non-integer {key}") from None
        if key in _META_COUNTS and meta[key] < 0:
            raise ParseError(tsv.path, line_no, f"negative {key} count")
    if meta.get("format_version") != FORMAT_VERSION:
        raise ValidationError(
            f"unsupported index format_version {meta.get('format_version')}")
    for key in _META_COUNTS:
        if key not in meta:
            raise ParseError(tsv.path, 0, f"no {key} count")
    return meta


#: every byte but tab and newline, deleted to leave a file's separators
_NOT_SEPARATORS = bytes(b for b in range(256) if b not in b"\t\n")


def _concept_names(data: bytes, n: int, kind: str):
    """The names of a concept file that is exactly n lines "i<TAB>name"
    for i = 0..n-1, UTF-8 with LF ends and good distinct names, from one
    split of its text; None for any other file."""
    if b"\r" in data or data.translate(None, _NOT_SEPARATORS) != b"\t\n" * n:
        return None  # not one tab, then a newline, on each of n lines
    try:
        fields = data.decode("utf-8").replace("\t", "\n").split("\n")
    except UnicodeDecodeError:
        return None
    names = fields[1:-1:2]
    if (fields[-1] or fields[0:-1:2] != list(map(str, range(n)))
            or _first_bad_name(kind, names) is not None):
        return None
    return names


def _read_concepts(directory, name, kind, expected) -> ConceptDb:
    tsv = _TsvFile(directory, name)
    names = _concept_names(tsv.data, expected, kind)
    if names is None:  # a bad line, or blank or CRLF lines: row by row
        names = _walked_concepts(tsv, name, kind, expected)
    return ConceptDb(names, kind=kind, _checked=True)


def _walked_concepts(tsv: _TsvFile, name, kind, expected) -> list:
    """The names of a concept file read line by line, or the error that
    names its first bad line."""
    rows = tsv.text_rows()
    for i, (line_no, id_text, _) in enumerate(rows):
        if id_text != str(i):
            raise ParseError(tsv.path, line_no, f"expected id {i}")
    if len(rows) != expected:
        raise ValidationError(f"{tsv.path}: expected {expected} entries")
    names = [row[2] for row in rows]
    bad = _first_bad_name(kind, names)
    if bad is not None:
        raise ParseError(tsv.path, rows[bad[0]][0], bad[1])
    return names


def _raw_weights(content: _TsvFile, weights: bytes) -> bool:
    """Whether `weights` is the raw weighting _index_chunks writes for the
    parsed `content`: its bytes with ".0" before every LF, where they hold
    only digits, tabs and LFs and each line was one row.  Such a file would
    parse to the counts as float64, one weight per entry, and pass every
    weight check; other bytes (a space, a CR) may parse in an integer
    field but not before ".0", and a blank line is no row of content but a
    bad row of weights, so they take the parse."""
    data = content.data
    newlines = data.count(b"\n")
    return (len(content.rows) == newlines + (data[-1:] not in b"\n")
            and len(weights) == len(data) + 2 * newlines  # before the copy
            and not data.translate(None, b"0123456789\t\n")
            and weights == data.replace(b"\n", b".0\n"))


def deserialize_index(directory) -> Index:
    """Load an index directory written by :func:`serialize_index`."""
    meta = _read_meta(directory)
    cat_db = _read_concepts(directory, "categories.tsv", "category",
                            meta["categories"])
    feat_db = _read_concepts(directory, "features.tsv", "feature",
                             meta["features"])
    doc_db = _read_concepts(directory, "documents.tsv", "document",
                            meta["documents"])
    content = _TsvFile(directory, "content.tsv", _CONTENT_ROW)
    weights = _TsvFile(directory, "weights.tsv")
    arrays, weighted = _stored(
        len(doc_db), len(feat_db), len(cat_db), content,
        None if _raw_weights(content, weights.data)
        else weights.parse(_WEIGHT_ROW),
        _TsvFile(directory, "classification.tsv", _PAIR_ROW))
    domain = GLOBAL_DOMAIN
    if os.path.exists(os.path.join(directory, "domain.tsv")):
        tsv = _TsvFile(directory, "domain.tsv", _PAIR_ROW)
        rows = tsv.rows
        tsv.check_ids(rows["a"], len(feat_db), "feature")
        tsv.check_ids(rows["b"], len(cat_db), "category")
        rows = tsv.sorted_rows(rows, "a", "b", len(cat_db), "domain")
        domain = DomainDb(True, pairs=(rows["a"], rows["b"]))
    return Index._from_arrays(cat_db, feat_db, doc_db, arrays, weighted,
                              domain)
