"""Corpus-centric index: the data model every other module reads from.

An :class:`Index` ties together three concept tables (categories, features,
documents) and the sparse relations between them: content (document x feature
occurrence counts), classification (document x category, multilabel), domain
(feature x category validity) and weighting (document x feature real weights).

Indexes are immutable after construction and therefore safe to share across
threads.  Content is stored document-major; the feature-major mirror behind
:meth:`Index.feature_documents` and the numpy :class:`IndexArrays` view the
learners read are each built on first use and published with one assignment,
so a concurrent first use at worst builds the same value twice.  All
iteration orders are deterministic (ascending ID), which is what makes two
builds from identical input serialize byte-identically.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import ValidationError

#: dense IDs are 32-bit non-negative ints; documented capacity limit
MAX_ID = 2**31 - 1

_FORBIDDEN_NAME_CHARS = ("\t", "\n", "\r")


def _check_name(kind: str, name: str) -> None:
    if not name:
        raise ValidationError(f"empty {kind} name")
    if any(ch in name for ch in _FORBIDDEN_NAME_CHARS):
        raise ValidationError(f"{kind} name {name!r} contains tab/newline")


class ConceptDb:
    """Ordered table of (id, name) pairs with contiguous ids 0..n-1."""

    def __init__(self, names, kind="entry"):
        self.kind = kind
        self._names = list(names)
        self._ids = {}
        for i, name in enumerate(self._names):
            _check_name(kind, name)
            if name in self._ids:
                raise ValidationError(f"duplicate {kind} name {name!r}")
            self._ids[name] = i

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
class DomainDb:
    """Feature/category validity. Global mode: every feature valid everywhere.

    Local mode stores, per category, the frozenset of valid feature ids.
    """

    local: bool
    valid: dict | None = None  # cID -> frozenset of fIDs, only when local

    def valid_features(self, c_id: int):
        """None means 'all features valid' (global mode)."""
        if not self.local:
            return None
        return self.valid.get(c_id, frozenset())

    def is_valid(self, f_id: int, c_id: int) -> bool:
        if not self.local:
            return True
        return f_id in self.valid.get(c_id, frozenset())


GLOBAL_DOMAIN = DomainDb(local=False)


@dataclass(frozen=True)
class IndexArrays:
    """Read-only array view of an index, the form the learners read.

    Only this module builds it, so a change of the index's storage changes
    how the view is built and not its readers.  The content relation is a
    document-major CSR: the nonzeros of document d are
    ``indptr[d]:indptr[d + 1]``, in ascending feature id.  ``weights`` holds
    the weighting relation aligned with the content entries (0.0 where it
    has none) and ``rows`` the document id of every nonzero.  ``labels`` is
    the D x C classification matrix.
    """

    indptr: np.ndarray    # int64, D + 1
    rows: np.ndarray      # intp, nnz
    features: np.ndarray  # int32, nnz
    counts: np.ndarray    # int64, nnz
    weights: np.ndarray   # float64, nnz
    labels: np.ndarray    # bool, D x C


class Index:
    """Immutable corpus index. Use :func:`build_index` to construct one."""

    def __init__(self, categories: ConceptDb, features: ConceptDb,
                 documents: ConceptDb, content: dict, classification: dict,
                 weights: dict, domain: DomainDb = GLOBAL_DOMAIN,
                 _normalized: bool = False):
        self._categories = categories
        self._features = features
        self._documents = documents
        self._domain = domain
        if _normalized:
            # relations cut from a checked index by subset_index: already
            # sorted, without empty rows, and sharing that index's row objects
            self._content, self._weights = content, weights
            self._doc_cats = classification
        else:
            # content: dID -> {fID: count}, ascending keys both levels
            self._content = {
                d: dict(sorted(feats.items()))
                for d, feats in sorted(content.items()) if feats
            }
            self._weights = {
                d: dict(sorted(ws.items()))
                for d, ws in sorted(weights.items()) if ws
            }
            self._doc_cats = {
                d: tuple(sorted(cs))
                for d, cs in sorted(classification.items()) if cs
            }
            self._check_references()
        self._postings = None  # feature-major mirror, built on first use
        self._arrays = None    # IndexArrays, built on first use
        self._cat_docs: dict = {c: set() for c in range(len(categories))}
        for d, cs in self._doc_cats.items():
            for c in cs:
                self._cat_docs[c].add(d)
        self._cat_docs = {c: frozenset(ds) for c, ds in self._cat_docs.items()}

    def _check_references(self):
        D, F, C = len(self._documents), len(self._features), len(self._categories)
        for d, feats in self._content.items():
            if not 0 <= d < D:
                raise ValidationError(f"content references unknown document {d}")
            for f, n in feats.items():
                if not 0 <= f < F:
                    raise ValidationError(f"content references unknown feature {f}")
                if n <= 0:
                    raise ValidationError(f"non-positive count {n} at ({d},{f})")
        for d, ws in self._weights.items():
            feats = self._content.get(d, {})
            for f, w in ws.items():
                if f not in feats:
                    raise ValidationError(
                        f"weight at ({d},{f}) has no content entry")
                if w != w or w in (float("inf"), float("-inf")):
                    raise ValidationError(f"non-finite weight at ({d},{f})")
        for d, cs in self._doc_cats.items():
            if not 0 <= d < D:
                raise ValidationError(f"classification references unknown document {d}")
            if len(set(cs)) != len(cs):
                raise ValidationError(f"duplicate labels for document {d}")
            for c in cs:
                if not 0 <= c < C:
                    raise ValidationError(f"classification references unknown category {c}")
        if self._domain.local:
            for c, fs in self._domain.valid.items():
                if not 0 <= c < C:
                    raise ValidationError(f"domain references unknown category {c}")
                for f in fs:
                    if not 0 <= f < F:
                        raise ValidationError(f"domain references unknown feature {f}")

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

    def document_features(self, d_id: int) -> dict:
        """Content row for a document: {fID: count}, ascending fID."""
        self._documents.name(d_id)
        return self._content.get(d_id, {})

    def document_weights(self, d_id: int) -> dict:
        """Weight row for a document: {fID: weight}, ascending fID."""
        self._documents.name(d_id)
        return self._weights.get(d_id, {})

    def feature_documents(self, f_id: int) -> dict:
        """Posting list for a feature: {dID: count}, ascending dID."""
        self._features.name(f_id)
        postings = self._postings
        if postings is None:
            postings = {}
            for d, feats in self._content.items():
                for f, n in feats.items():
                    postings.setdefault(f, {})[d] = n
            self._postings = postings
        return postings.get(f_id, {})

    def document_frequency(self, f_id: int) -> int:
        return len(self.feature_documents(f_id))

    def document_categories(self, d_id: int) -> tuple:
        self._documents.name(d_id)
        return self._doc_cats.get(d_id, ())

    def category_documents(self, c_id: int) -> frozenset:
        self._categories.name(c_id)
        return self._cat_docs.get(c_id, frozenset())

    def classification_size(self) -> int:
        """Total number of (document, category) label pairs."""
        return sum(len(cs) for cs in self._doc_cats.values())

    def content_items(self):
        """All (dID, fID, count) triples, sorted by dID then fID."""
        for d, feats in self._content.items():
            for f, n in feats.items():
                yield d, f, n

    def weight_items(self):
        for d, ws in self._weights.items():
            for f, w in ws.items():
                yield d, f, w

    def classification_items(self):
        for d, cs in self._doc_cats.items():
            for c in cs:
                yield d, c

    def arrays(self) -> IndexArrays:
        """The read-only numpy view of content, weights and labels."""
        view = self._arrays
        if view is None:
            view = self._build_arrays()
            self._arrays = view
        return view

    def _build_arrays(self) -> IndexArrays:
        n_docs = self.num_documents
        lengths = np.zeros(n_docs, dtype=np.int64)
        lengths[list(self._content)] = [len(fs)
                                        for fs in self._content.values()]
        nnz = int(lengths.sum())
        indptr = np.zeros(n_docs + 1, dtype=np.int64)
        np.cumsum(lengths, out=indptr[1:])
        content = self._content.values()
        features = np.fromiter(chain.from_iterable(content), dtype=np.int32,
                               count=nnz)
        counts = np.fromiter(chain.from_iterable(fs.values() for fs in content),
                             dtype=np.int64, count=nnz)
        weights = np.fromiter(chain.from_iterable(self._aligned_weights()),
                              dtype=np.float64, count=nnz)
        labels = np.zeros((n_docs, self.num_categories), dtype=bool)
        for d, cs in self._doc_cats.items():
            labels[d, list(cs)] = True
        rows = np.repeat(np.arange(n_docs, dtype=np.intp), lengths)
        for array in (indptr, rows, features, counts, weights, labels):
            array.flags.writeable = False
        return IndexArrays(indptr=indptr, rows=rows, features=features,
                           counts=counts, weights=weights, labels=labels)

    def _aligned_weights(self):
        """Per content row, its weights in the row's order (0.0 if none)."""
        empty: dict = {}
        for d, feats in self._content.items():
            ws = self._weights.get(d, empty)
            if ws.keys() == feats.keys():  # both sorted by feature id
                yield ws.values()
            else:
                yield [ws.get(f, 0.0) for f in feats]

    # -- derived constructors ---------------------------------------------

    def with_weighting(self, weights: dict) -> "Index":
        """New index sharing everything but the weighting relation.

        `weights` is document-major: {dID: {fID: weight}}.  Used by the
        weighting passes; keys must be a subset of the content keys.
        """
        return Index(self._categories, self._features, self._documents,
                     self._content, self._doc_cats, weights, self._domain)

    def with_domain(self, domain: DomainDb) -> "Index":
        return Index(self._categories, self._features, self._documents,
                     self._content, self._doc_cats, self._weights, domain)


def build_index(docs, labels, categories) -> Index:
    """Build an index from raw per-document feature counts and labels.

    docs: list of (docName, [(featureText, count)]) pairs; a third tuple
          element may carry an explicit weight (defaults to the count).
    labels: list of (docName, [categoryLabel]) pairs.
    categories: the category label universe, ids assigned in list order.

    IDs are assigned in first-seen order starting at 0.  Repeated feature
    entries within a document are aggregated.  The weighting relation starts
    out as raw frequencies so an unweighted index is still classifiable.
    """
    cat_db = ConceptDb(categories, kind="category")
    doc_names = []
    seen_docs = set()
    feature_names: list = []
    feature_ids: dict = {}
    content: dict = {}
    weights: dict = {}
    for name, feats in docs:
        _check_name("document", name)
        if name in seen_docs:
            raise ValidationError(f"duplicate docName {name!r}")
        seen_docs.add(name)
        d = len(doc_names)
        doc_names.append(name)
        row: dict = {}
        wrow: dict = {}
        for entry in feats:
            if len(entry) == 3:
                text, count, weight = entry
            else:
                text, count = entry
                weight = None
            if count <= 0:
                raise ValidationError(
                    f"non-positive count {count} for feature {text!r} in {name!r}")
            f = feature_ids.get(text)
            if f is None:
                _check_name("feature", text)
                f = len(feature_names)
                feature_ids[text] = f
                feature_names.append(text)
            row[f] = row.get(f, 0) + count
            w = float(count) if weight is None else float(weight)
            wrow[f] = wrow.get(f, 0.0) + w
        content[d] = row
        weights[d] = wrow
    doc_db = ConceptDb(doc_names, kind="document")
    feat_db = ConceptDb(feature_names, kind="feature")

    classification: dict = {}
    seen_label_docs = set()
    for name, cats in labels:
        if name not in doc_db:
            raise ValidationError(f"labels reference unknown document {name!r}")
        if name in seen_label_docs:
            raise ValidationError(f"duplicate label entry for document {name!r}")
        seen_label_docs.add(name)
        d = doc_db.id(name)
        c_ids = []
        for label in cats:
            if label not in cat_db:
                raise ValidationError(f"unknown category {label!r}")
            c = cat_db.id(label)
            if c not in c_ids:
                c_ids.append(c)
        classification[d] = c_ids
    return Index(cat_db, feat_db, doc_db, content, classification, weights)


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
    is what k-fold splitting relies on).
    """
    if (keep_docs is None) == (keep_features is None):
        raise ValidationError("specify exactly one of keep_docs / keep_features")
    if keep_docs is not None:
        if not keep_docs:
            raise ValidationError("empty document keep set")
        old_ids = sorted(keep_docs)
        doc_db = ConceptDb([index.documents.name(d) for d in old_ids],
                           kind="document")

        def kept_rows(relation):
            return {new: relation[old] for new, old in enumerate(old_ids)
                    if old in relation}
        return Index(index.categories, index.features, doc_db,
                     kept_rows(index._content), kept_rows(index._doc_cats),
                     kept_rows(index._weights), index.domain,
                     _normalized=True)

    if not keep_features:
        raise ValidationError("empty feature keep set")
    old_ids = sorted(keep_features)
    feat_db = ConceptDb([index.features.name(f) for f in old_ids], kind="feature")
    remap = {old: new for new, old in enumerate(old_ids)}

    def kept_columns(relation):
        rows = {}
        for d, row in relation.items():
            kept = {remap[f]: v for f, v in row.items() if f in remap}
            if kept:
                rows[d] = kept
        return rows
    content = kept_columns(index._content)
    weights = kept_columns(index._weights)
    domain = index.domain
    if domain.local:
        domain = DomainDb(local=True, valid={
            c: frozenset(remap[f] for f in fs if f in remap)
            for c, fs in domain.valid.items()
        })
    return Index(index.categories, feat_db, index.documents, content,
                 index._doc_cats, weights, domain, _normalized=True)


# -- serialization ----------------------------------------------------------
#
# An index directory holds UTF-8, LF-terminated, tab-separated files.  The
# layout is stable and sorted so that serializing the same index twice (or a
# deserialized copy of it) produces byte-identical files.

FORMAT_VERSION = 1


def index_file_map(index: Index) -> dict:
    """The serialized form as {filename: bytes}."""
    def tsv(rows):
        return ("".join("\t".join(str(x) for x in row) + "\n" for row in rows)
                ).encode("utf-8")

    files = {
        "meta.tsv": tsv([("format_version", FORMAT_VERSION),
                         ("documents", index.num_documents),
                         ("features", index.num_features),
                         ("categories", index.num_categories)]),
        "categories.tsv": tsv(index.categories),
        "features.tsv": tsv(index.features),
        "documents.tsv": tsv(index.documents),
        "content.tsv": tsv(index.content_items()),
        "classification.tsv": tsv(index.classification_items()),
        "weights.tsv": tsv((d, f, repr(w)) for d, f, w in index.weight_items()),
    }
    if index.domain.local:
        pairs = sorted((f, c) for c, fs in index.domain.valid.items() for f in fs)
        files["domain.tsv"] = tsv(pairs)
    return files


def serialize_index(index: Index, directory) -> None:
    os.makedirs(directory, exist_ok=True)
    for name, data in index_file_map(index).items():
        with open(os.path.join(directory, name), "wb") as fh:
            fh.write(data)


def _read_tsv(directory, name, required=True):
    path = os.path.join(directory, name)
    if not os.path.exists(path):
        if required:
            raise ValidationError(f"missing index file {path}")
        return None
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return [line.rstrip("\n").split("\t") for line in fh if line != "\n" and line]


def deserialize_index(directory) -> Index:
    """Load an index directory written by :func:`serialize_index`."""
    meta = dict((row[0], int(row[1])) for row in _read_tsv(directory, "meta.tsv"))
    if meta.get("format_version") != FORMAT_VERSION:
        raise ValidationError(
            f"unsupported index format_version {meta.get('format_version')}")

    def concept(name, kind, expected):
        rows = _read_tsv(directory, name)
        names = []
        for i, row in enumerate(rows):
            if int(row[0]) != i:
                raise ValidationError(f"{name}: ids not contiguous at line {i + 1}")
            names.append(row[1])
        if len(names) != expected:
            raise ValidationError(f"{name}: expected {expected} entries")
        return ConceptDb(names, kind=kind)

    cat_db = concept("categories.tsv", "category", meta["categories"])
    feat_db = concept("features.tsv", "feature", meta["features"])
    doc_db = concept("documents.tsv", "document", meta["documents"])
    content: dict = {}
    for row in _read_tsv(directory, "content.tsv"):
        d, f, n = int(row[0]), int(row[1]), int(row[2])
        content.setdefault(d, {})[f] = n
    weights: dict = {}
    for row in _read_tsv(directory, "weights.tsv"):
        d, f, w = int(row[0]), int(row[1]), float(row[2])
        weights.setdefault(d, {})[f] = w
    classification: dict = {}
    for row in _read_tsv(directory, "classification.tsv"):
        d, c = int(row[0]), int(row[1])
        classification.setdefault(d, []).append(c)
    domain = GLOBAL_DOMAIN
    domain_rows = _read_tsv(directory, "domain.tsv", required=False)
    if domain_rows is not None:
        valid: dict = {}
        for row in domain_rows:
            f, c = int(row[0]), int(row[1])
            valid.setdefault(c, set()).add(f)
        domain = DomainDb(local=True,
                          valid={c: frozenset(fs) for c, fs in valid.items()})
    return Index(cat_db, feat_db, doc_db, content, classification, weights, domain)
