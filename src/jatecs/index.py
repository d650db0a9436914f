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

import io
import os
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import ParseError, ValidationError

#: dense IDs are 32-bit non-negative ints; documented capacity limit
MAX_ID = 2**31 - 1

_FORBIDDEN_NAME_CHARS = ("\t", "\n", "\r")


def _check_name(kind: str, name: str) -> None:
    if not name:
        raise ValidationError(f"empty {kind} name")
    if any(ch in name for ch in _FORBIDDEN_NAME_CHARS):
        raise ValidationError(f"{kind} name {name!r} contains tab/newline")


class ConceptDb:
    """Ordered table of (id, name) pairs with contiguous ids 0..n-1.

    Names are checked in bulk; `_checked` skips that for names taken from a
    table that was checked already (subset_index).
    """

    def __init__(self, names, kind="entry", _checked=False):
        self.kind = kind
        self._names = list(names)
        self._ids = dict(zip(self._names, range(len(self._names))))
        if not _checked:
            joined = "".join(self._names)
            if (len(self._ids) != len(self._names) or "" in self._ids
                    or any(ch in joined for ch in _FORBIDDEN_NAME_CHARS)):
                self._raise_first_bad_name()

    def _raise_first_bad_name(self):
        seen = set()
        for name in self._names:
            _check_name(self.kind, name)
            if name in seen:
                raise ValidationError(f"duplicate {self.kind} name {name!r}")
            seen.add(name)

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
            # relations that are already sorted, checked and without empty
            # rows: cut from a checked index by subset_index (sharing its row
            # objects) or decoded and checked by deserialize_index
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
                           kind="document", _checked=True)

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
    feat_db = ConceptDb([index.features.name(f) for f in old_ids],
                        kind="feature", _checked=True)
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
# deserialized copy of it) produces byte-identical files.  Each file is
# encoded with one join and decoded with one read and, for the numeric
# relations, one numpy parse of all its rows.  Blank lines are skipped.  A
# malformed row (wrong field count, non-numeric field, unknown id,
# duplicate key) is a ParseError naming its line; the line is looked up only
# once a file has failed to decode.

FORMAT_VERSION = 1

_CONTENT_ROW = np.dtype([("d", np.int64), ("f", np.int64), ("n", np.int64)])
_WEIGHT_ROW = np.dtype([("d", np.int64), ("f", np.int64), ("w", np.float64)])
_PAIR_ROW = np.dtype([("a", np.int64), ("b", np.int64)])


def index_file_map(index: Index) -> dict:
    """The serialized form as {filename: bytes}."""
    def concepts(db):
        return "".join(f"{i}\t{name}\n" for i, name in db)

    meta = (("format_version", FORMAT_VERSION),
            ("documents", index.num_documents),
            ("features", index.num_features),
            ("categories", index.num_categories))
    files = {
        "meta.tsv": "".join(f"{key}\t{value}\n" for key, value in meta),
        "categories.tsv": concepts(index.categories),
        "features.tsv": concepts(index.features),
        "documents.tsv": concepts(index.documents),
        "content.tsv": "".join(f"{d}\t{f}\t{n}\n"
                               for d, row in index._content.items()
                               for f, n in row.items()),
        "classification.tsv": "".join(f"{d}\t{c}\n"
                                      for d, cs in index._doc_cats.items()
                                      for c in cs),
        "weights.tsv": "".join(f"{d}\t{f}\t{w!r}\n"
                               for d, row in index._weights.items()
                               for f, w in row.items()),
    }
    if index.domain.local:
        pairs = sorted((f, c) for c, fs in index.domain.valid.items() for f in fs)
        files["domain.tsv"] = "".join(f"{f}\t{c}\n" for f, c in pairs)
    return {name: text.encode("utf-8") for name, text in files.items()}


def serialize_index(index: Index, directory) -> None:
    os.makedirs(directory, exist_ok=True)
    for name, data in index_file_map(index).items():
        with open(os.path.join(directory, name), "wb") as fh:
            fh.write(data)


class _TsvFile:
    """The bytes of one index file, and the line numbers of its rows."""

    def __init__(self, directory, name):
        self.path = os.path.join(directory, name)
        if not os.path.exists(self.path):
            raise ValidationError(f"missing index file {self.path}")
        with open(self.path, "rb") as fh:
            self.data = fh.read()

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
        """[line number, id text, name] of every non-blank line."""
        try:
            text = self.data.decode("utf-8")
        except UnicodeDecodeError as exc:
            line_no = self.data.count(b"\n", 0, exc.start) + 1
            raise ParseError(self.path, line_no, "not UTF-8") from None
        return [[line_no, *line.partition("\t")[::2]]
                for line_no, line in enumerate(text.split("\n"), start=1)
                if line]

    def columns(self, row_type: np.dtype) -> np.ndarray:
        """All rows of a numeric file parsed at once, one field per column."""
        if not self.data.strip():
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

    def check(self, bad: np.ndarray, message: str) -> None:
        """A ParseError at the first row where `bad` holds."""
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


def _grouped(groups, *columns):
    """(group, [column slices]) of rows sorted by group, as Python objects."""
    cuts = (np.flatnonzero(groups[1:] != groups[:-1]) + 1).tolist()
    starts, ends = [0, *cuts], [*cuts, len(groups)]
    lists = [column.tolist() for column in columns]
    names = groups.tolist()
    for start, end in zip(starts, ends):
        if start < end:
            yield names[start], [values[start:end] for values in lists]


def _read_meta(directory) -> dict:
    tsv = _TsvFile(directory, "meta.tsv")
    meta = {}
    for line_no, key, value in tsv.text_rows():
        try:
            meta[key] = int(value)
        except ValueError:
            raise ParseError(tsv.path, line_no, f"non-integer {key}") from None
    if meta.get("format_version") != FORMAT_VERSION:
        raise ValidationError(
            f"unsupported index format_version {meta.get('format_version')}")
    for key in ("documents", "features", "categories"):
        if key not in meta:
            raise ParseError(tsv.path, 0, f"no {key} count")
    return meta


def _read_concepts(directory, name, kind, expected) -> ConceptDb:
    tsv = _TsvFile(directory, name)
    rows = tsv.text_rows()
    if [row[1] for row in rows] != [str(i) for i in range(len(rows))]:
        for i, (line_no, id_text, _) in enumerate(rows):
            if id_text != str(i):
                raise ParseError(tsv.path, line_no, f"expected id {i}")
    if len(rows) != expected:
        raise ValidationError(f"{name}: expected {expected} entries")
    return ConceptDb([row[2] for row in rows], kind=kind)


def deserialize_index(directory) -> Index:
    """Load an index directory written by :func:`serialize_index`."""
    meta = _read_meta(directory)
    cat_db = _read_concepts(directory, "categories.tsv", "category",
                            meta["categories"])
    feat_db = _read_concepts(directory, "features.tsv", "feature",
                             meta["features"])
    doc_db = _read_concepts(directory, "documents.tsv", "document",
                            meta["documents"])
    n_docs, n_feats, n_cats = len(doc_db), len(feat_db), len(cat_db)

    tsv = _TsvFile(directory, "content.tsv")
    rows = tsv.columns(_CONTENT_ROW)
    tsv.check_ids(rows["d"], n_docs, "document")
    tsv.check_ids(rows["f"], n_feats, "feature")
    tsv.check(rows["n"] <= 0, "non-positive count")
    rows = tsv.sorted_rows(rows, "d", "f", n_feats, "content")
    content = {d: dict(zip(fs, ns))
               for d, (fs, ns) in _grouped(rows["d"], rows["f"], rows["n"])}
    content_keys = rows["d"] * n_feats + rows["f"]

    tsv = _TsvFile(directory, "weights.tsv")
    rows = tsv.columns(_WEIGHT_ROW)
    tsv.check_ids(rows["d"], n_docs, "document")
    tsv.check_ids(rows["f"], n_feats, "feature")
    tsv.check(~np.isfinite(rows["w"]), "non-finite weight")
    keys = rows["d"] * n_feats + rows["f"]
    known = np.append(content_keys, -1)  # -1 answers keys past the end
    tsv.check(known[np.searchsorted(content_keys, keys)] != keys,
              "weight without a content entry")
    rows = tsv.sorted_rows(rows, "d", "f", n_feats, "weight")
    # weight rows take their feature ids from the content rows' id objects,
    # so the two relations share them
    content_ids = np.array(list(chain.from_iterable(content.values())),
                           dtype=object)
    shared = content_ids[np.searchsorted(content_keys,
                                         rows["d"] * n_feats + rows["f"])]
    weights = {d: dict(zip(fs, ws))
               for d, (fs, ws) in _grouped(rows["d"], shared, rows["w"])}

    tsv = _TsvFile(directory, "classification.tsv")
    rows = tsv.columns(_PAIR_ROW)
    tsv.check_ids(rows["a"], n_docs, "document")
    tsv.check_ids(rows["b"], n_cats, "category")
    rows = tsv.sorted_rows(rows, "a", "b", n_cats, "classification")
    classification = {d: tuple(cs)
                      for d, (cs,) in _grouped(rows["a"], rows["b"])}

    domain = GLOBAL_DOMAIN
    if os.path.exists(os.path.join(directory, "domain.tsv")):
        tsv = _TsvFile(directory, "domain.tsv")
        rows = tsv.columns(_PAIR_ROW)
        tsv.check_ids(rows["a"], n_feats, "feature")
        tsv.check_ids(rows["b"], n_cats, "category")
        rows = tsv.sorted_rows(rows, "b", "a", n_feats, "domain")
        domain = DomainDb(local=True, valid={
            c: frozenset(fs) for c, (fs,) in _grouped(rows["b"], rows["a"])})
    return Index(cat_db, feat_db, doc_db, content, classification, weights,
                 domain, _normalized=True)
