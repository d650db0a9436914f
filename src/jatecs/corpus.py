"""Corpus format readers and writers: category files, LibSVM, CSV, ARFF.

All readers are deterministic, never reorder documents, and raise
:class:`~jatecs.errors.ParseError` (which carries the line number) on bad
input.  Files are UTF-8; CR-LF is tolerated on read, LF is emitted on write.
A byte sequence that is not UTF-8 is a ParseError on its line, and so is a
label outside the category list a reader is given.  `READERS` maps each
reader name to a function returning documents; `read_corpus` dispatches on it.
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass, field

from .errors import ParseError, ValidationError
from .index import Index, _check_name, build_index
from .textproc import ExtractorConfig, FeatureIds

# counts are stored as int64, so a value whose ceiling is a count must be
# below this
_COUNT_LIMIT = 2**63

# the surrogateescape handler decodes an undecodable byte to U+DC80-U+DCFF
_UNDECODABLE = re.compile("[\udc80-\udcff]")


def numbered_lines(path, newline=""):
    """(line number, line without its terminator) of a UTF-8 text file; an
    undecodable byte is a ParseError on its line."""
    with open(path, encoding="utf-8", errors="surrogateescape",
              newline=newline) as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.isascii() and _UNDECODABLE.search(line):
                raise ParseError(path, line_no, "not UTF-8")
            yield line_no, line.rstrip("\r\n")


@dataclass(frozen=True)
class RawDocument:
    """One corpus document before indexing.

    `features` carries pre-extracted (featureText, count, weight) triples for
    formats whose attributes are already features (ARFF numerics, LibSVM
    pairs); text-based features come from running an extractor over `text`.
    """

    name: str
    text: str
    labels: tuple
    features: tuple = field(default_factory=tuple)


@dataclass(frozen=True)
class SparseInstance:
    """One LibSVM line: label tokens plus (1-based index, value) pairs."""

    labels: tuple
    pairs: tuple


def _check_name_at(path, line_no, kind, name) -> None:
    """An empty name, or one holding a tab or newline, is a ParseError on
    its line."""
    try:
        _check_name(kind, name)
    except ValidationError as exc:
        raise ParseError(path, line_no, str(exc)) from None


def _check_labels(path, line_no, labels, categories) -> None:
    """A label outside `categories`, if given, is a ParseError on its line."""
    if categories is not None:
        for lab in labels:
            if lab not in categories:
                raise ParseError(path, line_no, f"unknown label {lab!r}")


def read_category_file(path) -> list:
    """One category label per non-empty line; `#`-prefixed lines are skipped."""
    labels = []
    seen = set()
    for line_no, line in numbered_lines(path, newline=None):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        _check_name_at(path, line_no, "category", line)
        if line in seen:
            raise ParseError(path, line_no, f"duplicate label {line!r}")
        seen.add(line)
        labels.append(line)
    if not labels:
        raise ParseError(path, 0, "no category labels in file")
    return labels


# -- LibSVM / SvmLight -------------------------------------------------------


def _parse_libsvm_line(path, line_no, raw, categories):
    body = raw
    comment = body.find("#")
    if comment >= 0:
        body = body[:comment]
        if not body.strip():
            return None  # comment-only line
    if body == "":
        return None
    if body[0].isspace():
        label_field, pair_tokens = "", body.split()
    else:
        tokens = body.split()
        label_field, pair_tokens = tokens[0], tokens[1:]
    labels = tuple(t for t in label_field.split(",") if t)
    _check_labels(path, line_no, labels, categories)
    pairs = []
    prev = 0
    for tok in pair_tokens:
        idx_s, sep, val_s = tok.partition(":")
        if not sep:
            raise ParseError(path, line_no, f"missing colon in pair {tok!r}")
        try:
            idx = int(idx_s)
        except ValueError:
            raise ParseError(path, line_no,
                             f"unparsable feature index {idx_s!r}") from None
        try:
            val = float(val_s)
        except ValueError:
            raise ParseError(path, line_no,
                             f"unparsable value {val_s!r}") from None
        if idx < 1:
            raise ParseError(path, line_no, f"feature index {idx} is not >= 1")
        if idx <= prev:
            raise ParseError(path, line_no,
                             f"indices not ascending at {tok!r}")
        if not math.isfinite(val):
            raise ParseError(path, line_no, f"non-finite value {val_s!r}")
        prev = idx
        pairs.append((idx, val))
    return SparseInstance(labels=labels, pairs=tuple(pairs))


def read_libsvm(path, categories=None) -> list:
    """Parse a LibSVM/SvmLight file into instances, in file order.

    The first whitespace-separated field holds comma-joined label tokens
    (the multilabel extension; a single token is the degenerate case); a
    line starting with whitespace has no labels.  `#` starts a comment.
    """
    instances = []
    for line_no, raw in numbered_lines(path):
        if raw == "":
            continue
        inst = _parse_libsvm_line(path, line_no, raw, categories)
        if inst is not None:
            instances.append(inst)
    return instances


def format_libsvm_instance(inst: SparseInstance) -> str:
    label_field = ",".join(inst.labels)
    pair_field = " ".join(f"{i}:{v!r}" for i, v in inst.pairs)
    if pair_field:
        line = f"{label_field} {pair_field}"
    else:
        line = label_field or " "
    return line


def write_libsvm(instances, path) -> None:
    """Write instances so that parsing the file reproduces them exactly."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for inst in instances:
            fh.write(format_libsvm_instance(inst) + "\n")


# -- CSV ----------------------------------------------------------------------


def read_csv(path, separator="\t", categories=None) -> list:
    """Separator-delimited corpus: docName, comma-joined labels, text.

    The text field is the unescaped remainder of the line after the second
    separator, so it may itself contain the separator.  The labels field may
    be empty.  Document names must be unique.
    """
    if len(separator) != 1:
        raise ValidationError("CSV separator must be a single character")
    docs = []
    seen = set()
    for line_no, line in numbered_lines(path):
        if line == "":
            continue
        parts = line.split(separator, 2)
        if len(parts) < 3:
            raise ParseError(path, line_no, "missing text field "
                             f"(expected 3 {separator!r}-separated fields)")
        name, label_field, text = parts
        _check_name_at(path, line_no, "document", name)
        if name in seen:
            raise ParseError(path, line_no, f"duplicate docName {name!r}")
        seen.add(name)
        labels = tuple(t for t in label_field.split(",") if t)
        _check_labels(path, line_no, labels, categories)
        docs.append(RawDocument(name=name, text=text, labels=labels))
    return docs


# -- ARFF ----------------------------------------------------------------------

NUMERIC = "numeric"
STRING = "string"
NOMINAL = "nominal"

_NUMERIC_SYNONYMS = {"numeric", "real", "integer"}


@dataclass(frozen=True)
class ArffAttribute:
    name: str
    type: str                  # NUMERIC, STRING or NOMINAL
    values: tuple = ()         # declared values, NOMINAL only


def _unquote(value: str) -> str:
    v = value.strip()
    if len(v) >= 2 and v[0] == v[-1] and v[0] in "'\"":
        return v[1:-1]
    return v


def _split_quoted(body: str, sep: str) -> list:
    """Split on sep outside single/double quotes."""
    parts = []
    buf = []
    quote = None
    for ch in body:
        if quote:
            buf.append(ch)
            if ch == quote:
                quote = None
        elif ch in "'\"":
            quote = ch
            buf.append(ch)
        elif ch == sep:
            parts.append("".join(buf))
            buf = []
        else:
            buf.append(ch)
    parts.append("".join(buf))
    return parts


def _parse_attribute(path, line_no, rest) -> ArffAttribute:
    rest = rest.strip()
    if rest.startswith(("'", '"')):
        quote = rest[0]
        end = rest.find(quote, 1)
        if end < 0:
            raise ParseError(path, line_no, "unterminated attribute name quote")
        name, type_s = rest[1:end], rest[end + 1:].strip()
    else:
        split = rest.split(None, 1)
        if len(split) != 2:
            raise ParseError(path, line_no, "attribute declaration needs a type")
        name, type_s = split[0], split[1].strip()
    if not name:
        raise ParseError(path, line_no, "empty attribute name")
    if type_s.startswith("{"):
        if not type_s.endswith("}"):
            raise ParseError(path, line_no, "unterminated nominal value list")
        values = tuple(_unquote(v) for v in _split_quoted(type_s[1:-1], ","))
        if any(not v for v in values):
            raise ParseError(path, line_no, "empty nominal value")
        return ArffAttribute(name=name, type=NOMINAL, values=values)
    kind = type_s.lower()
    if kind in _NUMERIC_SYNONYMS:
        return ArffAttribute(name=name, type=NUMERIC)
    if kind == STRING:
        return ArffAttribute(name=name, type=STRING)
    raise ParseError(path, line_no, f"unsupported attribute type {type_s!r}")


def _class_attribute_index(attributes) -> int | None:
    for i, attr in enumerate(attributes):
        if attr.name.lower() == "class":
            return i
    last_nominal = None
    for i, attr in enumerate(attributes):
        if attr.type == NOMINAL:
            last_nominal = i
    return last_nominal


def _row_to_document(path, line_no, attributes, class_idx, values, ordinal):
    """values: {attribute index: raw string value}, missing entries absent."""
    text_parts = []
    features = []
    labels = ()
    for i, attr in enumerate(attributes):
        if i not in values:
            continue
        raw = _unquote(values[i])
        if raw == "?":
            continue
        if i == class_idx:
            if raw not in attr.values:
                raise ParseError(path, line_no,
                                 f"nominal value {raw!r} not in declared set")
            labels = (raw,)
        elif attr.type == STRING:
            if raw:
                text_parts.append(raw)
        elif attr.type == NOMINAL:
            if raw not in attr.values:
                raise ParseError(path, line_no,
                                 f"nominal value {raw!r} not in declared set")
            features.append((f"{attr.name}={raw}", 1, 1.0))
        else:
            try:
                v = float(raw)
            except ValueError:
                raise ParseError(path, line_no,
                                 f"unparsable numeric value {raw!r}") from None
            if v >= _COUNT_LIMIT:
                raise ParseError(path, line_no,
                                 f"numeric value {raw!r} too large for a count")
            if v != 0.0:
                # the value acts as the weight; occurrences are its ceiling
                features.append((attr.name, max(1, math.ceil(v)), v))
    return RawDocument(name=f"doc{ordinal}", text=" ".join(text_parts),
                       labels=labels, features=tuple(features))


def _check_feature_texts(path, attributes, line_nos, class_idx) -> None:
    """A ParseError on the line of the first attribute whose feature text
    (`name` if numeric, `name=value` if nominal and not the class) is also
    an earlier attribute's: build_index would add the two up."""
    owners: dict = {}
    for i, (attr, line_no) in enumerate(zip(attributes, line_nos)):
        if i == class_idx or attr.type == STRING:
            continue
        texts = ([attr.name] if attr.type == NUMERIC
                 else [f"{attr.name}={value}" for value in attr.values])
        for text in texts:
            owner = owners.setdefault(text, attr.name)
            if owner != attr.name:
                raise ParseError(path, line_no, f"attribute {attr.name!r} "
                                 f"yields feature {text!r}, as attribute "
                                 f"{owner!r} does")


def read_arff(path, categories=None):
    """Parse the ARFF subset: header, dense and sparse `{i v}` data rows.

    Returns (attribute schema, documents).  The class attribute is the one
    named `class` if declared, otherwise the last nominal attribute.  String
    attributes concatenate into the document text; numeric attributes become
    pre-extracted features named after the attribute; other nominal
    attributes become `name=value` presence features.  A repeated attribute
    name is a ParseError on its second declaration, as in WEKA, and so is
    an attribute whose feature text an earlier attribute yields.
    """
    attributes: list = []
    line_nos: list = []
    names: set = set()
    docs: list = []
    in_data = False
    class_idx: int | None = None
    ordinal = 0
    for line_no, line in numbered_lines(path):
        line = line.strip()
        if not line or line.startswith("%"):
            continue
        lower = line.lower()
        if not in_data:
            if lower.startswith("@relation"):
                continue
            if lower.startswith("@attribute"):
                attribute = _parse_attribute(path, line_no,
                                             line[len("@attribute"):])
                if attribute.name in names:
                    raise ParseError(path, line_no, f"duplicate attribute "
                                     f"name {attribute.name!r}")
                names.add(attribute.name)
                attributes.append(attribute)
                line_nos.append(line_no)
                continue
            if lower == "@data":
                if not attributes:
                    raise ParseError(path, line_no, "@data before any @attribute")
                class_idx = _class_attribute_index(attributes)
                _check_feature_texts(path, attributes, line_nos, class_idx)
                in_data = True
                continue
            raise ParseError(path, line_no, f"unexpected header line {line!r}")
        if line.startswith("{"):
            if not line.endswith("}"):
                raise ParseError(path, line_no, "unterminated sparse row")
            body = line[1:-1].strip()
            values: dict = {}
            if body:
                for cell in _split_quoted(body, ","):
                    cell = cell.strip()
                    split = cell.split(None, 1)
                    if len(split) != 2:
                        raise ParseError(path, line_no,
                                         f"malformed sparse entry {cell!r}")
                    try:
                        idx = int(split[0])
                    except ValueError:
                        raise ParseError(path, line_no,
                                         f"unparsable sparse index {split[0]!r}"
                                         ) from None
                    if not 0 <= idx < len(attributes):
                        raise ParseError(path, line_no,
                                         f"sparse index {idx} out of range")
                    if idx in values:
                        raise ParseError(path, line_no,
                                         f"duplicate sparse index {idx}")
                    values[idx] = split[1]
            else:
                values = {}
        else:
            cells = _split_quoted(line, ",")
            if len(cells) != len(attributes):
                raise ParseError(path, line_no,
                                 f"data row arity mismatch: {len(cells)} values "
                                 f"for {len(attributes)} attributes")
            values = dict(enumerate(cells))
        docs.append(_row_to_document(path, line_no, attributes, class_idx,
                                     values, ordinal))
        _check_labels(path, line_no, docs[-1].labels, categories)
        ordinal += 1
    if not in_data:
        raise ParseError(path, 0, "no @data section")
    return attributes, docs


# -- glue: raw documents -> index ---------------------------------------------


def instances_to_documents(instances) -> list:
    """LibSVM instances as documents: feature text is the 1-based index.

    A value acts as the weight and its ceiling, at least 1, as the count; a
    value of 2**63 or more is a ValidationError.
    """
    docs = []
    for i, inst in enumerate(instances):
        for idx, v in inst.pairs:
            if v >= _COUNT_LIMIT:
                raise ValidationError(f"document 'doc{i}' feature {idx}: "
                                      f"value {v!r} too large for a count")
        feats = tuple((str(idx), max(1, math.ceil(v)), v)
                      for idx, v in inst.pairs if v != 0.0)
        docs.append(RawDocument(name=f"doc{i}", text="", labels=inst.labels,
                                features=feats))
    return docs


def _extracted(documents, extractor, vocabulary):
    """The (name, extracted features, entries) of each document, extracted
    as build_index draws it; the raw-token maps go when the last is drawn."""
    if isinstance(extractor, ExtractorConfig):
        ids = FeatureIds(vocabulary)
        for doc in documents:
            yield doc.name, extractor.extract(doc.text, ids), doc.features
    else:
        extract = extractor.extract if extractor is not None else lambda _: ()
        for doc in documents:
            yield doc.name, None, [*extract(doc.text), *doc.features]


def documents_to_index(documents, categories, extractor=None) -> Index:
    """Build the index of `documents` with one build_index call, which
    extracts each document as it reads it.  An ExtractorConfig hands in the
    features of a document's text by id, in the build's one vocabulary, and
    its pre-extracted features (ARFF numerics and nominals, LibSVM pairs)
    follow as entries; any other extractor's entries are taken as
    pre-extracted ones, ahead of the document's own.  No entries are kept.
    """
    documents = list(documents)
    labels = [(doc.name, list(doc.labels)) for doc in documents]
    vocabulary: dict = {}
    return build_index(_extracted(documents, extractor, vocabulary), labels,
                       categories, vocabulary)


# reader name -> function(path, categories=, separator=) returning documents
READERS = {
    "libsvm": lambda path, categories, **_: instances_to_documents(
        read_libsvm(path, categories)),
    "csv": read_csv,
    "arff": lambda path, categories, **_: read_arff(path, categories)[1],
}


def read_corpus(reader, path, categories, separator="\t") -> list:
    """The documents of a corpus file in the format READERS names `reader`."""
    if reader not in READERS:
        raise ValidationError(f"unknown reader {reader!r}")
    if not os.path.exists(path):
        raise ParseError(path, 0, "input file not found")
    return READERS[reader](path, categories=categories, separator=separator)
