"""The index TSV codec: the bulk encoder against a row-wise reference, the
round trip over random indexes, and the decoder's rejection of malformed
rows with the offending file and line."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jatecs import (ParseError, ValidationError, deserialize_index,
                    serialize_index, subset_index)
from jatecs.index import (FORMAT_VERSION, ConceptDb, DomainDb, Index,
                          index_file_map)

from conftest import random_corpus


def reference_file_map(index):
    """The row-wise encoder: one str() per cell."""
    def tsv(rows):
        return ("".join("\t".join(str(x) for x in row) + "\n"
                        for row in rows)).encode("utf-8")

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
        pairs = sorted((f, c) for c, fs in index.domain.valid.items()
                       for f in fs)
        files["domain.tsv"] = tsv(pairs)
    return files


NAMES = st.one_of(
    st.text(st.characters(blacklist_characters="\t\n\r",
                          blacklist_categories=("Cs",)),
            min_size=1, max_size=6),
    st.sampled_from(["two words", " lead", "trail ", "naïve", "日本語",
                     "a\x0bb", "x y", "#hash", "0", "-1"]))

WEIGHTS = st.one_of(
    st.sampled_from([-0.0, 0.0, 5e-324, 1e308, -1e308, 0.1, 1.0 / 3.0]),
    st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def small_indexes(draw):
    categories = draw(st.lists(NAMES, min_size=1, max_size=3, unique=True))
    features = draw(st.lists(NAMES, max_size=6, unique=True))
    documents = draw(st.lists(NAMES, max_size=6, unique=True))
    content, weights, classification = {}, {}, {}
    for d in range(len(documents)):
        # some documents get no content at all
        row = {f: draw(st.integers(1, 10**12))
               for f in range(len(features)) if draw(st.booleans())}
        content[d] = row
        weights[d] = {f: draw(WEIGHTS) for f in row if draw(st.booleans())}
        classification[d] = [c for c in range(len(categories))
                             if draw(st.booleans())]
    domain = DomainDb(local=False)
    if draw(st.booleans()):
        domain = DomainDb(local=True, valid={
            c: frozenset(f for f in range(len(features))
                         if draw(st.booleans()))
            for c in range(len(categories))})
    return Index(ConceptDb(categories, kind="category"),
                 ConceptDb(features, kind="feature"),
                 ConceptDb(documents, kind="document"),
                 content, classification, weights, domain)


class TestCodecProperty:
    @given(small_indexes())
    @settings(max_examples=150, deadline=None)
    def test_bulk_encoder_matches_reference(self, index):
        assert index_file_map(index) == reference_file_map(index)

    @given(small_indexes())
    @settings(max_examples=150, deadline=None)
    def test_round_trip_gives_same_files(self, tmp_path_factory, index):
        directory = tmp_path_factory.mktemp("idx")
        serialize_index(index, directory)
        again = deserialize_index(directory)
        assert index_file_map(again) == index_file_map(index)
        for d in range(index.num_documents):
            assert [repr(w) for w in again.document_weights(d).values()] == \
                [repr(w) for w in index.document_weights(d).values()]


def _write(directory, name, text):
    (directory / name).write_bytes(text.encode("utf-8"))


@pytest.fixture
def index_dir(tiny_index, tmp_path):
    """tiny_index on disk: content.tsv rows are 0 0 2 / 0 1 1 / 1 0 1 /
    1 2 1 / 1 3 3."""
    serialize_index(tiny_index, tmp_path / "idx")
    return tmp_path / "idx"


class TestMalformedRows:
    @pytest.mark.parametrize("name, text, line, message", [
        ("content.tsv", "0\t0\t2\n0\t1\n", 2, "expected 3"),
        ("content.tsv", "0\t0\t2\n0\t1\t1\t7\n", 2, "expected 3"),
        ("content.tsv", "0\t0\t2\n\n0\tx\t1\n", 3, "non-numeric"),
        ("content.tsv", "0\t0\t2\n0\t1\t1.5\n", 2, "non-numeric"),
        ("content.tsv", "0\t0\t2\n0\t1\t1\n0\t0\t5\n", 3, "duplicate"),
        ("content.tsv", "0\t0\t2\n9\t1\t1\n", 2, "unknown document"),
        ("content.tsv", "0\t0\t2\n0\t7\t1\n", 2, "unknown feature"),
        ("content.tsv", "0\t0\t2\n0\t1\t0\n", 2, "non-positive"),
        ("weights.tsv", "0\t0\t2.0\n0\t0\t1.0\n", 2, "duplicate"),
        ("weights.tsv", "0\t0\t2.0\n0\t2\t1.0\n", 2, "no content|without"),
        ("weights.tsv", "0\t0\tnan\n", 1, "non-finite"),
        ("weights.tsv", "0\t0\t\n", 1, "non-numeric"),
        ("classification.tsv", "0\t0\n0\t0\n", 2, "duplicate"),
        ("classification.tsv", "0\t5\n", 1, "unknown category"),
        ("documents.tsv", "0\td0\n2\td1\n", 2, "expected id 1"),
    ])
    def test_rejected_with_line(self, index_dir, name, text, line, message):
        _write(index_dir, name, text)
        with pytest.raises(ParseError, match=message) as exc:
            deserialize_index(index_dir)
        assert exc.value.line_no == line
        assert exc.value.path.endswith(name)
        assert f"{name}:{line}:" in str(exc.value)

    def test_invalid_utf8_names_line(self, index_dir):
        (index_dir / "features.tsv").write_bytes(b"0\tcat\n1\t\xff\n")
        with pytest.raises(ParseError) as exc:
            deserialize_index(index_dir)
        assert exc.value.line_no == 2

    def test_unsorted_unique_rows_accepted(self, tiny_index, index_dir):
        rows = (index_dir / "content.tsv").read_text().splitlines()
        _write(index_dir, "content.tsv", "\n".join(reversed(rows)) + "\n")
        again = deserialize_index(index_dir)
        assert index_file_map(again) == index_file_map(tiny_index)

    def test_blank_lines_and_crlf_accepted(self, tiny_index, index_dir):
        text = (index_dir / "content.tsv").read_text()
        _write(index_dir, "content.tsv",
               "\n" + text.replace("\n", "\r\n") + "\n")
        again = deserialize_index(index_dir)
        assert index_file_map(again) == index_file_map(tiny_index)

    def test_empty_relations_load(self, tmp_path):
        index = Index(ConceptDb(["c"], kind="category"),
                      ConceptDb([], kind="feature"),
                      ConceptDb(["d0"], kind="document"), {}, {}, {})
        serialize_index(index, tmp_path / "e")
        again = deserialize_index(tmp_path / "e")
        assert again.num_documents == 1 and again.num_features == 0
        assert index_file_map(again) == index_file_map(index)


class TestConceptDbChecks:
    @pytest.mark.parametrize("names, message", [
        (["a", "", "a"], "empty"),
        (["a", "a", "b\tc"], "duplicate"),
        (["a", "b\nc", "a"], "tab/newline"),
        (["a", "b\rc"], "tab/newline"),
    ])
    def test_first_bad_name_reported(self, names, message):
        with pytest.raises(ValidationError, match=message):
            ConceptDb(names, kind="feature")

    def test_subset_keeps_lookups(self):
        index = random_corpus(3)
        keep = set(range(0, index.num_features, 2))
        sub = subset_index(index, keep_features=keep)
        for new, old in enumerate(sorted(keep)):
            name = index.features.name(old)
            assert sub.features.name(new) == name
            assert sub.features.id(name) == new


class TestMutatedBytes:
    @given(st.integers(min_value=0, max_value=10_000), st.data())
    @settings(max_examples=200, deadline=None)
    def test_load_succeeds_or_raises_parse_or_validation_error(
            self, tmp_path_factory, seed, data):
        index = random_corpus(seed, max_docs=8)
        if seed % 2:
            index = index.with_domain(DomainDb(local=True, valid={
                0: frozenset(range(min(2, index.num_features)))}))
        directory = tmp_path_factory.mktemp("mut")
        serialize_index(index, directory)
        name = data.draw(st.sampled_from(sorted(index_file_map(index))))
        raw = bytearray((directory / name).read_bytes())
        for _ in range(data.draw(st.integers(1, 3))):
            pos = data.draw(st.integers(0, len(raw)))
            byte = data.draw(st.sampled_from(b"0123456789\t\n\r -.ex\xffa"))
            op = data.draw(st.sampled_from(("set", "insert", "delete")))
            if op == "insert" or not raw:
                raw[pos:pos] = bytes([byte])
            elif op == "set":
                raw[min(pos, len(raw) - 1)] = byte
            else:
                del raw[min(pos, len(raw) - 1)]
        (directory / name).write_bytes(bytes(raw))
        try:
            deserialize_index(directory)
        except (ParseError, ValidationError):
            pass
