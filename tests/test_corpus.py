"""Parser golden files and round trips for the corpus readers/writers."""

import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jatecs import (ParseError, SparseInstance, ValidationError, read_arff,
                    read_category_file, read_csv, read_libsvm, write_libsvm)
from jatecs.corpus import NOMINAL, NUMERIC, STRING, instances_to_documents
from jatecs.rng import SplitMix64


def _write(tmp_path, name, content):
    path = tmp_path / name
    path.write_text(content, encoding="utf-8")
    return path


class TestCategoryFile:
    def test_basic(self, tmp_path):
        path = _write(tmp_path, "cats.txt", "sports\npolitics\n")
        assert read_category_file(path) == ["sports", "politics"]

    def test_comment_and_blank_lines(self, tmp_path):
        path = _write(tmp_path, "cats.txt",
                      "# taxonomy\nsports\n\n# more\npolitics\n")
        assert read_category_file(path) == ["sports", "politics"]

    def test_duplicate_label(self, tmp_path):
        path = _write(tmp_path, "cats.txt", "sports\nsports\n")
        with pytest.raises(ParseError, match="duplicate label"):
            read_category_file(path)

    def test_empty_file(self, tmp_path):
        path = _write(tmp_path, "cats.txt", "# nothing here\n")
        with pytest.raises(ParseError, match="no category labels"):
            read_category_file(path)


class TestLibsvmGolden:
    def test_single_label_pairs(self, tmp_path):
        # golden 1
        path = _write(tmp_path, "g1.svm", "1 3:2 7:1.5\n")
        assert read_libsvm(path) == [
            SparseInstance(labels=("1",), pairs=((3, 2.0), (7, 1.5)))]

    def test_multilabel_and_comment(self, tmp_path):
        # golden 2: comma labels, trailing comment, +1 token
        path = _write(tmp_path, "g2.svm",
                      "+1 1:1 # trailing comment\n"
                      "a,b 2:0.5 9:3\n"
                      "# full comment line\n")
        assert read_libsvm(path) == [
            SparseInstance(labels=("+1",), pairs=((1, 1.0),)),
            SparseInstance(labels=("a", "b"), pairs=((2, 0.5), (9, 3.0)))]

    def test_unlabeled_and_empty_instances(self, tmp_path):
        # golden 3: leading space means no labels; lone label means no pairs
        path = _write(tmp_path, "g3.svm", " 4:2\n2\n \n")
        assert read_libsvm(path) == [
            SparseInstance(labels=(), pairs=((4, 2.0),)),
            SparseInstance(labels=("2",), pairs=()),
            SparseInstance(labels=(), pairs=())]

    def test_crlf_tolerated(self, tmp_path):
        path = tmp_path / "g4.svm"
        path.write_bytes(b"1 2:1\r\n3 4:1\r\n")
        assert [i.labels for i in read_libsvm(path)] == [("1",), ("3",)]

    def test_indices_not_ascending(self, tmp_path):
        path = _write(tmp_path, "bad1.svm", "1 7:1 3:2\n")
        with pytest.raises(ParseError, match=r"bad1\.svm:1.*not ascending"):
            read_libsvm(path)

    def test_missing_colon(self, tmp_path):
        path = _write(tmp_path, "bad2.svm", "ok 1:1\n1 77\n")
        with pytest.raises(ParseError, match=r"bad2\.svm:2.*missing colon"):
            read_libsvm(path)

    def test_unparsable_value(self, tmp_path):
        path = _write(tmp_path, "bad3.svm", "1 3:abc\n")
        with pytest.raises(ParseError, match="unparsable value"):
            read_libsvm(path)

    def test_unknown_label_against_categories(self, tmp_path):
        path = _write(tmp_path, "bad4.svm", "nosuch 1:1\n")
        with pytest.raises(ParseError, match="unknown label"):
            read_libsvm(path, categories=["a", "b"])

    def test_instances_to_documents(self, tmp_path):
        path = _write(tmp_path, "g5.svm", "a 2:2.5 3:1\n")
        docs = instances_to_documents(read_libsvm(path))
        assert docs[0].name == "doc0"
        assert docs[0].labels == ("a",)
        # value is the weight, its ceiling the occurrence count
        assert docs[0].features == (("2", 3, 2.5), ("3", 1, 1.0))


def _random_instance(rng: SplitMix64) -> SparseInstance:
    label_pool = ["1", "-1", "+1", "2", "alpha", "b"]
    labels = tuple(label_pool[rng.next_below(len(label_pool))]
                   for _ in range(rng.next_below(3)))
    labels = tuple(dict.fromkeys(labels))
    idx = 0
    pairs = []
    for _ in range(rng.next_below(8)):
        idx += 1 + rng.next_below(50)
        value = (rng.next_float() - 0.5) * 10 ** rng.next_below(4)
        if rng.next_below(4) == 0:
            value = float(rng.next_below(100))
        pairs.append((idx, value))
    return SparseInstance(labels=labels, pairs=tuple(pairs))


class TestLibsvmRoundTrip:
    def test_write_parse_identity_100_random(self, tmp_path):
        rng = SplitMix64(42)
        instances = [_random_instance(rng) for _ in range(100)]
        path = tmp_path / "rt.svm"
        write_libsvm(instances, path)
        assert read_libsvm(path) == instances

    def test_empty_instance_list(self, tmp_path):
        path = tmp_path / "empty.svm"
        write_libsvm([], path)
        assert path.read_bytes() == b""
        assert read_libsvm(path) == []

    def test_value_one_reparses_exactly(self, tmp_path):
        path = tmp_path / "one.svm"
        write_libsvm([SparseInstance(labels=("1",), pairs=((1, 1.0),))], path)
        assert read_libsvm(path)[0].pairs == ((1, 1.0),)

    @given(st.lists(
        st.tuples(
            st.lists(st.sampled_from(["1", "-1", "x", "y2"]), max_size=2,
                     unique=True),
            st.lists(st.floats(allow_nan=False, allow_infinity=False,
                               width=64),
                     max_size=5)),
        max_size=10))
    @settings(max_examples=50, deadline=None)
    def test_round_trip_property(self, specs):
        import tempfile
        instances = []
        for labels, values in specs:
            pairs = tuple((i + 1, v) for i, v in enumerate(values))
            instances.append(SparseInstance(labels=tuple(labels), pairs=pairs))
        with tempfile.TemporaryDirectory() as tmp:
            path = f"{tmp}/prop.svm"
            write_libsvm(instances, path)
            assert read_libsvm(path) == instances


class TestCsvGolden:
    def test_tab_separated(self, tmp_path):
        # golden 6
        path = _write(tmp_path, "g6.csv", "d0\tsports\tthe cat sat\n")
        docs = read_csv(path, separator="\t", categories=["sports"])
        assert len(docs) == 1
        assert docs[0].name == "d0"
        assert docs[0].labels == ("sports",)
        assert docs[0].text == "the cat sat"

    def test_empty_labels_and_multilabel(self, tmp_path):
        # golden 7
        path = _write(tmp_path, "g7.csv",
                      "d1\t\tsome text\nd2\ta,b\tmore text\n")
        docs = read_csv(path, separator="\t", categories=["a", "b"])
        assert docs[0].labels == ()
        assert docs[1].labels == ("a", "b")

    def test_text_contains_separator(self, tmp_path):
        # golden 8: everything after the second separator is text
        path = _write(tmp_path, "g8.csv", "d0,a,text, with, commas\n")
        docs = read_csv(path, separator=",", categories=["a"])
        assert docs[0].text == "text, with, commas"

    def test_missing_text_field(self, tmp_path):
        path = _write(tmp_path, "bad5.csv", "d2\tsports\n")
        with pytest.raises(ParseError, match=r"bad5\.csv:1.*missing text"):
            read_csv(path, separator="\t", categories=["sports"])

    def test_unknown_label(self, tmp_path):
        path = _write(tmp_path, "bad6.csv", "d0\tnosuch\ttext\n")
        with pytest.raises(ParseError, match="unknown label"):
            read_csv(path, separator="\t", categories=["sports"])

    def test_document_order_preserved(self, tmp_path):
        lines = "".join(f"d{i}\t\ttext {i}\n" for i in range(20))
        path = _write(tmp_path, "order.csv", lines)
        docs = read_csv(path, separator="\t", categories=[])
        assert [d.name for d in docs] == [f"d{i}" for i in range(20)]


ARFF_DENSE = """\
% toy mail corpus
@RELATION mail
@ATTRIBUTE subject STRING
@ATTRIBUTE wordcount NUMERIC
@ATTRIBUTE class {spam, ham}
@DATA
'cheap pills now', 3, spam
'meeting agenda', 0, ham
"""

ARFF_SPARSE = """\
@relation counts
@attribute alpha numeric
@attribute beta numeric
@attribute gamma numeric
@attribute delta numeric
@attribute class {yes, no}
@data
{0 2, 3 1, 4 yes}
{}
{1 5}
"""


class TestArffGolden:
    def test_dense_rows(self, tmp_path):
        # golden 9
        schema, docs = read_arff(_write(tmp_path, "g9.arff", ARFF_DENSE))
        assert [a.type for a in schema] == [STRING, NUMERIC, NOMINAL]
        assert docs[0].labels == ("spam",)
        assert docs[0].text == "cheap pills now"
        assert docs[0].features == (("wordcount", 3, 3.0),)
        assert docs[1].labels == ("ham",)
        assert docs[1].features == ()  # numeric zero is absence

    def test_sparse_rows(self, tmp_path):
        # golden 10: 0-based indices, omitted entries absent
        _, docs = read_arff(_write(tmp_path, "g10.arff", ARFF_SPARSE))
        assert docs[0].features == (("alpha", 2, 2.0), ("delta", 1, 1.0))
        assert docs[0].labels == ("yes",)
        assert docs[1].features == ()
        assert docs[1].labels == ()
        assert docs[2].features == (("beta", 5, 5.0),)

    def test_comment_lines_skipped(self, tmp_path):
        # golden 11
        content = "% header comment\n@relation r\n@attribute c {a}\n" \
                  "@data\n% mid comment\na\n"
        _, docs = read_arff(_write(tmp_path, "g11.arff", content))
        assert len(docs) == 1
        assert docs[0].labels == ("a",)

    def test_class_attribute_by_name_beats_last_nominal(self, tmp_path):
        # golden 12: explicit `class` attribute wins over a later nominal
        content = ("@relation r\n@attribute class {x, y}\n"
                   "@attribute color {red, blue}\n@data\nx, red\n")
        _, docs = read_arff(_write(tmp_path, "g12.arff", content))
        assert docs[0].labels == ("x",)
        assert docs[0].features == (("color=red", 1, 1.0),)

    def test_missing_values_skipped(self, tmp_path):
        content = ("@relation r\n@attribute n numeric\n@attribute c {a, b}\n"
                   "@data\n?, ?\n")
        _, docs = read_arff(_write(tmp_path, "miss.arff", content))
        assert docs[0].features == ()
        assert docs[0].labels == ()

    def test_arity_mismatch(self, tmp_path):
        content = "@relation r\n@attribute a numeric\n@attribute c {x}\n" \
                  "@data\n1, x, extra\n"
        path = _write(tmp_path, "bad7.arff", content)
        with pytest.raises(ParseError, match=r"bad7\.arff:5.*arity mismatch"):
            read_arff(path)

    def test_undeclared_nominal_value(self, tmp_path):
        content = "@relation r\n@attribute c {x, y}\n@data\nz\n"
        with pytest.raises(ParseError, match="not in declared set"):
            read_arff(_write(tmp_path, "bad8.arff", content))

    def test_sparse_index_out_of_range(self, tmp_path):
        content = "@relation r\n@attribute a numeric\n@data\n{5 1}\n"
        with pytest.raises(ParseError, match="out of range"):
            read_arff(_write(tmp_path, "bad9.arff", content))

    def test_deterministic_reparse(self, tmp_path):
        path = _write(tmp_path, "same.arff", ARFF_SPARSE)
        assert read_arff(path) == read_arff(path)


def _fragments(*pieces):
    """Byte strings built from format fragments, raw bytes and bad UTF-8."""
    pieces = [p.encode("utf-8") for p in pieces] + [
        b"\xff", b"\xfe", b"\xc3", b"\xed\xa0\x80", b"\xc3\xa9", b"\r",
        b"\n", b"\t", b" ", b",", b":"]
    return st.one_of(st.binary(max_size=120),
                     st.lists(st.one_of(st.sampled_from(pieces),
                                        st.binary(max_size=4)),
                              max_size=30).map(b"".join))


def _load_or_reject(data, reader):
    """Read `data` from a file: it loads, or is rejected as bad data."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input")
        with open(path, "wb") as fh:
            fh.write(data)
        try:
            reader(path)
        except (ParseError, ValidationError):
            pass


class TestArbitraryBytes:
    """Any bytes either load or raise ParseError/ValidationError."""

    @given(_fragments("d0", "c0", "c1", "text"))
    @settings(max_examples=150, deadline=None)
    def test_csv(self, data):
        _load_or_reject(data, lambda p: read_csv(p, categories={"c0", "c1"}))

    @given(_fragments("1", "-1", "c0", "3:0.5", "1:", "#", "0:1", "2:nan",
                      "1e309", "x"))
    @settings(max_examples=150, deadline=None)
    def test_libsvm(self, data):
        _load_or_reject(data, read_libsvm)

    @given(_fragments("@relation r\n", "@attribute a numeric\n",
                      "@attribute class {p,n}\n", "@attribute s string\n",
                      "@data\n", "{0 1, 1 p}", "'q'", "1.5", "p", "?", "{",
                      "}", "%"))
    @settings(max_examples=150, deadline=None)
    def test_arff(self, data):
        _load_or_reject(data, read_arff)

    def test_csv_bad_byte_names_its_line(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_bytes(b"d0\tc0\tok\nd1\tc0\tbad \xff\xfe\n")
        with pytest.raises(ParseError) as exc:
            read_csv(path)
        assert exc.value.line_no == 2
