"""A negative nonzeros count is rejected for every projection kind."""

import pytest

from jatecs import ValidationError, build_projection
from jatecs.cli import EXIT_DATA, EXIT_OK, main
from jatecs.projection import KINDS

from conftest import make_corpus


@pytest.mark.parametrize("kind", KINDS)
def test_negative_nonzeros_raises(kind):
    index = make_corpus([("d0", {"a": 1, "b": 2}, ["c"])], ["c"])
    with pytest.raises(ValidationError, match="nonzeros"):
        build_projection(index, kind, dim=8, nonzeros=-7)


@pytest.mark.parametrize("kind", ["ri", "lri", "achlioptas"])
def test_cli_negative_nonzeros_exits_2(kind, tmp_path, capsys):
    corpus = tmp_path / "corpus.csv"
    corpus.write_text("d0\tham\tquick brown fox\nd1\tspam\tcheap pills\n",
                      encoding="utf-8")
    cats = tmp_path / "cats.txt"
    cats.write_text("ham\nspam\n", encoding="utf-8")
    index = str(tmp_path / "idx")
    assert main(["index", "--input", str(corpus), "--categories", str(cats),
                 "--out", index]) == EXIT_OK
    capsys.readouterr()
    out = tmp_path / "proj"
    assert main(["project", "--index", index, "--kind", kind, "--dim", "8",
                 "--nonzeros", "-7", "--out", str(out)]) == EXIT_DATA
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err
    assert not out.exists()
