"""The fact file streamed through ingest one chunk at a time, against the
whole-table run it replaces, on fixed inputs.

``run_pipeline`` reads the fact file as one table per chunk of about
``ingest._CHUNK_CHARS`` characters and passes each through ``join_tables``,
``discretize`` and ``combine_dims``. After a chunk fails, the later chunks
are still read, joined and binned, and the error raised at the end of the
file is the one a whole-table run raises first. These tests shrink the
chunks to a few characters, so that small inputs cross many chunk
boundaries, and hold each streamed run to a whole-table run of the same
input, whose one chunk holds the whole file: exit code, error line and
every byte written to ``--out``. Most place their rows so that the errors,
line ends or chunk boundaries they check fall in known chunks. Random star
schemas are streamed in ``test_differential.py``, whose one property test
holds both runs to the reference pipeline.
"""

import tracemalloc
import weakref
from pathlib import Path
from unittest.mock import patch

import pytest

from starminer import ingest, pipeline
from starminer.datamodel import AttributeSpec
from starminer.errors import DataError
from starminer.synth import DIMENSION_TABLES, SynthSpec, generate_sales
from test_differential import cli_run


def run(argv: list[str], chunk: int, whole: bool = False) -> tuple[int, str, dict[str, bytes]]:
    """Exit code, stderr and the bytes of each ``--out`` file of one CLI run
    that streams its fact file in chunks of ``chunk`` characters. With
    ``whole``, one chunk holds the whole file, so the stages run over the
    whole table at once, as they did before the fact file streamed."""
    with patch.object(ingest, "_CHUNK_CHARS", 1 << 30 if whole else chunk):
        return cli_run(argv)


def streamed_and_whole(argv: list[str], chunk: int) -> tuple[int, str, dict[str, bytes]]:
    """The streamed run, after asserting that the whole-table run into a
    sibling ``--out`` gives the same exit code, error line and bytes."""
    i = argv.index("--out") + 1
    whole = run([*argv[:i], argv[i] + "-whole", *argv[i + 1:]], chunk, whole=True)
    streamed = run(argv, chunk)
    assert streamed == whole
    return streamed


def test_a_generated_star_streams_to_the_same_bytes(tmp_path):
    data = tmp_path / "data"
    generate_sales(SynthSpec(seed=11, n_fact_rows=3000), data)
    joins = (("customer_id", "customer"), ("product_id", "product"), ("time_id", "times"), ("channel_id", "channel"))
    argv = (
        ["--fact", str(data / "fact.csv")]
        + [f"--dim={dim}={data / dim}.csv" for dim in DIMENSION_TABLES]
        + [f"--join={key}:{dim}:{key}" for key, dim in joins]
        + ["--bins=year=y1998:1998:1999,y1999:1999:2000,y2000on:2000:2010",
           "--filter=year=y1998", "--filter=year=y2000on",
           "--key-dim", "tid", "--combine-dims", "age_group,product_name",
           "--minsup", "0.01", "--minconf", "0.3", "--algorithm", "both",
           "--repeatable-dims", "product_name", "--out", str(tmp_path / "out")]
    )
    code, err, files = streamed_and_whole(argv, 512)
    assert (code, err) == (0, "")
    assert files["rules.jsonl"] and len(files["registry.csv"].splitlines()) > 100


# --- errors whose order crosses chunk boundaries ------------------------------

ROWS = 40  # fact rows of about 11 characters: a 64-character chunk holds 6 or 7


def good_rows() -> list[str]:
    return [f"t{i:02},c{i % 2},5,5" for i in range(1, ROWS + 1)]


def chunk_of(fact: Path, row: int) -> int:
    """The index of the 64-character chunk that holds data row ``row`` (1-based)."""
    seen = 0
    with patch.object(ingest, "_CHUNK_CHARS", 64), fact.open(encoding="utf-8-sig") as fh:
        texts = list(ingest._read_chunks(fh))
    for i, text in enumerate(texts):
        seen += len(text.splitlines()) - (i == 0)  # the first chunk starts with the header
        if seen >= row:
            return i
    raise AssertionError(f"no row {row}")


def star(tmp: Path, rows: list[str], *, dim: str = "cust_id,age\nc0,Young\nc1,Old\n", bins: str = "v",
         combine: str = "age", ends: list[str] | None = None, head: str = "") -> list[str]:
    """Write a fact table ``tid,cust,v,w`` and a customer dimension; the
    CLI arguments that mine them with ``v`` (or each of ``bins``) binned."""
    ends = ends or ["\n"] * (len(rows) + 1)
    (tmp / "fact.csv").write_text(head + "".join(map(str.__add__, ["tid,cust,v,w", *rows], ends)), encoding="utf-8",
                                  newline="")
    (tmp / "customer.csv").write_text(dim, encoding="utf-8")
    return [
        "--fact", str(tmp / "fact.csv"), "--dim", f"customer={tmp / 'customer.csv'}",
        "--join", "cust:customer:cust_id",
        *(f"--bins={attr}=lo:0:10" for attr in bins.split(",")),
        "--key-dim", "tid", "--combine-dims", combine,
        "--minsup", "0.1", "--minconf", "0.5", "--out", str(tmp / "out"),
    ]


def test_a_fact_load_error_in_a_late_chunk_wins_over_an_early_orphan(tmp_path):
    rows = good_rows()
    rows[1] = "t02,cX,5,5"
    rows[29] = "t30,c1,5"
    argv = star(tmp_path, rows)
    assert chunk_of(tmp_path / "fact.csv", 2) == 0 and chunk_of(tmp_path / "fact.csv", 30) >= 2
    code, err, _ = streamed_and_whole(argv, 64)
    assert (code, err) == (2, f"starminer: data error: {tmp_path / 'fact.csv'} row 30: expected 4 values, got 3\n")


def test_a_late_orphan_wins_over_an_early_value_outside_every_bin(tmp_path):
    rows = good_rows()
    rows[1] = "t02,c0,99,5"
    rows[29] = "t30,cX,5,5"
    argv = star(tmp_path, rows, combine="age,v")
    assert chunk_of(tmp_path / "fact.csv", 2) == 0 and chunk_of(tmp_path / "fact.csv", 30) >= 2
    code, err, _ = streamed_and_whole(argv, 64)
    assert (code, err) == (2, "starminer: data error: fact keys without a dimension match: 'cX' (dimension 'customer')\n")


def test_the_first_binned_column_is_checked_over_every_chunk_before_the_next(tmp_path):
    rows = good_rows()
    rows[1] = "t02,c0,5,99"
    rows[29] = "t30,c0,99,5"
    argv = star(tmp_path, rows, bins="v,w", combine="v,w")
    code, err, _ = streamed_and_whole(argv, 64)
    # a whole-table run bins v in every row before it bins w
    assert (code, err) == (2, "starminer: data error: row 30: value 99.0 of attribute 'v' falls outside every declared bin\n")


def test_a_fact_load_error_in_a_late_chunk_wins_over_a_dimension_load_error(tmp_path):
    rows = good_rows()
    rows[29] = 't30,c1,"5",5'
    argv = star(tmp_path, rows, dim='cust_id,age\nc0,"Young"\nc1,Old\n')
    code, err, _ = streamed_and_whole(argv, 64)
    assert (code, err) == (2, f"starminer: data error: {tmp_path / 'fact.csv'} row 30: quoted values are not "
                              "supported; this format forbids delimiters inside values\n")
    # with a good fact table, the dimension's error is the one reported
    code, err, _ = streamed_and_whole(star(tmp_path, good_rows(), dim='cust_id,age\nc0,"Young"\nc1,Old\n'), 64)
    assert (code, err) == (2, f"starminer: data error: {tmp_path / 'customer.csv'} row 1: quoted values are not "
                              "supported; this format forbids delimiters inside values\n")


def test_orphans_are_listed_in_fact_row_order_across_chunks_up_to_the_cap(tmp_path):
    rows = good_rows()
    orphans = [f"x{39 - i}" for i in range(0, ROWS, 2)][:25] + ["x39"]  # 20 distinct, then repeats
    for i in range(0, ROWS, 2):
        rows[i] = f"t{i + 1:02},x{39 - i},5,5"
    rows[39] = "t40,x39,5,5"
    argv = star(tmp_path, rows)
    code, err, _ = streamed_and_whole(argv, 64)
    distinct = list(dict.fromkeys(orphans))
    assert len(distinct) == 20 and code == 2
    shown = ", ".join(f"{k!r} (dimension 'customer')" for k in distinct)
    assert err == f"starminer: data error: fact keys without a dimension match: {shown}\n"

    # more than 20 distinct orphans: the first 20 by fact row, then a count
    rows = [f"t{i:02},y{i},5,5" for i in range(1, ROWS + 1)]
    code, err, _ = streamed_and_whole(star(tmp_path, rows), 64)
    shown = ", ".join(f"'y{i}' (dimension 'customer')" for i in range(1, 21))
    assert (code, err) == (2, f"starminer: data error: fact keys without a dimension match: {shown} and 20 more\n")


def test_a_header_only_fact_file_and_an_empty_one(tmp_path):
    code, err, files = streamed_and_whole(star(tmp_path, []), 64)
    assert (code, err) == (0, "")
    assert files["itemsets.txt"] == b"" and b'"groups": 0' in files["stats.json"]
    # the dimensions load even when the fact file holds no row
    code, err, _ = streamed_and_whole(star(tmp_path, [], dim='cust_id,age\nc0,"Young"\n'), 64)
    assert (code, err) == (2, f"starminer: data error: {tmp_path / 'customer.csv'} row 1: quoted values are not "
                              "supported; this format forbids delimiters inside values\n")

    (tmp_path / "empty.csv").write_text("", encoding="utf-8")
    argv = star(tmp_path, good_rows())
    argv[1] = str(tmp_path / "empty.csv")
    code, err, _ = streamed_and_whole(argv, 64)
    assert (code, err) == (2, f"starminer: data error: {tmp_path / 'empty.csv'}: empty file, expected a header row\n")


@pytest.mark.parametrize("end", ["\x0b", "\r\n", "\r", "\x1c", "\u2028"])
def test_line_ends_beside_each_chunk_boundary_and_a_bom(tmp_path, end):
    # the other line end, in turn, ends each of the first rows and the header,
    # so it falls before, on and after the chunks' boundaries
    for at in range(16):
        ends = ["\n"] * (ROWS + 1)
        ends[at] = end
        code, err, files = streamed_and_whole(star(tmp_path, good_rows(), ends=ends, head="\ufeff"), 64)
        assert (code, err) == (0, ""), at
        assert b'"general_rows": 40' in files["stats.json"]


def test_each_dimension_is_indexed_once_however_many_chunks_it_joins(tmp_path):
    argv = star(tmp_path, good_rows())
    assert chunk_of(tmp_path / "fact.csv", ROWS) >= 4
    with patch.object(ingest, "_key_index", wraps=ingest._key_index) as key_index:
        code, err, files = run(argv, 64)
    assert (code, err) == (0, "") and key_index.call_count == 1
    assert files == run(argv, 64, whole=True)[2]


# --- the chunk reader ---------------------------------------------------------

def test_fact_tables_cut_the_file_into_its_rows_in_order(tmp_path):
    fact = tmp_path / "fact.csv"
    fact.write_bytes("\ufefftid,v\x0bt0,0\r\n".encode() + b"".join(b"t%d,%d\n" % (i, i) for i in range(1, 30)))
    schema = (AttributeSpec("tid"), AttributeSpec("v", bins=(("lo", 0, 100),)))
    with patch.object(ingest, "_CHUNK_CHARS", 16):
        tables = list(pipeline._fact_tables(fact, schema))
    assert len(tables) > 3 and all(table.name == "fact" and table.n_rows for table in tables)
    assert [row for table in tables for row in table.rows] == [(f"t{i}", float(i)) for i in range(30)]
    fact.write_bytes(b"tid,v")
    assert [table.rows for table in pipeline._fact_tables(fact, schema)] == [()]
    fact.write_bytes(b"")
    with pytest.raises(DataError, match=f"^{fact}: empty file, expected a header row$"):
        list(pipeline._fact_tables(fact, schema))


def test_a_bad_last_row_is_found_in_its_chunk_without_opening_the_file_again(tmp_path):
    rows = good_rows()
    rows[-1] = 't40,c1,"5",5'
    star(tmp_path, rows)
    fact = tmp_path / "fact.csv"
    assert chunk_of(fact, ROWS) >= 4
    schema = (AttributeSpec("tid"), AttributeSpec("cust"), AttributeSpec("v", bins=(("lo", 0, 10),)),
              AttributeSpec("w"))
    for load in (lambda: ingest.load_csv(fact, schema), lambda: list(pipeline._fact_tables(fact, schema))):
        with patch.object(ingest, "_open_text", wraps=ingest._open_text) as opened:
            with patch.object(ingest, "_CHUNK_CHARS", 64), pytest.raises(DataError) as error:
                load()
        assert str(error.value) == (f"{fact} row 40: quoted values are not supported; this format forbids "
                                    "delimiters inside values")
        assert opened.call_count == 1


def test_the_chunk_reader_holds_nothing_of_a_chunk_when_it_reads_the_next(tmp_path):
    # every row has a new tid, so a pool kept from one chunk to the next
    # would grow with the file, as would a chunk's lines or cells kept by
    # the reader while it reads the next one
    fact = tmp_path / "fact.csv"
    fact.write_text("tid,v\n" + "".join(f"t{i:06},{i % 7}\n" for i in range(40_000)), encoding="utf-8")
    schema = (AttributeSpec("tid"), AttributeSpec("v", bins=(("lo", 0, 100),)))
    chunks, first, most = 0, None, 0
    with patch.object(ingest, "_CHUNK_CHARS", 1 << 13):
        tracemalloc.start()
        try:
            for table in pipeline._fact_tables(fact, schema):
                ref = weakref.ref(table)
                del table
                assert ref() is None, f"the reader holds chunk {chunks}'s table"
                chunks += 1
                # what is alive as the reader goes on to the next chunk,
                # beyond what was alive once it had read the first one
                alive = tracemalloc.get_traced_memory()[0]
                first = alive if first is None else first
                most = max(most, alive - first)
        finally:
            tracemalloc.stop()
    assert chunks > 30
    assert most < 1 << 13, most
