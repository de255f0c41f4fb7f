"""Each ingest fast path against the row-by-row loop it replaced.

The oracles below are the previous implementations: the per-cell
``_check_cell`` scan that every table build once ran (now only the public
constructor runs it), the per-line CSV parser, the per-row bin search, the
per-row orphan scan and product join, the closure-filtered ``combine_dims``
loop and the set-per-key ``group_by_key``.
Each test asserts that the fast path accepts the same inputs, builds the same
values and raises the same ``DataError`` text.
"""

import math
import tempfile
import tracemalloc
import weakref
from array import array
from itertools import product
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from starminer import ingest, pipeline
from starminer.datamodel import (
    AttributeSpec,
    Bin,
    RelationalTable,
    _check_cell,
)
from starminer.errors import DataError, SchemaError
from starminer.ingest import discretize, join_tables, load_csv
from starminer.mapcode import MapCodeRegistry, MdTable, combine_dims
from starminer.mining import (
    TransactionView,
    apriori_baseline,
    brute_force_frequent,
    build_item_extents,
    fi_gen,
    group_by_key,
)

HUGE = 10**400  # a finite int too large to convert to a float


class Label(str):
    pass


class Count(int):
    pass


def outcome(fn):
    """The value fn returns, or the text of the DataError it raises."""
    try:
        return ("ok", fn())
    except DataError as exc:
        return ("error", str(exc))


def assert_checked_rebuild_equal(table):
    """A stage builds its table unchecked; the checking constructor must
    accept the same columns and build an equal table."""
    assert RelationalTable(table.name, table.schema, columns=table.columns) == table


# --- oracles ----------------------------------------------------------------

def scan_cells(name, schema, rows):
    width = len(schema)
    for i, row in enumerate(rows, start=1):
        if len(row) != width:
            raise DataError(f"table {name!r} row {i}: expected {width} values, got {len(row)}")
        for spec, value in zip(schema, row):
            _check_cell(spec, value, i)
    return tuple(tuple(r) for r in rows)


def scan_load_csv(path, schema):
    path = Path(path)
    lines = path.read_text(encoding="utf-8-sig").splitlines()
    if not lines:
        raise DataError(f"{path}: empty file, expected a header row")
    expected = [s.name for s in schema]
    header = lines[0].split(",")
    if header != expected:
        raise DataError(f"{path}: header mismatch: expected {expected}, got {header}")
    rows = []
    for i, line in enumerate(lines[1:], start=1):
        if '"' in line:
            raise DataError(
                f"{path} row {i}: quoted values are not supported; this format "
                "forbids delimiters inside values"
            )
        cells = line.split(",")
        if len(cells) != len(schema):
            raise DataError(f"{path} row {i}: expected {len(schema)} values, got {len(cells)}")
        parsed = []
        for spec, cell in zip(schema, cells):
            if spec.is_categorical():
                parsed.append(cell)
            else:
                try:
                    value = float(cell)
                except ValueError:
                    raise DataError(
                        f"{path} row {i}: cannot parse {cell!r} as a number for "
                        f"attribute {spec.name!r}"
                    ) from None
                if not math.isfinite(value):
                    raise DataError(
                        f"{path} row {i}: attribute {spec.name!r} has non-finite value {value!r}"
                    )
                parsed.append(value)
        rows.append(tuple(parsed))
    return scan_cells(path.stem, schema, rows)


def scan_discretize(table, attr):
    pos = table.index_of(attr)
    spec = table.schema[pos]
    out_rows = []
    for i, row in enumerate(table.rows, start=1):
        value = row[pos]
        label = None
        for b in spec.bins:
            if b.contains(float(value)):
                label = b.label
                break
        if label is None:
            raise DataError(
                f"row {i}: value {value!r} of attribute {attr!r} falls outside "
                "every declared bin"
            )
        out_rows.append(row[:pos] + (label,) + row[pos + 1 :])
    return tuple(out_rows)


def scan_join(fact, links, projected):
    link_info = []
    for fact_key, dim, dim_key in links:
        index = {}
        for r, row in enumerate(dim.rows):
            index.setdefault(row[dim.index_of(dim_key)], []).append(r)
        link_info.append((fact.index_of(fact_key), dim, index))
    orphans, seen = [], set()
    for row in fact.rows:
        for fact_pos, dim, index in link_info:
            key = row[fact_pos]
            if key not in index and (dim.name, key) not in seen:
                seen.add((dim.name, key))
                orphans.append((dim.name, key))
    if orphans:
        shown = ", ".join(f"{k!r} (dimension {d!r})" for d, k in orphans[:20])
        more = "" if len(orphans) <= 20 else f" and {len(orphans) - 20} more"
        raise DataError(f"fact keys without a dimension match: {shown}{more}")
    links = {dim.name: li for li, (_, dim, _) in enumerate(link_info)}
    out = []
    for row in fact.rows:
        for combo in product(*[index[row[p]] for p, _, index in link_info]):
            values = []
            for table_name, attr in projected:
                if table_name == fact.name:
                    values.append(row[fact.index_of(attr)])
                else:
                    li = links[table_name]
                    dim = link_info[li][1]
                    values.append(dim.rows[combo[li]][dim.index_of(attr)])
            out.append(tuple(values))
    return tuple(out)


def scan_combine_dims(general, key_dim, selected, filters):
    key_pos = general.index_of(key_dim)
    sel_pos = [general.index_of(d) for d in selected]
    filt = [(general.index_of(d), frozenset(v)) for d, v in (filters or {}).items()]
    registry = MapCodeRegistry(selected)
    rows, seen = [], set()
    for row in general.rows:
        if not all(row[pos] in allowed for pos, allowed in filt):
            continue
        pair = (row[key_pos], registry.encode(tuple(row[p] for p in sel_pos)))
        if pair not in seen:
            seen.add(pair)
            rows.append(pair)
    return registry.csv_lines(), tuple(rows)


def scan_group_by_key(md):
    order, codes_for = [], {}
    for key, code in zip(md.keys, md.codes):
        if key not in codes_for:
            order.append(key)
            codes_for[key] = set()
        codes_for[key].add(code)
    groups = tuple((k, frozenset(codes_for[k])) for k in order)
    return groups, tuple(sorted(set().union(*codes_for.values())))


# --- table validation in the public constructor ------------------------------

BINS = (Bin("lo", -1e300, 0.0), Bin("hi", 0.0, 1e300))
KIND_SPEC = {
    "cat": lambda i: AttributeSpec(name=f"a{i}"),
    "num": lambda i: AttributeSpec(name=f"a{i}", bins=BINS),
}
VALID = {
    "cat": st.one_of(st.text(max_size=3), st.builds(Label, st.text(max_size=3))),
    "num": st.one_of(
        st.integers(-5, 5),
        st.floats(allow_nan=False, allow_infinity=False),
        st.sampled_from([HUGE, -HUGE, -0.0, Count(3)]),
    ),
}
ANY = st.one_of(
    st.booleans(),
    st.none(),
    st.text(max_size=2),
    st.builds(Label, st.text(max_size=2)),
    st.integers(),
    st.floats(),
    st.sampled_from([HUGE, math.nan, math.inf, -math.inf, -0.0, Count(2), b"x"]),
)


@st.composite
def tables(draw):
    kinds = draw(st.lists(st.sampled_from(["cat", "num"]), max_size=3))
    n_rows = draw(st.integers(0, 6))
    rows = [[draw(VALID[k]) for k in kinds] for _ in range(n_rows)]
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        row = rows[draw(st.integers(0, n_rows - 1))]
        action = draw(st.sampled_from(["cell", "drop", "extra"]))
        if action == "cell" and row:
            row[draw(st.integers(0, len(row) - 1))] = draw(ANY)
        elif action == "drop" and row:
            row.pop()
        elif action == "extra":
            row.append(draw(ANY))
    schema = tuple(KIND_SPEC[k](i) for i, k in enumerate(kinds))
    return schema, [tuple(r) for r in rows]


def build(schema, rows):
    return RelationalTable(name="t", schema=schema, rows=rows).rows


NUM = KIND_SPEC["num"](0)
CAT = KIND_SPEC["cat"](1)


@settings(max_examples=400, deadline=None)
@given(tables())
@example(((), []))
@example(((NUM,), [(True,)]))
@example(((CAT,), [(Label("x"),), ("y",)]))
@example(((NUM,), [(1.0,), (math.nan,)]))
@example(((NUM,), [(math.inf,)]))
@example(((NUM,), [(-math.inf,)]))
@example(((NUM,), [(-0.0,), (2,)]))
@example(((NUM,), [(HUGE,), (1.5,)]))
@example(((NUM,), [(HUGE,), (math.nan,)]))
@example(((NUM, CAT), [(1.0, "a"), (2.0,)]))
@example(((NUM, CAT), [(1.0, "a", "b")]))
@example(((NUM, CAT), [(1.0, 5), (math.nan, "a")]))
def test_bulk_validation_matches_cell_scan(table):
    schema, rows = table
    expected = outcome(lambda: scan_cells("t", schema, rows))
    assert outcome(lambda: build(schema, rows)) == expected
    if schema and all(len(row) == len(schema) for row in rows):
        columns = list(zip(*rows)) if rows else [()] * len(schema)
        built = outcome(lambda: RelationalTable(name="t", schema=schema, columns=columns).rows)
        assert built == expected


# --- load_csv ---------------------------------------------------------------

LOAD_SCHEMA = (
    AttributeSpec(name="tid"),
    AttributeSpec(name="qty", bins=BINS),
    AttributeSpec(name="city"),
)
GOOD_LINES = st.builds(
    "{},{},{}".format,
    st.sampled_from(["t1", "t2"]),
    st.sampled_from(["1", "2.5", "-0", "1e3"]),
    st.sampled_from(["Melb", "Perth"]),
)
BAD_LINES = st.sampled_from(
    ["", "t1,1", "t1,1,Melb,x", "t1,x,Melb", "t1,,Melb", 't1,1,"Melb"', '"t1",1',
     "t1,nan,Melb", "t1,inf,Melb", "t1,-Infinity,Melb", "t1,1e999,Melb"]
)


TERMINATORS = ["\n", "\r\n", "\r", "\x0b", "\x1c", "\u2028"]
LF = ["\n"] * 6


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    body=st.lists(st.one_of(GOOD_LINES, BAD_LINES), max_size=6),
    ends=st.lists(st.sampled_from(TERMINATORS), min_size=6, max_size=6),
    last_end=st.sampled_from(["", *TERMINATORS]),
    bom=st.booleans(),
    chunk=st.integers(1, 8),
    read=st.lists(st.integers(0, 2), min_size=1, max_size=3, unique=True).map(sorted),
)
# a bad number or width, or a quote, in a column that is not read
@example(body=["t1,x,Melb", 't1,1,"Melb"'], ends=LF, last_end="\n", bom=False, chunk=8, read=[0, 2])
@example(body=['t1,1,"Melb"', "t1,x,Melb"], ends=LF, last_end="\n", bom=False, chunk=8, read=[1])
@example(body=["t1,1,Melb", "t1,1", 't1,1,"Melb"'], ends=LF, last_end="", bom=False, chunk=8, read=[0])
@example(body=["t1,1,Melb", "t2,2.5,Perth", "t1,x,Melb", "t1,1"], ends=LF, last_end="\n", bom=True, chunk=2,
         read=[0, 1, 2])
# the header ends at a \x0b: the rest of its physical line is a data row
@example(body=["t1,1,Melb"], ends=["\x0b", *LF[1:]], last_end="\n", bom=False, chunk=8, read=[0, 1, 2])
@example(body=["t1,1,Melb"], ends=["\x0b", *LF[1:]], last_end="", bom=True, chunk=1, read=[2])
# a trailing blank line
@example(body=["t1,1,Melb", ""], ends=LF, last_end="\n", bom=False, chunk=8, read=[0, 1, 2])
@example(body=["t1,1,Melb", ""], ends=["\r\n"] * 6, last_end="\r\n", bom=False, chunk=3, read=[1, 2])
# a quote on the first, then on the last, of a chunk's lines (chunk 2 runs
# from the first data row to the next \n)
@example(body=['t1,1,"Melb"', "t1,1,Melb"], ends=["\n", "\x0b", *LF[2:]], last_end="\n", bom=False, chunk=8,
         read=[0, 1, 2])
@example(body=["t1,1,Melb", 't1,1,"Melb"'], ends=["\n", "\x0b", *LF[2:]], last_end="\n", bom=False, chunk=8,
         read=[0])
# a bad row in the second chunk, after a first chunk that holds a good row
@example(body=["t1,1,Melb", "t1,1"], ends=["\x0b", *LF[1:]], last_end="\n", bom=False, chunk=8, read=[2])
@example(body=["t1,1,Melb", "t1,x,Melb"], ends=["\x0b", *LF[1:]], last_end="\n", bom=False, chunk=8, read=[0, 2])
@example(body=["t1,1,Melb", "t1,x,Melb"], ends=["\x0b", *LF[1:]], last_end="\n", bom=True, chunk=8, read=[0, 1, 2])
def test_load_csv_matches_line_parser(body, ends, last_end, bom, chunk, read):
    # chunks of 1 to 8 characters (each read on to the next "\n") put chunk
    # boundaries between every pair of physical lines. The fact file's
    # per-chunk tables of the columns ``read``, in order, hold those columns
    # of load_csv's rows, or raise the whole file's first error, with its row
    # number in the file: a column that is not read is still checked.
    lines = ["tid,qty,city", *body]
    text = "\ufeff" * bom + "".join(map(str.__add__, lines, [*ends[: len(lines) - 1], last_end]))
    with tempfile.TemporaryDirectory() as tmp, patch.object(ingest, "_CHUNK_CHARS", chunk):
        path = Path(tmp) / "fact.csv"
        path.write_bytes(text.encode("utf-8"))
        fast = outcome(lambda: load_csv(path, LOAD_SCHEMA))
        slow = outcome(lambda: scan_load_csv(path, LOAD_SCHEMA))
        by_chunks = outcome(lambda: list(pipeline._fact_tables(path, LOAD_SCHEMA, read)))
    if fast[0] == "ok":
        assert_checked_rebuild_equal(fast[1])
        fast = ("ok", fast[1].rows)
    if by_chunks[0] == "ok":
        for table in by_chunks[1]:
            assert_checked_rebuild_equal(table)
            # exactly the read columns, in file order
            assert table.name == "fact" and table.schema == tuple(LOAD_SCHEMA[j] for j in read)
        by_chunks = ("ok", tuple(row for table in by_chunks[1] for row in table.rows))
    assert fast == slow
    assert by_chunks == (("ok", tuple(tuple(row[j] for j in read) for row in fast[1])) if fast[0] == "ok" else fast)


def test_text_that_is_not_utf8_is_a_data_error_naming_the_file(tmp_path):
    path = tmp_path / "fact.csv"
    path.write_bytes(b"tid,qty,city\n" + b"t1,1,Melb\n" * 5000 + b"\xff\n")
    with pytest.raises(DataError, match=f"^{path}: not valid UTF-8"):
        load_csv(path, LOAD_SCHEMA)
    with pytest.raises(DataError, match=f"^{path}: not valid UTF-8"):
        list(pipeline._fact_tables(path, LOAD_SCHEMA, [0, 1, 2]))


def test_load_csv_holds_about_one_chunk_beyond_its_table(tmp_path):
    # tracemalloc counts live Python objects only. It cannot see allocator
    # fragmentation: freed line strings scattered among the kept distinct
    # values stay resident. That is why _CHUNK_CHARS is kept small, and this
    # bound does not show it.
    path = tmp_path / "fact.csv"
    path.write_text(
        "tid,qty,city\n" + "".join(f"t{i % 50},{i % 7}.5,{('Melb', 'Perth')[i % 2]}\n" for i in range(50_000)),
        encoding="utf-8",
    )
    size = path.stat().st_size
    with patch.object(ingest, "_CHUNK_CHARS", 1 << 14):
        tracemalloc.start()
        try:
            table = load_csv(path, LOAD_SCHEMA)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert table.n_rows == 50_000
    assert peak - retained < 2 * size, (peak - retained) / size


@pytest.mark.parametrize("first_bad", ["tid,qty", "t1,x,Melb", "t1,1", 't1,1,"Melb"'])
def test_text_that_is_not_utf8_wins_over_an_earlier_bad_line(tmp_path, first_bad):
    # as in a whole-file read, the decoding error is reported wherever it is,
    # here well past the buffer of text the bad line was decoded from
    path = tmp_path / "fact.csv"
    head = [first_bad] if first_bad == "tid,qty" else ["tid,qty,city", first_bad]
    path.write_bytes("\n".join(head).encode() + b"\n" + b"t1,1,Melb\n" * 5000 + b"\xff\n")
    with patch.object(ingest, "_CHUNK_CHARS", 16), pytest.raises(DataError, match="not valid UTF-8"):
        load_csv(path, LOAD_SCHEMA)


def one_object_per_value(column):
    return len(set(map(id, column))) == len(set(column))


def test_columns_hold_one_object_per_distinct_value(tmp_path):
    fact = tmp_path / "fact.csv"
    fact.write_text(
        "tid,qty,city\n" + "".join(f"t{i % 7},{i % 3}.5,{('Melb', 'Perth')[i % 2]}\n" for i in range(50)),
        encoding="utf-8",
    )
    dim = tmp_path / "city.csv"
    dim.write_text("city,state\nMelb,VIC\nPerth,WA\n", encoding="utf-8")
    with patch.object(ingest, "_CHUNK_CHARS", 64):
        loaded = load_csv(fact, LOAD_SCHEMA)
        city = load_csv(dim, (AttributeSpec("city"), AttributeSpec("state")))
    general = join_tables(loaded, [("city", city, "city")], [("fact", "tid"), ("fact", "qty"), ("city", "state")])
    binned = discretize(general, "qty")
    for table in (loaded, general, binned):
        assert table.n_rows == 50
        assert all(map(one_object_per_value, table.columns))


# --- discretize -------------------------------------------------------------

YEAR_BINS = (Bin("a", 0.0, 9.5), Bin("b", 9.5, 20.0), Bin("c", 30.0, 40.0))


@settings(max_examples=200, deadline=None)
@given(
    values=st.lists(
        st.one_of(
            st.integers(-5, 45),
            st.floats(-5, 45),
            st.sampled_from([9, 9.5, 9.7, 10, 10.0, -0.0, -0.5, 19.999999999999996, 20]),
        ),
        max_size=12,
    ),
    pos=st.integers(0, 2),
)
@example(values=[1, 25, 45], pos=0)
@example(values=[5, 5.0, 20.0, 20], pos=2)
@example(values=[9, 9.7, 0, -0.5], pos=1)
def test_discretize_matches_bin_search(values, pos):
    schema = [AttributeSpec(name="k"), AttributeSpec(name="m")]
    schema.insert(pos, AttributeSpec(name="year", bins=YEAR_BINS))
    rows = []
    for i, v in enumerate(values):
        row = [f"k{i % 3}", "m"]
        row.insert(pos, v)
        rows.append(tuple(row))
    table = RelationalTable(name="general", schema=tuple(schema), rows=tuple(rows))
    fast = outcome(lambda: discretize(table, "year"))
    slow = outcome(lambda: scan_discretize(table, "year"))
    if fast[0] == "ok":
        assert_checked_rebuild_equal(fast[1])
        assert fast[1].rows == slow[1]
        assert fast[1].spec_of("year").is_categorical()
    else:
        assert fast == slow


# --- join_tables ------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(
    fact_keys=st.lists(st.tuples(st.sampled_from("abcd"), st.sampled_from("xyz")), max_size=8),
    p_keys=st.lists(st.sampled_from("abc"), max_size=4),
    q_keys=st.lists(st.sampled_from("xy"), max_size=3),
    projection=st.permutations([("fact", "tid"), ("p", "pv"), ("q", "qv"), ("fact", "pk")]),
    width=st.integers(1, 4),
)
@example(fact_keys=[("a", "x")], p_keys=["a", "a"], q_keys=["x"], projection=[("p", "pv")], width=1)
@example(fact_keys=[("d", "z"), ("d", "x")], p_keys=["a"], q_keys=["x"], projection=[("fact", "tid")], width=1)
@example(  # every dimension key unique: the one-to-one mapping path
    fact_keys=[("a", "x"), ("b", "y"), ("c", "x"), ("a", "y")], p_keys=["c", "a", "b"], q_keys=["y", "x"],
    projection=[("q", "qv"), ("fact", "tid"), ("p", "pv"), ("fact", "pk")], width=4,
)
def test_join_matches_product_loop(fact_keys, p_keys, q_keys, projection, width):
    def table(name, names, rows):
        return RelationalTable(name=name, schema=tuple(AttributeSpec(n) for n in names), rows=tuple(rows))

    fact = table("fact", ["tid", "pk", "qk"], [(f"t{i}", p, q) for i, (p, q) in enumerate(fact_keys)])
    p = table("p", ["pk", "pv"], [(k, f"pv{i}") for i, k in enumerate(p_keys)])
    q = table("q", ["qk", "qv"], [(k, f"qv{i}") for i, k in enumerate(q_keys)])
    links = [("pk", p, "pk"), ("qk", q, "qk")]
    fast = outcome(lambda: join_tables(fact, links, projection[:width]))
    if fast[0] == "ok":
        assert_checked_rebuild_equal(fast[1])
        fast = ("ok", fast[1].rows)
    assert fast == outcome(lambda: scan_join(fact, links, projection[:width]))


# --- combine_dims and group_by_key ------------------------------------------

@settings(max_examples=200, deadline=None)
@given(
    rows=st.lists(st.tuples(*[st.sampled_from(["u", "v", "w"])] * 4), max_size=15),
    n_selected=st.integers(1, 3),
    filters=st.dictionaries(
        st.sampled_from(["B", "D"]), st.sets(st.sampled_from(["u", "v"]), min_size=1), max_size=2
    ),
)
def test_combine_dims_and_group_by_key_match_loops(rows, n_selected, filters):
    schema = tuple(AttributeSpec(n) for n in "KBCD")
    general = RelationalTable(name="general", schema=schema, rows=tuple(rows))
    selected = ("B", "C", "D")[:n_selected]
    registry, md = combine_dims(general, "K", selected, filters=filters or None)
    lines, md_rows = scan_combine_dims(general, "K", selected, filters)
    assert (registry.csv_lines(), md.rows) == (lines, md_rows)

    view = group_by_key([MdTable(keys=md.keys + md.keys[:3], codes=md.codes + md.codes[:3])])
    assert (view.groups, view.code_universe) == scan_group_by_key(md)


@settings(max_examples=200, deadline=None)
@given(
    rows=st.lists(st.tuples(*[st.sampled_from(["u", "v", "w"])] * 4), max_size=15),
    cuts=st.lists(st.integers(0, 15), max_size=4),
)
def test_combine_dims_over_chunks_with_one_registry_codes_as_over_the_whole(rows, cuts):
    schema = tuple(AttributeSpec(n) for n in "KBCD")
    general = RelationalTable(name="general", schema=schema, rows=tuple(rows))
    registry, md = combine_dims(general, "K", ("B", "C"), filters={"D": {"u", "v"}})
    bounds = sorted({0, len(rows), *(c for c in cuts if c <= len(rows))})
    shared = MapCodeRegistry(("B", "C"))
    encoded = []
    shared.encode = lambda combo: encoded.append(combo) or MapCodeRegistry.encode(shared, combo)
    parts = [
        combine_dims(RelationalTable(name="general", schema=schema, rows=tuple(rows[a:b])), "K", ("B", "C"),
                     filters={"D": {"u", "v"}}, registry=shared)
        for a, b in zip(bounds, bounds[1:])
    ]
    assert all(r is shared for r, _ in parts)
    assert shared.csv_lines() == registry.csv_lines()
    # encode sees each combination once, when it is new, in first-encounter order
    assert encoded == [tuple(v for _, v in registry.decode(code)) for code in registry.codes]
    assert sum((part.codes for _, part in parts), ()) == md.codes
    with pytest.raises(SchemaError, match="not the selected dimensions"):
        combine_dims(general, "K", ("B",), registry=shared)


@st.composite
def shuffled_pairs(draw):
    """(key, code) pairs over a few keys and codes, some repeated, shuffled."""
    pairs = draw(st.lists(st.tuples(st.sampled_from(["k1", "k2", "k3", "k4", "k5", "k6"]),
                                    st.sampled_from(["0001", "0002", "0003", "0004", "0005"])),
                          max_size=20))
    if pairs:
        pairs += draw(st.lists(st.sampled_from(pairs), max_size=8))
    return draw(st.permutations(pairs))


def supports(itemsets):
    return sorted((fi.items, fi.support_count, fi.support) for fi in itemsets)


@settings(max_examples=300, deadline=None)
@given(
    pairs=shuffled_pairs(),
    cuts=st.lists(st.integers(0, 28), max_size=4),
    empty_keys=st.lists(st.sampled_from(["e1", "e2", "e3"]), unique=True),
    minsup=st.sampled_from(["0.1", "0.25", "0.5", "1"]),
)
@example(pairs=[("k1", "0001"), ("k1", "0001")], cuts=[], empty_keys=["e1"], minsup="0.5")
@example(pairs=[("k2", "0001"), ("k1", "0002"), ("k2", "0002")], cuts=[1, 2], empty_keys=[], minsup="0.5")
@example(pairs=[("k1", "0001"), ("k2", "0001"), ("k1", "0002"), ("k1", "0001")], cuts=[], empty_keys=[],
         minsup="0.5")
def test_group_by_key_by_code_matches_set_per_key_loop(pairs, cuts, empty_keys, minsup):
    md = MdTable(keys=[k for k, _ in pairs], codes=[c for _, c in pairs])
    groups, universe = scan_group_by_key(md)
    # the pairs cut into tables at the cuts group as one table of every pair does
    bounds = sorted({0, len(pairs), *(c for c in cuts if c <= len(pairs))})
    view = group_by_key(MdTable(keys=md.keys[a:b], codes=md.codes[a:b]) for a, b in zip(bounds, bounds[1:]))
    assert all(type(members) is array and members.typecode == "i" for members in view.members.values())
    checked = TransactionView(keys=view.keys, members=view.members)
    assert (view.keys, view.code_universe) == (checked.keys, checked.code_universe)
    # groups in first-occurrence order
    assert view.keys == tuple(dict.fromkeys(md.keys))
    assert (view.groups, view.code_universe, view.n_groups) == (groups, universe, len(groups))
    assert (groups, universe) == (group_by_key([md]).groups, universe_of(md))

    extents = build_item_extents(view)
    assert tuple(extents) == universe
    for code, mask in extents.items():
        carriers = [j for j, (_, codes) in enumerate(groups) if code in codes]
        assert mask == sum(1 << j for j in carriers)

    # the miners read list members as they read the arrays
    lists = TransactionView(keys=view.keys, members={c: list(members) for c, members in view.members.items()})
    assert build_item_extents(lists) == extents
    assert lists.group_sets == view.group_sets
    for miner in (fi_gen, apriori_baseline):
        (found, stats), (expected, expected_stats) = miner(view, minsup), miner(lists, minsup)
        assert found == expected and stats.counters() == expected_stats.counters()
    assert brute_force_frequent(view, minsup) == brute_force_frequent(lists, minsup)

    with_empty = groups + tuple((key, frozenset()) for key in empty_keys)
    round_trip = TransactionView.from_groups(with_empty)
    assert round_trip.groups == with_empty
    assert round_trip.n_groups == len(with_empty)
    assert TransactionView.from_groups(groups) == view

    for v in (view, round_trip):
        oracle = supports(brute_force_frequent(v, minsup))
        assert supports(fi_gen(v, minsup)[0]) == oracle
        assert supports(apriori_baseline(v, minsup)[0]) == oracle


def test_group_by_key_releases_each_table_before_it_draws_the_one_after():
    refs = []

    def tables():
        for i in range(6):
            if i >= 2:
                assert refs[i - 2]() is None, f"table {i - 2} is alive when table {i} is drawn"
            md = MdTable(keys=(f"k{i}", f"k{i + 1}", f"k{i}"), codes=("0001", f"{i:04d}", "0009"))
            refs.append(weakref.ref(md))
            yield md
            del md

    view = group_by_key(tables())
    assert len(refs) == 6
    assert view.keys == tuple(f"k{i}" for i in range(7))
    assert view.groups[:2] == (("k0", frozenset({"0001", "0009"})), ("k1", frozenset({"0000", "0001", "0009"})))
    assert view.groups[6] == ("k6", frozenset({"0005"}))


def universe_of(md):
    return tuple(sorted(set(md.codes)))


def group_sets_by_lists(view):
    """The build group_sets replaced: a list per group, then its tuple."""
    codes_of = [[] for _ in view.keys]
    for code in view.code_universe:
        for j in set(view.members[code]):
            codes_of[j].append(code)
    return tuple(map(tuple, codes_of))


WIDE = {"wide": [f"{c:04d}" for c in range(2000)]}


@settings(max_examples=200, deadline=None)
@given(
    pairs=shuffled_pairs(),
    empty_keys=st.lists(st.sampled_from(["e1", "e2", "e3"]), unique=True),
    wide=st.booleans(),
)
@example(pairs=[("k1", "0001")], empty_keys=[], wide=True)
def test_group_sets_match_the_list_per_group_build(pairs, empty_keys, wide):
    groups = dict.fromkeys(empty_keys, ())
    for key, code in pairs:
        groups[key] = (*groups.get(key, ()), code, code)  # each pair twice: a member list repeats its index
    if wide:
        groups.update(WIDE)
    view = TransactionView.from_groups(groups.items())
    built = view.group_sets
    assert built == group_sets_by_lists(view)
    assert all(type(codes) is tuple and list(codes) == sorted(set(codes)) for codes in built)
    assert len(built) == view.n_groups and (not wide or built[-1] == tuple(WIDE["wide"]))
