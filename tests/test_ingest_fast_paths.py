"""Each ingest fast path against the row-by-row loop it replaced.

The oracles below are the previous implementations: the per-cell
``_check_cell`` scan of every table build, the per-line CSV parser, the
per-row bin search, the per-row orphan scan and product join, the
closure-filtered ``combine_dims`` loop and the set-per-key ``group_by_key``.
Each test asserts that the fast path accepts the same inputs, builds the same
values and raises the same ``DataError`` text.
"""

import math
import tempfile
from itertools import product
from pathlib import Path
from unittest.mock import patch

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from starminer import datamodel, ingest
from starminer.datamodel import (
    QUANTITATIVE,
    AttributeSpec,
    Bin,
    RelationalTable,
    _check_cell,
)
from starminer.errors import DataError
from starminer.ingest import JoinSpec, discretize, join_tables, load_csv
from starminer.mapcode import MapCodeRegistry, MdTable, combine_dims
from starminer.mining import group_by_key

HUGE = 10**400  # finite, but math.isfinite(HUGE) raises OverflowError


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
                    parsed.append(float(cell))
                except ValueError:
                    raise DataError(
                        f"{path} row {i}: cannot parse {cell!r} as a number for "
                        f"attribute {spec.name!r}"
                    ) from None
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


def scan_join(fact, dims, spec):
    link_info = []
    by_name = {d.name: d for d in dims}
    for fact_key, dim_name, dim_key in spec.links:
        dim = by_name[dim_name]
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
            for table_name, attr in spec.projected_attrs:
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
    for key, code in md.rows:
        if key not in codes_for:
            order.append(key)
            codes_for[key] = set()
        codes_for[key].add(code)
    groups = tuple((k, frozenset(codes_for[k])) for k in order)
    return groups, tuple(sorted(set().union(*codes_for.values())))


# --- table validation -------------------------------------------------------

BINS = (Bin("lo", -1e300, 0.0), Bin("hi", 0.0, 1e300))
KIND_SPEC = {
    "cat": lambda i: AttributeSpec(name=f"a{i}"),
    "num": lambda i: AttributeSpec(name=f"a{i}", kind=QUANTITATIVE, bins=BINS),
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


def test_plain_table_skips_the_cell_scan(monkeypatch):
    def forbidden(*args):
        raise AssertionError("per-cell scan ran on a plain table")

    monkeypatch.setattr(datamodel, "_check_cell", forbidden)
    rows = [("a", 1.0), ("b", 2), ("c", -0.0)]
    assert build((CAT, NUM), rows) == tuple(rows)
    assert build((), []) == ()


# --- load_csv ---------------------------------------------------------------

LOAD_SCHEMA = (
    AttributeSpec(name="tid"),
    AttributeSpec(name="qty", kind=QUANTITATIVE, bins=BINS),
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
     "t1,nan,Melb", "t1,inf,Melb"]
)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    body=st.lists(st.one_of(GOOD_LINES, BAD_LINES), max_size=6),
    trailing_newline=st.booleans(),
    chunk=st.integers(1, 4),
)
@example(body=["t1,x,Melb", 't1,1,"Melb"'], trailing_newline=True, chunk=4)
@example(body=['t1,1,"Melb"', "t1,x,Melb"], trailing_newline=True, chunk=4)
@example(body=["t1,1,Melb", "t1,1", 't1,1,"Melb"'], trailing_newline=False, chunk=4)
@example(body=["t1,1,Melb", ""], trailing_newline=True, chunk=4)
@example(body=["t1,1,Melb", "t2,2.5,Perth", "t1,x,Melb", "t1,1"], trailing_newline=True, chunk=2)
def test_load_csv_matches_line_parser(body, trailing_newline, chunk):
    # chunks of 1 to 4 lines put chunk boundaries between every pair of rows
    text = "\n".join(["tid,qty,city", *body]) + ("\n" if trailing_newline else "")
    with tempfile.TemporaryDirectory() as tmp, patch.object(ingest, "_CHUNK_LINES", chunk):
        path = Path(tmp) / "fact.csv"
        path.write_text(text, encoding="utf-8")
        fast = outcome(lambda: load_csv(path, LOAD_SCHEMA).rows)
        slow = outcome(lambda: scan_load_csv(path, LOAD_SCHEMA))
    assert fast == slow


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
    with patch.object(ingest, "_CHUNK_LINES", 8):
        loaded = load_csv(fact, LOAD_SCHEMA)
        city = load_csv(dim, (AttributeSpec("city"), AttributeSpec("state")))
    general = join_tables(
        [loaded, city],
        JoinSpec(fact_table="fact", links=(("city", "city", "city"),),
                 projected_attrs=(("fact", "tid"), ("fact", "qty"), ("city", "state"))),
    )
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
    schema.insert(pos, AttributeSpec(name="year", kind=QUANTITATIVE, bins=YEAR_BINS))
    rows = []
    for i, v in enumerate(values):
        row = [f"k{i % 3}", "m"]
        row.insert(pos, v)
        rows.append(tuple(row))
    table = RelationalTable(name="general", schema=tuple(schema), rows=tuple(rows))
    fast = outcome(lambda: discretize(table, "year"))
    slow = outcome(lambda: scan_discretize(table, "year"))
    if fast[0] == "ok":
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
    spec = JoinSpec(
        fact_table="fact",
        links=(("pk", "p", "pk"), ("qk", "q", "qk")),
        projected_attrs=tuple(projection[:width]),
    )
    fast = outcome(lambda: join_tables([fact, p, q], spec).rows)
    assert fast == outcome(lambda: scan_join(fact, [p, q], spec))


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

    view = group_by_key(MdTable(keys=md.keys + md.keys[:3], codes=md.codes + md.codes[:3]))
    assert (view.groups, view.code_universe) == scan_group_by_key(md)
