import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starminer.datamodel import (
    AttributeSpec,
    Bin,
    RelationalTable,
    bitmap_encode,
)
from starminer.errors import DataError, SchemaError
from starminer.mapcode import DecodedItemset
from starminer.mining import FrequentItemset, TransactionView
from starminer.rules import AssociationRule


def age_table(rows=("Young", "Middle", "Middle"), domain=None):
    spec = AttributeSpec(name="age", domain=domain)
    return RelationalTable(name="people", schema=(spec,), rows=tuple((v,) for v in rows))


# --- attribute/table validation -------------------------------------------

def test_quantitative_requires_bins():
    with pytest.raises(SchemaError, match="quantitative attribute 'income' must declare bins"):
        AttributeSpec(name="income", bins=())


def test_binned_attribute_cannot_declare_a_domain():
    with pytest.raises(SchemaError, match="quantitative attribute 'income' cannot declare a value domain"):
        AttributeSpec(name="income", bins=(Bin("low", 0, 10),), domain=("low",))
    assert not AttributeSpec(name="income", bins=(Bin("low", 0, 10),)).is_categorical()
    assert AttributeSpec(name="age", domain=("low",)).is_categorical()


def test_bins_must_be_disjoint_and_ascending():
    with pytest.raises(SchemaError):
        AttributeSpec(
            name="income",
            bins=(("a", 0, 10), ("b", 5, 20)),
        )
    with pytest.raises(SchemaError):
        AttributeSpec(
            name="income",
            bins=(("b", 10, 20), ("a", 0, 10)),
        )


@pytest.mark.parametrize(
    "label, lower, upper",
    [("a", "0", "10"), (1, 0, 10), ("a", True, 10), ("a", 0, None), (None, 0.0, 1.0)],
)
def test_bin_needs_a_string_label_and_numeric_bounds(label, lower, upper):
    with pytest.raises(SchemaError, match="label must be a string and the bounds numbers"):
        Bin(label, lower, upper)
    with pytest.raises(SchemaError):
        AttributeSpec(name="income", bins=((label, lower, upper),))


def test_bin_bounds_may_be_ints_or_floats():
    assert Bin("a", 0, 10.5).contains(10)
    assert not Bin("a", -1.5, 2).contains(2.0)


def test_duplicate_attribute_names_rejected():
    with pytest.raises(SchemaError):
        RelationalTable(
            name="t",
            schema=(AttributeSpec("x"), AttributeSpec("x")),
            rows=(),
        )


def test_row_arity_and_cell_kinds_validated():
    with pytest.raises(DataError):
        RelationalTable(name="t", schema=(AttributeSpec("x"),), rows=(("a", "b"),))
    with pytest.raises(DataError):
        RelationalTable(name="t", schema=(AttributeSpec("x"),), rows=((3,),))
    numeric = AttributeSpec("v", bins=(("all", 0, 100),))
    with pytest.raises(DataError):
        RelationalTable(name="t", schema=(numeric,), rows=(("oops",),))


def test_table_from_columns_equals_table_from_rows():
    schema = (AttributeSpec("a"), AttributeSpec("n", bins=(("all", 0, 9),)))
    by_rows = RelationalTable(name="t", schema=schema, rows=(("x", 1.0), ("y", 2)))
    by_columns = RelationalTable(name="t", schema=schema, columns=(("x", "y"), (1.0, 2)))
    assert by_rows == by_columns
    assert by_columns.rows == (("x", 1.0), ("y", 2))
    assert by_columns.column("n") == (1.0, 2)
    assert RelationalTable(name="t", schema=schema, columns=((), ())).n_rows == 0


def test_table_needs_one_source_and_equal_columns():
    schema = (AttributeSpec("a"), AttributeSpec("b"))
    with pytest.raises(TypeError):
        RelationalTable(name="t", schema=schema)
    with pytest.raises(TypeError):
        RelationalTable(name="t", schema=schema, rows=(), columns=((), ()))
    with pytest.raises(SchemaError, match="equal length"):
        RelationalTable(name="t", schema=schema, columns=(("x", "y"), ("z",)))
    with pytest.raises(SchemaError, match="equal length"):
        RelationalTable(name="t", schema=schema, columns=(("x",),))


# --- bitmap encoding ---------------------------------------------------------

def test_bitmap_encode_age_column():
    bm = bitmap_encode(age_table())
    assert [it.name for it in bm.items] == ["age_Young", "age_Middle"]
    assert bm.column_bits(0) == [1, 0, 0]
    assert bm.column_bits(1) == [0, 1, 1]
    assert [it.id for it in bm.items] == [0, 1]


def test_bitmap_encode_empty_table():
    t = RelationalTable(name="t", schema=(AttributeSpec("age"),), rows=())
    bm = bitmap_encode(t)
    assert bm.items == ()
    assert bm.universe_size == 0


def test_bitmap_encode_two_attrs_all_combos():
    # enumerate by hand: each of the 4 items covers exactly two of the 4 rows
    t = RelationalTable(
        name="t",
        schema=(AttributeSpec("a"), AttributeSpec("b")),
        rows=(("a1", "b1"), ("a1", "b2"), ("a2", "b1"), ("a2", "b2")),
    )
    bm = bitmap_encode(t)
    assert [it.name for it in bm.items] == ["a_a1", "a_a2", "b_b1", "b_b2"]
    assert bm.column_bits(0) == [1, 1, 0, 0]
    assert bm.column_bits(1) == [0, 0, 1, 1]
    assert bm.column_bits(2) == [1, 0, 1, 0]
    assert bm.column_bits(3) == [0, 1, 0, 1]
    assert all(bm.columns[i].bit_count() == 2 for i in range(4))


def test_bitmap_encode_rejects_quantitative_and_points_to_discretize():
    spec = AttributeSpec("income", bins=(("all", 0, 1e9),))
    t = RelationalTable(name="t", schema=(spec,), rows=((42.0,),))
    with pytest.raises(SchemaError, match="discretize"):
        bitmap_encode(t)


def test_bitmap_encode_explicit_domain_emits_unused_item():
    bm = bitmap_encode(age_table(rows=("young", "middle", "middle"),
                                 domain=("young", "middle", "old")))
    assert [it.name for it in bm.items] == ["age_young", "age_middle", "age_old"]
    assert bm.column_bits(2) == [0, 0, 0]


def test_bitmap_encode_value_outside_domain():
    with pytest.raises(DataError, match="domain"):
        bitmap_encode(age_table(rows=("young", "ancient"), domain=("young", "old")))


# --- properties ---------------------------------------------------------------

_VALUES = st.sampled_from(["u", "v", "w", "x"])


@st.composite
def small_tables(draw):
    n_attrs = draw(st.integers(min_value=1, max_value=3))
    n_rows = draw(st.integers(min_value=0, max_value=10))
    rows = tuple(
        tuple(draw(_VALUES) for _ in range(n_attrs)) for _ in range(n_rows)
    )
    schema = tuple(AttributeSpec(f"a{i}") for i in range(n_attrs))
    return RelationalTable(name="t", schema=schema, rows=rows)


@settings(max_examples=60, deadline=None)
@given(small_tables())
def test_bitmap_one_hot_per_attribute(table):
    bm = bitmap_encode(table)
    by_attr = {}
    for i, it in enumerate(bm.items):
        by_attr.setdefault(it.attribute, []).append(i)
    for j in range(bm.universe_size):
        for cols in by_attr.values():
            assert sum((bm.columns[i] >> j) & 1 for i in cols) == 1


def decode_bitmap(bitmap):
    """Rows rebuilt from a one-hot bitmap: for each object, the value of the
    one set item of every attribute, in item order."""
    attrs = list(dict.fromkeys(it.attribute for it in bitmap.items))
    rows = []
    for j in range(bitmap.universe_size):
        row = []
        for a in attrs:
            hits = [it.value for it, col in zip(bitmap.items, bitmap.columns)
                    if it.attribute == a and (col >> j) & 1]
            assert len(hits) == 1
            row.append(hits[0])
        rows.append(tuple(row))
    return attrs, tuple(rows)


@settings(max_examples=60, deadline=None)
@given(small_tables())
def test_bitmap_round_trip(table):
    # Cell-for-cell reconstruction: an empty table encodes to zero items, so
    # attribute names are only recoverable when rows exist.
    bm = bitmap_encode(table)
    attrs, rows = decode_bitmap(bm)
    assert rows == table.rows
    if table.n_rows:
        assert tuple(attrs) == table.attribute_names
    # with no declared domain, each attribute's items come in first-occurrence
    # order of its column
    for attr in table.attribute_names:
        values = [it.value for it in bm.items if it.attribute == attr]
        assert values == list(dict.fromkeys(table.column(attr)))


# --- unchecked constructors ---------------------------------------------------

_CODES = st.text("abc", min_size=1, max_size=2)
_PAIRS = st.tuples(st.sampled_from(["A", "B"]), st.text("xy", max_size=2))
_COUNTS = st.integers(0, 10**6)
_FRACTIONS = st.floats(min_value=0, max_value=1, exclude_min=True)


@st.composite
def records(draw):
    """A record class and values its checked constructor accepts, in the
    order its ``_of`` takes them."""
    cls = draw(st.sampled_from([FrequentItemset, DecodedItemset, AssociationRule, TransactionView, RelationalTable]))
    if cls is FrequentItemset:
        return cls, (tuple(sorted(draw(st.sets(_CODES)))), draw(_COUNTS), draw(_FRACTIONS))
    if cls is DecodedItemset:
        return cls, (tuple(draw(st.lists(_PAIRS, unique=True))), draw(_COUNTS), draw(_FRACTIONS))
    if cls is AssociationRule:
        pairs = draw(st.lists(_PAIRS, min_size=2, unique=True))
        cut = draw(st.integers(1, len(pairs) - 1))
        support, confidence = sorted(draw(st.lists(_FRACTIONS, min_size=2, max_size=2)))
        return cls, (tuple(pairs[:cut]), tuple(pairs[cut:]), draw(_COUNTS), draw(_COUNTS), support, confidence)
    if cls is TransactionView:
        keys = tuple(draw(st.lists(_CODES, min_size=1, unique=True)))
        return cls, (keys, draw(st.dictionaries(_CODES, st.lists(st.integers(0, len(keys) - 1)))))
    names = draw(st.lists(_CODES, min_size=1, max_size=3, unique=True))
    n_rows = draw(st.integers(0, 4))
    columns = tuple(tuple(draw(st.lists(_CODES, min_size=n_rows, max_size=n_rows))) for _ in names)
    return cls, (draw(_CODES), tuple(map(AttributeSpec, names)), columns)


@settings(max_examples=200, deadline=None)
@given(records())
def test_each_unchecked_constructor_builds_what_the_checked_one_builds(record):
    cls, values = record
    fast = cls._of(*values)
    if cls is RelationalTable:
        checked = cls(*values[:2], columns=values[2])
    else:
        checked = cls(*values)
    # a table also keeps its name index; read the keys before == caches a view's groups
    fields = {f.name for f in dataclasses.fields(cls)} | ({"_index"} if cls is RelationalTable else set())
    assert vars(fast).keys() == vars(checked).keys() == fields
    assert fast == checked
    assert [getattr(fast, name) for name in fields] == [getattr(checked, name) for name in fields]


def test_unchecked_table_still_rejects_a_duplicate_attribute_name():
    with pytest.raises(SchemaError, match="duplicate attribute name 'a'"):
        RelationalTable._of("t", (AttributeSpec("a"), AttributeSpec("a")), (("x",), ("y",)))
