import pytest
from hypothesis import given
from hypothesis import strategies as st

import reference
from starminer.datamodel import AttributeSpec, RelationalTable
from starminer.errors import DataError, SchemaError
from starminer.mapcode import (
    MapCodeRegistry,
    combine_dims,
    transform_map_code,
)
from starminer.mining import FrequentItemset


def sales_table(rows):
    schema = tuple(AttributeSpec(a) for a in ("Times", "Channel", "Product"))
    return RelationalTable(name="general", schema=schema, rows=rows)


def test_first_seen_combo_gets_code_0001():
    general = sales_table((("Jan 1998", "Direct sales", "Men-Jeans"),))
    registry, md = combine_dims(general, "Times", ["Channel", "Product"])
    assert registry.find(("Direct sales", "Men-Jeans")) == "0001"
    assert registry.decode("0001") == (
        ("Channel", "Direct sales"),
        ("Product", "Men-Jeans"),
    )
    assert md.rows == (("Jan 1998", "0001"),)


def test_empty_general_table():
    registry, md = combine_dims(sales_table(()), "Times", ["Channel", "Product"])
    assert len(registry) == 0
    assert md.rows == ()


def test_codes_follow_first_encounter_order():
    # trace the loop by hand: combo A first, B second, A repeats
    general = sales_table(
        (
            ("t1", "Direct sales", "Jeans"),
            ("t2", "Internet", "Beer"),
            ("t3", "Direct sales", "Jeans"),
        )
    )
    registry, md = combine_dims(general, "Times", ["Channel", "Product"])
    assert registry.codes == ("0001", "0002")
    assert registry.find(("Direct sales", "Jeans")) == "0001"
    assert registry.find(("Internet", "Beer")) == "0002"
    assert md.rows == (("t1", "0001"), ("t2", "0002"), ("t3", "0001"))


def test_duplicate_key_code_pairs_collapse():
    general = sales_table(
        (("t1", "Direct sales", "Jeans"), ("t1", "Direct sales", "Jeans"))
    )
    _, md = combine_dims(general, "Times", ["Channel", "Product"])
    assert md.rows == (("t1", "0001"),)


def test_value_filter_restricts_rows_before_combining():
    rows = (
        ("t1", "Direct sales", "Jeans"),
        ("t2", "Internet", "Beer"),
        ("t3", "Direct sales", "Beer"),
    )
    registry, md = combine_dims(
        sales_table(rows),
        "Times",
        ["Channel", "Product"],
        filters={"Channel": ["Direct sales"]},
    )
    assert registry.codes == ("0001", "0002")
    assert registry.find(("Internet", "Beer")) is None
    assert md.rows == (("t1", "0001"), ("t3", "0002"))


def test_key_dim_cannot_be_combined():
    with pytest.raises(SchemaError):
        combine_dims(sales_table(()), "Times", ["Times", "Product"])


def test_duplicate_selected_dims_rejected():
    with pytest.raises(SchemaError, match="duplicates"):
        combine_dims(sales_table(()), "Times", ["Product", "Product"])


def test_unknown_attribute_rejected():
    with pytest.raises(SchemaError, match="Ghost"):
        combine_dims(sales_table(()), "Times", ["Ghost"])


def test_non_categorical_attribute_rejected():
    schema = (
        AttributeSpec("Times"),
        AttributeSpec("amount", bins=(("all", 0, 1e9),)),
    )
    general = RelationalTable(name="g", schema=schema, rows=(("t1", 5.0),))
    with pytest.raises(SchemaError, match="amount"):
        combine_dims(general, "Times", ["amount"])


def test_determinism_byte_identical_registry():
    rows = tuple(
        (f"t{i}", ch, pr)
        for i, (ch, pr) in enumerate(
            [("Direct sales", "Jeans"), ("Internet", "Beer")] * 5
        )
    )
    a, _ = combine_dims(sales_table(rows), "Times", ["Channel", "Product"])
    b, _ = combine_dims(sales_table(rows), "Times", ["Channel", "Product"])
    assert a.csv_lines() == b.csv_lines()


def test_collapse_correctness_and_round_trip():
    rows = tuple(
        (f"t{i % 4}", f"ch{i % 3}", f"p{i % 5}") for i in range(30)
    )
    registry, _ = combine_dims(sales_table(rows), "Times", ["Channel", "Product"])
    distinct = {(ch, pr) for _, ch, pr in rows}
    assert len(registry) == len(distinct)
    for combo in distinct:
        code = registry.find(combo)
        assert code is not None
        assert registry.decode(code) == tuple(zip(("Channel", "Product"), combo))


def test_code_width_grows_past_9999():
    registry = MapCodeRegistry(("d",))
    for i in range(10001):
        registry.encode((f"v{i}",))
    assert registry.codes[0] == "0001"
    assert registry.codes[9998] == "9999"
    assert registry.codes[9999] == "10000"
    assert registry.codes[10000] == "10001"


def test_registry_csv_export_format():
    registry = MapCodeRegistry(("Channel", "Product"))
    registry.encode(("Direct sales", "Men-Jeans"))
    registry.encode(("Direct=sales", "Salt;Pepper\\"))
    assert registry.csv_lines() == [
        "code,combo",
        "0001,Channel=Direct sales;Product=Men-Jeans",
        "0002,Channel=Direct\\=sales;Product=Salt\\;Pepper\\\\",
    ]


SEPARATED = st.text(alphabet="a\\;= ", max_size=6)


@given(
    dims=st.lists(SEPARATED.filter(bool), min_size=1, max_size=3, unique=True),
    rows=st.lists(st.lists(SEPARATED, min_size=3, max_size=3), min_size=1, max_size=4),
)
def test_registry_csv_parses_back_to_names_and_values_that_hold_its_separators(dims, rows):
    registry = MapCodeRegistry(dims)
    combos = list(dict.fromkeys(tuple(row[: len(dims)]) for row in rows))
    codes = [registry.encode(combo) for combo in combos]
    assert reference.parse_registry("\n".join(registry.csv_lines())) == [
        (code, tuple(zip(dims, combo))) for code, combo in zip(codes, combos)
    ]


# --- transform_map_code -----------------------------------------------------

def fi(items, count, support):
    return FrequentItemset(items=tuple(items), support_count=count, support=support)


def test_transform_single_code():
    registry = MapCodeRegistry(("Channel", "Product"))
    registry.encode(("Direct sales", "Men-Jeans"))
    [decoded] = transform_map_code([fi(["0001"], 12, 0.30)], registry)
    assert decoded.pairs == (("Channel", "Direct sales"), ("Product", "Men-Jeans"))
    assert decoded.support_count == 12
    assert decoded.support == 0.30


def test_transform_empty_list():
    assert transform_map_code([], MapCodeRegistry(("d",))) == []


def test_transform_two_codes_unions_and_dedupes_pairs():
    # expand by hand from a 2-entry registry sharing the Channel value
    registry = MapCodeRegistry(("Channel", "Product"))
    registry.encode(("Direct sales", "Jeans"))
    registry.encode(("Direct sales", "Shoes"))
    [decoded] = transform_map_code([fi(["0001", "0002"], 4, 0.4)], registry)
    assert decoded.pairs == (
        ("Channel", "Direct sales"),
        ("Product", "Jeans"),
        ("Product", "Shoes"),
    )
    assert decoded.level == 3


def test_transform_unknown_code_is_registry_corruption():
    registry = MapCodeRegistry(("d",))
    with pytest.raises(DataError, match="corrupt"):
        transform_map_code([fi(["0042"], 1, 1.0)], registry)
