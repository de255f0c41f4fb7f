import pytest

from starminer.datamodel import QUANTITATIVE, AttributeSpec, RelationalTable
from starminer.errors import DataError, SchemaError
from starminer.ingest import (
    JoinSpec,
    discretize,
    join_tables,
    load_csv,
)

CAT = AttributeSpec


def table(name, attrs, rows):
    return RelationalTable(name=name, schema=tuple(CAT(a) for a in attrs), rows=rows)


# --- load_csv ----------------------------------------------------------------

def test_load_three_row_age_file(tmp_path):
    path = tmp_path / "people.csv"
    path.write_text("age\nYoung\nMiddle\nMiddle\n", encoding="utf-8")
    t = load_csv(path, (CAT("age"),))
    assert t.rows == (("Young",), ("Middle",), ("Middle",))


def test_load_header_only_file(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,b\n", encoding="utf-8")
    t = load_csv(path, (CAT("a"), CAT("b")))
    assert t.rows == ()
    assert t.attribute_names == ("a", "b")


def test_load_unparseable_number_reports_row(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("income\nabc\n", encoding="utf-8")
    spec = AttributeSpec("income", kind=QUANTITATIVE, bins=(("all", 0, 1e9),))
    with pytest.raises(DataError, match="row 1"):
        load_csv(path, (spec,))


def test_load_missing_file(tmp_path):
    with pytest.raises(DataError, match="no such file"):
        load_csv(tmp_path / "nope.csv", (CAT("a"),))


def test_load_tolerates_utf8_bom(tmp_path):
    path = tmp_path / "t.csv"
    path.write_bytes(b"\xef\xbb\xbfage\nYoung\n")
    t = load_csv(path, (CAT("age"),))
    assert t.rows == (("Young",),)


def test_load_header_mismatch(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("x\n1\n", encoding="utf-8")
    with pytest.raises(DataError, match="header"):
        load_csv(path, (CAT("a"),))


def test_load_rejects_quoted_values(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text('a\n"x,y"\n', encoding="utf-8")
    with pytest.raises(DataError, match="quoted"):
        load_csv(path, (CAT("a"),))


def test_load_arity_mismatch_reports_row(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,b\nx,y\nx\n", encoding="utf-8")
    with pytest.raises(DataError, match="row 2"):
        load_csv(path, (CAT("a"), CAT("b")))


# --- join_tables --------------------------------------------------------------

def test_single_row_join():
    fact = table("fact", ["cust", "prod"], ((("c1"), "p1"),))
    customer = table("customer", ["cust_id", "age"], (("c1", "Young"),))
    product = table("product", ["prod_id", "product_name"], (("p1", "Jeans"),))
    spec = JoinSpec(
        fact_table="fact",
        links=(("cust", "customer", "cust_id"), ("prod", "product", "prod_id")),
        projected_attrs=(("customer", "age"), ("product", "product_name")),
    )
    general = join_tables([fact, customer, product], spec)
    assert general.attribute_names == ("age", "product_name")
    assert general.rows == (("Young", "Jeans"),)


def test_join_empty_fact_keeps_projected_schema():
    fact = table("fact", ["cust"], ())
    customer = table("customer", ["cust_id", "age"], (("c1", "Young"),))
    spec = JoinSpec(
        fact_table="fact",
        links=(("cust", "customer", "cust_id"),),
        projected_attrs=(("customer", "age"),),
    )
    general = join_tables([fact, customer], spec)
    assert general.rows == ()
    assert general.attribute_names == ("age",)


def test_join_many_to_one_repeats_dimension_values():
    # hand-join oracle: two fact rows share c1
    fact = table("fact", ["cust", "prod"], (("c1", "p1"), ("c1", "p2"), ("c2", "p1")))
    customer = table("customer", ["cust_id", "age"], (("c1", "Young"), ("c2", "Old")))
    product = table("product", ["prod_id", "pname"], (("p1", "Jeans"), ("p2", "Beer")))
    spec = JoinSpec(
        fact_table="fact",
        links=(("cust", "customer", "cust_id"), ("prod", "product", "prod_id")),
        projected_attrs=(("customer", "age"), ("product", "pname")),
    )
    general = join_tables([fact, customer, product], spec)
    assert general.rows == (("Young", "Jeans"), ("Young", "Beer"), ("Old", "Jeans"))


def test_join_orphan_key_is_an_error_listing_it():
    fact = table("fact", ["cust"], (("c1",), ("cX",)))
    customer = table("customer", ["cust_id", "age"], (("c1", "Young"),))
    spec = JoinSpec(
        fact_table="fact",
        links=(("cust", "customer", "cust_id"),),
        projected_attrs=(("customer", "age"),),
    )
    with pytest.raises(DataError, match="cX"):
        join_tables([fact, customer], spec)


def test_join_row_count_law_with_unique_dimension_keys():
    fact = table("fact", ["cust"], tuple((f"c{i % 3}",) for i in range(9)))
    customer = table(
        "customer", ["cust_id", "age"],
        (("c0", "Young"), ("c1", "Mid"), ("c2", "Old")),
    )
    spec = JoinSpec(
        fact_table="fact",
        links=(("cust", "customer", "cust_id"),),
        projected_attrs=(("fact", "cust"), ("customer", "age")),
    )
    general = join_tables([fact, customer], spec)
    assert general.n_rows == fact.n_rows
    # projection soundness: every output cell came from a source cell
    ages = dict(customer.rows)
    assert all(row[1] == ages[row[0]] for row in general.rows)


def test_join_duplicate_dimension_keys_multiply_rows():
    fact = table("fact", ["k"], (("a",),))
    dim = table("d", ["k_id", "v"], (("a", "v1"), ("a", "v2")))
    spec = JoinSpec(
        fact_table="fact",
        links=(("k", "d", "k_id"),),
        projected_attrs=(("d", "v"),),
    )
    general = join_tables([fact, dim], spec)
    assert general.rows == (("v1",), ("v2",))


def test_join_spec_validation():
    with pytest.raises(SchemaError):
        JoinSpec(fact_table="f", links=(), projected_attrs=())
    with pytest.raises(SchemaError):
        JoinSpec(
            fact_table="f",
            links=(("k", "d", "x"), ("k", "d", "y")),
            projected_attrs=(("f", "k"),),
        )


def test_join_unknown_projection_table():
    fact = table("fact", ["k"], ())
    spec = JoinSpec(fact_table="fact", links=(), projected_attrs=(("ghost", "v"),))
    with pytest.raises(SchemaError, match="ghost"):
        join_tables([fact], spec)


# --- discretization --------------------------------------------------------------

def income_table(*values):
    spec = AttributeSpec(
        "income",
        kind=QUANTITATIVE,
        bins=(("5K..7K", 5000, 7000), ("7K..9K", 7000, 9000)),
    )
    return RelationalTable(name="t", schema=(spec,), rows=tuple((v,) for v in values))


def test_discretize_maps_value_to_bin_label():
    out = discretize(income_table(5500.0), "income")
    assert out.rows == (("5K..7K",),)
    assert out.spec_of("income").is_categorical()


def test_discretize_lower_bound_inclusive():
    assert discretize(income_table(5000.0), "income").rows == (("5K..7K",),)


def test_discretize_upper_bound_exclusive():
    assert discretize(income_table(7000.0), "income").rows == (("7K..9K",),)


def test_discretize_value_outside_bins_reports_row_and_value():
    with pytest.raises(DataError, match=r"row 2.*9000"):
        discretize(income_table(5500.0, 9000.0), "income")


def test_discretize_categorical_is_an_error_not_a_noop():
    t = table("t", ["age"], (("Young",),))
    with pytest.raises(SchemaError, match="already categorical"):
        discretize(t, "age")


def test_discretize_preserves_order_of_bin_labels():
    out = discretize(income_table(8999.0, 5000.0, 6999.0, 7000.0), "income")
    values = [row[0] for row in out.rows]
    assert values == ["7K..9K", "5K..7K", "5K..7K", "7K..9K"]
    # ascending inputs always map to a non-descending label sequence
    ordered = discretize(income_table(5000.0, 6000.0, 7000.0, 8500.0), "income")
    labels = [row[0] for row in ordered.rows]
    order = {"5K..7K": 0, "7K..9K": 1}
    assert [order[l] for l in labels] == sorted(order[l] for l in labels)
