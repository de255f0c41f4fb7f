import os

import pytest

from starminer import synth
from starminer.errors import SchemaError
from starminer.synth import SynthSpec, generate_sales


def read_all(paths):
    return {name: p.read_bytes() for name, p in paths.items()}


def test_generation_is_deterministic(tmp_path):
    spec = SynthSpec(seed=1, n_fact_rows=800)
    first = read_all(generate_sales(spec, tmp_path / "a"))
    second = read_all(generate_sales(spec, tmp_path / "b"))
    assert first == second


def test_different_seeds_differ(tmp_path):
    a = generate_sales(SynthSpec(seed=1, n_fact_rows=800), tmp_path / "a")
    b = generate_sales(SynthSpec(seed=2, n_fact_rows=800), tmp_path / "b")
    assert a["fact"].read_bytes() != b["fact"].read_bytes()


def choices_draw(rng, population):
    """The draw generate_sales used to make: one ``rng.choices`` call each."""
    weights = [1.0 / rank for rank in range(1, len(population) + 1)]
    return lambda: rng.choices(population, weights)[0]


@pytest.mark.parametrize(
    "spec",
    [
        SynthSpec(seed=0, n_fact_rows=600),
        SynthSpec(seed=7, n_fact_rows=600, n_products=3),
        SynthSpec(seed=20260808, n_fact_rows=1500, n_products=200),
        SynthSpec(seed=11, n_fact_rows=400, n_products=24),
        SynthSpec(seed=12, n_fact_rows=400, n_products=25),
        SynthSpec(seed=13, n_fact_rows=0),
        SynthSpec(seed=14, n_fact_rows=300, n_products=1),
    ],
)
def test_precomputed_draws_match_random_choices(spec, tmp_path, monkeypatch):
    ours = read_all(generate_sales(spec, tmp_path / "ours"))
    monkeypatch.setattr(synth, "_zipf_draw", choices_draw)
    assert ours == read_all(generate_sales(spec, tmp_path / "choices"))


def test_zero_fact_rows_keeps_dimensions(tmp_path):
    paths = generate_sales(SynthSpec(seed=5, n_fact_rows=0), tmp_path)
    assert paths["fact"].read_text().splitlines() == [
        "tid,customer_id,product_id,time_id,channel_id"
    ]
    assert len(paths["customer"].read_text().splitlines()) == 101  # header + 100


def test_default_dimension_sizes(tmp_path):
    paths = generate_sales(SynthSpec(seed=3, n_fact_rows=50), tmp_path)
    sizes = {
        name: len(paths[name].read_text().splitlines()) - 1
        for name in ("customer", "product", "times", "channel")
    }
    assert sizes == {"customer": 100, "product": 50, "times": 50, "channel": 60}


def test_fact_references_only_generated_keys(tmp_path):
    paths = generate_sales(SynthSpec(seed=9, n_fact_rows=400), tmp_path)

    def keys(name):
        lines = paths[name].read_text().splitlines()[1:]
        return {line.split(",")[0] for line in lines}

    customers, products = keys("customer"), keys("product")
    times, channels = keys("times"), keys("channel")
    for line in paths["fact"].read_text().splitlines()[1:]:
        _, cust, prod, t, chan = line.split(",")
        assert cust in customers and prod in products
        assert t in times and chan in channels


def test_baskets_share_customer_time_channel(tmp_path):
    paths = generate_sales(SynthSpec(seed=11, n_fact_rows=300), tmp_path)
    per_tid = {}
    for line in paths["fact"].read_text().splitlines()[1:]:
        tid, cust, _, t, chan = line.split(",")
        per_tid.setdefault(tid, set()).add((cust, t, chan))
    assert all(len(v) == 1 for v in per_tid.values())
    assert any(True for _ in per_tid)  # at least one basket


def test_spec_validation():
    with pytest.raises(SchemaError):
        SynthSpec(seed=1, n_products=0)
    with pytest.raises(SchemaError):
        SynthSpec(seed=1, n_fact_rows=-1)


@pytest.mark.parametrize("city", ["Melb, VIC", 'Melb "North"'])
def test_cell_that_breaks_the_dialect_is_a_schema_error(tmp_path, monkeypatch, city):
    monkeypatch.setattr(synth, "CITIES", [city])
    with pytest.raises(SchemaError, match="customer.csv"):
        generate_sales(SynthSpec(seed=1, n_fact_rows=10), tmp_path)
    assert list(tmp_path.iterdir()) == []


def test_failed_rename_leaves_no_temporary_file(tmp_path, monkeypatch):
    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="rename refused"):
        generate_sales(SynthSpec(seed=1, n_fact_rows=10), tmp_path)
    assert list(tmp_path.iterdir()) == []
