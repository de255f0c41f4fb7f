import os
import random
import tempfile
from itertools import count
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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


# --- the streamed writer against the whole-text one ------------------------

def whole_text_csv(path, header, rows):
    """The writer generate_sales used before it streamed: the whole file as
    one string, checked once."""
    text = "\n".join([",".join(header), *map(",".join, rows)]) + "\n"
    if '"' in text or text.count(",") != (len(header) - 1) * (len(rows) + 1):
        raise SchemaError(f"generated cells for {path.name} break the CSV dialect")
    path.write_text(text, encoding="utf-8")


def whole_text_sales(spec, out):
    """generate_sales before it streamed: every fact row drawn into one list
    first, then each table written whole."""
    rng = random.Random(spec.seed)
    customer_ids = [f"C{i:04d}" for i in range(1, synth.N_CUSTOMERS + 1)]
    product_ids = [f"P{i:03d}" for i in range(1, spec.n_products + 1)]
    time_ids = [f"T{i:02d}" for i in range(1, synth.N_TIMES + 1)]
    channel_ids = [f"CH{i:02d}" for i in range(1, synth.N_CHANNELS + 1)]
    draw_age_group = synth._zipf_draw(rng, synth.AGE_GROUPS)
    draw_city = synth._zipf_draw(rng, synth.CITIES)
    customer_rows = [[cid, draw_age_group(), draw_city()] for cid in customer_ids]
    names = synth._product_names(spec.n_products)
    categories = synth.CATEGORIES
    product_rows = [[pid, names[i], categories[i % len(categories)]] for i, pid in enumerate(product_ids)]
    time_rows = [[tid, f"{synth.MONTHS[i % 12]} {1998 + i // 12}", str(1998 + i // 12)]
                 for i, tid in enumerate(time_ids)]
    types = synth.CHANNEL_TYPES
    channel_rows = [[chid, f"{types[i % len(types)]} {i // len(types) + 1}", types[i % len(types)]]
                    for i, chid in enumerate(channel_ids)]
    draw_customer = synth._zipf_draw(rng, customer_ids)
    draw_product = synth._zipf_draw(rng, product_ids)
    draw_time = synth._zipf_draw(rng, time_ids)
    draw_channel = synth._zipf_draw(rng, channel_ids)
    tid_width = max(5, len(str(max(spec.n_fact_rows, 1))))
    fact_rows = []
    basket = 0
    while len(fact_rows) < spec.n_fact_rows:
        basket += 1
        tid = f"TX{basket:0{tid_width}d}"
        customer = draw_customer()
        time_id = draw_time()
        channel = draw_channel()
        lines = min(rng.randint(1, synth.MAX_BASKET_LINES), spec.n_fact_rows - len(fact_rows))
        for _ in range(lines):
            fact_rows.append([tid, customer, draw_product(), time_id, channel])
    out.mkdir(parents=True)
    whole_text_csv(out / "customer.csv", ["customer_id", "age_group", "city"], customer_rows)
    whole_text_csv(out / "product.csv", ["product_id", "product_name", "category"], product_rows)
    whole_text_csv(out / "times.csv", ["time_id", "month", "year"], time_rows)
    whole_text_csv(out / "channel.csv", ["channel_id", "channel_name", "channel_type"], channel_rows)
    whole_text_csv(out / "fact.csv", ["tid", "customer_id", "product_id", "time_id", "channel_id"], fact_rows)
    return {name: out / f"{name}.csv" for name in (*synth.DIMENSION_TABLES, "fact")}


BLOCK = synth._BLOCK_ROWS


# fact.csv holds a header and then the rows, so each size lands differently
# against the block edges: no rows, one, a block of lines, a block of rows
@pytest.mark.parametrize("rows", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3])
def test_streamed_files_match_whole_text_ones_at_block_edges(rows, tmp_path):
    spec = SynthSpec(seed=rows, n_fact_rows=rows)
    assert read_all(generate_sales(spec, tmp_path / "streamed")) == read_all(
        whole_text_sales(spec, tmp_path / "whole"))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    rows=st.integers(0, 400),
    n_products=st.integers(1, 250),
    block=st.integers(1, 70),
)
@example(seed=3, rows=300, n_products=1, block=7)
@example(seed=4, rows=300, n_products=200, block=16)
def test_streamed_files_match_whole_text_ones(seed, rows, n_products, block):
    spec = SynthSpec(seed=seed, n_fact_rows=rows, n_products=n_products)
    with tempfile.TemporaryDirectory() as tmp, patch.object(synth, "_BLOCK_ROWS", block):
        streamed = read_all(generate_sales(spec, Path(tmp, "streamed")))
        assert streamed == read_all(whole_text_sales(spec, Path(tmp, "whole")))


def test_cell_breaking_the_dialect_in_a_late_block_keeps_the_old_fact(tmp_path, monkeypatch):
    spec = SynthSpec(seed=1, n_fact_rows=3 * BLOCK)
    old = generate_sales(spec, tmp_path)["fact"].read_bytes()
    real_draw = synth._zipf_draw
    tmp_size_at_bad_cell = []

    def draw_bad_product_late(rng, population):
        draw = real_draw(rng, population)
        if population[0] != "P001":
            return draw
        draws = count()

        def product():
            if next(draws) < 2 * BLOCK + 5:
                return draw()
            tmp_size_at_bad_cell.append((tmp_path / ".fact.csv.tmp").stat().st_size)
            return "a,b"
        return product

    monkeypatch.setattr(synth, "_zipf_draw", draw_bad_product_late)
    with pytest.raises(SchemaError, match="generated cells for fact.csv break the CSV dialect"):
        generate_sales(spec, tmp_path)
    # the bad cell was drawn after the first blocks had gone to disk
    assert tmp_size_at_bad_cell[0] > 0
    assert not (tmp_path / ".fact.csv.tmp").exists()
    assert (tmp_path / "fact.csv").read_bytes() == old
