"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations

import pytest

from starminer.datamodel import AttributeSpec, RelationalTable, bitmap_encode
from starminer.mapcode import DecodedItemset, MapCodeRegistry, combine_dims, transform_map_code
from starminer.mining import (
    TransactionView,
    apriori_baseline,
    brute_force_frequent,
    fi_gen,
    group_by_key,
)
from starminer.pipeline import RunConfig, run_pipeline
from starminer.rules import DimensionPolicy, format_rule, gen_rules


@contextmanager
def criterion(number, name):
    ok = False
    try:
        yield
        ok = True
    finally:
        print(f"[criterion {number}] {name}: {'PASS' if ok else 'FAIL'}")


def fingerprint(itemsets):
    return sorted((fi.items, fi.support_count) for fi in itemsets)


# --- shared datasets -----------------------------------------------------------

@pytest.fixture(scope="module")
def dataset_bank():
    """100 seeded random transaction views (<= 12 codes, <= 200 groups) with
    minsup drawn from {0.05 .. 0.9}; every third view is small and dense so
    deep lattices occur."""
    bank = []
    for i in range(100):
        rng = random.Random(5000 + i)
        if i % 3 == 2:
            n_codes = rng.randint(2, 8)
            n_groups = rng.randint(4, 12)
            low = 1
        else:
            n_codes = rng.randint(2, 12)
            n_groups = rng.randint(1, 200)
            low = 0
        codes = [f"{k:04d}" for k in range(1, n_codes + 1)]
        groups = [
            (f"g{j}", rng.sample(codes, rng.randint(low, min(5 if low == 0 else n_codes, n_codes))))
            for j in range(n_groups)
        ]
        minsup = rng.choice(["0.05", "0.1", "0.2", "0.3", "0.45", "0.6", "0.75", "0.9"])
        bank.append((TransactionView.from_groups(groups), minsup))
    return bank


@pytest.fixture(scope="module")
def bank_mined(dataset_bank):
    return [fi_gen(view, minsup)[0] for view, minsup in dataset_bank]


@pytest.fixture(scope="module")
def table3_run(tmp_path_factory):
    """Benchmark pipeline at the default dimension sizes with 10,000 fact
    rows and minsup 0.45%, both algorithms."""
    out = tmp_path_factory.mktemp("table3")
    cfg = RunConfig(
        out_dir=str(out),
        synth_rows=10000,
        seed=20260808,
        joins=(("product_id", "product", "product_id"),),
        key_dim="tid",
        selected_dims=("product_name",),
        minsup="0.0045",
        minconf="0.6",
        algorithm="both",
        repeatable_dims=("product_name",),
    )
    start = time.perf_counter()
    result = run_pipeline(cfg)
    return result, time.perf_counter() - start


# --- criteria -------------------------------------------------------------------

def test_criterion_1_oracle_equivalence(dataset_bank, bank_mined):
    with criterion(1, "oracle equivalence over 100 seeded views"):
        start = time.perf_counter()
        for (view, minsup), mined in zip(dataset_bank, bank_mined):
            want = fingerprint(mined)
            assert fingerprint(apriori_baseline(view, minsup)[0]) == want
            assert fingerprint(brute_force_frequent(view, minsup)) == want
        elapsed = time.perf_counter() - start
        assert len(dataset_bank) >= 100
        assert elapsed < 30.0, f"equivalence suite took {elapsed:.1f}s"


def test_criterion_2_bitmap_reproduction():
    with criterion(2, "bitmap encoding of the 3-row age table"):
        table = RelationalTable(
            name="people",
            schema=(AttributeSpec("age", domain=("young", "middle", "old")),),
            rows=(("young",), ("middle",), ("middle",)),
        )
        bm = bitmap_encode(table)
        assert [it.name for it in bm.items] == ["age_young", "age_middle", "age_old"]
        assert bm.column_bits(0) == [1, 0, 0]
        assert bm.column_bits(1) == [0, 1, 1]
        assert bm.column_bits(2) == [0, 0, 0]
        row_patterns = [
            tuple((bm.columns[i] >> j) & 1 for i in range(3)) for j in range(3)
        ]
        assert row_patterns == [(1, 0, 0), (0, 1, 0), (0, 1, 0)]


def test_criterion_3_hybrid_rule_reproduction():
    with criterion(3, "beer/diaper rule at sup 30% conf 80%"):
        schema = tuple(
            AttributeSpec(a) for a in ("Customer", "Times", "Location", "Buy")
        )
        rows = []
        for i in range(12):
            rows.append((f"c{i:02d}", "1998", "Melb", "Beer"))
            rows.append((f"c{i:02d}", "1998", "Melb", "Diaper"))
        for i in range(12, 15):
            rows.append((f"c{i:02d}", "1998", "Melb", "Beer"))
        for i in range(15, 40):
            rows.append((f"c{i:02d}", "1997", "Sydney", "Bread"))
        general = RelationalTable(name="general", schema=schema, rows=tuple(rows))

        registry, md = combine_dims(general, "Customer", ["Times", "Location", "Buy"])
        view = group_by_key(md)
        assert view.n_groups == 40
        itemsets, _ = fi_gen(view, "0.3")
        rules = gen_rules(
            transform_map_code(itemsets, registry),
            "0.8",
            DimensionPolicy(repeatable=["Buy"]),
        )
        target = [
            r
            for r in rules
            if r.antecedent == (("Times", "1998"), ("Location", "Melb"), ("Buy", "Beer"))
            and r.consequent == (("Buy", "Diaper"),)
        ]
        assert len(target) == 1
        assert target[0].support == 0.30
        assert target[0].confidence == 0.80
        assert format_rule(target[0]) == (
            'Times("1998") ∧ Location("Melb") ∧ Buy("Beer") → Buy("Diaper") '
            "{sup=30%, conf=80%}"
        )


def test_criterion_4_mapping_code_example():
    with criterion(4, "first combo coded 0001 and round-trips"):
        general = RelationalTable(
            name="general",
            schema=tuple(AttributeSpec(a) for a in ("Times", "Channel", "Product")),
            rows=(("Jan 1998", "Direct sales", "Men-Jeans"),),
        )
        registry, md = combine_dims(general, "Times", ["Channel", "Product"])
        assert registry.find(("Direct sales", "Men-Jeans")) == "0001"
        assert md.rows == (("Jan 1998", "0001"),)

        itemsets, _ = fi_gen(group_by_key(md), "1")
        [decoded] = transform_map_code(itemsets, registry)
        assert decoded.pairs == (
            ("Channel", "Direct sales"),
            ("Product", "Men-Jeans"),
        )
        assert decoded.support_count == 1
        assert registry.decode(registry.encode(("Direct sales", "Men-Jeans"))) == decoded.pairs


def test_criterion_5_scan_count_law(table3_run):
    with criterion(5, "scan counts at benchmark scale (10k fact rows, 0.45%)"):
        result, wall = table3_run
        assert wall < 60.0, f"benchmark took {wall:.1f}s"

        rshar, apriori = result.stats["rshar"], result.stats["apriori"]
        assert rshar.full_scans_of_groups == 1

        frequent_singles = sum(1 for fi in result.itemsets if fi.level == 1)
        if frequent_singles >= 2:  # a level-2 candidate set exists
            assert apriori.full_scans_of_groups >= 2

        assert result.report is not None and result.report.agreement is True
        per_algo = result.report.per_algorithm
        assert (
            per_algo["rshar"]["itemsets_per_level"]
            == per_algo["apriori"]["itemsets_per_level"]
        )
        speedup = apriori.elapsed / max(rshar.elapsed, 1e-9)
        print(
            f"  [criterion 5 detail] rshar scans=1, apriori scans="
            f"{apriori.full_scans_of_groups}, itemsets={len(result.itemsets)}, "
            f"wall speedup={speedup:.1f}x (reported, not asserted)"
        )


def test_criterion_6_anti_monotonicity(bank_mined, table3_run):
    with criterion(6, "anti-monotonicity of all emitted itemsets"):
        result, _ = table3_run
        collections = list(bank_mined) + [result.itemsets]
        for itemsets in collections:
            counts = {fi.items: fi.support_count for fi in itemsets}
            for items, count in counts.items():
                for size in range(1, len(items)):
                    for sub in combinations(items, size):
                        assert sub in counts, f"missing subset {sub} of {items}"
                        assert counts[sub] >= count


def test_criterion_7_rule_soundness_and_completeness(dataset_bank, bank_mined):
    with criterion(7, "rules equal brute-force split enumeration"):
        policy = DimensionPolicy(repeatable=["item"])
        for (view, minsup), mined in zip(dataset_bank, bank_mined):
            decoded = [
                DecodedItemset(
                    pairs=tuple(("item", c) for c in fi.items),
                    support_count=fi.support_count,
                    support=fi.support,
                )
                for fi in mined
            ]
            count_cache = {}

            def recount(items):
                key = frozenset(items)
                if key not in count_cache:
                    count_cache[key] = sum(
                        1 for _, codes in view.groups if key <= codes
                    )
                return count_cache[key]

            for minconf in ("0.3", "0.5", "0.8", "1"):
                got = {
                    (
                        frozenset(v for _, v in r.antecedent),
                        frozenset(v for _, v in r.consequent),
                        r.support_count,
                        r.antecedent_count,
                    )
                    for r in gen_rules(decoded, minconf, policy)
                }
                conf_min = Fraction(minconf)
                want = set()
                for fi in mined:
                    if fi.level < 2:
                        continue
                    full_count = recount(fi.items)
                    for size in range(1, fi.level):
                        for ante in combinations(fi.items, size):
                            ante_count = recount(ante)
                            if Fraction(full_count, ante_count) >= conf_min:
                                cons = frozenset(fi.items) - frozenset(ante)
                                want.add(
                                    (frozenset(ante), cons, full_count, ante_count)
                                )
                assert got == want


def test_criterion_8_determinism(tmp_path):
    with criterion(8, "byte-identical reruns and parallel equivalence"):
        def run(name, workers):
            cfg = RunConfig(
                out_dir=str(tmp_path / name),
                synth_rows=1500,
                seed=4242,
                joins=(("product_id", "product", "product_id"),),
                key_dim="tid",
                selected_dims=("product_name",),
                minsup="0.01",
                minconf="0.5",
                algorithm="both",
                repeatable_dims=("product_name",),
                workers=workers,
            )
            result = run_pipeline(cfg)
            return {name_: path.read_bytes() for name_, path in result.files.items()}

        first = run("first", 1)
        second = run("second", 1)
        parallel = run("parallel", 4)
        assert set(first) == set(second) == set(parallel)
        assert first == second
        assert first == parallel
        # sanity: the run actually produced mining output
        assert any(first["itemsets.jsonl"]), "expected non-empty itemsets"
        json.loads(first["bench_report.json"].decode("utf-8"))
