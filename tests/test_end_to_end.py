"""Differential checks that cross module boundaries: random general tables
mined through combine/group/mine/decode and verified by direct counting."""

import random
from itertools import combinations

from starminer.datamodel import AttributeSpec, RelationalTable
from starminer.ingest import load_csv
from starminer.mapcode import combine_dims, transform_map_code
from starminer.mining import brute_force_frequent, fi_gen, group_by_key
from starminer.rules import DimensionPolicy, gen_rules
from starminer.synth import SynthSpec, generate_sales


def random_general_table(rng, n_rows):
    keys = [f"k{i}" for i in range(rng.randint(1, 8))]
    d1_values = [f"x{i}" for i in range(rng.randint(1, 3))]
    d2_values = [f"y{i}" for i in range(rng.randint(1, 3))]
    schema = tuple(AttributeSpec(a) for a in ("key", "d1", "d2"))
    rows = tuple(
        (rng.choice(keys), rng.choice(d1_values), rng.choice(d2_values))
        for _ in range(n_rows)
    )
    return RelationalTable(name="general", schema=schema, rows=rows)


def direct_combo_groups(table):
    """Oracle: key -> set of (d1, d2) value tuples, straight off the rows."""
    groups = {}
    for key, v1, v2 in table.rows:
        groups.setdefault(key, set()).add((v1, v2))
    return groups


def test_mined_supports_match_direct_combo_counting():
    for seed in range(30):
        rng = random.Random(7000 + seed)
        table = random_general_table(rng, rng.randint(0, 40))
        registry, md = combine_dims(table, "key", ["d1", "d2"])
        view = group_by_key([md])
        oracle = direct_combo_groups(table)

        assert view.n_groups == len(oracle)
        itemsets, _ = fi_gen(view, "0.25")
        for fi in itemsets:
            combos = {
                tuple(v for _, v in registry.decode(code)) for code in fi.items
            }
            direct = sum(1 for had in oracle.values() if combos <= had)
            assert fi.support_count == direct


def test_decoded_pairs_follow_code_and_dimension_order():
    rng = random.Random(11)
    table = random_general_table(rng, 30)
    registry, md = combine_dims(table, "key", ["d1", "d2"])
    itemsets, _ = fi_gen(group_by_key([md]), "0.2")
    for fi, decoded in zip(itemsets, transform_map_code(itemsets, registry)):
        expanded = []
        for code in fi.items:
            for pair in registry.decode(code):
                if pair not in expanded:
                    expanded.append(pair)
        assert list(decoded.pairs) == expanded


def test_rule_counts_recountable_on_the_view():
    # soundness: every rule's two counts equal direct containment counts of
    # the code sets its sides decode from
    rng = random.Random(23)
    table = random_general_table(rng, 60)
    registry, md = combine_dims(table, "key", ["d1", "d2"])
    view = group_by_key([md])
    itemsets, _ = fi_gen(view, "0.2")
    decoded = transform_map_code(itemsets, registry)
    policy = DimensionPolicy(repeatable=["d1", "d2"])
    pair_sets_to_codes = {
        d.pair_set: frozenset(fi.items) for fi, d in zip(itemsets, decoded)
    }

    def count(codes):
        return sum(1 for _, had in view.groups if codes <= had)

    for rule in gen_rules(decoded, "0.3", policy):
        full = frozenset(rule.antecedent) | frozenset(rule.consequent)
        ante_codes = pair_sets_to_codes[frozenset(rule.antecedent)]
        full_codes = pair_sets_to_codes[full]
        assert rule.antecedent_count == count(ante_codes)
        assert rule.support_count == count(full_codes)
        assert rule.support_count / rule.antecedent_count == rule.confidence


def test_synthetic_files_reload_cleanly():
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        paths = generate_sales(SynthSpec(seed=31, n_fact_rows=500), tmp)
        fact = load_csv(
            paths["fact"],
            tuple(
                AttributeSpec(a)
                for a in ("tid", "customer_id", "product_id", "time_id", "channel_id")
            ),
        )
        assert fact.n_rows == 500
        product = load_csv(
            paths["product"],
            tuple(AttributeSpec(a) for a in ("product_id", "product_name", "category")),
        )
        assert product.n_rows == 50
