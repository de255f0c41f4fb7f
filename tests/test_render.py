"""The artifact lines the pipeline joins from cached fragments, against the
JSON encoder and the formatters they replaced; and each stage's unchecked
constructor against its public one.

The pipeline renders each distinct pair, code, percentage and float once per
run, so every drawn itemset and rule of one example goes through a single
renderer: a fragment cached under the wrong key shows on a later line.
"""

import json
import random
from itertools import chain

from hypothesis import example, given, settings
from hypothesis import strategies as st

from starminer.mapcode import DecodedItemset, MapCodeRegistry, transform_map_code
from starminer.mining import FrequentItemset, TransactionView, apriori_baseline, fi_gen
from starminer.pipeline import _Renderer
from starminer.rules import (
    AssociationRule,
    DimensionPolicy,
    format_pairs,
    format_percent,
    format_rule,
    gen_rules,
)

ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))

# --- oracles ----------------------------------------------------------------


def pairs_json(pairs):
    return [{"dimension": d, "value": v} for d, v in pairs]


def itemset_text(d):
    return f"{format_pairs(d.pairs)}  sup={format_percent(d.support)}% ({d.support_count})\n"


def itemset_json(fi, d):
    return ENCODER.encode({
        "items": pairs_json(d.pairs),
        "codes": list(fi.items),
        "level": d.level,
        "support_count": d.support_count,
        "support": d.support,
    }) + "\n"


def rule_json(r):
    return ENCODER.encode({
        "antecedent": pairs_json(r.antecedent),
        "consequent": pairs_json(r.consequent),
        "support_count": r.support_count,
        "antecedent_count": r.antecedent_count,
        "support": r.support,
        "confidence": r.confidence,
    }) + "\n"


def decode_checked(itemsets, registry):
    """Each code itemset decoded pair by pair and built through the public,
    checking constructor."""
    return [
        DecodedItemset(
            pairs=tuple(dict.fromkeys(chain.from_iterable(map(registry.decode, fi.items)))),
            support_count=fi.support_count,
            support=fi.support,
        )
        for fi in itemsets
    ]


# --- strategies -------------------------------------------------------------

SPECIAL = ["\\", "é", "\t", "\u2028", '"', "v"]
VALUES = st.sampled_from(SPECIAL + ["\\é\t\u2028"]) | st.text(max_size=5)
SUPPORTS = st.sampled_from([1.0, 1e-05, 1 / 3]) | st.floats(min_value=1e-12, max_value=1.0)
DIMENSIONS = st.sampled_from([("A",), ("A", "B"), ("dim\\é", "B")])


@st.composite
def registries(draw):
    """A registry over one or two dimensions whose combos draw on one value
    pool, so two dimensions often share a value."""
    registry = MapCodeRegistry(draw(DIMENSIONS))
    width = len(registry.selected_dims)
    for combo in draw(st.lists(st.tuples(*[VALUES] * width), min_size=1, max_size=8)):
        registry.encode(combo)
    return registry


@st.composite
def listings(draw):
    """A registry, code itemsets over it (several codes of one itemset may
    share a pair) and rules over its pairs."""
    registry = draw(registries())
    codes = registry.codes
    itemsets = [
        FrequentItemset(
            items=tuple(sorted(draw(st.sets(st.sampled_from(codes), min_size=1, max_size=4)))),
            support_count=draw(st.integers(1, 10**9)),
            support=draw(SUPPORTS),
        )
        for _ in range(draw(st.integers(1, 6)))
    ]
    pairs = list(dict.fromkeys(chain.from_iterable(map(registry.decode, codes))))
    rules = []
    if len(pairs) >= 2:
        for _ in range(draw(st.integers(0, 4))):
            chosen = draw(st.permutations(pairs))[: draw(st.integers(2, len(pairs)))]
            cut = draw(st.integers(1, len(chosen) - 1))
            support, confidence = sorted([draw(SUPPORTS), draw(SUPPORTS)])
            rules.append(AssociationRule(
                antecedent=tuple(chosen[:cut]),
                consequent=tuple(chosen[cut:]),
                support_count=draw(st.integers(1, 10**6)),
                antecedent_count=draw(st.integers(1, 10**6)),
                support=support,
                confidence=confidence,
            ))
    return registry, itemsets, rules


def shared_value_listing():
    """Two dimensions sharing the value ``v``, each in a code of its own
    and both in one two-code itemset."""
    registry = MapCodeRegistry(("A", "B"))
    first, second = registry.encode(("v", "x")), registry.encode(("y", "v"))
    itemsets = [
        FrequentItemset(items=(first,), support_count=3, support=1 / 3),
        FrequentItemset(items=(first, second), support_count=1, support=1e-05),
    ]
    rule = AssociationRule(
        antecedent=(("B", "v"),), consequent=(("A", "v"),),
        support_count=1, antecedent_count=1, support=1e-05, confidence=1.0,
    )
    return registry, itemsets, [rule]


# --- rendering --------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(listing=listings())
@example(listing=shared_value_listing())
def test_rendered_lines_match_the_encoder_and_formatters(listing):
    registry, itemsets, rules = listing
    decoded = transform_map_code(itemsets, registry)
    assert decoded == decode_checked(itemsets, registry)
    render = _Renderer()
    for fi, d in zip(itemsets, decoded):
        assert render.itemset_text(d) == itemset_text(d)
        assert render.itemset_json(fi, d) == itemset_json(fi, d)
    for r in rules:
        assert render.rule_text(r) == format_rule(r) + "\n"
        assert render.rule_json(r) == rule_json(r)


# --- unchecked constructors -------------------------------------------------


def checked(objects):
    """Each object rebuilt through its class's public constructor."""
    return [type(o)(**vars(o)) for o in objects]


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    dims=DIMENSIONS,
    minsup=st.sampled_from(["0.1", "0.2", "0.4"]),
    minconf=st.sampled_from(["0.2", "0.6", "1"]),
    repeatable=st.sampled_from([(), ("A",), ("A", "B")]),
)
def test_unchecked_constructors_build_what_the_public_ones_build(seed, dims, minsup, minconf, repeatable):
    rng = random.Random(seed)
    registry = MapCodeRegistry(dims)
    # a value pool shared by the dimensions, so codes often share a pair
    codes = sorted({registry.encode([f"v{rng.randrange(3)}" for _ in dims]) for _ in range(8)})
    groups = [(f"g{j}", rng.sample(codes, rng.randint(1, len(codes)))) for j in range(rng.randint(1, 25))]
    view = TransactionView.from_groups(groups)
    for mine in (fi_gen, apriori_baseline):
        itemsets, _ = mine(view, minsup)
        assert itemsets == checked(itemsets)
        decoded = transform_map_code(itemsets, registry)
        assert decoded == checked(decoded) == decode_checked(itemsets, registry)
        assert list(map(hash, decoded)) == list(map(hash, checked(decoded)))
        rules = gen_rules(decoded, minconf, DimensionPolicy(repeatable=repeatable))
        assert rules == checked(rules)
        assert list(map(hash, rules)) == list(map(hash, checked(rules)))
