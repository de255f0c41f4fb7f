import random
from fractions import Fraction
from itertools import combinations

import pytest

from starminer.errors import DataError
from starminer.mapcode import DecodedItemset, MapCodeRegistry, transform_map_code
from starminer.mining import TransactionView, brute_force_frequent, fi_gen
from starminer.rules import AssociationRule, DimensionPolicy, format_rule, gen_rules


def decoded(pairs, count, support):
    return DecodedItemset(pairs=tuple(pairs), support_count=count, support=support)


def beer_diaper_setup():
    """40 customer groups: 12 buy beer and diaper, 3 more buy only beer,
    25 buy something unrelated. All in Melb during 1998 except the filler."""
    registry = MapCodeRegistry(("Times", "Location", "Buy"))
    beer = registry.encode(("1998", "Melb", "Beer"))
    diaper = registry.encode(("1998", "Melb", "Diaper"))
    filler = registry.encode(("1997", "Sydney", "Bread"))
    groups = []
    for i in range(12):
        groups.append((f"c{i}", {beer, diaper}))
    for i in range(12, 15):
        groups.append((f"c{i}", {beer}))
    for i in range(15, 40):
        groups.append((f"c{i}", {filler}))
    return registry, TransactionView.from_groups(groups)


def test_beer_diaper_rule_support_30_confidence_80():
    registry, view = beer_diaper_setup()
    itemsets, _ = fi_gen(view, "0.3")
    rules = gen_rules(
        transform_map_code(itemsets, registry),
        "0.8",
        DimensionPolicy.from_repeatable(["Buy"]),
    )
    target = [
        r
        for r in rules
        if r.antecedent
        == (("Times", "1998"), ("Location", "Melb"), ("Buy", "Beer"))
        and r.consequent == (("Buy", "Diaper"),)
    ]
    assert len(target) == 1
    rule = target[0]
    assert rule.support == 12 / 40 == 0.30
    assert rule.confidence == 12 / 15 == 0.80
    assert format_rule(rule) == (
        'Times("1998") ∧ Location("Melb") ∧ Buy("Beer") → Buy("Diaper") '
        "{sup=30%, conf=80%}"
    )
    # the reverse split (diaper buyers always bought beer) is the only other
    # rule, and its higher confidence sorts it first
    assert len(rules) == 2
    assert rules[0].consequent == (("Buy", "Beer"),)
    assert rules[0].confidence == 1.0


def test_singletons_yield_no_rules():
    frequent = [
        decoded([("Buy", "Beer")], 10, 0.5),
        decoded([("Buy", "Diaper")], 8, 0.4),
    ]
    assert gen_rules(frequent, 0.5) == []


def test_minconf_one_keeps_only_exact_rules():
    frequent = [
        decoded([("item", "a")], 4, 0.4),
        decoded([("item", "b")], 6, 0.6),
        decoded([("item", "a"), ("item", "b")], 4, 0.4),
    ]
    rules = gen_rules(frequent, 1.0, DimensionPolicy.from_repeatable(["item"]))
    assert len(rules) == 1
    assert rules[0].antecedent == (("item", "a"),)
    assert rules[0].confidence == 1.0


@pytest.mark.parametrize("minconf", ["0.6", 0.6, Fraction(3, 5)])
def test_confidence_equal_to_minconf_is_kept(minconf):
    frequent = [
        decoded([("item", "a")], 5, 0.5),
        decoded([("item", "b")], 10, 1.0),
        decoded([("item", "a"), ("item", "b")], 3, 0.3),
    ]
    policy = DimensionPolicy.from_repeatable(["item"])
    rules = gen_rules(frequent, minconf, policy)
    # a -> b has confidence exactly 3/5; b -> a has 3/10
    assert [(r.antecedent, r.support_count, r.antecedent_count) for r in rules] == [
        ((("item", "a"),), 3, 5)
    ]
    assert gen_rules(frequent, "0.6000001", policy) == []


def test_single_policy_suppresses_repeated_dimension():
    frequent = [
        decoded([("Times", "1997")], 6, 0.6),
        decoded([("Times", "1998")], 5, 0.5),
        decoded([("Times", "1997"), ("Times", "1998")], 4, 0.4),
    ]
    assert gen_rules(frequent, 0.5) == []
    allowed = gen_rules(frequent, 0.5, DimensionPolicy.from_repeatable(["Times"]))
    assert len(allowed) == 2


def test_missing_antecedent_subsets_are_skipped_not_errors():
    # a combined-dimension code expands to pairs with no decodable subsets
    frequent = [decoded([("Channel", "Direct"), ("Product", "Jeans")], 5, 0.5)]
    assert gen_rules(frequent, 0.5) == []


def test_corrupt_frequent_list_raises():
    frequent = [
        decoded([("item", "a")], 2, 0.2),
        decoded([("item", "a"), ("item", "b")], 5, 0.5),
    ]
    with pytest.raises(DataError, match="corrupt"):
        gen_rules(frequent, 0.5, DimensionPolicy.from_repeatable(["item"]))


@pytest.mark.parametrize("bad", [0, -0.5, 1.01])
def test_minconf_out_of_range(bad):
    with pytest.raises(ValueError):
        gen_rules([], bad)


def test_format_rule_single_predicate_sides():
    rule = AssociationRule(
        antecedent=(("buys", "laptop"),),
        consequent=(("buys", "b/w printer"),),
        support_count=2,
        antecedent_count=4,
        support=0.2,
        confidence=0.5,
    )
    assert format_rule(rule) == (
        'buys("laptop") → buys("b/w printer") {sup=20%, conf=50%}'
    )


def test_format_rule_rounds_to_two_decimals_and_trims():
    rule = AssociationRule(
        antecedent=(("item", "a"),),
        consequent=(("item", "b"),),
        support_count=1,
        antecedent_count=3,
        support=1 / 3,
        confidence=1 / 3,
    )
    assert "sup=33.33%" in format_rule(rule)
    assert "conf=33.33%" in format_rule(rule)


def test_rule_invariants_enforced():
    with pytest.raises(DataError):
        AssociationRule(
            antecedent=(("a", "x"),),
            consequent=(("a", "x"),),
            support_count=1,
            antecedent_count=1,
            support=0.5,
            confidence=1.0,
        )
    with pytest.raises(DataError):
        AssociationRule(
            antecedent=(),
            consequent=(("a", "x"),),
            support_count=1,
            antecedent_count=1,
            support=0.5,
            confidence=1.0,
        )


# --- completeness against brute-force enumeration --------------------------------


def identity_decode(itemsets):
    return [
        decoded([("item", c) for c in fi.items], fi.support_count, fi.support)
        for fi in itemsets
    ]


def brute_rules(view, minsup, minconf):
    """All (A -> F\\A) splits of brute-force frequent itemsets, with supports
    recounted directly on the groups."""
    conf_min = Fraction(str(minconf))
    frequent = brute_force_frequent(view, minsup)

    def count(items):
        s = frozenset(items)
        return sum(1 for _, codes in view.groups if s <= codes)

    out = set()
    for fi in frequent:
        if fi.level < 2:
            continue
        full_count = count(fi.items)
        for size in range(1, fi.level):
            for ante in combinations(fi.items, size):
                ante_count = count(ante)
                if Fraction(full_count, ante_count) >= conf_min:
                    cons = tuple(c for c in fi.items if c not in ante)
                    out.add((frozenset(ante), frozenset(cons), full_count, ante_count))
    return out


def normalize(rules):
    return {
        (
            frozenset(v for _, v in r.antecedent),
            frozenset(v for _, v in r.consequent),
            r.support_count,
            r.antecedent_count,
        )
        for r in rules
    }


@pytest.mark.parametrize("minconf", ["0.3", "0.5", "0.8", "1"])
def test_rules_complete_against_brute_force(minconf):
    policy = DimensionPolicy.from_repeatable(["item"])
    for seed in range(20):
        rng = random.Random(42 + seed)
        n_codes = rng.randint(2, 6)
        codes = [f"{i:04d}" for i in range(1, n_codes + 1)]
        view = TransactionView.from_groups(
            (f"g{j}", rng.sample(codes, rng.randint(0, n_codes)))
            for j in range(rng.randint(1, 24))
        )
        itemsets, _ = fi_gen(view, "0.2")
        got = normalize(gen_rules(identity_decode(itemsets), minconf, policy))
        want = brute_rules(view, "0.2", minconf)
        assert got == want


def test_confidence_monotone_as_antecedent_grows():
    # within one frequent itemset, moving a pair into the antecedent can only
    # keep or raise confidence
    rng = random.Random(7)
    codes = ["0001", "0002", "0003", "0004"]
    view = TransactionView.from_groups(
        (f"g{j}", rng.sample(codes, rng.randint(0, 4))) for j in range(30)
    )
    itemsets, _ = fi_gen(view, "0.1")
    rules = gen_rules(
        identity_decode(itemsets), "0.3", DimensionPolicy.from_repeatable(["item"])
    )
    by_split = {
        (frozenset(r.antecedent), frozenset(r.antecedent) | frozenset(r.consequent)):
            r.confidence
        for r in rules
    }
    for (ante, full), conf in by_split.items():
        for (other_ante, other_full), other_conf in by_split.items():
            if full == other_full and ante < other_ante:
                assert other_conf >= conf
