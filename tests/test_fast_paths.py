"""Each linear fast path against the quadratic code it replaced.

The oracles are the previous implementations: ``gen_rules`` testing every
listed pair set against every other, and bit vectors built by OR-ing
``1 << j`` into an int once per set bit.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from starminer.datamodel import (
    AttributeSpec,
    BitmapTable,
    Item,
    RelationalTable,
    bitmap_encode,
)
from starminer.errors import DataError
from starminer.mapcode import DecodedItemset, MapCodeRegistry, transform_map_code
from starminer.mining import (
    MiningStats,
    TransactionView,
    build_item_extents,
    exact_fraction,
    fi_gen,
)
from starminer.rules import AssociationRule, DimensionPolicy, gen_rules


# --- oracles ----------------------------------------------------------------

def scan_gen_rules(frequent, minconf, policy):
    conf_min = exact_fraction(minconf)
    chosen = {}
    order = []
    for itemset in frequent:
        key = itemset.pair_set
        prev = chosen.get(key)
        if prev is None:
            chosen[key] = itemset
            order.append(key)
        elif itemset.support_count > prev.support_count:
            chosen[key] = itemset

    rules = []
    for fkey in order:
        full = chosen[fkey]
        if full.level < 2 or not policy.allows(full.pairs):
            continue
        for akey, ante in chosen.items():
            if not (akey < fkey):
                continue
            if ante.support_count < full.support_count:
                raise DataError("frequent list is corrupt")
            if Fraction(full.support_count, ante.support_count) < conf_min:
                continue
            rules.append(
                AssociationRule(
                    antecedent=tuple(p for p in full.pairs if p in akey),
                    consequent=tuple(p for p in full.pairs if p not in akey),
                    support_count=full.support_count,
                    antecedent_count=ante.support_count,
                    support=full.support,
                    confidence=full.support_count / ante.support_count,
                )
            )
    rules.sort(
        key=lambda r: (
            -r.support,
            -r.confidence,
            tuple(sorted(r.antecedent)),
            tuple(sorted(r.consequent)),
        )
    )
    return rules


def shift_or_extents(view):
    index = {c: i for i, c in enumerate(view.code_universe)}
    columns = [0] * len(view.code_universe)
    for j, (_, codes) in enumerate(view.groups):
        for c in codes:
            columns[index[c]] |= 1 << j
    return tuple(columns)


def shift_or_bitmap_encode(table):
    items = []
    columns = []
    slot = {}
    for pos, spec in enumerate(table.schema):
        if spec.domain is not None:
            values = list(spec.domain)
        else:
            values = list(dict.fromkeys(row[pos] for row in table.rows))
        for v in values:
            slot[(spec.name, v)] = len(items)
            items.append(Item(id=len(items), attribute=spec.name, value=v))
            columns.append(0)
    for j, row in enumerate(table.rows):
        for pos, spec in enumerate(table.schema):
            columns[slot[(spec.name, row[pos])]] |= 1 << j
    return BitmapTable(items=tuple(items), columns=tuple(columns), universe_size=table.n_rows)


# --- gen_rules --------------------------------------------------------------

def outcome(fn, *args):
    try:
        return fn(*args)
    except DataError:
        return DataError


POLICIES = (
    DimensionPolicy(),
    DimensionPolicy.from_repeatable(["B"]),
    DimensionPolicy.from_repeatable(["A", "B"]),
)


def mined_multi_dim(rng):
    """Decoded itemsets of a random view whose codes each combine dimensions
    A and B, so pair sets hold up to twice as many pairs as codes."""
    registry = MapCodeRegistry(("A", "B"))
    codes = sorted(
        {registry.encode((f"a{rng.randrange(2)}", f"b{rng.randrange(4)}")) for _ in range(8)}
    )
    groups = [
        (f"g{j}", rng.sample(codes, rng.randint(1, len(codes))))
        for j in range(rng.randint(1, 30))
    ]
    view = TransactionView.from_groups(groups)
    itemsets, _ = fi_gen(view, rng.choice(["0.1", "0.2", "0.3", "0.5"]))
    return transform_map_code(itemsets, registry)


def uses_subset_lookup(decoded):
    """For each distinct pair set of two or more pairs: True where gen_rules
    looks up its subsets, False where it scans the list."""
    distinct = {d.pair_set for d in decoded}
    return [(1 << len(key)) - 2 < len(distinct) for key in distinct if len(key) >= 2]


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    minconf=st.sampled_from(["0.2", "0.5", "0.8", "1"]),
    policy=st.sampled_from(POLICIES),
)
def test_gen_rules_matches_scan_on_multi_dimension_codes(seed, minconf, policy):
    # a pair set contained in another need not come from a code subset, so a
    # mined list can still fail the count check; both must then raise
    decoded = mined_multi_dim(random.Random(seed))
    ours = outcome(gen_rules, decoded, minconf, policy)
    assert ours == outcome(scan_gen_rules, decoded, minconf, policy)


def test_multi_dimension_inputs_reach_both_paths():
    paths = set()
    for seed in range(40):
        paths.update(uses_subset_lookup(mined_multi_dim(random.Random(seed))))
    assert paths == {True, False}


@st.composite
def arbitrary_lists(draw):
    """Listed pair sets with unrelated counts: often corrupt, sometimes not."""
    universe = [("A", "a0"), ("A", "a1"), ("B", "b0"), ("B", "b1"), ("B", "b2")]
    n = 20
    pair_lists = draw(
        st.lists(
            st.lists(st.sampled_from(universe), min_size=1, max_size=5, unique=True),
            max_size=25,
        )
    )
    counts = draw(st.lists(st.integers(1, n), min_size=len(pair_lists), max_size=len(pair_lists)))
    return [
        DecodedItemset(pairs=tuple(p), support_count=c, support=c / n)
        for p, c in zip(pair_lists, counts)
    ]


@settings(max_examples=150, deadline=None)
@given(frequent=arbitrary_lists(), policy=st.sampled_from(POLICIES))
def test_gen_rules_matches_scan_on_arbitrary_lists(frequent, policy):
    ours = outcome(gen_rules, frequent, "0.5", policy)
    assert ours == outcome(scan_gen_rules, frequent, "0.5", policy)


def test_corrupt_list_raises_on_subset_lookup_path():
    # twenty unrelated singletons make the list longer than the 2^2 - 2
    # subsets of the pair, so its antecedents are looked up, not scanned
    filler = [
        DecodedItemset(pairs=(("item", f"x{i}"),), support_count=9, support=0.9)
        for i in range(20)
    ]
    frequent = filler + [
        DecodedItemset(pairs=(("item", "a"),), support_count=2, support=0.2),
        DecodedItemset(pairs=(("item", "a"), ("item", "b")), support_count=5, support=0.5),
    ]
    assert uses_subset_lookup(frequent) == [True]
    with pytest.raises(DataError, match="corrupt"):
        gen_rules(frequent, 0.5, DimensionPolicy.from_repeatable(["item"]))


# --- extents and bitmaps ----------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(n_groups=st.integers(0, 70), seed=st.integers(0, 10_000))
@example(n_groups=0, seed=0)
@example(n_groups=7, seed=1)
@example(n_groups=9, seed=2)
@example(n_groups=63, seed=3)
def test_build_item_extents_matches_shift_or(n_groups, seed):
    rng = random.Random(seed)
    codes = [f"{i:04d}" for i in range(1, rng.randint(1, 10) + 1)]
    view = TransactionView.from_groups(
        (f"g{j}", rng.sample(codes, rng.randint(0, len(codes)))) for j in range(n_groups)
    )
    stats = MiningStats()
    bm = build_item_extents(view, stats)
    assert bm.columns == shift_or_extents(view)
    assert [it.value for it in bm.items] == list(view.code_universe)
    assert bm.universe_size == n_groups
    assert stats.full_scans_of_groups == 1


@settings(max_examples=60, deadline=None)
@given(
    n_rows=st.integers(0, 40),
    n_attrs=st.integers(1, 3),
    with_domain=st.booleans(),
    seed=st.integers(0, 10_000),
)
@example(n_rows=0, n_attrs=2, with_domain=True, seed=0)
@example(n_rows=0, n_attrs=1, with_domain=False, seed=0)
def test_bitmap_encode_matches_shift_or(n_rows, n_attrs, with_domain, seed):
    rng = random.Random(seed)
    schema = []
    domains = []
    for a in range(n_attrs):
        domain = tuple(f"v{a}{i}" for i in range(rng.randint(1, 5)))
        domains.append(domain)
        schema.append(AttributeSpec(name=f"attr{a}", domain=domain if with_domain else None))
    rows = [tuple(rng.choice(d) for d in domains) for _ in range(n_rows)]
    table = RelationalTable(name="t", schema=tuple(schema), rows=tuple(rows))
    assert bitmap_encode(table) == shift_or_bitmap_encode(table)

