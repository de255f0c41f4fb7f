"""Each linear fast path against the quadratic code it replaced.

The oracles are the previous implementations: ``gen_rules`` testing every
listed pair set against every other, bit vectors built by OR-ing ``1 << j``
into an int once per set bit, apriori testing every candidate against every
group, and candidate generation materialising every joined tuple before
testing its subsets. The depth-first ``fi_gen`` is held to apriori's
level-wise walk, and its memory to the level-wise bitmap walk it replaced.
"""

import random
import sys
import tracemalloc
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from starminer import mining
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
    FrequentItemset,
    MiningStats,
    TransactionView,
    apriori_baseline,
    build_item_extents,
    exact_fraction,
    fi_gen,
    support_threshold,
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

    multi_dimension = len({d for key in chosen for d, _ in key}) > 1
    rules = []
    for fkey in order:
        full = chosen[fkey]
        if full.level < 2 or not policy.allows(full.pairs):
            continue
        for akey, ante in chosen.items():
            if not (akey < fkey):
                continue
            if ante.support_count < full.support_count:
                if multi_dimension:
                    continue
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


def apriori_join(prev):
    """Merge sorted (k-1)-itemsets sharing a (k-2)-prefix into k-candidates."""
    out = []
    n = len(prev)
    i = 0
    while i < n:
        prefix = prev[i][:-1]
        block_end = i + 1
        while block_end < n and prev[block_end][:-1] == prefix:
            block_end += 1
        for a in range(i, block_end):
            for b in range(a + 1, block_end):
                out.append(prev[a] + (prev[b][-1],))
        i = block_end
    return out


def prune(candidates, prev_frequent):
    """Drop candidates with an infrequent (k-1)-subset; return survivors and
    the number pruned."""
    kept = []
    pruned = 0
    for cand in candidates:
        if all(cand[:i] + cand[i + 1 :] in prev_frequent for i in range(len(cand))):
            kept.append(cand)
        else:
            pruned += 1
    return kept, pruned


def loop_apriori(view, minsup):
    stats = MiningStats()
    n = view.n_groups
    threshold = support_threshold(minsup, n)
    group_sets = [codes for _, codes in view.groups]
    result = []
    singles = list(view.code_universe)
    stats.candidates_generated += len(singles)
    current = []
    if singles:
        stats.full_scans_of_groups += 1
        for c in singles:
            count = sum(1 for codes in group_sets if c in codes)
            if count >= threshold:
                current.append((c,))
                result.append(FrequentItemset(items=(c,), support_count=count, support=count / n))
    k = 2
    while current:
        joined = apriori_join(current)
        stats.candidates_generated += len(joined)
        candidates, pruned = prune(joined, set(current))
        stats.candidates_pruned += pruned
        if not candidates:
            break
        stats.full_scans_of_groups += 1
        cand_sets = [(cand, frozenset(cand)) for cand in candidates]
        counts = {cand: 0 for cand in candidates}
        for codes in group_sets:
            if len(codes) < k:
                continue
            for cand, cset in cand_sets:
                if cset <= codes:
                    counts[cand] += 1
        current = [cand for cand in candidates if counts[cand] >= threshold]
        result.extend(
            FrequentItemset(items=cand, support_count=counts[cand], support=counts[cand] / n)
            for cand in current
        )
        k += 1
    return result, stats


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
    DimensionPolicy(repeatable=["B"]),
    DimensionPolicy(repeatable=["A", "B"]),
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
    # a pair set contained in another need not come from a code subset, so
    # its count can be lower; a mined list must still never raise
    decoded = mined_multi_dim(random.Random(seed))
    assert gen_rules(decoded, minconf, policy) == scan_gen_rules(decoded, minconf, policy)


def test_multi_dimension_inputs_reach_both_paths():
    paths = set()
    for seed in range(40):
        paths.update(uses_subset_lookup(mined_multi_dim(random.Random(seed))))
    assert paths == {True, False}


@st.composite
def arbitrary_lists(draw):
    """Listed pair sets with unrelated counts: often corrupt, sometimes not.

    Over one dimension a corrupt list must raise; over two, a subset with the
    lower count is skipped."""
    universe = draw(
        st.sampled_from(
            [
                [("A", "a0"), ("A", "a1"), ("B", "b0"), ("B", "b1"), ("B", "b2")],
                [("B", "b0"), ("B", "b1"), ("B", "b2"), ("B", "b3"), ("B", "b4")],
            ]
        )
    )
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
        gen_rules(frequent, 0.5, DimensionPolicy(repeatable=["item"]))


# --- apriori level counting ------------------------------------------------

@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    minsup=st.sampled_from(["0.05", "0.1", "0.2", "0.3", "0.5", "1"]),
)
@example(seed=0, minsup="0.05")
def test_apriori_matches_candidate_loop(seed, minsup):
    # most groups are narrow, as in the benchmark; a few carry nearly every
    # code, so levels with few candidates send them to the containment loop
    rng = random.Random(seed)
    codes = [f"{i:04d}" for i in range(1, rng.randint(1, 14) + 1)]
    groups = []
    for j in range(rng.randint(0, 40)):
        width = rng.randint(0, len(codes)) if rng.random() < 0.15 else rng.randint(0, 3)
        groups.append((f"g{j}", rng.sample(codes, min(width, len(codes)))))
    view = TransactionView.from_groups(groups)
    itemsets, stats = apriori_baseline(view, minsup)
    expected, expected_stats = loop_apriori(view, minsup)
    assert itemsets == expected
    assert stats.counters() == expected_stats.counters()


def test_count_level_enumerates_narrow_groups_and_scans_wide_ones(monkeypatch):
    enumerated = []

    def spy(iterable, r):
        enumerated.append(tuple(iterable))
        return combinations(iterable, r)

    monkeypatch.setattr(mining, "combinations", spy)
    candidates = [("a", "b", "c"), ("a", "b", "d"), ("a", "c", "d"), ("c", "d", "e")]
    # each code set with its number of groups: x is in no candidate; "abcdx"
    # has 4 live codes and as many 3-subsets as there are candidates, the
    # wide set 10, and "ab" is too short
    weighted = [(tuple("abc"), 2), (tuple("abcdx"), 5), (tuple("abcdefg"), 3), (tuple("ab"), 7)]
    counts = mining._count_level(weighted, candidates, 3)
    assert enumerated == [("a", "b", "c"), ("a", "b", "c", "d")]
    assert counts == {("a", "b", "c"): 10, ("a", "b", "d"): 8, ("a", "c", "d"): 8, ("c", "d", "e"): 3}
    assert mining._count_level(weighted, [("a",), ("e",), ("x",)], 1) == {("a",): 17, ("e",): 3, ("x",): 5}


@st.composite
def level_candidates(draw):
    """A level k and a non-empty, sorted list of k-candidates over seven codes."""
    k = draw(st.integers(1, 4))
    return k, sorted(draw(st.sets(st.sampled_from(list(combinations("abcdefg", k))), min_size=1, max_size=12)))


@settings(max_examples=200, deadline=None)
@given(
    weighted=st.dictionaries(
        st.lists(st.sampled_from("abcdefg"), max_size=7, unique=True).map(lambda codes: tuple(sorted(codes))),
        st.integers(1, 4),
        max_size=8,
    ),
    level=level_candidates(),
)
# one narrow set enumerated, and one wide set tested against each candidate
@example(weighted={("a", "b", "c"): 3}, level=(3, [("a", "b", "c"), ("a", "b", "d")])).via("the enumeration path")
@example(weighted={tuple("abcdefg"): 2}, level=(2, [("a", "b"), ("c", "g")])).via("the wide-group path")
def test_weighted_count_level_counts_as_the_expanded_groups(weighted, level):
    k, candidates = level
    expanded = [codes for codes, w in weighted.items() for _ in range(w)]
    expected = {cand: sum(1 for codes in expanded if set(cand) <= set(codes)) for cand in candidates}
    assert mining._count_level(weighted.items(), candidates, k) == expected
    assert mining._count_level([(codes, 1) for codes in expanded], candidates, k) == expected


# --- candidate generation --------------------------------------------------

@st.composite
def frequent_families(draw):
    """A sorted, duplicate-free family of equal-size itemsets over a small
    universe, as one level of frequent sets. Random subsets of all size-s
    combinations leave many prefix classes whose sub-prefix classes are
    missing, and keep some classes whole."""
    size = draw(st.integers(1, 4))
    universe = "abcdefg"[: draw(st.integers(size, 7))]
    every = list(combinations(universe, size))
    keep = draw(st.lists(st.booleans(), min_size=len(every), max_size=len(every)))
    return [itemset for itemset, k in zip(every, keep) if k]


@settings(max_examples=300, deadline=None)
@given(prev=frequent_families())
@example(prev=[])
@example(prev=[("a",)])
# abcd needs d in the classes (a, c) and (b, c): (b, c) is missing
@example(prev=[("a", "b", "c"), ("a", "b", "d"), ("a", "c", "d")])
# abcd and abce keep every subset; abde has no ade or bde
@example(prev=[(*"abc",), (*"abd",), (*"abe",), (*"acd",), (*"ace",), (*"bcd",), (*"bce",)])
# abcd has bcd, the subset without a, but not acd, the one without b
@example(prev=[("a", "b", "c"), ("a", "b", "d"), ("b", "c", "d")])
def test_next_candidates_matches_join_then_prune(prev):
    joined = apriori_join(prev)
    kept, pruned = prune(joined, set(prev))
    assert mining._next_candidates(prev) == (kept, len(joined), pruned)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    minsup=st.sampled_from(["0.05", "0.1", "0.2", "0.3", "0.5", "1"]),
)
def test_both_miners_generate_and_prune_the_same_candidates(seed, minsup):
    rng = random.Random(seed)
    codes = [f"{i:04d}" for i in range(1, rng.randint(1, 10) + 1)]
    view = TransactionView.from_groups(
        (f"g{j}", rng.sample(codes, rng.randint(0, len(codes)))) for j in range(rng.randint(0, 40))
    )
    rshar, rshar_stats = fi_gen(view, minsup)
    apriori, apriori_stats = apriori_baseline(view, minsup)
    assert rshar == apriori
    # the scan counts differ by design: one for rshar, one per level for apriori
    scans = "full_scans_of_groups"
    rshar_counters = rshar_stats.counters()
    apriori_counters = apriori_stats.counters()
    assert rshar_counters.pop(scans) == 1
    assert apriori_counters.pop(scans) >= len({fi.level for fi in apriori})
    assert rshar_counters == apriori_counters


# --- the depth-first walk ---------------------------------------------------

def deep_view(rng):
    """12–16 codes over 30–60 groups, each code in a group with chance 0.3,
    and a planted set of 5–7 codes in every fourth group: at any minsup up
    to 0.25 the lattice reaches level 5 or more."""
    codes = [f"{i:02d}" for i in range(rng.randint(12, 16))]
    planted = rng.sample(codes, rng.randint(5, 7))
    groups = []
    for j in range(rng.randint(30, 60)):
        carried = {c for c in codes if rng.random() < 0.3}
        if j % 4 == 0:
            carried.update(planted)
        groups.append((f"g{j}", sorted(carried)))
    rng.shuffle(groups)
    return TransactionView.from_groups(groups)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    minsup=st.sampled_from(["0.05", "0.1", "0.15", "0.25"]),
)
def test_depth_first_walk_matches_the_levelwise_walk(seed, minsup):
    view = deep_view(random.Random(seed))
    rshar, rshar_stats = fi_gen(view, minsup)
    apriori, apriori_stats = apriori_baseline(view, minsup)
    assert max(fi.level for fi in apriori) >= 5
    assert rshar == apriori  # the same itemsets, supports and order
    for counter in ("candidates_generated", "candidates_pruned"):
        assert getattr(rshar_stats, counter) == getattr(apriori_stats, counter)


def levelwise_bitmap_miner(view, minsup):
    """The level-wise bitmap walk fi_gen replaced: every frequent set of a
    level keeps its mask while the next level is counted."""
    extents = build_item_extents(view)
    threshold = support_threshold(minsup, view.n_groups)
    masks = {(c,): m for c, m in extents.items() if m.bit_count() >= threshold}
    found = list(masks)
    while masks:
        candidates, _, _ = mining._next_candidates(list(masks))
        masks = {
            c: m for c in candidates if (m := masks[c[:-1]] & extents[c[-1]]).bit_count() >= threshold
        }
        found.extend(masks)
    return found


def traced(miner, *args):
    """A call's result, and its traced peak less what the result keeps alive."""
    tracemalloc.start()
    try:
        result = miner(*args)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - retained


def test_depth_first_walk_holds_masks_linear_in_codes():
    # 40 codes over 2,000 groups, each code in a group with chance 0.4: all
    # 780 pairs are frequent at minsup 0.1, and the 9,880 triples are not
    n_codes, n_groups = 40, 2000
    rng = random.Random(0)
    codes = [f"{i:02d}" for i in range(n_codes)]
    view = TransactionView.from_groups(
        (f"g{j}", [c for c in codes if rng.random() < 0.4]) for j in range(n_groups)
    )
    (itemsets, _), depth_first = traced(fi_gen, view, "0.1")
    found, levelwise = traced(levelwise_bitmap_miner, view, "0.1")
    assert [fi.items for fi in itemsets] == found
    assert max(len(items) for items in found) == 2
    # the extents and the masks of the classes on the path are a few times
    # n_codes masks; the tail sets and candidate lists fit in the rest
    bound = 16 * n_codes * sys.getsizeof((1 << n_groups) - 1)
    assert depth_first < bound
    # holding every frequent pair's mask while the triples are counted does not
    assert levelwise > bound


# --- extents and bitmaps ----------------------------------------------------

@st.composite
def views_with_infrequent_codes(draw):
    """A view over up to 30 groups and a minsup, with a code at exactly the
    support threshold, one a group short of it and one further below, beside
    codes of any support; repeated member indices included."""
    n = draw(st.integers(1, 30))
    common = ["0001", "0002", "0003", "0004", "0005", "0006"]
    members = {}
    for j in range(n):
        for code in draw(st.lists(st.sampled_from(common), max_size=5)):
            members.setdefault(code, []).append(j)
    minsup = draw(st.sampled_from(["0.1", "0.2", "0.34", "0.5", "0.9", "1"]))
    threshold = support_threshold(minsup, n)
    for code, count in (("0100", threshold), ("0101", threshold - 1), ("0102", draw(st.integers(0, threshold - 1)))):
        if count:
            members[code] = draw(st.permutations(range(n)))[:count]
    return TransactionView(keys=[f"g{j}" for j in range(n)], members=members), minsup


@settings(max_examples=200, deadline=None)
@given(views_with_infrequent_codes(), st.integers(0, 31))
def test_build_item_extents_keeps_the_codes_that_reach_the_threshold(view_minsup, drawn):
    view, _ = view_minsup
    full = build_item_extents(view)
    assert tuple(full) == view.code_universe
    above_all = max(map(int.bit_count, full.values())) + 1
    for threshold in (0, 1, drawn, above_all):
        stats = MiningStats()
        kept = build_item_extents(view, stats, threshold)
        assert kept == {c: mask for c, mask in full.items() if mask.bit_count() >= threshold}
        assert list(kept) == [c for c in full if c in kept]
        assert stats.full_scans_of_groups == 1
    assert build_item_extents(view, None, above_all) == {}


@settings(max_examples=200, deadline=None)
@given(views_with_infrequent_codes())
def test_miners_agree_on_views_with_infrequent_codes(view_minsup):
    view, minsup = view_minsup
    threshold = support_threshold(minsup, view.n_groups)
    extents = build_item_extents(view, None, threshold)
    assert "0100" in extents and "0101" not in extents
    rshar, rshar_stats = fi_gen(view, minsup)
    apriori, apriori_stats = apriori_baseline(view, minsup)
    assert rshar == apriori == mining.brute_force_frequent(view, minsup)
    # every code is a level-1 candidate, frequent or not, and only the scans differ
    assert apriori_stats.counters() == loop_apriori(view, minsup)[1].counters()
    assert rshar_stats.counters() == {**apriori_stats.counters(), "full_scans_of_groups": 1}
    assert [fi.items for fi in rshar if fi.level == 1] == [(c,) for c in extents]


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
    extents = build_item_extents(view, stats)
    assert tuple(extents.values()) == shift_or_extents(view)
    assert tuple(extents) == view.code_universe
    assert all(mask < 1 << n_groups for mask in extents.values())
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

