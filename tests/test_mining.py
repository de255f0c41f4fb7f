import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starminer import mining
from starminer.errors import DataError
from starminer.mapcode import MdTable
from starminer.mining import (
    TransactionView,
    _count_slice,
    apriori_baseline,
    brute_force_frequent,
    build_item_extents,
    exact_fraction,
    fi_gen,
    group_by_key,
    support_threshold,
)

FOUR_GROUPS = TransactionView.from_groups(
    [
        ("T1", {"a", "b", "c"}),
        ("T2", {"a", "b"}),
        ("T3", {"a", "c"}),
        ("T4", {"b"}),
    ]
)

# brute-force over all 7 non-empty subsets of {a,b,c}, minsup 0.5 -> threshold 2
FOUR_GROUPS_EXPECTED = {
    ("a",): 3,
    ("b",): 3,
    ("c",): 2,
    ("a", "b"): 2,
    ("a", "c"): 2,
}


def by_items(itemsets):
    return {fi.items: fi.support_count for fi in itemsets}


# --- group_by_key -------------------------------------------------------------

def test_group_by_key_unions_codes_per_key():
    md = MdTable(keys=("t1", "t1", "t2"), codes=("0001", "0002", "0001"))
    view = group_by_key(md)
    assert view.groups == (
        ("t1", frozenset({"0001", "0002"})),
        ("t2", frozenset({"0001"})),
    )
    assert view.code_universe == ("0001", "0002")


def test_group_by_key_empty():
    view = group_by_key(MdTable(keys=(), codes=()))
    assert view.groups == ()
    assert view.code_universe == ()


def test_group_by_key_duplicate_pairs_keep_set_semantics():
    md = MdTable(keys=("t1", "t1"), codes=("0001", "0001"))
    view = group_by_key(md)
    assert view.groups == (("t1", frozenset({"0001"})),)


def test_view_derives_sorted_universe_and_rejects_duplicate_keys():
    view = TransactionView.from_groups([("t1", ["0002", "0001"]), ("t2", {"0003"})])
    assert view.code_universe == ("0001", "0002", "0003")
    with pytest.raises(DataError, match="duplicate key"):
        TransactionView.from_groups([("t1", {"0001"}), ("t1", {"0002"})])


# --- extents --------------------------------------------------------------------

def test_extents_read_off_groups():
    view = TransactionView.from_groups([("t1", {"a", "b"}), ("t2", {"a"})])
    assert build_item_extents(view) == {"a": 0b11, "b": 0b01}


def test_extents_empty_view():
    assert build_item_extents(TransactionView.from_groups([])) == {}


def test_extent_hand_construction():
    view = TransactionView.from_groups(
        [("g0", {"c"}), ("g1", set()), ("g2", set()), ("g3", {"c"})]
    )
    assert build_item_extents(view) == {"c": 0b1001}


def test_extents_count_one_scan():
    from starminer.mining import MiningStats

    stats = MiningStats()
    build_item_extents(FOUR_GROUPS, stats)
    assert stats.full_scans_of_groups == 1


# --- fi_gen -----------------------------------------------------------------------

def test_fi_gen_four_group_dataset():
    itemsets, stats = fi_gen(FOUR_GROUPS, 0.5)
    assert by_items(itemsets) == FOUR_GROUPS_EXPECTED
    assert stats.full_scans_of_groups == 1


def test_fi_gen_unanimity_at_minsup_one():
    # only itemsets contained in every group survive; none span all four here
    itemsets, _ = fi_gen(FOUR_GROUPS, 1.0)
    assert itemsets == []
    view = TransactionView.from_groups(
        [("T1", {"a", "b"}), ("T2", {"a"}), ("T3", {"a", "b"})]
    )
    unanimous, _ = fi_gen(view, 1.0)
    assert by_items(unanimous) == {("a",): 3}


def test_fi_gen_empty_view():
    itemsets, stats = fi_gen(TransactionView.from_groups([]), 0.5)
    assert itemsets == []
    assert stats.full_scans_of_groups == 1


@pytest.mark.parametrize("bad", [0, -0.1, 1.2, "0", "1.5", "x", float("nan")])
def test_fi_gen_minsup_out_of_range(bad):
    with pytest.raises(ValueError, match=r"^minsup\b"):
        fi_gen(FOUR_GROUPS, bad)


def test_fi_gen_output_order_level_then_lex():
    itemsets, _ = fi_gen(FOUR_GROUPS, 0.5)
    keys = [(fi.level, fi.items) for fi in itemsets]
    assert keys == sorted(keys)


def test_fi_gen_parallel_matches_serial():
    rng = random.Random(3)
    codes = [f"{i:04d}" for i in range(1, 10)]
    view = TransactionView.from_groups(
        (f"g{j}", rng.sample(codes, rng.randint(0, 6))) for j in range(80)
    )
    serial, _ = fi_gen(view, 0.1, workers=1)
    parallel, _ = fi_gen(view, 0.1, workers=3)
    assert [(f.items, f.support_count) for f in serial] == [
        (f.items, f.support_count) for f in parallel
    ]


def test_fi_gen_pool_is_capped_at_the_cpu_count(monkeypatch):
    pools = []

    class SerialPool:
        # records the pool size and the slices; maps in the calling thread
        def __init__(self, max_workers):
            self.max_workers = max_workers
            self.slices = 0
            pools.append(self)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, slices):
            slices = list(slices)
            self.slices += len(slices)
            return map(fn, slices)

    monkeypatch.setattr(mining, "ThreadPoolExecutor", SerialPool)
    monkeypatch.setattr(mining.os, "cpu_count", lambda: 4)
    # 12 codes in every group: 66 candidates at level 2, enough to use the pool
    codes = [f"{i:04d}" for i in range(1, 13)]
    view = TransactionView.from_groups((f"g{j}", codes) for j in range(5))
    capped, _ = fi_gen(view, 1, workers=100_000)
    assert pools and all(p.max_workers == 4 and p.slices <= 4 for p in pools)
    serial, _ = fi_gen(view, 1)
    assert capped == serial


def test_count_slice_keeps_only_frequent_candidates_in_order():
    masks = {("a",): 0b1111, ("b",): 0b0111}
    singles = {"b": 0b0111, "c": 0b0001, "d": 0b1110}
    counted = _count_slice([("a", "b"), ("a", "c"), ("a", "d"), ("b", "d")], masks, singles, 2)
    assert counted == [(("a", "b"), 0b0111, 3), (("a", "d"), 0b1110, 3), (("b", "d"), 0b0110, 2)]


def test_exact_threshold_at_sub_percent_minsup():
    # 9 of 2000 groups carry x; 0.45% of 2000 is exactly 9
    groups = [(f"g{i}", {"x"} if i < 9 else {"y"}) for i in range(2000)]
    view = TransactionView.from_groups(groups)
    assert support_threshold("0.0045", 2000) == 9
    assert support_threshold(0.0045, 2000) == 9
    itemsets, _ = fi_gen(view, "0.0045")
    assert by_items(itemsets)[("x",)] == 9


# --- apriori baseline ---------------------------------------------------------------

def test_apriori_matches_fi_gen_on_four_groups():
    itemsets, stats = apriori_baseline(FOUR_GROUPS, 0.5)
    assert by_items(itemsets) == FOUR_GROUPS_EXPECTED
    assert stats.full_scans_of_groups == 2  # levels 1 and 2 had candidates


def test_apriori_minsup_above_max_single_support_scans_once():
    itemsets, stats = apriori_baseline(FOUR_GROUPS, 0.76)
    assert itemsets == []
    assert stats.full_scans_of_groups == 1


def test_apriori_three_levels_three_scans():
    # largest frequent itemset has size 3 -> exactly 3 scans, level-4 empty
    view = TransactionView.from_groups(
        [
            ("T1", {"a", "b", "c"}),
            ("T2", {"a", "b", "c"}),
            ("T3", {"a", "b", "c"}),
            ("T4", {"b"}),
        ]
    )
    itemsets, stats = apriori_baseline(view, 0.5)
    assert max(fi.level for fi in itemsets) == 3
    assert stats.full_scans_of_groups == 3


def test_apriori_empty_view_scans_zero():
    itemsets, stats = apriori_baseline(TransactionView.from_groups([]), 0.5)
    assert itemsets == []
    assert stats.full_scans_of_groups == 0


@pytest.mark.parametrize("bad", [0, 1.0001])
def test_apriori_minsup_out_of_range(bad):
    with pytest.raises(ValueError):
        apriori_baseline(FOUR_GROUPS, bad)


# --- brute force ------------------------------------------------------------------

def test_brute_force_four_groups():
    assert by_items(brute_force_frequent(FOUR_GROUPS, 0.5)) == FOUR_GROUPS_EXPECTED


def test_brute_force_single_group():
    view = TransactionView.from_groups([("t", {"a"})])
    assert by_items(brute_force_frequent(view, 0.01)) == {("a",): 1}
    assert by_items(brute_force_frequent(view, 1.0)) == {("a",): 1}


def test_brute_force_minsup_above_one_is_empty():
    assert brute_force_frequent(FOUR_GROUPS, 1.5) == []


def test_brute_force_universe_guard():
    view = TransactionView.from_groups([("t", {f"{i:04d}" for i in range(21)})])
    with pytest.raises(ValueError, match="20"):
        brute_force_frequent(view, 0.5)


# --- cross-checks and properties ------------------------------------------------------


def random_view(rng, max_codes=6, max_groups=15):
    n_codes = rng.randint(1, max_codes)
    codes = [f"{i:04d}" for i in range(1, n_codes + 1)]
    n_groups = rng.randint(0, max_groups)
    return TransactionView.from_groups(
        (f"g{j}", rng.sample(codes, rng.randint(0, n_codes))) for j in range(n_groups)
    )


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    minsup=st.sampled_from(["0.05", "0.1", "0.25", "0.5", "0.75", "1"]),
)
def test_oracle_equivalence_property(seed, minsup):
    view = random_view(random.Random(seed))
    a = by_items(fi_gen(view, minsup)[0])
    b = by_items(apriori_baseline(view, minsup)[0])
    c = by_items(brute_force_frequent(view, minsup))
    assert a == b == c


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_anti_monotonicity(seed):
    view = random_view(random.Random(seed))
    itemsets, _ = fi_gen(view, "0.2")
    counts = by_items(itemsets)
    for items, count in counts.items():
        for size in range(1, len(items)):
            for sub in combinations(items, size):
                assert sub in counts
                assert counts[sub] >= count


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_bitmap_support_identity(seed):
    rng = random.Random(seed)
    view = random_view(rng, max_codes=6, max_groups=20)
    if not view.code_universe:
        return
    masks = build_item_extents(view)
    universe = list(view.code_universe)
    for size in (1, 2, 3):
        if size > len(universe):
            break
        for combo in combinations(universe, size):
            mask = masks[combo[0]]
            for c in combo[1:]:
                mask &= masks[c]
            direct = sum(
                1 for _, codes in view.groups if set(combo) <= codes
            )
            assert mask.bit_count() == direct


def test_scan_count_law_random_views():
    for seed in range(25):
        view = random_view(random.Random(100 + seed), max_codes=8, max_groups=40)
        _, fast = fi_gen(view, "0.1")
        frequent, slow = apriori_baseline(view, "0.1")
        assert fast.full_scans_of_groups == 1
        depth = max((fi.level for fi in frequent), default=0)
        if depth == 0:
            # no frequent singles: one scan if there was anything to count
            expected = 1 if view.code_universe else 0
            assert slow.full_scans_of_groups == expected
        else:
            # one scan per level, plus possibly one for a candidate level
            # that produced nothing frequent
            assert slow.full_scans_of_groups in (depth, depth + 1)


def test_exact_fraction_of_decimal_strings():
    from fractions import Fraction

    assert exact_fraction("0.0045") == Fraction(9, 2000)
    assert exact_fraction(0.0045) == Fraction(9, 2000)
    assert exact_fraction(Fraction(1, 3)) == Fraction(1, 3)
    with pytest.raises(ValueError):
        exact_fraction(float("nan"))
