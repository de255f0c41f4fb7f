"""Frequent-itemset engines over keyed transaction groups.

Three miners share one output contract and are cross-checked in the tests:

* :func:`fi_gen` scans the groups once to build a bit-vector extent per code
  (the equivalence class of groups agreeing on "code present"), then counts
  every higher-level candidate by intersecting extents. One full scan total.
* :func:`apriori_baseline` is the classic level-wise miner: each level with a
  non-empty candidate set rescans every group and looks up the group's
  k-subsets among the candidates.
* :func:`brute_force_frequent` enumerates every subset of a small universe by
  direct containment counting; it is the oracle the other two are held to.

The two level-wise miners share candidate generation: :func:`_next_candidates`
joins each prefix class and applies Apriori's subset prune in one pass.

Support thresholds use exact rational arithmetic: ``minsup`` may be a decimal
string ("0.0045"), a Fraction, or a float (converted through its shortest
decimal repr), and an itemset is frequent iff its count reaches
``ceil(minsup * n_groups)``.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from operator import itemgetter
from typing import Iterable, Sequence

from .datamodel import BitmapTable, Item, int_from_bit_positions
from .errors import DataError


def exact_fraction(x: float | str | Fraction | int) -> Fraction:
    """Convert a user-supplied threshold to an exact fraction.

    Floats go through ``str()`` so that 0.0045 means 9/2000, not the nearest
    binary double; thresholds at values like 0.45% would otherwise be off by
    one on large group counts.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise ValueError("threshold must be a number, not a bool")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        if math.isnan(x) or math.isinf(x):
            raise ValueError(f"threshold {x!r} is not finite")
        return Fraction(str(x))
    return Fraction(str(x).strip())


def _validate_minsup(minsup: float | str | Fraction) -> Fraction:
    f = exact_fraction(minsup)
    if not 0 < f <= 1:
        raise ValueError(f"minsup must be in (0, 1], got {minsup!r}")
    return f


def support_threshold(minsup: float | str | Fraction, n_groups: int) -> int:
    """Minimum absolute count for an itemset to be frequent."""
    f = exact_fraction(minsup)
    return max(1, math.ceil(f * n_groups))


@dataclass(frozen=True)
class TransactionView:
    """Key-dimension groups and the code set each group carries.

    Groups keep first-occurrence order; ``code_universe`` is the sorted list
    of every code present in any group, derived from the groups.
    """

    groups: tuple[tuple[str, frozenset[str]], ...]
    code_universe: tuple[str, ...] = field(init=False)

    def __post_init__(self) -> None:
        groups = tuple((k, frozenset(c)) for k, c in self.groups)
        if len(set(map(itemgetter(0), groups))) != len(groups):
            raise DataError("transaction view has duplicate key values")
        object.__setattr__(self, "groups", groups)
        object.__setattr__(
            self, "code_universe", tuple(sorted(frozenset().union(*map(itemgetter(1), groups))))
        )

    @classmethod
    def from_groups(
        cls, groups: Iterable[tuple[str, Iterable[str]]]
    ) -> "TransactionView":
        return cls(groups=groups)  # type: ignore[arg-type]

    @property
    def n_groups(self) -> int:
        return len(self.groups)


@dataclass(frozen=True)
class FrequentItemset:
    """A sorted code tuple with its absolute and relative support."""

    items: tuple[str, ...]
    support_count: int
    support: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "items", tuple(self.items))
        if list(self.items) != sorted(set(self.items)):
            raise DataError(f"itemset {self.items!r} must be sorted and duplicate-free")

    @property
    def level(self) -> int:
        return len(self.items)


@dataclass
class MiningStats:
    """Instrumentation counters for one mining run.

    ``full_scans_of_groups`` increments whenever every group is visited once;
    ``candidates_generated`` counts candidates whose support was evaluated
    (level 1 counts every single code); ``candidates_pruned`` counts join
    results discarded because an immediate subset was infrequent.
    """

    full_scans_of_groups: int = 0
    candidates_generated: int = 0
    candidates_pruned: int = 0
    elapsed: float = 0.0

    def counters(self) -> dict[str, int]:
        """The three counters by name, as the persisted reports carry them."""
        return {
            "full_scans_of_groups": self.full_scans_of_groups,
            "candidates_generated": self.candidates_generated,
            "candidates_pruned": self.candidates_pruned,
        }


# MdTable lives in mapcode; group_by_key accepts anything with aligned .keys
# and .codes columns to keep this module importable on its own.
def group_by_key(md) -> TransactionView:
    """Collect distinct key values in first-occurrence order and union each
    key's codes into one set (duplicate pairs collapse)."""
    codes_for: dict[str, list[str]] = {}
    for key, code in zip(md.keys, md.codes):
        codes_for.setdefault(key, []).append(code)
    return TransactionView.from_groups(codes_for.items())


def build_item_extents(
    view: TransactionView, stats: MiningStats | None = None
) -> BitmapTable:
    """One pass over the groups producing a bit vector per code.

    Bit ``j`` of code ``c``'s column is set iff group ``j`` carries ``c``:
    each column is the extent of the two-block partition that "has c" induces
    on the groups.
    """
    hits: dict[str, list[int]] = {c: [] for c in view.code_universe}
    for j, (_, codes) in enumerate(view.groups):
        for c in codes:
            hits[c].append(j)
    if stats is not None:
        stats.full_scans_of_groups += 1
    items = tuple(
        Item(id=i, attribute="code", value=c) for i, c in enumerate(view.code_universe)
    )
    columns = tuple(int_from_bit_positions(hits[c], view.n_groups) for c in view.code_universe)
    return BitmapTable(items=items, columns=columns, universe_size=view.n_groups)


def _next_candidates(
    prev: list[tuple[str, ...]],
) -> tuple[list[tuple[str, ...]], int, int]:
    """The k-candidates of the sorted, duplicate-free frequent (k-1)-sets.

    ``prev`` falls into prefix classes, the sets sharing their first k-2
    items (Zaki's equivalence classes). Joining ``prefix + (a,)`` with a later
    ``prefix + (b,)`` of the same class gives ``prefix + (a, b)``. Its two
    parents are frequent; every other (k-1)-subset drops one prefix item
    ``p``, and it is frequent exactly when ``b`` ends a set of the class
    ``prefix - p + (a,)``. So the b's kept for ``a`` are the tails after
    ``a`` that lie in all k-2 such classes, and only they become tuples.

    Returns ``(kept, joined, pruned)``: the surviving candidates in the
    order the plain join would list them, the number of joined pairs, and
    how many of those had an infrequent subset (Apriori's prune).
    """
    tails: dict[tuple[str, ...], list[str]] = {}
    for itemset in prev:
        tails.setdefault(itemset[:-1], []).append(itemset[-1])
    tail_sets = {prefix: frozenset(items) for prefix, items in tails.items()}
    kept: list[tuple[str, ...]] = []
    joined = 0
    for prefix, items in tails.items():
        m = len(items)
        joined += m * (m - 1) // 2
        drops = [prefix[:j] + prefix[j + 1 :] for j in range(len(prefix))]
        for i, a in enumerate(items):
            survivors = items[i + 1 :]
            for sub in drops:
                allowed = tail_sets.get(sub + (a,), frozenset())
                survivors = [b for b in survivors if b in allowed]
            head = prefix + (a,)
            kept.extend(head + (b,) for b in survivors)
    return kept, joined, joined - len(kept)


def _count_slice(
    cands: Sequence[tuple[str, ...]],
    parent_mask: dict[tuple[str, ...], int],
    single_mask: dict[str, int],
    threshold: int,
) -> list[tuple[tuple[str, ...], int, int]]:
    """``(candidate, mask, count)`` for each frequent candidate, in order; an
    infrequent candidate's mask is dropped as soon as it is counted."""
    out = []
    for cand in cands:
        mask = parent_mask[cand[:-1]] & single_mask[cand[-1]]
        count = mask.bit_count()
        if count >= threshold:
            out.append((cand, mask, count))
    return out


def fi_gen(
    view: TransactionView,
    minsup: float | str | Fraction,
    *,
    workers: int = 1,
) -> tuple[list[FrequentItemset], MiningStats]:
    """Mine all itemsets with support >= minsup using bitmap intersections.

    Level 1 reads the code extents; level k candidates come from
    :func:`_next_candidates`, and each is counted as the population count
    of the AND of its parent's mask with its last item's extent. No group scan happens after
    the extent build, so ``full_scans_of_groups`` is always 1.

    ``workers`` > 1 splits candidate counting into contiguous slices handled
    by a thread pool; output is byte-identical to the serial run.
    """
    f = _validate_minsup(minsup)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    stats = MiningStats()
    start = time.perf_counter()

    n = view.n_groups
    threshold = support_threshold(f, n)

    extents = build_item_extents(view, stats)
    single_mask = {
        item.value: col for item, col in zip(extents.items, extents.columns)
    }

    result: list[FrequentItemset] = []
    stats.candidates_generated += len(view.code_universe)
    level_masks: dict[tuple[str, ...], int] = {}
    current: list[tuple[str, ...]] = []
    for code in view.code_universe:
        mask = single_mask[code]
        count = mask.bit_count()
        if count >= threshold:
            itemset = (code,)
            current.append(itemset)
            level_masks[itemset] = mask
            result.append(
                FrequentItemset(items=itemset, support_count=count, support=count / n)
            )

    while current:
        candidates, joined, pruned = _next_candidates(current)
        stats.candidates_generated += joined
        stats.candidates_pruned += pruned
        if not candidates:
            break

        if workers == 1 or len(candidates) < 64:
            frequent = _count_slice(candidates, level_masks, single_mask, threshold)
        else:
            step = math.ceil(len(candidates) / workers)
            slices = [candidates[i : i + step] for i in range(0, len(candidates), step)]
            with ThreadPoolExecutor(max_workers=workers) as pool:
                parts = list(
                    pool.map(
                        lambda s: _count_slice(s, level_masks, single_mask, threshold), slices
                    )
                )
            frequent = [entry for part in parts for entry in part]

        next_level: list[tuple[str, ...]] = []
        next_masks: dict[tuple[str, ...], int] = {}
        for cand, mask, count in frequent:
            next_level.append(cand)
            next_masks[cand] = mask
            result.append(FrequentItemset(items=cand, support_count=count, support=count / n))
        current = next_level
        level_masks = next_masks

    stats.elapsed = time.perf_counter() - start
    return result, stats


def _count_level(
    group_sets: Sequence[frozenset[str]], candidates: list[tuple[str, ...]], k: int
) -> dict[tuple[str, ...], int]:
    """Count each sorted k-candidate in one pass over the groups.

    A group's k-subsets of its codes that occur in some candidate are
    enumerated and looked up, as Apriori's subset function does; a group with
    more such subsets than there are candidates tests every candidate for
    containment instead. Both ways give the same counts.
    """
    counts = dict.fromkeys(candidates, 0)
    live = frozenset().union(*candidates)
    cand_sets: list[tuple[tuple[str, ...], frozenset[str]]] | None = None
    for codes in group_sets:
        if len(codes) < k:
            continue
        present = sorted(codes & live)
        if math.comb(len(present), k) <= len(candidates):
            for combo in combinations(present, k):
                if combo in counts:
                    counts[combo] += 1
            continue
        if cand_sets is None:
            cand_sets = [(cand, frozenset(cand)) for cand in candidates]
        for cand, cset in cand_sets:
            if cset <= codes:
                counts[cand] += 1
    return counts


def apriori_baseline(
    view: TransactionView, minsup: float | str | Fraction
) -> tuple[list[FrequentItemset], MiningStats]:
    """Classic level-wise miner: re-scan every group once per candidate level.

    Level k is counted by :func:`_count_level`, which enumerates each group's
    k-subsets rather than testing every candidate against every group.
    Output is identical to :func:`fi_gen`; ``full_scans_of_groups`` equals
    the number of levels that had a non-empty candidate set, which is the
    depth of the explored lattice.
    """
    f = _validate_minsup(minsup)
    stats = MiningStats()
    start = time.perf_counter()

    n = view.n_groups
    threshold = support_threshold(f, n)
    group_sets = [codes for _, codes in view.groups]

    result: list[FrequentItemset] = []

    # Level 1: one scan counting every single code.
    singles = list(view.code_universe)
    stats.candidates_generated += len(singles)
    current: list[tuple[str, ...]] = []
    if singles:
        stats.full_scans_of_groups += 1
        counts: dict[str, int] = {c: 0 for c in singles}
        for codes in group_sets:
            for c in codes:
                counts[c] += 1
        for c in singles:
            if counts[c] >= threshold:
                current.append((c,))
                result.append(
                    FrequentItemset(items=(c,), support_count=counts[c], support=counts[c] / n)
                )

    k = 2
    while current:
        candidates, joined, pruned = _next_candidates(current)
        stats.candidates_generated += joined
        stats.candidates_pruned += pruned
        if not candidates:
            break

        stats.full_scans_of_groups += 1
        counts2 = _count_level(group_sets, candidates, k)

        next_level: list[tuple[str, ...]] = []
        for cand in candidates:
            count = counts2[cand]
            if count >= threshold:
                next_level.append(cand)
                result.append(
                    FrequentItemset(items=cand, support_count=count, support=count / n)
                )
        current = next_level
        k += 1

    stats.elapsed = time.perf_counter() - start
    return result, stats


def brute_force_frequent(
    view: TransactionView, minsup: float | str | Fraction
) -> list[FrequentItemset]:
    """Exhaustive oracle: count every non-empty subset of the code universe
    by direct containment.

    Guarded to universes of at most 20 codes. Out-of-range minsup values are
    not rejected here; a minsup above 1 simply yields an unreachable
    threshold and an empty result.
    """
    if len(view.code_universe) > 20:
        raise ValueError(
            f"brute force limited to 20 codes, universe has {len(view.code_universe)}"
        )
    n = view.n_groups
    threshold = support_threshold(minsup, n)
    group_sets = [codes for _, codes in view.groups]

    result: list[FrequentItemset] = []
    universe = list(view.code_universe)
    for size in range(1, len(universe) + 1):
        for combo in combinations(universe, size):
            cset = frozenset(combo)
            count = sum(1 for codes in group_sets if cset <= codes)
            if count >= threshold:
                result.append(
                    FrequentItemset(items=combo, support_count=count, support=count / n)
                )
    return result
