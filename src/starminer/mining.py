"""Frequent-itemset engines over keyed transaction groups.

A :class:`TransactionView` stores the groups by code, in the vertical layout
of Zaki's "Scalable algorithms for association mining": for each code, the
indices of the groups that carry it. :func:`group_by_key` builds it from the
(key, code) columns without a container per group; the per-group code sets
the scanning miners need are derived from it once, on first use.

Three miners share one output contract and are cross-checked in the tests:

* :func:`fi_gen` makes one pass over the view to build a bit-vector extent
  per code (the equivalence class of groups agreeing on "code present"), then
  counts every higher-level candidate by intersecting extents. One full scan
  total.
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
import os
import re
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from typing import Iterable, Mapping, Sequence

from .datamodel import int_from_bit_positions
from .errors import DataError


# Fraction("1e-N") computes 10**N, so an exponent of eleven digits hangs it.
# Bound it by Python's limit on int-string digits, far past any usable value.
_MAX_EXPONENT = sys.int_info.default_max_str_digits
_EXPONENT = re.compile(r"e[-+]?(\d+(?:_\d+)*)\s*\Z", re.IGNORECASE)


def exact_fraction(x: float | str | Fraction | int) -> Fraction:
    """Convert a user-supplied threshold to an exact fraction.

    Floats go through ``str()`` so that 0.0045 means 9/2000, not the nearest
    binary double; thresholds at values like 0.45% would otherwise be off by
    one on large group counts. A string whose decimal exponent is beyond
    ``±_MAX_EXPONENT`` is a ValueError.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise ValueError("threshold must be a number, not a bool")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        if math.isnan(x) or math.isinf(x):
            raise ValueError(f"{x!r} is not finite")
        return Fraction(str(x))
    text = str(x).strip()
    exponent = _EXPONENT.search(text)
    if exponent:
        digits = exponent.group(1).replace("_", "").lstrip("0")
        if len(digits) > _MAX_EXPONENT or int(digits or "0") > _MAX_EXPONENT:
            raise ValueError(f"{text!r} has a decimal exponent beyond ±{_MAX_EXPONENT}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{text!r} is not a number") from None


def threshold_in_range(name: str, value: float | str | Fraction) -> Fraction:
    """``value`` as an exact fraction in (0, 1]; a ValueError naming the
    option ``name`` otherwise."""
    try:
        f = exact_fraction(value)
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from None
    if not 0 < f <= 1:
        raise ValueError(f"{name} must be in (0, 1], got {value!r}")
    return f


def support_threshold(minsup: float | str | Fraction, n_groups: int) -> int:
    """Minimum absolute count for an itemset to be frequent."""
    f = exact_fraction(minsup)
    return max(1, math.ceil(f * n_groups))


@dataclass(frozen=True, eq=False)
class TransactionView:
    """Key-dimension groups, stored by code.

    ``keys`` holds the distinct group keys in first-occurrence order, so group
    ``j`` is ``keys[j]``. ``members[c]`` lists the indices of the groups that
    carry code ``c``; a list may repeat an index, so a support is never read
    off a list's length. ``code_universe`` is the sorted list of the codes
    ``members`` holds. ``group_sets``, each group's code set, is derived on
    first use and cached for the miners that scan groups; ``groups`` pairs
    the sets with their keys. Views are equal when their groups are.
    """

    keys: tuple[str, ...]
    members: Mapping[str, Sequence[int]]
    code_universe: tuple[str, ...] = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "keys", tuple(self.keys))
        if len(frozenset(self.keys)) != len(self.keys):
            raise DataError("transaction view has duplicate key values")
        object.__setattr__(self, "code_universe", tuple(sorted(self.members)))

    @classmethod
    def from_groups(
        cls, groups: Iterable[tuple[str, Iterable[str]]]
    ) -> "TransactionView":
        keys: list[str] = []
        members: dict[str, list[int]] = {}
        for j, (key, codes) in enumerate(groups):
            keys.append(key)
            for c in codes:
                members.setdefault(c, []).append(j)
        return cls(keys=keys, members=members)  # type: ignore[arg-type]

    @property
    def n_groups(self) -> int:
        return len(self.keys)

    @cached_property
    def group_sets(self) -> tuple[frozenset[str], ...]:
        """Each group's code set, in group order; a repeated index collapses."""
        codes_of: list = [[] for _ in self.keys]
        for code, indices in self.members.items():
            for j in indices:
                codes_of[j].append(code)
        # each list is replaced by its set as soon as it is converted, so the
        # lists and the sets are not all alive at once
        for j, codes in enumerate(codes_of):
            codes_of[j] = frozenset(codes)
        return tuple(codes_of)

    @cached_property
    def groups(self) -> tuple[tuple[str, frozenset[str]], ...]:
        return tuple(zip(self.keys, self.group_sets))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TransactionView):
            return NotImplemented
        return self.groups == other.groups


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
    """Number the distinct key values in first-occurrence order, then append
    each pair's key number to its code's list.

    No per-group container is built; a repeated pair repeats an index.
    """
    keys = tuple(dict.fromkeys(md.keys))
    index = dict(zip(keys, range(len(keys))))
    members: dict[str, list[int]] = {}
    for code, j in zip(md.codes, map(index.__getitem__, md.keys)):
        try:
            members[code].append(j)
        except KeyError:
            members[code] = [j]
    return TransactionView(keys=keys, members=members)


def build_item_extents(
    view: TransactionView, stats: MiningStats | None = None
) -> dict[str, int]:
    """One pass over the view producing a bit vector per code.

    Bit ``j`` of code ``c``'s mask is set iff group ``j`` carries ``c``: each
    mask is the extent of the two-block partition that "has c" induces on the
    groups. Codes come in ``code_universe`` order.
    """
    n = view.n_groups
    extents = {c: int_from_bit_positions(view.members[c], n) for c in view.code_universe}
    if stats is not None:
        stats.full_scans_of_groups += 1
    return extents


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
    by a thread pool of at most ``os.cpu_count()`` threads; output is
    byte-identical to the serial run.
    """
    f = threshold_in_range("minsup", minsup)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    # one thread per slice, so an uncapped count could start a thread per candidate
    workers = min(workers, os.cpu_count() or 1)
    stats = MiningStats()
    start = time.perf_counter()

    n = view.n_groups
    threshold = support_threshold(f, n)

    single_mask = build_item_extents(view, stats)

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
    f = threshold_in_range("minsup", minsup)
    stats = MiningStats()
    start = time.perf_counter()

    n = view.n_groups
    threshold = support_threshold(f, n)
    group_sets = view.group_sets

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
    group_sets = view.group_sets

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
