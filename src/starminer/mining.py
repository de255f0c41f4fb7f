"""Frequent-itemset engines over keyed transaction groups.

A :class:`TransactionView` stores the groups by code, in the vertical layout
of Zaki's "Scalable algorithms for association mining": for each code, the
indices of the groups that carry it. :func:`group_by_key` builds it from the
(key, code) columns of a stream of row chunks, grouping each chunk as it
arrives, with one ``array("i")`` of indices per code and no container per
group; the per-group sorted code tuples the scanning miners need are derived
from it once, on first use.

Three miners share one output contract and are cross-checked in the tests:

* :func:`fi_gen` makes one pass over the view to build a bit-vector extent
  per code (the equivalence class of groups agreeing on "code present"),
  keeping only the frequent codes' extents, then walks the prefix classes
  depth-first, as Zaki's Eclat does, in reverse lexicographic order,
  counting each candidate by intersecting bit vectors. One full scan total,
  and only the frequent codes' bit vectors and those of the classes on the
  current path are alive.
* :func:`apriori_baseline` is the classic level-wise miner: each level with a
  non-empty candidate set rescans the groups, once per distinct code set
  weighted by the number of groups that hold it (the rough-set equivalence
  classes of groups with equal codes). Level 1 tallies the code sets'
  weights; each later level looks up each code set's k-subsets among the
  candidates.
* :func:`brute_force_frequent` enumerates every subset of a small universe by
  direct containment counting; it is the oracle the other two are held to.

Both walks build a class's candidates with one step,
:func:`_class_candidates`, which joins a prefix class and applies Apriori's
subset prune to it. :func:`fi_gen` calls it once per class it enters;
:func:`apriori_baseline`, through :func:`_next_candidates`, calls it for
every class of a level.

Support thresholds use exact rational arithmetic: ``minsup`` may be a decimal
string ("0.0045"), a Fraction, or a float (converted through its shortest
decimal repr), and an itemset is frequent iff its count reaches
``ceil(minsup * n_groups)``.
"""

from __future__ import annotations

import math
import re
import sys
import time
from array import array
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, chain, combinations, filterfalse, islice
from typing import Iterable, Mapping, Sequence

from .datamodel import _unchecked, int_from_bit_positions
from .errors import DataError, UsageError


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
    """``value`` as an exact fraction in (0, 1]; a UsageError naming the
    option ``name`` otherwise."""
    try:
        f = exact_fraction(value)
    except ValueError as exc:
        raise UsageError(f"{name}: {exc}") from None
    if not 0 < f <= 1:
        raise UsageError(f"{name} must be in (0, 1], got {value!r}")
    return f


def support_threshold(minsup: float | str | Fraction, n_groups: int) -> int:
    """Minimum absolute count for an itemset to be frequent."""
    f = exact_fraction(minsup)
    return max(1, math.ceil(f * n_groups))


@dataclass(frozen=True, eq=False)
class TransactionView:
    """Key-dimension groups, stored by code.

    ``keys`` holds the distinct group keys in first-occurrence order, so group
    ``j`` is ``keys[j]``. ``members[c]`` is a sequence of the indices of the
    groups that carry code ``c``, each in ``range(len(keys))``:
    :func:`group_by_key` stores an ``array("i")`` of 4 bytes an index, and
    the constructor takes any sequence of ints, such as the lists
    :meth:`from_groups` builds. A sequence may repeat an index, so a support
    is never read off its length. ``code_universe`` is the sorted list of the
    codes ``members`` holds. ``group_sets``, each group's codes as a sorted
    tuple, equal groups sharing one tuple, is derived on first use and
    cached for the miners that scan groups; ``groups`` pairs each key with
    its group's code set. Views are equal when their groups are.
    """

    keys: tuple[str, ...]
    members: Mapping[str, Sequence[int]]
    code_universe: tuple[str, ...] = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "keys", tuple(self.keys))
        if len(frozenset(self.keys)) != len(self.keys):
            raise DataError("transaction view has duplicate key values")
        n = len(self.keys)
        for code, groups in self.members.items():
            low, high = (min(groups), max(groups)) if groups else (0, -1)
            if low < 0 or high >= n:
                raise DataError(f"code {code!r} lists group index {low if low < 0 else high}, outside range({n})")
        object.__setattr__(self, "code_universe", tuple(sorted(self.members)))

    @classmethod
    def _of(cls, keys: tuple[str, ...], members: Mapping[str, Sequence[int]]) -> "TransactionView":
        """A view whose ``keys`` are distinct and whose member indices are in
        range by construction, so neither is checked."""
        view = _unchecked(cls, keys, members)
        object.__setattr__(view, "code_universe", tuple(sorted(members)))
        return view

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
    def group_sets(self) -> tuple[tuple[str, ...], ...]:
        """Each group's codes as a sorted, duplicate-free tuple, in group
        order. A tuple is a fraction of a frozenset's size, and groups with
        equal codes share one tuple, the first one built.

        No container per group is built besides its tuple: a first pass
        counts each group's codes, a second lays them out group after group
        in one flat list, and each group's slice of it becomes its tuple,
        or the equal tuple an earlier group already holds. The counts and
        slice offsets are 4-byte ints, as the member indices are: with 8-byte
        ones beside the dict that shares the tuples, the quick start at 100k
        rows peaked 0.3 MiB higher.
        """
        sizes = array("i", [0]) * len(self.keys)
        for code in self.code_universe:
            # a repeated index would repeat the code
            for j in set(self.members[code]):
                sizes[j] += 1
        ends = array("i", accumulate(sizes))
        del sizes
        flat: list = [None] * (ends[-1] if ends else 0)
        # each group's slice fills from its end, last code first, so that
        # ends[j] is where group j starts once every code is in
        for code in reversed(self.code_universe):
            for j in set(self.members[code]):
                ends[j] -= 1
                flat[ends[j]] = code
        stops = chain(islice(ends, 1, None), [len(flat)])
        shared: dict[tuple[str, ...], tuple[str, ...]] = {}
        built = (tuple(flat[start:stop]) for start, stop in zip(ends, stops))
        return tuple(shared.setdefault(codes, codes) for codes in built)

    @cached_property
    def groups(self) -> tuple[tuple[str, frozenset[str]], ...]:
        return tuple(zip(self.keys, map(frozenset, self.group_sets)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TransactionView):
            return NotImplemented
        return self.groups == other.groups


@dataclass(frozen=True)
class FrequentItemset:
    """A sorted code tuple with its absolute and relative support.

    The miners build theirs through :meth:`_of`, which checks nothing: their
    code tuples are sorted and duplicate-free by construction.
    """

    items: tuple[str, ...]
    support_count: int
    support: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "items", tuple(self.items))
        if list(self.items) != sorted(set(self.items)):
            raise DataError(f"itemset {self.items!r} must be sorted and duplicate-free")

    _of = classmethod(_unchecked)

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
def group_by_key(tables: Iterable) -> TransactionView:
    """The groups of every (key, code) pair of ``tables``, taken in order.

    ``tables`` is read one table at a time, each grouped before the next is
    drawn, and while table i+1 is drawn only table i is still held, so a
    generator's chunk tables are released as it goes. A table's new keys
    are numbered in first-occurrence order, after every earlier table's;
    then each pair appends its key number to its code's ``array("i")``. No
    per-group container is built; a repeated pair repeats an index.
    """
    index: dict[str, int] = {}
    members: dict[str, array] = {}
    for md in tables:
        new_keys = filterfalse(index.__contains__, dict.fromkeys(md.keys))
        index.update(zip(new_keys, range(len(index), len(index) + len(md.keys))))
        for code, j in zip(md.codes, map(index.__getitem__, md.keys)):
            try:
                members[code].append(j)
            except KeyError:
                members[code] = array("i", (j,))
    return TransactionView._of(tuple(index), members)


def build_item_extents(
    view: TransactionView, stats: MiningStats | None = None, threshold: int = 0
) -> dict[str, int]:
    """One pass over the view producing a bit vector per code whose support
    reaches ``threshold``.

    Bit ``j`` of code ``c``'s mask is set iff group ``j`` carries ``c``: each
    mask is the extent of the two-block partition that "has c" induces on the
    groups. Every code's mask is built, and kept only if its population
    count is at least ``threshold``, so at the default of 0 every code is
    kept. Codes come in ``code_universe`` order.
    """
    n = view.n_groups
    extents = {
        c: mask
        for c in view.code_universe
        if (mask := int_from_bit_positions(view.members[c], n)).bit_count() >= threshold
    }
    if stats is not None:
        stats.full_scans_of_groups += 1
    return extents


def _class_candidates(
    prefix: tuple[str, ...],
    items: list[str],
    tail_sets: Mapping[tuple[str, ...], frozenset[str]],
) -> tuple[int, list[list[str]]]:
    """Join one prefix class and apply Apriori's subset prune to it.

    The class holds the frequent sets ``prefix + (a,)`` for the sorted
    ``items`` (Zaki's equivalence class of ``prefix``). Joining ``a`` with a
    later ``b`` gives the candidate ``prefix + (a, b)``. Its two parents are
    frequent; every other subset of one item less drops one prefix item
    ``p``, and it is frequent exactly when ``b`` is in ``tail_sets`` of the
    class ``prefix - p + (a,)``. So the b's kept for ``a`` are the later
    items that lie in all ``len(prefix)`` such tail sets, filtered class-wise
    with no candidate tuple built.

    Returns ``(joined, survivors)``: the number of joined pairs, and for
    each item, in order, the b's that survive the prune, in order.
    """
    drops = [prefix[:j] + prefix[j + 1 :] for j in range(len(prefix))]
    survivors: list[list[str]] = []
    for i, a in enumerate(items):
        kept = items[i + 1 :]
        for sub in drops:
            allowed = tail_sets.get(sub + (a,), frozenset())
            kept = [b for b in kept if b in allowed]
        survivors.append(kept)
    m = len(items)
    return m * (m - 1) // 2, survivors


def _next_candidates(
    prev: list[tuple[str, ...]],
) -> tuple[list[tuple[str, ...]], int, int]:
    """The k-candidates of the sorted, duplicate-free frequent (k-1)-sets.

    ``prev`` falls into prefix classes, the sets sharing their first k-2
    items; each is joined and pruned by :func:`_class_candidates` against
    the tail sets of the whole level. Returns ``(kept, joined, pruned)``:
    the surviving candidates in the order the plain join would list them,
    the number of joined pairs, and how many of those had an infrequent
    subset.
    """
    tails: dict[tuple[str, ...], list[str]] = {}
    for itemset in prev:
        tails.setdefault(itemset[:-1], []).append(itemset[-1])
    tail_sets = {prefix: frozenset(items) for prefix, items in tails.items()}
    kept: list[tuple[str, ...]] = []
    joined = 0
    for prefix, items in tails.items():
        pairs, survivors = _class_candidates(prefix, items, tail_sets)
        joined += pairs
        for a, bs in zip(items, survivors):
            head = prefix + (a,)
            kept.extend(head + (b,) for b in bs)
    return kept, joined, joined - len(kept)


def fi_gen(
    view: TransactionView,
    minsup: float | str | Fraction,
    *,
    workers: int = 1,
) -> tuple[list[FrequentItemset], MiningStats]:
    """Mine all itemsets with support >= minsup using bitmap intersections.

    The extents are built for the frequent codes only, though every code
    counts as a level-1 candidate. The prefix classes are walked
    depth-first, as in Zaki's Eclat. A class holds the frequent sets
    ``prefix + (a,)`` with their masks, a level-1 set's mask being its
    code's extent. :func:`_class_candidates` joins and
    prunes it; a surviving ``prefix + (a, b)`` is counted as the population
    count of its parent's mask AND ``b``'s extent, and the frequent ones
    form the class of ``prefix + (a,)``, which is walked at once.

    Members are taken last item first, so the walk is in reverse
    lexicographic order: each class the prune looks up, ``prefix - p +
    (a,)``, is later than ``prefix`` and so already finished. The prune is
    thus Apriori's, with the level-wise walk's candidate and pruned counts.
    Finished classes keep their tail sets but not their masks, so only the
    frequent codes' extents and the masks of the classes on the current
    path are alive. A class's survivors are counted in one loop that keeps
    the masks of the frequent ones only, and each frequent set is kept as an
    ``(items, count)`` pair; the pairs are sorted by ``(level, items)``, as
    a level-wise walk lists them, and only then made itemsets.

    No group scan happens after the extent build, so ``full_scans_of_groups``
    is always 1. Counting runs on the calling thread: AND and ``bit_count``
    hold the interpreter lock, so threads only slowed it. ``workers`` is
    ignored.
    """
    f = threshold_in_range("minsup", minsup)
    stats = MiningStats()
    start = time.perf_counter()

    n = view.n_groups
    threshold = support_threshold(f, n)
    extents = build_item_extents(view, stats, threshold)
    found: list[tuple[tuple[str, ...], int]] = [((c,), mask.bit_count()) for c, mask in extents.items()]
    tail_sets: dict[tuple[str, ...], frozenset[str]] = {}

    def enter(prefix, members):
        """The path entry ``(prefix, members, survivors)`` of a class.
        ``members`` pairs each item with the mask of ``prefix + (item,)``,
        in item order, and ``survivors`` holds each item's candidates; the
        walk uses both up from the end."""
        joined, survivors = _class_candidates(prefix, [a for a, _ in members], tail_sets)
        stats.candidates_generated += joined
        stats.candidates_pruned += joined - sum(map(len, survivors))
        return prefix, members, survivors

    stats.candidates_generated += len(view.code_universe)
    path = [enter((), list(extents.items()))]
    while path:
        prefix, members, survivors = path[-1]
        if not members:
            path.pop()
            continue
        a, mask = members.pop()
        head = prefix + (a,)
        child = []
        for b in survivors.pop():
            if (count := (both := mask & extents[b]).bit_count()) >= threshold:
                child.append((b, both))
                found.append((head + (b,), count))
        if child:
            tail_sets[head] = frozenset(b for b, _ in child)
            path.append(enter(head, child))
    found.sort(key=lambda pair: (len(pair[0]), pair[0]))
    result = [FrequentItemset._of(items, count, count / n) for items, count in found]
    stats.elapsed = time.perf_counter() - start
    return result, stats


def _count_level(
    weighted: Iterable[tuple[tuple[str, ...], int]], candidates: list[tuple[str, ...]], k: int
) -> dict[tuple[str, ...], int]:
    """Count each sorted k-candidate in one pass over ``weighted``, the
    distinct sorted code tuples of the groups, each with the number of
    groups that hold it.

    Level 1 is one tally of every code tuple's weight per code. At a later
    level, a code tuple's k-subsets of its codes that occur in some
    candidate are enumerated and looked up, as Apriori's subset function
    does; a code tuple with more such subsets than there are candidates
    tests every candidate for containment instead. Both ways add the tuple's
    weight to each candidate it holds, and give the same counts.
    """
    if k == 1:
        tally: Counter[str] = Counter()
        for codes, w in weighted:
            for c in codes:
                tally[c] += w
        return {cand: tally[cand[0]] for cand in candidates}
    counts = dict.fromkeys(candidates, 0)
    live = frozenset().union(*candidates)
    cand_sets: list[tuple[tuple[str, ...], frozenset[str]]] | None = None
    for codes, w in weighted:
        if len(codes) < k:
            continue
        present = [c for c in codes if c in live]
        if math.comb(len(present), k) <= len(candidates):
            for combo in combinations(present, k):
                if combo in counts:
                    counts[combo] += w
            continue
        if cand_sets is None:
            cand_sets = [(cand, frozenset(cand)) for cand in candidates]
        wide = frozenset(present)
        for cand, cset in cand_sets:
            if cset <= wide:
                counts[cand] += w
    return counts


def apriori_baseline(
    view: TransactionView, minsup: float | str | Fraction
) -> tuple[list[FrequentItemset], MiningStats]:
    """Classic level-wise miner: re-scan the groups once per candidate level.

    Level 1 is every code in ``code_universe``; level k is
    :func:`_next_candidates` of level k-1's frequent sets, and the walk stops
    at the first empty level. The groups are counted as their distinct code
    tuples, each weighted by the number of groups that hold it, since equal
    groups hold the same candidates. Each level is counted by
    :func:`_count_level` in one scan of those tuples: level 1 by one tally of
    their weights per code, and each later level by enumerating each tuple's
    k-subsets rather than testing every candidate against every tuple.
    Output is identical to :func:`fi_gen`; ``full_scans_of_groups`` equals
    the number of levels that had a non-empty candidate set, which is the
    depth of the explored lattice.
    """
    f = threshold_in_range("minsup", minsup)
    stats = MiningStats()
    start = time.perf_counter()
    n = view.n_groups
    threshold = support_threshold(f, n)
    # equal groups share one tuple, so the Counter adds no tuple of its own
    weighted = Counter(view.group_sets).items()
    result: list[FrequentItemset] = []
    candidates = [(code,) for code in view.code_universe]
    stats.candidates_generated += len(candidates)
    k = 1
    while candidates:
        stats.full_scans_of_groups += 1
        counts = _count_level(weighted, candidates, k)
        frequent = [cand for cand in candidates if counts[cand] >= threshold]
        result.extend(FrequentItemset._of(cand, counts[cand], counts[cand] / n) for cand in frequent)
        candidates, joined, pruned = _next_candidates(frequent)
        stats.candidates_generated += joined
        stats.candidates_pruned += pruned
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
            count = sum(1 for codes in group_sets if cset.issubset(codes))
            if count >= threshold:
                result.append(
                    FrequentItemset(items=combo, support_count=count, support=count / n)
                )
    return result
