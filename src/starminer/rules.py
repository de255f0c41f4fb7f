"""Association-rule generation from decoded frequent itemsets.

For every frequent pair set with at least two pairs, every antecedent that is
itself in the frequent list (the derivable splits) yields a candidate rule;
the consequent is the remaining pairs. Rules pass if their confidence reaches
``minconf`` and the dimension policy holds: a dimension marked ``single`` may
contribute at most one value to a rule, a ``repeatable`` one any number.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .datamodel import _unchecked
from .errors import DataError
from .mapcode import DecodedItemset, Pair
from .mining import threshold_in_range


@dataclass(frozen=True)
class DimensionPolicy:
    """Which dimensions may occur with several values inside one rule.

    Dimensions default to ``single``; list the repeatable ones explicitly
    (classically the purchase predicate, while time or location stay single).
    ``repeatable`` may be any iterable of names; it is frozen on construction.
    """

    repeatable: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        object.__setattr__(self, "repeatable", frozenset(self.repeatable))

    def allows(self, pairs: Sequence[Pair]) -> bool:
        single = [d for d, _ in pairs if d not in self.repeatable]
        return len(single) == len(set(single))


@dataclass(frozen=True)
class AssociationRule:
    """antecedent -> consequent with support and confidence.

    The two sides are disjoint pair sets; ``support`` is the support of their
    union and ``confidence`` its ratio to the antecedent's support.
    :func:`gen_rules` builds its rules through :meth:`_of`, which checks
    nothing: their sides split one itemset's pairs and their confidence
    passed ``minconf``.
    """

    antecedent: tuple[Pair, ...]
    consequent: tuple[Pair, ...]
    support_count: int
    antecedent_count: int
    support: float
    confidence: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "antecedent", tuple(tuple(p) for p in self.antecedent))
        object.__setattr__(self, "consequent", tuple(tuple(p) for p in self.consequent))
        if not self.antecedent or not self.consequent:
            raise DataError("rule sides must be non-empty")
        if set(self.antecedent) & set(self.consequent):
            raise DataError("rule sides must be disjoint")
        if not 0 < self.support <= self.confidence <= 1:
            raise DataError(
                f"rule must satisfy 0 < support <= confidence <= 1, got "
                f"support={self.support}, confidence={self.confidence}"
            )

    _of = classmethod(_unchecked)


def gen_rules(
    frequent: Sequence[DecodedItemset],
    minconf: float | str | Fraction,
    policy: DimensionPolicy | None = None,
) -> list[AssociationRule]:
    """Derive every rule A -> F \\ A whose antecedent A is a listed itemset.

    Confidence is computed from support counts with exact rational
    comparisons against ``minconf``. Splits whose antecedent pair set is not
    in the list are not derivable (codes combining several dimensions expand
    to pair sets with no listed proper subsets) and are skipped. When the
    pairs name one dimension, pair sets and code sets correspond one to one,
    so a listed subset with a smaller count than its superset means the list
    is corrupt and raises :class:`DataError`. When they name several, pair-set
    containment does not imply code-set containment and such a subset can
    have the smaller count; its split would have confidence above 1, so it is
    skipped.

    A pair set is held as an int with one bit per distinct pair, so a
    subset is a submask. Looking up the 2^m - 2 proper non-empty submasks of
    an m-pair set is the cheaper way unless that count reaches the size of
    the list; codes that combine several dimensions make m exceed the
    itemset level, and then the list is scanned instead. Both ways find the
    same subsets.

    Output is sorted by support descending, then confidence descending, then
    lexicographically.
    """
    conf_min = threshold_in_range("minconf", minconf)
    if policy is None:
        policy = DimensionPolicy()
    # full / ante < num / den, cross-multiplied: exact without a Fraction per split
    conf_num, conf_den = conf_min.numerator, conf_min.denominator

    # Deduplicate by pair set keeping the maximal count: distinct code
    # itemsets can expand to one pair set, and the larger count is the
    # tightest lower bound available for it.
    bit_of: dict[Pair, int] = {}
    chosen: dict[int, DecodedItemset] = {}
    for itemset in frequent:
        key = 0
        for pair in itemset.pairs:
            bit = bit_of.get(pair)
            if bit is None:
                bit = bit_of[pair] = 1 << len(bit_of)
            key |= bit
        if chosen.setdefault(key, itemset).support_count < itemset.support_count:
            chosen[key] = itemset
    count_of = {key: itemset.support_count for key, itemset in chosen.items()}
    listed = count_of.get

    dimensions = {d for d, _ in bit_of}
    multi_dimension = len(dimensions) > 1
    # a policy under which every listed dimension repeats allows every pair set
    check_policy = not dimensions <= policy.repeatable
    rules: list[AssociationRule] = []
    for fkey, full in chosen.items():
        pairs, count = full.pairs, full.support_count
        if len(pairs) < 2 or check_policy and not policy.allows(pairs):
            continue
        if (1 << len(pairs)) - 2 >= len(count_of):
            subsets = [(akey, c) for akey, c in count_of.items() if akey & fkey == akey != fkey]
        else:
            subsets = []
            akey = (fkey - 1) & fkey
            while akey:
                if (c := listed(akey)) is not None:
                    subsets.append((akey, c))
                akey = (akey - 1) & fkey
        for akey, ante_count in subsets:
            # a subset counted below its superset has confidence above 1,
            # so it always passes this test and reaches the check below
            if count * conf_den < conf_num * ante_count:
                continue
            antecedent = tuple(p for p in pairs if bit_of[p] & akey)
            if ante_count < count:
                if multi_dimension:
                    continue
                raise DataError(
                    f"frequent list is corrupt: subset {antecedent!r} has count "
                    f"{ante_count} below its superset's {count}"
                )
            rules.append(
                AssociationRule._of(
                    antecedent,
                    tuple(p for p in pairs if not bit_of[p] & akey),
                    count,
                    ante_count,
                    full.support,
                    count / ante_count,
                )
            )

    def sort_key(r: AssociationRule):
        return (
            -r.support,
            -r.confidence,
            tuple(sorted(r.antecedent)),
            tuple(sorted(r.consequent)),
        )

    rules.sort(key=sort_key)
    return rules


def format_percent(x: float) -> str:
    """``x`` as a percentage with up to two decimals, trailing zeros trimmed."""
    return f"{x * 100:.2f}".rstrip("0").rstrip(".")


def format_pair(pair: Pair) -> str:
    """Render one pair as ``dim("value")``."""
    return f'{pair[0]}("{pair[1]}")'


def format_pairs(pairs: Sequence[Pair]) -> str:
    """Render pairs as ``dim("value") ∧ dim("value") ∧ …``."""
    return " ∧ ".join(map(format_pair, pairs))


def format_rule(rule: AssociationRule) -> str:
    """Render a rule as ``dim("value") ∧ … → dim("value") ∧ … {sup=P%, conf=Q%}``.

    Percentages carry up to two decimals with trailing zeros trimmed.
    """
    return (
        f"{format_pairs(rule.antecedent)} → {format_pairs(rule.consequent)} "
        f"{{sup={format_percent(rule.support)}%, conf={format_percent(rule.confidence)}%}}"
    )
