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
from itertools import combinations
from typing import Iterator, Sequence

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
        counts: dict[str, int] = {}
        for dim, _ in pairs:
            counts[dim] = counts.get(dim, 0) + 1
        return all(n == 1 or d in self.repeatable for d, n in counts.items())


@dataclass(frozen=True)
class AssociationRule:
    """antecedent -> consequent with support and confidence.

    The two sides are disjoint pair sets; ``support`` is the support of their
    union and ``confidence`` its ratio to the antecedent's support.
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


def _listed_subsets(
    fkey: frozenset[Pair],
    pairs: Sequence[Pair],
    chosen: dict[frozenset[Pair], DecodedItemset],
) -> Iterator[tuple[frozenset[Pair], DecodedItemset]]:
    """Yield ``(akey, ante)`` for every listed proper subset of ``fkey``.

    Looking up the 2^m - 2 proper non-empty subsets of an m-pair set is the
    cheaper way unless that count reaches the size of the list; codes that
    combine several dimensions make m exceed the itemset level, and then the
    list is scanned instead. Both ways yield the same subsets.
    """
    if (1 << len(pairs)) - 2 >= len(chosen):
        for akey, ante in chosen.items():
            if akey < fkey:
                yield akey, ante
        return
    for size in range(1, len(pairs)):
        for combo in combinations(pairs, size):
            akey = frozenset(combo)
            ante = chosen.get(akey)
            if ante is not None:
                yield akey, ante


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
    chosen: dict[frozenset[Pair], DecodedItemset] = {}
    order: list[frozenset[Pair]] = []
    for itemset in frequent:
        key = itemset.pair_set
        prev = chosen.get(key)
        if prev is None:
            chosen[key] = itemset
            order.append(key)
        elif itemset.support_count > prev.support_count:
            chosen[key] = itemset

    multi_dimension = len({d for key in chosen for d, _ in key}) > 1
    rules: list[AssociationRule] = []
    for fkey in order:
        full = chosen[fkey]
        if full.level < 2 or not policy.allows(full.pairs):
            continue
        for akey, ante in _listed_subsets(fkey, full.pairs, chosen):
            if ante.support_count < full.support_count:
                if multi_dimension:
                    continue
                raise DataError(
                    f"frequent list is corrupt: subset {ante.pairs!r} has count "
                    f"{ante.support_count} below its superset's {full.support_count}"
                )
            if full.support_count * conf_den < conf_num * ante.support_count:
                continue
            antecedent = tuple(p for p in full.pairs if p in akey)
            consequent = tuple(p for p in full.pairs if p not in akey)
            rules.append(
                AssociationRule(
                    antecedent=antecedent,
                    consequent=consequent,
                    support_count=full.support_count,
                    antecedent_count=ante.support_count,
                    support=full.support,
                    confidence=full.support_count / ante.support_count,
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


def format_rule(rule: AssociationRule) -> str:
    """Render a rule as ``dim("value") ∧ … → dim("value") ∧ … {sup=P%, conf=Q%}``.

    Percentages carry up to two decimals with trailing zeros trimmed.
    """
    left = " ∧ ".join(f'{d}("{v}")' for d, v in rule.antecedent)
    right = " ∧ ".join(f'{d}("{v}")' for d, v in rule.consequent)
    return (
        f"{left} → {right} "
        f"{{sup={format_percent(rule.support)}%, conf={format_percent(rule.confidence)}%}}"
    )
