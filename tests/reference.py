"""A deliberately naive starminer, written from the README's contract.

It shares no code with ``starminer``. It reads the fact CSV whole, then
each dimension's, joins with nested loops one row at a time, bins and
filters each joined row, numbers the combined-dimension codes in
first-encounter order, counts every subset of every transaction, and
enumerates rules with exact fractions. The differential test holds the
CLI's artifacts, and its error line for a malformed row, to what it returns.

Results are free of formatting, as ``perfbench/check.output_digest`` reads a
run: pair sets and code sets are sorted tuples and records are sorted.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from pathlib import Path

Pair = tuple[str, str]


class Rejected(Exception):
    """The input breaks the contract; the CLI must exit 2 on it."""


class Malformed(Rejected):
    """A row breaks the CSV format; the message is the CLI's error line."""


@dataclass(frozen=True)
class Inputs:
    fact: Path
    dims: tuple[tuple[str, Path], ...]
    joins: tuple[tuple[str, str, str], ...]  # (fact key, dimension, dimension key)
    key_dim: str
    selected: tuple[str, ...]
    filters: tuple[tuple[str, str], ...]
    bins: tuple[tuple[str, tuple[tuple[str, float, float], ...]], ...]
    minsup: str
    minconf: str
    repeatable: tuple[str, ...]


@dataclass(frozen=True)
class Expected:
    itemsets: list[tuple[tuple[str, ...], tuple[Pair, ...], int]]  # codes, pairs, count
    rules: list[tuple[tuple[Pair, ...], tuple[Pair, ...], int, int]]  # antecedent, consequent, counts
    registry: list[tuple[str, tuple[Pair, ...]]]  # code, pairs in selected-dimension order


def parse_registry(text: str) -> list[tuple[str, tuple[Pair, ...]]]:
    """The entries of a ``registry.csv`` text after its header: each code
    with its (dimension, value) pairs. A backslash escapes the character
    after it; an unescaped ``=`` ends a name, and an unescaped ``;`` a pair."""
    entries = []
    for line in text.splitlines()[1:]:
        code, combo = line.split(",", 1)
        pairs, fields, field = [], [], ""
        for escaped, mark, plain in re.findall(r"\\(.)|([;=])|([^\\;=]+)", combo):
            if not mark:
                field += escaped or plain
                continue
            fields.append(field)
            field = ""
            if mark == ";":
                pairs.append(tuple(fields))
                fields = []
        pairs.append((*fields, field))
        entries.append((code, tuple(pairs)))
    return entries


def read_csv(path: Path, binned: set[str]) -> list[dict[str, str]]:
    """Every data row as a {name: value} dict. A row must hold no quote and
    one value per name, and a binned value must be a finite number wherever
    it occurs, joined or not; the first row that breaks one of these, in
    that order, is :class:`Malformed`, numbered from the file's first row."""
    lines = path.read_text(encoding="utf-8-sig").split("\n")
    if lines[-1] == "":
        lines.pop()
    header = lines[0].split(",")
    rows = []
    for i, line in enumerate(lines[1:], 1):
        where = f"starminer: data error: {path} row {i}"
        cells = line.split(",")
        if '"' in line:
            raise Malformed(f"{where}: quoted values are not supported; this format forbids delimiters inside values")
        if len(cells) != len(header):
            raise Malformed(f"{where}: expected {len(header)} values, got {len(cells)}")
        row = dict(zip(header, cells))
        for name in filter(binned.__contains__, header):
            try:
                value = float(row[name])
            except ValueError:
                raise Malformed(f"{where}: cannot parse {row[name]!r} as a number for attribute {name!r}") from None
            if not math.isfinite(value):
                raise Malformed(f"{where}: attribute {name!r} has non-finite value {value!r}")
        rows.append(row)
    return rows


def transactions(inputs: Inputs) -> tuple[dict[tuple[str, ...], str], dict[str, set[str]]]:
    """The code of each selected-dimension combination, and each key's set of
    codes, over the joined, binned and filtered rows."""
    binned = dict(inputs.bins)
    # the fact file is read first: its malformed row wins over a dimension's
    fact = read_csv(inputs.fact, set(binned))
    tables = {name: read_csv(path, set(binned)) for name, path in inputs.dims}
    joined = []
    for fact_row in fact:
        # one joined row per combination of matching dimension rows; the fact
        # table's value wins where a dimension repeats one of its names
        partial = [fact_row]
        for fact_key, dim, dim_key in inputs.joins:
            matches = [r for r in tables[dim] if r[dim_key] == fact_row[fact_key]]
            if not matches:
                raise Rejected(f"fact key {fact_row[fact_key]!r} has no row in {dim}")
            partial = [{**match, **row} for row in partial for match in matches]
        joined.extend(partial)

    allowed: dict[str, set[str]] = {}
    for dim, value in inputs.filters:
        allowed.setdefault(dim, set()).add(value)
    needed = {inputs.key_dim, *inputs.selected, *allowed}
    code_of: dict[tuple[str, ...], str] = {}
    groups: dict[str, set[str]] = {}
    for row in joined:
        row = {name: row[name] for name in needed}
        for name in needed & binned.keys():
            value = float(row[name])
            labels = [label for label, lo, hi in binned[name] if lo <= value < hi]
            if not labels:
                raise Rejected(f"{name} value {value} is in no bin")
            row[name] = labels[0]
        if all(row[dim] in values for dim, values in allowed.items()):
            combo = tuple(row[d] for d in inputs.selected)
            code = code_of.setdefault(combo, f"{len(code_of) + 1:04d}")
            groups.setdefault(row[inputs.key_dim], set()).add(code)
    return code_of, groups


def run(inputs: Inputs) -> Expected:
    """Frequent code sets by brute force, decoded, and every derivable rule;
    :class:`Rejected` if the input breaks the contract."""
    code_of, groups = transactions(inputs)
    pairs_of = {code: tuple(zip(inputs.selected, combo)) for combo, code in code_of.items()}
    counts: Counter[tuple[str, ...]] = Counter()
    for codes in groups.values():
        for size in range(1, len(codes) + 1):
            counts.update(combinations(sorted(codes), size))
    frequent = {
        codes: count for codes, count in counts.items()
        if Fraction(count, len(groups)) >= Fraction(inputs.minsup)
    }
    itemsets = []
    # a pair set reached by several code sets keeps the largest count
    best: dict[frozenset[Pair], int] = {}
    for codes, count in frequent.items():
        pairs = frozenset(p for code in codes for p in pairs_of[code])
        itemsets.append((codes, tuple(sorted(pairs)), count))
        best[pairs] = max(count, best.get(pairs, 0))

    rules = []
    for full, count in best.items():
        dims = [d for d, _ in full if d not in inputs.repeatable]
        if len(dims) != len(set(dims)):
            continue  # a single dimension gives a rule at most one value
        for ante, ante_count in best.items():
            if ante < full and count <= ante_count and Fraction(count, ante_count) >= Fraction(inputs.minconf):
                rules.append((tuple(sorted(ante)), tuple(sorted(full - ante)), count, ante_count))
    registry = [(code, pairs_of[code]) for code in code_of.values()]
    return Expected(itemsets=sorted(itemsets), rules=sorted(rules), registry=registry)
