"""Output checks that use none of starminer's miners.

* ``output_digest`` hashes the itemsets and rules a run wrote, as sorted
  (pairs, counts) records, so the JSON formatting and record order do not
  matter.
* ``input_fingerprint`` hashes the CSVs a workload mined.
* ``recount_problems`` rebuilds the transactions straight from those CSVs,
  recounts the support of a seeded sample of the emitted itemsets, and checks
  every rule against the itemsets it was derived from.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from fractions import Fraction
from pathlib import Path

from workloads import KEY_DIM, REPEATABLE, Workload

RECOUNT_SAMPLE = 40


def _jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


def _pairs(records: list[dict]) -> tuple[tuple[str, str], ...]:
    return tuple(sorted((r["dimension"], r["value"]) for r in records))


def output_digest(out: Path) -> tuple[str, int, int]:
    """sha256 of the itemsets and rules in ``out``, with both record counts."""
    itemsets = sorted(
        [_pairs(r["items"]), r["support_count"]] for r in _jsonl(out / "itemsets.jsonl")
    )
    rules = sorted(
        [_pairs(r["antecedent"]), _pairs(r["consequent"]), r["support_count"], r["antecedent_count"]]
        for r in _jsonl(out / "rules.jsonl")
    )
    blob = json.dumps([itemsets, rules], separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest(), len(itemsets), len(rules)


def input_fingerprint(data: Path) -> dict[str, str]:
    """sha256 of every CSV under ``data``, plus one over all of them."""
    files = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(data.glob("*.csv"))}
    files["all"] = hashlib.sha256(json.dumps(files, sort_keys=True).encode()).hexdigest()
    return files


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def transactions(wl: Workload, data: Path) -> dict[str, set[tuple[str, ...]]]:
    """Key value -> set of combined-dimension value tuples, from the raw CSVs."""
    fact_header, fact_rows = _read_csv(data / "fact.csv")
    dims = []
    for fact_key, dim, dim_key in wl.joins:
        header, rows = _read_csv(data / f"{dim}.csv")
        by_key = {row[header.index(dim_key)]: row for row in rows}
        if len(by_key) != len(rows):
            raise ValueError(f"{dim}.csv has duplicate keys; the recount assumes unique ones")
        dims.append((fact_header.index(fact_key), header, by_key))
    bins = dict(wl.bins)

    def getter(attr: str):
        if attr in fact_header:
            pos = fact_header.index(attr)
            raw = lambda row: row[pos]
        else:
            fact_pos, header, by_key = next(d for d in dims if attr in d[1])
            pos = header.index(attr)
            raw = lambda row: by_key[row[fact_pos]][pos]
        if attr not in bins:
            return raw

        def label(row):
            value = float(raw(row))
            return next(name for name, lo, hi in bins[attr] if lo <= value < hi)

        return label

    key = getter(KEY_DIM)
    combo = [getter(d) for d in wl.combine]
    allowed: dict[str, set[str]] = {}
    for dim, value in wl.filters:
        allowed.setdefault(dim, set()).add(value)
    filters = [(getter(dim), values) for dim, values in allowed.items()]

    groups: dict[str, set[tuple[str, ...]]] = {}
    for row in fact_rows:
        if all(get(row) in values for get, values in filters):
            groups.setdefault(key(row), set()).add(tuple(get(row) for get in combo))
    return groups


def recount_problems(wl: Workload, data: Path, out: Path, seed: int) -> list[str]:
    """Everything about the artifacts in ``out`` that the raw CSVs contradict."""
    groups = transactions(wl, data)
    n = len(groups)
    problems = []
    stats = json.loads((out / "stats.json").read_text(encoding="utf-8"))
    if stats["groups"] != n:
        problems.append(f"stats.json reports {stats['groups']} groups, the CSVs give {n}")

    registry: dict[str, tuple[tuple[str, str], ...]] = {}
    for line in (out / "registry.csv").read_text(encoding="utf-8").splitlines()[1:]:
        code, combo = line.split(",", 1)
        registry[code] = tuple(tuple(part.split("=", 1)) for part in combo.split(";"))

    itemsets = _jsonl(out / "itemsets.jsonl")
    threshold = max(1, math.ceil(Fraction(wl.minsup) * n))
    best: dict[tuple, int] = {}
    for rec in itemsets:
        count = rec["support_count"]
        if count < threshold or rec["support"] != count / n:
            problems.append(f"itemset {rec['codes']}: count {count}, support {rec['support']} with {n} groups")
        pairs = _pairs(rec["items"])
        best[pairs] = max(best.get(pairs, 0), count)

    for rec in random.Random(seed).sample(itemsets, min(RECOUNT_SAMPLE, len(itemsets))):
        decoded = [registry[code] for code in rec["codes"]]
        expanded = list(dict.fromkeys(pair for combo in decoded for pair in combo))
        if expanded != [(p["dimension"], p["value"]) for p in rec["items"]]:
            problems.append(f"itemset {rec['codes']}: pairs do not decode from its codes")
        combos = [tuple(value for _, value in combo) for combo in decoded]
        count = sum(1 for have in groups.values() if all(c in have for c in combos))
        if count != rec["support_count"]:
            problems.append(f"itemset {rec['codes']}: recounted {count}, artifact says {rec['support_count']}")

    minconf = Fraction(wl.minconf)
    for rule in _jsonl(out / "rules.jsonl"):
        ante = _pairs(rule["antecedent"])
        full = tuple(sorted(ante + _pairs(rule["consequent"])))
        dims = [d for d, _ in full]
        single_twice = any(dims.count(d) > 1 and d not in REPEATABLE for d in dims)
        if (
            best.get(full) != rule["support_count"]
            or best.get(ante) != rule["antecedent_count"]
            or Fraction(rule["support_count"], rule["antecedent_count"]) < minconf
            or single_twice
        ):
            problems.append(f"rule {ante} -> {rule['consequent']} does not follow from the itemsets")
    return problems
