"""Metamorphic relations: how the CLI's output must change when its input
changes in a known way. They need no oracle, so they hold the miners to
account on a generated star input far past brute force's reach.

Each relation runs ``cli.main --algorithm both`` with the star-300k
benchmark's flags (four joins, year bins, two year filters, age_group and
product_name combined) on 10,000 generated fact rows, at a minsup whose
lattice reaches level 4.
"""

import json
import random
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

from starminer.cli import main
from starminer.synth import DIMENSION_TABLES, SynthSpec, generate_sales

JOINS = (("customer_id", "customer"), ("product_id", "product"), ("time_id", "times"), ("channel_id", "channel"))


def run(data: Path, fact: Path, out: Path, minsup: str = "0.002", minconf: str = "0.3") -> dict[str, bytes]:
    """Mine ``fact`` against the dimensions in ``data``; every --out file's bytes by name."""
    argv = (
        ["--fact", str(fact)]
        + [f"--dim={dim}={data / dim}.csv" for dim in DIMENSION_TABLES]
        + [f"--join={key}:{dim}:{key}" for key, dim in JOINS]
        + ["--bins=year=y1998:1998:1999,y1999:1999:2000,y2000on:2000:2010",
           "--filter=year=y1998", "--filter=year=y2000on",
           "--key-dim", "tid", "--combine-dims", "age_group,product_name",
           "--minsup", minsup, "--minconf", minconf, "--algorithm", "both",
           "--repeatable-dims", "product_name", "--out", str(out)]
    )
    assert main(argv) == 0
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


@pytest.fixture(scope="module")
def star(tmp_path_factory):
    """The generated input, its fact lines, and the outputs mined from it."""
    data = tmp_path_factory.mktemp("star")
    generate_sales(SynthSpec(seed=20260808, n_fact_rows=10_000), data)
    header, *lines = (data / "fact.csv").read_text(encoding="utf-8").splitlines()
    outputs = run(data, data / "fact.csv", data / "out")
    levels = json.loads(outputs["stats.json"])["itemsets_per_level"]
    assert max(map(int, levels)) >= 3
    return data, header, lines, outputs


def write_fact(path: Path, header: str, lines: list[str]) -> Path:
    path.write_text("\n".join([header, *lines]) + "\n", encoding="utf-8")
    return path


def test_renaming_every_key_one_to_one_changes_no_output(star, tmp_path):
    data, header, lines, outputs = star
    tids = list(dict.fromkeys(line.split(",", 1)[0] for line in lines))
    # new names in shuffled order, so the keys' sorted order changes too
    names = [f"K{i}" for i in range(len(tids))]
    random.Random(1).shuffle(names)
    renamed = dict(zip(tids, names))
    fact = write_fact(tmp_path / "fact.csv", header,
                      [renamed[tid] + "," + rest for tid, rest in (line.split(",", 1) for line in lines)])
    assert run(data, fact, tmp_path / "out") == outputs


def test_writing_every_fact_line_twice_doubles_only_general_rows(star, tmp_path):
    data, header, lines, outputs = star
    fact = write_fact(tmp_path / "fact.csv", header, [line for line in lines for _ in (0, 1)])
    doubled = run(data, fact, tmp_path / "out")
    stats, doubled_stats = json.loads(outputs["stats.json"]), json.loads(doubled.pop("stats.json"))
    assert doubled_stats == {**stats, "general_rows": 2 * stats["general_rows"]}
    assert doubled == {name: text for name, text in outputs.items() if name != "stats.json"}


def records(outputs: dict[str, bytes], name: str) -> list[dict]:
    return [json.loads(line) for line in outputs[name].splitlines()]


def test_permuting_the_fact_rows_keeps_every_itemset_and_rule(star, tmp_path):
    data, header, lines, outputs = star
    shuffled = lines[:]
    random.Random(2).shuffle(shuffled)
    permuted = run(data, write_fact(tmp_path / "fact.csv", header, shuffled), tmp_path / "out")

    # codes are numbered in first-occurrence order, and a decoded itemset
    # lists its pairs in code order: so only the pair sets must stay
    def pair_set(pairs):
        return sorted((p["dimension"], p["value"]) for p in pairs)

    def itemsets(outputs):
        return sorted((pair_set(r["items"]), r["support_count"]) for r in records(outputs, "itemsets.jsonl"))

    def rules(outputs):
        return [{**r, "antecedent": pair_set(r["antecedent"]), "consequent": pair_set(r["consequent"])}
                for r in records(outputs, "rules.jsonl")]

    assert itemsets(permuted) == itemsets(outputs)
    assert rules(permuted) == rules(outputs)


def test_appending_a_renamed_copy_of_the_fact_doubles_every_count_only(star, tmp_path):
    # c >= ceil(m * n) exactly when 2c >= ceil(2 * m * n), so the same
    # itemsets stay frequent and the same rules stay confident
    data, header, lines, outputs = star
    copy = ["R" + line for line in lines]
    doubled = run(data, write_fact(tmp_path / "fact.csv", header, lines + copy), tmp_path / "out")

    def doubled_counts(record, fields):
        return {**record, **{field: 2 * record[field] for field in fields}}

    assert records(doubled, "itemsets.jsonl") == [
        doubled_counts(r, ["support_count"]) for r in records(outputs, "itemsets.jsonl")]
    assert records(doubled, "rules.jsonl") == [
        doubled_counts(r, ["support_count", "antecedent_count"]) for r in records(outputs, "rules.jsonl")]
    stats = json.loads(outputs["stats.json"])
    assert json.loads(doubled["stats.json"]) == doubled_counts(stats, ["general_rows", "groups"])
    assert {name: doubled[name] for name in ("rules.txt", "registry.csv")} == {
        name: outputs[name] for name in ("rules.txt", "registry.csv")}


def test_dimension_rows_no_fact_row_references_change_no_output(star, tmp_path):
    data, _, _, outputs = star
    for dim in DIMENSION_TABLES:
        header, *rows = (data / f"{dim}.csv").read_text(encoding="utf-8").splitlines()
        # new keys, and values no referenced row has (a number for the binned year)
        unused = [",".join([f"unused{i}", *("2005" if name == "year" else f"unused{i}"
                                             for name in header.split(",")[1:])]) for i in range(3)]
        (tmp_path / f"{dim}.csv").write_text("\n".join([header, *unused, *rows]) + "\n", encoding="utf-8")
    assert run(tmp_path, data / "fact.csv", tmp_path / "out") == outputs


def test_raising_minsup_keeps_exactly_the_itemsets_and_rules_that_reach_it(star, tmp_path):
    data, _, _, outputs = star
    groups = json.loads(outputs["stats.json"])["groups"]
    counts = sorted(r["support_count"] for r in records(outputs, "itemsets.jsonl"))
    # a threshold at an existing count, written as the largest 12-place
    # decimal whose threshold over the groups is still exactly that count
    count = counts[len(counts) // 2]
    minsup = str(Decimal(count * 10**12 // groups).scaleb(-12))
    assert counts[0] < count
    raised = run(data, data / "fact.csv", tmp_path / "out", minsup=minsup)
    for name in ("itemsets.jsonl", "rules.jsonl"):
        kept = [r for r in records(outputs, name) if r["support_count"] >= count]
        assert records(raised, name) == kept
    assert raised["registry.csv"] == outputs["registry.csv"]


def test_raising_minconf_keeps_exactly_the_rules_at_or_above_it(star, tmp_path):
    data, _, _, outputs = star
    rules = records(outputs, "rules.jsonl")

    def confidence(rule):
        return Fraction(rule["support_count"], rule["antecedent_count"])

    # a threshold at an existing confidence that a decimal writes exactly
    exact = sorted({c for c in map(confidence, rules)
                    if c > Fraction(3, 10) and Decimal(c.numerator) / c.denominator == c})
    minconf = exact[len(exact) // 2]
    raised = run(data, data / "fact.csv", tmp_path / "out",
                 minconf=str(Decimal(minconf.numerator) / minconf.denominator))
    kept = [r for r in rules if confidence(r) >= minconf]
    assert min(map(confidence, kept)) == minconf and len(kept) < len(rules)
    assert records(raised, "rules.jsonl") == kept
    assert {name: raised[name] for name in ("itemsets.jsonl", "registry.csv")} == {
        name: outputs[name] for name in ("itemsets.jsonl", "registry.csv")}
