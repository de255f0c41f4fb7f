"""The CLI against a naive reference pipeline over random star schemas.

Each example writes a small fact table and one to three dimensions (some
with repeated keys, so a fact row can join several dimension rows), bins a
quantitative column, filters, and combines one to three dimensions into
codes. ``cli.main --algorithm both`` must then write the itemsets, rules and
registry that ``reference.py`` computes straight from the CSVs, or exit 2
where the reference finds an orphan key or a value outside every bin. Now
and then one row of one file is malformed: it holds a quote, a value too
few or too many, or a binned value that is not a finite number. The CLI
must then exit 2 with the reference's error line for the file's first bad
row, the fact file's before any dimension's.
Thresholds are drawn as decimals that land exactly on count ratios where a
terminating decimal can, so the ``>=`` comparisons are tested at equality.
A second run, whose fact file streams in chunks of a few rows, must exit
with the same code and error line and write the same bytes.
"""

import contextlib
import dataclasses
import io
import json
import math
import tempfile
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from unittest.mock import patch

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import reference
from starminer import ingest
from starminer.cli import main

KEYS = ["k0", "k1", "k2"]
NUMBERS = ["0", "1", "2.0", "2.5", "3", "4", "5"]  # bin bounds are whole numbers, some values too


@st.composite
def star_schemas(draw):
    """CSV texts by file name, and the run's inputs with paths relative to
    where those files are written."""
    files: dict[str, str] = {}
    fact_header = ["tid"]
    fact_columns: list[list[str]] = []  # a value pool per fact column after tid
    domains: dict[str, list[str]] = {}  # selectable attribute -> values it can take
    joins = []
    orphan = draw(st.integers(0, 9)) == 0
    quantitative = draw(st.sampled_from(["none", "fact", "d0"]))
    bounds = sorted(draw(st.sets(st.integers(0, 6), min_size=2, max_size=4)))
    if draw(st.integers(0, 4)):  # mostly, bins cover every drawn value
        bounds = sorted({0, 6, *bounds})
    bins = [(f"b{lo}", lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    if len(bins) > 2 and draw(st.booleans()):
        del bins[1]  # a gap between bins

    for d in range(draw(st.integers(1, 3))):
        dim_key = f"d{d}_id"
        fact_key = dim_key if draw(st.booleans()) else f"d{d}_ref"
        header = [dim_key]
        pools = [KEYS]
        for a in range(draw(st.integers(1, 2))):
            name = f"d{d}_a{a}"
            header.append(name)
            domains[name] = [f"v{i}" for i in range(draw(st.integers(2, 3)))]
            pools.append(domains[name])
        if quantitative == f"d{d}":
            header.append("q")
            pools.append(NUMBERS)
        rows = draw(st.lists(st.tuples(*map(st.sampled_from, pools)), min_size=2, max_size=5, unique=True))
        files[f"d{d}.csv"] = "".join(",".join(r) + "\n" for r in [header, *rows])
        joins.append((fact_key, f"d{d}", dim_key))
        fact_header.append(fact_key)
        keys = sorted({r[0] for r in rows})
        fact_columns.append(keys + ["kX"] * orphan)
        domains[fact_key] = KEYS
    if draw(st.booleans()):
        fact_header.append("f_a")
        domains["f_a"] = ["x0", "x1"]
        fact_columns.append(domains["f_a"])
    if quantitative == "fact":
        fact_header.append("q")
        fact_columns.append(NUMBERS)
    if quantitative != "none":
        domains["q"] = [label for label, _, _ in bins]

    tids = [f"t{i}" for i in range(draw(st.integers(2, 4)))]  # at most four groups, as thresholds() needs
    fact_rows = draw(st.lists(
        st.tuples(st.sampled_from(tids), *map(st.sampled_from, fact_columns)), min_size=2, max_size=14, unique=True,
    ))
    files["fact.csv"] = "".join(",".join(r) + "\n" for r in [fact_header, *fact_rows])
    # now and then one malformed row, in the fact file or a dimension file
    faults = ["quote", "fewer", "more", *["number"] * (quantitative != "none")]
    fault = draw(st.sampled_from([None, None, None, *faults]))
    if fault:
        name = f"{quantitative}.csv" if fault == "number" else draw(st.sampled_from(sorted(files)))
        lines = files[name].splitlines()
        header = lines[0].split(",")
        i = draw(st.integers(1, len(lines) - 1))
        cells = lines[i].split(",")
        j = draw(st.integers(0, len(cells) - 1))
        if fault == "quote":
            cells[j] = f'"{cells[j]}"'
        elif fault == "fewer":
            del cells[j]
        elif fault == "more":
            cells.insert(j, cells[j])
        else:
            cells[header.index("q")] = draw(st.sampled_from(["x", "", "nan", "-inf", "1e999"]))
        lines[i] = ",".join(cells)
        files[name] = "".join(line + "\n" for line in lines)

    names = sorted(domains)
    selected = draw(st.lists(st.sampled_from(names), min_size=1, max_size=3, unique=True))
    filters = []
    for dim in draw(st.lists(st.sampled_from(names), max_size=2, unique=True)):
        values = draw(st.lists(st.sampled_from([*domains[dim], "zz"]), min_size=1, max_size=2, unique=True))
        filters.extend((dim, value) for value in values)
    return files, reference.Inputs(
        fact=Path("fact.csv"),
        dims=tuple((f"d{d}", Path(f"d{d}.csv")) for d in range(len(joins))),
        joins=tuple(joins),
        key_dim="tid",
        selected=tuple(selected),
        filters=tuple(filters),
        bins=(("q", tuple(bins)),) if quantitative != "none" else (),
        minsup=draw(thresholds()),
        minconf=draw(thresholds()),
        repeatable=tuple(d for d in selected if draw(st.integers(0, 2))),
    )


@st.composite
def thresholds(draw):
    """A ratio of two counts as a decimal string: exact where it terminates,
    otherwise rounded to four places, up or down. With at most four groups,
    every support and confidence is such a ratio."""
    den = draw(st.integers(1, 4))
    ratio = Fraction(draw(st.integers(1, den)), den)
    if ratio.denominator != 3:
        return format(Decimal(ratio.numerator) / Decimal(ratio.denominator), "f")
    down = math.floor(ratio * 10_000)
    return str(Decimal(down if draw(st.booleans()) else down + 1) / 10_000)


def written(out: Path) -> reference.Expected:
    """What the CLI wrote, in the reference's formatting-free shape."""
    def records(name):
        return [json.loads(line) for line in (out / name).read_text(encoding="utf-8").splitlines()]

    def pairs(items):
        return tuple(sorted((p["dimension"], p["value"]) for p in items))

    registry = reference.parse_registry((out / "registry.csv").read_text(encoding="utf-8"))
    return reference.Expected(
        itemsets=sorted((tuple(sorted(r["codes"])), pairs(r["items"]), r["support_count"])
                        for r in records("itemsets.jsonl")),
        rules=sorted((pairs(r["antecedent"]), pairs(r["consequent"]), r["support_count"], r["antecedent_count"])
                     for r in records("rules.jsonl")),
        registry=registry,
    )


def cli_run(argv: list[str]) -> tuple[int, str, dict[str, bytes]]:
    """Exit code, stderr and the bytes of each ``--out`` file of one CLI run."""
    out = Path(argv[argv.index("--out") + 1])
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue(), {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.is_dir() else {}


# Two code sets that expand to one pair set, with counts 2 and 1: the rule
# from {A:a0, B:b0} to {A:a1, B:b1} must carry the larger count.
DEDUPE = (
    {
        "d0.csv": "d0_id,d0_a0,d0_a1\nk0,a0,b0\nk1,a1,b1\nk2,a0,b1\nk3,a1,b0\n",
        "fact.csv": "tid,d0_id\nt0,k0\nt0,k1\nt0,k2\nt0,k3\nt1,k0\nt1,k1\n",
    },
    reference.Inputs(
        fact=Path("fact.csv"), dims=(("d0", Path("d0.csv")),), joins=(("d0_id", "d0", "d0_id"),),
        key_dim="tid", selected=("d0_a0", "d0_a1"), filters=(), bins=(),
        minsup="0.5", minconf="0.5", repeatable=("d0_a0", "d0_a1"),
    ),
)


# Names and values that hold registry.csv's separators and its escape.
ESCAPED = (
    {
        "product.csv": "product_id,name=\\;\nP1,Salt=Pepper;Lemon\\\nP2,Beer\n",
        "fact.csv": "tid,product_id\nT1,P1\nT1,P2\nT2,P1\n",
    },
    reference.Inputs(
        fact=Path("fact.csv"), dims=(("product", Path("product.csv")),),
        joins=(("product_id", "product", "product_id"),), key_dim="tid", selected=("name=\\;",),
        filters=(), bins=(), minsup="0.5", minconf="0.5", repeatable=(),
    ),
)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(schema=star_schemas())
@example(schema=DEDUPE)
@example(schema=ESCAPED)
def test_cli_matches_the_reference_pipeline(schema):
    files, inputs = schema
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name, text in files.items():
            (tmp / name).write_text(text, encoding="utf-8")
        inputs = dataclasses.replace(
            inputs, fact=tmp / inputs.fact, dims=tuple((name, tmp / path) for name, path in inputs.dims)
        )
        try:
            expected, error = reference.run(inputs), None
        except reference.Rejected as exc:
            expected, error = None, exc
        argv = [
            "--fact", str(inputs.fact),
            *(f"--dim={name}={path}" for name, path in inputs.dims),
            *(f"--join={':'.join(link)}" for link in inputs.joins),
            "--key-dim", inputs.key_dim, "--combine-dims", ",".join(inputs.selected),
            *(f"--filter={dim}={value}" for dim, value in inputs.filters),
            *(f"--bins={attr}=" + ",".join(f"{label}:{lo}:{hi}" for label, lo, hi in bins)
              for attr, bins in inputs.bins),
            *([f"--repeatable-dims={','.join(inputs.repeatable)}"] if inputs.repeatable else []),
            "--minsup", inputs.minsup, "--minconf", inputs.minconf, "--algorithm", "both",
        ]
        code, err, files = cli_run([*argv, "--out", str(tmp / "out")])
        if expected is None:
            assert code == 2
            if isinstance(error, reference.Malformed):
                assert err == f"{error}\n"
        else:
            assert code == 0
            assert written(tmp / "out") == expected
        # the fact file streamed in chunks of a few rows fails or writes alike
        with patch.object(ingest, "_CHUNK_CHARS", 64):
            assert cli_run([*argv, "--out", str(tmp / "out64")]) == (code, err, files)
