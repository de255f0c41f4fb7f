"""End-to-end orchestration: configuration, the mining pipeline, and the
two-algorithm comparison.

A run loads (or synthesizes) the input tables, joins them into the general
table, discretizes quantitative columns, assigns combined-dimension codes,
groups by the key dimension, mines frequent itemsets, decodes them, and
generates rules. Artifacts land in the output directory as human-readable
text plus line-delimited JSON records, and every persisted file is a pure
function of (seed, config): wall-clock timings stay in the in-memory
``MiningStats`` and on the console.
"""

from __future__ import annotations

import dataclasses
import json
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

from .datamodel import QUANTITATIVE, AttributeSpec, RelationalTable
from .errors import AgreementError, SchemaError
from .ingest import JoinSpec, discretize, join_tables, load_csv, read_header, write_text_atomic
from .mapcode import DecodedItemset, MapCodeRegistry, combine_dims, transform_map_code
from .mining import (
    FrequentItemset,
    MiningStats,
    apriori_baseline,
    fi_gen,
    group_by_key,
    threshold_in_range,
)
from .rules import AssociationRule, DimensionPolicy, format_pairs, format_percent, format_rule, gen_rules
from .synth import DIMENSION_TABLES, SynthSpec, generate_sales

ALGORITHMS = ("rshar", "apriori", "both")

BinsConfig = tuple[tuple[str, tuple[tuple[str, float, float], ...]], ...]


@dataclass(frozen=True)
class RunConfig:
    """Everything one run needs; round-trips losslessly through a JSON dict.

    ``minsup``/``minconf`` are decimal strings so thresholds stay exact.
    Synthetic-data runs set ``synth_rows`` (plus ``seed``) instead of
    ``fact``/``dims``; leaving ``key_dim`` unset turns such a run into pure
    data generation.
    """

    out_dir: str
    fact: str | None = None
    dims: tuple[tuple[str, str], ...] = ()
    joins: tuple[tuple[str, str, str], ...] = ()
    projected: tuple[tuple[str, str], ...] | None = None
    key_dim: str | None = None
    selected_dims: tuple[str, ...] = ()
    filters: tuple[tuple[str, str], ...] = ()
    bins: BinsConfig = ()
    minsup: str | None = None
    minconf: str | None = None
    algorithm: str = "rshar"
    repeatable_dims: tuple[str, ...] = ()
    synth_rows: int | None = None
    synth_customers: int = 100
    synth_products: int = 50
    synth_times: int = 50
    synth_channels: int = 60
    synth_skew: float = 1.0
    seed: int | None = None
    workers: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "dims", tuple(tuple(d) for d in self.dims))
        object.__setattr__(self, "joins", tuple(tuple(j) for j in self.joins))
        if self.projected is not None:
            object.__setattr__(self, "projected", tuple(tuple(p) for p in self.projected))
        object.__setattr__(self, "selected_dims", tuple(self.selected_dims))
        object.__setattr__(self, "filters", tuple(tuple(f) for f in self.filters))
        object.__setattr__(
            self,
            "bins",
            tuple((a, tuple(tuple(b) for b in bs)) for a, bs in self.bins),
        )
        object.__setattr__(self, "repeatable_dims", tuple(self.repeatable_dims))

    def validate(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"algorithm must be one of {ALGORITHMS}, got {self.algorithm!r}")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.synth_rows is not None:
            # SynthSpec checks the same bounds, but as a data error
            for name, low in _SYNTH_LOWER_BOUNDS.items():
                if getattr(self, name) < low:
                    raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)!r}")
            if self.seed is None:
                raise ValueError("synthetic data generation requires a seed")
            if self.fact is not None or self.dims:
                raise ValueError("synth mode and explicit input tables are exclusive")
        elif self.key_dim is None:
            raise ValueError("nothing to do: no input tables to mine and no data to generate")
        if self.key_dim is not None:
            if self.synth_rows is None and self.fact is None:
                raise ValueError("mining requires a fact table (or synth mode)")
            if not self.selected_dims:
                raise ValueError("mining requires at least one combined dimension")
            # combine_dims and JoinSpec check the same, but as schema errors
            if len(set(self.selected_dims)) != len(self.selected_dims):
                raise ValueError(f"selected_dims contains duplicates: {list(self.selected_dims)}")
            if self.key_dim in self.selected_dims:
                raise ValueError(f"key_dim {self.key_dim!r} cannot also be in selected_dims")
            unknown = sorted(set(self.repeatable_dims) - set(self.selected_dims))
            if unknown:
                raise ValueError(f"repeatable_dims {unknown} are not in selected_dims")
            links = [(fact_key, dim) for fact_key, dim, _ in self.joins]
            if len(set(links)) != len(links):
                raise ValueError(f"joins links one fact key to one dimension twice: {links}")
            if self.synth_rows is None:
                # load_csv names the fact table "fact"; JoinSpec finds tables by name
                names = [name for name, _ in self.dims]
                if len(set(names)) != len(names) or "fact" in names:
                    raise ValueError(f"dims must name each table once, and none 'fact': {names}")
                source = "no dims entry provides"
            else:
                names, source = DIMENSION_TABLES, "synth does not make"
            unknown = sorted({dim for _, dim, _ in self.joins} - set(names))
            if unknown:
                raise ValueError(f"joins name dimensions that {source}: {unknown}")
            if self.minsup is None or self.minconf is None:
                raise ValueError("mining requires both minsup and minconf")
            threshold_in_range("minsup", self.minsup)
            threshold_in_range("minconf", self.minconf)

    def to_dict(self) -> dict[str, Any]:
        def unwrap(value: Any) -> Any:
            if isinstance(value, tuple):
                return [unwrap(v) for v in value]
            return value

        return {f.name: unwrap(getattr(self, f.name)) for f in dataclasses.fields(self)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunConfig":
        """Build a config from JSON-shaped data (lists where tuples go).

        Each field's type and shape is checked first; a bad field is a
        ValueError that names it.
        """
        unknown = set(data) - set(_FIELD_SHAPES)
        if unknown:
            raise ValueError(f"config has unknown fields: {sorted(unknown)}")
        for name, value in data.items():
            fits, shape = _FIELD_SHAPES[name]
            if not fits(value):
                raise ValueError(f"config field {name!r} must be {shape}, got {value!r}")
        return cls(**data)


def _is_str(value: Any) -> bool:
    return isinstance(value, str)


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value: Any) -> bool:
    # JSON's NaN literal parses to a float that no threshold or bound can use
    return _is_int(value) or (isinstance(value, float) and value == value)


def _optional(fits: Callable[[Any], bool]) -> Callable[[Any], bool]:
    return lambda value: value is None or fits(value)


def _list_of(fits: Callable[[Any], bool]) -> Callable[[Any], bool]:
    return lambda value: isinstance(value, (list, tuple)) and all(map(fits, value))


def _tuple_of(*parts: Callable[[Any], bool]) -> Callable[[Any], bool]:
    return lambda value: (
        isinstance(value, (list, tuple))
        and len(value) == len(parts)
        and all(fits(v) for fits, v in zip(parts, value))
    )


_PAIR = _tuple_of(_is_str, _is_str)
_THRESHOLD = (_optional(lambda v: _is_str(v) or _is_number(v)), "a decimal string, a number or null")
# (check, expected shape in words) for every RunConfig field
_FIELD_SHAPES: dict[str, tuple[Callable[[Any], bool], str]] = {
    "out_dir": (_is_str, "a string"),
    "fact": (_optional(_is_str), "a string or null"),
    "dims": (_list_of(_PAIR), "a list of [name, path] pairs"),
    "joins": (
        _list_of(_tuple_of(_is_str, _is_str, _is_str)),
        "a list of [fact_key, dimension, dimension_key] triples",
    ),
    "projected": (_optional(_list_of(_PAIR)), "null or a list of [table, attribute] pairs"),
    "key_dim": (_optional(_is_str), "a string or null"),
    "selected_dims": (_list_of(_is_str), "a list of strings"),
    "filters": (_list_of(_PAIR), "a list of [dimension, value] pairs"),
    "bins": (
        _list_of(_tuple_of(_is_str, _list_of(_tuple_of(_is_str, _is_number, _is_number)))),
        "a list of [attribute, [[label, low, high], ...]] pairs",
    ),
    "minsup": _THRESHOLD,
    "minconf": _THRESHOLD,
    "algorithm": (_is_str, "a string"),
    "repeatable_dims": (_list_of(_is_str), "a list of strings"),
    "synth_rows": (_optional(_is_int), "an integer or null"),
    "synth_customers": (_is_int, "an integer"),
    "synth_products": (_is_int, "an integer"),
    "synth_times": (_is_int, "an integer"),
    "synth_channels": (_is_int, "an integer"),
    "synth_skew": (_is_number, "a number"),
    "seed": (_optional(_is_int), "an integer or null"),
    "workers": (_is_int, "an integer"),
}


# the least value SynthSpec accepts for each generator field
_SYNTH_LOWER_BOUNDS = {
    "synth_rows": 0,
    "synth_customers": 1,
    "synth_products": 1,
    "synth_times": 1,
    "synth_channels": 1,
    "synth_skew": 0,
}


@dataclass
class PipelineResult:
    """Everything a run produced, including the paths of written artifacts."""

    general_rows: int = 0
    groups: int = 0
    codes: int = 0
    itemsets: list[FrequentItemset] = field(default_factory=list)
    decoded: list[DecodedItemset] = field(default_factory=list)
    rules: list[AssociationRule] = field(default_factory=list)
    stats: dict[str, MiningStats] = field(default_factory=dict)
    registry: MapCodeRegistry | None = None
    files: dict[str, Path] = field(default_factory=dict)


def _format_itemset(decoded: DecodedItemset) -> str:
    return f"{format_pairs(decoded.pairs)}  sup={format_percent(decoded.support)}% ({decoded.support_count})"


_JSONL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _jsonl(records: Sequence[dict[str, Any]]) -> str:
    return "".join(_JSONL.encode(r) + "\n" for r in records)


def _pairs_json(pairs: Sequence[tuple[str, str]]) -> list[dict[str, str]]:
    return [{"dimension": d, "value": v} for d, v in pairs]


def _derive_projection(
    fact: RelationalTable,
    dims: Sequence[RelationalTable],
    needed: Sequence[str],
) -> tuple[tuple[str, str], ...]:
    """Resolve attribute names to (table, attribute) pairs.

    The fact table wins outright (its foreign-key columns legitimately share
    names with dimension keys); a name found in several dimensions but not in
    the fact table is ambiguous and needs an explicit projection.
    """
    projected: list[tuple[str, str]] = []
    for attr in dict.fromkeys(needed):
        if attr in fact.attribute_names:
            projected.append((fact.name, attr))
            continue
        owners = [t.name for t in dims if attr in t.attribute_names]
        if not owners:
            raise SchemaError(f"attribute {attr!r} not found in any input table")
        if len(owners) > 1:
            raise SchemaError(
                f"attribute {attr!r} is ambiguous (in tables {owners}); declare an "
                "explicit projection in the config file"
            )
        projected.append((owners[0], attr))
    return tuple(projected)


def _load_inputs(config: RunConfig, out: Path) -> tuple[RelationalTable, list[RelationalTable]]:
    bins_by_attr = {attr: bins for attr, bins in config.bins}

    def schema_for(header: Sequence[str]) -> tuple[AttributeSpec, ...]:
        specs = []
        for name in header:
            if name in bins_by_attr:
                specs.append(AttributeSpec(name=name, kind=QUANTITATIVE, bins=bins_by_attr[name]))
            else:
                specs.append(AttributeSpec(name=name))
        return tuple(specs)

    if config.synth_rows is not None:
        spec = SynthSpec(
            seed=config.seed if config.seed is not None else 0,
            n_fact_rows=config.synth_rows,
            n_customers=config.synth_customers,
            n_products=config.synth_products,
            n_times=config.synth_times,
            n_channels=config.synth_channels,
            skew=config.synth_skew,
        )
        paths = generate_sales(spec, out / "data")
        fact_path = paths["fact"]
        dim_paths = [(name, p) for name, p in paths.items() if name != "fact"]
    else:
        assert config.fact is not None
        fact_path = Path(config.fact)
        dim_paths = [(name, Path(p)) for name, p in config.dims]

    paths = [("fact", fact_path), *dim_paths]
    headers = [read_header(p) for _, p in paths]
    for attr in bins_by_attr:
        if not any(attr in header for header in headers):
            raise SchemaError(f"--bins attribute {attr!r} not found in any input table")
    fact, *dims = (load_csv(p, schema_for(h), name=name) for (name, p), h in zip(paths, headers))
    return fact, dims


def run_pipeline(config: RunConfig) -> PipelineResult:
    """Execute a full run and write its artifacts under ``config.out_dir``."""
    config.validate()
    out = Path(config.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValueError(f"cannot create output directory {out}: {exc.strerror}") from None
    result = PipelineResult()

    fact, dims = _load_inputs(config, out)
    if config.synth_rows is not None:
        result.files.update(
            {f"data/{t.name}": Path(config.out_dir) / "data" / f"{t.name}.csv" for t in (fact, *dims)}
        )
    if config.key_dim is None:
        return result  # generation-only run

    needed = [config.key_dim, *config.selected_dims, *(d for d, _ in config.filters)]
    projected = config.projected or _derive_projection(fact, dims, needed)
    join_spec = JoinSpec(fact_table="fact", links=config.joins, projected_attrs=projected)
    general = join_tables([fact, *dims], join_spec)
    # Each stage's input is released once the next stage has consumed it, so
    # peak memory holds about two stages' tables rather than every one.
    del fact, dims

    for spec in general.schema:
        if spec.kind == QUANTITATIVE:
            general = discretize(general, spec.name)
    result.general_rows = general.n_rows

    filter_map: dict[str, set[str]] = {}
    for dim, value in config.filters:
        filter_map.setdefault(dim, set()).add(value)
    registry, md = combine_dims(
        general,
        config.key_dim,
        config.selected_dims,
        filters=filter_map or None,
    )
    del general
    result.registry = registry
    result.codes = len(registry)

    view = group_by_key(md)
    del md
    result.groups = view.n_groups

    assert config.minsup is not None and config.minconf is not None
    outputs: dict[str, tuple[list[FrequentItemset], MiningStats]] = {}
    if config.algorithm in ("rshar", "both"):
        outputs["rshar"] = fi_gen(view, config.minsup, workers=config.workers)
    if config.algorithm in ("apriori", "both"):
        outputs["apriori"] = apriori_baseline(view, config.minsup)
    result.stats = {name: stats for name, (_, stats) in outputs.items()}

    if config.algorithm == "both":
        fingerprints = {
            name: sorted((fi.items, fi.support_count) for fi in itemsets)
            for name, (itemsets, _) in outputs.items()
        }
        if fingerprints["rshar"] != fingerprints["apriori"]:
            raise AgreementError(
                "rshar and apriori disagree on the frequent itemsets; this is a bug"
            )

    canonical = "rshar" if "rshar" in outputs else "apriori"
    itemsets = outputs[canonical][0]
    result.itemsets = itemsets

    decoded = transform_map_code(itemsets, registry)
    result.decoded = decoded
    policy = DimensionPolicy(repeatable=config.repeatable_dims)
    rules = gen_rules(decoded, config.minconf, policy)
    result.rules = rules

    _write_artifacts(config, out, result)
    return result


def _write_artifacts(config: RunConfig, out: Path, result: PipelineResult) -> None:
    # decoded itemsets are 1:1 with the mined code itemsets; carrying the
    # codes makes every stats number recomputable from this file
    itemset_records = [
        {
            "items": _pairs_json(d.pairs),
            "codes": list(fi.items),
            "level": d.level,
            "support_count": d.support_count,
            "support": d.support,
        }
        for fi, d in zip(result.itemsets, result.decoded)
    ]
    rule_records = [
        {
            "antecedent": _pairs_json(r.antecedent),
            "consequent": _pairs_json(r.consequent),
            "support_count": r.support_count,
            "antecedent_count": r.antecedent_count,
            "support": r.support,
            "confidence": r.confidence,
        }
        for r in result.rules
    ]
    files = {
        "itemsets.txt": "".join(_format_itemset(d) + "\n" for d in result.decoded),
        "itemsets.jsonl": _jsonl(itemset_records),
        "rules.txt": "".join(format_rule(r) + "\n" for r in result.rules),
        "rules.jsonl": _jsonl(rule_records),
    }

    # the agreement check has made both miners' itemsets equal to these
    found = {
        "itemsets_per_level": Counter(str(fi.level) for fi in result.itemsets),
        "itemsets_total": len(result.itemsets),
    }
    docs: dict[str, dict[str, Any]] = {
        "stats.json": {
            "minsup": config.minsup,
            "minconf": config.minconf,
            "general_rows": result.general_rows,
            "groups": result.groups,
            "codes": result.codes,
            "rules_total": len(result.rules),
            "algorithms": {name: st.counters() for name, st in result.stats.items()},
            **found,
        }
    }
    if config.algorithm == "both":
        docs["bench_report.json"] = {
            "groups": result.groups,
            "codes": result.codes,
            "minsup": config.minsup,
            "algorithms": {name: {**st.counters(), **found} for name, st in result.stats.items()},
            "agreement": True,
        }
    for name, doc in docs.items():
        files[name] = json.dumps(doc, sort_keys=True, indent=2) + "\n"

    # Each file replaces its old version whole; a failed write leaves every
    # file either as the previous run left it or as this run wrote it.
    try:
        for name, content in files.items():
            path = out / name
            write_text_atomic(path, content)
            result.files[name] = path

        if result.registry is not None:
            registry_path = out / "registry.csv"
            result.registry.write_csv(registry_path)
            result.files["registry.csv"] = registry_path
    except OSError as exc:
        raise ValueError(f"cannot write artifacts to {out}: {exc.strerror}") from None

