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
import types
import typing
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

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

    Each field's annotation is its JSON shape: construction checks every
    field against it and turns lists into tuples. ``minsup``/``minconf``
    are best given as decimal strings, which keep thresholds exact.
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
    minsup: str | float | None = None
    minconf: str | float | None = None
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
        for name, hint in _FIELD_HINTS.items():
            value = getattr(self, name)
            try:
                object.__setattr__(self, name, _conform(value, hint))
            except ValueError:
                raise ValueError(f"config field {name!r} must be {_shape(hint)}, got {value!r}") from None

    def validate(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"algorithm must be one of {ALGORITHMS}, got {self.algorithm!r}")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        attrs = [attr for attr, _ in self.bins]
        if len(set(attrs)) != len(attrs):
            raise ValueError(f"bins declares an attribute more than once: {attrs}")
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
        """Build a config from JSON-shaped data (lists where tuples go)."""
        unknown = set(data) - set(_FIELD_HINTS)
        if unknown:
            raise ValueError(f"config has unknown fields: {sorted(unknown)}")
        return cls(**data)


# computed once: resolving the string annotations costs far more than a check
_FIELD_HINTS = typing.get_type_hints(RunConfig)


def _conform(value: Any, hint: Any) -> Any:
    """``value`` checked against the annotation ``hint``, with every list made
    a tuple; ValueError if it does not fit."""
    args = typing.get_args(hint)
    if typing.get_origin(hint) is types.UnionType:
        for arm in args:
            try:
                return _conform(value, arm)
            except ValueError:
                pass
    elif args:  # tuple[X, ...] or tuple[A, B, ...]
        if isinstance(value, (list, tuple)):
            if args[-1] is Ellipsis:
                return tuple(_conform(v, args[0]) for v in value)
            if len(value) == len(args):
                return tuple(map(_conform, value, args))
    elif isinstance(value, bool):
        pass  # JSON's true/false are never integers or numbers
    elif isinstance(value, hint) or (hint is float and isinstance(value, int)):
        # JSON's NaN literal parses to a float that no threshold or bound can use
        if value == value:
            return value
    raise ValueError(value)


_JSON_NAMES = {str: "string", int: "integer", float: "number", type(None): "null"}


def _shape(hint: Any) -> str:
    """The JSON shape that ``_conform`` accepts for ``hint``, in words."""
    args = typing.get_args(hint)
    if typing.get_origin(hint) is types.UnionType:
        return " or ".join(map(_shape, args))
    if not args:
        return _JSON_NAMES[hint]
    if args[-1] is Ellipsis:
        return f"[{_shape(args[0])}, ...]"
    return f"[{', '.join(map(_shape, args))}]"


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


def _jsonl(records: Iterable[dict[str, Any]]) -> str:
    return "".join(_JSONL.encode(r) + "\n" for r in records)


def _json_doc(doc: dict[str, Any]) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


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


def _load_inputs(config: RunConfig, paths: Mapping[str, Path]) -> tuple[RelationalTable, list[RelationalTable]]:
    bins_by_attr = {attr: bins for attr, bins in config.bins}

    def schema_for(header: Sequence[str]) -> tuple[AttributeSpec, ...]:
        specs = []
        for name in header:
            if name in bins_by_attr:
                specs.append(AttributeSpec(name=name, kind=QUANTITATIVE, bins=bins_by_attr[name]))
            else:
                specs.append(AttributeSpec(name=name))
        return tuple(specs)

    headers = {name: read_header(p) for name, p in paths.items()}
    for attr in bins_by_attr:
        if not any(attr in header for header in headers.values()):
            raise SchemaError(f"--bins attribute {attr!r} not found in any input table")
    fact, *dims = (load_csv(paths[name], schema_for(h), name=name) for name, h in headers.items())
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
        written = generate_sales(spec, out / "data")
        paths = {"fact": written["fact"], **written}
        result.files.update({f"data/{name}": path for name, path in paths.items()})
    else:
        assert config.fact is not None
        paths = {"fact": Path(config.fact), **{name: Path(p) for name, p in config.dims}}
    if config.key_dim is None:
        return result  # generation-only run

    fact, dims = _load_inputs(config, paths)
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
    # Each file replaces its old version whole; a failed write leaves every
    # file either as the previous run left it or as this run wrote it. Each
    # file is rendered just before it is written, so only one file's text
    # and records are alive at a time.
    def write(name: str, content: str) -> None:
        path = out / name
        write_text_atomic(path, content)
        result.files[name] = path

    try:
        write("itemsets.txt", "".join(_format_itemset(d) + "\n" for d in result.decoded))
        # decoded itemsets are 1:1 with the mined code itemsets; carrying the
        # codes makes every stats number recomputable from this file
        write("itemsets.jsonl", _jsonl(
            {
                "items": _pairs_json(d.pairs),
                "codes": list(fi.items),
                "level": d.level,
                "support_count": d.support_count,
                "support": d.support,
            }
            for fi, d in zip(result.itemsets, result.decoded)
        ))
        write("rules.txt", "".join(format_rule(r) + "\n" for r in result.rules))
        write("rules.jsonl", _jsonl(
            {
                "antecedent": _pairs_json(r.antecedent),
                "consequent": _pairs_json(r.consequent),
                "support_count": r.support_count,
                "antecedent_count": r.antecedent_count,
                "support": r.support,
                "confidence": r.confidence,
            }
            for r in result.rules
        ))

        # the agreement check has made both miners' itemsets equal to these
        found = {
            "itemsets_per_level": Counter(str(fi.level) for fi in result.itemsets),
            "itemsets_total": len(result.itemsets),
        }
        write("stats.json", _json_doc({
            "minsup": config.minsup,
            "minconf": config.minconf,
            "general_rows": result.general_rows,
            "groups": result.groups,
            "codes": result.codes,
            "rules_total": len(result.rules),
            "algorithms": {name: st.counters() for name, st in result.stats.items()},
            **found,
        }))
        if config.algorithm == "both":
            write("bench_report.json", _json_doc({
                "groups": result.groups,
                "codes": result.codes,
                "minsup": config.minsup,
                "algorithms": {name: {**st.counters(), **found} for name, st in result.stats.items()},
                "agreement": True,
            }))

        if result.registry is not None:
            registry_path = out / "registry.csv"
            result.registry.write_csv(registry_path)
            result.files["registry.csv"] = registry_path
    except OSError as exc:
        raise ValueError(f"cannot write artifacts to {out}: {exc.strerror}") from None
