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
from collections import Counter, deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from .datamodel import Atom, AttributeSpec, RelationalTable
from .errors import AgreementError, SchemaError, StarMinerError, UsageError
from .ingest import _bin_error, _cell_chunks, _orphan_error, discretize, join_tables, load_csv, read_header
from .ingest import write_text_atomic
from .mapcode import DecodedItemset, MapCodeRegistry, MdTable, Pair, combine_dims, transform_map_code
from .mining import (
    FrequentItemset,
    MiningStats,
    apriori_baseline,
    fi_gen,
    group_by_key,
    threshold_in_range,
)
from .rules import AssociationRule, DimensionPolicy, format_pair, format_percent, gen_rules
from .synth import DIMENSION_TABLES, SynthSpec, generate_sales

ALGORITHMS = ("rshar", "apriori", "both")
# the files a mining run writes in the output directory
ARTIFACTS = ("itemsets.txt", "itemsets.jsonl", "rules.txt", "rules.jsonl", "stats.json", "registry.csv",
             "bench_report.json")

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
    seed: int | None = None
    workers: int = 1  # accepted and ignored: support counting runs on one thread

    def __post_init__(self) -> None:
        for name, hint in _FIELD_HINTS.items():
            value = getattr(self, name)
            try:
                object.__setattr__(self, name, _conform(value, hint))
            except ValueError:
                raise UsageError(f"config field {name!r} must be {_shape(hint)}, got {value!r}") from None

    def validate(self) -> None:
        paths = [self.out_dir, *filter(None, [self.fact]), *(path for _, path in self.dims)]
        if any("\0" in path for path in paths):
            raise UsageError(f"paths cannot hold a NUL character, got {paths}")
        if self.algorithm not in ALGORITHMS:
            raise UsageError(f"algorithm must be one of {ALGORITHMS}, got {self.algorithm!r}")
        if self.workers < 1:
            raise UsageError("workers must be >= 1")
        attrs = [attr for attr, _ in self.bins]
        if len(set(attrs)) != len(attrs):
            raise UsageError(f"bins declares an attribute more than once: {attrs}")
        try:
            _binned_specs(self.bins)
        except SchemaError as exc:
            raise UsageError(f"bins: {exc}") from None
        if self.synth_rows is not None:
            # SynthSpec checks the same bound, but as a data error
            if self.synth_rows < 0:
                raise UsageError(f"synth_rows must be >= 0, got {self.synth_rows!r}")
            if self.seed is None:
                raise UsageError("synthetic data generation requires a seed")
            if self.fact is not None or self.dims:
                raise UsageError("synth mode and explicit input tables are exclusive")
        elif self.key_dim is None:
            raise UsageError("nothing to do: no input tables to mine and no data to generate")
        if self.key_dim is not None:
            if self.synth_rows is None and self.fact is None:
                raise UsageError("mining requires a fact table (or synth mode)")
            if not self.selected_dims:
                raise UsageError("mining requires at least one combined dimension")
            # combine_dims checks the same, but as schema errors
            if len(set(self.selected_dims)) != len(self.selected_dims):
                raise UsageError(f"selected_dims contains duplicates: {list(self.selected_dims)}")
            if self.key_dim in self.selected_dims:
                raise UsageError(f"key_dim {self.key_dim!r} cannot also be in selected_dims")
            unknown = sorted(set(self.repeatable_dims) - set(self.selected_dims))
            if unknown:
                raise UsageError(f"repeatable_dims {unknown} are not in selected_dims")
            # join_tables checks the same, but only once every table loads
            linked = [dim for _, dim, _ in self.joins]
            twice = sorted({dim for dim in linked if linked.count(dim) > 1})
            if twice:
                raise UsageError(f"joins must link each dimension once, got several links to {twice}")
            if self.synth_rows is None:
                # run_pipeline finds each dimension by its name, and the fact table is "fact"
                names = [name for name, _ in self.dims]
                if len(set(names)) != len(names) or "fact" in names:
                    raise UsageError(f"dims must name each table once, and none 'fact': {names}")
                source = "no dims entry provides"
            else:
                names, source = DIMENSION_TABLES, "synth does not make"
            unknown = sorted({dim for _, dim, _ in self.joins} - set(names))
            if unknown:
                raise UsageError(f"joins name dimensions that {source}: {unknown}")
            if self.projected:  # the join and combine_dims find the same, but only once every table loads
                attrs = [attr for _, attr in self.projected]
                tables = {table for table, _ in self.projected} - {"fact", *(dim for _, dim, _ in self.joins)}
                needed = sorted({self.key_dim, *self.selected_dims, *(dim for dim, _ in self.filters)})
                if len(set(attrs)) != len(attrs) or tables or not set(needed) <= set(attrs):
                    raise UsageError(f"projected must name each attribute once, from 'fact' or a joined "
                                     f"dimension, and all of {needed}: got {[list(p) for p in self.projected]}")
            if self.minsup is None or self.minconf is None:
                raise UsageError("mining requires both minsup and minconf")
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
            raise UsageError(f"config has unknown fields: {sorted(unknown)}")
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
        # JSON's NaN literal parses to a float that no threshold can use
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


_JSONL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _json_doc(doc: dict[str, Any]) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


class _Memo(dict):
    """Each key's rendering, made on its first lookup and reused after."""

    def __init__(self, render: Callable[[Any], str]):
        super().__init__()
        self._render = render

    def __missing__(self, key: Any) -> str:
        fragment = self[key] = self._render(key)
        return fragment


class _Renderer:
    """The lines of the itemset and rule files, each ending in a newline.

    Thousands of itemsets may share a few hundred distinct pairs, so each
    distinct pair's text and JSON, each code's JSON string, and each
    distinct percentage and float is rendered once, and every line is joined
    from those fragments. A JSON line spells its keys in sorted order and its
    numbers as ``repr`` does, exactly as ``_JSONL`` encodes its record.
    """

    def __init__(self) -> None:
        self._text = _Memo(format_pair).__getitem__
        self._json = _Memo(lambda pair: _JSONL.encode({"dimension": pair[0], "value": pair[1]})).__getitem__
        self._code = _Memo(_JSONL.encode).__getitem__
        self._percent = _Memo(format_percent).__getitem__
        self._float = _Memo(repr).__getitem__

    def _pairs_text(self, pairs: Sequence[Pair]) -> str:
        return " ∧ ".join(map(self._text, pairs))

    def _pairs_json(self, pairs: Sequence[Pair]) -> str:
        return ",".join(map(self._json, pairs))

    def itemset_text(self, d: DecodedItemset) -> str:
        return f"{self._pairs_text(d.pairs)}  sup={self._percent(d.support)}% ({d.support_count})\n"

    def itemset_json(self, fi: FrequentItemset, d: DecodedItemset) -> str:
        # decoded itemsets are 1:1 with the mined code itemsets; carrying the
        # codes makes every stats number recomputable from this file
        return (
            f'{{"codes":[{",".join(map(self._code, fi.items))}],"items":[{self._pairs_json(d.pairs)}],'
            f'"level":{len(d.pairs)},"support":{self._float(d.support)},"support_count":{d.support_count}}}\n'
        )

    def rule_text(self, r: AssociationRule) -> str:
        return (
            f"{self._pairs_text(r.antecedent)} → {self._pairs_text(r.consequent)} "
            f"{{sup={self._percent(r.support)}%, conf={self._percent(r.confidence)}%}}\n"
        )

    def rule_json(self, r: AssociationRule) -> str:
        return (
            f'{{"antecedent":[{self._pairs_json(r.antecedent)}],"antecedent_count":{r.antecedent_count},'
            f'"confidence":{self._float(r.confidence)},"consequent":[{self._pairs_json(r.consequent)}],'
            f'"support":{self._float(r.support)},"support_count":{r.support_count}}}\n'
        )


def _derive_projection(
    fact: RelationalTable,
    dims: Mapping[str, RelationalTable],
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
        owners = [name for name, t in dims.items() if attr in t.attribute_names]
        if not owners:
            raise SchemaError(f"attribute {attr!r} is in neither the fact table nor a joined dimension")
        if len(owners) > 1:
            raise SchemaError(
                f"attribute {attr!r} is ambiguous (in tables {owners}); declare an "
                "explicit projection in the config file"
            )
        projected.append((owners[0], attr))
    return tuple(projected)


def _binned_specs(bins: BinsConfig) -> dict[str, AttributeSpec]:
    """Each binned attribute's quantitative spec; a malformed bin list is a SchemaError."""
    return {attr: AttributeSpec(name=attr, bins=b) for attr, b in bins}


def _schemas(config: RunConfig, paths: Mapping[str, Path]) -> dict[str, tuple[AttributeSpec, ...]]:
    """The schema of the fact table and of each joined dimension, by name, in
    the order of ``paths``."""
    binned = _binned_specs(config.bins)
    headers = {name: read_header(p) for name, p in paths.items()}
    for attr in binned:
        if not any(attr in header for header in headers.values()):
            raise SchemaError(f"--bins attribute {attr!r} not found in any input table")
    # every header is read for the --bins check, but only joined dimensions load
    joined = {"fact", *(dim for _, dim, _ in config.joins)}
    return {
        name: tuple(binned.get(a) or AttributeSpec(name=a) for a in h)
        for name, h in headers.items()
        if name in joined
    }


def _fact_tables(path: Path, schema: tuple[AttributeSpec, ...]) -> Iterator[RelationalTable]:
    """The fact file at ``path`` as one table per chunk of rows, in file
    order. Each is built by ``load_csv``, with pools of its own, so the load
    stage covers every fact row. Nothing of a chunk is held once its table
    is yielded, and a bad row raises the whole file's first error."""
    return map(lambda chunk: load_csv(path, schema, "fact", [chunk]), _cell_chunks(path, schema))


def _ingest(
    config: RunConfig,
    paths: Mapping[str, Path],
    schemas: Mapping[str, tuple[AttributeSpec, ...]],
    facts: Iterable[RelationalTable],
    result: PipelineResult,
) -> Iterator[MdTable]:
    """Join, discretize and code each table of fact rows in turn, yielding
    each one's (key, code) table.

    Sets ``result.registry`` to the one registry that codes every table and
    adds the general-table rows to ``result.general_rows``. The dimensions
    load once, after the first table. Once a table fails, none is yielded,
    but each later one is still drawn, joined and binned, so that the end
    of the file raises the error a whole-table run raises first.
    """
    assert config.key_dim is not None
    needed = [config.key_dim, *config.selected_dims, *(d for d, _ in config.filters)]
    filter_map: dict[str, set[str]] = {}
    for dim, value in config.filters:
        filter_map.setdefault(dim, set()).add(value)
    registry = result.registry = MapCodeRegistry(config.selected_dims)
    links = None
    orphans: dict[tuple[str, Atom], None] = {}  # of every table, in fact-row order
    failed: tuple[int, StarMinerError] | None = None  # the first-ranked error
    for fact in facts:
        if links is None:  # the first table
            try:
                dims = {name: load_csv(paths[name], s, name=name) for name, s in schemas.items() if name != "fact"}
                projected = config.projected or _derive_projection(fact, dims, needed)
            except StarMinerError:
                deque(facts, maxlen=0)  # a fact load error further on wins
                raise
            links = [(fact_key, dims[dim], dim_key) for fact_key, dim, dim_key in config.joins]
        rank = -1  # orders the errors: any join error, bin errors by column, any other
        try:
            general = join_tables(fact, links, projected)
            # a stage's input is released once the next stage has consumed it,
            # and a chunk's tables before the next chunk loads
            del fact
            start = result.general_rows
            result.general_rows += general.n_rows
            for rank, spec in enumerate(general.schema):
                if not spec.is_categorical():
                    general = discretize(general, spec.name)
            rank = len(general.schema)
            if not failed:
                _, md = combine_dims(
                    general, config.key_dim, config.selected_dims, filters=filter_map or None, registry=registry
                )
                del general
                yield md
        except StarMinerError as exc:
            orphans.update(dict.fromkeys(getattr(exc, "orphans", ())))
            if hasattr(exc, "outside"):
                attr, value, row = exc.outside
                exc = _bin_error(attr, value, start + row)
            if failed is None or rank < failed[0]:
                failed = rank, exc.with_traceback(None)  # a traceback keeps the chunk's frames
    if orphans:
        raise _orphan_error(list(orphans))
    if failed:
        raise failed[1]


def run_pipeline(config: RunConfig) -> PipelineResult:
    """Execute a full run and write its artifacts under ``config.out_dir``."""
    config.validate()
    out = Path(config.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"cannot create output directory {out}: {exc.strerror}") from None
    result = PipelineResult()

    if config.synth_rows is not None:
        spec = SynthSpec(seed=config.seed, n_fact_rows=config.synth_rows)
        try:
            written = generate_sales(spec, out / "data")
        except OSError as exc:
            raise UsageError(f"cannot write synthetic data to {out / 'data'}: {exc.strerror}") from None
        paths = {"fact": written["fact"], **written}
        result.files.update({f"data/{name}": path for name, path in paths.items()})
    else:
        assert config.fact is not None
        paths = {"fact": Path(config.fact), **{name: Path(p) for name, p in config.dims}}
    if config.key_dim is None:
        # a generation-only run: an earlier mining run's artifacts would sit
        # beside CSVs they do not describe
        try:
            for name in ARTIFACTS:
                (out / name).unlink(missing_ok=True)
        except OSError as exc:
            raise UsageError(f"cannot remove earlier artifacts from {out}: {exc.strerror}") from None
        return result

    # The fact file streams through the stages one table per chunk, and
    # group_by_key groups each chunk's (key, code) table as soon as it is
    # made, so only one chunk's tables are alive beside the dimensions and
    # the groups.
    schemas = _schemas(config, paths)
    view = group_by_key(_ingest(config, paths, schemas, _fact_tables(paths["fact"], schemas["fact"]), result))
    assert result.registry is not None
    result.codes = len(result.registry)
    result.groups = view.n_groups

    assert config.minsup is not None and config.minconf is not None
    outputs: dict[str, tuple[list[FrequentItemset], MiningStats]] = {}
    if config.algorithm in ("rshar", "both"):
        outputs["rshar"] = fi_gen(view, config.minsup)
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

    decoded = transform_map_code(itemsets, result.registry)
    result.decoded = decoded
    policy = DimensionPolicy(repeatable=config.repeatable_dims)
    rules = gen_rules(decoded, config.minconf, policy)
    result.rules = rules

    _write_artifacts(config, out, result)
    return result


def _write_artifacts(config: RunConfig, out: Path, result: PipelineResult) -> None:
    # Each file replaces its old version whole; a failed write leaves every
    # file either as the previous run left it or as this run wrote it. Each
    # line is rendered as it is written, so no file's whole text is alive.
    def write(name: str, pieces: Iterable[str]) -> None:
        path = out / name
        write_text_atomic(path, pieces)
        result.files[name] = path

    try:
        render = _Renderer()
        write("itemsets.txt", map(render.itemset_text, result.decoded))
        write("itemsets.jsonl", map(render.itemset_json, result.itemsets, result.decoded))
        write("rules.txt", map(render.rule_text, result.rules))
        write("rules.jsonl", map(render.rule_json, result.rules))

        # the agreement check has made both miners' itemsets equal to these
        found = {
            "itemsets_per_level": Counter(str(fi.level) for fi in result.itemsets),
            "itemsets_total": len(result.itemsets),
        }
        write("stats.json", [_json_doc({
            "minsup": config.minsup,
            "minconf": config.minconf,
            "general_rows": result.general_rows,
            "groups": result.groups,
            "codes": result.codes,
            "rules_total": len(result.rules),
            "algorithms": {name: st.counters() for name, st in result.stats.items()},
            **found,
        })])
        if config.algorithm == "both":
            write("bench_report.json", [_json_doc({
                "groups": result.groups,
                "codes": result.codes,
                "minsup": config.minsup,
                "algorithms": {name: {**st.counters(), **found} for name, st in result.stats.items()},
                "agreement": True,
            })])
        else:
            # an earlier run's report would sit beside this run's stats.json
            (out / "bench_report.json").unlink(missing_ok=True)
        write("registry.csv", ["\n".join(result.registry.csv_lines()) + "\n"])
    except OSError as exc:
        raise UsageError(f"cannot write artifacts to {out}: {exc.strerror}") from None
