"""Load flat files, join dimension/fact tables into the general table, and
discretize quantitative attributes into categorical bins.

CSV dialect is deliberately strict: UTF-8, header row, comma delimiter, and
no quoting (files that quote delimiters inside values are rejected). Joins
enforce referential integrity; a fact key with no dimension match is an
error, never a silent row drop, because dropped rows corrupt support counts
downstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Sequence

from .datamodel import Atom, AttributeSpec, RelationalTable
from .errors import DataError, SchemaError

_MAX_LISTED_ORPHANS = 20


@dataclass(frozen=True)
class JoinSpec:
    """Declares how the fact table links to each dimension table.

    ``links`` are (fact_key_attr, dim_table, dim_key_attr) triples;
    ``projected_attrs`` are the (table, attribute) pairs kept in the output,
    in declared order.
    """

    fact_table: str
    links: tuple[tuple[str, str, str], ...]
    projected_attrs: tuple[tuple[str, str], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "links", tuple(tuple(l) for l in self.links))
        object.__setattr__(
            self, "projected_attrs", tuple(tuple(p) for p in self.projected_attrs)
        )
        if not self.projected_attrs:
            raise SchemaError("join spec must project at least one attribute")
        seen: set[tuple[str, str]] = set()
        for fact_key, dim_table, _ in self.links:
            pair = (fact_key, dim_table)
            if pair in seen:
                raise SchemaError(
                    f"join spec has two links for fact key {fact_key!r} and "
                    f"dimension {dim_table!r}"
                )
            seen.add(pair)


@dataclass(frozen=True)
class MappingFunction:
    """Finite lookup table mapping source attribute tuples to target tuples.

    Covers one-to-one through many-to-many: a source tuple mapped to several
    target tuples multiplies rows on application. Duplicate (source, target)
    pairs are collapsed at construction. Target values must be strings; the
    mined general table is categorical, and numeric targets would need bins
    that a mapping table cannot carry.
    """

    source_attrs: tuple[str, ...]
    target_attrs: tuple[str, ...]
    mapping: tuple[tuple[tuple[Atom, ...], tuple[str, ...]], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "source_attrs", tuple(self.source_attrs))
        object.__setattr__(self, "target_attrs", tuple(self.target_attrs))
        if not self.source_attrs or not self.target_attrs:
            raise SchemaError("mapping function needs source and target attributes")
        norm: list[tuple[tuple[Atom, ...], tuple[str, ...]]] = []
        seen: set[tuple[tuple[Atom, ...], tuple[str, ...]]] = set()
        for src, tgt in self.mapping:
            src = tuple(src)
            tgt = tuple(tgt)
            if len(src) != len(self.source_attrs):
                raise SchemaError(f"mapping entry {src!r}: source arity mismatch")
            if len(tgt) != len(self.target_attrs):
                raise SchemaError(f"mapping entry {src!r}: target arity mismatch")
            for v in tgt:
                if not isinstance(v, str):
                    raise SchemaError(
                        f"mapping entry {src!r}: target value {v!r} is not a string"
                    )
            pair = (src, tgt)
            if pair in seen:
                continue
            seen.add(pair)
            norm.append(pair)
        object.__setattr__(self, "mapping", tuple(norm))
        by_source: dict[tuple[Atom, ...], list[tuple[str, ...]]] = {}
        for src, tgt in norm:
            by_source.setdefault(src, []).append(tgt)
        object.__setattr__(self, "_by_source", by_source)

    def targets_for(self, source: tuple[Atom, ...]) -> list[tuple[str, ...]] | None:
        return self._by_source.get(tuple(source))  # type: ignore[attr-defined]


def _read_text(path: Path, header_only: bool = False) -> str:
    """The file's text, or only its first line, decoded as UTF-8.

    A leading BOM is dropped (it would otherwise corrupt the first header
    name with an invisible character). Every failure to open or decode the
    file is a DataError that names it.
    """
    try:
        with path.open(encoding="utf-8-sig") as fh:
            return fh.readline() if header_only else fh.read()
    except FileNotFoundError:
        raise DataError(f"no such file: {path}") from None
    except IsADirectoryError:
        raise DataError(f"{path}: is a directory, expected a CSV file") from None
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not valid UTF-8 text ({exc.reason})") from None
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror}") from None


def read_header(path: str | Path) -> list[str]:
    """The attribute names in a strict CSV file's header row.

    Only the first line is read, with the same decoding as :func:`load_csv`.
    """
    path = Path(path)
    first = _read_text(path, header_only=True)
    if not first:
        raise DataError(f"{path}: empty file, expected a header row")
    return first.splitlines()[0].split(",")


def load_csv(
    path: str | Path, schema: Sequence[AttributeSpec], name: str | None = None
) -> RelationalTable:
    """Parse a strict CSV file against a declared schema.

    The header must match the schema names in order. Cells of quantitative
    attributes are parsed as numbers; parse failures report the 1-based data
    row number. The table is named ``name``, by default the file's stem.
    """
    path = Path(path)
    schema = tuple(schema)
    text = _read_text(path)
    lines = text.splitlines()
    if not lines:
        raise DataError(f"{path}: empty file, expected a header row")

    expected = [s.name for s in schema]
    header = lines[0].split(",")
    if header != expected:
        raise DataError(
            f"{path}: header mismatch: expected {expected}, got {header}"
        )

    body = lines[1:]
    # Rows before the first quoted one are parsed, so that an earlier bad row
    # is still the one reported.
    quoted = None
    if '"' in text:
        quoted = next((i for i, line in enumerate(body) if '"' in line), None)
        body = body[:quoted]
    width = len(schema)
    numeric = [j for j, spec in enumerate(schema) if not spec.is_categorical()]
    rows: list[tuple[Atom, ...]] = []
    for i, line in enumerate(body, start=1):
        cells: list[Atom] = line.split(",")  # type: ignore[assignment]
        if len(cells) != width:
            raise DataError(f"{path} row {i}: expected {width} values, got {len(cells)}")
        for j in numeric:
            try:
                cells[j] = float(cells[j])
            except ValueError:
                raise DataError(
                    f"{path} row {i}: cannot parse {cells[j]!r} as a number for "
                    f"attribute {schema[j].name!r}"
                ) from None
        rows.append(tuple(cells))
    if quoted is not None:
        raise DataError(
            f"{path} row {quoted + 1}: quoted values are not supported; this format "
            "forbids delimiters inside values"
        )

    return RelationalTable(
        name=path.stem if name is None else name, schema=schema, rows=tuple(rows)
    )


def join_tables(
    tables: Sequence[RelationalTable], spec: JoinSpec
) -> RelationalTable:
    """Left-equi-join the fact table with each linked dimension.

    Output columns are the projected attributes in declared order; rows
    follow fact-table order, one per matching fact x dimension combination.
    Fact keys without a dimension match abort the join with the orphan keys
    listed.
    """
    by_name: dict[str, RelationalTable] = {}
    for t in tables:
        if t.name in by_name:
            raise SchemaError(f"duplicate table name {t.name!r}")
        by_name[t.name] = t
    if spec.fact_table not in by_name:
        raise SchemaError(f"unknown fact table {spec.fact_table!r}")
    fact = by_name[spec.fact_table]

    link_info: list[tuple[int, RelationalTable, dict[Atom, list[int]]]] = []
    for fact_key, dim_name, dim_key in spec.links:
        fact_pos = fact.index_of(fact_key)
        if dim_name not in by_name:
            raise SchemaError(f"unknown dimension table {dim_name!r}")
        dim = by_name[dim_name]
        dim_pos = dim.index_of(dim_key)
        index: dict[Atom, list[int]] = {}
        for r, row in enumerate(dim.rows):
            index.setdefault(row[dim_pos], []).append(r)
        link_info.append((fact_pos, dim, index))

    orphans: list[tuple[str, Atom]] = []
    if any(
        not set(map(itemgetter(fact_pos), fact.rows)) <= index.keys()
        for fact_pos, _, index in link_info
    ):
        # name the orphans in fact-row order, then link order
        orphan_seen: set[tuple[str, Atom]] = set()
        for row in fact.rows:
            for (fact_pos, dim, index) in link_info:
                key = row[fact_pos]
                if key not in index and (dim.name, key) not in orphan_seen:
                    orphan_seen.add((dim.name, key))
                    orphans.append((dim.name, key))
    if orphans:
        shown = ", ".join(f"{k!r} (dimension {d!r})" for d, k in orphans[:_MAX_LISTED_ORPHANS])
        more = "" if len(orphans) <= _MAX_LISTED_ORPHANS else f" and {len(orphans) - _MAX_LISTED_ORPHANS} more"
        raise DataError(f"fact keys without a dimension match: {shown}{more}")

    # Resolve each projected attribute to (source, column position) where
    # source is None for the fact table or a link index for a dimension.
    resolved: list[tuple[int | None, int]] = []
    out_schema: list[AttributeSpec] = []
    linked_names = {dim.name: li for li, (_, dim, _) in enumerate(link_info)}
    for table_name, attr in spec.projected_attrs:
        if table_name == fact.name:
            resolved.append((None, fact.index_of(attr)))
            out_schema.append(fact.spec_of(attr))
        elif table_name in linked_names:
            li = linked_names[table_name]
            dim = link_info[li][1]
            resolved.append((li, dim.index_of(attr)))
            out_schema.append(dim.spec_of(attr))
        else:
            raise SchemaError(
                f"projected table {table_name!r} is neither the fact table nor a "
                "joined dimension"
            )

    out_rows: Iterable[tuple[Atom, ...]]
    if all(len(rs) == 1 for _, _, index in link_info for rs in index.values()):
        # Each fact row meets exactly one row of every dimension, so each
        # output column is one lookup streamed over the fact rows.
        columns: list[Iterable[Atom]] = []
        for source, pos in resolved:
            if source is None:
                columns.append(map(itemgetter(pos), fact.rows))
            else:
                fact_pos, dim, index = link_info[source]
                value_of = {key: dim.rows[r][pos] for key, (r,) in index.items()}
                columns.append(map(value_of.__getitem__, map(itemgetter(fact_pos), fact.rows)))
        out_rows = zip(*columns)
    else:
        out_rows = []
        for row in fact.rows:
            match_lists = [index[row[fact_pos]] for fact_pos, _, index in link_info]
            for combo in product(*match_lists):
                out_row: list[Atom] = []
                for source, pos in resolved:
                    if source is None:
                        out_row.append(row[pos])
                    else:
                        dim = link_info[source][1]
                        out_row.append(dim.rows[combo[source]][pos])
                out_rows.append(tuple(out_row))

    return RelationalTable(name="general", schema=tuple(out_schema), rows=tuple(out_rows))


def apply_mapping_function(
    table: RelationalTable, fn: MappingFunction
) -> RelationalTable:
    """Append the mapping's target columns, multiplying rows for one-to-many
    entries. A source tuple that occurs in the data but not in the mapping is
    an error naming the tuple."""
    positions = [table.index_of(a) for a in fn.source_attrs]
    new_schema = table.schema + tuple(AttributeSpec(name=a) for a in fn.target_attrs)

    out_rows: list[tuple[Atom, ...]] = []
    for i, row in enumerate(table.rows, start=1):
        source = tuple(row[p] for p in positions)
        targets = fn.targets_for(source)
        if targets is None:
            raise DataError(
                f"row {i}: source tuple {source!r} has no entry in the mapping "
                f"over {fn.source_attrs}"
            )
        for tgt in targets:
            out_rows.append(row + tgt)

    return RelationalTable(name=table.name, schema=new_schema, rows=tuple(out_rows))


def discretize(table: RelationalTable, attr: str) -> RelationalTable:
    """Replace a quantitative column with its bin labels.

    Bins are inclusive-lower/exclusive-upper. A value outside every bin is an
    error with its row number; an already-categorical attribute is an error,
    never a silent no-op.
    """
    pos = table.index_of(attr)
    spec = table.schema[pos]
    if spec.is_categorical():
        raise SchemaError(
            f"attribute {attr!r} is already categorical; discretize applies only "
            "to quantitative attributes"
        )
    assert spec.bins is not None

    label_of: dict[Atom, str] = {}
    out_rows: list[tuple[Atom, ...]] = []
    for i, row in enumerate(table.rows, start=1):
        value = row[pos]
        label = label_of.get(value)
        if label is None:
            for b in spec.bins:
                if b.contains(float(value)):
                    label = label_of[value] = b.label
                    break
            else:
                raise DataError(
                    f"row {i}: value {value!r} of attribute {attr!r} falls outside "
                    "every declared bin"
                )
        out_rows.append(row[:pos] + (label,) + row[pos + 1 :])

    new_spec = AttributeSpec(name=attr)
    new_schema = table.schema[:pos] + (new_spec,) + table.schema[pos + 1 :]
    return RelationalTable(name=table.name, schema=new_schema, rows=tuple(out_rows))
