"""Load flat files, join dimension/fact tables into the general table, and
discretize quantitative attributes into categorical bins.

CSV dialect is deliberately strict: UTF-8, header row, comma delimiter, and
no quoting (files that quote delimiters inside values are rejected). Joins
enforce referential integrity; a fact key with no dimension match is an
error, never a silent row drop, because dropped rows corrupt support counts
downstream.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import product, repeat
from pathlib import Path
from typing import Iterable, Sequence

from .datamodel import Atom, AttributeSpec, RelationalTable
from .errors import DataError, SchemaError

_MAX_LISTED_ORPHANS = 20
# Data lines split at once by load_csv; bounds the cell strings alive at a time.
_CHUNK_LINES = 1 << 13


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


def write_text_atomic(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8 so that a reader, or a crash, sees
    either the old file or the complete new one.

    The text goes to a temporary name in the same directory, which
    ``os.replace`` then renames over ``path``; on any failure the temporary
    file is removed.
    """
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


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

    Lines are split a chunk at a time into column slices, and each column
    keeps one object per distinct value: equal cells share one ``str`` (or,
    for a quantitative column, one ``float``).
    """
    path = Path(path)
    schema = tuple(schema)
    text = _read_text(path)
    lines = text.splitlines()
    has_quote = '"' in text
    del text
    if not lines:
        raise DataError(f"{path}: empty file, expected a header row")

    expected = [s.name for s in schema]
    header = lines[0].split(",")
    if header != expected:
        raise DataError(
            f"{path}: header mismatch: expected {expected}, got {header}"
        )

    # Rows before the first quoted one are parsed, so that an earlier bad row
    # is still the one reported.
    end = len(lines)
    if has_quote:
        end = next((i for i in range(1, end) if '"' in lines[i]), end)
    width = len(schema)
    pools: list[dict[str, str]] = [{} for _ in schema]
    parts: list[list[str]] = [[] for _ in schema]
    for start in range(1, end, _CHUNK_LINES):
        chunk = lines[start : min(start + _CHUNK_LINES, end)]
        # a line splits into width cells exactly when it has width - 1 commas
        if set(map(str.count, chunk, repeat(","))) != {width - 1}:
            raise _first_row_error(path, schema, lines[1:end])
        flat = ",".join(chunk).split(",")
        for j, (pool, part) in enumerate(zip(pools, parts)):
            cells = flat[j::width]
            part.extend(map(pool.setdefault, cells, cells))
    columns: list[Iterable[Atom]] = []
    for spec, pool, part in zip(schema, pools, parts):
        if spec.is_categorical():
            columns.append(part)
            continue
        try:
            number = {cell: float(cell) for cell in pool}
        except ValueError:
            raise _first_row_error(path, schema, lines[1:end]) from None
        columns.append(map(number.__getitem__, part))
    if end < len(lines):
        raise DataError(
            f"{path} row {end}: quoted values are not supported; this format "
            "forbids delimiters inside values"
        )

    return RelationalTable(
        name=path.stem if name is None else name, schema=schema, columns=columns
    )


def _first_row_error(path: Path, schema: tuple[AttributeSpec, ...], body: list[str]) -> DataError:
    """The error for the first data line with the wrong number of cells or a
    quantitative cell that is not a number. The caller has seen one."""
    numeric = [j for j, spec in enumerate(schema) if not spec.is_categorical()]
    for i, line in enumerate(body, start=1):
        cells = line.split(",")
        if len(cells) != len(schema):
            return DataError(f"{path} row {i}: expected {len(schema)} values, got {len(cells)}")
        for j in numeric:
            try:
                float(cells[j])
            except ValueError:
                return DataError(
                    f"{path} row {i}: cannot parse {cells[j]!r} as a number for "
                    f"attribute {schema[j].name!r}"
                )
    raise AssertionError("no bad row in a body that failed its bulk checks")


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

    # (fact key column, dimension, {dimension key: its row indices}) per link
    link_info: list[tuple[tuple[Atom, ...], RelationalTable, dict[Atom, list[int]]]] = []
    for fact_key, dim_name, dim_key in spec.links:
        keys = fact.column(fact_key)
        if dim_name not in by_name:
            raise SchemaError(f"unknown dimension table {dim_name!r}")
        dim = by_name[dim_name]
        index: dict[Atom, list[int]] = {}
        for r, key in enumerate(dim.column(dim_key)):
            index.setdefault(key, []).append(r)
        link_info.append((keys, dim, index))

    orphans: list[tuple[str, Atom]] = []
    if any(not set(keys) <= index.keys() for keys, _, index in link_info):
        # name the orphans in fact-row order, then link order
        orphan_seen: set[tuple[str, Atom]] = set()
        for row_keys in zip(*(keys for keys, _, _ in link_info)):
            for key, (_, dim, index) in zip(row_keys, link_info):
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

    columns: list[Iterable[Atom]] = []
    if all(len(rs) == 1 for _, _, index in link_info for rs in index.values()):
        # Each fact row meets exactly one row of every dimension: fact
        # columns pass through, and each dimension column is its fact key
        # column mapped through a {key: value} dict.
        for source, pos in resolved:
            if source is None:
                columns.append(fact.columns[pos])
            else:
                keys, dim, index = link_info[source]
                values = dim.columns[pos]
                value_of = {key: values[r] for key, (r,) in index.items()}
                columns.append(map(value_of.__getitem__, keys))
    else:
        # Expand each fact row into one output row per combination of its
        # matching dimension rows, as row indices, then gather every column.
        fact_rows: list[int] = []
        dim_rows: list[list[int]] = [[] for _ in link_info]
        for i, row_keys in enumerate(zip(*(keys for keys, _, _ in link_info))):
            matches = [index[key] for key, (_, _, index) in zip(row_keys, link_info)]
            for combo in product(*matches):
                fact_rows.append(i)
                for rows, r in zip(dim_rows, combo):
                    rows.append(r)
        for source, pos in resolved:
            if source is None:
                columns.append(map(fact.columns[pos].__getitem__, fact_rows))
            else:
                columns.append(map(link_info[source][1].columns[pos].__getitem__, dim_rows[source]))

    return RelationalTable(name="general", schema=tuple(out_schema), columns=columns)


def discretize(table: RelationalTable, attr: str) -> RelationalTable:
    """Replace a quantitative column with its bin labels.

    Bins are inclusive-lower/exclusive-upper. A value outside every bin is an
    error with its row number; an already-categorical attribute is an error,
    never a silent no-op. Each distinct value is labelled once.
    """
    pos = table.index_of(attr)
    spec = table.schema[pos]
    if spec.is_categorical():
        raise SchemaError(
            f"attribute {attr!r} is already categorical; discretize applies only "
            "to quantitative attributes"
        )
    assert spec.bins is not None

    column = table.columns[pos]
    label_of: dict[Atom, str] = {}
    # distinct values in first-occurrence order, so the first value outside
    # every bin is also the first such row
    for value in dict.fromkeys(column):
        for b in spec.bins:
            if b.contains(float(value)):
                label_of[value] = b.label
                break
        else:
            raise DataError(
                f"row {column.index(value) + 1}: value {value!r} of attribute {attr!r} "
                "falls outside every declared bin"
            )

    columns = list(table.columns)
    columns[pos] = map(label_of.__getitem__, column)
    schema = table.schema[:pos] + (AttributeSpec(name=attr),) + table.schema[pos + 1 :]
    return RelationalTable(name=table.name, schema=schema, columns=columns)
