"""Load flat files, join dimension/fact tables into the general table, and
discretize quantitative attributes into categorical bins.

CSV dialect is deliberately strict: UTF-8, header row, comma delimiter, and
no quoting (files that quote delimiters inside values are rejected). A file
is read and checked one chunk of text at a time. :func:`load_csv` turns each
column into a tuple once the last chunk is in; the pipeline instead takes the
fact file as one table per chunk. Joins enforce referential integrity; a fact
key with no dimension match is an error, never a silent row drop, because
dropped rows corrupt support counts downstream.
"""

from __future__ import annotations

import math
import os
from collections import deque
from contextlib import contextmanager
from functools import partial
from itertools import chain, product, repeat
from pathlib import Path
from typing import IO, Callable, Hashable, Iterable, Iterator, Sequence, TypeVar

from .datamodel import Atom, AttributeSpec, RelationalTable
from .errors import DataError, SchemaError

T = TypeVar("T")

_MAX_LISTED_ORPHANS = 20
# Characters of text a CSV file is read in at once. Larger chunks also scatter
# their freed strings among the kept distinct values, which then stay resident.
_CHUNK_CHARS = 1 << 16


@contextmanager
def _open_text(path: Path) -> Iterator[IO[str]]:
    """``path`` opened as UTF-8 text, less a leading BOM (which would corrupt
    the first header name). Every failure to open or decode it is a
    DataError that names it."""
    try:
        with path.open(encoding="utf-8-sig") as fh:
            yield fh
    except FileNotFoundError:
        raise DataError(f"no such file: {path}") from None
    except IsADirectoryError:
        raise DataError(f"{path}: is a directory, expected a CSV file") from None
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not valid UTF-8 text ({exc.reason})") from None
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror}") from None


def _read_chunks(fh: IO[str]) -> Iterator[str]:
    """The rest of ``fh`` in texts of about ``_CHUNK_CHARS`` characters,
    each read on to the next line feed, where str.splitlines also ends a line."""
    return iter(lambda: fh.read(_CHUNK_CHARS) + fh.readline(), "")


def write_text_atomic(path: Path, pieces: Iterable[str]) -> None:
    """Write the text ``pieces``, in order, to ``path`` as UTF-8 so that a
    reader, or a crash, sees either the old file or the complete new one.

    The pieces go to a temporary name in the same directory, which
    ``os.replace`` then renames over ``path``; on any failure, including one
    raised while the pieces are produced, the temporary file is removed.
    """
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with tmp.open("w", encoding="utf-8") as fh:
            fh.writelines(pieces)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_header(path: str | Path) -> list[str]:
    """The attribute names in a strict CSV file's header row.

    Only the first line is read, with the same decoding as :func:`load_csv`.
    The names must be non-empty and distinct.
    """
    path = Path(path)
    with _open_text(path) as fh:
        first = fh.readline()
    if not first:
        raise DataError(f"{path}: empty file, expected a header row")
    names = first.splitlines()[0].split(",")
    if "" in names or len(set(names)) != len(names):
        raise DataError(f"{path}: header names must be non-empty and distinct, got {names}")
    return names


def _cell_chunks(path: Path, schema: tuple[AttributeSpec, ...]) -> Iterator[list[list[str]]]:
    """The data rows of the strict CSV file at ``path``, read one chunk at a
    time, as each chunk's cells column by column.

    The header is checked once, and each chunk's quotes, widths and numbers
    as it is read; a failed check raises the file's first error, with row
    numbers counted from its first line. The header's chunk comes first even
    if it holds no row, so a file of a header alone is one chunk of empty
    columns. Nothing here holds a chunk once it has been yielded.
    """
    with _open_text(path) as fh:
        chunks = map(str.splitlines, _read_chunks(fh))
        # the header ends where splitlines says, which can be before the "\n"
        lines = next(chunks, [""])
        if lines[0].split(",") != [s.name for s in schema]:
            raise _first_row_error(path, schema)
        rows = chain([lines[1:]], chunks)
        del lines
        # map keeps no chunk between calls, where a loop's variables would
        # keep the last one alive while the next is read
        yield from map(partial(_checked_cells, path, schema), rows)


def _checked_cells(path: Path, schema: tuple[AttributeSpec, ...], lines: list[str]) -> list[list[str]]:
    """The cells of ``lines``, one chunk's rows of the file at ``path``,
    column by column, once each row holds no quote and one value per
    attribute, and each quantitative cell is a finite number."""
    width = len(schema)
    joined = ",".join(lines)
    # a line splits into width cells exactly when it has width - 1 commas
    if '"' in joined or set(map(str.count, lines, repeat(","))) - {width - 1}:
        raise _first_row_error(path, schema)
    flat = joined.split(",") if lines else []  # the header's chunk may hold no row
    columns = [flat[j::width] for j in range(width)]
    numbers = {cell for spec, cells in zip(schema, columns) if not spec.is_categorical() for cell in cells}
    try:
        finite = all(map(math.isfinite, map(float, numbers)))
    except ValueError:
        finite = False
    if not finite:
        raise _first_row_error(path, schema)
    return columns


def load_csv(
    path: str | Path,
    schema: Sequence[AttributeSpec],
    name: str | None = None,
    chunks: Iterable[list[list[str]]] | None = None,
) -> RelationalTable:
    """Parse a strict CSV file against a declared schema.

    The header must match the schema names in order. Cells of quantitative
    attributes are parsed as finite numbers; failures report the 1-based data
    row number. The table is named ``name``, by default the file's stem.

    The file is read one chunk at a time, each ending at a line end, and each
    chunk's lines are split into column slices. A column keeps one object
    per distinct value: equal cells share one ``str`` (or, for a
    quantitative column, one ``float``). Once the last chunk is in, each
    column list is turned into its tuple and released before the next.

    Given ``chunks``, some of the file's chunks as ``_cell_chunks`` yields
    them, the table holds their rows alone, pooled afresh: the pipeline loads
    the fact file so, one table per chunk.
    """
    path, schema = Path(path), tuple(schema)
    pools: list[dict[str, str]] = [{} for _ in schema]
    parts: list[list[str]] = [[] for _ in schema]
    for chunk in _cell_chunks(path, schema) if chunks is None else chunks:
        for pool, part, cells in zip(pools, parts, chunk):
            part.extend(map(pool.setdefault, cells, cells))
    columns: list[tuple[Atom, ...]] = []
    for spec in schema:
        pool, part = pools.pop(0), parts.pop(0)
        if not spec.is_categorical():
            number = {cell: float(cell) for cell in pool}
            part = map(number.__getitem__, part)
        columns.append(tuple(part))
    return RelationalTable._of(path.stem if name is None else name, schema, columns)


def _first_row_error(path: Path, schema: tuple[AttributeSpec, ...]) -> DataError:
    """The error of a file that failed one of the bulk checks, found by
    reading it again from its first line, line by line: the header, then per
    row a quote, the number of values and each finite number. The rest of the
    file is still read, so text that is not UTF-8 is reported wherever it is."""
    with _open_text(path) as fh:
        error = next(_line_errors(path, schema, chain.from_iterable(map(str.splitlines, fh))), None)
        deque(fh, maxlen=0)
    if error is None:
        raise AssertionError("no bad line in a file that failed its bulk checks")
    return error


def _line_errors(path: Path, schema: tuple[AttributeSpec, ...], lines: Iterator[str]) -> Iterator[DataError]:
    """The errors of ``lines`` in file order; only the first one is read."""
    header = next(lines, None)
    expected = [s.name for s in schema]
    if header is None:
        yield DataError(f"{path}: empty file, expected a header row")
    elif header.split(",") != expected:
        yield DataError(f"{path}: header mismatch: expected {expected}, got {header.split(',')}")
    numeric = [j for j, spec in enumerate(schema) if not spec.is_categorical()]
    for i, line in enumerate(lines, start=1):
        if '"' in line:
            yield DataError(
                f"{path} row {i}: quoted values are not supported; this format "
                "forbids delimiters inside values"
            )
        cells = line.split(",")
        if len(cells) != len(schema):
            yield DataError(f"{path} row {i}: expected {len(schema)} values, got {len(cells)}")
        for j in numeric:
            try:
                value = float(cells[j])
            except ValueError:
                yield DataError(
                    f"{path} row {i}: cannot parse {cells[j]!r} as a number for "
                    f"attribute {schema[j].name!r}"
                )
                continue
            if not math.isfinite(value):
                yield DataError(f"{path} row {i}: attribute {schema[j].name!r} has non-finite value {value!r}")


def _kept(table: RelationalTable, key: Hashable, make: Callable[[], T]) -> T:
    """``make()``, made once per ``table`` and ``key`` and kept on the table.

    A table never changes, so what is derived from it holds for its life: a
    fact file joined chunk by chunk builds each dimension's key index and
    value maps in its first chunk's join, not in every chunk's.
    """
    kept = vars(table).setdefault("_kept", {})
    if key not in kept:
        kept[key] = make()
    return kept[key]


def _key_index(column: Sequence[Atom]) -> tuple[dict[Atom, list[int]], bool]:
    """Each value of ``column`` with the indices of the rows that hold it,
    in row order, and whether every value is in one row only."""
    index: dict[Atom, list[int]] = {}
    for r, key in enumerate(column):
        index.setdefault(key, []).append(r)
    return index, all(len(rs) == 1 for rs in index.values())


def _orphan_error(orphans: list[tuple[str, Atom]]) -> DataError:
    """The error of fact keys without a dimension match, which keeps their
    distinct (dimension, key) pairs in fact-row order as ``orphans``."""
    shown = ", ".join(f"{k!r} (dimension {d!r})" for d, k in orphans[:_MAX_LISTED_ORPHANS])
    more = "" if len(orphans) <= _MAX_LISTED_ORPHANS else f" and {len(orphans) - _MAX_LISTED_ORPHANS} more"
    error = DataError(f"fact keys without a dimension match: {shown}{more}")
    error.orphans = orphans
    return error


def _bin_error(attr: str, value: Atom, row: int) -> DataError:
    """The error of ``value`` of ``attr`` in 1-based ``row`` being in no bin; keeps the three as ``outside``."""
    error = DataError(f"row {row}: value {value!r} of attribute {attr!r} falls outside every declared bin")
    error.outside = attr, value, row
    return error


def join_tables(
    fact: RelationalTable,
    links: Sequence[tuple[str, RelationalTable, str]],
    projected: Sequence[tuple[str, str]],
) -> RelationalTable:
    """Left-equi-join ``fact`` with each linked dimension.

    ``links`` holds ``(fact_key, dimension table, dimension_key)`` triples.
    Output columns are the ``projected`` (table name, attribute) pairs in
    declared order, so a dimension may be linked once only, and may not have
    the fact table's name: a pair could not say which link it means. Rows
    follow fact-table order, one per matching fact x dimension combination.
    Fact keys without a dimension match abort the join with the orphan keys
    listed. A dimension's key index and value maps are kept on its table, so
    joining it again, as each chunk of a fact file does, reuses them.
    """
    if not projected:
        raise SchemaError("join must project at least one attribute")
    source_of: dict[str, int | None] = {fact.name: None}
    # (fact key column, dimension, dimension key, {its value: its row indices}) per link
    link_info: list[tuple[tuple[Atom, ...], RelationalTable, str, dict[Atom, list[int]]]] = []
    one_to_one = True
    for fact_key, dim, dim_key in links:
        if dim.name in source_of:
            raise SchemaError(
                f"join names table {dim.name!r} twice, as the fact table or a linked "
                "dimension; a projected (table, attribute) pair could not say which it means"
            )
        source_of[dim.name] = len(link_info)
        index, unique = _kept(dim, dim_key, lambda: _key_index(dim.column(dim_key)))
        one_to_one = one_to_one and unique
        link_info.append((fact.column(fact_key), dim, dim_key, index))

    orphans: list[tuple[str, Atom]] = []
    if any(not set(keys) <= index.keys() for keys, _, _, index in link_info):
        # name the orphans in fact-row order, then link order
        orphan_seen: set[tuple[str, Atom]] = set()
        for row_keys in zip(*(keys for keys, _, _, _ in link_info)):
            for key, (_, dim, _, index) in zip(row_keys, link_info):
                if key not in index and (dim.name, key) not in orphan_seen:
                    orphan_seen.add((dim.name, key))
                    orphans.append((dim.name, key))
    if orphans:
        raise _orphan_error(orphans)

    # Resolve each projected attribute to (source, column position) where
    # source is None for the fact table or a link index for a dimension.
    resolved: list[tuple[int | None, int]] = []
    out_schema: list[AttributeSpec] = []
    for table_name, attr in projected:
        if table_name not in source_of:
            raise SchemaError(
                f"projected table {table_name!r} is neither the fact table nor a "
                "joined dimension"
            )
        source = source_of[table_name]
        table = fact if source is None else link_info[source][1]
        resolved.append((source, table.index_of(attr)))
        out_schema.append(table.spec_of(attr))

    columns: list[Iterable[Atom]] = []
    if one_to_one:
        # Each fact row meets exactly one row of every dimension: fact
        # columns pass through, and each dimension column is its fact key
        # column mapped through a {key: value} dict.
        for source, pos in resolved:
            if source is None:
                columns.append(fact.columns[pos])
            else:
                keys, dim, dim_key, index = link_info[source]
                values = dim.columns[pos]
                value_of = _kept(dim, (dim_key, pos), lambda: {key: values[r] for key, (r,) in index.items()})
                columns.append(map(value_of.__getitem__, keys))
    else:
        # Expand each fact row into one output row per combination of its
        # matching dimension rows, as row indices, then gather every column.
        fact_rows: list[int] = []
        dim_rows: list[list[int]] = [[] for _ in link_info]
        for i, row_keys in enumerate(zip(*(keys for keys, _, _, _ in link_info))):
            matches = [index[key] for key, (_, _, _, index) in zip(row_keys, link_info)]
            for combo in product(*matches):
                fact_rows.append(i)
                for rows, r in zip(dim_rows, combo):
                    rows.append(r)
        for source, pos in resolved:
            if source is None:
                columns.append(map(fact.columns[pos].__getitem__, fact_rows))
            else:
                columns.append(map(link_info[source][1].columns[pos].__getitem__, dim_rows[source]))

    return RelationalTable._of("general", tuple(out_schema), columns)


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
            raise _bin_error(attr, value, column.index(value) + 1)

    columns = list(table.columns)
    columns[pos] = map(label_of.__getitem__, column)
    schema = table.schema[:pos] + (AttributeSpec(name=attr),) + table.schema[pos + 1 :]
    return RelationalTable._of(table.name, schema, columns)
