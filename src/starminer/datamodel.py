"""Core tabular and bitmap data structures.

Everything here is immutable after construction. Builders validate their
invariants eagerly and raise :class:`SchemaError` or :class:`DataError`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .errors import DataError, SchemaError

Atom = str | int | float

CATEGORICAL = "categorical"
QUANTITATIVE = "quantitative"


@dataclass(frozen=True)
class Bin:
    """Half-open interval ``[lower, upper)`` carrying a categorical label."""

    label: str
    lower: float
    upper: float

    def __post_init__(self) -> None:
        if not self.lower < self.upper:
            raise SchemaError(
                f"bin {self.label!r}: lower bound {self.lower!r} must be below "
                f"upper bound {self.upper!r}"
            )

    def contains(self, value: float) -> bool:
        return self.lower <= value < self.upper


@dataclass(frozen=True)
class AttributeSpec:
    """Declares one column: name, kind, bins, and an optional value domain.

    Quantitative attributes must declare their bins up front (they are useless
    to the miner until discretized). A categorical attribute may declare an
    explicit ``domain``: bitmap encoding then emits one item per domain value,
    in domain order, even for values that never occur in the data.
    """

    name: str
    kind: str = CATEGORICAL
    bins: tuple[Bin, ...] | None = None
    domain: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("attribute name must be non-empty")
        if self.kind not in (CATEGORICAL, QUANTITATIVE):
            raise SchemaError(f"attribute {self.name!r}: unknown kind {self.kind!r}")
        if self.bins is not None:
            norm = tuple(b if isinstance(b, Bin) else Bin(*b) for b in self.bins)
            object.__setattr__(self, "bins", norm)
        if self.domain is not None:
            object.__setattr__(self, "domain", tuple(self.domain))

        if self.kind == QUANTITATIVE:
            if not self.bins:
                raise SchemaError(
                    f"quantitative attribute {self.name!r} must declare bins"
                )
            if self.domain is not None:
                raise SchemaError(
                    f"quantitative attribute {self.name!r} cannot declare a value domain"
                )
            self._check_bins()
        else:
            if self.bins:
                raise SchemaError(
                    f"categorical attribute {self.name!r} must not declare bins"
                )
            if self.domain is not None:
                if not self.domain:
                    raise SchemaError(f"attribute {self.name!r}: empty domain")
                if len(set(self.domain)) != len(self.domain):
                    raise SchemaError(
                        f"attribute {self.name!r}: duplicate values in domain"
                    )

    def _check_bins(self) -> None:
        # Disjoint and ascending: each bin must start at or after the previous
        # one ends. Gaps are allowed; a value in a gap fails discretization.
        assert self.bins is not None
        for prev, cur in zip(self.bins, self.bins[1:]):
            if cur.lower < prev.upper:
                raise SchemaError(
                    f"attribute {self.name!r}: bins {prev.label!r} and {cur.label!r} "
                    "overlap or are out of order"
                )
        labels = [b.label for b in self.bins]
        if len(set(labels)) != len(labels):
            raise SchemaError(f"attribute {self.name!r}: duplicate bin labels")

    def is_categorical(self) -> bool:
        return self.kind == CATEGORICAL


def _check_cell(spec: AttributeSpec, value: Atom, row: int) -> None:
    if spec.is_categorical():
        if not isinstance(value, str):
            raise DataError(
                f"row {row}: attribute {spec.name!r} is categorical but got "
                f"non-string value {value!r}"
            )
    else:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise DataError(
                f"row {row}: attribute {spec.name!r} is quantitative but got "
                f"non-numeric value {value!r}"
            )
        if value != value or value in (float("inf"), float("-inf")):
            raise DataError(
                f"row {row}: attribute {spec.name!r} has non-finite value {value!r}"
            )


_PLAIN_NUMBERS = frozenset({int, float})


def _columns_pass(schema: tuple[AttributeSpec, ...], columns: tuple[tuple[Atom, ...], ...]) -> bool:
    """True if every cell would pass :func:`_check_cell`, judged a column at a
    time: once for the set of cell types and, for a column holding floats,
    once for finiteness.

    Only exact ``int`` and ``float`` count as numbers here. A numeric
    subclass, or an int too large for a float beside float cells, returns
    False and leaves the verdict to the per-cell scan.
    """
    for spec, column in zip(schema, columns):
        types = set(map(type, column))
        if spec.is_categorical():
            if not all(issubclass(t, str) for t in types):
                return False
        elif not types <= _PLAIN_NUMBERS:
            return False
        elif float in types:
            try:
                if not all(map(math.isfinite, column)):
                    return False
            except OverflowError:
                return False
    return True


def _scan_rows(name: str, schema: tuple[AttributeSpec, ...], rows: Iterable[tuple[Atom, ...]]) -> None:
    """Raise for the first row with the wrong width or a bad cell."""
    width = len(schema)
    for i, row in enumerate(rows, start=1):
        if len(row) != width:
            raise DataError(f"table {name!r} row {i}: expected {width} values, got {len(row)}")
        for spec, value in zip(schema, row):
            _check_cell(spec, value, i)


@dataclass(frozen=True, init=False)
class RelationalTable:
    """Named columns of atomic values (strings or finite numbers).

    Storage is column-major: ``columns[j]`` holds attribute ``schema[j]`` for
    every row. A table is built from ``columns`` or, for callers that think
    in rows, from ``rows``, which are transposed once. The ``rows`` property
    derives row tuples on each access; no pipeline stage reads it.
    """

    name: str
    schema: tuple[AttributeSpec, ...]
    columns: tuple[tuple[Atom, ...], ...]
    n_rows: int

    def __init__(
        self,
        name: str,
        schema: Iterable[AttributeSpec],
        rows: Iterable[Iterable[Atom]] | None = None,
        *,
        columns: Iterable[Iterable[Atom]] | None = None,
    ) -> None:
        schema = tuple(schema)
        if (rows is None) == (columns is None):
            raise TypeError("RelationalTable takes exactly one of rows and columns")
        if columns is None:
            row_tuples = tuple(map(tuple, rows))  # type: ignore[arg-type]
            if not set(map(len, row_tuples)) <= {len(schema)}:
                _scan_rows(name, schema, row_tuples)
            n_rows = len(row_tuples)
            cols = tuple(zip(*row_tuples)) if n_rows else ((),) * len(schema)
        else:
            cols = tuple(map(tuple, columns))
            n_rows = len(cols[0]) if cols else 0
            if len(cols) != len(schema) or any(len(c) != n_rows for c in cols):
                raise SchemaError(
                    f"table {name!r}: needs {len(schema)} columns of equal length"
                )
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "schema", schema)
        object.__setattr__(self, "columns", cols)
        object.__setattr__(self, "n_rows", n_rows)
        self.__post_init__()

    def __post_init__(self) -> None:
        names = [s.name for s in self.schema]
        seen: set[str] = set()
        for n in names:
            if n in seen:
                raise SchemaError(f"table {self.name!r}: duplicate attribute name {n!r}")
            seen.add(n)
        if not _columns_pass(self.schema, self.columns):
            # the row-major scan names the first bad row
            _scan_rows(self.name, self.schema, zip(*self.columns))
        object.__setattr__(self, "_index", {n: i for i, n in enumerate(names)})

    @property
    def attribute_names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.schema)

    @property
    def rows(self) -> tuple[tuple[Atom, ...], ...]:
        if not self.columns:
            return ((),) * self.n_rows
        return tuple(zip(*self.columns))

    def index_of(self, attribute: str) -> int:
        try:
            return self._index[attribute]  # type: ignore[attr-defined]
        except KeyError:
            raise SchemaError(
                f"table {self.name!r} has no attribute {attribute!r}"
            ) from None

    def spec_of(self, attribute: str) -> AttributeSpec:
        return self.schema[self.index_of(attribute)]

    def column(self, attribute: str) -> tuple[Atom, ...]:
        return self.columns[self.index_of(attribute)]


@dataclass(frozen=True)
class Item:
    """One (attribute, value) pair with a dense id.

    The rendered ``name`` joins attribute and value with an underscore for
    display; the (attribute, value) pair stays the true key, so underscores
    inside either part never cause ambiguity.
    """

    id: int
    attribute: str
    value: str

    @property
    def name(self) -> str:
        return f"{self.attribute}_{self.value}"


@dataclass(frozen=True)
class BitmapTable:
    """Per-item bit vectors over a universe of objects.

    ``columns[i]`` is an int bitmask where bit ``j`` is set iff object ``j``
    carries item ``i``'s (attribute, value). Plain Python ints give exact
    arbitrary-width vectors with O(words) AND and population count.
    """

    items: tuple[Item, ...]
    columns: tuple[int, ...]
    universe_size: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "items", tuple(self.items))
        object.__setattr__(self, "columns", tuple(self.columns))
        if len(self.items) != len(self.columns):
            raise SchemaError("bitmap: one column required per item")
        limit = 1 << self.universe_size
        for item, col in zip(self.items, self.columns):
            if col < 0 or col >= limit:
                raise SchemaError(
                    f"bitmap column for item {item.name!r} exceeds universe size "
                    f"{self.universe_size}"
                )

    def column_bits(self, index: int) -> list[int]:
        col = self.columns[index]
        return [(col >> j) & 1 for j in range(self.universe_size)]


def int_from_bit_positions(positions: Iterable[int], n_bits: int) -> int:
    """The int whose set bits are exactly ``positions`` (each below ``n_bits``).

    Bits are set in one ``bytearray`` converted once, so building a wide
    vector costs O(n_bits / 8 + len(positions)); OR-ing ``1 << j`` into an
    int instead allocates a j-bit integer per set bit.
    """
    buf = bytearray((n_bits + 7) // 8)
    for j in positions:
        buf[j >> 3] |= 1 << (j & 7)
    return int.from_bytes(buf, "little")


def bitmap_encode(table: RelationalTable) -> BitmapTable:
    """Turn a fully categorical table into per-(attribute, value) bit vectors.

    Item ids are assigned by attribute position, then by declared domain
    order when the attribute has an explicit domain, otherwise by first
    occurrence of the value in the data. Every object gets exactly one set
    bit per attribute (one-hot).
    """
    for spec in table.schema:
        if not spec.is_categorical():
            raise SchemaError(
                f"attribute {spec.name!r} is quantitative; run discretize() on it "
                "before bitmap encoding"
            )

    items: list[Item] = []
    hits: list[list[int]] = []
    for spec, column in zip(table.schema, table.columns):
        if spec.domain is not None:
            values: list[str] = list(spec.domain)
            allowed = set(values)
            for i, value in enumerate(column, start=1):
                if value not in allowed:
                    raise DataError(
                        f"row {i}: value {value!r} of attribute {spec.name!r} "
                        "is outside its declared domain"
                    )
        else:
            values = list(dict.fromkeys(column))
        hits_of: dict[str, list[int]] = {}
        for v in values:
            items.append(Item(id=len(items), attribute=spec.name, value=v))
            hits.append(hits_of.setdefault(v, []))
        for j, value in enumerate(column):
            hits_of[value].append(j)

    columns = tuple(int_from_bit_positions(h, table.n_rows) for h in hits)
    return BitmapTable(items=tuple(items), columns=columns, universe_size=table.n_rows)
