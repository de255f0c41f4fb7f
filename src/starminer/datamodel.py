"""Core tabular and bitmap data structures.

Everything here is immutable after construction. Builders validate their
invariants eagerly and raise :class:`SchemaError` or :class:`DataError`. A
table cell is checked once, where it enters: as text in ``ingest.load_csv``
or as a Python object in the :class:`RelationalTable` constructor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, TypeVar

from .errors import DataError, SchemaError

Atom = str | int | float
_T = TypeVar("_T")


def _assign(self: _T, *values: Any) -> _T:
    """Set the fields of the frozen dataclass instance ``self`` to ``values``,
    one per field in their declared order, without running
    ``__post_init__``; return it."""
    # zip(strict=True) would check the count at a cost every miner's itemset
    # pays; the tests check it instead
    vars(self).update(zip(type(self).__match_args__, values))
    return self


def _unchecked(cls: type[_T], *values: Any) -> _T:
    """An instance of the frozen dataclass ``cls`` whose fields are
    ``values``, built without a check: for callers whose values hold the
    class's invariants by construction."""
    return _assign(cls.__new__(cls), *values)


@dataclass(frozen=True)
class Bin:
    """Half-open interval ``[lower, upper)`` carrying a categorical label."""

    label: str
    lower: float
    upper: float

    def __post_init__(self) -> None:
        numbers = [b for b in (self.lower, self.upper) if isinstance(b, (int, float)) and not isinstance(b, bool)]
        if not isinstance(self.label, str) or len(numbers) < 2:
            raise SchemaError(f"bin {self.label!r}: the label must be a string and the bounds numbers, "
                              f"got bounds {self.lower!r} and {self.upper!r}")
        if not self.lower < self.upper:
            raise SchemaError(
                f"bin {self.label!r}: lower bound {self.lower!r} must be below "
                f"upper bound {self.upper!r}"
            )

    def contains(self, value: float) -> bool:
        return self.lower <= value < self.upper


@dataclass(frozen=True)
class AttributeSpec:
    """Declares one column: name, bins, and an optional value domain.

    An attribute with ``bins`` is quantitative: its values are numbers, and
    it is useless to the miner until discretized into the bin labels. Any
    other attribute is categorical, and may declare an explicit ``domain``:
    bitmap encoding then emits one item per domain value, in domain order,
    even for values that never occur in the data.
    """

    name: str
    bins: tuple[Bin, ...] | None = None
    domain: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("attribute name must be non-empty")
        if self.bins is not None:
            norm = tuple(b if isinstance(b, Bin) else Bin(*b) for b in self.bins)
            object.__setattr__(self, "bins", norm)
            if not self.bins:
                raise SchemaError(
                    f"quantitative attribute {self.name!r} must declare bins"
                )
            if self.domain is not None:
                raise SchemaError(
                    f"quantitative attribute {self.name!r} cannot declare a value domain"
                )
            self._check_bins()
        elif self.domain is not None:
            object.__setattr__(self, "domain", tuple(self.domain))
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
        return self.bins is None


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

    The constructor checks every cell. The ingest stages build with
    :meth:`_of`, which checks none: their cells are valid by construction.
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
            rows = tuple(map(tuple, rows))  # type: ignore[arg-type]
            if not set(map(len, rows)) <= {len(schema)}:
                _scan_rows(name, schema, rows)
            columns = zip(*rows) if rows else ((),) * len(schema)
        cols = tuple(map(tuple, columns))
        n_rows = len(cols[0]) if cols else len(rows or ())  # a table of no attributes still has rows
        if len(cols) != len(schema) or any(len(c) != n_rows for c in cols):
            raise SchemaError(
                f"table {name!r}: needs {len(schema)} columns of equal length"
            )
        _assign(self, name, schema, cols, n_rows).__post_init__()
        _scan_rows(name, schema, zip(*cols) if rows is None else rows)

    @classmethod
    def _of(cls, name: str, schema: tuple[AttributeSpec, ...], columns: Iterable[Iterable[Atom]]) -> RelationalTable:
        """A stage's output table: one or more columns of cells valid by construction, so none is checked."""
        cols = tuple(map(tuple, columns))
        table = _unchecked(cls, name, schema, cols, len(cols[0]))
        table.__post_init__()
        return table

    def __post_init__(self) -> None:
        index: dict[str, int] = {}
        for i, spec in enumerate(self.schema):
            if index.setdefault(spec.name, i) != i:
                raise SchemaError(f"table {self.name!r}: duplicate attribute name {spec.name!r}")
        object.__setattr__(self, "_index", index)

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
