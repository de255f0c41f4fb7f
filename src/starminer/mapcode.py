"""Combined-dimension mapping codes.

Every distinct value combination of the selected dimensions gets one short
decimal code. Each kept row becomes one (key value, code) pair, held as a key
column and a code column. The miner groups those columns by code, where a
repeated pair only repeats a group index, so pairs are not deduplicated here.
After mining, the codes expand back into their dimension/value pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Iterable, Mapping, Sequence

from .datamodel import RelationalTable, _unchecked
from .errors import DataError, SchemaError
from .mining import FrequentItemset

Pair = tuple[str, str]
# registry.csv's backslash escapes, for the characters that end a name or a pair
_ESCAPES = str.maketrans({"\\": "\\\\", ";": "\\;", "=": "\\="})


def _unknown_code(code: str) -> DataError:
    return DataError(f"unknown mapping code {code!r}: registry is corrupt")


class MapCodeRegistry:
    """Bijection between selected-dimension value tuples and codes.

    Codes are decimal strings assigned sequentially from "0001" in
    first-encounter order, zero-padded to at least four digits and widening
    naturally past 9999. Each code's (dimension, value) pairs are stored once,
    when the code is assigned. Construction is single-threaded; lookups
    afterwards are safe to share.
    """

    def __init__(self, selected_dims: Sequence[str]):
        self.selected_dims = tuple(selected_dims)
        self._code_by_combo: dict[tuple[str, ...], str] = {}
        self._pairs_by_code: dict[str, tuple[Pair, ...]] = {}

    def encode(self, values: Sequence[str]) -> str:
        """Return the code for a value tuple, assigning a fresh one if new."""
        combo = tuple(values)
        if len(combo) != len(self.selected_dims):
            raise SchemaError(
                f"combo {combo!r} does not match selected dimensions {self.selected_dims}"
            )
        code = self._code_by_combo.get(combo)
        if code is None:
            code = str(len(self._code_by_combo) + 1).zfill(4)
            self._code_by_combo[combo] = code
            self._pairs_by_code[code] = tuple(zip(self.selected_dims, combo))
        return code

    def find(self, values: Sequence[str]) -> str | None:
        return self._code_by_combo.get(tuple(values))

    def decode(self, code: str) -> tuple[Pair, ...]:
        """Expand a code into its (dimension, value) pairs."""
        try:
            return self._pairs_by_code[code]
        except KeyError:
            raise _unknown_code(code) from None

    @property
    def codes(self) -> tuple[str, ...]:
        return tuple(self._pairs_by_code)

    def __len__(self) -> int:
        return len(self._code_by_combo)

    def csv_lines(self) -> list[str]:
        """Audit export: one ``code,dim=value;dim=value`` line per entry, where a
        backslash escapes each ``\\``, ``;`` and ``=`` in a name or a value."""
        return ["code,combo"] + [
            f"{code},{';'.join(f'{d.translate(_ESCAPES)}={v.translate(_ESCAPES)}' for d, v in pairs)}"
            for code, pairs in self._pairs_by_code.items()
        ]


@dataclass(frozen=True)
class MdTable:
    """One (key value, code) pair per kept row, in row order, held as a key
    column and a code column; a pair may repeat. ``rows`` derives the
    distinct pairs in first-encounter order."""

    keys: tuple[str, ...]
    codes: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "keys", tuple(self.keys))
        object.__setattr__(self, "codes", tuple(self.codes))
        if len(self.keys) != len(self.codes):
            raise SchemaError("md table needs one code per key")

    @property
    def rows(self) -> tuple[tuple[str, str], ...]:
        return tuple(dict.fromkeys(zip(self.keys, self.codes)))


@dataclass(frozen=True)
class DecodedItemset:
    """A frequent itemset after code expansion: (dimension, value) pairs.

    Pairs keep decode order (codes ascending, each combo in selected-dimension
    order, duplicates dropped). Equality compares the pairs in that order;
    :func:`~starminer.rules.gen_rules` looks itemsets up by their pair set.
    :func:`transform_map_code` builds its itemsets through :meth:`_of`, which
    checks nothing: it builds each ``pairs`` as a duplicate-free tuple of
    pair tuples itself.
    """

    pairs: tuple[Pair, ...]
    support_count: int
    support: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "pairs", tuple(tuple(p) for p in self.pairs))
        if len(set(self.pairs)) != len(self.pairs):
            raise DataError(f"decoded itemset has duplicate pairs: {self.pairs!r}")

    _of = classmethod(_unchecked)

    @property
    def pair_set(self) -> frozenset[Pair]:
        return frozenset(self.pairs)

    @property
    def level(self) -> int:
        return len(self.pairs)


def combine_dims(
    general: RelationalTable,
    key_dim: str,
    selected_dims: Sequence[str],
    *,
    filters: Mapping[str, Iterable[str]] | None = None,
    registry: MapCodeRegistry | None = None,
) -> tuple[MapCodeRegistry, MdTable]:
    """Assign codes to selected-dimension combinations and emit key/code pairs.

    Codes go to the distinct value combinations in first-encounter order;
    each kept row maps to its (key value, code) pair, so the table holds one
    pair per kept row. ``filters`` restricts rows to those whose value for
    each filtered dimension is in the allowed set.

    Codes come from ``registry``, a new one by default. Passing the registry
    that coded earlier chunks of the same rows keeps their codes, and gives
    new combinations the codes a call over all the rows would give them.
    The rows' combinations are zipped once: each is looked up, and only one
    the registry has not seen is passed to :meth:`MapCodeRegistry.encode`.
    """
    selected = tuple(selected_dims)
    if not selected:
        raise SchemaError("combine_dims needs at least one selected dimension")
    if len(set(selected)) != len(selected):
        raise SchemaError(f"selected dimensions contain duplicates: {selected}")
    if key_dim in selected:
        raise SchemaError(f"key dimension {key_dim!r} cannot also be combined")
    if registry is None:
        registry = MapCodeRegistry(selected)
    elif registry.selected_dims != selected:
        raise SchemaError(f"registry codes {registry.selected_dims}, not the selected dimensions {selected}")
    key_pos = general.index_of(key_dim)
    sel_pos = [general.index_of(d) for d in selected]

    involved = [key_dim, *selected]
    filt: list[tuple[int, frozenset[str]]] = []
    if filters:
        for dim, allowed in filters.items():
            filt.append((general.index_of(dim), frozenset(allowed)))
            involved.append(dim)
    for d in dict.fromkeys(involved):
        if not general.spec_of(d).is_categorical():
            raise SchemaError(
                f"attribute {d!r} is not categorical; discretize it before combining"
            )

    keys = general.columns[key_pos]
    chosen = [general.columns[p] for p in sel_pos]
    if filt:
        masks = [map(allowed.__contains__, general.columns[pos]) for pos, allowed in filt]
        keep = list(masks[0] if len(masks) == 1 else map(all, zip(*masks)))
        keys = tuple(compress(keys, keep))
        chosen = [compress(column, keep) for column in chosen]

    code_of = registry._code_by_combo.get
    return registry, MdTable(keys=keys, codes=[code_of(combo) or registry.encode(combo) for combo in zip(*chosen)])


def transform_map_code(
    itemsets: Sequence[FrequentItemset], registry: MapCodeRegistry
) -> list[DecodedItemset]:
    """Expand each code itemset into dimension/value pairs, supports unchanged.

    Pairs shared by several codes of one itemset are kept once, at their first
    appearance. Only codes over several dimensions can share a pair: over one
    dimension, distinct codes are distinct pairs.
    """
    get = registry._pairs_by_code.__getitem__
    can_share = len(registry.selected_dims) > 1
    decoded: list[DecodedItemset] = []
    try:
        for fi in itemsets:
            pairs = sum(map(get, fi.items), ())
            if can_share and len(fi.items) > 1:
                pairs = tuple(dict.fromkeys(pairs))
            decoded.append(DecodedItemset._of(pairs, fi.support_count, fi.support))
    except KeyError as exc:
        raise _unknown_code(exc.args[0]) from None
    return decoded
