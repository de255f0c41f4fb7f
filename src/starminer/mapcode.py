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
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .datamodel import RelationalTable
from .errors import DataError, SchemaError
from .ingest import write_text_atomic
from .mining import FrequentItemset

Pair = tuple[str, str]


class MapCodeRegistry:
    """Bijection between selected-dimension value tuples and codes.

    Codes are decimal strings assigned sequentially from "0001" in
    first-encounter order, zero-padded to at least four digits and widening
    naturally past 9999. Construction is single-threaded; lookups afterwards
    are safe to share.
    """

    def __init__(self, selected_dims: Sequence[str]):
        self.selected_dims = tuple(selected_dims)
        self._code_by_combo: dict[tuple[str, ...], str] = {}
        self._combo_by_code: dict[str, tuple[str, ...]] = {}

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
            self._combo_by_code[code] = combo
        return code

    def find(self, values: Sequence[str]) -> str | None:
        return self._code_by_combo.get(tuple(values))

    def decode(self, code: str) -> tuple[Pair, ...]:
        """Expand a code into its (dimension, value) pairs."""
        combo = self._combo_by_code.get(code)
        if combo is None:
            raise DataError(f"unknown mapping code {code!r}: registry is corrupt")
        return tuple(zip(self.selected_dims, combo))

    @property
    def codes(self) -> tuple[str, ...]:
        return tuple(self._combo_by_code)

    def __len__(self) -> int:
        return len(self._code_by_combo)

    def csv_lines(self) -> list[str]:
        """Audit export: one ``code,dim=value;dim=value`` line per entry."""
        lines = ["code,combo"]
        for code, combo in self._combo_by_code.items():
            rendered = ";".join(f"{d}={v}" for d, v in zip(self.selected_dims, combo))
            lines.append(f"{code},{rendered}")
        return lines

    def write_csv(self, path: str | Path) -> None:
        """Write :meth:`csv_lines` to ``path``, replacing any old file whole."""
        write_text_atomic(Path(path), "\n".join(self.csv_lines()) + "\n")


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
    order, duplicates dropped); equality and lookups use the pair set.
    """

    pairs: tuple[Pair, ...]
    support_count: int
    support: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "pairs", tuple(tuple(p) for p in self.pairs))
        if len(set(self.pairs)) != len(self.pairs):
            raise DataError(f"decoded itemset has duplicate pairs: {self.pairs!r}")

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
) -> tuple[MapCodeRegistry, MdTable]:
    """Assign codes to selected-dimension combinations and emit key/code pairs.

    Codes go to the distinct value combinations in first-encounter order;
    each kept row then maps through them to its (key value, code) pair, so
    the table holds one pair per kept row. ``filters`` restricts rows to
    those whose value for each filtered dimension is in the allowed set.
    """
    selected = tuple(selected_dims)
    if not selected:
        raise SchemaError("combine_dims needs at least one selected dimension")
    if len(set(selected)) != len(selected):
        raise SchemaError(f"selected dimensions contain duplicates: {selected}")
    if key_dim in selected:
        raise SchemaError(f"key dimension {key_dim!r} cannot also be combined")
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
        chosen = [tuple(compress(column, keep)) for column in chosen]

    registry = MapCodeRegistry(selected)
    code_of = {combo: registry.encode(combo) for combo in dict.fromkeys(zip(*chosen))}
    return registry, MdTable(keys=keys, codes=map(code_of.__getitem__, zip(*chosen)))


def transform_map_code(
    itemsets: Sequence[FrequentItemset], registry: MapCodeRegistry
) -> list[DecodedItemset]:
    """Expand each code itemset into dimension/value pairs, supports unchanged.

    Pairs shared by several codes of one itemset are kept once, at their first
    appearance.
    """
    out: list[DecodedItemset] = []
    for fi in itemsets:
        pairs: list[Pair] = []
        seen: set[Pair] = set()
        for code in fi.items:
            for pair in registry.decode(code):
                if pair not in seen:
                    seen.add(pair)
                    pairs.append(pair)
        out.append(
            DecodedItemset(
                pairs=tuple(pairs),
                support_count=fi.support_count,
                support=fi.support,
            )
        )
    return out
