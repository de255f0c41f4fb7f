"""Seeded synthetic sales data at benchmark scale.

Writes four dimension CSVs (customer, product, times, channel) and one fact
CSV. Fact rows are grouped into multi-line baskets sharing a transaction id,
customer, time, and channel; products are drawn per line with Zipf-skewed
popularity so that popular combinations stay frequent at sub-percent support
thresholds. Output is a pure function of the SynthSpec, byte-identical
across runs.
"""

from __future__ import annotations

import random
from bisect import bisect
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path
from typing import Callable

from .errors import SchemaError

AGE_GROUPS = ["18..25", "26..35", "36..45", "46..55", "56..65", "66..80"]
CITIES = [
    "Melb", "Sydney", "Brisbane", "Perth", "Adelaide", "Hobart",
    "Darwin", "Canberra", "Geelong", "Cairns", "Ballarat", "Bendigo",
]
CATEGORIES = ["Clothing", "Grocery", "Electronics", "Home", "Sports"]
BASE_PRODUCT_NAMES = [
    "Men-Jeans", "Beer", "Diaper", "Laptop", "BW-Printer", "Shirt",
    "Coffee", "Bread", "Milk", "Cheese", "Sneakers", "Backpack",
    "Monitor", "Keyboard", "Lamp", "Chair", "Tent", "Bike",
    "Phone", "Headset", "Socks", "Jacket", "Cereal", "Juice",
]
CHANNEL_TYPES = ["Direct sales", "Internet", "Reseller", "Phone order", "Partner", "Catalog"]
MONTHS = ["Jan", "Feb", "Mar", "Apr", "May", "Jun",
          "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"]

MAX_BASKET_LINES = 5


@dataclass(frozen=True)
class SynthSpec:
    """Generator knobs; the dimension sizes default to the benchmark scale."""

    seed: int
    n_fact_rows: int = 10000
    n_customers: int = 100
    n_products: int = 50
    n_times: int = 50
    n_channels: int = 60
    skew: float = 1.0

    def __post_init__(self) -> None:
        for field_name in ("n_customers", "n_products", "n_times", "n_channels"):
            if getattr(self, field_name) < 1:
                raise SchemaError(f"{field_name} must be >= 1")
        if self.n_fact_rows < 0:
            raise SchemaError("n_fact_rows must be >= 0")
        if self.skew < 0:
            raise SchemaError("skew must be >= 0")


def _zipf_weight(rank: int, skew: float) -> float:
    try:
        return 1.0 / (rank**skew)
    except OverflowError:  # rank**skew is past the float range, so its inverse is ~0
        return 0.0


def _zipf_draw(rng: random.Random, population: list[str], skew: float) -> Callable[[], str]:
    """A function drawing one element with weight ``1 / rank**skew``.

    A draw is ``rng.choices(population, weights)[0]`` with the weights
    accumulated once, not per call: the same one ``rng.random()`` and bisect.
    """
    cum = list(accumulate(_zipf_weight(rank, skew) for rank in range(1, len(population) + 1)))
    total = cum[-1] + 0.0
    hi = len(population) - 1
    uniform = rng.random
    return lambda: population[bisect(cum, uniform() * total, 0, hi)]


def _product_names(n: int) -> list[str]:
    names = list(BASE_PRODUCT_NAMES[:n])
    i = len(names)
    while len(names) < n:
        names.append(f"{CATEGORIES[i % len(CATEGORIES)]}-Item-{i:02d}")
        i += 1
    return names


def _write_csv(path: Path, header: list[str], rows: list[list[str]]) -> None:
    # Manual join keeps the strict no-quoting dialect honest.
    for row in rows:
        for cell in row:
            if "," in cell or '"' in cell:
                raise SchemaError(f"generated cell {cell!r} breaks the CSV dialect")
    lines = [",".join(header)] + [",".join(row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def generate_sales(spec: SynthSpec, out_dir: str | Path) -> dict[str, Path]:
    """Write customer/product/times/channel dimensions and the fact table.

    Returns the path of every file written, keyed by table name.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = random.Random(spec.seed)

    customer_ids = [f"C{i:04d}" for i in range(1, spec.n_customers + 1)]
    product_ids = [f"P{i:03d}" for i in range(1, spec.n_products + 1)]
    time_ids = [f"T{i:02d}" for i in range(1, spec.n_times + 1)]
    channel_ids = [f"CH{i:02d}" for i in range(1, spec.n_channels + 1)]

    draw_age_group = _zipf_draw(rng, AGE_GROUPS, spec.skew)
    draw_city = _zipf_draw(rng, CITIES, spec.skew)
    customer_rows = [[cid, draw_age_group(), draw_city()] for cid in customer_ids]

    names = _product_names(spec.n_products)
    product_rows = [
        [pid, names[i], CATEGORIES[i % len(CATEGORIES)]]
        for i, pid in enumerate(product_ids)
    ]

    time_rows = []
    for i, tid in enumerate(time_ids):
        year = 1998 + i // 12
        month = MONTHS[i % 12]
        time_rows.append([tid, f"{month} {year}", str(year)])

    channel_rows = [
        [chid, f"{CHANNEL_TYPES[i % len(CHANNEL_TYPES)]} {i // len(CHANNEL_TYPES) + 1}",
         CHANNEL_TYPES[i % len(CHANNEL_TYPES)]]
        for i, chid in enumerate(channel_ids)
    ]

    draw_customer = _zipf_draw(rng, customer_ids, spec.skew)
    draw_product = _zipf_draw(rng, product_ids, spec.skew)
    draw_time = _zipf_draw(rng, time_ids, spec.skew)
    draw_channel = _zipf_draw(rng, channel_ids, spec.skew)

    tid_width = max(5, len(str(max(spec.n_fact_rows, 1))))
    fact_rows: list[list[str]] = []
    basket = 0
    while len(fact_rows) < spec.n_fact_rows:
        basket += 1
        tid = f"TX{basket:0{tid_width}d}"
        customer = draw_customer()
        time_id = draw_time()
        channel = draw_channel()
        lines = min(rng.randint(1, MAX_BASKET_LINES), spec.n_fact_rows - len(fact_rows))
        for _ in range(lines):
            product = draw_product()
            fact_rows.append([tid, customer, product, time_id, channel])

    paths = {
        "customer": out / "customer.csv",
        "product": out / "product.csv",
        "times": out / "times.csv",
        "channel": out / "channel.csv",
        "fact": out / "fact.csv",
    }
    _write_csv(paths["customer"], ["customer_id", "age_group", "city"], customer_rows)
    _write_csv(paths["product"], ["product_id", "product_name", "category"], product_rows)
    _write_csv(paths["times"], ["time_id", "month", "year"], time_rows)
    _write_csv(paths["channel"], ["channel_id", "channel_name", "channel_type"], channel_rows)
    _write_csv(
        paths["fact"],
        ["tid", "customer_id", "product_id", "time_id", "channel_id"],
        fact_rows,
    )
    return paths
