"""The three benchmark workloads and the starminer command line each one runs.

Every workload is a function of the benchmark seed alone. star-300k and
lattice-60k write their CSVs with ``starminer.synth.generate_sales`` before
any timed run and pass them with ``--fact``/``--dim``; quickstart-100k lets the
CLI generate its own data with ``--synth``, so that synth is timed as part of
the run.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 20260808

YEAR_BINS = (("y1998", 1998.0, 1999.0), ("y1999", 1999.0, 2000.0), ("y2000on", 2000.0, 2010.0))

ALL_DIMS = (
    ("customer_id", "customer", "customer_id"),
    ("product_id", "product", "product_id"),
    ("time_id", "times", "time_id"),
    ("channel_id", "channel", "channel_id"),
)
PRODUCT_ONLY = (("product_id", "product", "product_id"),)
KEY_DIM = "tid"
REPEATABLE = ("product_name",)

# Spans every traced run must record; a workload adds the ones only it reaches.
BASE_SPANS = frozenset(
    {
        "cli.main",
        "pipeline.run_pipeline",
        "ingest.load_csv",
        "ingest.join_tables",
        "datamodel.table_build",
        "mapcode.combine_dims",
        "mapcode.transform_map_code",
        "mining.group_by_key",
        "mining.build_item_extents",
        "mining.fi_gen",
        "rules.gen_rules",
    }
)


@dataclass(frozen=True)
class Workload:
    """One benchmark input and the exact run configuration mined over it."""

    name: str
    why: str
    rows: int
    joins: tuple[tuple[str, str, str], ...]
    combine: tuple[str, ...]
    minsup: str
    minconf: str
    products: int = 50
    synth_in_cli: bool = False
    bins: tuple[tuple[str, tuple[tuple[str, float, float], ...]], ...] = ()
    filters: tuple[tuple[str, str], ...] = ()
    algorithm: str = "rshar"
    extra_spans: frozenset[str] = frozenset()
    time_two_workers: bool = False
    # --algorithm both is used for the stored reference where apriori
    # finishes in reasonable time; on the deep lattice it does not.
    reference_algorithm: str = "both"

    @property
    def expected_spans(self) -> frozenset[str]:
        return BASE_SPANS | self.extra_spans

    def data_dir(self, work: Path) -> Path:
        return work / "out" / "data" if self.synth_in_cli else work / "data"

    def argv(self, seed: int, work: Path, algorithm: str | None = None) -> list[str]:
        """Command-line arguments for ``starminer.cli.main``."""
        out = work / "out"
        args: list[str] = []
        if self.synth_in_cli:
            args += ["--synth", str(self.rows), "--seed", str(seed)]
        else:
            data = self.data_dir(work)
            args += ["--fact", str(data / "fact.csv")]
            args += [f"--dim={dim}={data / dim}.csv" for _, dim, _ in self.joins]
        args += [f"--join={fk}:{dim}:{dk}" for fk, dim, dk in self.joins]
        for attr, bins in self.bins:
            spec = ",".join(f"{label}:{lo:g}:{hi:g}" for label, lo, hi in bins)
            args.append(f"--bins={attr}={spec}")
        args += [f"--filter={dim}={value}" for dim, value in self.filters]
        args += [
            "--key-dim", KEY_DIM,
            "--combine-dims", ",".join(self.combine),
            "--minsup", self.minsup,
            "--minconf", self.minconf,
            "--algorithm", algorithm or self.algorithm,
            "--repeatable-dims", ",".join(REPEATABLE),
            "--workers", "1",
            "--out", str(out),
        ]
        return args


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="star-300k",
            why="4-way join, bins, filters and 85k groups: ingest dominates and the extent build is quadratic",
            rows=300_000,
            joins=ALL_DIMS,
            bins=(("year", YEAR_BINS),),
            filters=(("year", "y1998"), ("year", "y2000on")),
            combine=("age_group", "product_name"),
            minsup="0.0045",
            minconf="0.3",
            extra_spans=frozenset({"ingest.discretize"}),
        ),
        Workload(
            name="lattice-60k",
            why="threshold of 4 over 20k groups builds a deep lattice (220k candidates): mining and gen_rules dominate",
            rows=60_000,
            products=200,
            joins=PRODUCT_ONLY,
            combine=("product_name",),
            minsup="0.00016",
            minconf="0.6",
            time_two_workers=True,
            reference_algorithm="rshar",
        ),
        Workload(
            name="quickstart-100k",
            why="README quick start at 100k rows: synth in the CLI, and apriori rescans beside rshar",
            rows=100_000,
            synth_in_cli=True,
            joins=PRODUCT_ONLY,
            combine=("product_name",),
            minsup="0.0045",
            minconf="0.6",
            algorithm="both",
            extra_spans=frozenset({"synth.generate_sales", "mining.apriori_baseline"}),
        ),
    )
}
