"""starminer: association-rule mining over star-schema data.

Pipeline: join dimension/fact CSVs into one general table, discretize
quantitative columns, give every combination of the selected dimensions a
short mapping code, group rows by a key dimension into transactions, mine
frequent code itemsets (single-scan bitmap intersections, with a level-wise
baseline and a brute-force oracle for cross-checking), decode the codes back
to dimension/value pairs, and generate hybrid-dimension association rules.
"""

from .datamodel import (
    AttributeSpec,
    Bin,
    BitmapTable,
    Item,
    RelationalTable,
    bitmap_encode,
)
from .errors import AgreementError, DataError, SchemaError, StarMinerError, UsageError
from .ingest import (
    discretize,
    join_tables,
    load_csv,
)
from .mapcode import (
    DecodedItemset,
    MapCodeRegistry,
    MdTable,
    combine_dims,
    transform_map_code,
)
from .mining import (
    FrequentItemset,
    MiningStats,
    TransactionView,
    apriori_baseline,
    brute_force_frequent,
    build_item_extents,
    exact_fraction,
    fi_gen,
    group_by_key,
    support_threshold,
)
from .pipeline import PipelineResult, RunConfig, run_pipeline
from .rules import AssociationRule, DimensionPolicy, format_rule, gen_rules
from .synth import SynthSpec, generate_sales

__version__ = "0.1.0"

__all__ = [
    "AgreementError",
    "AssociationRule",
    "AttributeSpec",
    "Bin",
    "BitmapTable",
    "DataError",
    "DecodedItemset",
    "DimensionPolicy",
    "FrequentItemset",
    "Item",
    "MapCodeRegistry",
    "MdTable",
    "MiningStats",
    "PipelineResult",
    "RelationalTable",
    "RunConfig",
    "SchemaError",
    "StarMinerError",
    "SynthSpec",
    "TransactionView",
    "UsageError",
    "apriori_baseline",
    "bitmap_encode",
    "brute_force_frequent",
    "build_item_extents",
    "combine_dims",
    "discretize",
    "exact_fraction",
    "fi_gen",
    "format_rule",
    "gen_rules",
    "generate_sales",
    "group_by_key",
    "join_tables",
    "load_csv",
    "run_pipeline",
    "support_threshold",
    "transform_map_code",
]
