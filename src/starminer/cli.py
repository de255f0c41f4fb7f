"""Command-line front end.

Exit codes: 0 success, 1 usage error, 2 data/schema error, 3 the two mining
algorithms disagreed (which is a bug, never a data problem), 4 out of
memory (a ``MemoryError``, reported once the run's frames are freed). Any
other exception is a bug too, and propagates with its traceback.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Sequence

from .errors import AgreementError, DataError, SchemaError, UsageError
from .pipeline import ALGORITHMS, RunConfig, run_pipeline

USAGE_EXIT = 1
DATA_EXIT = 2
DISAGREEMENT_EXIT = 3
MEMORY_EXIT = 4


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad flags and prints its usage block first; the
    # CLI contract reserves 2 for data errors and gives every error one line.
    def error(self, message):
        self.exit(USAGE_EXIT, f"{self.prog}: usage error: {message}\n")


def _names(raw: str) -> list[str]:
    return [name for name in raw.split(",") if name]


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="starminer",
        description=(
            "Mine multidimensional association rules from star-schema CSVs: "
            "join, encode combined dimensions, find frequent itemsets, "
            "generate rules."
        ),
    )
    p.add_argument("--config", metavar="PATH", help="JSON run config; flags override its fields")
    p.add_argument("--fact", metavar="PATH", help="fact table CSV")
    p.add_argument(
        "--dim",
        action="append",
        dest="dims",
        metavar="NAME=PATH",
        help="dimension table CSV (repeatable)",
    )
    p.add_argument(
        "--join",
        action="append",
        dest="joins",
        metavar="FACT_KEY:DIM:DIM_KEY",
        help="equi-join link from a fact key to a dimension key (repeatable)",
    )
    p.add_argument("--key-dim", metavar="ATTR", help="attribute whose values define transactions")
    p.add_argument(
        "--combine-dims",
        dest="selected_dims",
        type=_names,
        metavar="A,B,C",
        help="comma-separated dimensions merged into mapping codes",
    )
    p.add_argument(
        "--filter",
        action="append",
        dest="filters",
        metavar="DIM=VALUE",
        help="keep only rows with this dimension value (repeatable; same dim ORs)",
    )
    p.add_argument(
        "--bins",
        action="append",
        metavar="ATTR=LABEL:LO:HI,...",
        help="discretization bins for a quantitative attribute (repeatable)",
    )
    p.add_argument("--minsup", metavar="FRACTION", help="minimum support, e.g. 0.0045")
    p.add_argument("--minconf", metavar="FRACTION", help="minimum confidence, e.g. 0.5")
    p.add_argument("--algorithm", choices=ALGORITHMS, help="miner to run (default rshar)")
    p.add_argument(
        "--repeatable-dims",
        type=_names,
        metavar="A,B",
        help="dimensions that may repeat with several values in one rule",
    )
    p.add_argument(
        "--synth",
        dest="synth_rows",
        type=int,
        metavar="N_FACT_ROWS",
        help="generate synthetic sales data with this many fact rows",
    )
    p.add_argument("--seed", type=int, help="RNG seed (required with --synth)")
    p.add_argument("--out", dest="out_dir", metavar="DIR", help="output directory")
    p.add_argument(
        "--workers",
        type=int,
        help="accepted and ignored: support counting runs on one thread (must be >= 1)",
    )
    return p


def _parse_kv(option: str, raw: str, sep: str = "=") -> tuple[str, str]:
    if sep not in raw:
        raise UsageError(f"{option} expects NAME{sep}VALUE, got {raw!r}")
    name, value = raw.split(sep, 1)
    if not name or not value:
        raise UsageError(f"{option} expects NAME{sep}VALUE, got {raw!r}")
    return name, value


def _parse_bins(raw: str) -> tuple[str, tuple[tuple[str, float, float], ...]]:
    attr, spec = _parse_kv("--bins", raw)
    bins = []
    for part in spec.split(","):
        pieces = part.split(":")
        if len(pieces) != 3:
            raise UsageError(f"--bins expects LABEL:LO:HI entries, got {part!r}")
        label, lo, hi = pieces
        try:
            bins.append((label, float(lo), float(hi)))
        except ValueError:
            raise UsageError(f"--bins bounds must be numbers, got {part!r}") from None
    return attr, tuple(bins)


def _parse_join(raw: str) -> tuple[str, str, str]:
    pieces = raw.split(":")
    if len(pieces) != 3 or not all(pieces):
        raise UsageError(f"--join expects FACT_KEY:DIM:DIM_KEY, got {raw!r}")
    return tuple(pieces)


# The repeatable flags whose values are parsed here rather than by argparse,
# so that a bad one is a usage error with its own message.
_FLAG_PARSERS = {
    "dims": lambda raw: _parse_kv("--dim", raw),
    "joins": _parse_join,
    "filters": lambda raw: _parse_kv("--filter", raw),
    "bins": _parse_bins,
}


def config_from_args(args: argparse.Namespace) -> RunConfig:
    base: dict = {}
    if args.config:
        path = Path(args.config)
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as exc:
            raise UsageError(f"cannot read config file {path}: {exc.strerror}") from None
        except UnicodeDecodeError as exc:
            raise UsageError(f"cannot read config file {path}: not valid UTF-8 text ({exc.reason})") from None
        try:
            base = json.loads(text)
        except json.JSONDecodeError as exc:
            raise UsageError(f"config file is not valid JSON: {exc}") from None
        if not isinstance(base, dict):
            raise UsageError("config file must hold a JSON object")

    # every flag's dest is the RunConfig field it sets
    overrides = {k: v for k, v in vars(args).items() if v is not None and k != "config"}
    for name, parse in _FLAG_PARSERS.items():
        if name in overrides:
            overrides[name] = [parse(raw) for raw in overrides[name]]

    merged = {**base, **overrides}
    if "out_dir" not in merged:
        raise UsageError("--out is required")
    return RunConfig.from_dict(merged)


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    config = result = None
    try:
        config = config_from_args(args)
        result = run_pipeline(config)
    except UsageError as exc:
        print(f"starminer: usage error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except (DataError, SchemaError) as exc:
        print(f"starminer: data error: {exc}", file=sys.stderr)
        return DATA_EXIT
    except AgreementError as exc:
        print(f"starminer: disagreement: {exc}", file=sys.stderr)
        return DISAGREEMENT_EXIT
    except MemoryError:
        pass  # reported below, once this block has freed the miner's frames
    if result is None:
        minsup = getattr(config, "minsup", None)
        at = f" at minsup {minsup}" if minsup is not None else ""
        print(f"starminer: out of memory: the run{at} needs more memory than this process may use", file=sys.stderr)
        return MEMORY_EXIT

    if config.key_dim is None:
        print(f"generated synthetic data under {Path(config.out_dir) / 'data'}")
        return 0

    print(
        f"general table: {result.general_rows} rows | groups: {result.groups} | "
        f"codes: {result.codes}"
    )
    print(f"frequent itemsets: {len(result.itemsets)} | rules: {len(result.rules)}")
    if config.algorithm == "both":
        header = f"{'algorithm':<10} {'scans':>6} {'candidates':>11} {'pruned':>7} {'itemsets':>9} {'seconds':>9}"
        print(f"\n{header}\n{'-' * len(header)}")
        for name, st in result.stats.items():
            print(
                f"{name:<10} {st.full_scans_of_groups:>6} {st.candidates_generated:>11} "
                f"{st.candidates_pruned:>7} {len(result.itemsets):>9} {st.elapsed:>9.3f}"
            )
        # run_pipeline has raised AgreementError unless both found the same itemsets
        print("agreement: yes")
        speedup = result.stats["apriori"].elapsed / max(result.stats["rshar"].elapsed, 1e-9)
        print(f"speedup (apriori/rshar wall time): {speedup:.2f}x")
    print(f"artifacts written to {config.out_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
