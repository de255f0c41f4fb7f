"""A run that fails late in its fact file holds no more than a clean run.

After a chunk of the fact file fails, ``run_pipeline`` still reads, joins
and bins every later chunk, one at a time, to find the error that a
whole-table run raises first. Nothing is loaded whole for it, so a run
whose last fact row holds an orphan key peaks no higher than the clean run
of the same rows, which goes on to mine and write its artifacts.

Both runs peak in the same phase, so their peaks differ by a few bytes
either way. Each is taken in a fresh interpreter with a fixed hash seed, so
no earlier test's leftovers weigh on one of them, and the failing run may
peak up to ``SLACK`` above the clean one: far below the doubling that
loading the fact file whole gives.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import starminer
from starminer.synth import SynthSpec, generate_sales

JOINS = (("customer_id", "customer"), ("product_id", "product"), ("time_id", "times"), ("channel_id", "channel"))
SLACK = 1 << 16  # the characters of one default-size chunk of the fact file

# one CLI run, its fact file read in 4,096-character chunks; its traced peak
# is the last line it prints
CHILD = """
import sys, tracemalloc
from starminer import ingest
from starminer.cli import main

ingest._CHUNK_CHARS = 1 << 12
tracemalloc.start()
code = main(sys.argv[1:])
print(tracemalloc.get_traced_memory()[1])
sys.exit(code)
"""


def traced_run(argv: list[str]) -> tuple[int, str, int]:
    """Exit code, stderr and the traced peak of one CLI run in a fresh interpreter."""
    src = Path(starminer.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, *argv], capture_output=True, text=True,
        env={**os.environ, "PYTHONHASHSEED": "0", "PYTHONPATH": str(src)},
    )
    return proc.returncode, proc.stderr, int(proc.stdout.split()[-1])


def test_a_last_row_orphan_peaks_no_higher_than_the_clean_run(tmp_path):
    data = tmp_path / "data"
    generate_sales(SynthSpec(seed=5, n_fact_rows=20_000), data)
    shutil.copy(data / "fact.csv", tmp_path / "orphan.csv")
    with open(tmp_path / "orphan.csv", "a", encoding="utf-8") as fh:
        fh.write("TX999999,C9999,P001,T01,CH01\n")

    def argv(fact, out):
        return (
            ["--fact", str(fact)]
            + [f"--dim={dim}={data / dim}.csv" for _, dim in JOINS]
            + [f"--join={key}:{dim}:{key}" for key, dim in JOINS]
            + ["--bins=year=y1998:1998:1999,y1999:1999:2000,y2000on:2000:2010",
               "--filter=year=y1998", "--filter=year=y2000on",
               "--key-dim", "tid", "--combine-dims", "age_group,product_name",
               "--minsup", "0.0045", "--minconf", "0.3", "--repeatable-dims", "product_name",
               "--out", str(tmp_path / out)]
        )

    clean = traced_run(argv(data / "fact.csv", "clean"))
    failing = traced_run(argv(tmp_path / "orphan.csv", "orphan"))
    assert clean[:2] == (0, "")
    assert failing[:2] == (2, "starminer: data error: fact keys without a dimension match: "
                              "'C9999' (dimension 'customer')\n")
    assert failing[2] <= clean[2] + SLACK, (failing[2], clean[2])
