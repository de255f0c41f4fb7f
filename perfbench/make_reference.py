"""Write reference.json: the output digest and input fingerprint of every
workload at the default seed.

    python3 perfbench/make_reference.py

Each workload runs once with its ``reference_algorithm``: ``both`` where
apriori finishes in reasonable time, so that the stored digest is one both
miners agreed on (the CLI exits 3 otherwise), and rshar alone on the deep
lattice. The artifacts must also pass the recount before they are stored.
Run this only when a change is meant to alter a workload's output or inputs,
and say why in that change.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

from check import recount_problems
from run import HERE, STATE, prepare, run_once
from workloads import DEFAULT_SEED, WORKLOADS


def main() -> int:
    entries = {}
    for wl in WORKLOADS.values():
        work = STATE / "work" / f"reference-{wl.name}-{os.getpid()}"
        try:
            prepare(wl, DEFAULT_SEED, work)
            sample, _ = run_once(wl, DEFAULT_SEED, work, traced=False, algorithm=wl.reference_algorithm)
            problems = sample["problems"] or recount_problems(wl, wl.data_dir(work), work / "out", DEFAULT_SEED)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        if problems:
            print(f"{wl.name}: {problems[:5]}", file=sys.stderr)
            return 1
        entries[wl.name] = {
            "algorithm": wl.reference_algorithm,
            "digest": sample["digest"],
            "itemsets": sample["itemsets"],
            "rules": sample["rules"],
            "inputs": sample["inputs"],
        }
        print(f"{wl.name}: {sample['itemsets']} itemsets, {sample['rules']} rules, {sample['run_s']:.1f} s")
    doc = {"seed": DEFAULT_SEED, "workloads": entries}
    (HERE / "reference.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
