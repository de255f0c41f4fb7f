"""Compare two sets of untraced benchmark results, workload by workload.

    python3 perfbench/compare.py BASE CHANGE

BASE and CHANGE are result files written by run.py, or directories holding
them. Results are paired by (workload, seed); a pair whose input fingerprints
differ means the two sides mined different data (for example, synth changed),
and the comparison is refused with exit code 2. For each end-to-end metric
the table gives both medians over the paired runs, the base's quartiles, the
change as a share of the base median, and the verdict against the bound in
BENCHMARK.json: "worse" beyond the bound, "unresolved" where the base's own
spread is wider than the bound, and "ok" otherwise.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: Path) -> dict[tuple[str, int], dict]:
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    results = {}
    for f in files:
        r = json.loads(f.read_text(encoding="utf-8"))
        if not r["trace"] and r["end_to_end"]:
            results[(r["workload"], r["seed"])] = r
    return results


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 1
    base, change = (load(Path(a)) for a in argv)
    pairs = sorted(base.keys() & change.keys())
    differ = [k for k in pairs if base[k]["inputs"] != change[k]["inputs"]]
    if differ:
        for workload, seed in differ:
            print(f"refused: {workload} seed {seed} mined different inputs on the two sides", file=sys.stderr)
        return 2
    if not pairs:
        print("no (workload, seed) pair is present on both sides", file=sys.stderr)
        return 1

    metrics = json.loads(BENCHMARK.read_text(encoding="utf-8"))["end_to_end"]
    print(f"{'workload':<16} {'metric':<12} {'base':>10} {'q1':>10} {'q3':>10} {'change':>10} {'delta':>8} {'bound':>6}  verdict  n")
    for workload in sorted({w for w, _ in pairs}):
        seeds = [k for k in pairs if k[0] == workload]
        for m in metrics:
            a = [base[k]["end_to_end"][m["name"]]["median"] for k in seeds]
            b = [change[k]["end_to_end"][m["name"]]["median"] for k in seeds]
            ma, mb = statistics.median(a), statistics.median(b)
            q1, _, q3 = statistics.quantiles(a, n=4) if len(a) > 1 else (ma, ma, ma)
            delta = (mb - ma) / ma
            worse = delta if m["better"] == "lower" else -delta
            if (q3 - q1) / ma > m["bound"]:
                verdict = "unresolved"
            else:
                verdict = "worse" if worse > m["bound"] else "ok"
            print(
                f"{workload:<16} {m['name']:<12} {ma:>10.4f} {q1:>10.4f} {q3:>10.4f} {mb:>10.4f} "
                f"{delta:>+8.1%} {m['bound']:>6.2f}  {verdict:<8} {len(seeds)}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
