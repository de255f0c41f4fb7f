"""Entry point of every process the benchmark starts.

    child.py gen SEED ROWS PRODUCTS DIR
        Write a workload's CSVs with starminer.synth.generate_sales.
    child.py run plain|trace RECORD [--w2] -- STARMINER_ARGS...
        Run starminer.cli.main once and write RECORD (JSON) before exiting.
        plain: the only instrumentation is one CLOCK_MONOTONIC timestamp taken
        when the first miner call (fi_gen or apriori_baseline) starts.
        trace: every layer boundary records spans (see spans.py); with --w2
        fi_gen is then timed again with workers=1 and workers=2 on the same
        transaction view, untraced.

starminer is imported from the ``src`` directory next to this one and from
nowhere else.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
import uuid
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
W2_PAIRS = 3


def import_starminer() -> None:
    sys.path.insert(0, str(SRC))
    import starminer

    where = Path(starminer.__file__).resolve().parent
    if where != SRC / "starminer":
        raise SystemExit(f"starminer was imported from {where}, expected {SRC / 'starminer'}")


def gen(seed: str, rows: str, products: str, out: str) -> int:
    import_starminer()
    from starminer.synth import SynthSpec, generate_sales

    generate_sales(SynthSpec(seed=int(seed), n_fact_rows=int(rows), n_products=int(products)), out)
    return 0


def _time_workers(fi_gen, captured: dict) -> dict:
    """Median wall seconds of fi_gen at workers=1 and 2, alternating."""
    times: dict[int, list[float]] = {1: [], 2: []}
    agree = True
    begin = time.perf_counter()
    for _ in range(W2_PAIRS):
        for workers, samples in times.items():
            start = time.perf_counter()
            itemsets, _ = fi_gen(captured["view"], captured["minsup"], workers=workers)
            samples.append(time.perf_counter() - start)
            agree = agree and itemsets == captured["itemsets"]
    return {
        "w1_s": statistics.median(times[1]),
        "w2_s": statistics.median(times[2]),
        "agree": agree,
        "total_s": time.perf_counter() - begin,
    }


def run(mode: str, record_path: str, w2: bool, argv: list[str]) -> int:
    import_starminer()
    from starminer import cli, mining, pipeline

    record: dict = {}
    if mode == "plain":
        first: list[int] = []

        def stamp(fn):
            def stamped(*args, **kwargs):
                if not first:
                    first.append(time.clock_gettime_ns(time.CLOCK_MONOTONIC))
                return fn(*args, **kwargs)

            return stamped

        pipeline.fi_gen = stamp(pipeline.fi_gen)
        pipeline.apriori_baseline = stamp(pipeline.apriori_baseline)
        code = cli.main(argv)
        record["first_miner_ns"] = first[0] if first else None
    else:
        from spans import Tracer, install

        tracer = Tracer(uuid.uuid4().hex)
        captured: dict = {}

        def capture(args, kwargs, result):
            captured.update(view=args[0], minsup=args[1], itemsets=result[0])

        install(tracer, on_fi_gen=capture)
        code = cli.main(argv)
        tracer.uninstall()
        record["spans"] = tracer.spans
        if w2 and code == 0:
            record["w2"] = _time_workers(mining.fi_gen, captured)

    record["exit"] = code
    Path(record_path).write_text(json.dumps(record), encoding="utf-8")
    return code


def main(args: list[str]) -> int:
    if args[:1] == ["gen"] and len(args) == 5:
        return gen(*args[1:])
    if args[:1] == ["run"] and "--" in args:
        sep = args.index("--")
        head = args[1:sep]
        if len(head) in (2, 3) and head[0] in ("plain", "trace") and head[2:] in ([], ["--w2"]):
            return run(head[0], head[1], head[2:] == ["--w2"], args[sep + 1 :])
    print(__doc__, file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
