"""Self-tests of the benchmark harness at toy sizes.

    python3 -m pytest perfbench
"""

import json
from dataclasses import replace

from check import output_digest, recount_problems
from run import ROOT, measure, prepare, run_once
from spans import LAYER_UNITS
from workloads import PRODUCT_ONLY, WORKLOADS, Workload

SEED = 7
TOY = Workload(
    name="toy",
    why="harness self-test",
    rows=3000,
    joins=PRODUCT_ONLY,
    combine=("product_name",),
    minsup="0.01",
    minconf="0.5",
)


def test_benchmark_json_names_every_workload_and_metric():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == LAYER_UNITS


def test_toy_run_passes_every_check(tmp_path):
    result = measure(TOY, SEED, 0, True, tmp_path / "work")
    assert result["failed"] == 0, [s["problems"] for s in result["samples"]]
    assert result["end_to_end"]["setup_s"]["median"] > 0
    assert result["layers"]["mining.frequent"] == result["samples"][0]["itemsets"]
    assert result["layers"]["ingest.load_csv.rows"] == TOY.rows + 50


def test_corrupted_artifact_fails_the_output_check(tmp_path):
    work = tmp_path / "work"
    prepare(TOY, SEED, work)
    sample, _ = run_once(TOY, SEED, work, traced=False)
    out = work / "out"
    assert sample["problems"] == []
    assert recount_problems(TOY, TOY.data_dir(work), out, SEED) == []

    path = out / "itemsets.jsonl"
    records = [json.loads(line) for line in path.read_text().splitlines()]
    records[-1]["support_count"] += 1
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    assert output_digest(out)[0] != sample["digest"]
    assert recount_problems(TOY, TOY.data_dir(work), out, SEED)


def test_missing_span_is_reported(tmp_path):
    # the toy has no --bins, so discretize never runs
    wl = replace(TOY, extra_spans=frozenset({"ingest.discretize"}))
    result = measure(wl, SEED, 0, True, tmp_path / "work")
    traced = result["samples"][-1]
    assert traced["traced"] and result["failed"] == 1
    assert traced["problems"] == ["spans never fired: ingest.discretize"]
