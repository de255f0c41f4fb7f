import dataclasses
import errno
import json
import os
import random
import time

import pytest

from starminer.cli import build_parser, main
from starminer.datamodel import RelationalTable
from starminer.errors import AgreementError
from starminer.mapcode import MdTable
from starminer.mining import TransactionView
from starminer.pipeline import RunConfig, run_pipeline


def write_people_csv(tmp_path):
    path = tmp_path / "people.csv"
    path.write_text("TID,age\n1,Young\n2,Middle\n3,Middle\n", encoding="utf-8")
    return path


def people_config(tmp_path, **overrides):
    base = dict(
        out_dir=str(tmp_path / "out"),
        fact=str(write_people_csv(tmp_path)),
        key_dim="TID",
        selected_dims=("age",),
        minsup="0.5",
        minconf="0.5",
    )
    base.update(overrides)
    return RunConfig(**base)


# --- run_pipeline -----------------------------------------------------------

def test_single_table_pipeline_mines_the_majority_value(tmp_path):
    result = run_pipeline(people_config(tmp_path))
    pair_sets = {d.pair_set: d for d in result.decoded}
    middle = pair_sets[frozenset({("age", "Middle")})]
    assert middle.support_count == 2
    assert middle.support == 2 / 3
    assert frozenset({("age", "Young")}) not in pair_sets
    for name in ("itemsets.txt", "itemsets.jsonl", "rules.txt", "rules.jsonl",
                 "stats.json", "registry.csv"):
        assert (tmp_path / "out" / name).exists()


def test_pipeline_records_parse_back(tmp_path):
    result = run_pipeline(people_config(tmp_path))
    lines = (tmp_path / "out" / "itemsets.jsonl").read_text().splitlines()
    records = [json.loads(l) for l in lines]
    assert {r["support_count"] for r in records} == {2}
    assert records[0]["items"] == [{"dimension": "age", "value": "Middle"}]
    stats = json.loads((tmp_path / "out" / "stats.json").read_text())
    assert stats["groups"] == 3
    assert stats["algorithms"]["rshar"]["full_scans_of_groups"] == 1
    assert "elapsed" not in json.dumps(stats)


def test_pipeline_rejects_bad_thresholds(tmp_path):
    with pytest.raises(ValueError):
        run_pipeline(people_config(tmp_path, minsup="0"))
    with pytest.raises(ValueError):
        run_pipeline(people_config(tmp_path, minsup="1.5"))
    with pytest.raises(ValueError):
        run_pipeline(people_config(tmp_path, minconf="abc"))


def test_pipeline_both_agreement_and_report(tmp_path):
    result = run_pipeline(people_config(tmp_path, algorithm="both"))
    assert list(result.stats) == ["rshar", "apriori"]
    report = json.loads((tmp_path / "out" / "bench_report.json").read_text())
    assert report["agreement"] is True
    assert report["algorithms"]["rshar"]["full_scans_of_groups"] == 1
    for name, st in result.stats.items():
        assert {k: report["algorithms"][name][k] for k in st.counters()} == st.counters()
    assert "elapsed" not in json.dumps(report)


def test_run_benchmark_requires_both(tmp_path, capsys):
    # the comparison report and table exist only when both miners run
    argv = ["--fact", str(write_people_csv(tmp_path)), "--key-dim", "TID", "--combine-dims", "age",
            "--minsup", "0.5", "--minconf", "0.5", "--out", str(tmp_path / "out")]
    assert main([*argv, "--algorithm", "rshar"]) == 0
    assert "agreement" not in capsys.readouterr().out
    assert not (tmp_path / "out" / "bench_report.json").exists()
    assert main([*argv, "--algorithm", "both"]) == 0
    out = capsys.readouterr().out
    assert "agreement: yes" in out
    rows = [line.split()[:5] for line in out.splitlines() if line.startswith(("rshar ", "apriori "))]
    assert rows == [["rshar", "1", "2", "0", "1"], ["apriori", "1", "2", "0", "1"]]
    report = json.loads((tmp_path / "out" / "bench_report.json").read_text())
    assert report["agreement"] is True


def test_miners_that_disagree_fail_the_run_before_any_artifact(tmp_path, monkeypatch, capsys):
    import starminer.pipeline as pipeline_mod

    mine = pipeline_mod.apriori_baseline

    def drop_one(view, minsup):
        itemsets, stats = mine(view, minsup)
        return itemsets[1:], stats

    monkeypatch.setattr(pipeline_mod, "apriori_baseline", drop_one)
    with pytest.raises(AgreementError):
        run_pipeline(people_config(tmp_path, algorithm="both"))
    code = run_cli(
        "--fact", str(write_people_csv(tmp_path)), "--key-dim", "TID", "--combine-dims", "age",
        "--minsup", "0.5", "--minconf", "0.5", "--algorithm", "both",
        "--out", str(tmp_path / "out"),
    )
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("starminer: disagreement: ") and err.count("\n") == 1
    assert not (tmp_path / "out" / "stats.json").exists()
    assert not (tmp_path / "out" / "bench_report.json").exists()


def test_pipeline_deterministic_bytes_and_parallel_equivalence(tmp_path):
    def run(out_name, workers):
        cfg = RunConfig(
            out_dir=str(tmp_path / out_name),
            synth_rows=600,
            seed=13,
            joins=(("product_id", "product", "product_id"),),
            key_dim="tid",
            selected_dims=("product_name",),
            minsup="0.02",
            minconf="0.5",
            algorithm="both",
            repeatable_dims=("product_name",),
            workers=workers,
        )
        result = run_pipeline(cfg)
        return {
            name: path.read_bytes()
            for name, path in sorted(result.files.items())
        }

    first = run("one", 1)
    second = run("two", 1)
    parallel = run("three", 4)
    assert {k: v for k, v in first.items()} == {k: v for k, v in second.items()}
    assert {k: v for k, v in first.items()} == {k: v for k, v in parallel.items()}


def test_pipeline_with_bins_discretizes_before_combining(tmp_path):
    path = tmp_path / "orders.csv"
    path.write_text(
        "TID,income\n1,5500\n2,8000\n3,6200\n", encoding="utf-8"
    )
    cfg = RunConfig(
        out_dir=str(tmp_path / "out"),
        fact=str(path),
        key_dim="TID",
        selected_dims=("income",),
        bins=(("income", (("5K..7K", 5000.0, 7000.0), ("7K..9K", 7000.0, 9000.0))),),
        minsup="0.5",
        minconf="0.5",
    )
    result = run_pipeline(cfg)
    assert {d.pairs for d in result.decoded} == {(("income", "5K..7K"),)}


def test_pipeline_filters_restrict_rows(tmp_path):
    cfg = people_config(tmp_path, filters=(("age", "Middle"),), minsup="0.5")
    result = run_pipeline(cfg)
    assert result.codes == 1
    assert result.groups == 2


def test_pipeline_apriori_only(tmp_path):
    result = run_pipeline(people_config(tmp_path, algorithm="apriori"))
    assert set(result.stats) == {"apriori"}
    assert result.stats["apriori"].full_scans_of_groups >= 1
    assert {d.pair_set for d in result.decoded} == {frozenset({("age", "Middle")})}


def test_pipeline_no_frequent_items_reports_zero_everything(tmp_path):
    result = run_pipeline(people_config(tmp_path, algorithm="both", minsup="0.9"))
    assert result.itemsets == []
    assert result.rules == []
    stats = json.loads((tmp_path / "out" / "stats.json").read_text())
    assert stats["itemsets_total"] == 0
    assert stats["rules_total"] == 0
    report = json.loads((tmp_path / "out" / "bench_report.json").read_text())
    assert report["agreement"] is True
    for algo in ("rshar", "apriori"):
        assert report["algorithms"][algo]["itemsets_per_level"] == {}
        assert report["algorithms"][algo]["itemsets_total"] == 0


def test_report_numbers_recomputable_from_itemset_file(tmp_path):
    result = run_pipeline(people_config(tmp_path, algorithm="both", minsup="0.5"))
    records = [
        json.loads(line)
        for line in (tmp_path / "out" / "itemsets.jsonl").read_text().splitlines()
    ]
    per_level = {}
    for r in records:
        key = str(len(r["codes"]))
        per_level[key] = per_level.get(key, 0) + 1
    report = json.loads((tmp_path / "out" / "bench_report.json").read_text())
    for algo in ("rshar", "apriori"):
        assert report["algorithms"][algo]["itemsets_per_level"] == per_level
        assert report["algorithms"][algo]["itemsets_total"] == len(records)


def test_explicit_projection_resolves_ambiguous_attribute(tmp_path):
    fact = tmp_path / "fact.csv"
    fact.write_text("tid,cust,store\nt1,c1,s1\nt2,c1,s2\n", encoding="utf-8")
    cust = tmp_path / "cust.csv"
    cust.write_text("cust_id,name\nc1,Ann\n", encoding="utf-8")
    store = tmp_path / "store.csv"
    store.write_text("store_id,name\ns1,North\ns2,South\n", encoding="utf-8")
    common = dict(
        out_dir=str(tmp_path / "out"),
        fact=str(fact),
        dims=(("customer", str(cust)), ("store", str(store))),
        joins=(("cust", "customer", "cust_id"), ("store", "store", "store_id")),
        key_dim="tid",
        selected_dims=("name",),
        minsup="0.5",
        minconf="0.5",
    )
    with pytest.raises(Exception, match="ambiguous"):
        run_pipeline(RunConfig(**common))
    cfg = RunConfig(**common, projected=(("fact", "tid"), ("store", "name")))
    result = run_pipeline(cfg)
    assert {d.pairs for d in result.decoded} == {
        (("name", "North"),),
        (("name", "South"),),
    }


def test_config_round_trips_through_dict(tmp_path):
    cfg = RunConfig(
        out_dir="out",
        fact="fact.csv",
        dims=(("customer", "c.csv"), ("product", "p.csv")),
        joins=(("cust", "customer", "cust_id"),),
        projected=(("customer", "age"),),
        key_dim="tid",
        selected_dims=("age", "product_name"),
        filters=(("age", "Young"),),
        bins=(("income", (("low", 0.0, 5.0),)),),
        minsup="0.0045",
        minconf="0.8",
        algorithm="both",
        repeatable_dims=("product_name",),
        synth_rows=100,
        seed=7,
        workers=2,
    )
    assert RunConfig.from_dict(cfg.to_dict()) == cfg
    assert json.loads(json.dumps(cfg.to_dict())) == cfg.to_dict()


def test_config_rejects_unknown_fields():
    with pytest.raises(ValueError, match="unknown"):
        RunConfig.from_dict({"out_dir": "x", "bogus": 1})


def test_constructing_a_config_checks_each_field_shape():
    with pytest.raises(ValueError, match=r"^config field 'dims' must be \[\[string, string\], \.\.\.\], got 5$"):
        RunConfig(out_dir="o", dims=5)


def test_every_flag_sets_a_config_field():
    dests = {action.dest for action in build_parser()._actions} - {"help", "config"}
    assert dests <= {f.name for f in dataclasses.fields(RunConfig)}


# --- CLI ---------------------------------------------------------------------

def run_cli(*argv):
    return main(list(argv))


def test_cli_minsup_zero_rejected_before_any_work(tmp_path, capsys):
    code = run_cli(
        "--fact", "whatever.csv", "--key-dim", "TID", "--combine-dims", "age",
        "--minsup", "0", "--minconf", "0.5", "--out", str(tmp_path / "out"),
    )
    assert code == 1
    assert "minsup" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


SYNTH = ["--synth", "100", "--seed", "1", "--join", "product_id:product:product_id"]
# the files need not exist: the conflicts are rejected before anything is read
EXPLICIT = ["--fact", "fact.csv", "--dim", "product=product.csv", "--combine-dims", "product_name"]


@pytest.mark.parametrize(
    "flags, field",
    [
        ([*SYNTH, "--combine-dims", "tid"], "key_dim"),
        ([*SYNTH, "--combine-dims", "product_name,product_name"], "selected_dims"),
        ([*SYNTH, "--combine-dims", "product_name", "--join", "product_id:product:product_id"], "joins"),
        ([*SYNTH, "--combine-dims", "product_name", "--repeatable-dims", "nosuch"], "repeatable_dims"),
        ([*EXPLICIT, "--dim", "product=other.csv"], "dims must"),
        ([*EXPLICIT, "--dim", "fact=other.csv"], "dims must"),
        ([*EXPLICIT, "--join", "product_id:nosuch:product_id"], "joins"),
        ([*SYNTH, "--combine-dims", "product_name", "--join", "product_id:nosuch:product_id"], "joins"),
        ([*SYNTH, "--combine-dims", "product_name,year", "--bins", "year=old:1990:2000,new:2000:2100",
          "--bins", "year=all:1000:3000"], "bins"),
    ],
    ids=["key-dim-combined", "duplicate-dims", "duplicate-join", "repeatable-not-combined",
         "duplicate-dim-name", "dim-named-fact", "join-without-dim", "join-synth-does-not-make",
         "repeated-bins-attribute"],
)
def test_cli_flag_conflicts_are_usage_errors_naming_the_field(tmp_path, capsys, flags, field):
    code = run_cli(
        "--key-dim", "tid", *flags,
        "--minsup", "0.5", "--minconf", "0.5", "--out", str(tmp_path / "out"),
    )
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("starminer: usage error: ") and field in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("option", ["minsup", "minconf"])
@pytest.mark.parametrize("via_config", [False, True], ids=["flag", "config"])
def test_cli_threshold_with_a_huge_exponent_is_a_usage_error_naming_it(tmp_path, capsys, option, via_config):
    values = {"minsup": "0.5", "minconf": "0.5", option: "1e-99999999999"}
    fact = write_people_csv(tmp_path)
    out = str(tmp_path / "out")
    if via_config:
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"out_dir": out, "fact": str(fact), "key_dim": "TID",
                                      "selected_dims": ["age"], **values}), encoding="utf-8")
        argv = ["--config", str(config)]
    else:
        argv = ["--fact", str(fact), "--key-dim", "TID", "--combine-dims", "age", "--out", out,
                "--minsup", values["minsup"], "--minconf", values["minconf"]]
    start = time.perf_counter()
    code = run_cli(*argv)
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"starminer: usage error: {option}: ")
    assert "exponent" in err and err.count("\n") == 1


@pytest.mark.parametrize(
    "field, value",
    [("synth_rows", -5), ("synth_customers", 0), ("synth_products", 0), ("synth_times", 0),
     ("synth_channels", -1), ("synth_skew", -0.5)],
)
def test_synth_size_out_of_range_is_a_usage_error_naming_it(tmp_path, capsys, field, value):
    config = tmp_path / "run.json"
    doc = {"out_dir": str(tmp_path / "out"), "synth_rows": 10, "seed": 1, field: value}
    config.write_text(json.dumps(doc), encoding="utf-8")
    assert run_cli("--config", str(config)) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"starminer: usage error: {field} must be >= ")
    assert err.count("\n") == 1
    assert not (tmp_path / "out" / "data").exists()


def test_cli_negative_synth_rows_is_a_usage_error(tmp_path, capsys):
    assert run_cli("--synth", "-5", "--seed", "1", "--out", str(tmp_path / "out")) == 1
    assert capsys.readouterr().err.startswith("starminer: usage error: synth_rows must be >= 0")


def test_cli_requires_out(tmp_path):
    assert run_cli("--synth", "10", "--seed", "1") == 1


def test_cli_single_table_run(tmp_path, capsys):
    fact = write_people_csv(tmp_path)
    code = run_cli(
        "--fact", str(fact), "--key-dim", "TID", "--combine-dims", "age",
        "--minsup", "0.5", "--minconf", "0.5", "--out", str(tmp_path / "out"),
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "groups: 3" in out
    assert (tmp_path / "out" / "itemsets.txt").read_text().startswith('age("Middle")')


def test_cli_bom_prefixed_inputs_mine_like_plain_ones(tmp_path):
    fact_text = "tid,product_id\n1,p1\n1,p2\n2,p1\n2,p2\n3,p1\n"
    dim_text = "product_id,product_name\np1,beer\np2,diaper\n"
    outputs = {}
    for label, prefix in (("plain", ""), ("bom", "﻿")):
        base = tmp_path / label
        base.mkdir()
        (base / "fact.csv").write_text(prefix + fact_text, encoding="utf-8")
        (base / "product.csv").write_text(prefix + dim_text, encoding="utf-8")
        code = run_cli(
            "--fact", str(base / "fact.csv"), "--dim", f"product={base / 'product.csv'}",
            "--join", "product_id:product:product_id",
            "--key-dim", "tid", "--combine-dims", "product_name",
            "--repeatable-dims", "product_name",
            "--minsup", "0.5", "--minconf", "0.5", "--out", str(base / "out"),
        )
        assert code == 0
        outputs[label] = [
            (base / "out" / name).read_bytes() for name in ("itemsets.jsonl", "rules.jsonl")
        ]
    assert outputs["bom"] == outputs["plain"]
    assert b"diaper" in outputs["plain"][1]


def test_cli_two_dimension_codes_mine_without_a_corrupt_list_error(tmp_path, capsys):
    # codes over A and B expand to pair sets where containment does not follow
    # code containment, so a listed subset can have the lower count
    rng = random.Random(4)
    rows = [f"t{rng.randrange(8)},a{rng.randrange(2)},b{rng.randrange(4)}\n" for _ in range(22)]
    fact = tmp_path / "fact.csv"
    fact.write_text("tid,A,B\n" + "".join(rows), encoding="utf-8")
    code = run_cli(
        "--fact", str(fact), "--key-dim", "tid", "--combine-dims", "A,B",
        "--minsup", "0.3", "--minconf", "0.5", "--repeatable-dims", "A,B",
        "--out", str(tmp_path / "out"),
    )
    assert code == 0, capsys.readouterr().err
    records = [
        json.loads(line)
        for line in (tmp_path / "out" / "rules.jsonl").read_text(encoding="utf-8").splitlines()
    ]
    assert records
    assert all(r["antecedent_count"] >= r["support_count"] for r in records)


def test_cli_synth_only_generates_data(tmp_path, capsys):
    code = run_cli("--synth", "50", "--seed", "3", "--out", str(tmp_path / "out"))
    assert code == 0
    assert (tmp_path / "out" / "data" / "fact.csv").exists()
    assert "generated synthetic data" in capsys.readouterr().out


def test_generation_only_run_reads_nothing_back(tmp_path, monkeypatch):
    import starminer.pipeline as pipeline_mod

    def forbidden(*args, **kwargs):
        raise AssertionError("a generation-only run read its CSVs back")

    monkeypatch.setattr(pipeline_mod, "load_csv", forbidden)
    monkeypatch.setattr(pipeline_mod, "read_header", forbidden)
    assert run_cli("--synth", "50", "--seed", "3", "--out", str(tmp_path / "out")) == 0
    result = run_pipeline(RunConfig(out_dir=str(tmp_path / "again"), synth_rows=50, seed=3))
    data = tmp_path / "again" / "data"
    assert result.files == {f"data/{name}": data / f"{name}.csv"
                            for name in ("fact", "customer", "product", "times", "channel")}


def test_cli_synth_requires_seed(tmp_path):
    assert run_cli("--synth", "50", "--out", str(tmp_path / "out")) == 1


def test_cli_synth_benchmark_end_to_end(tmp_path, capsys):
    code = run_cli(
        "--synth", "600", "--seed", "7", "--out", str(tmp_path / "out"),
        "--join", "product_id:product:product_id",
        "--key-dim", "tid", "--combine-dims", "product_name",
        "--minsup", "0.02", "--minconf", "0.5",
        "--algorithm", "both", "--repeatable-dims", "product_name",
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "agreement: yes" in out
    assert "speedup" in out
    report = json.loads((tmp_path / "out" / "bench_report.json").read_text())
    assert report["agreement"] is True


def test_cli_orphan_key_is_a_data_error(tmp_path, capsys):
    fact = tmp_path / "fact.csv"
    fact.write_text("tid,cust\nt1,cX\n", encoding="utf-8")
    dim = tmp_path / "customer.csv"
    dim.write_text("cust_id,age\nc1,Young\n", encoding="utf-8")
    code = run_cli(
        "--fact", str(fact), "--dim", f"customer={dim}",
        "--join", "cust:customer:cust_id",
        "--key-dim", "tid", "--combine-dims", "age",
        "--minsup", "0.5", "--minconf", "0.5", "--out", str(tmp_path / "out"),
    )
    assert code == 2
    assert "cX" in capsys.readouterr().err


def test_cli_disagreement_exit_code(tmp_path, monkeypatch, capsys):
    import starminer.cli as cli_mod

    def explode(config):
        raise AgreementError("forced for the exit-code contract")

    monkeypatch.setattr(cli_mod, "run_pipeline", explode)
    fact = write_people_csv(tmp_path)
    code = run_cli(
        "--fact", str(fact), "--key-dim", "TID", "--combine-dims", "age",
        "--minsup", "0.5", "--minconf", "0.5", "--out", str(tmp_path / "out"),
    )
    assert code == 3


def test_cli_config_file_round_trip(tmp_path):
    fact = write_people_csv(tmp_path)
    cfg = RunConfig(
        out_dir=str(tmp_path / "out"),
        fact=str(fact),
        key_dim="TID",
        selected_dims=("age",),
        minsup="0.5",
        minconf="0.5",
    )
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps(cfg.to_dict(), indent=2), encoding="utf-8")
    assert run_cli("--config", str(config_path)) == 0
    # flags override config fields
    assert run_cli("--config", str(config_path), "--minsup", "0") == 1


def test_cli_bad_flag_shapes(tmp_path):
    out = str(tmp_path / "out")
    assert run_cli("--dim", "nopath", "--out", out) == 1
    assert run_cli("--join", "a:b", "--out", out) == 1
    assert run_cli("--bins", "income=low:0", "--out", out) == 1


def test_cli_usage_error_exit_code_from_argparse(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--algorithm", "bogus"])
    assert exc.value.code == 1


@pytest.mark.parametrize(
    "argv",
    [["--no-such-flag"], ["--synth", "x", "--out", "o"], ["--algorithm", "nope"], ["--dim"]],
    ids=["unknown-flag", "synth-not-an-int", "unknown-algorithm", "dim-without-value"],
)
def test_cli_argparse_errors_are_one_line_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("starminer: usage error: ") and err.count("\n") == 1


LOAD_FAILURES = [
    # (case, fact bytes, extra flags, exit code, stderr prefix after "starminer: ")
    ("latin1-body", b"TID,age\n1,Young\n2,\xe9l\xe8ve\n", [], 2, "data error: {fact}: not valid UTF-8"),
    ("latin1-header", b"TID,\xe2ge\n1,Young\n", [], 2, "data error: {fact}: not valid UTF-8"),
    ("missing", None, [], 2, "data error: no such file: {fact}"),
    ("fact-is-dir", "dir", [], 2, "data error: {fact}: is a directory"),
    ("dim-is-dir", b"TID,age\n1,Young\n", ["--dim=x={tmp}", "--join=age:x:age"], 2, "data error: {tmp}: is a directory"),
    ("out-is-file", b"TID,age\n1,Young\n", ["--out={tmp}/taken"], 1, "usage error: cannot create output directory {tmp}/taken"),
    ("bins-unknown-attribute", b"TID,age\n1,Young\n", ["--bins=agee=a:0:1"], 2,
     "data error: --bins attribute 'agee' not found in any input table"),
    ("trailing-blank-line", b"TID,age\n1,Young\n\n", [], 2, "data error: {fact} row 2: expected 2 values, got 1"),
    ("bom", b"\xef\xbb\xbfTID,age\n1,Young\n2,Young\n", [], 0, ""),
]


@pytest.mark.parametrize(
    "fact_bytes, flags, exit_code, prefix",
    [case[1:] for case in LOAD_FAILURES],
    ids=[case[0] for case in LOAD_FAILURES],
)
def test_cli_load_failures_are_classified_one_liners(tmp_path, capsys, fact_bytes, flags, exit_code, prefix):
    fact = tmp_path / "fact.csv"
    if fact_bytes == "dir":
        fact.mkdir()
    elif fact_bytes is not None:
        fact.write_bytes(fact_bytes)
    (tmp_path / "taken").write_text("not a directory\n", encoding="utf-8")
    code = run_cli(
        "--fact", str(fact), "--key-dim", "TID", "--combine-dims", "age",
        "--minsup", "0.5", "--minconf", "0.5", "--out", str(tmp_path / "out"),
        *(f.format(tmp=tmp_path) for f in flags),
    )
    err = capsys.readouterr().err
    assert code == exit_code
    if exit_code:
        assert err.startswith("starminer: " + prefix.format(fact=fact, tmp=tmp_path))
        assert err.count("\n") == 1
    else:
        assert err == ""


# --- column storage and artifact writes --------------------------------------

STAR_FLAGS = [
    "--synth", "300", "--seed", "5",
    "--join", "customer_id:customer:customer_id", "--join", "product_id:product:product_id",
    "--join", "time_id:times:time_id", "--join", "channel_id:channel:channel_id",
    "--bins", "year=y1998:1998:1999,y1999:1999:2000,y2000on:2000:2010",
    "--filter", "year=y1998", "--filter", "year=y2000on",
    "--key-dim", "tid", "--combine-dims", "age_group,product_name", "--minsup", "0.02",
]


@pytest.mark.parametrize("dim_rows", ["a,x\nb,y\n", "a,x\na,z\nb,y\n", None],
                         ids=["one-to-one", "duplicate-keys", "synth-star"])
def test_cli_never_builds_row_tuples(tmp_path, monkeypatch, dim_rows):
    def forbidden(self):
        raise AssertionError("a pipeline stage read the row view")

    monkeypatch.setattr(RelationalTable, "rows", property(forbidden))
    monkeypatch.setattr(MdTable, "rows", property(forbidden))
    if dim_rows is None:
        flags = STAR_FLAGS
    else:
        fact = tmp_path / "fact.csv"
        fact.write_text("tid,A,B\nt1,a,5\nt1,b,50\nt2,a,5\nt3,b,7\n", encoding="utf-8")
        dim = tmp_path / "dim.csv"
        dim.write_text("A,C\n" + dim_rows, encoding="utf-8")
        flags = ["--fact", str(fact), "--dim", f"d={dim}", "--join", "A:d:A",
                 "--bins", "B=lo:0:10,hi:10:100", "--filter", "B=lo",
                 "--key-dim", "tid", "--combine-dims", "B,C", "--minsup", "0.3"]
    code = run_cli(*flags, "--minconf", "0.5", "--algorithm", "both", "--out", str(tmp_path / "out"))
    assert code == 0


def test_rshar_run_builds_no_per_group_container(tmp_path, monkeypatch):
    def forbidden(self):
        raise AssertionError("the rshar path derived per-group code sets")

    monkeypatch.setattr(TransactionView, "group_sets", property(forbidden))
    monkeypatch.setattr(TransactionView, "groups", property(forbidden))
    code = run_cli(*STAR_FLAGS, "--minconf", "0.5", "--out", str(tmp_path / "out"))
    assert code == 0


def test_failed_artifact_write_leaves_each_file_old_or_new(tmp_path, monkeypatch):
    baskets = tmp_path / "baskets.csv"
    baskets.write_text("TID,item\n1,a\n1,b\n2,a\n2,b\n3,a\n", encoding="utf-8")

    def config(out, minsup, **extra):
        return RunConfig(out_dir=str(tmp_path / out), fact=str(baskets), key_dim="TID",
                         selected_dims=("item",), repeatable_dims=("item",),
                         minsup=minsup, minconf="0.5", **extra)

    def artifacts(out):
        return {p.name: p.read_bytes() for p in (tmp_path / out).iterdir()}

    run_pipeline(config("out", "0.9"))
    old = artifacts("out")
    run_pipeline(config("fresh", "0.5", algorithm="both"))
    new = artifacts("fresh")

    replace, written = os.replace, []

    def third_replace_fails(src, dst):
        written.append(os.path.basename(dst))
        if len(written) == 3:
            raise OSError(errno.ENOSPC, "No space left on device")
        replace(src, dst)

    monkeypatch.setattr(os, "replace", third_replace_fails)
    with pytest.raises(ValueError, match="cannot write artifacts"):
        run_pipeline(config("out", "0.5", algorithm="both"))
    after = artifacts("out")
    assert set(after) == set(old)  # no temporary file is left behind
    assert all(old[name] != new[name] for name in written)
    assert [after[name] for name in written] == [new[written[0]], new[written[1]], old[written[2]]]
    assert all(after[name] in (old[name], new[name]) for name in after)
