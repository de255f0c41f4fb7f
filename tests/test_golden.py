"""Byte identity of every ``--out`` file, pinned by sha256.

Two small synthetic runs through ``cli.main`` with ``--algorithm both``: the
README quick start, and a 4-way star with year bins, two filters and two
combined dimensions. Every file they write, the synthesized CSVs included,
must keep the digest recorded here. A change that means to alter output
bytes has to say why and update these digests with it.
"""

import hashlib
from pathlib import Path

import pytest

from starminer.cli import main

RUNS = {
    "quickstart": [
        "--synth", "3000", "--seed", "11", "--join", "product_id:product:product_id",
        "--key-dim", "tid", "--combine-dims", "product_name",
        "--minsup", "0.01", "--minconf", "0.4", "--repeatable-dims", "product_name",
    ],
    "star": [
        "--synth", "3000", "--seed", "5",
        "--join", "customer_id:customer:customer_id", "--join", "product_id:product:product_id",
        "--join", "time_id:times:time_id", "--join", "channel_id:channel:channel_id",
        "--bins", "year=y1998:1998:1999,y1999:1999:2000,y2000on:2000:2010",
        "--filter", "year=y1998", "--filter", "year=y2000on",
        "--key-dim", "tid", "--combine-dims", "age_group,product_name",
        "--minsup", "0.01", "--minconf", "0.05", "--repeatable-dims", "product_name",
    ],
}

DIGESTS = {
    "quickstart": {
        "bench_report.json": "126979e94ce070122d0db705cc573abdac846b93a30db052d58e79522fe50204",
        "data/channel.csv": "d374f705a4627d5ee7c9c0adb262eb7d6b42b0050af710cc48bbf80e2bb431f3",
        "data/customer.csv": "41c3d62e8034f5a167c955831a3d019618f0baac3ba7ca44ff2b0f909dc6ce53",
        "data/fact.csv": "a4ed454ea3d3afe51205150c68d7ead9c9ce9ccc30249838753850a59bb60fad",
        "data/product.csv": "5e19505e95ff9cca042812c89d6f963d3386dbad846233334b0e33ecd7a46c2e",
        "data/times.csv": "3492433154659615024b747f2e7ab79482de65f299b89924ba4f1744209e1e5d",
        "itemsets.jsonl": "39f4338bb91e5d95a52809aef43d90d7596c839c9ee97533ed5fbf029e1cdc67",
        "itemsets.txt": "459c4ba4050f1dd84ed0f2ddf4c24327d2d1d236b7b056f9bd479cd6b4c72748",
        "registry.csv": "d43e7a85153941312fff439cda8306aa4e2f921b49352087b9d27ceb020a419b",
        "rules.jsonl": "6344ab2f1594b82b72edcfb527cd2867af6692e2182c2f738466e218ddf2fb89",
        "rules.txt": "e7623bc3f8f1bb1396c8c85bfda267b67592176e61881ee2832d6dd972f82526",
        "stats.json": "117e9baaba6dd21a43f824e3b4b86fef48f5f53cd79433c24647d31d3ca3960a",
    },
    "star": {
        "bench_report.json": "697161e98ca2a2308cce3b560b4d34905a6f7781d1cb4a73e1f72e301dc7c370",
        "data/channel.csv": "d374f705a4627d5ee7c9c0adb262eb7d6b42b0050af710cc48bbf80e2bb431f3",
        "data/customer.csv": "7e9642ee10ad0edd62fb79e4e15e978fafe4fb458fadf6d8042176472fd86ca6",
        "data/fact.csv": "439ef9c7fd66596d6f261ab7fe361c055527f36127bc9a3e3913b0aaa554215d",
        "data/product.csv": "5e19505e95ff9cca042812c89d6f963d3386dbad846233334b0e33ecd7a46c2e",
        "data/times.csv": "3492433154659615024b747f2e7ab79482de65f299b89924ba4f1744209e1e5d",
        "itemsets.jsonl": "187e1d58ba25d42e76ff99336660ecd89521a98cd3fc4e976a1e8d72c4315099",
        "itemsets.txt": "06fdfa5f1236543c9dc0325f7c873277ee9a48a7e8c19c16b9c05071d7d8f0d1",
        "registry.csv": "257a6eabd8b333905cd450e52ebdab56a7b586437060a598dbf85a407deb826d",
        "rules.jsonl": "57195ac5fe9f15e45488b5b7d64703fb8b2b36369b7998e70afca5304c0f5c6b",
        "rules.txt": "84667fa0baf901695cc3e962f0826ae6b9a7cc1c7054987e2dfdeaf951c41606",
        "stats.json": "9a0d1bad1dbf85b496296de34828b7b8575ae1a1665f5db35be04e324cdaa224",
    },
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_every_out_file_keeps_its_digest(tmp_path, capsys, name):
    out = tmp_path / "out"
    assert main([*RUNS[name], "--algorithm", "both", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    digests = {
        p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*"))
        if p.is_file()
    }
    assert digests == DIGESTS[name]
