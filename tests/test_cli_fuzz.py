"""Arbitrary fact and dimension CSV bytes, and arbitrary config documents,
through the command line: every outcome is an exit code of 0, 1 or 2 with at
most one line on stderr, never a traceback."""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from starminer.cli import main

CELLS = ["t1", "t2", "t3", "a", "b", "5", "50", "2.5", "", " ", "-1", "150", "nan", "inf", "1e400", "é", "\x00"]
JUNK = ['"', ",", "\r", "\x0c", "\x85", "\u2028", "\ufeff", "x"]
HEADERS = [b"tid,A,B"] * 4 + [b"tid,A", b"tid,A,A", b"\xef\xbb\xbftid,A,B", b"tid,,B", b""]
# a dimension keyed by A; its own A column collides with the fact's
DIM_HEADERS = [b"A,C,D"] * 4 + [b"A,C", b"A,C,C", b"\xef\xbb\xbfA,C,D", b"A,,D", b"C,D,E", b""]


@st.composite
def csv_bytes(draw, headers=HEADERS):
    """Mostly well-formed rows over a few values, mixed with rows of the
    wrong width, stray delimiters, quotes, line separators and raw bytes.
    Drawn as a dimension, the few values give duplicate keys and leave
    some fact keys without a match."""
    rows = [draw(st.sampled_from(headers))]
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.integers(0, 19))
        if kind < 16:
            cells = draw(st.lists(st.sampled_from(CELLS[:8]), min_size=3, max_size=3))
        elif kind < 19:
            cells = draw(st.lists(st.sampled_from(CELLS + JUNK), max_size=4))
        else:
            rows.append(draw(st.binary(max_size=10)))
            continue
        rows.append(",".join(cells).encode())
    sep = draw(st.sampled_from([b"\n", b"\r\n"]))
    return sep.join(rows) + draw(st.sampled_from([sep, b""]))


FLAGS = st.sampled_from(
    [
        ["--combine-dims", "A"],
        ["--combine-dims", "A,B", "--repeatable-dims", "A,B"],
        ["--combine-dims", "A,B", "--bins", "B=lo:0:10,hi:10:100"],
    ]
)


def run_cli(tmp, files, args):
    """Write ``files`` (name to bytes) under ``tmp`` and run the CLI on them;
    return the exit code and everything written to stderr."""
    for name, data in files.items():
        (Path(tmp) / name).write_bytes(data)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(
            ["--fact", str(Path(tmp) / "fact.csv"), "--key-dim", "tid", "--minconf", "0.5",
             "--algorithm", "both", "--out", str(Path(tmp) / "out"), *args]
        )
    return code, err.getvalue()


def assert_one_line_outcome(code, message):
    assert code in (0, 1, 2)
    if code == 0:
        assert message == ""
    else:
        assert message.startswith("starminer: ") and message.count("\n") == 1, message


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(fact=csv_bytes(), flags=FLAGS, minsup=st.sampled_from(["0.2", "0.5", "1"]))
@example(fact=b"tid,A,B\nt1,a,5\nt1,b,50\nt2,a,5\n", flags=["--combine-dims", "A,B", "--bins", "B=lo:0:10,hi:10:100"], minsup="0.5")
def test_cli_on_arbitrary_csv_bytes_exits_with_a_one_line_message(fact, flags, minsup):
    with tempfile.TemporaryDirectory() as tmp:
        code, message = run_cli(tmp, {"fact.csv": fact}, ["--minsup", minsup, *flags])
    assert_one_line_outcome(code, message)


DIM_FLAGS = st.sampled_from(
    [
        ["--combine-dims", "C"],
        ["--combine-dims", "B,C,D", "--repeatable-dims", "C,D"],
        ["--combine-dims", "C,D", "--bins", "D=lo:0:10,hi:10:100"],
        ["--combine-dims", "C", "--filter", "C=a", "--filter", "C=5"],
    ]
)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    fact=csv_bytes(),
    dim=csv_bytes(DIM_HEADERS),
    flags=DIM_FLAGS,
    minsup=st.sampled_from(["0.2", "0.5", "1"]),
)
@example(
    fact=b"tid,A,B\nt1,a,5\nt1,b,50\nt2,a,5\n",
    dim=b"A,C,D\na,5,2.5\nb,t1,50\n",
    flags=["--combine-dims", "C,D", "--bins", "D=lo:0:10,hi:10:100"],
    minsup="0.5",
)
@example(  # a duplicate dimension key multiplies fact rows
    fact=b"tid,A,B\nt1,a,5\nt2,a,5\n",
    dim=b"A,C,D\na,5,2.5\na,t1,50\n",
    flags=["--combine-dims", "B,C,D", "--repeatable-dims", "C,D"],
    minsup="0.5",
)
@example(  # a BOM before the key's name, and an orphan fact key
    fact=b"tid,A,B\nt1,a,5\nt2,b,5\n",
    dim=b"\xef\xbb\xbfA,C,D\na,5,2.5\n",
    flags=["--combine-dims", "C"],
    minsup="0.5",
)
def test_cli_on_arbitrary_dimension_bytes_exits_with_a_one_line_message(fact, dim, flags, minsup):
    with tempfile.TemporaryDirectory() as tmp:
        code, message = run_cli(
            tmp,
            {"fact.csv": fact, "dim.csv": dim},
            ["--dim", f"d={Path(tmp) / 'dim.csv'}", "--join", "A:d:A", "--minsup", minsup, *flags],
        )
    assert_one_line_outcome(code, message)


# --- config documents -------------------------------------------------------

CONFIG_FACT = b"tid,A,B\nt1,a,5\nt1,b,50\nt2,a,5\n"
CONFIG_DIM = b"A,C\na,x\nb,y\n"
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 40) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=6,
)
# Values each field plausibly takes, right or wrong; {fact} and {dim} name the
# files written for the run. out_dir is always the run's own directory or a
# non-string, so that no example creates a directory elsewhere.
PLAUSIBLE = {
    "fact": ["{fact}", "{fact}", "missing.csv", None],
    "dims": [[["d", "{dim}"]], [], [["d"]], "d={dim}"],
    "joins": [[["A", "d", "A"]], [], [["A", "d"]], [["A", "d", "A", "x"]], 5],
    "projected": [None, [["fact", "tid"], ["fact", "A"]], [["d", "C"]], ["fact"]],
    "key_dim": ["tid", "tid", None, "A", "zz"],
    "selected_dims": [["A"], ["A", "B"], ["C"], [], "product_name", "A"],
    "filters": [[], [["A", "a"]], [["A", "a", "b"]], [["A"]]],
    "bins": [[], [["B", [["lo", 0, 10], ["hi", 10, 100]]]], [["B", [["lo", 0]]]], [["B", "lo:0:10"]]],
    "minsup": ["0.5", 0.5, "1", "0", "x", 1, None, "1e-99999999999"],
    "minconf": ["0.5", 0.5, "1", "2", None, "5E+99999999999"],
    "algorithm": ["rshar", "both", "apriori", "x"],
    "repeatable_dims": [[], ["A"], 7, "A"],
    "synth_rows": [None, 0, 20, "100", 2.5, -5],
    "seed": [None, 1, "x", 1.5],
    "workers": [1, 2, 0, "2"],
}


@st.composite
def config_documents(draw):
    doc = {"out_dir": draw(st.sampled_from(["{out}"] * 6 + [5, None, ["x"]]))}
    for name in draw(st.lists(st.sampled_from(sorted(PLAUSIBLE)), unique=True, max_size=10)):
        doc[name] = draw(st.one_of(st.sampled_from(PLAUSIBLE[name]), JSON_VALUES))
    for name, value in (("fact", "{fact}"), ("key_dim", "tid"), ("selected_dims", ["A"]),
                        ("minsup", "0.5"), ("minconf", "0.5")):
        if draw(st.integers(0, 5)):
            doc.setdefault(name, value)
    return doc


def fill_paths(value, paths):
    if isinstance(value, str):
        return value.format(**paths) if value in ("{fact}", "{dim}", "{out}") else value
    if isinstance(value, list):
        return [fill_paths(v, paths) for v in value]
    if isinstance(value, dict):
        return {k: fill_paths(v, paths) for k, v in value.items()}
    return value


def run_config(tmp, doc):
    """Write ``doc`` as a config file beside a small fact and dimension CSV
    and run the CLI on it alone; return the exit code and stderr."""
    tmp = Path(tmp)
    (tmp / "fact.csv").write_bytes(CONFIG_FACT)
    (tmp / "dim.csv").write_bytes(CONFIG_DIM)
    paths = {"fact": str(tmp / "fact.csv"), "dim": str(tmp / "dim.csv"), "out": str(tmp / "out")}
    (tmp / "run.json").write_text(json.dumps(fill_paths(doc, paths)), encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(["--config", str(tmp / "run.json")])
    return code, err.getvalue()


MINING = {"out_dir": "{out}", "fact": "{fact}", "key_dim": "tid", "selected_dims": ["A"],
          "minsup": "0.5", "minconf": "0.5"}


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(doc=config_documents())
@example(doc={"out_dir": "{out}", "synth_rows": "100", "seed": 1})
@example(doc={"out_dir": 5, "synth_rows": 10, "seed": 1})
@example(doc={**MINING, "selected_dims": "product_name"})
@example(doc={"out_dir": "{out}", "synth_rows": 10, "seed": "x"})
@example(doc={**MINING, "joins": 5})
@example(doc={**MINING, "repeatable_dims": 7})
@example(doc={**MINING, "filters": [["A", "a", "b"]]})
@example(doc={"out_dir": "{out}", "synth_rows": -5, "seed": 1})
@example(doc={**MINING, "minsup": "1e-99999999999"})
@example(doc={**MINING, "minconf": "1E+99999999999"})
@example(doc={**MINING, "fact": "\x00"})
@example(doc={**MINING, "dims": [["d", "x\x00"]], "joins": [["A", "d", "A"]]})
def test_cli_on_arbitrary_config_documents_exits_with_a_one_line_message(doc):
    with tempfile.TemporaryDirectory() as tmp:
        code, message = run_config(tmp, doc)
    assert_one_line_outcome(code, message)


@pytest.mark.parametrize(
    "field, value",
    [("synth_rows", "100"), ("selected_dims", "product_name"), ("joins", 5),
     ("seed", "x"), ("out_dir", 5), ("repeatable_dims", 7), ("filters", [["A", "a", "b"]]),
     ("minsup", math.nan), ("seed", True), ("minsup", True), ("synth_rows", 1.0), ("fact", 5),
     ("dims", [["a", "b", "c"]]), ("bins", [["y", [["l", 0]]]])],
)
def test_config_field_of_the_wrong_shape_is_a_usage_error_naming_it(field, value):
    doc = {**MINING, "synth_rows": None, field: value}
    with tempfile.TemporaryDirectory() as tmp:
        code, message = run_config(tmp, doc)
    assert code == 1
    assert message.startswith(f"starminer: usage error: config field {field!r} must be ")
