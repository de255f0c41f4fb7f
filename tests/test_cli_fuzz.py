"""Arbitrary fact and dimension CSV bytes through the command line: every
outcome is an exit code of 0, 1 or 2 with at most one line on stderr, never a
traceback."""

import contextlib
import io
import tempfile
from pathlib import Path

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
