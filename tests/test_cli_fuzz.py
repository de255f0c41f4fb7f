"""Arbitrary CSV bytes through the command line: every outcome is an exit
code of 0, 1 or 2 with at most one line on stderr, never a traceback."""

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


@st.composite
def csv_bytes(draw):
    """Mostly well-formed rows over a few values, mixed with rows of the
    wrong width, stray delimiters, quotes, line separators and raw bytes."""
    rows = [draw(st.sampled_from(HEADERS))]
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


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(fact=csv_bytes(), flags=FLAGS, minsup=st.sampled_from(["0.2", "0.5", "1"]))
@example(fact=b"tid,A,B\nt1,a,5\nt1,b,50\nt2,a,5\n", flags=["--combine-dims", "A,B", "--bins", "B=lo:0:10,hi:10:100"], minsup="0.5")
def test_cli_on_arbitrary_csv_bytes_exits_with_a_one_line_message(fact, flags, minsup):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fact.csv"
        path.write_bytes(fact)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(
                ["--fact", str(path), "--key-dim", "tid", "--minsup", minsup, "--minconf", "0.5",
                 "--algorithm", "both", "--out", str(Path(tmp) / "out"), *flags]
            )
    message = err.getvalue()
    assert code in (0, 1, 2)
    if code == 0:
        assert message == ""
    else:
        assert message.startswith("starminer: ") and message.count("\n") == 1, message
