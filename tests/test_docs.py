"""The README's library examples run, and the package exports what it lists."""

import re
from pathlib import Path

import starminer

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run(tmp_path, monkeypatch):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert blocks
    # blocks share one namespace, as a reader would type them in one session,
    # and run in a scratch directory so any file they write stays out of the tree
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)


def test_every_exported_name_resolves():
    assert len(set(starminer.__all__)) == len(starminer.__all__)
    missing = [name for name in starminer.__all__ if not hasattr(starminer, name)]
    assert missing == []
