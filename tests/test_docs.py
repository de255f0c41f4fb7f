"""The README's library examples run, its command lines parse, and the
package exports what it lists."""

import re
import shlex
from pathlib import Path

import starminer
from starminer.cli import build_parser, config_from_args

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


def test_readme_command_lines_parse():
    commands = []
    for block in re.findall(r"^```sh\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line, comments=True)
            if argv[:1] == ["starminer"]:
                commands.append(argv[1:])
    assert len(commands) >= 3
    parser = build_parser()
    for argv in commands:
        args = parser.parse_args(argv)
        # a --config command needs its file; the others must be whole runs
        if args.config is None:
            config_from_args(args).validate()
