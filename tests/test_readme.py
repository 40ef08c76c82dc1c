"""Every `taukit ...` command in README's sh blocks runs as shown.

Each command runs through ``cli.main`` in-process, in a directory holding
the ``spec.json`` that the `@spec.json` examples read: the hirota
example's inline rspec.  A command followed by a `# ...` comment line must
print that line.  `taukit suite` is left to ``tests/test_acceptance.py``.
"""

import re
import shlex
from pathlib import Path

import pytest

from taukit.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def readme_commands():
    """(argv after `taukit`, the comment line after it or None) for each command line of the sh blocks."""
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", README, re.S):
        lines = block.splitlines()
        for line, following in zip(lines, lines[1:] + [""]):
            if line.startswith("taukit ") and not line.startswith("taukit suite"):
                shown = following[2:] if following.startswith("# ") else None
                commands.append((shlex.split(line)[1:], shown))
    return commands


COMMANDS = readme_commands()
# a command's first two words, or its whole line where an earlier command starts with the same two
IDS = [
    " ".join(argv if any(a[:2] == argv[:2] for a, _ in COMMANDS[:k]) else argv[:2])
    for k, (argv, _) in enumerate(COMMANDS)
]


def test_readme_shows_every_command_kind():
    assert len(COMMANDS) == 13
    assert {argv[0] for argv, _ in COMMANDS} == {"expand", "eval", "verify"}


@pytest.mark.parametrize("argv, shown", COMMANDS, ids=IDS)
def test_readme_command_runs(argv, shown, tmp_path, monkeypatch, capsys):
    hirota = next(a for a, _ in COMMANDS if a[:2] == ["verify", "hirota"])
    (tmp_path / "spec.json").write_text(hirota[hirota.index("--rspec") + 1], encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    out = capsys.readouterr().out
    if shown is not None:
        assert out == shown + "\n"
