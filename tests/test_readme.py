"""The README's examples, run as written: every `$ dyerlashof ...` line of
its CLI block through cli.main, the JSON envelope shown below that block,
and the Library snippet with the output given in its comments."""

import json
import re
import shlex
from pathlib import Path

from dyerlashof.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def fenced_blocks(heading: str, lang: str = "") -> list[str]:
    """The bodies of the fenced blocks in one `## heading` section."""
    section = README.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(rf"^```{lang}\n(.*?)^```$", section, re.M | re.S)


def test_cli_block(capsys):
    block = fenced_blocks("CLI")[0]
    # each command with the lines it prints, up to the next command
    runs = re.findall(r"^\$ dyerlashof (.*)\n((?:(?!\$ ).*\n)*)", block, re.M)
    assert len(runs) == 13
    for argv, shown in runs:
        assert main(shlex.split(argv)) == 0, argv
        assert capsys.readouterr().out == shown, argv


def test_json_envelope(capsys):
    # the envelope shown is the block's first command with --format json
    assert main(["adem", "--p", "3", "--n", "2", "--format", "json", "e[3,1]"]) == 0
    assert json.loads(capsys.readouterr().out) == json.loads(fenced_blocks("CLI")[1])


def test_library_snippet(capsys):
    code = fenced_blocks("Library", "python")[0]
    promised = [
        line.split("# ", 1)[1] for line in code.splitlines() if line.startswith("print(")
    ]
    assert len(promised) == 2
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines() == promised
