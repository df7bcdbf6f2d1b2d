"""What starting the CLI costs: the modules and tables an import builds.

A fresh interpreter that imports ``dyerlashof.cli`` loads none of the
stdlib modules the package gets nothing from at start (``dataclasses``
drags in ``inspect``, ``ast`` and ``dis``); ``json`` is loaded by a
``--format json`` call only, and each odd prime's binomial table by the
first binomial at that prime.  Modules are compared against those the
interpreter had before the import, because ``site`` may already load
some of them (``typing``, on some installs).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import dyerlashof

SRC = Path(dyerlashof.__file__).resolve().parents[1]

NOT_AT_START = ("dataclasses", "inspect", "json", "typing")

IMPORT_CLI = (
    "import sys\n"
    "before = set(sys.modules)\n"
    "from dyerlashof import arith, cli\n"
    "def added():\n"
    "    return ' '.join(sorted(set(sys.modules) - before))\n"
)


def run_python(code):
    # started as tests/test_optimize.py starts one: no bytecode written
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_CLI + code],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_cli_import_loads_no_unused_stdlib():
    (added,) = run_python("print(added())")
    added = added.split()
    assert "dyerlashof.cli" in added
    assert [name for name in NOT_AT_START if name in added] == []


def test_json_is_loaded_by_a_json_call_only():
    lines = run_python(
        "cli.main(['basis', '--p', '2', '--n', '2', '6'])\n"
        "print('json' in added().split())\n"
        "cli.main(['basis', '--p', '2', '--n', '2', '6', '--format', 'json'])\n"
        "print('json' in added().split())\n"
    )
    assert lines[:3] == ["Q[0,3]", "Q[2,2]", "False"]
    assert lines[4] == "True"
    doc = json.loads(lines[3])
    assert doc["p"] == 2
    assert doc["n"] == 2
    assert doc["command"] == "basis"
    assert doc["input"] == {"degree": 6}
    assert len(doc["result"]) == 2


def test_binomial_tables_are_built_on_first_use():
    lines = run_python(
        "print(sorted(arith._BLOCK_BINOMS))\n"
        "cli.main(['adem-classical', '--p', '2', '--n', '2', 'e[3,1]'])\n"
        "print(sorted(arith._BLOCK_BINOMS))\n"
        "cli.main(['adem-classical', '--p', '3', '--n', '2', 'e[3,1]'])\n"
        "print(sorted(arith._BLOCK_BINOMS))\n"
    )
    assert lines[0] == "[]"
    assert lines[2] == "[]"
    assert lines[4] == "[3]"
