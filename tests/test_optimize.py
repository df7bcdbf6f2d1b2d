"""The package under `python -O`, which strips every assert statement.

A check that an answer rests on must therefore not be an assert: src/
holds none, the invariant checks still raise under -O, and a `verify`
suite prints the same bytes with and without it.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import dyerlashof

SRC = Path(dyerlashof.__file__).resolve().parents[1]


def run_python(*args, optimize):
    # no bytecode is written, so no .opt-1.pyc lands next to the sources
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1"}
    flags = ["-O"] if optimize else []
    return subprocess.run(
        [sys.executable, *flags, *args],
        env=env, capture_output=True, text=True, timeout=120,
    )


def test_no_assert_statements_in_src():
    found = []
    for path in sorted((SRC / "dyerlashof").rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert len(found) == 0, found


def test_invariant_error_raised_under_optimize():
    code = (
        "import sys\n"
        "from dyerlashof import correspondence\n"
        "from dyerlashof.arith import Context, InvariantError\n"
        "from dyerlashof.sequences import OpSeq\n"
        "assert False, 'asserts are on'\n"
        "correspondence._chi_min_coeffs = lambda ms, ctx: [2] * len(ms)\n"
        "try:\n"
        "    correspondence.adem_via_invariants(OpSeq.from_values(Context(3, 2), (4, 1)))\n"
        "except InvariantError:\n"
        "    sys.exit(0)\n"
        "sys.exit(3)\n"
    )
    proc = run_python("-c", code, optimize=True)
    assert proc.returncode == 0, proc.stderr


def test_verify_output_same_under_optimize():
    argv = ["-m", "dyerlashof.cli", "verify", "reference-vectors", "--p", "5"]
    plain = run_python(*argv, optimize=False)
    assert (plain.returncode, plain.stdout, plain.stderr) == (
        0,
        "reference-vectors: 20 cases, ok\n",
        "",
    )
    optimized = run_python(*argv, optimize=True)
    assert (optimized.returncode, optimized.stdout, optimized.stderr) == (
        plain.returncode,
        plain.stdout,
        plain.stderr,
    )
