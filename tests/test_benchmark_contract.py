"""The benchmark in perfbench/ still runs on this tree.

perfbench imports names from the package (``kernels.IMPL_NAME``, the
functions its tracer patches, ``_purekernel`` in the traced pass), so a
rename in src/ breaks the benchmark without breaking any other test.
One smoke run of the traced fresh-degree workload touches all of them;
one of classical-long checks that the classical engine still reaches
``pair_rewrite`` through the module attribute the tracer patches, and
one of cli-session that the CLI still reaches the renderers, the
Dickson expansion and the kernel through theirs.  The untraced pass of
oracle-sweep hooks ``verify.adem_via_invariants``, which no other test
reaches.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def traced_smoke_run(workload):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seconds", "0", "--trace", "1", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    report, result = (json.loads(line) for line in done.stdout.splitlines()[-2:])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert report["crashes"] == []
    return report, result


def test_traced_fresh_degree_smoke_run():
    report, _ = traced_smoke_run("fresh-degree")
    assert report["traced_passes"] >= 1
    assert report["meta"]["kernel"] == "_purekernel"


def test_traced_classical_long_smoke_run():
    _, result = traced_smoke_run("classical-long")
    metrics = result["metrics"]
    assert metrics["opalgebra.straighten_calls"]["value"] > 0
    assert metrics["opalgebra.pair_rewrite_calls"]["value"] > 0


def test_traced_cli_session_smoke_run():
    _, result = traced_smoke_run("cli-session")
    metrics = result["metrics"]
    for name in ("textio.render_calls", "invariants.expand_calls", "kernels.poly_mul_calls"):
        assert metrics[name]["value"] > 0, name


def test_traced_oracle_sweep_smoke_run():
    report, result = traced_smoke_run("oracle-sweep")
    # an untraced pass installs the hook on verify.adem_via_invariants
    assert report["passes"] >= 1 and report["traced_passes"] >= 1
    assert result["metrics"]["correspondence.adem_calls"]["value"] > 0
