"""The benchmark in perfbench/ still runs on this tree.

perfbench imports names from the package (``kernels.IMPL_NAME``, the
functions its tracer patches, ``_purekernel`` in the traced pass), so a
rename in src/ breaks the benchmark without breaking any other test.
One smoke run of the traced fresh-degree workload touches all of them.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_fresh_degree_smoke_run():
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fresh-degree",
         "--seconds", "0", "--trace", "1", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    report, result = (json.loads(line) for line in done.stdout.splitlines()[-2:])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert report["crashes"] == []
    assert report["traced_passes"] >= 1
    assert report["meta"]["kernel"] == "_purekernel"
