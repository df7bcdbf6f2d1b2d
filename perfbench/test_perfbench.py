"""Tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest perfbench
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import calibrate  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# every metric name the benchmark's design names, end to end and per layer
NAMED = {
    "setup_s", "ops_per_s", "op_p50_ms", "op_tail_ms", "peak_rss_mb",
    "cli.main_calls", "cli.main_self_s",
    "textio.parse_calls", "textio.parse_s", "textio.render_calls", "textio.render_s",
    "textio.output_bytes",
    "verify.run_suite_self_s",
    "opalgebra.straighten_calls", "opalgebra.straighten_self_s",
    "opalgebra.pair_rewrite_calls", "opalgebra.pair_rewrite_s", "opalgebra.output_terms",
    "opalgebra.coproduct_calls", "opalgebra.coproduct_s",
    "correspondence.adem_calls", "correspondence.adem_self_s",
    "correspondence.kronecker_pair_calls", "correspondence.kronecker_pair_self_s",
    "correspondence.basis_s", "correspondence.basis_size_max",
    "correspondence.diophantine_s", "correspondence.dual_calls", "correspondence.dual_s",
    "invariants.expand_calls", "invariants.expand_misses", "invariants.expand_self_s",
    "invariants.expand_terms", "invariants.coeff_calls",
    "kernels.poly_mul_calls", "kernels.poly_mul_s", "kernels.poly_mul_term_pairs",
    "kernels.poly_mul_out_terms",
    "trace.overhead_frac",
}


def smoke(workload: str, trace: int, seed: int = 3) -> tuple[dict, dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = run.main(["--workload", workload, "--seed", str(seed), "--seconds", "1",
                       "--trace", str(trace), "--smoke"])
    assert rc == 0
    report, result = (json.loads(line) for line in out.getvalue().splitlines()[-2:])
    return report, result


def test_wrappers_are_removed_after_a_traced_pass():
    targets = [(importlib.import_module(f"dyerlashof.{m}"), a) for m, a, _ in tracing.TARGETS]
    before = [getattr(mod, attr) for mod, attr in targets]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert all(getattr(mod, attr) is not fn for (mod, attr), fn in zip(targets, before))
        from dyerlashof import cli

        with contextlib.redirect_stdout(io.StringIO()), tracer.op(0):
            cli.main(["adem", "--p", "3", "--n", "2", "e[3,1]"])
    finally:
        tracer.uninstall()
    assert all(getattr(mod, attr) is fn for (mod, attr), fn in zip(targets, before))
    assert tracer.counters["cli.main.calls"] == 1
    assert tracer.counters["correspondence.adem.calls"] == 1


def test_self_time_subtracts_children_in_other_threads():
    assert tracing._union_length([(0, 10), (5, 20), (30, 40)], 0, 35) == 25


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_and_untraced_digests_are_equal(workload):
    spec = workloads.build(workload, 5, smoke=True)
    plain = run.run_pass(spec, trace=False, check=True)
    traced = run.run_pass(spec, trace=True, check=False)
    assert plain["failed"] == [] and traced["failed"] == []
    assert plain["digest"] == traced["digest"]


def test_same_seed_same_inputs():
    for workload in workloads.WORKLOADS:
        assert workloads.build(workload, 7) == workloads.build(workload, 7)
    assert workloads.build("fresh-degree", 1) != workloads.build("fresh-degree", 2)


def test_every_named_metric_is_emitted():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared_e2e = {m["name"] for m in bench["end_to_end"]}
    declared_layer = {m["name"] for m in bench["per_layer"]}
    assert NAMED == declared_e2e | declared_layer
    for workload in workloads.WORKLOADS:
        report, plain = smoke(workload, 0)
        _, traced = smoke(workload, 1)
        assert plain["correct"] and traced["correct"]
        assert report["failed_frac"] == 0
        assert set(plain["metrics"]) == declared_e2e
        assert set(traced["metrics"]) == declared_layer
    for name in NAMED:
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", name)


def test_smoke_size_finishes_in_seconds():
    t0 = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "cli-session", "--seed", "1",
         "--seconds", "1", "--trace", "0", "--smoke"],
        capture_output=True, text=True, timeout=60, cwd=ROOT,
    )
    assert done.returncode == 0
    assert json.loads(done.stdout.splitlines()[-1])["correct"]
    assert time.perf_counter() - t0 < 20


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fresh-degree", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_tail_has_ten_samples_beyond_it():
    samples = list(range(100))
    value, pct = run.tail(samples)
    assert sum(s > value for s in samples) == 10
    assert pct == 90.0
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_timeline_scales_each_stretch_by_the_slices_around_it():
    timeline = calibrate.Timeline.__new__(calibrate.Timeline)
    ref = calibrate.REF_SLICE_S
    # (start, end, slice time): one slice before the op, one inside, one after
    timeline.slices = [(0.0, 1.0, ref), (5.0, 6.0, 2 * ref), (9.0, 10.0, ref)]
    raw, scaled = timeline.scaled(2.0, 8.0, 1, 2)
    assert raw == 5.0
    assert scaled == pytest.approx(3.0 / 1.5 + 2.0 / 1.5)
