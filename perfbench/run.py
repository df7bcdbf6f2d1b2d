"""Benchmark of the dyerlashof package: four workloads, end to end and per layer.

    python3 perfbench/run.py --workload fresh-degree --seed 0 --seconds 25 --trace 0

Run from the root of a checkout; the package is imported from ./src.
Each pass of a workload runs in a fresh interpreter (``worker.py``), so
every pass starts with empty caches; passes repeat until the next one
would end after ``--seconds``.  With ``--trace 0`` the result carries the
end-to-end metrics; with ``--trace 1`` untraced and traced passes
alternate and the result carries the per-layer metrics.
End-to-end times are scaled to a reference machine speed (``calibrate.py``).

The last line of stdout is the result object; the line before it is a
report with the digest, checks, run metadata and sample counts.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from calibrate import REF_SLICE_S  # noqa: E402

DIGESTS_PATH = HERE / "digests.json"
SETUP_REPEATS = 21
WORKER_TIMEOUT_S = 150
# verify's pool gets one thread: two pure-Python threads on two shared vCPUs
# contend for the GIL, and build the same per-degree caches at once in
# some passes and not in others, so sweep times fell into modes up to 40% apart
WORKER_THREADS = "1"
# every this many poly_mul calls, the traced fresh-degree pass keeps the inputs
KERNEL_SAMPLE_EVERY = 40

# the import is timed in the fresh interpreter, between two calibration slices
SETUP_CODE = """
import sys, time
sys.path.insert(0, sys.argv[2])
from calibrate import Clock
clock = Clock()
before = clock.sample()
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import dyerlashof, dyerlashof.cli
raw = time.perf_counter() - t0
after = clock.sample()
print(raw, Clock.scale(raw, before, after))
"""


def measure_setup() -> tuple[float, float]:
    """Median time a fresh interpreter takes to import the package and its CLI.

    Returns the median scaled to the reference speed (``calibrate.py``)
    and the raw median.
    """
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), str(HERE)],
            capture_output=True, text=True, timeout=60, check=True,
        )
        r, s = (float(x) for x in done.stdout.split())
        raw.append(r)
        scaled.append(s)
    return statistics.median(scaled), statistics.median(raw)


def run_pass(spec: dict, trace: bool, check: bool, spans_path=None) -> dict:
    payload = dict(spec, src=str(SRC), trace=trace, check=check)
    if trace and spec["workload"] == "fresh-degree":
        payload["kernel_sample_every"] = KERNEL_SAMPLE_EVERY
    if spans_path is not None:
        payload["spans_path"] = str(spans_path)
    done = subprocess.run(
        [sys.executable, str(HERE / "worker.py")],
        input=json.dumps(payload), capture_output=True, text=True,
        timeout=WORKER_TIMEOUT_S, env={**os.environ, "DL_THREADS": WORKER_THREADS},
    )
    if done.returncode != 0:
        return {"crashed": done.stderr[-2000:], "failed": list(range(len(spec["ops"])))}
    return json.loads(done.stdout.strip().splitlines()[-1])


def tail(samples: list[float]) -> tuple[float, float]:
    """Value and percentile of the highest percentile with ten samples beyond it.

    With fewer than 21 samples that percentile would not lie above the
    median, and the maximum is reported instead, as percentile 100.
    """
    ordered = sorted(samples)
    if len(ordered) < 21:
        return ordered[-1], 100.0
    k = len(ordered) - 11
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def declared_units() -> dict[str, str]:
    """Metric units, as BENCHMARK.json declares them."""
    with open(ROOT / "BENCHMARK.json") as f:
        bench = json.load(f)
    return {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}


def frozen_digest(workload: str, seed: int):
    if not DIGESTS_PATH.exists():
        return None
    with open(DIGESTS_PATH) as f:
        entry = json.load(f).get(workload)
    if entry is None:
        return None
    if entry["seed"] is None or entry["seed"] == seed:
        return entry["digest"]
    return None


def _terminate(signum, frame):
    # SystemExit unwinds through subprocess.run, which kills the worker
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, for the tests")
    args = ap.parse_args(argv)

    if not (SRC / "dyerlashof" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}", file=sys.stderr)
        return 2

    spec = workloads.build(args.workload, args.seed, args.smoke)
    setup_s, setup_raw_s = measure_setup()

    passes, traced = [], []
    start = perf_counter()
    while True:
        index = len(passes) + len(traced)
        use_trace = bool(args.trace) and index % 2 == 1
        spans_path = None
        if use_trace:
            # each traced pass overwrites the file: the run keeps its last one
            OUT.mkdir(exist_ok=True)
            spans_path = OUT / f"{args.workload}-seed{args.seed}.spans"
        res = run_pass(spec, use_trace, check=index == 0, spans_path=spans_path)
        (traced if use_trace else passes).append(res)
        elapsed = perf_counter() - start
        mean_pass = elapsed / (len(passes) + len(traced))
        if elapsed + mean_pass > args.seconds and (not args.trace or traced):
            break

    everything = passes + traced
    attempted = len(spec["ops"]) * len(everything)
    failed = sum(len(r["failed"]) for r in everything)
    digests = {r.get("digest") for r in everything}
    frozen = None if args.smoke else frozen_digest(args.workload, args.seed)
    digest = digests.pop() if len(digests) == 1 else None
    if digest is None or (frozen is not None and digest != frozen):
        failed = attempted

    ok = [r for r in passes if "crashed" not in r]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "passes": len(passes),
        "traced_passes": len(traced),
        "ops_per_pass": len(spec["ops"]),
        "digest": digest,
        "digest_frozen": frozen,
        "failed_frac": failed / attempted,
        "checks": everything[0].get("checks"),
        "crashes": [r["crashed"] for r in everything if "crashed" in r],
        "errors": everything[0].get("errors"),
        "meta": ok[0]["meta"] if ok else None,
        "band": spec["band"],
        "setup_raw_s": setup_raw_s,
    }

    if args.trace:
        metrics = traced_metrics(passes, traced, report)
    else:
        metrics = end_to_end(args.workload, passes, setup_s, report)
    units = declared_units()
    print(json.dumps(report, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


def end_to_end(workload: str, passes: list[dict], setup_s: float, report: dict) -> dict:
    """Each op's latency is the median of its repeats, one per pass.

    Latencies are scaled to the reference speed (``calibrate.py``); the
    report carries the unscaled median op latency and the median speed.
    """
    ok = [r for r in passes if "crashed" not in r]
    if not ok:
        return {}
    per_op = [statistics.median(lat) for lat in zip(*(r["scaled"] for r in ok))]
    raw_per_op = [statistics.median(lat) for lat in zip(*(r["latencies"] for r in ok))]
    busy = sum(per_op)
    if workload == "oracle-sweep":
        # the latency op is the whole sweep: its four suites differ 20x
        # in size, so a median over them would measure the suite mix
        per_op, raw_per_op = [busy], [sum(raw_per_op)]
    tail_value, tail_pct = tail(per_op)
    slices = [s for r in ok for s in r["slices"]]
    report.update(latency_ops=len(per_op), latency_repeats=len(ok),
                  tail_percentile=tail_pct, work_per_pass=ok[0]["work"],
                  raw_op_p50_ms=1e3 * statistics.median(raw_per_op),
                  calibration_slices=len(slices),
                  speed=REF_SLICE_S / statistics.median(slices))
    return {
        "setup_s": setup_s,
        "ops_per_s": ok[0]["work"] / busy,
        "op_p50_ms": 1e3 * statistics.median(per_op),
        "op_tail_ms": 1e3 * tail_value,
        "peak_rss_mb": max(r["rss_kb"] for r in ok) / 1024,
    }


def traced_metrics(passes: list[dict], traced: list[dict], report: dict) -> dict:
    ok_plain = [r for r in passes if "crashed" not in r]
    ok_traced = [r for r in traced if "crashed" not in r]
    if not ok_plain or not ok_traced:
        return {}
    names = ok_traced[0]["layers"].keys()
    metrics = {
        name: sum(r["layers"][name] for r in ok_traced) / len(ok_traced) for name in names
    }
    metrics["trace.overhead_frac"] = (
        statistics.median(r["elapsed"] for r in ok_traced)
        / statistics.median(r["elapsed"] for r in ok_plain) - 1
    )
    report["layer_shares"] = ok_traced[0]["shares"]
    report["spans_per_pass"] = ok_traced[0]["spans"]
    if "kernel_compare" in ok_traced[0]:
        report["kernel_compare"] = ok_traced[0]["kernel_compare"]
    return metrics


if __name__ == "__main__":
    sys.exit(main())
