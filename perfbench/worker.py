"""Run one pass of a workload in a fresh interpreter.

Reads a pass spec (JSON) on stdin, imports the package from the spec's
``src`` directory, runs every op once in order while timing it, then,
outside the timed region, renders the outputs, hashes them and checks
them.  Writes one JSON result on stdout.  ``run.py`` starts one worker
per pass, so every pass begins with the package's caches empty.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import resource
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from calibrate import Timeline  # noqa: E402

CALIBRATE_EVERY_S = 0.1


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def digest(outputs: list[str]) -> str:
    return hashlib.sha256("\n".join(outputs).encode()).hexdigest()


class Pass:
    def __init__(self, spec: dict):
        self.spec = spec
        self.workload = spec["workload"]
        src = str(Path(spec["src"]).resolve())
        sys.path.insert(0, src)
        import dyerlashof

        if not Path(dyerlashof.__file__).resolve().is_relative_to(src):
            raise SystemExit(f"dyerlashof imported from {dyerlashof.__file__}, not {src}")
        from dyerlashof import (
            cli, correspondence, invariants, kernels, opalgebra, sequences, textio, verify,
        )
        from dyerlashof.arith import Context

        self.Context = Context
        self.cli, self.correspondence, self.invariants = cli, correspondence, invariants
        self.kernels, self.opalgebra, self.sequences = kernels, opalgebra, sequences
        self.textio, self.verify = textio, verify

    # -- ops ----------------------------------------------------------------

    def prepare(self, op):
        if self.workload in ("fresh-degree", "classical-long"):
            ctx = self.Context(op["p"], op["n"])
            return self.sequences.OpSeq(ctx, tuple(op["twice"]), tuple(op["eps"]))
        return op

    def before_op(self):
        """Untimed reset before each op.

        A classical-long op starts from an empty Adem rewrite table, as a
        CLI call does, so its cost does not depend on which inputs the seed
        put before it; the pool's strata are cut by this same cold cost.
        """
        if self.workload == "classical-long":
            self.opalgebra.clear_rewrite_table()

    def run_op(self, args):
        # every call goes through the module attribute, where tracing wraps it
        w = self.workload
        if w == "oracle-sweep":
            return self.verify.run_suite(
                "oracle-equivalence", args["p"], args["n"], args["max_entry"]
            )
        if w == "fresh-degree":
            return self.correspondence.adem_via_invariants(args)
        if w == "classical-long":
            return self.opalgebra.adem_straighten_classical(args)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = self.cli.main(list(args["argv"]))
            except SystemExit as exc:
                rc = exc.code
        return rc, out.getvalue(), err.getvalue()

    def output(self, op, args, res) -> dict:
        w = self.workload
        if w == "oracle-sweep":
            cases, failures = res
            return {**op, "cases": cases, "failures": failures}
        if w in ("fresh-degree", "classical-long"):
            return {"input": self.textio.seq_to_json(args),
                    "result": self.textio.op_poly_to_json(res)}
        rc, out, err = res
        return {"argv": op["argv"], "rc": rc, "out": out, "err": err}

    def install_hook(self, timeline):
        """Let the timeline take slices inside this workload's long ops.

        Returns what ``setattr`` needs to put the original back, or None.
        """
        if self.workload != "oracle-sweep":
            return None
        # verify looks up its imported adem_via_invariants at call time, once
        # per case, in its pool thread; with one pool thread (DL_THREADS=1,
        # set by run.py) no other thread runs Python while a slice is timed
        original = self.verify.adem_via_invariants

        def hooked(*args, **kwargs):
            timeline.poll()
            return original(*args, **kwargs)

        self.verify.adem_via_invariants = hooked
        return self.verify, "adem_via_invariants", original

    # -- checks, each returning the indices of ops that fail --------------

    def check(self, ops, prepared, results) -> tuple[set[int], dict]:
        return getattr(self, "check_" + self.workload.replace("-", "_"))(
            ops, prepared, results
        )

    def check_oracle_sweep(self, ops, prepared, results):
        bad = {
            i for i, (op, res) in enumerate(zip(ops, results))
            if res[1] or res[0] != (op["max_entry"] + 1) ** op["n"]
        }
        return bad, {"cases_checked": sum(res[0] for res in results)}

    def check_fresh_degree(self, ops, prepared, results):
        classical = self.opalgebra.adem_straighten_classical
        bad = {i for i, (s, res) in enumerate(zip(prepared, results)) if classical(s) != res}
        return bad, {"compared_with_classical": len(ops)}

    def check_classical_long(self, ops, prepared, results):
        seqs = self.sequences
        bad, bridged = set(), 0
        for i, (op, s, res) in enumerate(zip(ops, prepared, results)):
            degree = seqs.degree_lower(s)
            for twice, eps in res.terms:
                t = seqs.OpSeq(s.ctx, twice, eps)
                if not seqs.is_admissible(t) or seqs.degree_lower(t) != degree:
                    bad.add(i)
            if op["bridge"]:
                bridged += 1
                if self.correspondence.adem_via_invariants(s) != res:
                    bad.add(i)
        return bad, {"admissible_and_in_degree": len(ops),
                     "compared_with_invariants": bridged}

    def check_cli_session(self, ops, prepared, results):
        textio, ctx_of = self.textio, self.Context
        bad = {i for i, res in enumerate(results) if res[0] != 0}
        by_key = {}
        for i, op in enumerate(ops):
            argv = op["argv"]
            fmt = "json" if "--format" in argv else "text"
            cmd, rest = argv[0], tuple(a for a in argv[1:] if a not in ("--format", "json"))
            by_key[(cmd, rest, fmt)] = i
        counts = dict.fromkeys(("adem_pairs", "inverse_roundtrips", "expand_coeffs",
                                "basis_counts"), 0)
        rng = random.Random(f"check:{self.spec['seed']}")
        for (cmd, rest, fmt), i in by_key.items():
            p, n = int(rest[rest.index("--p") + 1]), int(rest[rest.index("--n") + 1])
            ctx = ctx_of(p, n)
            out = results[i][1]
            if cmd == "adem":
                j = by_key.get(("adem-classical", rest, fmt))
                if j is not None:
                    counts["adem_pairs"] += 1
                    other = results[j][1]
                    if fmt == "json":
                        same = json.loads(out)["result"] == json.loads(other)["result"]
                    else:
                        same = out == other
                    if not same:
                        bad |= {i, j}
            elif cmd == "invert-dual" and fmt == "json":
                counts["inverse_roundtrips"] += 1
                doc = json.loads(out)
                target = textio.seq_from_json(doc["input"], ctx)
                acc: dict = {}
                for m, c in textio.dickson_combo_from_json(doc["result"]).items():
                    for seq, cc in self.correspondence.dual_of_dickson(m, ctx).terms.items():
                        acc[seq.twice] = (acc.get(seq.twice, 0) + c * cc) % p
                if {k: v for k, v in acc.items() if v} != {target.twice: 1}:
                    bad.add(i)
            elif cmd == "expand" and fmt == "json":
                doc = json.loads(out)
                m = tuple(doc["input"]["m"])
                for term in rng.sample(doc["result"], min(3, len(doc["result"]))):
                    counts["expand_coeffs"] += 1
                    want = self.invariants.coeff_by_multinomial(m, term["exps"], ctx)
                    if want != term["coeff"]:
                        bad.add(i)
            elif cmd == "basis" and fmt == "json":
                j = by_key.get(("solve-degree", rest, fmt))
                if j is not None:
                    counts["basis_counts"] += 1
                    if len(json.loads(out)["result"]) != len(json.loads(results[j][1])["result"]):
                        bad |= {i, j}
        return bad, counts

    # -- the pass -------------------------------------------------------------

    def run(self) -> dict:
        spec = self.spec
        ops = spec["ops"]
        prepared = [self.prepare(op) for op in ops]
        tracer = None
        if spec["trace"]:
            from tracing import Tracer

            tracer = Tracer(kernel_sample_every=spec.get("kernel_sample_every", 0))
            tracer.install()
        # untraced passes time a calibration slice before the first op, after
        # the last, between ops every CALIBRATE_EVERY_S and, through a hook on
        # a function the op calls often, inside long ops (calibrate.Timeline)
        timeline = None if tracer is not None else Timeline(CALIBRATE_EVERY_S)
        hook = self.install_hook(timeline) if timeline else None
        op_times, results, errors = [], [], {}
        try:
            for i, args in enumerate(prepared):
                self.before_op()
                first = len(timeline.slices) if timeline else 0
                t0 = perf_counter()
                try:
                    if tracer is None:
                        res = self.run_op(args)
                    else:
                        with tracer.op(i):
                            res = self.run_op(args)
                except Exception as exc:  # an op that raises is counted as failed
                    res, errors[i] = None, f"{type(exc).__name__}: {exc}"
                t1 = perf_counter()
                results.append(res)
                if timeline is None:
                    op_times.append((t0, t1, 0, 0))
                    continue
                op_times.append((t0, t1, first, len(timeline.slices)))
                if timeline.due() or i == len(prepared) - 1:
                    timeline.mark()
        finally:
            if tracer is not None:
                tracer.uninstall()
            if hook is not None:
                setattr(*hook)
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if timeline is None:
            latencies, scaled, slices = [t1 - t0 for t0, t1, _, _ in op_times], None, []
        else:
            latencies, scaled = map(list, zip(*(timeline.scaled(*t) for t in op_times)))
            slices = [dt for _, _, dt in timeline.slices]

        outputs = [
            canonical({"error": errors[i]} if i in errors else self.output(op, args, res))
            for i, (op, args, res) in enumerate(zip(ops, prepared, results))
        ]
        failed = set(errors)
        checks = {}
        if spec["check"] and not errors:
            bad, checks = self.check(ops, prepared, results)
            failed |= bad
        work = len(ops)
        if self.workload == "oracle-sweep":
            work = sum(res[0] for res in results if res is not None)
        out = {
            "latencies": latencies,
            "scaled": scaled,
            "slices": slices,
            "elapsed": sum(latencies),
            "work": work,
            "failed": sorted(failed),
            "errors": {str(i): msg for i, msg in errors.items()},
            "checks": checks,
            "digest": digest(outputs),
            "rss_kb": rss_kb,
            "meta": {
                "kernel": self.kernels.IMPL_NAME,
                "python": sys.version.split()[0],
                "cpu_count": os.cpu_count(),
                "DL_THREADS": os.environ.get("DL_THREADS"),
                "DL_PURE": os.environ.get("DL_PURE"),
            },
        }
        if tracer is not None:
            from tracing import SPAN_FIELDS, layer_metrics, layer_shares

            output_bytes = 0
            if self.workload == "cli-session":
                output_bytes = sum(len(r[1].encode()) for r in results if r is not None)
            out["layers"] = layer_metrics(tracer.counters, output_bytes)
            out["shares"] = layer_shares(tracer.counters)
            out["spans"] = len(tracer.spans) // len(SPAN_FIELDS)
            if spec.get("spans_path"):
                tracer.write_spans(spec["spans_path"])
            if tracer.kernel_samples:
                out["kernel_compare"] = compare_kernels(tracer.kernel_samples)
        return out


def compare_kernels(samples) -> dict:
    """Time the pure and (when built) compiled poly_mul on recorded inputs."""
    from dyerlashof import _purekernel

    try:
        from dyerlashof import _fastkernel
    except ImportError:
        _fastkernel = None

    def timed(fn):
        t0 = perf_counter()
        res = [fn(a, b, p) for a, b, p in samples]
        return perf_counter() - t0, res

    pure_s, pure = timed(_purekernel.poly_mul)
    report = {"samples": len(samples), "pure_s": pure_s, "compiled_available": False}
    if _fastkernel is not None:
        fast_s, fast = timed(_fastkernel.poly_mul)
        report.update(compiled_available=True, compiled_s=fast_s,
                      speedup=pure_s / fast_s if fast_s else None, equal=pure == fast)
    return report


def main() -> int:
    # one CPU for the whole pass: verify's pool thread and the main thread
    # then hand the GIL over on that CPU instead of waking each other across
    # vCPUs, whose cost on a shared host changes from minute to minute
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    spec = json.load(sys.stdin)
    result = Pass(spec).run()
    sys.stdout.write(canonical(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
