"""Span tracing for the benchmark's traced run.

Wrappers are installed on public functions of the package at the module
attribute where each one is looked up at call time (``cli`` calls
``textio.render_op_poly``, ``verify`` calls its own imported name
``adem_via_invariants``, ``invariants`` calls ``kernels.poly_mul``, ...).
No file of the package changes; ``Tracer.uninstall`` puts the original
functions back.

Each wrapped call records one span: name, start, end, parent span and
op id.  The parent is tracked per thread.  A span opened in a thread
with no open span of its own (a ``verify`` pool thread) takes as parent
the innermost open span of the thread that installed the tracer.  A
call nested directly inside a span of the same name (``render_seq``
inside ``render_op_poly``) is folded into that span.

Self time is a span's duration minus the part of its interval that its
child spans cover.  Children in the span's own thread run one after the
other and are summed; children in other threads may overlap each other,
so their intervals are merged first.

Spans stay in memory, in one flat integer array, until ``write_spans``.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
from array import array
from time import perf_counter_ns

PACKAGE = "dyerlashof"

# One span = SPAN_FIELDS consecutive entries of Tracer.spans.
SPAN_FIELDS = ("span", "name", "start_ns", "end_ns", "parent", "op", "thread")

# (module, attribute, span name).  Every place a function is looked up
# at call time gets its own entry under the same span name.
TARGETS = (
    ("cli", "main", "cli.main"),
    ("textio", "parse_sequence", "textio.parse"),
    ("textio", "parse_any_sequence", "textio.parse"),
    ("textio", "parse_dickson", "textio.parse"),
    ("textio", "render_seq", "textio.render"),
    ("textio", "render_op_poly", "textio.render"),
    ("textio", "render_dual", "textio.render"),
    ("textio", "render_bpoly", "textio.render"),
    ("textio", "render_dickson_combo", "textio.render"),
    ("textio", "render_dickson_monomial", "textio.render"),
    ("textio", "render_tensor", "textio.render"),
    ("textio", "seq_to_json", "textio.render"),
    ("textio", "op_poly_to_json", "textio.render"),
    ("textio", "dual_to_json", "textio.render"),
    ("textio", "bpoly_to_json", "textio.render"),
    ("textio", "dickson_combo_to_json", "textio.render"),
    ("textio", "tensor_to_json", "textio.render"),
    ("verify", "run_suite", "verify.run_suite"),
    ("opalgebra", "adem_straighten_classical", "opalgebra.straighten"),
    ("verify", "adem_straighten_classical", "opalgebra.straighten"),
    ("cli", "adem_straighten_classical", "opalgebra.straighten"),
    ("opalgebra", "pair_rewrite", "opalgebra.pair_rewrite"),
    ("opalgebra", "coproduct", "opalgebra.coproduct"),
    ("cli", "coproduct", "opalgebra.coproduct"),
    ("correspondence", "adem_via_invariants", "correspondence.adem"),
    ("verify", "adem_via_invariants", "correspondence.adem"),
    ("cli", "adem_via_invariants", "correspondence.adem"),
    ("correspondence", "kronecker_pair", "correspondence.kronecker_pair"),
    ("cli", "kronecker_pair", "correspondence.kronecker_pair"),
    ("correspondence", "admissible_basis", "correspondence.basis"),
    ("cli", "admissible_basis", "correspondence.basis"),
    ("correspondence", "solve_degree_diophantine", "correspondence.diophantine"),
    ("cli", "solve_degree_diophantine", "correspondence.diophantine"),
    ("correspondence", "dual_of_dickson", "correspondence.dual"),
    ("correspondence", "dickson_of_dual", "correspondence.dual"),
    ("cli", "dual_of_dickson", "correspondence.dual"),
    ("cli", "dickson_of_dual", "correspondence.dual"),
    ("verify", "dual_of_dickson", "correspondence.dual"),
    ("verify", "dickson_of_dual", "correspondence.dual"),
    ("correspondence", "coeff_in_expansion", "invariants.coeff"),
    ("invariants", "coeff_in_expansion", "invariants.coeff"),
    ("invariants", "expand_dickson_monomial", "invariants.expand"),
    ("cli", "expand_dickson_monomial", "invariants.expand"),
    ("kernels", "poly_mul", "kernels.poly_mul"),
)


class Tracer:
    """Records spans and counters for the wrapped functions of the package."""

    def __init__(self, kernel_sample_every: int = 0):
        self.names: list[str] = ["op"]
        self._name_ids = {"op": 0}
        self.spans = array("q")
        self.counters: dict[str, int] = {}
        self.op_id = -1
        # every kernel_sample_every-th poly_mul call keeps its inputs
        self.kernel_sample_every = kernel_sample_every
        self.kernel_samples: list[tuple[dict, dict, int]] = []
        self._kernel_seen = 0
        self._span_ids = itertools.count()
        self._installed: list[tuple[object, str, object]] = []
        self._local = threading.local()
        self._main_stack: list = []
        self._local.stack = self._main_stack
        self._thread_ids: dict[int, int] = {}
        self._lock = threading.Lock()

    # -- span bookkeeping -------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name_id: int) -> list:
        span_id = next(self._span_ids)
        stack = self._stack()
        if stack:
            parent, foreign = stack[-1], False
        elif self._main_stack:
            parent, foreign = self._main_stack[-1], True
        else:
            parent, foreign = None, False
        # frame: span id, name id, start, same-thread child ns,
        # other-thread child intervals, parent frame, parent is foreign
        frame = [span_id, name_id, 0, 0, None, parent, foreign]
        stack.append(frame)
        frame[2] = perf_counter_ns()
        return frame

    def _close(self, frame: list) -> None:
        end = perf_counter_ns()
        stack = self._stack()
        stack.pop()
        span_id, name_id, start, child_ns, foreign_children, parent, foreign = frame
        covered = child_ns
        if foreign_children:
            covered += _union_length(foreign_children, start, end)
        duration = end - start
        self_ns = max(0, duration - covered)
        if parent is not None:
            if foreign:
                with self._lock:
                    if parent[4] is None:
                        parent[4] = []
                    parent[4].append((start, end))
            else:
                parent[3] += duration
        ident = threading.get_ident()
        with self._lock:
            tid = self._thread_ids.setdefault(ident, len(self._thread_ids))
            self.spans.extend(
                (span_id, name_id, start, end, -1 if parent is None else parent[0],
                 self.op_id, tid)
            )
            key = self.names[name_id]
            self.counters[key + ".calls"] = self.counters.get(key + ".calls", 0) + 1
            self.counters[key + ".ns"] = self.counters.get(key + ".ns", 0) + duration
            self.counters[key + ".self_ns"] = (
                self.counters.get(key + ".self_ns", 0) + self_ns
            )

    def count(self, key: str, value: int) -> None:
        with self._lock:
            self.counters[key] = self.counters.get(key, 0) + value

    def maximum(self, key: str, value: int) -> None:
        with self._lock:
            self.counters[key] = max(self.counters.get(key, 0), value)

    def op(self, op_id: int):
        """Context manager for the root span of one benchmark op."""
        return _OpSpan(self, op_id)

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        name_id = self._name_id(name)
        after = _AFTER.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if stack and stack[-1][1] == name_id:
                return fn(*args, **kwargs)
            frame = tracer._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(frame)
            if after is not None:
                after(tracer, fn, args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target; the originals are kept for uninstall."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        wrapped: dict[int, object] = {}
        for module_name, attr, span_name in TARGETS:
            module = importlib.import_module(f"{PACKAGE}.{module_name}")
            original = getattr(module, attr)
            if id(original) not in wrapped:
                wrapped[id(original)] = self._wrap(span_name, original)
            self._installed.append((module, attr, original))
            setattr(module, attr, wrapped[id(original)])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    # -- output -----------------------------------------------------------

    def write_spans(self, path) -> None:
        """Write the span table: a JSON header line, then raw int64 rows."""
        header = {
            "fields": SPAN_FIELDS,
            "names": self.names,
            "rows": len(self.spans) // len(SPAN_FIELDS),
            "dtype": "int64",
            "byteorder": sys.byteorder,
        }
        with open(path, "wb") as f:
            f.write(json.dumps(header).encode() + b"\n")
            self.spans.tofile(f)


class _OpSpan:
    def __init__(self, tracer: Tracer, op_id: int):
        self.tracer = tracer
        self.op_id = op_id

    def __enter__(self):
        self.tracer.op_id = self.op_id
        self.frame = self.tracer._open(0)
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.frame)
        self.tracer.op_id = -1
        return False


def _union_length(intervals, lo: int, hi: int) -> int:
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


# -- counters taken from arguments and results --------------------------


def _after_straighten(tracer, fn, args, result):
    tracer.count("opalgebra.output_terms", len(result.terms))


def _after_basis(tracer, fn, args, result):
    tracer.maximum("correspondence.basis_size_max", len(result))


def _after_expand(tracer, fn, args, result):
    misses = fn.cache_info().misses
    if misses != tracer.counters.get("invariants.expand_misses", 0):
        tracer.counters["invariants.expand_misses"] = misses
        tracer.count("invariants.expand_terms", len(result.terms))


def _after_poly_mul(tracer, fn, args, result):
    a, b, p = args
    tracer.count("kernels.poly_mul_term_pairs", len(a) * len(b))
    tracer.count("kernels.poly_mul_out_terms", len(result))
    if tracer.kernel_sample_every:
        tracer._kernel_seen += 1
        if tracer._kernel_seen % tracer.kernel_sample_every == 0:
            tracer.kernel_samples.append((dict(a), dict(b), p))


_AFTER = {
    "opalgebra.straighten": _after_straighten,
    "correspondence.basis": _after_basis,
    "invariants.expand": _after_expand,
    "kernels.poly_mul": _after_poly_mul,
}


def layer_metrics(counters: dict[str, int], output_bytes: int) -> dict[str, float]:
    """The per-layer metrics of one traced pass, by benchmark metric name."""

    def calls(name):
        return counters.get(name + ".calls", 0)

    def total_s(name):
        return counters.get(name + ".ns", 0) / 1e9

    def self_s(name):
        return counters.get(name + ".self_ns", 0) / 1e9

    return {
        "cli.main_calls": calls("cli.main"),
        "cli.main_self_s": self_s("cli.main"),
        "textio.parse_calls": calls("textio.parse"),
        "textio.parse_s": total_s("textio.parse"),
        "textio.render_calls": calls("textio.render"),
        "textio.render_s": total_s("textio.render"),
        "textio.output_bytes": output_bytes,
        "verify.run_suite_self_s": self_s("verify.run_suite"),
        "opalgebra.straighten_calls": calls("opalgebra.straighten"),
        "opalgebra.straighten_self_s": self_s("opalgebra.straighten"),
        "opalgebra.pair_rewrite_calls": calls("opalgebra.pair_rewrite"),
        "opalgebra.pair_rewrite_s": total_s("opalgebra.pair_rewrite"),
        "opalgebra.output_terms": counters.get("opalgebra.output_terms", 0),
        "opalgebra.coproduct_calls": calls("opalgebra.coproduct"),
        "opalgebra.coproduct_s": total_s("opalgebra.coproduct"),
        "correspondence.adem_calls": calls("correspondence.adem"),
        "correspondence.adem_self_s": self_s("correspondence.adem"),
        "correspondence.kronecker_pair_calls": calls("correspondence.kronecker_pair"),
        "correspondence.kronecker_pair_self_s": self_s("correspondence.kronecker_pair"),
        "correspondence.basis_s": total_s("correspondence.basis"),
        "correspondence.basis_size_max": counters.get(
            "correspondence.basis_size_max", 0
        ),
        "correspondence.diophantine_s": total_s("correspondence.diophantine"),
        "correspondence.dual_calls": calls("correspondence.dual"),
        "correspondence.dual_s": total_s("correspondence.dual"),
        "invariants.expand_calls": calls("invariants.expand"),
        "invariants.expand_misses": counters.get("invariants.expand_misses", 0),
        "invariants.expand_self_s": self_s("invariants.expand"),
        "invariants.expand_terms": counters.get("invariants.expand_terms", 0),
        "invariants.coeff_calls": calls("invariants.coeff"),
        "kernels.poly_mul_calls": calls("kernels.poly_mul"),
        "kernels.poly_mul_s": total_s("kernels.poly_mul"),
        "kernels.poly_mul_term_pairs": counters.get("kernels.poly_mul_term_pairs", 0),
        "kernels.poly_mul_out_terms": counters.get("kernels.poly_mul_out_terms", 0),
    }


def layer_shares(counters: dict[str, int]) -> dict[str, float]:
    """Each module's self time as a share of the total op time."""
    op_ns = counters.get("op.ns", 0)
    out: dict[str, float] = {}
    for key, value in counters.items():
        if key.endswith(".self_ns") and not key.startswith("op."):
            module = key.split(".", 1)[0]
            out[module] = out.get(module, 0) + value
    return {m: (v / op_ns if op_ns else 0.0) for m, v in sorted(out.items())}
