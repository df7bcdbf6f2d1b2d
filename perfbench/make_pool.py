"""Regenerate classical_pool.json, the input pool of the classical-long workload.

Random decreasing sequences cost anything from one rewrite step to
millions, so the workload draws from a frozen pool of bounded cost
instead of from raw random sequences.  This script draws candidates with
a fixed seed, counts the Adem rewrite steps each one takes and keeps those
inside the step band whose result is not zero.  Inputs with the same
step count can still differ 3x in time, so it then times each kept input
on its own (rewrite table cleared, scaled to the reference speed of
``calibrate.py``, median of three), drops the most expensive ones, sorts
the rest by that cost and cuts them into strata.  The benchmark picks one
input per stratum, so every seed gets nearly the same cost profile.

The bridge group holds eps = 0 integral inputs at p = 3, n = 5 in
degrees with a small basis, which the benchmark's check also
straightens with the invariant engine.

    python3 perfbench/make_pool.py           # draw, time and cut
    python3 perfbench/make_pool.py --recut   # time and cut the frozen inputs again

The pool is frozen so that the workload's inputs never depend on the
code under test; rerun this only to change the workload.
"""

from __future__ import annotations

import json
import random
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from dyerlashof import opalgebra  # noqa: E402
from dyerlashof.arith import Context  # noqa: E402
from dyerlashof.correspondence import adem_via_invariants  # noqa: E402
from dyerlashof.opalgebra import OpPoly, adem_straighten_classical  # noqa: E402
from dyerlashof.sequences import OpSeq, is_admissible  # noqa: E402

from calibrate import Clock  # noqa: E402
from workloads import POOL_PATH, dickson_weights, solutions  # noqa: E402

STEPS = (2000, 20000)
# (p, n, largest entry)
CONFIGS = ((3, 5, 100), (3, 6, 100), (5, 5, 200), (5, 6, 150), (7, 5, 300),
           (7, 6, 200), (2, 6, 60))
# candidates kept per (p, n); the DROP most expensive are dropped, and the
# rest are cut into STRATA strata of PER_STRATUM
KEPT, DROP, STRATA, PER_STRATUM = 60, 10, 10, 5
BRIDGE = {"p": 3, "n": 5, "largest_entry": 80, "max_basis": 12, "min_steps": 100,
          "max_invariant_s": 0.3}
BRIDGE_STRATA = 4


class StepCounter:
    def __init__(self):
        self.calls = 0
        self.original = opalgebra.pair_rewrite

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self.original(*args, **kwargs)


def candidate(rng, p, n, top, bocksteins=True):
    while True:
        if p == 2 or not bocksteins:
            twice = [2 * rng.randint(0, top) for _ in range(n)]
        else:
            twice = [rng.randint(0, 2 * top) for _ in range(n)]
        twice.sort(reverse=True)
        eps = [rng.randint(0, 1) if p > 2 and bocksteins else 0 for _ in range(n)]
        s = OpSeq(Context(p, n), tuple(twice), tuple(eps))
        if not is_admissible(s):
            return s


def steps_of(counter, s, limit):
    counter.calls = 0
    try:
        out = adem_straighten_classical(OpPoly.from_seq(s), max_steps=limit)
    except RuntimeError:
        return None, None
    return counter.calls, out


def cut(items, strata):
    items.sort(key=lambda item: item[0])
    size = len(items) // strata
    return [
        [[list(s.twice), list(s.eps)] for _, s in items[k * size:(k + 1) * size]]
        for k in range(strata)
    ]


def isolated_ms(clock, s) -> float:
    """Median of three scaled times of one straightening from an empty table."""
    times = []
    for _ in range(3):
        opalgebra.clear_rewrite_table()
        before = clock.sample()
        t0 = time.perf_counter()
        adem_straighten_classical(s)
        raw = time.perf_counter() - t0
        times.append(1e3 * Clock.scale(raw, before, clock.sample()))
    opalgebra.clear_rewrite_table()
    return sorted(times)[1]


def cut_by_cost(clock, p, n, seqs) -> dict:
    costed = sorted(((isolated_ms(clock, s), s) for s in seqs),
                    key=lambda item: item[0])[: KEPT - DROP]
    return {"p": p, "n": n, "strata": cut(costed, STRATA),
            "cost_ms": [round(costed[0][0], 1), round(costed[-1][0], 1)]}


def main():
    clock = Clock()
    if "--recut" in sys.argv[1:]:
        with open(POOL_PATH) as f:
            old = json.load(f)
        groups = []
        for g in old["groups"]:
            ctx = Context(g["p"], g["n"])
            seqs = [OpSeq(ctx, tuple(t), tuple(e)) for st in g["strata"] for t, e in st]
            groups.append(g if g.get("bridge") else cut_by_cost(clock, g["p"], g["n"], seqs))
        old["band"].update(band_of_pool())
        write_pool(old["band"], groups)
        return

    rng = random.Random("classical-pool")
    counter = StepCounter()
    opalgebra.pair_rewrite = counter
    groups, kept_by_config = [], []
    for p, n, top in CONFIGS:
        kept = []
        t0 = time.perf_counter()
        while len(kept) < KEPT:
            s = candidate(rng, p, n, top)
            steps, out = steps_of(counter, s, STEPS[1])
            if steps is not None and steps >= STEPS[0] and out.terms:
                kept.append(s)
        kept_by_config.append(kept)
        print(f"p={p} n={n}: {len(kept)} kept in {time.perf_counter() - t0:.1f} s",
              file=sys.stderr)

    b = BRIDGE
    ctx = Context(b["p"], b["n"])
    dw = dickson_weights(b["p"], b["n"])
    kept = []
    while len(kept) < BRIDGE_STRATA * PER_STRATUM:
        s = candidate(rng, b["p"], b["n"], b["largest_entry"], bocksteins=False)
        D = sum(2 * (b["p"] - 1) * (t // 2) * b["p"] ** i for i, t in enumerate(s.twice))
        if len(solutions(dw, D)) > b["max_basis"]:
            continue
        steps, out = steps_of(counter, s, STEPS[1])
        if steps is None or steps < b["min_steps"]:
            continue
        t0 = time.perf_counter()
        same = adem_via_invariants(s) == out
        if not same:
            raise SystemExit(f"engines disagree on {s}")
        if time.perf_counter() - t0 <= b["max_invariant_s"]:
            kept.append((steps, s))
    bridge = {"p": b["p"], "n": b["n"], "bridge": True, "strata": cut(kept, BRIDGE_STRATA)}
    opalgebra.pair_rewrite = counter.original
    for (p, n, _), seqs in zip(CONFIGS, kept_by_config):
        groups.append(cut_by_cost(clock, p, n, seqs))
    groups.append(bridge)

    band = {
        "rewrite_steps": list(STEPS),
        "nonzero_result": True,
        "configs": [{"p": p, "n": n, "largest_entry": top} for p, n, top in CONFIGS],
        "bridge": b,
        **band_of_pool(),
    }
    write_pool(band, groups)


def band_of_pool() -> dict:
    return {"kept_per_config": KEPT, "most_expensive_dropped": DROP,
            "strata_per_config": STRATA, "strata_cut_by": "isolated cost, ms"}


def write_pool(band, groups):
    with open(POOL_PATH, "w") as f:
        json.dump({"band": band, "groups": groups}, f, separators=(",", ":"))
        f.write("\n")


if __name__ == "__main__":
    main()
