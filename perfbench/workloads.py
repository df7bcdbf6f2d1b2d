"""The benchmark's workloads: inputs made from a seed, and how to check them.

Everything here is plain integer arithmetic on the benchmark's side, so
the inputs do not depend on the code under test.  ``build`` returns a
JSON-ready spec that ``worker.py`` executes in a fresh interpreter.

Why these four workloads (see README.md for the layer mapping):

* ``oracle-sweep``: many tiny inputs, exhaustive, fixed.  Load on
  ``verify``'s pool, the two solves and the classical engine.
* ``fresh-degree``: one invariant-engine straightening per degree, so
  every op builds its per-degree data and Dickson expansions cold.
* ``classical-long``: long Bockstein / half-integer rewriting chains;
  never touches the invariant engine or the kernel.
* ``cli-session``: a seeded mix of CLI commands revisiting degrees, with
  large outputs; the only workload where parsing and rendering weigh.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

WORKLOADS = ("oracle-sweep", "fresh-degree", "classical-long", "cli-session")
DEFAULT_SEED = 0
HERE = Path(__file__).resolve().parent
POOL_PATH = HERE / "classical_pool.json"

# oracle-sweep: (p, n, max_entry) of `verify oracle-equivalence`
SWEEP = ((2, 4, 8), (3, 4, 5), (5, 3, 8), (2, 6, 3))
SWEEP_SMOKE = ((2, 2, 4), (3, 2, 3))

# fresh-degree: p = 2, n = 4, one op per degree, in ascending order so the
# garbage collector meets the same heap at every op whatever the seed;
# basis size r runs 43..121, and a pass of about 3 s leaves room for
# eight repeats in a run
FRESH_P, FRESH_N = 2, 4
FRESH_DEGREES = tuple(range(140, 213, 8))
FRESH_DEGREES_SMOKE = (60, 75, 90)

# cli-session: (p, n, degree) sites, each visited by 8 commands x 2 formats.
# Twelve p = 2 sites of similar basis size (r = 49..70) put the cold first
# visits, and with them the tail percentile, in one homogeneous group.
CLI_SITES = tuple((2, 4, D) for D in range(150, 174, 2)) + ((3, 3, 1200), (5, 2, 4560))
CLI_SITES_SMOKE = ((2, 4, 60), (3, 2, 336))
# the large-output command: 6,876 terms
CLI_BIG = ["expand", "--p", "2", "--n", "6", "d0*d1*d2*d3*d4*d5"]
# coproduct inputs: (p, n, largest entry); entries are kept small because
# the coproduct grows with the product of the upper entries
CLI_COPROD = ((3, 2, 6), (2, 3, 3), (5, 1, 9))


def lower_weights(p: int, n: int) -> list[int]:
    """Degree of lower entry value 1 at each position (eps = 0)."""
    return [(1 << t) if p == 2 else 2 * (p - 1) * p**t for t in range(n)]


def dickson_weights(p: int, n: int) -> list[int]:
    """Degree of each Dickson generator d_{n,i}."""
    return [(1 << n) - (1 << i) if p == 2 else 2 * (p**n - p**i) for i in range(n)]


def solutions(weights, D: int, increasing: bool = False) -> list[tuple[int, ...]]:
    """All non-negative x with sum w_t x_t = D, optionally weakly increasing."""
    n = len(weights)
    out: list[tuple[int, ...]] = []

    def rec(t, lo, rem, acc):
        if t == n:
            if rem == 0:
                out.append(tuple(acc))
            return
        for v in range(lo, rem // weights[t] + 1):
            acc.append(v)
            rec(t + 1, v if increasing else 0, rem - v * weights[t], acc)
            acc.pop()

    rec(0, 0, D, [])
    return out


def random_inadmissible(rng: random.Random, weights, D: int) -> tuple[int, ...]:
    """A uniformly drawn-by-position, not weakly increasing x with sum w x = D."""
    n = len(weights)
    while True:
        vals = [0] * n
        rem = D
        for t in range(n - 1, 0, -1):
            vals[t] = rng.randint(0, rem // weights[t])
            rem -= vals[t] * weights[t]
        if rem % weights[0]:
            continue
        vals[0] = rem // weights[0]
        if any(vals[t + 1] < vals[t] for t in range(n - 1)):
            return tuple(vals)


def _entries(vals) -> str:
    return ",".join(str(v) for v in vals)


def _dickson(m) -> str:
    parts = [f"d{i}^{e}" if e > 1 else f"d{i}" for i, e in enumerate(m) if e]
    return "*".join(parts) if parts else "1"


# -- inputs per workload ---------------------------------------------------


def _oracle_sweep(rng, smoke):
    ops = [
        {"p": p, "n": n, "max_entry": e} for p, n, e in (SWEEP_SMOKE if smoke else SWEEP)
    ]
    return ops, {"configs": [list(c) for c in (SWEEP_SMOKE if smoke else SWEEP)]}


def _fresh_degree(rng, smoke):
    degrees = FRESH_DEGREES_SMOKE if smoke else FRESH_DEGREES
    weights = lower_weights(FRESH_P, FRESH_N)
    ops = []
    for D in degrees:
        vals = random_inadmissible(rng, weights, D)
        ops.append({"p": FRESH_P, "n": FRESH_N, "twice": [2 * v for v in vals],
                    "eps": [0] * FRESH_N})
    band = {"p": FRESH_P, "n": FRESH_N, "degrees": list(degrees)}
    return ops, band


def load_pool() -> dict:
    with open(POOL_PATH) as f:
        return json.load(f)


def _classical_long(rng, smoke):
    pool = load_pool()
    ops = []
    # one input from every stratum, in the pool's fixed order, so that each
    # seed meets the same cost profile
    for group in pool["groups"]:
        for stratum in group["strata"][:1] if smoke else group["strata"]:
            twice, eps = rng.choice(stratum)
            ops.append({"p": group["p"], "n": group["n"], "twice": twice, "eps": eps,
                        "bridge": group.get("bridge", False)})
    return ops, pool["band"]


def _cli_session(rng, smoke):
    blocks = []
    for p, n, D in CLI_SITES_SMOKE if smoke else CLI_SITES:
        lw = lower_weights(p, n)
        inadm = "e[" + _entries(random_inadmissible(rng, lw, D)) + "]"
        adm = "Q[" + _entries(rng.choice(solutions(lw, D, increasing=True))) + "]"
        mono = _dickson(rng.choice(solutions(dickson_weights(p, n), D)))
        common = ["--p", str(p), "--n", str(n)]
        site = [
            ["basis", *common, str(D)],
            ["solve-degree", *common, str(D)],
            ["adem", *common, inadm],
            ["adem-classical", *common, inadm],
            ["invert-dual", *common, adm],
            ["dual", *common, mono],
            ["pair", *common, mono, adm],
            ["expand", *common, mono],
        ]
        blocks.append(site + [argv + ["--format", "json"] for argv in site])
    if not smoke:
        blocks.append([list(CLI_BIG), CLI_BIG + ["--format", "json"]])
    for p, n, top in CLI_COPROD[:1] if smoke else CLI_COPROD:
        seq = "e[" + _entries(rng.randint(0, top) for _ in range(n)) + "]"
        argv = ["coprod", "--p", str(p), "--n", str(n), seq]
        blocks.append([argv, argv + ["--format", "json"]])
    # interleave the blocks in a seeded order, keeping each block's own
    # order, so the first visit to a degree is always its text `adem`
    turns = [b for b, block in enumerate(blocks) for _ in block]
    rng.shuffle(turns)
    queues = [iter(block) for block in blocks]
    ops = [next(queues[b]) for b in turns]
    band = {"sites": [list(s) for s in (CLI_SITES_SMOKE if smoke else CLI_SITES)],
            "coprod": [list(c) for c in CLI_COPROD]}
    return [{"argv": argv} for argv in ops], band


_MAKERS = {
    "oracle-sweep": _oracle_sweep,
    "fresh-degree": _fresh_degree,
    "classical-long": _classical_long,
    "cli-session": _cli_session,
}


def build(workload: str, seed: int, smoke: bool = False) -> dict:
    """The inputs of one workload for one seed: the same seed, the same spec."""
    rng = random.Random(f"{workload}:{seed}")
    ops, band = _MAKERS[workload](rng, smoke)
    return {"workload": workload, "seed": seed, "smoke": smoke, "ops": ops, "band": band}
