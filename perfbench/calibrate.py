"""Machine-speed calibration: a fixed slice of the benchmark's own work.

A shared host can run the same Python code at speeds up to 2x apart,
changing from one second to the next and staying slow or fast for
minutes.  Timing a fixed slice of work next to the program's work
measures that speed.  The slice is plain Python of the same kind as the
package's hot paths (dicts keyed by exponent tuples, small-integer
arithmetic, string building) and calls nothing in the package, so a
change to the package cannot change it.

``Clock.sample`` times one slice.  ``Clock.scale`` turns a time taken
between two samples into the time it would take at the reference speed,
the speed at which one slice takes ``REF_SLICE_S``:

    scaled = raw * REF_SLICE_S / mean(slice before, slice after)

On a 2-vCPU shared VM with CPython 3.11 a slice takes 8-16 ms, so the
reported times are close to the raw ones in a fast period.
"""

from __future__ import annotations

import random
from time import perf_counter

REF_SLICE_S = 0.008
_P = 7
_TERMS = 40
_VARS = 4


def _operands():
    rng = random.Random("calibration")
    return [
        {tuple(rng.randrange(12) for _ in range(_VARS)): rng.randrange(1, _P)
         for _ in range(_TERMS)}
        for _ in range(2)
    ]


def _slice(a: dict, b: dict) -> int:
    out: dict = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            key = tuple(x + y for x, y in zip(ka, kb))
            c = (out.get(key, 0) + ca * cb) % _P
            if c:
                out[key] = c
            else:
                del out[key]
    text = "+".join(f"{c}*h^({','.join(map(str, k))})" for k, c in sorted(out.items()))
    return len(text)


class Clock:
    """Times calibration slices; scales raw times to the reference speed."""

    def __init__(self):
        self._a, self._b = _operands()
        self.expected = _slice(self._a, self._b)
        for _ in range(3):  # warm-up
            self.sample()

    def sample(self) -> float:
        t0 = perf_counter()
        got = _slice(self._a, self._b)
        dt = perf_counter() - t0
        if got != self.expected:
            raise RuntimeError("calibration slice gave a different result")
        return dt

    @staticmethod
    def scale(raw: float, before: float, after: float) -> float:
        return raw * REF_SLICE_S / ((before + after) / 2)


class Timeline:
    """Calibration slices timed between ops, and inside long ops on request.

    ``mark`` times a slice now.  ``poll``, called from inside an op, times
    one when ``every_s`` has passed since the last.  ``scaled`` splits an
    op's interval at the slices taken inside it and scales each piece by
    the mean of the slices just before and just after it; the slices' own
    time is left out.  Call ``mark`` once more after the last op.
    """

    def __init__(self, every_s: float):
        self.clock = Clock()
        self.every_s = every_s
        self.slices: list[tuple[float, float, float]] = []  # (start, end, slice time)
        self.mark()

    def mark(self) -> None:
        t0 = perf_counter()
        dt = self.clock.sample()
        self.slices.append((t0, perf_counter(), dt))

    def due(self) -> bool:
        return perf_counter() - self.slices[-1][1] >= self.every_s

    def poll(self) -> None:
        if self.due():
            self.mark()

    def scaled(self, t0: float, t1: float, first: int, last: int) -> tuple[float, float]:
        """Raw and scaled time of an op that ran from t0 to t1 and took
        slices[first:last] inside it."""
        inner = self.slices[first:last]
        starts = [t0] + [end for _, end, _ in inner]
        ends = [start for start, _, _ in inner] + [t1]
        raw = scaled = 0.0
        for j, (a, b) in enumerate(zip(starts, ends)):
            raw += b - a
            scaled += Clock.scale(b - a, self.slices[first - 1 + j][2], self.slices[first + j][2])
        return raw, scaled
