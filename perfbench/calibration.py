"""Machine-speed gauge for the end-to-end times.

The benchmark runs on a few cores of a shared host whose speed drifts:
the same code runs up to about 1.7x slower in some phases than in others,
and a phase can last from a second to many minutes. Raw wall times of
runs that land in different phases differ by more than any bound can
allow, whatever the program does.

So each phase of a timed operation (set-up, solve, certify) is
bracketed by a short fixed reference task that uses no code of the
package. A phase's time is then scaled by ``nominal / reference time``
over the samples at its two ends: it reads as seconds on a machine on
which the reference task takes its nominal time. A change to the
package moves the operation's time and leaves the reference alone, so
it shows in full; a change in the machine's speed moves both and
cancels. The unscaled medians are printed beside the scaled ones.

Code of different kinds speeds up by different amounts when the host
gets faster: interpreted scalar work gains most, passes over large
arrays least. Each workload therefore names, for each of its phases,
the reference that resembles that phase's mix (see ``REFERENCES``).
"""
from __future__ import annotations

import math
import statistics
from time import perf_counter

import numpy as np

MIN_REPS = 5

_rng = np.random.default_rng(20251017)

# interpreter: small dense matrix-vector products and scalar Python, the mix
# of the solver's bookkeeping and the certificates
DIM = 100
_M = _rng.standard_normal((DIM, DIM)) / math.sqrt(DIM)
_A = _M @ _M.T + np.eye(DIM)
_B = _rng.standard_normal(DIM)


def interpreter_task():
    """About 3 ms of solver-like work on fixed data; returns a checksum."""
    x = np.zeros(DIM)
    acc = 0.0
    for k in range(160):
        g = _A @ x - _B
        gg = float(g @ g)
        x -= 0.1 * g
        for j in range(40):
            acc += math.sqrt(gg + j) / (k + j + 1)
    return acc


# array: gather, multiply and bincount passes over a fixed sparse matrix of
# 125 000 entries in row-major coordinate form, the memory-bound mix of a
# sparse data term
ROWS, COLS, PER_ROW = 5000, 500, 25
_rows = np.repeat(np.arange(ROWS), PER_ROW)
_cols = _rng.integers(0, COLS, ROWS * PER_ROW)
_vals = _rng.standard_normal(ROWS * PER_ROW)
_v0 = _rng.standard_normal(COLS)


def array_task():
    """About 4 ms of two power-iteration steps on fixed sparse data; returns a checksum."""
    v = _v0
    for _ in range(2):
        av = np.bincount(_rows, weights=_vals * v[_cols], minlength=ROWS)
        w = np.bincount(_cols, weights=_vals * av[_rows], minlength=COLS)
        v = w / np.linalg.norm(w)
    return float(v @ _v0)


# name: (task, its median time in seconds on the 2-core Xeon VM the benchmark
# was built on, Python 3.11, numpy 2.4, OpenBLAS 0.3.31)
REFERENCES = {
    "interpreter": (interpreter_task, 0.0028),
    "array": (array_task, 0.0030),
}


def sample(task, budget_s):
    """Times of ``task``, run for ``budget_s`` and at least ``MIN_REPS`` times."""
    times = []
    deadline = perf_counter() + budget_s
    while len(times) < MIN_REPS or perf_counter() < deadline:
        start = perf_counter()
        task()
        times.append(perf_counter() - start)
    return times


class Gauge:
    """Reference samples taken at the phase boundaries of one operation.

    ``references`` names the reference of each phase, in order; every
    boundary samples each named reference, sharing ``budget_s``.
    """

    def __init__(self, references, budget_s):
        self.references = references
        self.budget_s = budget_s / len(set(references))
        self.marks = []

    def mark(self):
        self.marks.append({name: sample(REFERENCES[name][0], self.budget_s)
                           for name in dict.fromkeys(self.references)})

    def scales(self):
        """Nominal over measured reference time for each phase, from the samples at its ends."""
        return tuple(REFERENCES[name][1] / statistics.median(a[name] + b[name])
                     for name, a, b in zip(self.references, self.marks, self.marks[1:]))


def warm_up():
    for task, _ in REFERENCES.values():
        task()
