"""Machine-speed calibration.

On a shared machine other tenants slow every process down, both in short
bursts and in phases of minutes to tens of minutes: longer than one run of
the benchmark, so neither more repeats nor the fastest repeat remove it.
A ``Calibrator`` times one fixed block of work that does not depend on the
package: per-object Python bookkeeping like ``xcsf.reinforce`` and
in-place float-array arithmetic like the kernels.  A worker runs one block
after every few trials or reconstructed inputs, outside their timers,
so the blocks sample the machine at the same moments as the work.  The
timings of each repeat are multiplied by the ``speed`` its blocks
measured, which brings them to the reference speed; the raw figures stay
in the run's record.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# Seconds of one block on an unloaded 2-core x86-64 VM with CPython 3.11
# and numpy.  Any fixed value works: it only sets the scale of
# the normalised timings, which are compared between commits on one machine.
REFERENCE_S = 0.00017
# a block (run twice, about 0.2 ms each) follows this many trials, and
# this many reconstructed inputs (a pass has only 50 to 100 of them)
EVERY_TRIALS = 10
EVERY_INPUTS = 2
# blocks around a trial that give the speed its latency is scaled by
WINDOW = 5


class _Rule:
    __slots__ = ("exp", "err", "fit", "size", "num")

    def __init__(self, i):
        self.exp, self.err, self.fit, self.size, self.num = 0, 0.5, 0.1, 1.0 + i % 7, 1


def _block(rules, w, g, m, x, buf, h) -> float:
    """Interpreter bookkeeping over 150 objects, then in-place array
    arithmetic on a 16 x 256 net (no allocation, no BLAS threads)."""
    beta = 0.2
    errs = []
    for r in rules:
        r.exp += 1
        rate = max(beta, 1.0 / r.exp)
        r.err += rate * (abs(r.size - 3.0) * 0.01 - r.err)
        errs.append(r.err)
    acc = [0.1 if e > 0.01 else 1.0 for e in errs]
    total = sum(a * r.num for a, r in zip(acc, rules))
    for a, r in zip(acc, rules):
        r.fit += beta * (a * r.num / total - r.fit)
    for _ in range(4):
        np.multiply(w, x, out=buf)
        buf.sum(axis=1, out=h)
        np.tanh(h, out=h)
        np.multiply(m, 0.9, out=m)
        np.add(m, g, out=m)
        np.subtract(w, m, out=w)
        np.multiply.outer(h, x, out=g)
        np.multiply(g, 1e-5, out=g)
    return total


class Calibrator:
    """The block's data, made once per process."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.rules = [_Rule(i) for i in range(150)]
        self.w = rng.standard_normal((16, 256)) * 0.01
        self.g = np.zeros_like(self.w)
        self.m = np.zeros_like(self.w)
        self.x = rng.random(256)
        self.buf = np.empty_like(self.w)
        self.h = np.empty(16)
        self.block()

    def block(self) -> float:
        """Run the block twice; returns the seconds of the second run.  The
        first brings the block's data back into the caches, so what the
        work before it evicted does not show."""
        args = (self.rules, self.w, self.g, self.m, self.x, self.buf, self.h)
        _block(*args)
        start = perf_counter()
        _block(*args)
        return perf_counter() - start


def speed(block_times: list) -> float:
    """Machine speed relative to the reference while the blocks ran."""
    return REFERENCE_S / float(np.mean(block_times))
