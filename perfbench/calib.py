"""Machine-speed reference for the benchmark's end-to-end times.

The shared 2-core machine this benchmark was tuned on changes speed by up
to a third for minutes at a time, longer than one run, so the raw times of
ten runs of the same code spread by 0.2 to 0.36 (quartile distance over
median).  Each timed phase (one pass, or the set-up runs) is therefore
bracketed by runs of :func:`reference_seconds`, a fixed kernel that never
touches the program, in the benchmark's own process, and the end-to-end
times are reported at reference speed: raw seconds * REFERENCE_S / the
median kernel time around the phase.  A change to the program cannot move
the kernel, so it moves the scaled times as it moves the raw ones; a change
of machine speed moves both and largely cancels.  The raw times stay in the
run record.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: the kernel's median time on a 2-core x86 Xeon VM, single-threaded BLAS
REFERENCE_S = 0.008

#: kernel runs before and after each timed phase
REFERENCE_REPS = 5

_RNG = np.random.default_rng(0)
_SMALL = _RNG.standard_normal((96, 96)) + 0j
_LARGE = _RNG.standard_normal((256, 256)) + 0j
_VEC = _RNG.standard_normal(1 << 18)
_OUT = np.empty_like(_VEC)


def reference_seconds() -> float:
    """Wall time of one run of the fixed reference kernel.

    Its parts stand for the program's kinds of work: an interpreter loop
    (the scalar scans), small and large complex products (the dense
    assembly) and streaming element-wise passes (the memory-bound parts of
    the large levels).
    """
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(30000):
        acc += (i % 7) * 0.5
    b = _SMALL
    for _ in range(4):
        b = (b @ _SMALL) / 96.0
    _LARGE @ _LARGE
    for _ in range(4):
        np.multiply(_VEC, 1.5, out=_OUT)
        np.add(_OUT, 2.0, out=_OUT)
        np.abs(_OUT, out=_OUT)
        np.sqrt(_OUT, out=_OUT)
    return time.perf_counter() - t0


def bracketed(phase):
    """Run ``phase()`` between kernel runs; return its result and the
    median kernel time around it."""
    reference = [reference_seconds() for _ in range(REFERENCE_REPS)]
    result = phase()
    reference += [reference_seconds() for _ in range(REFERENCE_REPS)]
    return result, statistics.median(reference)
