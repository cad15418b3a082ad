"""Machine-speed calibration.

On a 2-vCPU x86-64 host shared with other tenants, the same op's time swings
by 20-35 % within a minute.  The worker therefore
times a fixed calibration unit between ops and scales every op time by
``CAL_REF_S / calibration time`` measured next to it.  The unit uses the
same kinds of work as twsolve (Fraction/dict arithmetic, mpmath series at
~35 digits, scalar float and numpy calls), never twsolve itself, so a change
to the program moves the scaled times and a change in machine speed does
not.
"""
from __future__ import annotations

import math
import statistics
import time
from fractions import Fraction

import mpmath
import numpy as np

# Median time of one calibration unit run on its own in a fresh interpreter
# on the reference machine (2 vCPU x86-64, Python 3.11.7, mpmath 1.3.0,
# numpy 2.4.6); scaled times read as milliseconds or seconds at that speed.
CAL_REF_S = 0.015


def _fractions():
    acc = {}
    for i in range(1, 60):
        for j in range(1, 12):
            key = (i % 7, j % 5)
            acc[key] = acc.get(key, Fraction(0)) + Fraction(i, j) * Fraction(j + 1, i + 2)
    return acc


def _mp_series():
    with mpmath.workdps(35):
        total = mpmath.mpf(0)
        for j in range(12):
            z = mpmath.mpf(1.5 + j * 0.01)
            term = mpmath.mpf(1)
            for k in range(1, 50):
                term = term * z / k
                total += term
    return total


def _floats():
    xs = np.linspace(0.0, 4.0, 97)
    ys = np.sin(xs)
    total = 0.0
    for i in range(1500):
        s = 0.04 + i * 0.0025
        total += float(np.interp(s, xs, ys)) * (4.0 - s) ** 0.3 + math.gamma(1.5)
    return total


def calibrate() -> float:
    """Seconds taken by one calibration unit."""
    t0 = time.perf_counter()
    _fractions()
    _mp_series()
    _floats()
    return time.perf_counter() - t0


def calibrate_median(n: int = 5) -> float:
    return statistics.median(calibrate() for _ in range(n))
