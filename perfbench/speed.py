"""Machine-speed probe for the end-to-end times.

The shared machine this benchmark was tuned on changes speed by up to a
third over tens of seconds, the same computation taking 0.9 s in one minute
and 1.5 s in the next.  No run length the time budget allows averages that
out, so every 0.25 s, from a SIGALRM handler in the one benchmark thread,
the probe times a fixed reference computation made of the kinds of work
tllab does: scalar numpy calls, batched complex arithmetic with small linear
solves, and a column-pivoted QR.  An operation's time divided by the mean
reference time measured during it, its fastest and slowest fifth of samples
left out, is the time in reference units, which tracks the program's speed
and not the machine's.  The trimmed mean follows slowdowns that last a while
as the mean does, but not single outliers.  The handler's own time is
subtracted from the operation's.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np
import scipy.linalg

INTERVAL_S = 0.25
#: Share of samples left out at each end of the trimmed mean.
TRIM = 0.2
#: An operation with fewer samples than this is scaled by its round's samples.
MIN_SAMPLES = 3
#: Typical duration of the reference computation on the machine of the
#: README's figures; scales a time in reference units back to seconds.
NOMINAL_S = 0.009


def _omega(u):
    u = np.asarray(u, dtype=complex)
    out = u - 1.0 / u
    return out if out.ndim else complex(out)


class SpeedProbe:
    """Context manager that samples the reference computation's duration."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._u = rng.random((2000, 3)) + 1j
        self._eye = 3.0 * np.eye(3)
        self._m = rng.random((128, 128)) + 1j * rng.random((128, 128))
        self.samples = []
        self.spent = 0.0

    def reference(self):
        z = 0.9 + 0.4j
        for _ in range(300):
            z = _omega(z) * 0.1 + (0.9 + 0.4j)
        x = self._u[:, :, None] / self._u[:, None, :]
        for _ in range(3):
            y = np.prod(_omega(x) * _omega(x * 0.5), axis=2)
            np.linalg.solve(x + self._eye, y[..., None])
        scipy.linalg.qr(self._m, mode="r", pivoting=True)

    def timed_reference(self):
        """Seconds one reference computation takes now."""
        start = time.perf_counter()
        self.reference()
        return time.perf_counter() - start

    def _handler(self, signum, frame):
        took = self.timed_reference()
        self.samples.append(took)
        self.spent += took

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def trimmed_mean(samples):
    ordered = sorted(samples)
    cut = int(len(ordered) * TRIM)
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def in_reference_units(timed):
    """Scale ``(seconds, samples)`` pairs of one round to reference units."""
    pooled = [s for _, samples in timed for s in samples]
    if not pooled:
        raise ValueError("the speed probe took no sample in this round")
    fallback = trimmed_mean(pooled)
    return [
        seconds / (trimmed_mean(samples) if len(samples) >= MIN_SAMPLES else fallback)
        for seconds, samples in timed
    ]
