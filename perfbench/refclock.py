"""Host-speed reference clock for the end-to-end timings.

The machines this benchmark runs on are shared: the speed at which one
core executes the same code swings by up to a factor of two over a few
seconds, with the load of other tenants.  Such swings move every wall time
alike, so they are measured and divided out.  While a repetition runs, a
`SIGALRM` every `PERIOD_S` runs a fixed reference kernel (an
environment-like loop and a few steps of a small network, like the
program's own steps) and records how long it took.  The
kernel runs cold, its code and data evicted by the program since the last
sample, so it meets the caches as the program does; in trials it tracked
the program's speed better than a second, warm call.  A stretch of program
time between two samples counts

    stretch * NOMINAL_S / (mean of the two samples' durations)

reference seconds: the time the stretch would have taken at the speed at
which the kernel runs in `NOMINAL_S`.  The samples' own time is not
program time.  The kernel does not depend on anything in `src/`, so a
change to the program moves the reference seconds as it moves the wall
time; only the host's speed cancels.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

_clock = time.monotonic_ns

PERIOD_S = 0.1
# A fixed scale: about one kernel call on the 2.0 GHz Xeon vCPU of README.md
# when it runs at its fast speed.  It only scales the reported times.
NOMINAL_S = 1.0e-3


def kernel() -> float:
    """The fixed reference work; about NOMINAL_S at the nominal speed.  An
    environment-like loop over a small state vector, then a few steps of a
    small two-layer network with Adam-like updates."""
    rng = np.random.default_rng(12345)
    state = np.zeros(10)
    acc = 0.0
    for i in range(100):
        state[i % 10] += rng.random()
        hot = np.flatnonzero(state > 1.0)
        acc += float(state.sum()) + hot.size
        entry = {"step": i, "acc": acc}
        acc += entry["step"] * 1e-3
    x = rng.random((32, 60))
    layers = [(rng.random((32, 60)), np.zeros((32, 60)), np.zeros((32, 60))),
              (rng.random((32, 32)), np.zeros((32, 32)), np.zeros((32, 32)))]
    (w1, _, _), (w2, _, _) = layers
    for _ in range(3):
        h1 = np.tanh(x @ w1.T)
        h2 = np.tanh(h1 @ w2.T)
        d2 = (1 - h2 * h2) * h2
        d1 = (d2 @ w2) * (1 - h1 * h1)
        for (w, m, v), g in zip(layers, (d1.T @ x, d2.T @ h1)):
            m *= 0.9
            m += 0.1 * g
            v *= 0.999
            v += 0.001 * g * g
            w -= 1e-3 * m / (np.sqrt(v) + 1e-8)
        acc += float(h2.sum())
    return acc


class RefClock:
    """Samples the host's speed during a run; converts wall stretches."""

    def __init__(self):
        self.samples: list[tuple[int, int]] = []   # (start_ns, end_ns)
        self._busy = False

    def sample(self, *_signal_args) -> None:
        if self._busy:
            return
        self._busy = True
        start = _clock()
        kernel()
        self.samples.append((start, _clock()))
        self._busy = False

    def start(self) -> None:
        for _ in range(4):      # the first call of a fresh process warms up
            self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()


def reference_seconds(samples: list[tuple[int, int]], t0_ns: int, t1_ns: int) -> float:
    """Program time in [t0_ns, t1_ns] in reference seconds, from a run's
    kernel samples.  The first sample warms the kernel up in a fresh
    process; its duration is replaced by the median of the next three.
    Time before the first sample counts at that speed.  Each sample's
    duration is the median of it and its neighbours, so that one preempted
    sample does not skew its stretches."""
    raw = [end - start for start, end in samples]
    raw[0] = statistics.median(raw[1:4])
    lows = [max(0, min(k - 1, len(raw) - 3)) for k in range(len(raw))]
    dur = [statistics.median(raw[lo:lo + 3]) for lo in lows]
    # (stretch start, stretch end, kernel duration around the stretch)
    stretches = [(min(t0_ns, samples[0][0]), samples[0][0], dur[0])]
    stretches += [(samples[k][1], samples[k + 1][0], (dur[k] + dur[k + 1]) / 2)
                  for k in range(len(samples) - 1)]
    total = 0.0
    for lo, hi, d in stretches:
        overlap = min(hi, t1_ns) - max(lo, t0_ns)
        if overlap > 0:
            total += overlap * NOMINAL_S * 1e9 / d
    return total / 1e9


def host_speed(samples: list[tuple[int, int]]) -> float:
    """Median host speed over a run's samples after the first, relative
    to nominal."""
    dur = sorted(end - start for start, end in samples[1:])
    return NOMINAL_S * 1e9 / dur[len(dur) // 2]
