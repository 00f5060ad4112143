"""Host speed, sampled while the benchmark times slowlight, and the wall
times scaled by it to a reference speed.

The cores of the VM the benchmark was written on are shared with other
tenants: the same code ran 1.5-1.8x slower for minutes at a time, CPU
time moved with wall time, and steal time stayed under 2%. No run length
averages that away. So a fixed probe kernel (numpy on complex arrays, a
pure-Python loop and a miniature RK4 integrator: the kinds of work
slowlight's integrator does, but no slowlight code) is timed every
`INTERVAL_S` while slowlight runs, and once before and after. A timed
span is then reported as

    scaled = (wall - time spent in probes) * mean(REFERENCE_PROBE_S / probe)

the seconds it would have taken at the host speed where one probe takes
`REFERENCE_PROBE_S`. A change to slowlight moves `wall` and leaves the
probes alone, so it shows in full.

Run as a script, `python3 perfbench/speed.py <samples.json> -m <module>
<args>` or `python3 perfbench/speed.py <samples.json> <script.py> <args>`
runs the module or script as __main__ while sampling, and writes the probe
samples and their total time to <samples.json> when it exits.
"""
from __future__ import annotations

import json
import os
import runpy
import signal
import statistics
import sys
import time

# One BLAS thread, set before numpy loads: on a 2-core machine OpenBLAS's
# default threads made the trap_point kernel 1.1-1.5x slower at twice the
# CPU time, and three repeats ranged over 8.9-11.7 s against 7.5-7.8 s.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_THREADS)

import numpy as np  # noqa: E402

# Median seconds of one probe, over 3,024 taken inside `slowlight sweep`
# processes on a 2-core Xeon VM (Python 3.11.7, numpy 2.4.6); scaled times
# are seconds at this speed.
REFERENCE_PROBE_S = 0.0057
INTERVAL_S = 0.2


class _MiniIntegrator:
    """RK4 steps of a field-atom system, shaped like slowlight's integrator:
    in-place numpy calls on buffers allocated once, and Python calls."""

    def __init__(self, classes: int, cells: int) -> None:
        rng = np.random.default_rng(0)
        shape = (3, classes, cells)
        self.start = (rng.standard_normal(shape)
                      + 1j * rng.standard_normal(shape)) * 1e-3
        self.a = np.empty_like(self.start)
        self.f = np.empty((2, cells), complex)
        self.decay = np.full((3, classes, 1), -0.5 - 0.1j)
        self.w = np.full(classes, 1.0 / classes + 0j)
        self.ka = [np.empty_like(self.a) for _ in range(4)]
        self.kf = [np.empty_like(self.f) for _ in range(4)]
        self.ya, self.yf = np.empty_like(self.a), np.empty_like(self.f)
        self.cross = np.empty_like(self.a)

    def reset(self) -> None:
        np.copyto(self.a, self.start)
        self.f.fill(0.0)

    def rhs(self, f, a, drive, kf, ka) -> None:
        np.matmul(self.w, a[0], out=kf[0])
        np.matmul(self.w, a[1], out=kf[1])
        kf *= 0.5j
        np.multiply(a, self.decay, out=ka)
        couple = np.array([[0.0, 0.0, 0.5j * drive], [0.0, 0.0, 0.5j * drive],
                           [0.5j * np.conj(drive), 0.5j, 0.0]], dtype=complex)
        np.matmul(couple, a.reshape(3, -1), out=self.cross.reshape(3, -1))
        ka += self.cross
        ka[0] += f[0] * 0.5j

    def stage(self, h, kf, ka) -> None:
        np.multiply(kf, h, out=self.yf)
        self.yf += self.f
        np.multiply(ka, h, out=self.ya)
        self.ya += self.a

    def step(self, dt: float, drive: complex) -> None:
        kf, ka = self.kf, self.ka
        self.rhs(self.f, self.a, drive, kf[0], ka[0])
        self.stage(0.5 * dt, kf[0], ka[0])
        self.rhs(self.yf, self.ya, drive, kf[1], ka[1])
        self.stage(0.5 * dt, kf[1], ka[1])
        self.rhs(self.yf, self.ya, drive, kf[2], ka[2])
        self.stage(dt, kf[2], ka[2])
        self.rhs(self.yf, self.ya, drive, kf[3], ka[3])
        for y, k in ((self.f, kf), (self.a, ka)):
            acc = k[1]
            acc += k[2]
            acc *= 2.0
            acc += k[0]
            acc += k[3]
            acc *= dt / 6.0
            y += acc
        self.f[0] = np.roll(self.f[0], 1)

    def decay_loop(self, count: int) -> None:
        """The right-hand side alone, applied in place `count` times."""
        for _ in range(count):
            self.rhs(self.f, self.a, 1.0, self.kf[0], self.ka[0])
            self.ka[0] *= 1e-3
            self.a += self.ka[0]


_MID = _MiniIntegrator(32, 64)
_SMALL = _MiniIntegrator(8, 24)


def probe() -> float:
    """Seconds taken by the fixed kernel: right-hand sides on mid-size
    arrays, a pure-Python loop, and RK4 steps on small arrays. Over 132
    cli_sweep processes in a turbulent spell of the host, the medians of
    four consecutive processes spread (IQR/median) 26% raw, 7% scaled by
    the first two parts alone and 5% scaled by all three. Like the
    integrator, it reuses buffers allocated once."""
    start = time.perf_counter()
    _MID.reset()
    _MID.decay_loop(40)
    total = 0
    for k in range(15_000):
        total += k * k
    _SMALL.reset()
    for i in range(12):
        _SMALL.step(1e-3, complex(0.3, 0.01 * i))
    return time.perf_counter() - start


class Speedometer:
    """Probe samples taken on entry, every `INTERVAL_S` of wall time (from
    a SIGALRM timer, between bytecodes of the main thread) and on exit.
    Use it in the main thread only."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.probe_s = 0.0       # wall time spent probing, warm-up included
        self._busy = False
        self._previous = None

    def _sample(self, *_) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            seconds = probe()
            self.samples.append(seconds)
            self.probe_s += seconds
        finally:
            self._busy = False

    def __enter__(self) -> "Speedometer":
        start = time.perf_counter()
        probe()  # warm-up, not a sample
        self.probe_s += time.perf_counter() - start
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()


def scaled(wall: float, probe_s: float, samples: list[float]) -> float:
    """Seconds `wall` would have taken at the reference speed, without the
    time spent probing."""
    return (wall - probe_s) * statistics.fmean(REFERENCE_PROBE_S / s
                                               for s in samples)


def main(argv: list[str]) -> int:
    out, target, args = argv[0], argv[1], argv[2:]
    meter = Speedometer()
    code: int | str | None = 0
    try:
        with meter:
            if target == "-m":
                sys.argv = [args[0]] + args[1:]
                runpy.run_module(args[0], run_name="__main__", alter_sys=True)
            else:
                sys.argv = [target] + args
                runpy.run_path(target, run_name="__main__")
    except SystemExit as exc:
        code = exc.code
    finally:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump({"samples": meter.samples, "probe_s": meter.probe_s}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
