"""Spans around slowlight's public functions, recorded from outside the
package, and the per-layer metrics derived from them.

`Tracer.install` replaces each traced function, wherever a slowlight
module holds it, with a wrapper that records a span (name, start, end,
parent, plus the work of dynamics calls) in memory. A span's self time is
its duration minus the time of its direct children.

Run as a script, `python3 perfbench/tracing.py <spans.json> <cli args>`
runs `slowlight.cli.main(<cli args>)` under the tracer and writes the
spans to <spans.json> when it exits.
"""
from __future__ import annotations

import functools
import json
import statistics
import sys
from collections import defaultdict
from time import perf_counter
from typing import NamedTuple

# Per-layer metric -> (unit, better, the end-to-end metric it should move).
LAYER_METRICS = {
    "dynamics.sim_us": ("us", "lower",
                        "wall_s on memory_sweep and cli_sweep; flat on trap_point"),
    "dynamics.run_s": ("s", "lower", "wall_s on trap_point; little on cli_sweep"),
    "dynamics.steps": ("count", "lower", "wall_s on every workload"),
    "dynamics.us_per_step": ("us", "lower", "wall_s on cli_sweep"),
    "dynamics.ns_per_elem_step": ("ns", "lower",
                                  "wall_s on trap_point; little on cli_sweep"),
    "dynamics.step_p50_us": ("us", "lower", "wall_s on step_api only"),
    "dynamics.step_p99_us": ("us", "lower", "wall_s on step_api only"),
    "dynamics.run_calls": ("count", "lower", "wall_s on memory_sweep"),
    "config.parse_s": ("s", "lower", "setup_s"),
    "config.build_s": ("s", "lower", "setup_s"),
    "medium.classes_s": ("s", "lower", "setup_s"),
    "experiment.sequence_s": ("s", "lower", "setup_s"),
    "experiment.drive_samples_s": ("s", "lower", "setup_s"),
    "experiment.sweep_self_s": ("s", "lower", "wall_s on memory_sweep"),
    "experiment.points": ("count", "higher", "wall_s on memory_sweep"),
    "analysis.fit_calls": ("count", "lower",
                           "wall_s on memory_sweep (predicted under 1%)"),
    "analysis.fit_s": ("s", "lower", "wall_s on memory_sweep (predicted under 1%)"),
    "cli.startup_s": ("s", "lower", "setup_s and wall_s on cli_sweep"),
    "cli.main_s": ("s", "lower", "wall_s on cli_sweep"),
    "cli.bytes_written": ("bytes", "lower", "wall_s on cli_sweep"),
    "trace.overhead_frac": ("frac", "lower", "none: traced over untraced wall_s - 1"),
}

# Per-layer metric -> the span whose self time it sums.
_SELF_TIMES = {
    "config.parse_s": "config.parse",
    "config.build_s": "config.build",
    "medium.classes_s": "medium.classes",
    "experiment.sequence_s": "experiment.sequence",
    "experiment.drive_samples_s": "experiment.drive_samples",
    "experiment.sweep_self_s": "experiment.sweep",
    "analysis.fit_s": "analysis.fit",
}
_DYNAMICS = ("dynamics.run", "dynamics.step")


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int          # index of the enclosing span, -1 at top level
    steps: int = 0       # CFL-locked steps integrated (dynamics spans)
    elements: int = 0    # (block, class, cell) elements per step
    sim_us: float = 0.0  # simulated time integrated


def _run_work(sequence, m, grid, classes, *, initial_state=None, **_):
    t0 = initial_state.t if initial_state is not None else 0.0
    sim = float(sequence.t_end_us) - t0
    return int(round(sim / (grid.dz / m.c))), 3 * len(classes) * grid.cells, sim


def _step_work(state, drive, m, dt, **_):
    return 1, 3 * len(state.deltas) * state.grid.cells, dt


class Tracer:
    """Records spans of the traced slowlight functions while installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, work=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            extra = work(*args, **kwargs) if work else ()
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = Span(name, start, end, parent, *extra)
        return traced

    def install(self) -> None:
        """Wrap the public functions of every layer in every slowlight
        namespace that holds them (the cli imports them by name)."""
        from slowlight import analysis, config, dynamics, experiment, medium

        targets = [
            ("config.parse", config.parse_config, None),
            ("config.build", config.build_medium, None),
            ("config.build", config.build_classes, None),
            ("config.build", config.build_protocol, None),
            ("medium.classes", medium.make_spectral_classes, None),
            ("experiment.sequence", experiment.standard_sequence, None),
            ("experiment.sweep", experiment.sweep_delay, None),
            ("experiment.sweep", experiment.sweep_duration, None),
            ("dynamics.run", dynamics.run_dynamics, _run_work),
            ("dynamics.step", dynamics.step, _step_work),
            ("analysis.fit", analysis.fit_decay, None),
        ]
        if "slowlight.cli" in sys.modules:
            targets.append(("cli.main", sys.modules["slowlight.cli"].main, None))
        modules = [mod for key, mod in sys.modules.items()
                   if key == "slowlight" or key.startswith("slowlight.")]
        for name, fn, work in targets:
            wrapper = self._wrap(name, fn, work)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._undo.append((mod, attr, value))
                        setattr(mod, attr, wrapper)
        cls = experiment.PulseSequence
        self._undo.append((cls, "drive_samples", cls.drive_samples))
        cls.drive_samples = self._wrap("experiment.drive_samples",
                                       cls.drive_samples)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def take(self) -> list[Span]:
        """Return the spans recorded so far and start a new list."""
        taken = list(self.spans)
        del self.spans[:]
        return taken


def unit_metrics(spans: list[Span], process_s: float | None = None,
                 bytes_written: int = 0) -> dict[str, float]:
    """Per-layer metrics of one timed unit (an operation, or one CLI
    process with its wall time and output size)."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
    self_by_name: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for s, c in zip(spans, child):
        self_by_name[s.name] += s.end - s.start - c
        calls[s.name] += 1
    dyn = [s for s in spans if s.name in _DYNAMICS]
    run_s = sum(self_by_name[n] for n in _DYNAMICS)
    steps = sum(s.steps for s in dyn)
    elem_steps = sum(s.steps * s.elements for s in dyn)
    main_s = sum((s.end - s.start for s in spans if s.name == "cli.main"), 0.0)
    out = {
        "dynamics.sim_us": sum(s.sim_us for s in dyn),
        "dynamics.run_s": run_s,
        "dynamics.steps": steps,
        "dynamics.us_per_step": run_s / steps * 1e6 if steps else 0.0,
        "dynamics.ns_per_elem_step": run_s / elem_steps * 1e9 if elem_steps else 0.0,
        "dynamics.run_calls": calls["dynamics.run"],
        "experiment.points": sum(
            1 for s in spans if s.name == "dynamics.run" and s.parent >= 0
            and spans[s.parent].name == "experiment.sweep"),
        "analysis.fit_calls": calls["analysis.fit"],
        "cli.main_s": main_s,
        "cli.startup_s": process_s - main_s if process_s is not None else 0.0,
        "cli.bytes_written": bytes_written,
    }
    for metric, name in _SELF_TIMES.items():
        out[metric] = self_by_name[name]
    return out


def layer_metrics(units: list[dict[str, float]], step_us: list[float],
                  overhead_frac: float) -> dict[str, float]:
    """The median (lower middle value) over units of each per-unit metric,
    step() latency percentiles over every traced call, and the tracing
    overhead."""
    out = {name: statistics.median_low(u[name] for u in units) for name in units[0]}
    if len(step_us) >= 2:
        cuts = statistics.quantiles(step_us, n=100)
        out["dynamics.step_p50_us"], out["dynamics.step_p99_us"] = cuts[49], cuts[98]
    else:
        out["dynamics.step_p50_us"] = out["dynamics.step_p99_us"] = 0.0
    out["trace.overhead_frac"] = overhead_frac
    return {name: out[name] for name in LAYER_METRICS}


def step_latencies_us(spans: list[Span]) -> list[float]:
    return [(s.end - s.start) * 1e6 for s in spans if s.name == "dynamics.step"]


if __name__ == "__main__":
    import workloads  # noqa: F401  (puts the checkout's src/ on sys.path)
    import slowlight.cli

    tracer = Tracer()
    tracer.install()
    code = 1
    try:
        code = slowlight.cli.main(sys.argv[2:])
    finally:
        tracer.uninstall()
        with open(sys.argv[1], "w", encoding="utf-8") as fh:
            json.dump([list(s) for s in tracer.spans], fh)
    sys.exit(code)
