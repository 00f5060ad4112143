#!/usr/bin/env python3
"""Transit a probe pulse through the driven medium and report its group
delay against the analytic prediction, for a few optical depths."""
import argparse
from pathlib import Path

import numpy as np

from slowlight.analysis import group_delay
from slowlight.dynamics import Grid, run_dynamics
from slowlight.experiment import ProtocolParams, standard_sequence
from slowlight.medium import MediumParams, group_velocity, make_spectral_classes


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--depths", type=float, nargs="+", default=[10.0, 30.0])
    ap.add_argument("--omega-c", type=float, default=1.7)
    ap.add_argument("--out", type=Path, default=Path("out/slow_light"))
    args = ap.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)

    grid = Grid(cells=64)
    classes = make_spectral_classes(30.0, 32, "lorentzian")
    protocol = ProtocolParams(omega_c=args.omega_c,
                              probe_duration_us=20.0, sample_rate=20.0,
                              release_window_us=30.0)
    sequence = standard_sequence("slow_light", protocol)
    empty = MediumParams(g2n=0.0, c=5.0, gamma_opt=1.0)
    reference, _ = run_dynamics(sequence, empty, grid, classes)

    for depth in args.depths:
        m = MediumParams.from_optical_depth(depth, gamma_opt=1.0, c=5.0)
        trace, _ = run_dynamics(sequence, m, grid, classes)
        measured = group_delay(trace, reference)
        # transit of the unit-length medium at v_g, less the vacuum transit
        predicted = 1.0 / group_velocity(m, args.omega_c) - 1.0 / m.c
        table = np.column_stack([trace.t, trace.fwd_intensity])
        path = args.out / f"trace_d{depth:g}.csv"
        np.savetxt(path, table, delimiter=",", header="t_us,fwd_intensity")
        print(f"d = {depth:5.1f}: delay {measured:7.3f} us "
              f"(prediction {predicted:7.3f} us)  -> {path}")


if __name__ == "__main__":
    main()
