"""slowlight: 1-D Maxwell-Bloch simulation of slow, stored and stationary
light in a spin-inhomogeneously-broadened three-level medium."""

from .medium import (MediumParams, SpectralClass, dephasing_time,
                     free_decay_envelope, group_velocity,
                     make_spectral_classes, susceptibility)
from .dynamics import (ControlDrive, DetectorTrace, Grid, SimState,
                       balance_residual, excitation_number, field_centroid,
                       model_rhs, run_dynamics, step)
from .experiment import (ProtocolParams, PulseEvent, PulseSequence,
                         SweepResult, released_peak, standard_sequence,
                         sweep_delay, sweep_duration)
from .analysis import (FitResult, fit_decay, group_delay, phase_match,
                       slow_light_delay)

__version__ = "0.1.0"
