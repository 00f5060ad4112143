"""Coupled field-atom dynamics in one spatial dimension.

Integrates the forward/backward slowly varying field envelopes together
with per-cell, per-spectral-class atomic amplitudes (two optical
coherences and one spin coherence).  The scheme locks the time step to the
grid, c*dt = dz, advects both fields by exactly one cell per step (no
numerical dispersion) and advances the local field-atom system in each
cell with a classical 4th-order Runge-Kutta update.  The drives are
uniform in z, so that update is one linear map in every cell, applied as
float64 matrix products to the cell-major state's float views (see
_Propagator), built for up to 16 changing steps at once and kept while
the drive samples repeat.  run_dynamics walks the block starts of
_block_starts on either system; on a half system (see _halve) it steps
each stretch of one map between two of them as one block, from the
atoms' response to the stretch's fields (see _Propagator.advance_block).
While the backward coupling A is zero and E- and P- start at zero, that
channel stays zero, and the half system drops it: it integrates E+ and
each class's P+ and S alone (see _dark), up to the first step that reads
a nonzero A, where the run goes on as the half system.  A sweep's held
stretches of one map take their records from one adjoint pass: the same
blocks, run on a half system alone by a propagator of that map's
transpose (see _Propagator.transposed and _held_records).

Amplitude normalization: the single coupling constant used in both the
polarization drive and the field source is sqrt(g2n), the square root of
the collective coupling strength.  With this choice the resonant intensity
attenuation is exp(-optical_depth), the group velocity is
c/(1 + g2n/omega_c^2) and the excitation functional below is conserved in
the lossless limit.
"""
from __future__ import annotations

import functools
import math
import warnings
from array import array
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .medium import (MediumParams, SpectralClass, _class_rates, class_arrays,
                     group_velocity)

_CHUNK_STEPS = 16  # most steps whose operators one build call traces
_BLOCK_STEPS = 32  # most steps in one block (see _interval_blocks)
# a NaN/Inf sweep ends each block or stretch of single steps that reaches a
# multiple of this (see run_dynamics)
_FINITE_CHECK_EVERY = 2 * _BLOCK_STEPS
_SHORTEST_BLOCK = 4  # a shorter block takes single steps (see run_dynamics)
# the cells (to, from) of E+'s and E-'s move in one step, one cell toward
# z = 1 and toward z = 0; a transposed step moves their covectors the other
# way (see _Propagator.transposed)
_ADVECT = ((slice(1, None), slice(None, -1)), (slice(None, -1), slice(1, None)))


@functools.lru_cache(maxsize=4)
def _tiny(n: int) -> np.ndarray:
    """n read-only weights 2^-64 (see SimState.check_finite)."""
    tiny = np.full(n, 2.0 ** -64)
    tiny.flags.writeable = False
    return tiny


class CFLViolation(ValueError):
    """Raised when a step does not satisfy c*dt == dz."""


class NumericalAbort(RuntimeError):
    """Raised when the state stops being finite; carries time and cell."""


@dataclass(frozen=True)
class Grid:
    """Uniform z grid of `cells` cells covering the unit-length medium [0, 1]."""

    cells: int

    def __post_init__(self) -> None:
        if self.cells < 1:
            raise ValueError(f"cells must be >= 1, got {self.cells}")

    @property
    def dz(self) -> float:
        return 1.0 / self.cells

    @property
    def z(self) -> np.ndarray:
        """Cell-center coordinates."""
        return (np.arange(self.cells) + 0.5) * self.dz


@dataclass
class ControlDrive:
    """Spatially uniform control drives: omega_c / omega_a map a time in us
    to a complex Rabi frequency in rad/us.  Both Raman channels are resonant."""

    omega_c: Callable[[float], complex]
    omega_a: Callable[[float], complex]

    @classmethod
    def constant(cls, omega_c: complex, omega_a: complex = 0.0) -> "ControlDrive":
        return cls(lambda t: omega_c, lambda t: omega_a)

    def sample(self, t: float) -> tuple[complex, complex]:
        return complex(self.omega_c(t)), complex(self.omega_a(t))


@dataclass
class SimState:
    """Fields on the z grid plus atomic amplitudes per cell and class.

    The state is held cell-major, the layout which step() and run_dynamics
    advance in place: fields f = (M, 2), each cell's [E+, E-], and atoms
    a = (M, K, 3), each cell's K classes' [P+, P-, S], both C-contiguous,
    so that their float views are the rows the integrator's real-form
    products act on.  e_plus, e_minus (M,) and p_plus, p_minus, s (M, K)
    are writable views into these arrays, so a write such as
    ``state.s[:, j] = ...`` changes the state.  step() keeps its
    propagator, which holds the float views of f and a, on the state
    between calls; copy() does not carry it.
    """

    t: float
    f: np.ndarray        # (M, 2) complex
    a: np.ndarray        # (M, K, 3) complex
    grid: Grid
    deltas: np.ndarray   # (K,) spin detunings
    weights: np.ndarray  # (K,) quadrature weights
    # step()'s (inputs, _Propagator, drive samples of its loaded operator),
    # the propagator reused while the inputs are equal
    _kept: tuple | None = field(default=None, init=False, repr=False,
                                compare=False)

    def __post_init__(self) -> None:
        # a step reads and writes both through their float views
        self.f = np.ascontiguousarray(self.f)
        self.a = np.ascontiguousarray(self.a)

    @classmethod
    def zeros(cls, grid: Grid, classes: Sequence[SpectralClass]) -> "SimState":
        deltas, weights = class_arrays(classes)
        m, k = grid.cells, len(deltas)
        return cls(t=0.0, f=np.zeros((m, 2), dtype=complex),
                   a=np.zeros((m, k, 3), dtype=complex), grid=grid,
                   deltas=deltas, weights=weights)

    def copy(self) -> "SimState":
        return SimState(self.t, self.f.copy(), self.a.copy(), self.grid,
                        self.deltas.copy(), self.weights.copy())

    @property
    def e_plus(self) -> np.ndarray:
        return self.f[:, 0]

    @property
    def e_minus(self) -> np.ndarray:
        return self.f[:, 1]

    @property
    def p_plus(self) -> np.ndarray:
        return self.a[..., 0]

    @property
    def p_minus(self) -> np.ndarray:
        return self.a[..., 1]

    @property
    def s(self) -> np.ndarray:
        return self.a[..., -1]  # also on a dark system (see _dark)

    @property
    def weak_probe_ok(self) -> bool:
        """True while the linearized (weak-probe) model is self-consistent."""
        return bool(np.abs(self.a).max(initial=0.0) <= 1.0)

    def spin_norm(self) -> float:
        """sum_z dz sum_j w_j |S|^2, the stored spin-coherence norm."""
        return float((np.abs(self.s) ** 2 @ self.weights).sum() * self.grid.dz)

    def check_finite(self) -> None:
        """Raise NumericalAbort naming the first non-finite value's cell.

        The fast pass dots each float view with weights 2^-64: a NaN or
        infinity makes the dot non-finite (+inf and -inf in one view also
        warn), and a finite view's dot cannot overflow."""
        f, a = self.f.reshape(-1).view(float), self.a.reshape(-1).view(float)
        if (math.isfinite(np.dot(f, _tiny(f.size)))
                and math.isfinite(np.dot(a, _tiny(a.size)))):
            return
        for name, arr in (("fields", self.f), ("atoms", self.a)):
            bad = np.argwhere(~np.isfinite(arr))
            if len(bad):
                raise NumericalAbort(f"non-finite value in {name} at "
                                     f"t={self.t:.6g} us, cell {bad[0][0]}")


@dataclass
class DetectorTrace:
    """Time series at the medium exits plus the spin-coherence norm."""

    t: np.ndarray
    fwd_intensity: np.ndarray   # |E+(1, t)|^2
    bwd_intensity: np.ndarray   # |E-(0, t)|^2
    spin_norm: np.ndarray       # sum_z dz sum_j w_j |S|^2


def model_rhs(state: SimState, drive: ControlDrive, m: MediumParams,
              j: int, cell: int = 0) -> tuple[complex, complex, complex]:
    """Time derivatives of (P+, P-, S) for class j at one cell.

    dP+/dt = -(gamma_opt/2) P+ + (i/2)(g E+ + Omega_C S)
    dP-/dt = -(gamma_opt/2) P- + (i/2)(g E- + Omega_A S)
    dS/dt  = -(gamma_spin/2 + i delta_j) S + (i/2)(Omega_C* P+ + Omega_A* P-)

    with g = sqrt(g2n).  Reference implementation used by tests; the run
    loop applies one RK4 step of these equations as a per-cell operator.
    """
    omega_c, omega_a = drive.sample(state.t)
    g = math.sqrt(m.g2n)
    pp, pm, s = state.a[cell, j]
    ep, em = state.f[cell]
    d_pp = -0.5 * m.gamma_opt * pp + 0.5j * (g * ep + omega_c * s)
    d_pm = -0.5 * m.gamma_opt * pm + 0.5j * (g * em + omega_a * s)
    d_s = -(0.5 * m.gamma_spin + 1j * state.deltas[j]) * s \
        + 0.5j * (omega_c.conjugate() * pp + omega_a.conjugate() * pm)
    return d_pp, d_pm, d_s


class _Propagator:
    """One RK4 step of every cell's field-atom system as a per-cell operator.

    The drives are uniform in z, so a step is the same linear map R in every
    cell, acting on the cell's vector y = (E+, E-, x) with x the K classes'
    (P+, P-, S).  Tracing the four RK4 stages gives R exactly as

        x' = D_k x_k + A_k (V y),    (E+, E-)' = F (V y),

    D_k the per-class 3x3 RK4 polynomial of the stage matrices, and
    V y = (E+, E-, W x) ten functionals: the two fields and, per stage, the
    weighted sums (i/2) sqrt(g2n) sum_k w_k D_s,k[:2] x_k that source the
    fields.  Each operator is held transposed in real form, each complex
    entry c a block [[Re c, -Im c], [Im c, Re c]] in interleaved order, so
    that advance runs on the float view of the cell-major state, one row
    per cell: W x, A (V y) and F (V y) as BLAS products and D x as one
    batched (K, M, 6) @ (K, 6, 6) product.  The sizes follow the state:
    rank is the count of functionals, channels that of the fields.

    R depends on the step's six drive samples.  Both optical rates are the
    same for every class (the drives are resonant), so a class enters the
    stage matrices only through its spin rate u_k = -(gamma_spin/2 +
    i delta_k), linearly: every entry of D_k, A_k and W's rows is a
    polynomial of degree <= 4 in u_k, and F needs only the moments
    (i/2) sqrt(g2n) sum_k w_k u_k^p.  build traces the stages for a set of
    steps on coefficients over u^p, and load evaluates a step's operator
    from them with two float products (see _table).

    A half system (see _halve) has real fields and one class of each +/-
    pair, weighted 2 w, so V y is real and its operators are slices of the
    full ones: D_k of the kept classes, the Re-input rows of A and F and
    the Re-output columns of W and F, 0.29 of the flops.  Its F reads the
    moments of the whole class set.  build slices its tables, so that load
    runs at half size.  On a half system, advance_block applies the loaded
    operator over a stretch of steps at once.  Within a block the atoms
    answer to the advected fields alone, through Dc = D + W A_s, so each
    of its steps makes only the fields, a product as many columns wide as
    there are fields.  The transpose of a half system's step is a step of
    the same form, whose fields move the other way, at rank r + c:
    transposed makes its propagator, which a sweep's adjoint pass runs in
    blocks (see _held_records).

    A dark half system (see _dark) has no E- and no P-: y = (E+, x) with x
    the kept classes' (P+, S), and V y = (E+, W x) five functionals, the
    field and its source per stage.  build traces its rows P+ and S over
    the columns they read (70 complex coefficients per step against 195),
    and every method runs at that size: D x as (K, M, 4) @ (K, 4, 4), and
    4 floats per class in the products, against 6.
    """

    POWERS = 5   # u^0 .. u^4: each of the four stages is linear in u

    def __init__(self, m: MediumParams, state: SimState):
        self.dt = state.grid.dz / m.c
        cells, k, parts = state.a.shape  # parts: P+, P- and S, or P+ and S
        self.half = not np.iscomplexobj(state.f)  # a half system (see _halve)
        # the field channels, E+ and E- or on a dark system E+ alone (see
        # _dark), and the rank: the fields plus their sources per RK4 stage
        self.channels = parts - 1
        self.rank = 5 * self.channels
        # each field's move (see _ADVECT) and the cell where E+ enters
        self.moves, self.entry = _ADVECT[:self.channels], 0
        # floats per cell of the fields and of V y, real in a half system,
        # and per class of the atoms
        nf, ny = ((self.channels, self.rank) if self.half
                  else (2 * self.channels, 2 * self.rank))
        na = 2 * parts
        self.half_g = 0.5j * math.sqrt(m.g2n)
        # the P+ and P- rows of _class_rates, which no class changes
        self.optical = -0.5 * m.gamma_opt
        spin = -_class_rates(m, state.deltas)[2]
        powers = np.ones((k, self.POWERS), dtype=complex)  # u_k^p
        for p in range(1, self.POWERS):
            powers[:, p] = powers[:, p - 1] * spin
        # Re and Im of u_k^p (K, 2 POWERS), plain and times the field source
        self._powers = np.hstack([powers.real, powers.imag])
        # F needs the whole class set's moments: a half system's pairs sum to
        # the real part of its own terms, their weights 2 w holding the 2
        moments = (powers * state.weights[:, None]).sum(axis=0).real
        powers *= self.half_g * state.weights[:, None]
        self._moments = self.half_g * moments if self.half else powers.sum(axis=0)
        self._source_powers = np.hstack([powers.real, powers.imag])
        # the operator: D_k^T (K, na, na) and A^T (ny, na K), from one load
        # product, W^T (na K, ny - nf) and F^T (ny, nf)
        self._da = np.empty((na + ny, k, na))
        self.d = self._da[:na].swapaxes(0, 1)
        self.a_op = self._da[na:].reshape(ny, na * k)
        self.w = np.empty((na * k, ny - nf))
        self.f_op = np.empty((ny, nf))
        self._block = None  # advance_block's operators and work areas
        self._block_loaded = False  # whether its operators are the loaded one's
        # work areas: the functionals V y, and the per-class part D_k x_k
        # of x' (the coupling part A (V y) is written into the atoms)
        self._phi = np.empty((cells, self.rank), dtype=float if self.half else complex)
        self._dx = np.empty((cells, k, na))
        self._bound = (None, None)  # state.f, state.a, then the views of _views

    def build(self, omega_c: np.ndarray, omega_a: np.ndarray) -> tuple:
        """The operators of n steps, as coefficients over u^p.

        omega_c and omega_a are (n, 3): each row holds a step's drive at its
        three half steps (see _step_reads); a dark system reads omega_c
        alone, its A being zero.  Returns (da, w, f), one row per
        step: the _tables of [D | A] and of W's rows before the classes'
        source, and F^T in real form.  A linear map of y is traced as
        t = [D | A] and f: its x-part is D x_k + A (V y), its field part
        f (V y).  Each stage's slope L_s y_s of the stage input y_s is again
        of that form, with the field sources of y_s as two new functionals;
        its S row gains a power of u.  The steps never mix, so a step's row
        does not depend on the other rows or on its place among them.
        """
        n = len(omega_c)
        h, r, p, c = self.dt, self.rank, self.POWERS, self.channels
        # while tracing, t is (row P+/P-/S, step, power, column): each row
        # is one contiguous block, and the steps broadcast from 1 to n; a
        # dark system traces only its rows P+ and S and the columns they read
        one_t = np.zeros((c + 1, 1, p, c + 1 + r), dtype=complex)
        one_t[np.arange(c + 1), 0, 0, np.arange(c + 1)] = 1.0
        one_f = np.eye(c, r, dtype=complex)[:, None]
        t, f = one_t, one_f
        sum_t = np.zeros((c + 1, n, p, c + 1 + r), dtype=complex)
        sum_f = np.zeros((c, n, r), dtype=complex)
        slope = np.empty_like(sum_t)
        w = np.empty((n, p, c + 1, r - c), dtype=complex)  # W^T
        # the stage matrices' drive entries at each half step: (i/2) Omega
        # into P+ and P-, and (i/2) Omega* from them into S
        into_p = 0.5j * np.stack([omega_c, omega_a][:c])[..., None, None]
        into_s = -into_p.conj()
        stages = ((0, 0.5, 1.0), (1, 0.5, 2.0), (1, 1.0, 2.0), (2, 0.0, 1.0))
        for s, (at, to_next, weight) in enumerate(stages):
            # slope: x-part B_s x_s + G e_s, field part the sources of x_s
            np.multiply(self.optical, t[:c], out=slope[:c])
            slope[:c] += into_p[:, :, at] * t[c]
            np.multiply(into_s[0, :, at], t[0], out=slope[c])
            if c > 1:
                slope[c] += into_s[1, :, at] * t[1]
            slope[c, :, 1:] += t[c, :, :-1]  # u S
            slope[:c, :, 0, c + 1:] += self.half_g * f
            w[..., c * s:c * s + c] = t[:c, ..., :c + 1].transpose(1, 2, 3, 0)
            slope_f = self._moments @ t[:c, ..., c + 1:]
            slope_f[..., c * s + c:c * s + 2 * c] += one_f[..., :c]
            sum_t += weight * slope
            sum_f += weight * slope_f
            if to_next:
                t = one_t + to_next * h * slope
                f = one_f + to_next * h * slope_f
        # [D | A]^T (n, column, power, row), and F^T's pair [F^T, i F^T]
        t = np.ascontiguousarray((one_t + h / 6.0 * sum_t).transpose(1, 3, 2, 0))
        f = np.multiply((one_f + h / 6.0 * sum_f).transpose(1, 2, 0)[:, :, None],
                        np.array([1.0, 1j])[:, None], order="C")
        na = 2 * (c + 1)  # floats per class
        da = _table(t, 2, 3).reshape(n, na + 2 * r, 2 * p, na)
        w = _table(w, 4, 1).reshape(n, 1, 2 * p, -1)
        f = f.view(float).reshape(n, 2 * r, 2 * c)
        if self.half:
            # real fields: the Re-input rows of A and F and the Re-output
            # columns of W and F; D acts on the atoms, still complex
            return da[:, np.r_[:na, na:na + 2 * r:2]], w[..., ::2].copy(), f[:, ::2, ::2]
        return da, w, f

    def load(self, table: tuple, row: int) -> None:
        """Set (d, w, a_op, f_op) to the operator of step `row` of a build."""
        da, w, f = table
        np.matmul(self._powers, da[row], out=self._da)
        np.matmul(self._source_powers, w[row],
                  out=self.w.reshape(1, -1, w.shape[-1]))
        self.f_op[:] = f[row]
        self._block_loaded = False

    def _views(self, state: SimState) -> tuple:
        """The float views of state.f (M, 4; a half system's real f is its
        own, (M, 2) or dark (M, 1)), state.a's rows (M, na K) and batch
        (K, M, na), with na = 6, or 4 on a dark system, y, y's
        sources and D x's rows and batch, made again only when state.f or
        state.a is another array: one that is not C-contiguous, of the
        grid's and classes' shape and of the propagator's dtype is a
        ValueError."""
        if self._bound[0] is not state.f or self._bound[1] is not state.a:
            cells, k, na = self._dx.shape
            c = self.channels
            for name, shape, dtype in (("f", (cells, c), self._phi.dtype),
                                       ("a", (cells, k, c + 1), np.dtype(complex))):
                arr = getattr(state, name)
                c_order = arr.flags.c_contiguous
                if (arr.shape, arr.dtype, c_order) != (shape, dtype, True):
                    order = "C" if c_order else "F" if np.isfortran(arr) else "no"
                    raise ValueError(f"state.{name} is {arr.dtype} {arr.shape} in "
                                     f"{order} order, not C-contiguous {dtype} {shape}")
            x, y = state.a.view(float).reshape(cells, na * k), self._phi.view(float)
            f = state.f.view(float)
            self._bound = (state.f, state.a, f, x,
                           x.reshape(cells, k, na).swapaxes(0, 1), y, y[:, f.shape[1]:],
                           self._dx.reshape(cells, na * k), self._dx.swapaxes(0, 1))
        return self._bound[2:]

    def advance(self, state: SimState, n: int, inject_plus: complex,
                inject_minus: complex) -> None:
        """Advance the state in place by one step, to t = n dt.

        E+ shifts one cell toward +z and takes inject_plus at z = 0, E- one
        cell toward -z and takes inject_minus at z = 1.  Then every cell
        takes one classical RK4 step of its field-atom system over dt, the
        fields acting as local variables coupled to their cell's atoms, with
        the drives of the loaded operator.
        """
        f_float, x, x_batch, y, sources, dx_rows, dx_batch = self._views(state)
        f, phi = state.f, self._phi
        # advect into the field functionals, then the sources W x
        phi[1:, 0] = f[:-1, 0]
        phi[0, 0] = inject_plus
        if self.channels > 1:  # a dark system has no E- (see _dark)
            phi[:-1, 1] = f[1:, 1]
            phi[-1, 1] = inject_minus
        np.matmul(x, self.w, out=sources)
        np.matmul(x_batch, self.d, out=dx_batch)
        np.matmul(y, self.a_op, out=x)
        np.add(x, dx_rows, out=x)
        np.matmul(y, self.f_op, out=f_float)
        state.t = n * self.dt

    def advance_block(self, state: SimState, n: int, inject: np.ndarray,
                      longest: int) -> None:
        """Advance a half system in place by q = len(inject) steps of the
        loaded operator, to t = n dt, E+ taking inject[i] at its entry cell
        and E- nothing: what q advance calls with inject_plus = inject[i]
        do, to rounding, or q steps of a transposed step (see transposed).
        longest >= q, the longest block of the run, sizes the work areas
        and the operators, which are made once per loaded operator.

        Over such a stretch every step maps the atoms x and the field
        functionals y = (advected fields e, sources x W) as x' = x D + y A
        and f' = y F.  With A_f, A_s and F_f, F_s the rows of A and F that
        the fields and the sources read, x' = x Dc + e A_f, where Dc = D +
        W A_s is one step's atom map at zero incoming field.  So the atoms
        answer to the fields alone, and from the stretch's start x_0, with
        P_l = x_0 Dc^l W,

            f_(i+1) = e_i F_f + P_i F_s + sum_(l<i) e_l A_f Dc^(i-1-l) W F_s,
            x_q = x_0 D^q + sum_(l<q) (e_l A_f Dc^(q-1-l) + P_l A_s D^(q-1-l)),

        the last as Dc^q = D^q + sum_l Dc^l W A_s D^(q-1-l).  The P_l of
        all q steps take one product of x_0 with [W, Dc W, ...]; each step
        then runs the fields alone: one product of the history (e_0, P_0
        .. e_i, P_i) with a stack c columns wide, c the count of fields,
        gives f_(i+1), and the atoms take one product at the end.  The same
        map with the sums regrouped, so the rounding differs from advance's.
        """
        q = len(inject)
        if self._block is None or len(self._block[4]) != longest:  # its slots
            self._make_block(longest)
        if not self._block_loaded:
            self._load_block()
        f_float, x, x_batch, *_, dx_rows, dx_batch = self._views(state)
        history, stacks, powers, sources, slots, out = self._block
        r, c = self.rank, self.channels
        ns, cells = r - c, len(history)
        s0 = sources[:cells * ns * q].reshape(cells, ns * q)  # the P_l
        # OpenBLAS sums a product alike on 1 and 2 threads when its column
        # count is a multiple of 8 (measured); the last ns q % 8 columns
        # take a product of their own, too small to be threaded
        whole = ns * q - ns * q % 8
        np.matmul(x, stacks[0][:, :whole], out=s0[:, :whole])
        if whole < ns * q:
            np.matmul(x, stacks[0][:, whole:ns * q], out=s0[:, whole:])
        history.reshape(cells, -1, r)[:, :q, c:] = s0.reshape(cells, q, ns)
        for j, (to, fro) in enumerate(self.moves):
            history[to, j] = f_float[fro, j]
        history[self.entry, 0:r * q:r] = inject  # E+ enters each step
        for y_to_i, g, moves in slots[:q]:
            np.matmul(y_to_i, g, out=out)
            for to, value in moves:
                to[...] = value
        f_float[:] = out
        np.matmul(x_batch, powers[q - 1], out=dx_batch)
        np.matmul(history[:, :r * q], stacks[2][-r * q:], out=x)
        np.add(x, dx_rows, out=x)
        state.t = n * self.dt

    def _make_block(self, longest: int) -> None:
        """Make advance_block's work areas and operator arrays for blocks of
        up to Q = longest steps, with r the rank, c of its functionals the
        fields, ns = r - c the sources and na the floats per class: the
        history, (e_l, P_l) of l = 0 .. Q-1 and e_Q; [W, Dc W, ..,
        Dc^(Q-1) W] (na K, ns Q); the history's stack g (r Q + r, c), the
        rows [A_f Dc^j W F_s; 0] of j = Q-1 .. 0, then F's for (e_i, P_i);
        the rows [A_f Dc^j; A_s D^j] of j = Q-1 .. 0 (r Q, na K); D^1 ..
        D^Q; the P_l; per step its views; and f_(i+1)."""
        cells, k, na = self._dx.shape
        r, c, nq = self.rank, self.channels, longest
        ns = r - c
        history = np.zeros((cells, r * (nq + 1)))
        g = np.zeros((r * nq + r, c))
        out = np.empty((cells, c))
        self._block = (
            history, (np.empty((na * k, ns * nq)), g, np.empty((r * nq, na * k))),
            np.empty((nq, k, na, na)), np.empty(cells * ns * nq),
            # per step i: its history, its rows of g, and where the next
            # step's advected fields go, from out
            [(history[:, :r * i + r], g[r * (nq - i):],
              [(history[to, r * i + r + j], out[fro, j])
               for j, (to, fro) in enumerate(self.moves)]) for i in range(nq)],
            out)
        self._block_loaded = False

    def _load_block(self) -> None:
        """Make advance_block's operators of the loaded operator for blocks
        of up to Q steps (see _make_block): Dc^j W and A_f Dc^j from those
        of j - 1, through per-class products of the D_k and, for W A_s,
        products with A Dc^(j-1) W (r, ns)."""
        _, (dw_rows, g, ad_rows), powers, _, slots, _ = self._block
        _, k, na = self._dx.shape
        r, c, nq = self.rank, self.channels, len(slots)
        ns = r - c
        a_dw = np.empty((r, ns))
        dw = dw_rows.reshape(k, na, nq, ns)
        ad = ad_rows.reshape(nq, r, k, na).transpose(0, 2, 1, 3)  # (Q, K, r, na)
        dw[:, :, 0] = self.w.reshape(k, na, ns)
        ad[-1] = self.a_op.reshape(r, k, na).swapaxes(0, 1)
        powers[0] = self.d
        g[-r:] = self.f_op
        for j in range(nq):
            at = r * (nq - 1 - j)  # the rows of j in g and ad_rows
            if j:  # a_dw holds A Dc^(j-1) W
                np.matmul(self.d, dw[:, :, j - 1], out=dw[:, :, j])
                dw_rows[:, ns * j:ns * j + ns] += self.w @ a_dw[c:]
                np.matmul(ad[nq - j], self.d, out=ad[nq - 1 - j])
                ad_rows[at:at + c] += a_dw[:c] @ self.a_op[c:]
                np.matmul(powers[j - 1], self.d, out=powers[j])
            np.matmul(self.a_op, dw_rows[:, ns * j:ns * j + ns], out=a_dw)
            np.matmul(a_dw[:c], self.f_op[c:], out=g[at:at + c])
        self._block_loaded = True

    def transposed(self) -> "_Propagator":
        """A propagator of the loaded step's transpose, for advance_block
        alone: its own operators and work areas, made from the loaded
        operator's, and no build or load tables.

        A step L = R Adv moves the fields a cell (Adv), then maps each
        cell's advected fields e and atoms x by R: f' = y F and x' = x D +
        y A, with y = (e, x W) and A_f, A_s and F_f, F_s the rows of A and
        F that e and x W read.  Its transpose L^T = Adv^T R^T maps the
        covectors (phi, eta) of (f', x'): R^T to phi F_f^T + eta A_f^T, that
        of e, and eta D^T + (phi F_s^T + eta A_s^T) W^T, that of x; Adv^T
        moves each field's covector a cell back, E+'s out at z = 0.  The
        step T = R^T Adv^T, whose move lets E+'s covector in at the last
        cell, is again of advance_block's form, at rank r + c:

            D' = D^T per class,  W' = [A_s^T | A_f^T],
            A' = [F_s^T W^T; W^T; 0],  F' = [F_f^T; 0; I_c],

        with y' = (phi moved back, eta A_s^T, eta A_f^T).  Its powers are
        those of L^T moved by one Adv^T, Adv^T T^n = (L^T)^n Adv^T, so
        (T^n h) . (Adv x) = (Adv^T h) . (L^n x) in the dot product of the
        float views (see _held_records)."""
        r, c = self.rank, self.channels
        cells, k, na = self._dx.shape
        back = _Propagator.__new__(_Propagator)
        back.dt, back.half, back.channels, back.rank = self.dt, True, c, r + c
        back.moves, back.entry = _ADVECT[::-1][:c], -1
        back.d = np.ascontiguousarray(self.d.swapaxes(1, 2))
        back.w = np.hstack([self.a_op[c:].T, self.a_op[:c].T])
        back.a_op = np.zeros((r + c, na * k))
        np.matmul(self.f_op[c:].T, self.w.T, out=back.a_op[:c])
        back.a_op[c:r] = self.w.T
        back.f_op = np.zeros((r + c, c))
        back.f_op[:c] = self.f_op[:c].T
        back.f_op[r:] = np.eye(c)
        back._phi = np.empty((cells, r + c))
        back._dx = np.empty_like(self._dx)
        back._block, back._block_loaded, back._bound = None, False, (None, None)
        return back


def _table(c: np.ndarray, pair_at: int, re_im_at: int) -> np.ndarray:
    """Float load table from c, the coefficients of u^p in matrices C^T.

    C's real form, transposed, is the float view of [C^T, i C^T], and
    u^p c = Re(u^p) c + Im(u^p) i c, so the table holds c, i c, i c and -c:
    one float product of a class's row of Re u^p and Im u^p with it writes
    the real form.  The pair's axis goes to pair_at, Re/Im's to re_im_at.
    """
    shape = list(c.shape)
    for at in sorted((pair_at, re_im_at)):
        shape.insert(at, 2)
    table = np.empty(shape, dtype=complex)
    index = [slice(None)] * len(shape)
    ic = 1j * c
    for i, j, part in ((0, 0, c), (0, 1, ic), (1, 0, ic), (1, 1, -c)):
        index[pair_at], index[re_im_at] = i, j
        table[tuple(index)] = part
    return table.view(float)


def _held_records(starts: Sequence[SimState], lengths: Sequence[int],
                  held: tuple[np.ndarray, np.ndarray], m: MediumParams,
                  every: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Records (t, |E+(1)|^2) of held stretches, from one adjoint pass.

    State b, which halves (see _halve), sits at a record step s_b of
    run_dynamics (a multiple of `every`) and goes on for lengths[b] steps,
    each with the drive rows `held` (C and A of one step, see _step_reads)
    and nothing injected, so each step applies the one map L to its half
    system x_b.  Its E+(1) after n of them, real there, is e . L^n x_b in
    the dot product of the float views, with e picking E+ in the last
    cell.  The pass runs the transposed step T (see _Propagator.transposed)
    from h_0 = 0 and lets e in on its first step alone, so that Adv^T h_n
    = (L^T)^n e: h_n . Adv x_b is that E+(1), with Adv one move of the
    fields with nothing injected.  So one recursion serves every state: at
    each n that is a multiple of `every`, every state reads its E+(1) from
    h_n, all in one product, and keeps the reads its stretch reaches.
    Between two reads the pass takes the `every` steps in advance_block's
    blocks, those that a forward run takes there, _interval_blocks.  Only
    the current h_n is held, and the pass ends at its last read.  With A
    zero in `held`, L maps E- and P- into themselves alone, so h_n never
    reaches them: the pass runs on the dark system and reads each start's
    E+, P+ and S, whatever its E- and P- (see _dark).  The first read that
    gives a non-finite record to a stretch that still reads ends the pass:
    it raises NumericalAbort there, blaming the first such stretch, as the
    forward run would, and numpy warns of no overflow.
    """
    starts = [_halve(x, *held) for x in starts]
    if not held[1].any():
        starts = [_dark(x) for x in starts]
    x = starts[0]
    prop = _Propagator(m, x)
    prop.load(prop.build(*held), 0)
    back = prop.transposed()
    # h's real fields and its atoms' Re and Im pairs are views of one
    # float vector; each start's row is the same vector of it, Adv x_b
    flat = np.zeros(x.f.size + 2 * x.a.size)
    h = SimState(x.t, flat[:x.f.size].reshape(x.f.shape),
                 flat[x.f.size:].view(complex).reshape(x.a.shape), x.grid,
                 x.deltas, x.weights)
    rows = np.zeros((len(starts), flat.size))
    for row, x in zip(rows, starts):
        fields = row[:x.f.size].reshape(x.f.shape)
        for j, (to, fro) in enumerate(prop.moves):
            fields[to, j] = x.f[fro, j]
        row[x.f.size:] = x.a.reshape(-1).view(float)
    counts = np.array([n // every for n in lengths])
    blocks = _interval_blocks(every)
    inject = np.zeros(blocks[0])
    inject[0] = 1.0  # e, on the pass's first step alone
    reads = np.zeros((counts.max(), len(starts)))
    n = 0  # the pass's steps
    with np.errstate(over="ignore", invalid="ignore"):  # the read check reports
        for j, read in enumerate(reads):
            for q in blocks:
                n += q
                back.advance_block(h, n, inject[:q], blocks[0])
                inject[0] = 0.0
            # einsum sums in its own loop: a BLAS dot would split the sum
            # by thread count and change the last digits with it
            np.einsum("bi,i->b", rows, flat, out=read)
            # a finite sum of squares clears every record of the read
            if not math.isfinite(read @ read):
                bad = ~np.isfinite(read ** 2) & (counts > j)
                if bad.any():
                    x = starts[bad.argmax()]
                    t = (_step_index(x.t, prop.dt) + every * (j + 1)) * prop.dt
                    raise NumericalAbort(f"non-finite E+(1) at t={t:.6g} us, in "
                                         f"the held stretch from t={x.t:.6g} us")
    records = []
    for x, count, read in zip(starts, counts, reads.T):
        n = _step_index(x.t, prop.dt) + every * np.arange(1, count + 1)
        records.append((n * prop.dt, np.abs(read[:count]) ** 2))
    return records


def step(state: SimState, drive: ControlDrive, m: MediumParams, dt: float, *,
         inject_plus: complex = 0.0j, inject_minus: complex = 0.0j,
         boundary: str = "open") -> SimState:
    """Advance the state by one step of exactly dt = dz/c.

    The fields advect by one cell (exact upwind transport), then every
    cell runs a 4th-order local update of its atomic amplitudes together
    with the source deposition into the local fields.  The state must sit
    on the global step grid t = n dt; it is sampled and advanced exactly
    as step n + 1 of run_dynamics and leaves at t = (n + 1) dt.  With
    boundary "periodic" each field's exit value re-enters at its entry
    cell and the injections are ignored; "open" injects them.  Mutates
    and returns `state`.  Raises CFLViolation unless c*dt == dz to within
    1e-9 relative, ValueError for another boundary, an off-grid t or an f
    or a of another shape or order, NumericalAbort if it stops being finite.
    step() always integrates the full system: its calls equal a
    run_dynamics run bit for bit where that run does too, and agree to
    rounding where it integrates the half system (see _halve).
    """
    dz = state.grid.dz
    if not abs(m.c * dt - dz) <= 1e-9 * dz:  # also false for a NaN dt
        raise CFLViolation(f"exact one-cell advection requires c*dt == dz; got "
                           f"c*dt = {m.c * dt:.6g}, dz = {dz:.6g}")
    if boundary == "periodic":
        inject_plus, inject_minus = state.f[-1, 0], state.f[0, 1]
    elif boundary != "open":
        raise ValueError(f"boundary must be 'open' or 'periodic', got {boundary!r}")
    inputs = (m, state.grid, state.deltas.tobytes(), state.weights.tobytes())
    if state._kept is None or state._kept[0] != inputs:
        state._kept = (inputs, _Propagator(m, state), None)
    _, prop, held = state._kept
    n = _step_index(state.t, prop.dt)
    h, k = 0.5 * prop.dt, 2 * n  # the times that _step_reads samples for step n
    samples = (drive.sample(h * k) + drive.sample(h * (k + 1))
               + drive.sample(h * (k + 2)))  # (C, A) at each of the three
    if samples != held:
        prop.load(prop.build(np.array([samples[0::2]]), np.array([samples[1::2]])), 0)
        state._kept = (inputs, prop, samples)
    prop.advance(state, n + 1, inject_plus, inject_minus)
    state.check_finite()
    return state


def run_dynamics(sequence, m: MediumParams, grid: Grid,
                 classes: Sequence[SpectralClass], *,
                 initial_state: SimState | None = None,
                 snapshot_steps: Sequence[int] = (),
                 until_step: int | None = None,
                 _check_probe: bool = True,
                 ) -> tuple[DetectorTrace, list[SimState]]:
    """Run a pulse sequence and record the exit intensities.

    `sequence` provides events, t_end_us, sample_rate, probe_duration_us,
    writing_omega_c, probe_samples(t) and drive_samples(t) (see
    experiment.PulseSequence); the run ends at its t_end_us.  Returns the
    detector trace |E+(1,t)|^2, |E-(0,t)|^2 and the spin-coherence norm,
    plus state snapshots: one after each global step index in
    snapshot_steps that the run completes, and always the final state.
    E+ is injected at z=0 from the probe channel; nothing into E-.

    Steps lie on the global grid t = n dt (dt = dz/c), and the state's t
    is set to n dt after step n.  A run resumed from `initial_state`,
    which must sit on that grid, on `grid` and on `classes` (the same
    detunings and weights), samples its drives at the same half steps and
    records and snapshots on the same step indices, so resuming from a
    snapshot reproduces the uninterrupted run bit for bit; a state
    already at t_end_us runs no step.  until_step stops the run after
    that global step, short of t_end_us.  _check_probe=False leaves the
    probe-resolution warning to a sweep that raises it once for all its
    points.  A state that stops being finite raises NumericalAbort at the
    next check, at the end of each block or stretch of single steps that
    reaches a multiple of _FINITE_CHECK_EVERY, and at the end; numpy warns
    of no overflow on the way.

    A conjugate-symmetric run (real drives and probe, +/- paired classes
    and a mirrored starting state, see _halve) integrates its half system
    and expands each snapshot and the final state to a full state, mirrored
    exactly.  Resuming from one halves it back to the same half state.
    From a start with no E- or P-, a half run integrates the dark system
    (see _dark) up to the first step that reads a nonzero A, or to its end
    if none does, and its states there have E- and P- exactly 0.  That
    step loads an operator, so it starts a block; the run pads the state
    there with exact zeros and integrates the half system on.  Each of
    these segments takes the system that _halve picks from its own reads.
    Every system walks the block starts of _block_starts, the full one in
    single steps; a half one steps from each to the next as one block
    (see _Propagator.advance_block), or as single steps when they are
    fewer than _SHORTEST_BLOCK.  No block is longer than the first of
    _interval_blocks, so a record interval of up to _BLOCK_STEPS steps
    with no changed step is one block.  A snapshot step starts a block,
    and the split follows from the reads and global step indices alone,
    so resumes are bitwise on every path, with one exception: a snapshot
    after the first A step whose E- and P- are still exactly 0 (A came
    before any light) resumes dark up to the next A step, where the
    uninterrupted run was half, and agrees with it to rounding.
    """
    dt = grid.dz / m.c
    if initial_state is None:
        state = SimState.zeros(grid, classes)
    else:
        _check_initial_state(initial_state, grid, classes)
        state = initial_state.copy()
    n0 = _step_index(state.t, dt)
    n_total = int(round(float(sequence.t_end_us) / dt))
    n_steps = n_total - n0
    if n_total < 1 or n_steps < 0:
        raise ValueError(f"t_end_us {sequence.t_end_us} is shorter than one "
                         f"step {dt} or ends before t = {state.t}")
    if until_step is not None:
        if not n0 <= until_step <= n_total:
            raise ValueError(f"until_step {until_step} is outside the run's "
                             f"steps {n0}..{n_total}")
        n_total, n_steps = until_step, until_step - n0
    omega_c, omega_a, probe = _step_reads(sequence, dt, n0, n_total)
    if _check_probe:
        _check_probe_resolution(sequence, m, grid)
    every = _record_every(sequence, dt)
    snap_steps = {n for n in snapshot_steps if n0 < n <= n_total}
    snapshots: list[SimState] = []
    records = array("d")  # (t, |E+(1)|^2, |E-(0)|^2, spin norm) per record

    def record() -> None:
        f = state.f  # a dark system has no E- (see _dark)
        records.extend((state.t, abs(f[-1, 0]) ** 2,
                        abs(f[0, 1]) ** 2 if f.shape[1] > 1 else 0.0,
                        state.spin_norm()))

    # a step whose drive rows differ from its predecessor's (always the
    # first) loads its own operator, built with those of the next
    # _CHUNK_STEPS - 1 such steps of its segment
    rebuild = np.ones(n_steps, dtype=bool)
    rebuild[1:] = _differ((omega_c[1:], omega_a[1:]), (omega_c, omega_a))
    # only the changed steps' rows are read again; the others are let go
    changed = np.flatnonzero(rebuild)
    omega_c, omega_a = omega_c[changed], omega_a[changed]
    # the cut: the first step that reads a nonzero A, a changed step
    lit = omega_a.any(axis=1)
    cut = changed[lit.argmax()] if lit.any() else n_steps

    def segment(i: int, whole: SimState) -> tuple:
        """The segment from step i, given its full state `whole`: that
        state on the system that the segment's reads pick (see _halve), its
        probe, its propagator and the step that ends it.  A half system
        from before the cut, dark if its E- and P- are 0, ends at the cut;
        the full system and any segment from the cut run to the end."""
        end = cut if i < cut else n_steps
        rows = slice(*np.searchsorted(changed, (i, end)))
        half = _halve(whole, omega_c[rows], omega_a[rows], probe[i:end])
        if half is None:
            return whole, probe, _Propagator(m, whole), n_steps
        return half, probe.real, _Propagator(m, half), end

    state, inject, prop, stop = segment(0, state)
    built, table = 0, None  # changed steps loaded; the segment's last build
    starts = np.flatnonzero(_block_starts(n0, rebuild, every, snap_steps)).tolist()
    longest = _interval_blocks(every)[0]
    with np.errstate(over="ignore", invalid="ignore"):  # check_finite reports
        # steps on the multiples of `every` record, those of a resumed run too
        if n0 % every == 0:
            record()
        for i, end in zip(starts, starts[1:] + [n_steps]):
            if i == stop:  # let the last system's arrays go first
                table = prop = None
                state, inject, prop, stop = segment(i, _expand(state))
            if rebuild[i]:
                if table is None or row == len(table[0]):
                    chunk = slice(built, min(built + _CHUNK_STEPS,
                                             np.searchsorted(changed, stop)))
                    table, row = prop.build(omega_c[chunk], omega_a[chunk]), 0
                prop.load(table, row)
                built, row = built + 1, row + 1
            n = n0 + end  # global index of the step that ends the block
            if prop.half and end - i >= _SHORTEST_BLOCK:
                prop.advance_block(state, n, inject[i:end], longest)
            else:
                for j in range(i, end):
                    prop.advance(state, n0 + j + 1, inject[j], 0.0)
            if n % every == 0:
                record()
            if n // _FINITE_CHECK_EVERY > (n0 + i) // _FINITE_CHECK_EVERY:
                state.check_finite()
            if n in snap_steps:
                snapshots.append(_expand(state) if prop.half else state.copy())
        state.check_finite()
    snapshots.append(_expand(state) if prop.half else state)

    columns = np.frombuffer(records).reshape(-1, 4).T.copy()
    return DetectorTrace(*columns), snapshots


def _step_reads(sequence, dt: float, n0: int, n1: int) -> tuple:
    """What global steps n0..n1-1 of `sequence` read: C and A as (n, 3)
    read-only rows, step n's drives at the half steps 2n, 2n+1 and 2n+2
    that its RK4 stages read, and the probe it injects, at 2n.  Half step k
    is at 0.5*dt*k, which depends on k alone, so a resumed run and a
    branch-point search read the very values an uninterrupted run reads."""
    t = 0.5 * dt * np.arange(2 * n0, 2 * n1 + 1)
    rows = [as_strided(s, (n1 - n0, 3), (2 * s.strides[0], s.strides[0]),
                       writeable=False) for s in sequence.drive_samples(t)]
    return (*rows, sequence.probe_samples(t[:-1:2]))


_MIRROR = np.array([-1.0, -1.0, 1.0])  # class -delta's (P+, P-, S) from class delta's


def _halve(state: SimState, *reads: np.ndarray) -> SimState | None:
    """The half system of a conjugate-symmetric run, or None.

    With real drives and probe (`reads`: C, A and the probe, or the first
    of them, see _step_reads), a class set of +/- pairs (K even, deltas ==
    -deltas[::-1], weights == weights[::-1]) and a state of real fields
    whose class -delta holds (-P+*, -P-*, S*) of class delta, every step
    keeps the fields real and the pairs mirrored.  The half system is such
    a state's real fields with the first K/2 classes, weighted 2 w; _expand
    expands it back.  It is dark (see _dark) when the reads include A, A
    is zero throughout and so are the state's E- and P-: they then stay 0.
    run_dynamics asks once per segment, from that segment's reads."""
    d, w, a, k = state.deltas, state.weights, state.a, len(state.deltas) // 2
    if (len(d) % 2 or not np.array_equal(d, -d[::-1])
            or not np.array_equal(w, w[::-1])
            or any(x.imag.any() for x in (state.f, *reads))
            or not np.array_equal(a[:, k:], a[:, :k][:, ::-1].conj() * _MIRROR)):
        return None
    half = SimState(state.t, state.f.real.copy(), a[:, :k].copy(), state.grid,
                    d[:k].copy(), 2.0 * w[:k])
    dark = (len(reads) > 1 and not reads[1].any()
            and not (state.e_minus.any() or state.p_minus.any()))
    return _dark(half) if dark else half


def _dark(half: SimState) -> SimState:
    """The dark system of a half system: its E+, (M, 1), and each class's
    P+ and S, (M, K/2, 2).  With A zero, E- and P- neither feed nor are fed
    by them, so a run from zero E- and P- integrates these alone, at rank 5
    (see _Propagator), up to its first step that reads a nonzero A (see
    run_dynamics).  Also the dark system of a dark system."""
    return SimState(half.t, half.f[:, :1].copy(), half.a[..., [0, -1]],
                    half.grid, half.deltas, half.weights)


def _expand(half: SimState) -> SimState:
    """The full state of a half system (see _halve): its classes, then
    their mirrors, each of weight w, exactly as the full state had them; a
    dark system's E- and P- are 0."""
    d, w, a = half.deltas, 0.5 * half.weights, half.a
    cells, k, parts = a.shape
    f = np.zeros((cells, 2), dtype=complex)
    f[:, :parts - 1] = half.f
    full = np.zeros((cells, k, 3), dtype=complex)
    full[..., ::4 - parts] = a  # (P+, P-, S), or a dark system's (P+, S)
    return SimState(half.t, f,
                    np.concatenate([full, full[:, ::-1].conj() * _MIRROR], axis=1),
                    half.grid, np.concatenate([d, -d[::-1]]),
                    np.concatenate([w, w[::-1]]))


def _differ(ours: tuple, theirs: tuple) -> np.ndarray:
    """Per step of `ours`, whether its reads (see _step_reads) differ from
    `theirs`: the reads of as many steps or more, or of one step, which
    broadcasts.  Compared column by column, faster than by strided rows."""
    differ = np.zeros(len(ours[0]), dtype=bool)
    for a, b in zip(ours, theirs):
        for x, y in zip(np.atleast_2d(a.T), np.atleast_2d(b.T)):
            differ |= x != y[:len(x)]
    return differ


def _block_starts(n0: int, changed: np.ndarray, every: int,
                  snaps=()) -> np.ndarray:
    """Per step n0 + i of a run, whether a block starts there: at a step
    whose drive rows change (changed; always the run's first), at each
    step that starts one of the _interval_blocks of a record interval, so
    at each record step (a multiple of every), and at each step in snaps,
    whose states the run reads.  The rule reads global step indices and
    the rows alone, so a run resumed at a block start, such as a record
    step, makes the blocks of the uninterrupted run."""
    n = np.arange(n0, n0 + len(changed))
    grid = np.cumsum([0, *_interval_blocks(every)[:-1]])  # steps past a record
    starts = changed | np.isin(n % every, grid)
    starts[[s - n0 for s in snaps if n0 <= s < n0 + len(changed)]] = True
    return starts


def _interval_blocks(every: int) -> list[int]:
    """The blocks that split a record interval of `every` steps: its
    fewest near-equal parts of at most _BLOCK_STEPS, the longer first."""
    parts = -(-every // _BLOCK_STEPS)
    return [every // parts + (i < every % parts) for i in range(parts)]


def _record_every(sequence, dt: float) -> int:
    """Steps between records: run_dynamics records the global steps that
    are multiples of this."""
    return max(1, int(round(1.0 / (sequence.sample_rate * dt))))


def _check_initial_state(state: SimState, grid: Grid,
                         classes: Sequence[SpectralClass]) -> None:
    """Reject a starting state that is off the run's grid or classes."""
    cells, k, _ = state.a.shape
    if state.grid != grid or cells != grid.cells or k != len(classes):
        raise ValueError(
            f"initial_state has {cells} cells on {state.grid} and {k} classes; "
            f"the run has {grid.cells} cells on {grid} and {len(classes)} classes")
    ours = (state.deltas, state.weights)
    if not all(map(np.array_equal, ours, class_arrays(classes))):
        raise ValueError("initial_state has other class detunings or weights "
                         "than the run's classes")


def _step_index(t: float, dt: float) -> int:
    """Global step index n of a state at t = n dt.

    Raises ValueError when t is off that grid; a hand-built t may carry
    rounding error, which grows with t.
    """
    n = round(t / dt)
    if n < 0 or abs(t - n * dt) > 1e-9 * max(abs(t), dt):
        raise ValueError(f"state t = {t!r} is not on the step grid n * {dt!r}")
    return n


def _check_probe_resolution(sequence, m: MediumParams, grid: Grid) -> None:
    """Warn, blaming the caller's caller, when the grid underresolves the
    compressed probe pulse."""
    v_g = group_velocity(m, abs(sequence.writing_omega_c))
    cells = sequence.probe_duration_us * v_g / grid.dz
    if 0.0 < cells < 16.0:
        warnings.warn(
            f"probe pulse spans {cells:.1f} cells at the group velocity; "
            "16 or more are recommended", stacklevel=3)


def balance_residual(omega_c: float, omega_a: float) -> float:
    """Normalized imbalance of the two coupling channels in [0, 1].

    |Omega_C - Omega_A| / (Omega_C + Omega_A); zero exactly when the two
    Rabi frequencies are equal (both channels couple with sqrt(g2n)).
    """
    if omega_c < 0.0 or omega_a < 0.0:
        raise ValueError("Rabi frequencies must be >= 0")
    if omega_c + omega_a == 0.0:
        raise ValueError("at least one Rabi frequency must be nonzero")
    return abs(omega_c - omega_a) / (omega_c + omega_a)


def excitation_number(state: SimState, m: MediumParams) -> float:
    """Total field plus atomic excitation in normalized units.

    sum_z dz [ |E+|^2 + |E-|^2 + sum_j w_j (|P+|^2 + |P-|^2 + |S|^2) ].
    Conserved when all decay rates and detunings vanish and the boundaries
    are closed.
    """
    fields = (np.abs(state.f) ** 2).sum(axis=1)
    atoms = (np.abs(state.a) ** 2).sum(axis=2) @ state.weights
    return float((fields + atoms).sum() * state.grid.dz)


def field_centroid(state: SimState, floor: float = 1e-12) -> float:
    """Energy-weighted mean z of |E+|^2 + |E-|^2.

    Raises ValueError when the total field energy is at or below `floor`
    (the centroid is undefined for an empty grid).
    """
    intensity = (np.abs(state.f) ** 2).sum(axis=1)
    total = intensity.sum() * state.grid.dz
    if total <= floor:
        raise ValueError(f"field energy {total:.3g} below floor {floor:.3g}")
    return float((intensity @ state.grid.z) / intensity.sum())
