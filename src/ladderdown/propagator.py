"""Time propagation of the nuclear wavefunction under a driving field.

Two steppers share one interface, ``run(psi, t0, n_steps, field)``, which
applies Strang steps to a grid wavefunction with the field sampled at the
step midpoints tmid = t + dt/2 (split-operator schemes after Kosloff,
J. Phys. Chem. 92, 2087 (1988); the absorber after Riss & Meyer,
J. Phys. B 26, 4503 (1993)).

``SplitStepper`` works on the grid, with the symmetric split

    psi(t + dt) = exp(-i T dt/2) exp(-i W(tmid) dt) exp(-i T dt/2) psi(t)

and W(t) = V(R) + eps(t) D(R) + V_cap(R). The kinetic factors act in
momentum space through FFTs on the periodic grid; the complex absorbing
potential lives inside W, so each step stays exactly norm-non-increasing.
The ``propagate`` command replays pulses with it, and it is the oracle
for the other one.

``EigenStepper`` works in the eigenbasis of H0 = T + V below a cutoff
energy ``ecut``, with the split

    c(t + dt) = exp(-i H dt/2) exp(-i eps(tmid) D dt) exp(-i H dt/2) c(t)

and H = H0 + V_cap, both projected on that basis. The genetic algorithm
scores pulses with it, taking the well depth as ``ecut``.

Both merge the inner half steps of consecutive steps between observable
samples, which halves their cost without changing the factorization.

Both form the field factor exp(-i eps(tmid) a) of a step, with a real
phase a per unit field (dt D(R) on the grid, dt times the eigenvalues of D
in the basis), without a transcendental per point. It is the Taylor series
of the exponential, truncated at the smallest order whose remainder stays
below 2^-60 for the largest |eps a| of a block of steps. Phases above 1/2
are halved s times, summed and squared back s times (scaling and squaring;
Moler & Van Loan, SIAM Rev. 45, 3 (2003)). So every factor is exact to
rounding, and a step costs one small matrix-vector product with powers of
a built once.

``propagate(state, field, stepper, t_max)`` drives either one: the stepper
is built once and carries the curves, the absorber and dt, and
``propagate`` adds the clock and the sampled observables.

Where no dt is given, ``tolerance_time_step`` chooses it for a pulse from
the population tolerance ``POP_TOL``: Strang's error has only even powers
of dt, so runs at h and h/2 estimate it, and once halving h is seen to
quarter the estimate, dt follows from the dt^2 law. Both steppers give the
stepper of another dt with ``with_dt``, sharing what does not depend on it.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np
import scipy.fft as sfft
import scipy.linalg as sla

from .dvr import RadialGrid, VibrationalSpectrum
from .pulse import ChirpedPulseParams, as_field


class PropagationBlowupError(Exception):
    """An observable went non-finite; carries the offending step index."""

    def __init__(self, step_index: int):
        self.step_index = step_index
        super().__init__(f"non-finite wavefunction at step {step_index}")


@dataclass(frozen=True)
class CapSpec:
    """Quadratic complex absorbing potential -i*eta*(R-r0)^2 for R > r0."""

    r0: float
    eta: float

    def __post_init__(self):
        if not math.isfinite(self.r0):
            raise ValueError(f"CAP onset must be finite, got {self.r0}")
        if not 0 < self.eta < math.inf:
            raise ValueError(f"CAP strength must be positive and finite, got {self.eta}")

    def check_inside(self, grid: RadialGrid):
        """Raise ValueError unless the onset lies strictly inside the grid."""
        if not grid.r_min < self.r0 < grid.r_max:
            raise ValueError(
                f"CAP onset {self.r0} must lie inside the grid ({grid.r_min}, {grid.r_max})"
            )


def cap_value(cap: CapSpec, r):
    """-i*eta*(r-r0)^2 beyond the onset, exactly zero at and before it."""
    ramp = np.clip(np.asarray(r, dtype=float) - cap.r0, 0.0, None)
    return -1j * cap.eta * ramp**2


@dataclass
class WavefunctionState:
    """Complex wavefunction on the grid at time t (atomic units)."""

    psi: np.ndarray
    t: float
    grid: RadialGrid

    def __post_init__(self):
        psi = np.asarray(self.psi, dtype=complex)
        if psi.shape != (self.grid.n_points,):
            raise ValueError("wavefunction length does not match the grid")
        self.psi = psi

    def norm(self) -> float:
        """Total probability dr * sum |psi|^2."""
        return float(self.grid.dr * np.vdot(self.psi, self.psi).real)

    def overlap(self, other: np.ndarray) -> complex:
        """<other|psi> grid quadrature (other is conjugated)."""
        return complex(self.grid.dr * np.vdot(other, self.psi))


def populations(state: WavefunctionState, spectrum: VibrationalSpectrum) -> np.ndarray:
    """p_v = |<v|Psi>|^2 for every bound level v of ``spectrum``."""
    # real @ complex would copy the real levels to complex; split instead
    phi = spectrum.wavefunctions
    return state.grid.dr**2 * ((phi @ state.psi.real) ** 2 + (phi @ state.psi.imag) ** 2)


@dataclass
class PropagationRecord:
    """Sampled observables of one propagation run.

    ``populations[k, v]`` holds p_v at ``times[k]`` for every bound level v
    of the spectrum (no columns when no spectrum was supplied), and
    ``total_bound`` their sum (NaN then). ``dissociation`` is the flux the
    absorber has removed, 1 - ``norm``. The final state is kept for fitness
    evaluation and restarts.
    """

    times: np.ndarray
    field_values: np.ndarray
    populations: np.ndarray
    total_bound: np.ndarray
    norm: np.ndarray
    dissociation: np.ndarray
    final_state: WavefunctionState
    steps: int
    dt: float


def _check_dt(dt: float):
    if dt == 0:
        raise ValueError("time step must be nonzero")


# field samples per block; bounds memory however long the horizon
_BLOCK = 512
# the truncated series of the field factor leaves a remainder below this
_SERIES_TOL = 2.0**-60
# phases up to this are summed directly; larger ones are scaled and squared
_THETA_MAX = 0.5


def _series_order(theta: float) -> int:
    """Smallest M whose Taylor remainder of exp(x), |x| <= theta < 1, is below _SERIES_TOL.

    The remainder is at most theta^(M+1)/(M+1)! * (M+2)/(M+2-theta).
    """
    m = 0
    while theta ** (m + 1) / math.factorial(m + 1) * (m + 2) / (m + 2 - theta) > _SERIES_TOL:
        m += 1
    return m


_ORDER_MAX = _series_order(_THETA_MAX)


class _FieldFactor:
    """exp(-i eps a) for a fixed real phase per unit field a, one step at a time.

    Per block of midpoint fields, theta = max|eps| max|a| fixes the order M
    and the number s of squarings (theta / 2^s < 1/2). The factor of a step
    is then sum_{m<=M} (eps/2^s)^m (-i a)^m/m!, one real matrix-vector
    product with the rows (-i a)^m/m! (as interleaved real pairs) built once,
    squared s times. The rows run from the highest power down, so every sum
    adds its small terms first. A non-finite eps gives a non-finite factor.
    """

    def __init__(self, a: np.ndarray):
        a = np.asarray(a, dtype=float)
        self.a_max = float(np.max(np.abs(a)))
        rows = np.empty((_ORDER_MAX + 1, a.size), dtype=complex)
        rows[-1] = 1.0
        for m in range(1, _ORDER_MAX + 1):
            rows[-1 - m] = rows[-m] * (-1j * a) / m
        self.rows = rows.view(float)
        self.factor = np.empty(a.size, dtype=complex)

    def steps(self, field, t0: float, dt: float, n_steps: int):
        """Yield (step index, exp(-i eps(tmid) a)); the next step overwrites the factor."""
        factor = self.factor
        for start in range(0, n_steps, _BLOCK):
            t_mid = (t0 + start * dt) + dt * (np.arange(min(_BLOCK, n_steps - start)) + 0.5)
            eps_mid = np.zeros(t_mid.size) if field is None else np.asarray(field(t_mid), float)
            theta = float(np.max(np.abs(eps_mid))) * self.a_max
            if math.isfinite(theta):
                s = max(0, math.frexp(theta / _THETA_MAX)[1])
                order = _series_order(theta / 2**s)
            else:
                # every power of a non-finite eps but the zeroth is non-finite
                s, order = 0, _ORDER_MAX
            weights = (eps_mid[:, None] / 2**s) ** np.arange(order, -1, -1)
            rows = self.rows[_ORDER_MAX - order:]
            for k, w in enumerate(weights, start):
                np.matmul(w, rows, out=factor.view(float))
                for _ in range(s):
                    np.multiply(factor, factor, out=factor)
                yield k, factor


class SplitStepper:
    """Precomputed split-operator factors for one (grid, curves, cap, dt).

    A step multiplies psi by the static factor exp(-i (V + V_cap) dt), formed
    once, and by the field factor exp(-i eps(tmid) D dt). The field factor is
    a truncated Taylor series in eps (see ``_FieldFactor``), whose remainder
    is below 2^-60 and whose large phases are scaled and squared, so it
    equals the exponential to rounding at the cost of one small
    matrix-vector product instead of a complex exp per grid point.
    ``with_dt`` gives the stepper of another dt on the same curves.
    """

    def __init__(self, grid: RadialGrid, potential, dipole, cap: CapSpec | None, dt: float):
        if cap is not None:
            cap.check_inside(grid)
        self.grid = grid
        r = grid.points
        k = 2.0 * math.pi * sfft.fftfreq(grid.n_points, d=grid.dr)
        self._kin_phase = -1j * k**2 / (2.0 * grid.mu)
        w_static = potential.value(r).astype(complex)
        if cap is not None:
            w_static = w_static + cap_value(cap, r)
        self._w_static = w_static
        self._dipole = dipole.value(r) if dipole is not None else None
        self._set_dt(dt)

    def _set_dt(self, dt: float):
        _check_dt(dt)
        self.dt = dt
        self.kin_half = np.exp(self._kin_phase * (dt / 2.0))
        self.kin_full = self.kin_half * self.kin_half
        self.pot_factor = np.exp(-1j * self._w_static * dt)
        self.field_factor = _FieldFactor(
            dt * self._dipole if self._dipole is not None else np.zeros(self.grid.n_points)
        )

    def with_dt(self, dt: float) -> "SplitStepper":
        """The stepper for ``dt`` on the same grid, curves and absorber."""
        other = copy.copy(self)
        other._set_dt(dt)
        return other

    def run(self, psi: np.ndarray, t0: float, n_steps: int, field) -> np.ndarray:
        """Apply n_steps Strang steps starting at t0, merging inner kinetics."""
        if n_steps < 1:
            return psi
        psi = sfft.ifft(self.kin_half * sfft.fft(psi))
        for k, factor in self.field_factor.steps(field, t0, self.dt, n_steps):
            psi *= factor
            psi *= self.pot_factor
            kin = self.kin_half if k == n_steps - 1 else self.kin_full
            psi = sfft.ifft(kin * sfft.fft(psi, overwrite_x=True), overwrite_x=True)
        return psi


class EigenStepper:
    """Strang steps in the eigenbasis of H0 below a cutoff, absorber included.

    ``basis`` holds the K real eigenstates of H0 = T + V below the cutoff
    ``ecut``, as ``dvr.solve_bound_states(grid, potential, threshold=ecut)``
    returns them. ``run`` projects the grid wavefunction on them,
    c = dr Phi psi, advances c by

        c(t + dt) = exp(-i H dt/2) exp(-i eps(tmid) D dt) exp(-i H dt/2) c(t)

    with H = diag(E) + CAP_K and D = D_K, and maps it back, psi = Phi^T c.
    Whatever part of psi lies above the cutoff is dropped. The GA's
    ``LadderProblem`` cuts at the well depth, ``ecut`` = -E_0.

    The half step exp(-i H dt/2) is formed once with ``expm``. H is complex
    symmetric, and diagonalizing it with ``eig`` instead gives
    ill-conditioned eigenvectors with which a run overflows. The real
    D = U diag(lam) U^T comes from ``eigh``, so in U's frame a step costs K
    phase factors exp(-i eps(tmid) lam dt) and one K x K matvec, with the
    inner half steps of consecutive steps merged into U^T exp(-i H dt) U.
    The phase factors come from the same truncated, scaled and squared
    Taylor series as on the grid (``_FieldFactor``), exact to rounding. Since
    -i CAP_K is negative semidefinite, no step increases the norm beyond
    rounding.
    """

    def __init__(self, basis: VibrationalSpectrum, dipole, cap: CapSpec | None, dt: float):
        grid = basis.grid
        if cap is not None:
            cap.check_inside(grid)
        self.grid = grid
        phi = basis.wavefunctions
        r = grid.points
        h = np.diag(basis.energies).astype(complex)
        if cap is not None:
            out = slice(np.searchsorted(r, cap.r0, side="right"), None)  # r > r0, as a view
            h += 1j * grid.dr * (phi[:, out] * cap_value(cap, r[out]).imag) @ phi[:, out].T
        d = grid.dr * (phi * dipole.value(r)) @ phi.T
        # divide and conquer (evd) keeps U orthogonal to rounding; the 1e-13
        # error of the default MRRR (evr) would raise the norm at every step
        self._lam, self._u = sla.eigh(0.5 * (d + d.T), driver="evd")
        self._h = h
        # everything is kept in U's frame: the basis rows U^T Phi here, the
        # half step U^T exp(-i H dt/2) U and the merged full step in _set_dt
        self.phi = self._u.T @ phi
        self._set_dt(dt)

    def _set_dt(self, dt: float):
        _check_dt(dt)
        self.dt = dt
        self.field_factor = _FieldFactor(dt * self._lam)
        self.half = self._u.T @ sla.expm(-0.5j * dt * self._h) @ self._u
        self.full = self.half @ self.half

    def with_dt(self, dt: float) -> "EigenStepper":
        """The stepper for ``dt``; it shares this one's basis rows U^T Phi, D's
        eigenvectors and H, and builds only the half step and the phases."""
        other = copy.copy(self)
        other._set_dt(dt)
        return other

    def run(self, psi: np.ndarray, t0: float, n_steps: int, field) -> np.ndarray:
        """Apply n_steps Strang steps starting at t0, merging inner half steps."""
        if n_steps < 1:
            return psi
        # real @ complex would copy the real basis to complex; split instead
        c = self.grid.dr * (self.phi @ psi.real + 1j * (self.phi @ psi.imag))
        c = self.half @ c
        buf = np.empty_like(c)
        for k, factor in self.field_factor.steps(field, t0, self.dt, n_steps):
            c *= factor
            np.matmul(self.half if k == n_steps - 1 else self.full, c, out=buf)
            c, buf = buf, c
        return self.phi.T @ c.real + 1j * (self.phi.T @ c.imag)


def propagate(
    state: WavefunctionState,
    field,
    stepper: SplitStepper | EigenStepper,
    t_max: float,
    sample_stride: int = 1,
    spectrum: VibrationalSpectrum | None = None,
) -> PropagationRecord:
    """Propagate with ``stepper`` until t >= t_max, sampling observables.

    The stepper carries the curves, the absorber and dt; it must be built on
    the state's grid with dt > 0. ``field`` may be a callable eps(t), a
    ChirpedPulseParams, or None for field-free steps. Observables are
    recorded at the start, every ``sample_stride`` steps, and at the final
    step. With ``spectrum``, every sample holds the population of each of its
    bound levels. Raises PropagationBlowupError if the norm goes non-finite.
    """
    dt = stepper.dt
    if dt <= 0:
        raise ValueError(f"propagation requires a stepper with dt > 0, got {dt}")
    if stepper.grid != state.grid:
        raise ValueError(f"stepper grid {stepper.grid} differs from the state's {state.grid}")
    if sample_stride < 1:
        raise ValueError("sample_stride must be >= 1")
    if isinstance(field, ChirpedPulseParams):
        field = as_field(field)
    # relative slack: dt = span/n must give n steps, however large n
    n_steps = max(1, math.ceil((t_max - state.t) / dt * (1.0 - 1e-12)))

    times, fields_out, pops, norms = [], [], [], []

    def record(psi: np.ndarray, t: float, step_index: int):
        st = WavefunctionState(psi=psi, t=t, grid=state.grid)
        n = st.norm()
        if not math.isfinite(n):
            raise PropagationBlowupError(step_index)
        if spectrum is not None:
            pops.append(populations(st, spectrum))
        times.append(t)
        fields_out.append(0.0 if field is None else float(field(t)))
        norms.append(n)

    psi = state.psi.copy()
    record(psi, state.t, 0)
    done = 0
    while done < n_steps:
        chunk = min(sample_stride, n_steps - done)
        psi = stepper.run(psi, state.t + done * dt, chunk, field)
        done += chunk
        record(psi, state.t + done * dt, done)

    norm_arr = np.array(norms)
    pops_arr = np.array(pops) if pops else np.empty((len(times), 0))
    return PropagationRecord(
        times=np.array(times),
        field_values=np.array(fields_out),
        populations=pops_arr,
        total_bound=pops_arr.sum(axis=1) if pops else np.full(len(times), np.nan),
        norm=norm_arr,
        dissociation=1.0 - norm_arr,
        final_state=WavefunctionState(psi=psi, t=state.t + done * dt, grid=state.grid),
        steps=n_steps,
        dt=dt,
    )


# largest bound-level population error that a dt chosen from the tolerance may have
POP_TOL = 1.0e-6
# in the dt^2 regime the error estimate falls by 4 per halving, give or take this
# (in the dt^4 regime by 16, give or take 4 times this)
_RATIO_SLACK = 1.0
# the search gives up when its finest trial run would pass this many steps
_SEARCH_MAX_STEPS = 2**20
# ... or when the estimate falls below this fraction of the tolerance, where
# the rounding of thousands of steps hides any ratio
_ROUNDING = 1.0e-4


class TimeStepError(Exception):
    """The error estimate never fell by 4 per halving of the step."""


@dataclass(frozen=True)
class TimeStepChoice:
    """A dt chosen from a population tolerance for pulses of one horizon.

    ``dt`` = t_end / ``steps``, and ``estimate`` is the largest bound-level
    population error predicted there. It is predicted from the finest trial
    step ``measured_dt``, whose estimated error ``measured_error`` was
    largest under field number ``worst``. The trial runs took
    ``search_steps`` steps per field.
    """

    dt: float
    steps: int
    estimate: float
    measured_dt: float
    measured_error: float
    worst: int
    search_steps: int


def tolerance_time_step(
    stepper: SplitStepper | EigenStepper,
    psi0: np.ndarray,
    spectrum: VibrationalSpectrum,
    fields: list,
    t_end: float,
) -> TimeStepChoice:
    """The largest dt = t_end/n at which every bound population at t_end is within POP_TOL.

    Strang splitting is symmetric, so its error has only even powers of dt
    (Hairer, Lubich & Wanner, Geometric Numerical Integration, 2006, ch. II).
    Two runs from psi0 at t = 0 to t_end, at steps h and h/2, then estimate
    the error of the h/2 run as e = max |p_v(h) - p_v(h/2)| / 3, over the
    bound levels v of ``spectrum`` and over ``fields`` (each a callable eps(t)
    or a ChirpedPulseParams). Starting from one step over the whole span,
    the search halves the step until the estimate has fallen by 4 +- 1 at
    two successive halvings, which shows the dt^2 regime. From the finest
    step h' and its estimate e', it predicts dt = h' sqrt(POP_TOL/2 / e'),
    aiming at half the tolerance, and takes no dt coarser than the first
    step of that regime, 4 h'. Under a field too weak to move population,
    the estimate falls instead by 16 +- 4 (dt^4) down to rounding; then the
    search returns the finer step of the first pair whose estimate is at
    most POP_TOL/2, where the /3 estimate over-states a dt^4 error ~5 times.

    Each trial step is one ``stepper.with_dt(h)``, alive while it runs every
    field; the given stepper's own dt plays no part. Raises TimeStepError if
    the estimate falls below POP_TOL * 1e-4 in neither regime, or a trial
    run would pass 2^20 steps, before it shows the dt^2 regime.
    """
    if not t_end > 0:
        raise ValueError(f"the search needs t_end > 0, got {t_end}")
    fields = [as_field(f) if isinstance(f, ChirpedPulseParams) else f for f in fields]
    grid = spectrum.grid

    def final_populations(trial, n):
        return np.array([
            populations(WavefunctionState(psi=trial.run(psi0, 0.0, n, f), t=t_end, grid=grid),
                        spectrum)
            for f in fields
        ])

    def falls_by(ratio):
        # the last two halvings each divided the estimate by ratio, give or take a quarter
        e = estimates[-3:]
        return len(e) == 3 and all(abs(a / b - ratio) <= ratio / 4 * _RATIO_SLACK
                                   for a, b in zip(e, e[1:]))

    prev, estimates, worsts, n = None, [], [], 1
    while True:
        pops = final_populations(stepper.with_dt(t_end / n), n)
        if prev is not None:
            per_field = np.max(np.abs(prev - pops), axis=1) / 3.0
            estimates.append(float(np.max(per_field)))
            worsts.append(int(np.argmax(per_field)))
            resolved = estimates[-1] >= POP_TOL * _ROUNDING
            if resolved and falls_by(4.0):
                break
            if not resolved and falls_by(16.0):
                k = next(k for k, x in enumerate(estimates) if x <= 0.5 * POP_TOL)
                h = t_end / 2 ** (k + 1)
                return TimeStepChoice(dt=h, steps=2 ** (k + 1), estimate=estimates[k],
                                      measured_dt=h, measured_error=estimates[k],
                                      worst=worsts[k], search_steps=2 * n - 1)
            if not resolved or 2 * n > _SEARCH_MAX_STEPS:
                raise TimeStepError(
                    "the population error estimate never fell by 4 per halving of dt "
                    f"(estimates {', '.join(f'{x:.2g}' for x in estimates)}, "
                    f"down to dt {t_end / n:.4g})"
                )
        prev = pops
        n *= 2
    h, err = t_end / n, estimates[-1]
    steps = math.ceil(t_end / min(h * math.sqrt(0.5 * POP_TOL / err), 4.0 * h))
    dt = t_end / steps
    return TimeStepChoice(dt=dt, steps=steps, estimate=err * (dt / h) ** 2,
                          measured_dt=h, measured_error=err, worst=worsts[-1],
                          search_steps=2 * n - 1)
