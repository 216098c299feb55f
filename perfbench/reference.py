"""Fine-time-step reference propagation, written independently of the package.

The benchmark checks the program's populations against this code, so a change
to ``ladderdown.propagator`` or ``ladderdown.pulse`` cannot move the reference
along with the result. Only the grid, the curve objects and the bound-state
wavefunctions come from the package; the field formula, the absorber, the
split-operator step and the FFTs (``numpy.fft`` rather than ``scipy.fft``) are
this file's own.

The scheme is the symmetric split of Kosloff, J. Phys. Chem. 92, 2087 (1988):
half kinetic step, full potential-plus-field step at the midpoint time, half
kinetic step, with a quadratic absorber -i*eta*(R-r0)^2 beyond r0.
"""

from __future__ import annotations

import math

import numpy as np

GENES = ("eps0", "omega0", "tau0", "tau", "chirp")


def field(genes: dict, t: np.ndarray) -> np.ndarray:
    """Linearly chirped Gaussian eps0*exp(-s^2/2tau^2)*cos(omega0*s + chirp*s^2/2), s = t-tau0."""
    s = t - genes["tau0"]
    envelope = genes["eps0"] * np.exp(-(s * s) / (2.0 * genes["tau"] ** 2))
    return envelope * np.cos(genes["omega0"] * s + 0.5 * genes["chirp"] * s * s)


def horizon(genes: dict) -> float:
    """Propagation horizon tau0 + 4*tau that the program uses for every pulse."""
    return genes["tau0"] + 4.0 * genes["tau"]


def propagate(grid, potential, dipole, cap, psi0, genes: dict, t_end: float, dt: float,
              batch: int = 256) -> np.ndarray:
    """Wavefunction at t_end after n = round(t_end/dt) Strang steps from t = 0.

    ``cap`` is any object with ``r0`` and ``eta`` attributes, or None.
    """
    n_steps = max(1, round(t_end / dt))
    dt = t_end / n_steps
    r = np.linspace(grid.r_min, grid.r_max, grid.n_points)
    dr = r[1] - r[0]
    k = 2.0 * math.pi * np.fft.fftfreq(grid.n_points, d=dr)
    kin_half = np.exp(-1j * k * k * dt / (4.0 * grid.mu))
    kin_full = kin_half * kin_half
    static = np.exp(-1j * potential.value(r) * dt)
    if cap is not None:
        static = static * np.exp(-cap.eta * np.clip(r - cap.r0, 0.0, None) ** 2 * dt)
    dip = dipole.value(r) * dt

    psi = np.fft.ifft(kin_half * np.fft.fft(np.asarray(psi0, dtype=complex)))
    for first in range(0, n_steps, batch):
        m = min(batch, n_steps - first)
        eps = field(genes, (first + np.arange(m) + 0.5) * dt)
        phase = np.multiply.outer(eps, dip)
        factors = static * (np.cos(phase) - 1j * np.sin(phase))
        for j in range(m):
            psi *= factors[j]
            spec = np.fft.fft(psi)
            spec *= kin_half if first + j == n_steps - 1 else kin_full
            psi = np.fft.ifft(spec)
    return psi


def populations(wavefunctions: np.ndarray, dr: float, psi: np.ndarray) -> np.ndarray:
    """|<v|psi>|^2 for every row v of ``wavefunctions`` (real, grid-normalized)."""
    return np.abs(dr * (wavefunctions @ psi)) ** 2
