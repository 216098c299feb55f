"""Bound vibrational states on a uniform radial grid.

The kinetic operator uses the uniform-grid sinc (Colbert-Miller) discrete
variable representation, in which the potential is diagonal and the kinetic
matrix has the closed form

    T_ij = (-1)^(i-j) / (2*mu*dr^2) * { pi^2/3      if i == j
                                      { 2/(i-j)^2   otherwise

(hbar = 1). Diagonalizing T + diag(V) yields the vibrational energies and
grid wavefunctions, from which the squared dipole matrix elements, Einstein
coefficients, and radiative lifetimes follow by grid quadrature.

The eigensolve runs the LAPACK steps of a by-value ``dsyevr`` in place, on the
Hamiltonian's own storage: Householder tridiagonalization (``dsytrd``),
bisection and inverse iteration for the levels below the threshold only
(``dstebz``/``dstein``), and back-transformation of just those vectors
(``dormqr`` on the stored reflectors). The Hamiltonian is consumed as
workspace, and no other n x n array is made.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
from scipy.linalg import lapack

from .constants import AU_TIME_S, C_AU


class EmptySpectrumError(Exception):
    """The potential holds no level below the requested threshold."""


@dataclass(frozen=True)
class RadialGrid:
    """Uniform coordinate grid shared by the eigensolver and the propagator.

    Attributes
    ----------
    r_min, r_max : float
        Grid end points in bohr, 0 < r_min < r_max.
    n_points : int
        Number of grid points (at least 16).
    mu : float
        Reduced mass in electron masses.
    """

    r_min: float
    r_max: float
    n_points: int
    mu: float

    def __post_init__(self):
        if not 0 < self.r_min < self.r_max:
            raise ValueError(f"need 0 < r_min < r_max, got [{self.r_min}, {self.r_max}]")
        if self.n_points < 16:
            raise ValueError(f"need at least 16 grid points, got {self.n_points}")
        if self.mu <= 0:
            raise ValueError(f"reduced mass must be positive, got {self.mu}")

    @property
    def dr(self) -> float:
        return (self.r_max - self.r_min) / (self.n_points - 1)

    @property
    def points(self) -> np.ndarray:
        return np.linspace(self.r_min, self.r_max, self.n_points)


@dataclass(frozen=True)
class VibrationalSpectrum:
    """Bound levels of a potential: energies ascending, wavefunctions rowwise.

    ``wavefunctions[v]`` is the real grid function of level v, normalized so
    that dr * sum(psi**2) == 1, with the sign fixed so the first extremum is
    positive.
    """

    energies: np.ndarray
    wavefunctions: np.ndarray
    grid: RadialGrid

    def __post_init__(self):
        e = np.asarray(self.energies, dtype=float)
        psi = np.asarray(self.wavefunctions, dtype=float)
        if psi.shape != (len(e), self.grid.n_points):
            raise ValueError("wavefunction array shape does not match grid/levels")
        if len(e) > 1 and not np.all(np.diff(e) > 0):
            raise ValueError("energies must be strictly increasing")
        object.__setattr__(self, "energies", e)
        object.__setattr__(self, "wavefunctions", psi)

    @property
    def bound_count(self) -> int:
        return len(self.energies)

    def transition_energy(self, upper: int, lower: int) -> float:
        """E_upper - E_lower in hartree."""
        return float(self.energies[upper] - self.energies[lower])


@dataclass(frozen=True)
class SdmeMap:
    """Squared dipole matrix elements |<v|D|v'>|^2, symmetric, (e*bohr)^2."""

    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise ValueError("SDME map must be a square matrix")
        object.__setattr__(self, "values", v)


def build_hamiltonian(grid: RadialGrid, potential) -> np.ndarray:
    """Dense symmetric DVR Hamiltonian T + diag(V) on the grid."""
    n = grid.n_points
    coeff = 1.0 / (2.0 * grid.mu * grid.dr**2)
    col = np.empty(n)
    col[0] = np.pi**2 / 3.0
    m = np.arange(1, n)
    col[1:] = np.where(m % 2 == 0, 2.0, -2.0) / m.astype(float) ** 2
    h = sla.toeplitz(coeff * col)
    idx = np.arange(n)
    h[idx, idx] += potential.value(grid.points)
    return h


def _fix_sign(psi: np.ndarray) -> np.ndarray:
    """Flip sign so the first extremum (leftmost peak of |psi|) is positive."""
    a = np.abs(psi)
    floor = a.max() * 1e-6
    peaks = np.nonzero((a[1:-1] >= a[:-2]) & (a[1:-1] >= a[2:]) & (a[1:-1] > floor))[0]
    i = peaks[0] + 1 if len(peaks) else int(np.argmax(a))
    return -psi if psi[i] < 0 else psi


def solve_bound_states(
    h: np.ndarray, grid: RadialGrid, threshold: float = 0.0
) -> VibrationalSpectrum:
    """All eigenpairs of ``h`` below ``threshold``, normalized and sign-fixed.

    ``h`` must be symmetric and finite (ValueError otherwise); it is
    overwritten, because its storage is the workspace of the solve. LAPACK
    reduces it to tridiagonal form in place (``dsytrd``), finds the
    eigenvalues below ``threshold`` by bisection and their vectors by inverse
    iteration (``dstebz``/``dstein``), and applies the stored Householder
    reflectors to those vectors only (``dormqr``). An ``h`` that is not a C- or
    Fortran-contiguous float64 array is copied first, and the copy consumed.

    The default threshold 0 is the dissociation limit of every shipped
    potential. Raises EmptySpectrumError when nothing is bound.
    """
    # h is symmetric, so h.T is the same matrix in the column-major order that
    # LAPACK reads, and a C-ordered h is reduced where it lies.
    a = np.asarray_chkfinite(h.T if h.flags.c_contiguous else h, dtype=float, order="F")
    n = a.shape[0]
    lwork, _ = lapack.dsytrd_lwork(n, lower=1)
    _, d, e, tau, info = lapack.dsytrd(a, lower=1, lwork=int(lwork), overwrite_a=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"dsytrd failed, info = {info}")
    energies, vecs = sla.eigh_tridiagonal(d, e, select="v", select_range=(-np.inf, threshold))
    if len(energies) == 0:
        raise EmptySpectrumError(f"no eigenvalue below threshold {threshold}")
    # Reflector i lives in a[i+2:, i] below its implicit unit in a[i+1, i], so
    # Q = diag(1, Q') with Q' the QR-form product held in a[1:, :n-1]. Viewed
    # from offset one with the leading dimension n, that block is not copied.
    refl = a.ravel(order="F")[1 : 1 + n * (n - 1)].reshape(n, n - 1, order="F")
    _, work, info = lapack.dormqr("L", "N", refl, tau, vecs[1:], lwork=-1)
    cq, _, info = lapack.dormqr("L", "N", refl, tau, vecs[1:], lwork=int(work[0]))
    if info != 0:
        raise np.linalg.LinAlgError(f"dormqr failed, info = {info}")
    vecs[1:] = cq
    psi = vecs.T / np.sqrt(grid.dr)
    psi = np.array([_fix_sign(row) for row in psi])
    return VibrationalSpectrum(energies=energies, wavefunctions=psi, grid=grid)


def solve_spectrum(grid: RadialGrid, potential, threshold: float = 0.0) -> VibrationalSpectrum:
    """Convenience: build the Hamiltonian and solve in one call."""
    return solve_bound_states(build_hamiltonian(grid, potential), grid, threshold)


def sdme_map(spectrum: VibrationalSpectrum, dipole) -> SdmeMap:
    """|<v|D|v'>|^2 for all bound pairs, by grid quadrature."""
    grid = spectrum.grid
    d = dipole.value(grid.points)
    psi = spectrum.wavefunctions
    elements = grid.dr * (psi * d) @ psi.T
    elements = 0.5 * (elements + elements.T)  # enforce exact symmetry
    return SdmeMap(values=elements**2)


def einstein_rate(spectrum: VibrationalSpectrum, sdme: SdmeMap, i: int, v: int) -> float:
    """Spontaneous-emission rate A_iv in s^-1 for the i -> v transition.

    In atomic units A = (4/3) * w^3 * |<i|D|v>|^2 / c^3 with w = E_i - E_v;
    the result is converted to SI inverse seconds.
    """
    if not 0 <= v < i < spectrum.bound_count:
        raise ValueError(f"need bound levels i > v, got i={i}, v={v}")
    w = spectrum.transition_energy(i, v)
    a_au = (4.0 / 3.0) * w**3 * sdme.values[i, v] / C_AU**3
    return a_au / AU_TIME_S


def lifetime(spectrum: VibrationalSpectrum, sdme: SdmeMap, i: int) -> float:
    """Radiative lifetime of level i in seconds, tau = 1 / sum_v A_iv.

    The decay channels to every lower level v act in parallel. A level with
    no open decay channel gets the math.inf sentinel.
    """
    if not 1 <= i < spectrum.bound_count:
        raise ValueError(f"need a bound level i >= 1, got i={i}")
    rates = np.array([einstein_rate(spectrum, sdme, i, v) for v in range(i)])
    total = float(np.sum(rates))
    return float("inf") if total == 0 else 1.0 / total
