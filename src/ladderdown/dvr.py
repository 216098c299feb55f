"""Bound vibrational states on a uniform radial grid.

The kinetic operator uses the uniform-grid sinc (Colbert-Miller) discrete
variable representation, in which the potential is diagonal and the kinetic
matrix has the closed form

    T_ij = (-1)^(i-j) / (2*mu*dr^2) * { pi^2/3      if i == j
                                      { 2/(i-j)^2   otherwise

(hbar = 1). Diagonalizing T + diag(V) yields the vibrational energies and
grid wavefunctions, from which the squared dipole matrix elements, Einstein
coefficients, and radiative lifetimes follow by grid quadrature.

``solve_bound_states`` picks one of two solves from the grid's oversampling of
the largest local momentum below the threshold, k_max = sqrt(2 mu (threshold
- min V)):

* Lift. A sinc-DVR grid resolves a level once its spacing is below pi / k_max,
  and its error then falls exponentially (Colbert & Miller, J. Chem. Phys. 96,
  1982 (1992)). The levels are solved on every m-th grid point, m =
  floor(pi / (2 k_max dr)) for a margin of at least 2, capped so that 16
  points remain. Grid point j lies j / m solve spacings from r_min, so their
  sinc interpolation onto the grid is a symmetric Toeplitz product, applied
  by FFT (``_toeplitz_times``). One Rayleigh-Ritz step, L^T H L w = E L^T L w
  on the lifted block L, refines them, with the grid's H applied without
  forming it (T is Toeplitz, V diagonal). This runs when m >= 4. On the
  5600-point production grid and threshold 0, m = 6: it solves 934 points in
  ~0.08 s instead of ~14 s (2 vCPUs), with energies within 3e-17 hartree of
  the dense solve and wavefunctions within 2e-13 (in units of dr^-1/2). At a
  margin of 1.5 (696 points) the Ritz residual rose to 8e-9 hartree, so the
  margin is 2.
* Dense. The grid's own H is formed and solved by the LAPACK steps of a
  by-value ``dsyevr``, run in place on H's storage: Householder
  tridiagonalization (``dsytrd``), bisection and inverse iteration for the
  levels below the threshold only (``dstebz``/``dstein``), and
  back-transformation of just those vectors (``dormqr`` on the stored
  reflectors). H is consumed as workspace, and no other n x n array is made.
  This runs for grids that sample k_max less finely, such as the 1024-point
  desk grid (m = 2), and for every lift that is refused.

A lift is accepted only if every Ritz value stays below the threshold and
every Ritz residual ||H psi - E psi|| is at most ``LIFT_RESIDUAL`` = 1e-12
hartree. For symmetric H that residual bounds the distance of each lifted
energy from an eigenvalue of the grid's H, and a wavefunction's error by the
residual over the gap to the next level. States whose shape depends on the
grid's ends are refused as soon as the solve grid has found them, by the rule
that no level may lie above V at either end of the grid. Above the
dissociation limit, as in the GA's basis below ``-E_0``, the levels are box
states of the grid's interval, and the solve grid's box is not the grid's:
lifted from 1400 points, the production basis has Ritz residuals of ~3e-5 hartree.
The residual cannot show a level that the solve grid misses altogether, such
as one within the solve grid's error of the threshold: that the solve grid
finds every level rests on its margin over the largest classically allowed
momentum.
"""

from __future__ import annotations

import ctypes
import math
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cache
from pathlib import Path

import numpy as np
import scipy.fft as sfft
import scipy.linalg as sla
from scipy.linalg import lapack

from .constants import AU_TIME_S, C_AU

# hartree; the largest Ritz residual ||H psi - E psi|| of an accepted lift
LIFT_RESIDUAL = 1e-12


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
    positive. ``lift_points`` and ``lift_residual`` record a lift: the points
    of the grid the levels were solved on and the largest Ritz residual in
    hartree. Both are None when H was solved on ``grid`` itself.
    """

    energies: np.ndarray
    wavefunctions: np.ndarray
    grid: RadialGrid
    lift_points: int | None = None
    lift_residual: float | None = None

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


def _kinetic_column(grid: RadialGrid) -> np.ndarray:
    """First column of the sinc-DVR kinetic matrix T, which is symmetric Toeplitz."""
    n = grid.n_points
    coeff = 1.0 / (2.0 * grid.mu * grid.dr**2)
    col = np.empty(n)
    col[0] = np.pi**2 / 3.0
    m = np.arange(1, n)
    col[1:] = np.where(m % 2 == 0, 2.0, -2.0) / m.astype(float) ** 2
    return coeff * col


def _toeplitz_times(col: np.ndarray, x: np.ndarray) -> np.ndarray:
    """S @ x for the symmetric Toeplitz S with first column ``col``, S not formed.

    S is the top-left n x n block of a circulant whose first column holds
    ``col``, zeros, and ``col`` reversed; the circulant is applied by real FFTs
    of a fast length of at least 2n - 1.
    """
    n = len(col)
    m = sfft.next_fast_len(2 * n - 1, real=True)
    circulant = np.zeros(m)
    circulant[:n], circulant[m - n + 1:] = col, col[:0:-1]
    product = sfft.rfft(circulant)[:, None] * sfft.rfft(x, m, axis=0)
    return sfft.irfft(product, m, axis=0)[:n]


def build_hamiltonian(grid: RadialGrid, potential) -> np.ndarray:
    """Dense symmetric DVR Hamiltonian T + diag(V) on the grid."""
    h = sla.toeplitz(_kinetic_column(grid))
    idx = np.arange(grid.n_points)
    h[idx, idx] += potential.value(grid.points)
    return h


def _fix_sign(psi: np.ndarray) -> np.ndarray:
    """Flip sign so the first extremum (leftmost peak of |psi|) is positive."""
    a = np.abs(psi)
    floor = a.max() * 1e-6
    peaks = np.nonzero((a[1:-1] >= a[:-2]) & (a[1:-1] >= a[2:]) & (a[1:-1] > floor))[0]
    i = peaks[0] + 1 if len(peaks) else int(np.argmax(a))
    return -psi if psi[i] < 0 else psi


@cache
def _openblas_calls(name: str, module) -> tuple:
    """``scipy_openblas_<name>_num_threads`` of each OpenBLAS that ``module``, numpy
    or scipy, bundles in its ``.libs`` folder; none where it bundles no such library.
    numpy's is the 64-bit-integer build, whose symbols end in ``64_``."""
    libs = Path(module.__file__).parents[1] / f"{module.__name__}.libs"
    symbol = f"scipy_openblas_{name}_num_threads{'64_' if module is np else ''}"
    calls = []
    for lib in sorted(libs.glob("libscipy_openblas*")):
        call = getattr(ctypes.CDLL(str(lib)), symbol, None)
        if call is not None:
            call.argtypes = [] if name == "get" else [ctypes.c_int]
            call.restype = ctypes.c_int if name == "get" else None
            calls.append(call)
    return tuple(calls)


_NUMPY_BLAS_LOCK = threading.Lock()


@contextmanager
def _one_numpy_blas_thread():
    """numpy's bundled OpenBLAS on one thread inside, its previous count restored on
    exit, exceptions included; nothing changes where numpy bundles no such library.

    scipy's LAPACK keeps its threads (``dsytrd`` on the desk grid takes 1.6-1.9
    times as long at one). Its worker spins for a while after ``dsytrd`` and
    ``dormqr`` return, so numpy's second thread, started by the lift's matmuls,
    would put three threads on two cores. The count is process-wide, so one
    thread at a time holds it: a second caller inside would save the pinned 1
    and restore it last.
    """
    calls = list(zip(_openblas_calls("get", np), _openblas_calls("set", np)))
    with _NUMPY_BLAS_LOCK:
        counts = [get() for get, _ in calls]
        for _, set_threads in calls:
            set_threads(1)
        try:
            yield
        finally:
            for (_, set_threads), count in zip(calls, counts):
                set_threads(count)


@_one_numpy_blas_thread()
def solve_bound_states(grid: RadialGrid, potential, threshold: float = 0.0) -> VibrationalSpectrum:
    """All levels of T + V on ``grid`` below ``threshold``, normalized and sign-fixed.

    With k_max = sqrt(2 mu (threshold - min V)), the levels are solved on every
    m-th point of ``grid``, m = floor(pi / (2 k_max dr)) capped so that 16
    points remain, and lifted to ``grid`` when m >= 4; otherwise, or when the
    lift is refused, ``grid``'s own H is solved in place (see the module
    docstring).
    A lifted energy lies within its Ritz residual, at most ``LIFT_RESIDUAL`` =
    1e-12 hartree, of an eigenvalue of ``grid``'s H. A lift is refused when a
    level solved on the coarse grid lies above V at an end of the grid, when a
    Ritz value rises above ``threshold``, or when a residual exceeds that bound.
    numpy's bundled OpenBLAS runs one thread during the solve
    (``_one_numpy_blas_thread``).

    The default threshold 0 is the dissociation limit of every shipped
    potential. Raises EmptySpectrumError when nothing is bound, at once for a
    threshold at or below min V (T is positive definite), and ValueError for
    a potential that is not finite on the grid.
    """
    v = np.asarray_chkfinite(potential.value(grid.points), dtype=float)
    depth = threshold - v.min()
    if not depth > 0.0:
        raise EmptySpectrumError(f"no eigenvalue below threshold {threshold}, min V = {v.min()}")
    k_max = math.sqrt(2.0 * grid.mu * depth)
    # every stride-th grid point, at most pi / (2 k_max) apart, and at least 16 of them
    stride = min(math.floor(math.pi / (2.0 * k_max * grid.dr)), (grid.n_points - 1) // 15)
    if stride >= 4:
        lifted = _lift(grid, v, potential, threshold, stride)
        if lifted is not None:
            return lifted
    return _solve_in_place(build_hamiltonian(grid, potential), grid, threshold)


def _lift(grid: RadialGrid, v: np.ndarray, potential, threshold: float,
          stride: int) -> VibrationalSpectrum | None:
    """The levels solved on every ``stride``-th point of ``grid``, lifted to it; None if refused.

    ``v`` is the potential on ``grid``. Grid point j lies j / stride solve
    spacings from r_min, so the sinc interpolation onto ``grid`` is the
    symmetric Toeplitz product of sinc(j / stride) with the levels on every
    stride-th row and zeros between: the block L. ``grid``'s H = T + diag(V) is
    applied to L with T as another such product. The Ritz pairs solve
    L^T H L w = E L^T L w, which leaves L @ w orthonormal.
    """
    points = (grid.n_points - 1) // stride + 1
    coarse = RadialGrid(r_min=grid.r_min, r_max=grid.r_min + (points - 1) * stride * grid.dr,
                        n_points=points, mu=grid.mu)
    try:
        solved = _solve_in_place(build_hamiltonian(coarse, potential), coarse, threshold)
    except EmptySpectrumError:
        return None
    if solved.energies[-1] > min(v[0], v[-1]):
        return None  # a level reaches an end of the grid, where the two grids differ
    stuffed = np.zeros((grid.n_points, solved.bound_count))
    stuffed[::stride] = solved.wavefunctions.T
    lifted = _toeplitz_times(np.sinc(np.arange(grid.n_points) / stride), stuffed)
    hl = _toeplitz_times(_kinetic_column(grid), lifted) + v[:, None] * lifted
    energies, w = sla.eigh(lifted.T @ hl, lifted.T @ lifted)
    vecs = lifted @ w
    residual = float(np.max(np.linalg.norm(hl @ w - vecs * energies, axis=0)))
    if energies[-1] > threshold or not residual <= LIFT_RESIDUAL:
        return None
    psi = np.array([_fix_sign(col) for col in vecs.T / np.sqrt(grid.dr)])
    return VibrationalSpectrum(energies=energies, wavefunctions=psi, grid=grid,
                               lift_points=points, lift_residual=residual)


def _solve_in_place(
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
    Raises EmptySpectrumError when no eigenvalue lies below ``threshold``.
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


# the earlier name, which perfbench calls until it moves to solve_bound_states (ROADMAP item 1)
solve_spectrum = solve_bound_states


def sdme_map(spectrum: VibrationalSpectrum, dipole) -> np.ndarray:
    """|<v|D|v'>|^2 for all bound pairs by grid quadrature: symmetric, in (e*bohr)^2."""
    grid = spectrum.grid
    d = dipole.value(grid.points)
    psi = spectrum.wavefunctions
    elements = grid.dr * (psi * d) @ psi.T
    elements = 0.5 * (elements + elements.T)  # enforce exact symmetry
    return elements**2


def lifetime(spectrum: VibrationalSpectrum, sdme: np.ndarray) -> np.ndarray:
    """Radiative lifetime of every level in seconds, tau_i = 1 / sum_{v<i} A_iv.

    A_iv = (4/3) w^3 |<i|D|v>|^2 / c^3 in atomic units, with w = E_i - E_v, is
    the spontaneous-emission rate of the i -> v transition, converted to SI
    inverse seconds; the channels to every lower level act in parallel.
    Level 0, and any level with no open channel, gets inf.
    """
    e = spectrum.energies.tolist()
    tau = np.full(len(e), math.inf)
    for i in range(1, len(e)):
        # Python floats: numpy's SIMD power can differ from libm's pow in the last bit
        rates = [4.0 / 3.0 * (e[i] - ev) ** 3 * d2 / C_AU**3 / AU_TIME_S
                 for ev, d2 in zip(e[:i], sdme[i, :i].tolist())]
        total = float(np.sum(rates))
        if total != 0.0:
            tau[i] = 1.0 / total
    return tau
