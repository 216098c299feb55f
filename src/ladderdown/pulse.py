"""Linearly chirped Gaussian pulse: waveform, spectrum, and search ranges.

The five pulse parameters (amplitude, carrier frequency, time shift, width,
chirp rate) are the genes the optimizer evolves. ``heuristic_ranges`` turns
a vibrational spectrum and a descending level ladder into physically
motivated search bounds for all five of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .constants import FWHM_FACTOR

class ChirpSignError(Exception):
    """Ladder transition energies do not increase, so no positive chirp fits."""


class HeuristicRangeError(Exception):
    """The range heuristics produced an empty or unphysical search box."""


@dataclass(frozen=True)
class ChirpedPulseParams:
    """Pulse parameter set, all in atomic units.

    eps0   peak field amplitude
    omega0 carrier angular frequency at t = tau0
    tau0   center (time shift) of the Gaussian envelope
    tau    Gaussian width (standard deviation)
    chirp  linear sweep rate of the instantaneous frequency
    """

    eps0: float
    omega0: float
    tau0: float
    tau: float
    chirp: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in self.as_array()):
            raise ValueError(f"pulse parameters must be finite, got {self}")
        if self.eps0 <= 0 or self.omega0 <= 0 or self.tau0 <= 0 or self.tau <= 0:
            raise ValueError(f"pulse parameters must be positive, got {self}")

    def as_array(self) -> np.ndarray:
        return np.array([getattr(self, f.name) for f in fields(self)])

    @classmethod
    def from_array(cls, genes) -> "ChirpedPulseParams":
        return cls(*(float(g) for g in genes))


# the gene order of every array of genes, ranges and CSV columns
GENE_NAMES = tuple(f.name for f in fields(ChirpedPulseParams))


@dataclass(frozen=True)
class ParamRanges:
    """Per-gene (min, max) search bounds; 0 < min < max < inf for each."""

    eps0: tuple[float, float]
    omega0: tuple[float, float]
    tau0: tuple[float, float]
    tau: tuple[float, float]
    chirp: tuple[float, float]

    def __post_init__(self):
        for f in fields(self):
            lo, hi = getattr(self, f.name)
            if not lo < hi:
                raise ValueError(f"{f.name}: need min < max, got ({lo}, {hi})")
            if lo <= 0:
                raise ValueError(f"{f.name}: bounds must be positive, got ({lo}, {hi})")
            if not math.isfinite(hi):
                raise ValueError(f"{f.name}: bounds must be finite, got ({lo}, {hi})")

    def as_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        los, his = zip(*(getattr(self, f.name) for f in fields(self)))
        return np.array(los), np.array(his)


def amplitude(p: ChirpedPulseParams, t):
    """Field eps(t) = eps0 * exp(-(t-tau0)^2/2tau^2) * cos(phase)."""
    dt = np.asarray(t, dtype=float) - p.tau0
    return p.eps0 * np.exp(-(dt**2) / (2.0 * p.tau**2)) * np.cos(
        p.omega0 * dt + 0.5 * p.chirp * dt**2
    )


def bandwidth(p: ChirpedPulseParams) -> float:
    """Spectral bandwidth sigma = 2*sqrt(2 ln 2) * sqrt(1/tau^2 + tau^2 C^2)."""
    return FWHM_FACTOR * math.sqrt(1.0 / p.tau**2 + (p.tau * p.chirp) ** 2)


def spectrum(p: ChirpedPulseParams, omega):
    """Optical spectrum I(w) = sqrt(tau^4/(1+C^2 tau^4)) eps0^2 exp(-(w-w0)^2/2s^2).

    ``s`` is the bandwidth() value. The peak sits exactly at omega0; the
    width convention follows the analytic bandwidth expression rather than
    the true Fourier width of the waveform (see fft_spectrum for the
    independent cross-check).
    """
    s = bandwidth(p)
    prefactor = math.sqrt(p.tau**4 / (1.0 + (p.chirp * p.tau**2) ** 2)) * p.eps0**2
    w = np.asarray(omega, dtype=float)
    return prefactor * np.exp(-((w - p.omega0) ** 2) / (2.0 * s**2))


def as_field(p: ChirpedPulseParams):
    """Vectorized eps(t) callable for the propagator."""
    return lambda t: amplitude(p, t)


def duration(p: ChirpedPulseParams) -> float:
    """Propagation horizon covering the pulse: tau0 + 4*tau."""
    return p.tau0 + 4.0 * p.tau


def fft_spectrum(p: ChirpedPulseParams):
    """Discrete Fourier spectrum |FT eps|^2 of the sampled waveform.

    Samples the field over tau0 +- 8 tau and returns the positive
    frequency axis (angular, a.u.) with the squared transform magnitude.
    Zero-padding eightfold interpolates the line shape finely enough to
    read peak and width off the grid. Serves as the model-free cross-check
    of the analytic spectrum().
    """
    # sampled 8 times finer than the Nyquist rate of the highest frequency
    n_widths, oversample, pad_factor = 8.0, 8, 8
    w_highest = abs(p.omega0) + abs(p.chirp) * n_widths * p.tau + 10.0 / p.tau
    dt = 2.0 * math.pi / (2.0 * oversample * w_highest)
    n = int(math.ceil(2.0 * n_widths * p.tau / dt))
    n = 1 << (n - 1).bit_length()  # power of two for the transform
    t = p.tau0 - n_widths * p.tau + dt * np.arange(n)
    sig = amplitude(p, t)
    n_fft = pad_factor * n
    spec = np.abs(np.fft.rfft(sig, n=n_fft)) ** 2
    freqs = 2.0 * math.pi * np.fft.rfftfreq(n_fft, d=dt)
    return freqs, spec


def _ladder_gaps(energies: np.ndarray, ladder) -> np.ndarray:
    ladder = list(ladder)
    if len(ladder) < 2 or any(a <= b for a, b in zip(ladder, ladder[1:])):
        raise ValueError(f"ladder must strictly descend, got {ladder}")
    return np.array([energies[a] - energies[b] for a, b in zip(ladder, ladder[1:])])


def heuristic_ranges(
    spectrum,
    i: int,
    ladder,
    lifetime_au: float,
    sdme: np.ndarray,
    tau_span: float,
) -> ParamRanges:
    """Physically motivated search bounds for the five pulse genes.

    The ladder is the descending level sequence the pulse should drive,
    starting at ``i``. Its successive transition energies must increase
    (that is what a positive chirp sweeps through); otherwise
    ChirpSignError is raised. A ladder of one rung has no frequency span,
    and raises HeuristicRangeError.

    Bounds, following the bandwidth/chirp/Rabi reasoning:

    * tau: lower bound from requiring the chirped bandwidth to cover the
      ladder's frequency span, upper bound ``tau_span`` times that.
    * tau0: about three envelope widths, so the pulse is fully on the grid.
    * chirp: seeded at span/(6*tau); the upper bound is extended to
      span/(2*tau_min) so the box also holds sweeps that cross every rung
      well inside the envelope rather than out in its tails.
    * omega0: first transition frequency, offset upward by tau0*chirp.
    * eps0: Rabi period ~ 2/(eps0 * |<v|D|v'>|) of the weakest ladder rung
      matched to the tau range, capped at 1e-2 a.u. (ionization ceiling).
      ``sdme`` is the matrix of |<v|D|v'>|^2 that ``dvr.sdme_map`` returns.

    tau and tau0 must stay far below ``lifetime_au``, the radiative lifetime
    of the initial level in a.u.; HeuristicRangeError otherwise.
    """
    if ladder[0] != i:
        raise ValueError(f"ladder must start at the initial level {i}, got {ladder[0]}")
    gaps = _ladder_gaps(spectrum.energies, ladder)
    if len(gaps) < 2:
        raise HeuristicRangeError(
            f"a ladder of one rung {list(ladder)} spans no frequency range to chirp over"
        )
    if np.any(np.diff(gaps) <= 0):
        raise ChirpSignError(
            f"ladder transition energies must strictly increase for a positive "
            f"chirp, got {gaps.tolist()}"
        )
    dw = float(gaps[-1] - gaps[0])

    # bandwidth(tau) ~ dw with chirp = dw/(6 tau) solves to this lower bound
    inv_tau2 = dw**2 * (1.0 / (8.0 * math.log(2.0)) - 1.0 / 36.0)
    tau_lo = 1.0 / math.sqrt(inv_tau2)
    tau_hi = tau_span * tau_lo
    tau0_lo, tau0_hi = 3.0 * tau_lo, 3.5 * tau_hi
    if tau_hi >= lifetime_au / 100.0 or tau0_hi >= lifetime_au / 100.0:
        raise HeuristicRangeError(
            f"pulse timescales (tau up to {tau_hi:g}) approach the radiative "
            f"lifetime {lifetime_au:g} a.u."
        )
    chirp_lo, chirp_hi = dw / (6.0 * tau_hi), dw / (2.0 * tau_lo)
    w_first = float(gaps[0])
    omega0_lo, omega0_hi = w_first, w_first + 3.5 * dw / 6.0

    eps_cap = 1.0e-2
    d_min = float(min(math.sqrt(sdme[a, b]) for a, b in zip(ladder, ladder[1:])))
    if d_min == 0.0:
        raise HeuristicRangeError("ladder has a zero dipole coupling")
    # Rabi period 2/(eps0 d) of the weakest rung matched to the envelope
    eps_lo = min(2.0 / (tau_hi * d_min), eps_cap / 2.0)
    eps_hi = min(2.0 / (tau_lo * d_min), eps_cap)
    if not eps_lo < eps_hi:
        raise HeuristicRangeError(
            f"amplitude range collapsed: [{eps_lo:g}, {eps_hi:g}]"
        )
    return ParamRanges(
        eps0=(eps_lo, eps_hi),
        omega0=(omega0_lo, omega0_hi),
        tau0=(tau0_lo, tau0_hi),
        tau=(tau_lo, tau_hi),
        chirp=(chirp_lo, chirp_hi),
    )
