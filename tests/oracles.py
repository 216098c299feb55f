"""Independent oracles and toy models shared across the test suite.

Everything here is computed from closed forms or first principles, never
through the code paths under test.
"""

import math

import numpy as np


class HarmonicPotential:
    """V(r) = mu w^2 (r - r0)^2 / 2 on a positive-r grid."""

    def __init__(self, mu, w, r0):
        self.mu, self.w, self.r0 = mu, w, r0

    def value(self, r):
        return 0.5 * self.mu * self.w**2 * (np.asarray(r, dtype=float) - self.r0) ** 2


class AnharmonicPotential:
    """V(r) = mu w^2 x^2 / 2 + quartic x^4 with x = r - r0.

    A negative quartic softens the well, so level gaps shrink upward and a
    descending ladder sees increasing transition energies; a positive one
    does the opposite.
    """

    def __init__(self, mu, w, r0, quartic):
        self.mu, self.w, self.r0, self.quartic = mu, w, r0, quartic

    def value(self, r):
        x = np.asarray(r, dtype=float) - self.r0
        return 0.5 * self.mu * self.w**2 * x**2 + self.quartic * x**4


class LinearDipole:
    """D(r) = r - r0: couples only adjacent harmonic levels."""

    def __init__(self, r0):
        self.r0 = r0

    def value(self, r):
        return np.asarray(r, dtype=float) - self.r0


class ConstantDipole:
    def __init__(self, d):
        self.d = d

    def value(self, r):
        return np.full_like(np.asarray(r, dtype=float), self.d)


class ZeroPotential:
    def value(self, r):
        return np.zeros_like(np.asarray(r, dtype=float))


def morse_lambda(de, a, mu):
    return math.sqrt(2.0 * mu * de) / a


def morse_bound_count(de, a, mu):
    """Closed-form number of levels below dissociation."""
    return math.floor(morse_lambda(de, a, mu) - 0.5) + 1


def morse_energies(de, a, mu):
    """Analytic Morse spectrum E_n = -de + w0(n+1/2) - w0^2 (n+1/2)^2/(4 de)."""
    w0 = a * math.sqrt(2.0 * de / mu)
    n = np.arange(morse_bound_count(de, a, mu))
    return -de + w0 * (n + 0.5) - w0**2 * (n + 0.5) ** 2 / (4.0 * de)


def gaussian_packet(x, center, sigma, k0=0.0):
    """Normalized Gaussian with position std sigma and mean momentum k0."""
    psi = (2.0 * math.pi * sigma**2) ** (-0.25) * np.exp(
        -((x - center) ** 2) / (4.0 * sigma**2) + 1j * k0 * x
    )
    return psi


def instantaneous_frequency(p, t):
    """omega(t) = omega0 + chirp * (t - tau0), the derivative of the pulse's phase."""
    return p.omega0 + p.chirp * (np.asarray(t, dtype=float) - p.tau0)


def chirped_gaussian_fft_fwhm(tau, chirp):
    """True FWHM of |FT eps|^2 for the chirped Gaussian field.

    Completing the square in the Fourier integral of
    exp(-t^2/2tau^2 + i(w0 t + C t^2/2)) gives
    |FT|^2 ~ exp(-(w-w0)^2 tau^2/(1+C^2 tau^4)).
    """
    return 2.0 * math.sqrt(math.log(2.0) * (1.0 + (chirp * tau**2) ** 2)) / tau
