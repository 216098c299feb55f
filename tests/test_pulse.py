import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ladderdown.dvr import RadialGrid, solve_bound_states
from ladderdown.pulse import (
    GENE_NAMES,
    ChirpSignError,
    ChirpedPulseParams,
    HeuristicRangeError,
    ParamRanges,
    amplitude,
    bandwidth,
    fft_spectrum,
    heuristic_ranges,
    instantaneous_frequency,
    spectrum,
)
from oracles import AnharmonicPotential, chirped_gaussian_fft_fwhm

# published optimal pulses of the four scenarios (atomic units)
PUBLISHED_PULSES = {
    "one_rung_20": ChirpedPulseParams(
        eps0=8.011e-3, omega0=3.531e-5, tau0=4.104e7, tau=9.798e6, chirp=6.259e-13
    ),
    "one_rung_24": ChirpedPulseParams(
        eps0=9.168e-3, omega0=3.723e-5, tau0=3.723e7, tau=1.146e7, chirp=7.300e-13
    ),
    "multi_rung_20": ChirpedPulseParams(
        eps0=5.154e-3, omega0=1.211e-4, tau0=4.900e6, tau=1.489e6, chirp=8.254e-12
    ),
    "multi_rung_24": ChirpedPulseParams(
        eps0=5.720e-3, omega0=1.378e-4, tau0=4.835e6, tau=1.003e6, chirp=5.832e-12
    ),
}

P20 = PUBLISHED_PULSES["one_rung_20"]


class TestAmplitude:
    def test_peak_at_center(self):
        assert amplitude(P20, P20.tau0) == P20.eps0

    def test_gaussian_tail(self):
        for t in (P20.tau0 - 10 * P20.tau, P20.tau0 + 10 * P20.tau):
            assert abs(amplitude(P20, t)) < P20.eps0 * 1e-21

    def test_one_width_out_hand_value(self):
        # eps0 exp(-1/2) cos(w0 tau + C tau^2/2) for the published set
        assert amplitude(P20, P20.tau0 + P20.tau) == pytest.approx(
            0.002705368868848179, rel=1e-12
        )

    @given(
        t_off=st.floats(-8.0, 8.0),
        tau=st.floats(0.5, 100.0),
        chirp=st.floats(1e-6, 1.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_bounded_by_peak_amplitude(self, t_off, tau, chirp):
        p = ChirpedPulseParams(eps0=0.3, omega0=2.0, tau0=50.0, tau=tau, chirp=chirp)
        assert abs(amplitude(p, p.tau0 + t_off * tau)) <= p.eps0

    def test_positivity_validation(self):
        with pytest.raises(ValueError):
            ChirpedPulseParams(eps0=-1e-3, omega0=1.0, tau0=1.0, tau=1.0, chirp=0.1)
        with pytest.raises(ValueError):
            ChirpedPulseParams(eps0=1e-3, omega0=1.0, tau0=1.0, tau=-1.0, chirp=0.1)


class TestInstantaneousFrequency:
    def test_center_value(self):
        assert instantaneous_frequency(P20, P20.tau0) == P20.omega0

    def test_linear_slope(self):
        t = np.array([0.0, 1e6, 5e7])
        delta = 1e4
        slope = (
            instantaneous_frequency(P20, t + delta) - instantaneous_frequency(P20, t)
        ) / delta
        assert slope == pytest.approx(P20.chirp, rel=1e-9)

    def test_published_set_one_width_out(self):
        # 3.531e-5 + 6.259e-13 * 9.798e6
        assert instantaneous_frequency(P20, P20.tau0 + P20.tau) == pytest.approx(
            4.14425682e-05, rel=1e-12
        )

    def test_monotone_upward_sweep_for_positive_chirp(self):
        t = np.linspace(0.0, 1e8, 1000)
        w = instantaneous_frequency(P20, t)
        assert np.all(np.diff(w) > 0)


class TestBandwidth:
    def test_transform_limited_case(self):
        p = ChirpedPulseParams(eps0=1e-3, omega0=1.0, tau0=10.0, tau=2.5, chirp=1e-30)
        expected = 2.0 * math.sqrt(2.0 * math.log(2.0)) / 2.5
        assert bandwidth(p) == pytest.approx(expected, rel=1e-9)

    def test_published_set_value(self):
        assert bandwidth(P20) == pytest.approx(1.4443094296506984e-05, rel=1e-12)

    def test_matches_span_substituted_form(self):
        # with chirp = span/(6 tau), bandwidth = 2 sqrt(2 ln 2) sqrt(1/tau^2 + span^2/36)
        span, tau = 2.1e-5, 4.0e5
        p = ChirpedPulseParams(
            eps0=1e-3, omega0=1e-4, tau0=1e6, tau=tau, chirp=span / (6.0 * tau)
        )
        expected = 2.0 * math.sqrt(2.0 * math.log(2.0)) * math.sqrt(
            1.0 / tau**2 + span**2 / 36.0
        )
        assert bandwidth(p) == pytest.approx(expected, rel=1e-12)


class TestSpectrum:
    def test_peak_value_at_center(self):
        expected = math.sqrt(P20.tau**4 / (1.0 + (P20.chirp * P20.tau**2) ** 2)) * P20.eps0**2
        assert spectrum(P20, P20.omega0) == pytest.approx(expected, rel=1e-12)
        assert spectrum(P20, P20.omega0) == pytest.approx(102519947.69074573, rel=1e-10)

    def test_chirp_free_peak_is_tau_squared_eps_squared(self):
        p = ChirpedPulseParams(eps0=2e-3, omega0=0.5, tau0=30.0, tau=7.0, chirp=1e-30)
        assert spectrum(p, 0.5) == pytest.approx(7.0**2 * (2e-3) ** 2, rel=1e-9)

    def test_peak_location_is_center_frequency(self):
        w = np.linspace(P20.omega0 * 0.5, P20.omega0 * 1.5, 4001)
        intens = spectrum(P20, w)
        assert w[int(np.argmax(intens))] == pytest.approx(P20.omega0, rel=1e-3)
        assert spectrum(P20, P20.omega0) > spectrum(P20, P20.omega0 * (1 + 1e-6))

    def test_quadratic_amplitude_scaling(self):
        w = np.linspace(P20.omega0 * 0.8, P20.omega0 * 1.2, 64)
        base = spectrum(P20, w)
        doubled = spectrum(
            ChirpedPulseParams(
                eps0=2 * P20.eps0, omega0=P20.omega0, tau0=P20.tau0,
                tau=P20.tau, chirp=P20.chirp,
            ),
            w,
        )
        assert doubled == pytest.approx(4.0 * base, rel=1e-12)

    def test_finite_integral(self):
        w = np.linspace(0.0, 4.0 * P20.omega0, 200001)
        total = np.trapezoid(spectrum(P20, w), w)
        assert np.isfinite(total) and total > 0


def _fft_peak_and_fwhm(p):
    freqs, power = fft_spectrum(p)
    k = int(np.argmax(power))
    half = 0.5 * power[k]
    above = np.nonzero(power >= half)[0]
    return freqs[k], freqs[above[-1]] - freqs[above[0]]


class TestFftCrossCheck:
    @pytest.mark.parametrize("name", sorted(PUBLISHED_PULSES))
    def test_fft_peak_matches_center_frequency(self, name):
        p = PUBLISHED_PULSES[name]
        peak, _ = _fft_peak_and_fwhm(p)
        assert abs(peak - p.omega0) / p.omega0 < 0.02

    @pytest.mark.parametrize("name", sorted(PUBLISHED_PULSES))
    def test_fft_width_matches_closed_form(self, name):
        p = PUBLISHED_PULSES[name]
        _, fwhm = _fft_peak_and_fwhm(p)
        expected = chirped_gaussian_fft_fwhm(p.tau, p.chirp)
        assert abs(fwhm - expected) / expected < 0.02

    @pytest.mark.parametrize("name", sorted(PUBLISHED_PULSES))
    def test_analytic_width_convention_ratio(self, name):
        # the analytic bandwidth enters as an FWHM-style factor, so the
        # emitted line is 4 sqrt(ln 2) times the true optical width
        p = PUBLISHED_PULSES[name]
        _, fwhm_fft = _fft_peak_and_fwhm(p)
        w = np.linspace(max(p.omega0 - 20 * bandwidth(p), 0.0),
                        p.omega0 + 20 * bandwidth(p), 400001)
        intens = spectrum(p, w)
        above = np.nonzero(intens >= 0.5 * intens.max())[0]
        fwhm_analytic = w[above[-1]] - w[above[0]]
        assert fwhm_analytic / fwhm_fft == pytest.approx(4.0 * math.sqrt(math.log(2.0)), rel=0.03)


class TestParamRanges:
    def test_degenerate_range_rejected(self):
        with pytest.raises(ValueError):
            ParamRanges(
                eps0=(1e-3, 1e-3), omega0=(1e-5, 2e-5), tau0=(1e6, 2e6),
                tau=(1e5, 2e5), chirp=(1e-13, 1e-12),
            )

    def test_fields_follow_the_gene_order(self):
        # as_arrays, and a ParamRanges built positionally, rely on this order
        assert GENE_NAMES == ("eps0", "omega0", "tau0", "tau", "chirp")
        assert tuple(f.name for f in fields(ParamRanges)) == GENE_NAMES


def unit_sdme(spec):
    """Unit |<v|D|v'>|^2 for every pair, where the amplitude bounds play no part."""
    return np.ones((spec.bound_count, spec.bound_count))


@pytest.fixture(scope="module")
def soft_anharmonic_spectrum():
    # softening quartic: level gaps shrink upward, so descending ladders
    # see increasing transition energies (the positive-chirp premise)
    grid = RadialGrid(r_min=2.0, r_max=18.0, n_points=384, mu=1.0)
    pot = AnharmonicPotential(mu=1.0, w=1.0, r0=10.0, quartic=-0.004)
    return grid, pot, solve_bound_states(grid, pot, threshold=8.0)


class TestHeuristicRanges:
    def test_bounds_match_bandwidth_brute_force(self, soft_anharmonic_spectrum):
        grid, pot, spec = soft_anharmonic_spectrum
        ladder = (5, 4, 3, 2, 1)
        ranges = heuristic_ranges(spec, 5, ladder, lifetime_au=1e30, sdme=unit_sdme(spec))
        # independent recomputation from raw eigenvalues
        e = spec.energies
        gaps = [e[a] - e[b] for a, b in zip(ladder, ladder[1:])]
        assert all(g2 > g1 for g1, g2 in zip(gaps, gaps[1:]))
        dw = gaps[-1] - gaps[0]
        tau_bound = 1.0 / (
            dw * math.sqrt(1.0 / (8.0 * math.log(2.0)) - 1.0 / 36.0)
        )
        assert ranges.tau[0] == pytest.approx(tau_bound, rel=1e-12)
        # the produced tau range respects the bandwidth lower bound:
        # sigma(tau_min, chirp=dw/(6 tau_min)) covers the ladder span
        p = ChirpedPulseParams(
            eps0=1e-3, omega0=gaps[0], tau0=3 * ranges.tau[0],
            tau=ranges.tau[0], chirp=dw / (6.0 * ranges.tau[0]),
        )
        assert bandwidth(p) == pytest.approx(dw, rel=1e-9)
        assert ranges.omega0[0] == pytest.approx(gaps[0], rel=1e-12)

    def test_equal_gaps_raise_chirp_sign_error(self, soft_anharmonic_spectrum):
        grid, *_ = soft_anharmonic_spectrum
        import oracles

        harm = solve_bound_states(grid, oracles.HarmonicPotential(1.0, 1.0, 10.0), threshold=8.0)
        with pytest.raises(ChirpSignError):
            heuristic_ranges(harm, 4, (4, 3, 2, 1), lifetime_au=1e30, sdme=unit_sdme(harm))

    def test_decreasing_gaps_raise_chirp_sign_error(self):
        # hardening quartic: gaps grow upward, wrong direction for descent
        grid = RadialGrid(r_min=2.0, r_max=18.0, n_points=384, mu=1.0)
        pot = AnharmonicPotential(mu=1.0, w=1.0, r0=10.0, quartic=+0.01)
        spec = solve_bound_states(grid, pot, threshold=12.0)
        with pytest.raises(ChirpSignError):
            heuristic_ranges(spec, 5, (5, 4, 3, 2), lifetime_au=1e30, sdme=unit_sdme(spec))

    def test_lifetime_guard(self, soft_anharmonic_spectrum):
        _, _, spec = soft_anharmonic_spectrum
        with pytest.raises(HeuristicRangeError):
            heuristic_ranges(spec, 5, (5, 4, 3, 2, 1), lifetime_au=1e3, sdme=unit_sdme(spec))

    def test_ladder_must_start_at_initial_level(self, soft_anharmonic_spectrum):
        _, _, spec = soft_anharmonic_spectrum
        with pytest.raises(ValueError):
            heuristic_ranges(spec, 6, (5, 4, 3), lifetime_au=1e30, sdme=unit_sdme(spec))

    def test_ranges_are_valid_and_amplitude_capped(self, desk_spectrum, desk_sdme):
        ranges = heuristic_ranges(
            desk_spectrum, 8, (8, 6, 4, 2), lifetime_au=1e20,
            sdme=desk_sdme, tau_span=2.5,
        )
        los, his = ranges.as_arrays()
        assert np.all(los < his) and np.all(los > 0)
        assert ranges.eps0[1] <= 1e-2
        # published-style seed point chirp = span/(6 tau) lies inside the box
        e = desk_spectrum.energies
        gaps = [e[a] - e[b] for a, b in zip((8, 6, 4, 2), (6, 4, 2))]
        dw = gaps[-1] - gaps[0]
        seed = dw / (6.0 * ranges.tau[0])
        assert ranges.chirp[0] <= seed <= ranges.chirp[1]
