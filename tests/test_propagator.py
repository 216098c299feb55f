import math
from dataclasses import replace

import numpy as np
import pytest

from ladderdown.curves import MorsePotential
from ladderdown.dvr import RadialGrid, _openblas_calls, sdme_map, solve_bound_states
from ladderdown import propagator
from ladderdown.propagator import (
    POP_TOL,
    CapSpec,
    EigenStepper,
    PropagationBlowupError,
    SplitStepper,
    TimeStepError,
    WavefunctionState,
    _FieldFactor,
    cap_value,
    populations,
    propagate,
    tolerance_time_step,
)
from ladderdown.pulse import ChirpedPulseParams, as_field, duration
from oracles import HarmonicPotential, LinearDipole, ZeroPotential, gaussian_packet


@pytest.fixture(scope="module")
def harmonic_system():
    grid = RadialGrid(r_min=2.0, r_max=18.0, n_points=256, mu=1.0)
    pot = HarmonicPotential(mu=1.0, w=1.0, r0=10.0)
    dip = LinearDipole(10.0)
    spectrum = solve_bound_states(grid, pot, threshold=12.0)
    return grid, pot, dip, spectrum


@pytest.fixture(scope="module")
def morse_two_level():
    # strongly anharmonic well, so the lowest pair is spectrally isolated
    grid = RadialGrid(r_min=4.0, r_max=24.0, n_points=256, mu=50.0)
    pot = MorsePotential(de=0.25, re=10.0, a=1.0)
    dip = LinearDipole(10.0)
    spectrum = solve_bound_states(grid, pot)
    return grid, pot, dip, spectrum


class TestCap:
    def test_zero_at_and_before_onset(self):
        cap = CapSpec(r0=50.0, eta=3e-5)
        assert cap_value(cap, 50.0) == 0.0
        assert np.all(cap_value(cap, np.linspace(1.0, 50.0, 20)) == 0.0)

    def test_unit_displacement(self):
        cap = CapSpec(r0=50.0, eta=3e-5)
        assert cap_value(cap, 51.0) == -1j * 3e-5

    def test_strength_validation(self):
        with pytest.raises(ValueError):
            CapSpec(r0=50.0, eta=0.0)

    def test_onset_must_be_inside_grid(self, harmonic_system):
        grid, pot, dip, _ = harmonic_system
        with pytest.raises(ValueError):
            SplitStepper(grid, pot, dip, CapSpec(r0=30.0, eta=1e-5), dt=0.1)


class TestFreeDispersion:
    def test_gaussian_width_growth(self):
        grid = RadialGrid(r_min=1.0, r_max=101.0, n_points=512, mu=1.0)
        x = grid.points
        psi0 = gaussian_packet(x, 51.0, 1.0)
        state = WavefunctionState(psi=psi0, t=0.0, grid=grid)
        n_steps, dt = 1000, 0.01
        rec = propagate(state, None, SplitStepper(grid, ZeroPotential(), None, None, dt),
                        t_max=n_steps * dt, sample_stride=n_steps)
        prob = np.abs(rec.final_state.psi) ** 2 * grid.dr
        mean = float(np.sum(prob * x))
        var = float(np.sum(prob * (x - mean) ** 2))
        t = n_steps * dt
        var_exact = 1.0 + (t / (2.0 * 1.0 * 1.0)) ** 2
        assert abs(var - var_exact) / var_exact < 1e-6


class TestEigenstateEvolution:
    def test_stationary_overlap_and_phase(self, harmonic_system):
        grid, pot, dip, spectrum = harmonic_system
        v = 0
        psi_v = spectrum.wavefunctions[v]
        state = WavefunctionState(psi=psi_v.astype(complex), t=0.0, grid=grid)
        dt, n_steps, stride = 1e-3, 10_000, 100
        stepper = SplitStepper(grid, pot, dip, None, dt)
        psi = state.psi.copy()
        overlaps = [complex(grid.dr * np.vdot(psi_v, psi))]
        for _ in range(n_steps // stride):
            psi = stepper.run(psi, 0.0, stride, None)
            overlaps.append(complex(grid.dr * np.vdot(psi_v, psi)))
        survival = np.abs(np.array(overlaps)) ** 2
        assert np.min(survival) > 1.0 - 1e-8
        phases = np.unwrap(np.angle(np.array(overlaps)))
        expected = -spectrum.energies[v] * dt * n_steps
        assert abs(phases[-1] - expected) < 1e-6

    def test_norm_conservation_without_cap(self, harmonic_system):
        grid, pot, dip, spectrum = harmonic_system
        p = ChirpedPulseParams(eps0=0.02, omega0=1.0, tau0=5.0, tau=2.0, chirp=0.05)
        psi0 = (spectrum.wavefunctions[0] + spectrum.wavefunctions[1]) / math.sqrt(2.0)
        state = WavefunctionState(psi=psi0.astype(complex), t=0.0, grid=grid)
        rec = propagate(state, p, SplitStepper(grid, pot, dip, None, 1e-3), t_max=10.0,
                        sample_stride=1000, spectrum=spectrum)
        assert rec.steps == 10_000
        assert np.max(np.abs(rec.norm - 1.0)) < 1e-10


class TestStepperRun:
    def test_split_run_matches_one_run_across_field_blocks(self, harmonic_system):
        # 1300 steps span three field blocks; a restart at step 700 must pick
        # the field up at t0 + 700*dt and land on the same state
        grid, pot, dip, _ = harmonic_system
        cap = CapSpec(r0=13.0, eta=1e-2)
        field = as_field(ChirpedPulseParams(eps0=0.5, omega0=1.0, tau0=6.0, tau=3.0, chirp=0.05))
        dt, t0 = 1e-2, 0.3
        stepper = SplitStepper(grid, pot, dip, cap, dt)
        psi0 = gaussian_packet(grid.points, 10.0, 0.7, k0=4.0)
        whole = stepper.run(psi0.copy(), t0, 1300, field)
        first = stepper.run(psi0.copy(), t0, 700, field)
        split = stepper.run(first, t0 + 700 * dt, 600, field)
        assert np.max(np.abs(whole - split)) < 1e-12
        # the check is sharp: a one-step field offset or a missing absorber shows
        shifted = stepper.run(first, t0 + 701 * dt, 600, field)
        assert np.max(np.abs(whole - shifted)) > 1e-6
        assert grid.dr * np.sum(np.abs(whole) ** 2) < 1.0 - 1e-3


THETAS = [0.0, 1e-3, 0.1, 0.49, 0.5, 0.51, 1.0, 3.0, 7.5, 20.0]


# phase vectors of these lengths take one product per step and one per block of steps
ROW_PHASES, BLOCK_PHASES = 2001, propagator._BLOCK


class TestFieldFactor:
    @staticmethod
    def factors(a, eps):
        """Every step's factor under the field eps[k] at step k, as rows."""
        field = lambda t: eps[np.floor(np.asarray(t)).astype(int)]
        blocks = _FieldFactor(a).blocks(field, 0.0, 1.0, eps.size)
        return np.concatenate([f.copy() for _, f in blocks])

    @pytest.mark.parametrize("sign", [1.0, -1.0])  # -1: the phases of a negative dt
    @pytest.mark.parametrize("theta", THETAS)
    def test_matches_exp(self, theta, sign):
        eps = theta * np.array([1.0, -0.3, 0.7, -1.0, 0.0])
        for size in (ROW_PHASES, BLOCK_PHASES):
            rng = np.random.default_rng(7)
            a = sign * np.append(rng.uniform(-1.0, 1.0, size - 1), 1.0)  # max|a| = 1
            want = np.exp(-1j * eps[:, None] * a)
            got = self.factors(a, eps)
            # each squaring doubles the rounding error of the halved phase, so above
            # a few radians the error grows like theta, as exp's does with its argument
            assert np.max(np.abs(got - want)) <= 2e-15 * max(1.0, theta / 2.0)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("theta", THETAS)
    def test_stacked_blocks_match_the_rows(self, theta, sign):
        # 600 steps span two blocks; the last step carries the largest field. The
        # first BLOCK_PHASES phases, max|a| among them, take one product per step
        # as part of the longer vector and one product per block on their own
        rng = np.random.default_rng(7)
        a = sign * np.append(1.0, rng.uniform(-1.0, 1.0, ROW_PHASES - 1))
        eps = theta * np.append(rng.uniform(-1.0, 1.0, 599), 1.0)
        rows = self.factors(a, eps)[:, :BLOCK_PHASES]
        stacked = self.factors(a[:BLOCK_PHASES], eps)
        # the matrix product and the per-row one round the unsquared factor about
        # one ulp apart, and each of the s squarings doubles that; 2^s <= 4 theta
        assert np.max(np.abs(stacked - rows)) <= 2e-16 * max(1.0, 4.0 * theta)

    def test_a_one_row_product_rounds_as_the_vector_product(self):
        # a step's factor on a long grid is the product of its (1, M+1) weights
        # with the (M+1, 2n) rows; it keeps every bit of the 1-D product
        rng = np.random.default_rng(7)
        rows = _FieldFactor(rng.uniform(-1.0, 1.0, ROW_PHASES)).rows
        for scale in (1e-3, 0.3, 0.5):
            w = scale ** np.arange(rows.shape[0] - 1, -1, -1.0)
            one_row = np.empty((1, rows.shape[1]))
            np.matmul(w[None], rows, out=one_row)
            assert np.array_equal(one_row[0], w @ rows)

    @pytest.mark.parametrize("eigen", [False, True])
    def test_a_scalar_field_steps_as_its_samples(self, harmonic_system, eigen):
        # a callable field may return one value for an array of times
        grid, pot, dip, spectrum = harmonic_system
        dt = 0.01
        stepper = (EigenStepper(spectrum, dip, None, dt) if eigen
                   else SplitStepper(grid, pot, dip, None, dt))
        state = WavefunctionState(psi=spectrum.wavefunctions[0].astype(complex), t=0.0,
                                  grid=grid)
        scalar, samples = (propagate(state, field, stepper, t_max=1.0, spectrum=spectrum)
                           for field in (lambda t: 0.5, lambda t: np.full(np.shape(t), 0.5)))
        assert np.array_equal(scalar.final_state.psi, samples.final_state.psi)
        assert np.array_equal(scalar.field_values, samples.field_values)
        assert scalar.populations[-1, 0] < 1.0 - 1e-3  # the field did act

    @pytest.mark.parametrize("eigen", [False, True])
    def test_nan_field_at_one_midpoint_blows_up(self, harmonic_system, eigen):
        grid, pot, dip, spectrum = harmonic_system
        dt = 0.01
        stepper = (EigenStepper(spectrum, dip, None, dt) if eigen
                   else SplitStepper(grid, pot, dip, None, dt))

        def field(t):
            t = np.asarray(t)
            return np.where(np.abs(t - 55.5 * dt) < 1e-9, np.nan, 0.02 * np.cos(t))

        state = WavefunctionState(psi=spectrum.wavefunctions[0].astype(complex), t=0.0,
                                  grid=grid)
        with pytest.raises(PropagationBlowupError) as err:
            propagate(state, field, stepper, t_max=1.0, sample_stride=10)
        assert err.value.step_index == 60

    @pytest.mark.parametrize("eps0", [0.5, 20.0])  # phases up to 0.04 and 1.6 rad
    def test_grid_steps_match_an_exp_reference(self, harmonic_system, eps0):
        grid, pot, dip, _ = harmonic_system
        cap = CapSpec(r0=13.0, eta=1e-2)
        field = as_field(ChirpedPulseParams(eps0=eps0, omega0=1.0, tau0=1.5, tau=0.5, chirp=0.05))
        dt, t0, n = 1e-2, 0.3, 200
        psi0 = gaussian_packet(grid.points, 10.0, 0.7, k0=4.0)
        got = SplitStepper(grid, pot, dip, cap, dt).run(psi0.copy(), t0, n, field)
        # the same Strang steps, written out with one exp per factor
        r = grid.points
        k = 2.0 * math.pi * np.fft.fftfreq(grid.n_points, d=grid.dr)
        kin_half = np.exp(-0.5j * dt * k**2 / (2.0 * grid.mu))
        w = pot.value(r) + cap_value(cap, r)
        psi = psi0.copy()
        for j in range(n):
            eps = field(t0 + (j + 0.5) * dt)
            psi = np.fft.ifft(kin_half * np.fft.fft(psi))
            psi *= np.exp(-1j * dt * (w + eps * dip.value(r)))
            psi = np.fft.ifft(kin_half * np.fft.fft(psi))
        assert np.max(np.abs(got - psi)) < 1e-13


class TestStrangOrder:
    def test_halving_dt_quarters_the_error(self, harmonic_system):
        grid, pot, dip, spectrum = harmonic_system
        p = ChirpedPulseParams(eps0=0.02, omega0=1.0, tau0=10.0, tau=3.0, chirp=0.02)
        psi0 = spectrum.wavefunctions[0].astype(complex)
        state = WavefunctionState(psi=psi0, t=0.0, grid=grid)
        t_total = 20.0

        def final(dt):
            rec = propagate(state, p, SplitStepper(grid, pot, dip, None, dt), t_max=t_total,
                            sample_stride=10**9)
            return rec.final_state.psi

        ref = final(t_total / 2**13)
        err_coarse = np.linalg.norm(final(t_total / 2**10) - ref)
        err_fine = np.linalg.norm(final(t_total / 2**11) - ref)
        ratio = err_coarse / err_fine
        assert 4.0 * 0.8 < ratio < 4.0 * 1.2


class TestRabiOracle:
    def test_weak_resonant_two_level_period(self, morse_two_level):
        grid, pot, dip, spectrum = morse_two_level
        w01 = spectrum.energies[1] - spectrum.energies[0]
        d01 = math.sqrt(sdme_map(spectrum, dip)[0, 1])
        eps = 0.004
        period = 2.0 * math.pi / (eps * d01)
        state = WavefunctionState(
            psi=spectrum.wavefunctions[0].astype(complex), t=0.0, grid=grid
        )
        rec = propagate(
            state, lambda t: eps * np.cos(w01 * np.asarray(t)),
            SplitStepper(grid, pot, dip, None, 0.25), t_max=0.75 * period, sample_stride=20,
            spectrum=spectrum,
        )
        p0 = rec.populations[:, 0]
        t_min = rec.times[int(np.argmin(p0))]
        assert abs(t_min - period / 2.0) / (period / 2.0) < 0.05
        assert float(np.min(p0)) < 0.01  # transfer is essentially complete


@pytest.fixture(scope="module")
def runs():
    """Half-bound, half-outgoing packet: absorber run vs doubled-grid run."""
    pot = MorsePotential(de=5.0, re=3.0, a=1.0)

    def make_state(grid):
        spectrum = solve_bound_states(grid, pot)
        x = grid.points
        g = gaussian_packet(x, 30.0, 2.0, 6.0)
        g /= math.sqrt(grid.dr * np.sum(np.abs(g) ** 2))
        psi = (
            math.sqrt(0.6) * spectrum.wavefunctions[0].astype(complex)
            + math.sqrt(0.4) * g
        )
        return spectrum, WavefunctionState(psi=psi, t=0.0, grid=grid)

    grid_cap = RadialGrid(r_min=0.5, r_max=100.5, n_points=1000, mu=1.0)
    spec_cap, state_cap = make_state(grid_cap)
    rec_cap = propagate(
        state_cap, None, SplitStepper(grid_cap, pot, None, CapSpec(r0=60.0, eta=0.02), 0.02),
        t_max=25.0, sample_stride=50, spectrum=spec_cap,
    )
    grid_big = RadialGrid(r_min=0.5, r_max=200.5, n_points=2000, mu=1.0)
    spec_big, state_big = make_state(grid_big)
    rec_big = propagate(
        state_big, None, SplitStepper(grid_big, pot, None, None, 0.02),
        t_max=25.0, sample_stride=10**9, spectrum=spec_big,
    )
    return rec_cap, rec_big


class TestCapAccounting:
    def test_norm_non_increasing_under_cap(self, runs):
        rec_cap, _ = runs
        assert np.all(np.diff(rec_cap.norm) <= 1e-12)

    def test_dissociation_matches_unitary_reference(self, runs):
        # flux removed by the absorber == continuum content of the big run
        rec_cap, rec_big = runs
        continuum_big = 1.0 - rec_big.total_bound[-1]
        assert abs(rec_cap.dissociation[-1] - continuum_big) < 1e-6

    def test_bound_population_untouched_by_cap(self, runs):
        rec_cap, rec_big = runs
        assert abs(rec_cap.total_bound[-1] - rec_big.total_bound[-1]) < 1e-6

    def test_dissociation_mirrors_norm_exactly(self, runs):
        rec_cap, _ = runs
        assert np.array_equal(rec_cap.dissociation, 1.0 - rec_cap.norm)


class TestPopulations:
    def test_eigenstate_projects_to_one(self, harmonic_system):
        grid, _, _, spectrum = harmonic_system
        state = WavefunctionState(
            psi=spectrum.wavefunctions[3].astype(complex), t=0.0, grid=grid
        )
        pops = populations(state, spectrum)
        assert pops[3] == pytest.approx(1.0, abs=1e-10)
        others = np.delete(pops, 3)
        assert np.max(others) < 1e-20

    def test_equal_superposition(self, harmonic_system):
        grid, _, _, spectrum = harmonic_system
        psi = (spectrum.wavefunctions[1] + spectrum.wavefunctions[4]) / math.sqrt(2.0)
        state = WavefunctionState(psi=psi.astype(complex), t=0.0, grid=grid)
        pops = populations(state, spectrum)
        assert pops[1] == pytest.approx(0.5, abs=1e-10)
        assert pops[4] == pytest.approx(0.5, abs=1e-10)
        assert np.sum(pops) == pytest.approx(1.0, abs=1e-10)
        assert 1.0 - state.norm() == pytest.approx(0.0, abs=1e-10)


class TestPropagateBookkeeping:
    def test_zero_field_keeps_populations_constant(self, harmonic_system):
        # residual drift is the dt^2 Strang perturbation of the eigenbasis
        grid, pot, dip, spectrum = harmonic_system
        psi0 = (spectrum.wavefunctions[0] + spectrum.wavefunctions[2]) / math.sqrt(2.0)
        state = WavefunctionState(psi=psi0.astype(complex), t=0.0, grid=grid)
        rec = propagate(state, None, SplitStepper(grid, pot, dip, None, 1e-4), t_max=5.0,
                        sample_stride=5000, spectrum=spectrum)
        drift = np.max(np.abs(rec.populations - rec.populations[0]), axis=0)
        assert np.max(drift) < 1e-8

    def test_bound_population_never_exceeds_norm(self, desk_grid, desk_spectrum,
                                                 standin_potential, standin_dipole):
        p = ChirpedPulseParams(eps0=6e-3, omega0=1.15e-4, tau0=4.5e5, tau=1.5e5,
                               chirp=4e-11)
        state = WavefunctionState(
            psi=desk_spectrum.wavefunctions[8].astype(complex), t=0.0, grid=desk_grid
        )
        stepper = SplitStepper(desk_grid, standin_potential, standin_dipole,
                               CapSpec(r0=48.0, eta=5e-6), 40.0)
        rec = propagate(state, p, stepper, t_max=1.05e6,
                        sample_stride=500, spectrum=desk_spectrum)
        assert np.all(rec.total_bound <= rec.norm + 1e-8)

    def test_sample_stride_row_count(self, harmonic_system):
        grid, pot, dip, spectrum = harmonic_system
        state = WavefunctionState(
            psi=spectrum.wavefunctions[0].astype(complex), t=0.0, grid=grid
        )
        rec = propagate(state, None, SplitStepper(grid, pot, dip, None, 0.01), t_max=1.0,
                        sample_stride=7, spectrum=spectrum)
        assert rec.steps == 100
        assert len(rec.times) == math.ceil(100 / 7) + 1
        assert rec.times[0] == 0.0
        assert rec.times[-1] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("t_max", [50.0, 100.0])
    def test_a_horizon_not_after_the_state_is_refused(self, desk_steppers, desk_spectrum,
                                                      t_max):
        state = WavefunctionState(psi=desk_spectrum.wavefunctions[8].astype(complex),
                                  t=100.0, grid=desk_spectrum.grid)
        with pytest.raises(ValueError, match=f"t_max {t_max} .* time 100.0"):
            propagate(state, None, desk_steppers["grid"], t_max)

    def test_blowup_raises_with_step_index(self, harmonic_system):
        grid, pot, dip, _ = harmonic_system
        bad = np.full(grid.n_points, np.nan, dtype=complex)
        state = WavefunctionState(psi=bad, t=0.0, grid=grid)
        with pytest.raises(PropagationBlowupError) as err:
            propagate(state, None, SplitStepper(grid, pot, dip, None, 0.01), t_max=1.0)
        assert err.value.step_index == 0

    def test_time_reversal_without_cap(self, harmonic_system):
        grid, pot, dip, spectrum = harmonic_system
        p = ChirpedPulseParams(eps0=0.02, omega0=1.0, tau0=5.0, tau=2.0, chirp=0.05)
        psi0 = spectrum.wavefunctions[0].astype(complex)
        state = WavefunctionState(psi=psi0, t=0.0, grid=grid)
        forward = propagate(state, p, SplitStepper(grid, pot, dip, None, 0.01), t_max=10.0,
                            sample_stride=10**9).final_state
        back = SplitStepper(grid, pot, dip, None, -0.01).run(
            forward.psi.copy(), forward.t, 1000, as_field(p))
        overlap = abs(grid.dr * np.vdot(psi0, back)) ** 2
        assert abs(overlap - 1.0) < 1e-8

    def test_spatial_grid_convergence(self, standin_potential, standin_dipole):
        p = ChirpedPulseParams(eps0=6e-3, omega0=1.15e-4, tau0=4.5e5, tau=1.5e5,
                               chirp=4e-11)
        finals = []
        for n in (1024, 2048):
            grid = RadialGrid(r_min=8.0, r_max=68.0, n_points=n,
                              mu=49040.379991679605)
            spectrum = solve_bound_states(grid, standin_potential)
            state = WavefunctionState(
                psi=spectrum.wavefunctions[8].astype(complex), t=0.0, grid=grid
            )
            stepper = SplitStepper(grid, standin_potential, standin_dipole,
                                   CapSpec(r0=48.0, eta=5e-6), 20.0)
            rec = propagate(state, p, stepper, t_max=1.05e6,
                            sample_stride=10**9, spectrum=spectrum)
            finals.append(rec.populations[-1])
        assert np.max(np.abs(finals[0] - finals[1])) < 1e-6


@pytest.fixture(scope="module")
def desk_eigen(desk_grid, desk_spectrum, standin_potential, standin_dipole):
    """Desk system with the CAP on, a short chirped pulse and its eigenbasis stepper."""
    cap = CapSpec(r0=48.0, eta=5e-6)
    e = desk_spectrum.energies
    pulse = ChirpedPulseParams(eps0=3e-3, omega0=float(e[8] - e[6]), tau0=3e4, tau=8e3,
                               chirp=1e-10)
    basis = solve_bound_states(desk_grid, standin_potential, threshold=-e[0])
    stepper = EigenStepper(basis, standin_dipole, cap, 40.0)
    state = WavefunctionState(psi=desk_spectrum.wavefunctions[8].astype(complex), t=0.0,
                              grid=desk_grid)
    return cap, pulse, stepper, state


class TestEigenStepper:
    def propagate_pulse(self, desk_eigen, potential, dipole, spectrum, dt, stepper=None):
        cap, pulse, _, state = desk_eigen
        if stepper is None:
            stepper = SplitStepper(state.grid, potential, dipole, cap, dt)
        return propagate(state, pulse, stepper, t_max=pulse.tau0 + 4 * pulse.tau,
                         sample_stride=10**9, spectrum=spectrum)

    def test_matches_grid_oracle_at_desk_scale(self, desk_eigen, desk_spectrum,
                                               standin_potential, standin_dipole):
        eigen = self.propagate_pulse(desk_eigen, standin_potential, standin_dipole,
                                     desk_spectrum, 40.0, desk_eigen[2])
        grid = self.propagate_pulse(desk_eigen, standin_potential, standin_dipole,
                                    desk_spectrum, 10.0)
        assert eigen.populations.shape == (2, desk_spectrum.bound_count)
        # the pulse moves population, so agreement is not trivial
        assert eigen.populations[-1, 6] > 1e-3
        assert np.max(np.abs(eigen.populations[-1] - grid.populations[-1])) < 1e-5

    def test_doubling_the_cutoff_moves_populations_below_1e7(self, desk_eigen, desk_grid,
                                                             desk_spectrum, standin_potential,
                                                             standin_dipole):
        # every bound population, so the fitness J of any target level
        cap, _, stepper, _ = desk_eigen
        wide = EigenStepper(
            solve_bound_states(desk_grid, standin_potential,
                           threshold=-2.0 * desk_spectrum.energies[0]),
            standin_dipole, cap, 40.0,
        )
        assert wide.phi.shape[0] > stepper.phi.shape[0]
        p = [self.propagate_pulse(desk_eigen, standin_potential, standin_dipole,
                                  desk_spectrum, 40.0, s).populations[-1]
             for s in (stepper, wide)]
        assert np.max(np.abs(p[0] - p[1])) < 1e-7

    def test_run_is_byte_identical_at_one_and_two_blas_threads(self, desk_eigen):
        # optimize's pool workers run numpy's OpenBLAS at their share of the
        # cores, so every --threads writes the same scores only if a run's
        # arithmetic does not depend on the thread count
        get, set_threads = _openblas_calls("get", np), _openblas_calls("set", np)
        if not (get and set_threads):
            pytest.skip("numpy bundles no OpenBLAS with scipy_openblas thread calls here")
        _, pulse, stepper, state = desk_eigen
        counts = [g() for g in get]
        runs = []
        try:
            for threads in (1, 2):
                for set_count in set_threads:
                    set_count(threads)
                # 1100 steps: two full blocks of field factors and part of a third
                runs.append(stepper.run(state.psi.copy(), 0.0, 1100, as_field(pulse)))
        finally:
            for set_count, count in zip(set_threads, counts):
                set_count(count)
        assert runs[0].tobytes() == runs[1].tobytes()

    def test_norm_never_increases_under_cap(self, desk_eigen, desk_grid, desk_spectrum,
                                            standin_potential, standin_dipole):
        cap, _, stepper, _ = desk_eigen
        # the least bound level reaches into the absorber; a strong pulse drives it
        v = desk_spectrum.bound_count - 1
        state = WavefunctionState(psi=desk_spectrum.wavefunctions[v].astype(complex),
                                  t=0.0, grid=desk_grid)
        pulse = ChirpedPulseParams(eps0=1e-2, omega0=-1.5 * desk_spectrum.energies[v],
                                   tau0=2e4, tau=5e3, chirp=0.0)
        rec = propagate(state, pulse, stepper, t_max=4e4, sample_stride=10)
        assert np.all(np.diff(rec.norm) <= 1e-12)
        assert rec.norm[-1] < rec.norm[0] - 1e-4

    def test_zero_field_keeps_an_eigenstate(self, desk_eigen, desk_grid, desk_spectrum,
                                            standin_potential, standin_dipole):
        cap, _, stepper, _ = desk_eigen
        for v in (2, 8):
            state = WavefunctionState(psi=desk_spectrum.wavefunctions[v].astype(complex),
                                      t=0.0, grid=desk_grid)
            rec = propagate(state, None, stepper, t_max=4e4, sample_stride=100,
                            spectrum=desk_spectrum)
            assert np.max(np.abs(rec.populations[:, v] - 1.0)) < 1e-10

    def test_propagate_rejects_a_stepper_on_another_grid(self, desk_eigen):
        _, pulse, stepper, state = desk_eigen
        g = state.grid
        other = RadialGrid(r_min=g.r_min, r_max=g.r_max + 10.0, n_points=g.n_points, mu=g.mu)
        moved = WavefunctionState(psi=state.psi, t=0.0, grid=other)
        with pytest.raises(ValueError, match="grid"):
            propagate(moved, pulse, stepper, t_max=1e3)


# the pulse that CI propagates on the desk grid; horizon tau0 + 4 tau = 4e4 a.u.
CI_PULSE = ChirpedPulseParams(eps0=5e-3, omega0=1.5e-4, tau0=2e4, tau=5e3, chirp=1e-11)


@pytest.fixture(scope="module")
def desk_steppers(desk_grid, desk_spectrum, standin_potential, standin_dipole):
    """The desk grid stepper and the desk eigenbasis stepper, with the desk absorber."""
    cap = CapSpec(r0=48.0, eta=5e-6)
    basis = solve_bound_states(desk_grid, standin_potential, threshold=-desk_spectrum.energies[0])
    return {"grid": SplitStepper(desk_grid, standin_potential, standin_dipole, cap, 40.0),
            "eigen": EigenStepper(basis, standin_dipole, cap, 40.0)}


def final_populations(stepper, spectrum, psi0, field, n):
    psi = stepper.run(psi0, 0.0, n, as_field(field))
    return populations(WavefunctionState(psi=psi, t=0.0, grid=spectrum.grid), spectrum)


class TestToleranceTimeStep:
    @pytest.mark.parametrize("kind", ["grid", "eigen"])
    def test_chosen_dt_holds_every_population_within_tol(self, desk_steppers, desk_spectrum,
                                                         kind):
        stepper = desk_steppers[kind]
        psi0 = desk_spectrum.wavefunctions[8].astype(complex)
        t_end = CI_PULSE.tau0 + 4 * CI_PULSE.tau
        choice = tolerance_time_step(stepper, psi0, desk_spectrum, [CI_PULSE])
        assert choice.dt * choice.steps == pytest.approx(t_end, rel=1e-14)
        assert choice.estimate <= POP_TOL / 2 * (1 + 1e-12)
        got = final_populations(stepper.with_dt(choice.dt), desk_spectrum, psi0, CI_PULSE,
                                choice.steps)
        ref = final_populations(stepper.with_dt(5.0), desk_spectrum, psi0, CI_PULSE, 8000)
        assert np.max(np.abs(ref - ref[8])) > 0.1  # the pulse moves population
        assert np.max(np.abs(got - ref)) <= POP_TOL
        # far coarser than the dt 4.3 of the old phase rule, and no coarser than needed
        assert choice.dt > 10.0
        assert np.max(np.abs(got - ref)) > POP_TOL / 20

    @pytest.mark.parametrize("kind", ["grid", "eigen"])
    def test_estimate_falls_by_four_per_halving(self, desk_steppers, desk_spectrum, kind):
        stepper = desk_steppers[kind]
        psi0 = desk_spectrum.wavefunctions[8].astype(complex)
        t_end = CI_PULSE.tau0 + 4 * CI_PULSE.tau
        choice = tolerance_time_step(stepper, psi0, desk_spectrum, [CI_PULSE])
        n = round(t_end / choice.measured_dt)
        pops = [final_populations(stepper.with_dt(t_end / m), desk_spectrum, psi0, CI_PULSE, m)
                for m in (n // 2, n, 2 * n, 4 * n)]
        estimates = [np.max(np.abs(a - b)) / 3 for a, b in zip(pops, pops[1:])]
        assert estimates[0] == choice.measured_error
        for coarse, fine in zip(estimates, estimates[1:]):
            assert 3.0 <= coarse / fine <= 5.0

    def test_search_without_a_dt2_regime_raises(self, desk_steppers, desk_spectrum):
        # under a field of 1e-30 the eigenbasis steps are exact: the estimate is rounding
        psi0 = desk_spectrum.wavefunctions[8].astype(complex)
        with pytest.raises(TimeStepError, match="never fell by 4"):
            tolerance_time_step(desk_steppers["eigen"], psi0, desk_spectrum,
                                [replace(CI_PULSE, eps0=1e-30)])

    def test_dt4_search_stops_at_its_answer(self, desk_steppers, desk_spectrum):
        # under a field of 1e-30 the grid split's own error falls by 16 per halving
        psi0 = desk_spectrum.wavefunctions[8].astype(complex)
        choice = tolerance_time_step(desk_steppers["grid"], psi0, desk_spectrum,
                                     [replace(CI_PULSE, eps0=1e-30)])
        assert (choice.steps, choice.dt, choice.search_steps) == (256, 156.25, 511)
        assert choice.estimate <= POP_TOL / 2

    def test_each_pulse_runs_to_its_own_horizon(self, desk_steppers, desk_spectrum):
        psi0 = desk_spectrum.wavefunctions[8].astype(complex)
        later = replace(CI_PULSE, tau0=4e4)  # horizon 6e4 a.u.
        alone = [tolerance_time_step(desk_steppers["eigen"], psi0, desk_spectrum, [p])
                 for p in (later, CI_PULSE)]
        both = tolerance_time_step(desk_steppers["eigen"], psi0, desk_spectrum, [later, CI_PULSE])
        assert both == min(alone, key=lambda choice: choice.dt)
        assert both.dt * both.steps == pytest.approx(duration(both.worst), rel=1e-14)

    def test_search_stops_at_its_step_limit(self, desk_steppers, desk_spectrum, monkeypatch):
        monkeypatch.setattr(propagator, "_SEARCH_MAX_STEPS", 8)
        psi0 = desk_spectrum.wavefunctions[8].astype(complex)
        with pytest.raises(TimeStepError, match="down to dt 5000"):
            tolerance_time_step(desk_steppers["grid"], psi0, desk_spectrum, [CI_PULSE])

    @pytest.mark.parametrize("kind", ["grid", "eigen"])
    def test_with_dt_steps_as_a_stepper_built_at_that_dt(self, desk_steppers, desk_grid,
                                                        desk_spectrum, standin_potential,
                                                        standin_dipole, kind):
        cap = CapSpec(r0=48.0, eta=5e-6)
        if kind == "grid":
            fresh = SplitStepper(desk_grid, standin_potential, standin_dipole, cap, 25.0)
        else:
            basis = solve_bound_states(desk_grid, standin_potential,
                                   threshold=-desk_spectrum.energies[0])
            fresh = EigenStepper(basis, standin_dipole, cap, 25.0)
        psi0 = desk_spectrum.wavefunctions[8].astype(complex)
        field = as_field(CI_PULSE)
        moved = desk_steppers[kind].with_dt(25.0)
        assert np.array_equal(moved.run(psi0, 0.0, 300, field), fresh.run(psi0, 0.0, 300, field))
        assert desk_steppers[kind].dt == 40.0

    @pytest.mark.parametrize("kind", ["grid", "eigen"])
    def test_with_dt_at_its_own_dt_is_the_stepper(self, desk_steppers, kind):
        stepper = desk_steppers[kind]
        assert stepper.with_dt(stepper.dt) is stepper

    def test_propagate_makes_n_steps_of_span_over_n(self, harmonic_system):
        # 4e4 / (4e4 / 18283) rounds above 18283 + 1e-12, so an absolute slack would add a step
        grid, pot, dip, spectrum = harmonic_system
        t_end, n = 4e4, 18283
        state = WavefunctionState(psi=spectrum.wavefunctions[0].astype(complex), t=0.0,
                                  grid=grid)
        rec = propagate(state, None, SplitStepper(grid, pot, dip, None, t_end / n), t_end,
                        sample_stride=10**9)
        assert rec.steps == n
        assert rec.times[-1] == pytest.approx(t_end, rel=1e-12)
