import math
import threading
import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla

from ladderdown import dvr
from ladderdown.constants import AU_TIME_S, C_AU, MU_K39RB87
from ladderdown.curves import MorsePotential
from ladderdown.dvr import (
    LIFT_RESIDUAL,
    EmptySpectrumError,
    RadialGrid,
    VibrationalSpectrum,
    _fix_sign,
    _solve_in_place,
    build_hamiltonian,
    dipole_matrix,
    lifetime,
    sdme_map,
    solve_bound_states,
)
from oracles import (
    ConstantDipole,
    HarmonicPotential,
    LinearDipole,
    ZeroPotential,
    morse_bound_count,
    morse_energies,
)

MORSE_SETS = [
    # (de, re, a, mu, grid)
    (0.1, 2.0, 1.0, 200.0, RadialGrid(r_min=0.3, r_max=20.0, n_points=768, mu=200.0)),
    (0.05, 3.0, 0.8, 500.0, RadialGrid(r_min=0.5, r_max=48.0, n_points=1536, mu=500.0)),
    (0.25, 10.0, 1.0, 50.0, RadialGrid(r_min=3.0, r_max=30.0, n_points=512, mu=50.0)),
]


def count_nodes(psi):
    a = np.abs(psi)
    s = np.sign(psi[a > 1e-8 * a.max()])
    return int(np.sum(s[:-1] * s[1:] < 0))


@pytest.fixture(scope="module")
def harmonic_setup():
    grid = RadialGrid(r_min=2.0, r_max=18.0, n_points=256, mu=1.0)
    pot = HarmonicPotential(mu=1.0, w=1.0, r0=10.0)
    spectrum = solve_bound_states(grid, pot, threshold=12.0)
    return grid, pot, spectrum


class TestHamiltonian:
    def test_kinetic_diagonal_closed_form(self):
        grid = RadialGrid(r_min=1.0, r_max=11.0, n_points=64, mu=3.0)
        h = build_hamiltonian(grid, ZeroPotential())
        expected = math.pi**2 / (6.0 * 3.0 * grid.dr**2)
        assert np.all(np.diag(h) == pytest.approx(expected, rel=1e-14))

    def test_exact_symmetry(self, harmonic_setup):
        grid, pot, _ = harmonic_setup
        h = build_hamiltonian(grid, pot)
        assert np.max(np.abs(h - h.T)) == 0.0

    def test_harmonic_eigenvalues(self, harmonic_setup):
        _, _, spectrum = harmonic_setup
        expected = np.arange(10) + 0.5
        rel = np.abs(spectrum.energies[:10] - expected) / expected
        assert np.max(rel) < 1e-8

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            RadialGrid(r_min=-1.0, r_max=10.0, n_points=64, mu=1.0)
        with pytest.raises(ValueError):
            RadialGrid(r_min=1.0, r_max=10.0, n_points=8, mu=1.0)
        with pytest.raises(ValueError):
            RadialGrid(r_min=10.0, r_max=1.0, n_points=64, mu=1.0)


class TestBoundStates:
    @pytest.mark.parametrize("de,re,a,mu,grid", MORSE_SETS)
    def test_morse_bound_count(self, de, re, a, mu, grid):
        spectrum = solve_bound_states(grid, MorsePotential(de=de, re=re, a=a))
        assert spectrum.bound_count == morse_bound_count(de, a, mu)

    @pytest.mark.parametrize("de,re,a,mu,grid", MORSE_SETS)
    def test_morse_eigenvalues(self, de, re, a, mu, grid):
        spectrum = solve_bound_states(grid, MorsePotential(de=de, re=re, a=a))
        expected = morse_energies(de, a, mu)
        rel = np.abs(spectrum.energies - expected) / np.abs(expected)
        assert np.max(rel) < 1e-6

    def test_standin_production_grid_has_30_levels(self, production_spectrum):
        assert production_spectrum.bound_count == 30
        assert np.all(production_spectrum.energies < 0.0)

    def test_normalization(self, production_spectrum):
        dr = production_spectrum.grid.dr
        norms = dr * np.sum(production_spectrum.wavefunctions**2, axis=1)
        assert np.max(np.abs(norms - 1.0)) < 1e-10

    def test_orthonormality(self, desk_spectrum):
        psi = desk_spectrum.wavefunctions
        gram = desk_spectrum.grid.dr * psi @ psi.T
        off = gram - np.diag(np.diag(gram))
        assert np.max(np.abs(off)) < 1e-8

    def test_node_counts(self, desk_spectrum):
        for v in range(desk_spectrum.bound_count):
            assert count_nodes(desk_spectrum.wavefunctions[v]) == v

    def test_sign_convention_first_extremum_positive(self, desk_spectrum):
        for psi in desk_spectrum.wavefunctions:
            a = np.abs(psi)
            floor = a.max() * 1e-6
            peaks = np.nonzero(
                (a[1:-1] >= a[:-2]) & (a[1:-1] >= a[2:]) & (a[1:-1] > floor)
            )[0]
            assert psi[peaks[0] + 1] > 0

    def test_grid_convergence_production_scale(
        self, production_spectrum, production_grid, standin_potential
    ):
        half = RadialGrid(
            r_min=production_grid.r_min,
            r_max=production_grid.r_max,
            n_points=production_grid.n_points // 2,
            mu=production_grid.mu,
        )
        spec_half = solve_bound_states(half, standin_potential)
        assert spec_half.bound_count == production_spectrum.bound_count
        assert np.max(np.abs(spec_half.energies - production_spectrum.energies)) < 1e-9

    def test_empty_spectrum_error(self):
        grid = RadialGrid(r_min=1.0, r_max=20.0, n_points=64, mu=1.0)
        with pytest.raises(EmptySpectrumError):
            solve_bound_states(grid, ZeroPotential(), threshold=-1.0)

    def test_threshold_below_min_v_raises_before_any_solve(
        self, production_grid, standin_potential, monkeypatch
    ):
        def fail(*args):
            raise AssertionError("no eigensolve is needed below min V")

        monkeypatch.setattr(dvr, "_solve_in_place", fail)
        v_min = standin_potential.value(production_grid.points).min()
        for threshold in (v_min, v_min - 1e-6):
            with pytest.raises(EmptySpectrumError):
                solve_bound_states(production_grid, standin_potential, threshold)


def _dense_reference(h, grid, threshold):
    """Bound levels of ``h`` from a dense eigh of a copy, with the sign rule."""
    w, v = sla.eigh(h.copy())
    below = w < threshold
    psi = np.array([_fix_sign(col) for col in v[:, below].T / np.sqrt(grid.dr)])
    return w, below, psi


class TestInPlaceSolve:
    """The in-place kernel consumes h and must agree with a dense eigh of it."""

    @pytest.fixture(params=["desk", "harmonic"])
    def case(self, request, desk_grid, standin_potential):
        if request.param == "desk":
            return desk_grid, standin_potential, 0.0
        return (RadialGrid(r_min=2.0, r_max=18.0, n_points=256, mu=1.0),
                HarmonicPotential(mu=1.0, w=1.0, r0=10.0), 12.0)

    def test_matches_dense_eigh(self, case):
        grid, pot, threshold = case
        h = build_hamiltonian(grid, pot)
        w, below, psi = _dense_reference(h, grid, threshold)
        spectrum = _solve_in_place(h, grid, threshold)
        assert spectrum.bound_count == np.count_nonzero(below)
        # both are backward stable, so they agree to rounding of the largest |E|
        assert np.max(np.abs(spectrum.energies - w[below])) < 1e-14 * np.max(np.abs(w))
        assert np.max(np.abs(spectrum.wavefunctions - psi)) < 1e-10

    def test_count_at_thresholds_either_side_of_a_level(self, case):
        grid, pot, _ = case
        w = sla.eigvalsh(build_hamiltonian(grid, pot))
        for j in (0, 5, 11):
            delta = 1e-3 * (w[j + 1] - w[j])
            above = _solve_in_place(build_hamiltonian(grid, pot), grid, w[j] + delta)
            assert above.bound_count == np.count_nonzero(w < w[j] + delta) == j + 1
            if j == 0:
                with pytest.raises(EmptySpectrumError):
                    _solve_in_place(build_hamiltonian(grid, pot), grid, w[j] - delta)
            else:
                below = _solve_in_place(build_hamiltonian(grid, pot), grid, w[j] - delta)
                assert below.bound_count == np.count_nonzero(w < w[j] - delta) == j

    def test_scratch_is_small_next_to_h(self, standin_potential):
        # production range and mass, n = 2000: a by-value eigh allocates 2.0 x h
        grid = RadialGrid(r_min=6.0, r_max=146.0, n_points=2000, mu=MU_K39RB87)
        h = build_hamiltonian(grid, standin_potential)
        size = h.nbytes
        tracemalloc.start()
        try:
            spectrum = _solve_in_place(h, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert spectrum.bound_count == 30
        assert peak < 0.25 * size

    def test_nan_in_h_raises_value_error(self, desk_grid, standin_potential):
        h = build_hamiltonian(desk_grid, standin_potential)
        h[5, 7] = np.nan
        with pytest.raises(ValueError):
            _solve_in_place(h, desk_grid)

    @pytest.mark.parametrize("layout", ["fortran", "strided"])
    def test_non_c_contiguous_h_gives_the_same_spectrum(self, layout, desk_grid,
                                                         standin_potential, desk_spectrum):
        h = build_hamiltonian(desk_grid, standin_potential)
        if layout == "fortran":
            h = np.asfortranarray(h)
        else:
            wide = np.zeros((2 * len(h), 2 * len(h)))
            wide[::2, ::2] = h
            h = wide[::2, ::2]
        spectrum = _solve_in_place(h, desk_grid)
        assert spectrum.bound_count == desk_spectrum.bound_count
        assert np.max(np.abs(spectrum.energies - desk_spectrum.energies)) < 1e-18
        assert np.max(np.abs(spectrum.wavefunctions - desk_spectrum.wavefunctions)) < 1e-10


class TestLift:
    """solve_bound_states lifts when every 4th or sparser grid point samples k_max."""

    @pytest.fixture(scope="class")
    def production_basis(self, production_grid, standin_potential, production_spectrum):
        """Levels below -E_0 on the production grid, with every kernel call recorded."""
        calls = []

        def recorded(h, grid, threshold=0.0):
            calls.append((grid.n_points, _solve_in_place(h, grid, threshold)))
            return calls[-1][1]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dvr, "_solve_in_place", recorded)
            basis = solve_bound_states(production_grid, standin_potential,
                                       threshold=-production_spectrum.energies[0])
        return basis, calls

    def test_production_levels_are_lifted_from_every_sixth_point(self, production_spectrum):
        # pi / (2 k_max dr) = 6.05 on the production grid: 5599 // 6 + 1 points
        assert production_spectrum.lift_points == 934
        assert 0.0 < production_spectrum.lift_residual <= LIFT_RESIDUAL

    def test_lift_matches_the_in_place_solve_of_the_full_h(
        self, production_spectrum, production_basis
    ):
        # the dense levels below -E_0 start with the 30 bound ones
        dense = production_basis[0]
        n = production_spectrum.bound_count
        assert np.all(dense.energies[n:] > 0.0)
        assert np.max(np.abs(production_spectrum.energies - dense.energies[:n])) <= 1e-14
        dpsi = production_spectrum.wavefunctions - dense.wavefunctions[:n]
        assert np.max(np.abs(dpsi)) * math.sqrt(production_spectrum.grid.dr) <= 1e-11

    def test_refused_lift_returns_the_in_place_solve(self, production_basis):
        # box states above the dissociation limit depend on the grid's ends
        basis, calls = production_basis
        assert [points for points, _ in calls] == [1400, 5600]
        assert basis is calls[-1][1]
        assert basis.lift_points is None and basis.lift_residual is None
        assert basis.bound_count == 455

    @pytest.mark.parametrize("n_points", [5600, 5557])
    def test_toeplitz_interpolation_matches_np_sinc(self, n_points, standin_potential):
        # every 6th point: 5599 = 6 x 933 + 1 leaves a point past the last solve point, 5556 none
        grid = RadialGrid(r_min=6.0, r_max=146.0, n_points=n_points, mu=MU_K39RB87)
        r = grid.points
        coarse = RadialGrid(r_min=6.0, r_max=r[(n_points - 1) // 6 * 6],
                            n_points=(n_points - 1) // 6 + 1, mu=MU_K39RB87)
        levels = solve_bound_states(coarse, standin_potential).wavefunctions.T
        stuffed = np.zeros((n_points, levels.shape[1]))
        stuffed[::6] = levels
        got = dvr._toeplitz_times(np.sinc(np.arange(n_points) / 6), stuffed)
        want = np.sinc((r[:, None] - coarse.points) / coarse.dr) @ levels
        assert np.all(np.isfinite(got)) and np.all(np.isfinite(want))
        assert np.max(np.abs(got - want)) <= 1e-13

    def test_solve_grid_is_every_stride_th_grid_point(self, production_grid, standin_potential,
                                                        monkeypatch):
        coarse = []

        def spy(h, grid, threshold=0.0):
            coarse.append(grid)
            return _solve_in_place(h, grid, threshold)

        monkeypatch.setattr(dvr, "_solve_in_place", spy)
        assert solve_bound_states(production_grid, standin_potential).lift_points == 934
        [grid] = coarse
        assert (grid.r_min, grid.mu) == (production_grid.r_min, production_grid.mu)
        assert grid.dr == pytest.approx(6 * production_grid.dr, rel=1e-14)
        np.testing.assert_allclose(grid.points, production_grid.points[::6], rtol=0, atol=1e-13)

    def test_solve_grid_keeps_16_points(self, monkeypatch):
        # pi / (2 k_max dr) = 76.9 exceeds 960 // 15 = 64, so the stride is capped at 64.
        # The Ritz residual from 16 points is 3.5e-9 hartree, and the refused lift falls
        # back to the dense solve. For a Gaussian level to be small at the grid's ends
        # and band-limited to the solve spacing, each to ~1e-12, takes ~35 solve points.
        grid = RadialGrid(r_min=6.0, r_max=146.0, n_points=961, mu=MU_K39RB87)
        potential = HarmonicPotential(mu=MU_K39RB87, w=1e-7, r0=76.0)
        calls = []

        def spy(h, grid, threshold=0.0):
            calls.append(grid.n_points)
            return _solve_in_place(h, grid, threshold)

        monkeypatch.setattr(dvr, "_solve_in_place", spy)
        spectrum = solve_bound_states(grid, potential, threshold=2e-7)
        assert calls == [16, 961]
        dense = _solve_in_place(build_hamiltonian(grid, potential), grid, 2e-7)
        assert spectrum.lift_points is None and spectrum.bound_count == 2
        assert np.max(np.abs(spectrum.energies - dense.energies)) <= 1e-14
        dpsi = spectrum.wavefunctions - dense.wavefunctions
        assert np.max(np.abs(dpsi)) * math.sqrt(grid.dr) <= 1e-11

    def test_lift_peak_memory_stays_below_a_full_kernel(self, production_grid,
                                                        standin_potential):
        # 16.1 MiB was the peak with np.sinc blocks and QR; a 5600 x 934 kernel is 42 MB
        tracemalloc.start()
        try:
            spectrum = solve_bound_states(production_grid, standin_potential)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert spectrum.lift_points == 934
        assert peak < 16 * 2**20

    def test_desk_grid_takes_the_dense_path_bitwise(self, desk_grid, standin_potential):
        spectrum = solve_bound_states(desk_grid, standin_potential)
        kernel = _solve_in_place(build_hamiltonian(desk_grid, standin_potential), desk_grid)
        assert spectrum.lift_points is None
        assert np.array_equal(spectrum.energies, kernel.energies)
        assert np.array_equal(spectrum.wavefunctions, kernel.wavefunctions)


def _numpy_blas_threads() -> list[int]:
    return [get() for get in dvr._openblas_calls("get", np)]


class TestNumpyBlasThreads:
    """solve_bound_states runs numpy's bundled OpenBLAS on one thread, then restores it."""

    @pytest.fixture(autouse=True)
    def two_threads(self):
        """numpy's OpenBLAS at 2 threads, so that 1 inside a solve shows; reset after."""
        counts = _numpy_blas_threads()
        sets = dvr._openblas_calls("set", np)
        if not (counts and sets):
            pytest.skip("numpy bundles no OpenBLAS with scipy_openblas thread symbols here")
        for set_threads in sets:
            set_threads(2)
        yield
        for set_threads, count in zip(sets, counts):
            set_threads(count)

    def test_a_lift_runs_numpy_blas_on_one_thread(self, production_grid, standin_potential,
                                                  monkeypatch):
        seen = []

        def spy(col, x):
            seen.append(_numpy_blas_threads())
            return toeplitz_times(col, x)

        toeplitz_times = dvr._toeplitz_times
        monkeypatch.setattr(dvr, "_toeplitz_times", spy)
        spectrum = solve_bound_states(production_grid, standin_potential)
        assert spectrum.lift_points == 934
        assert seen == [[1], [1]]
        assert _numpy_blas_threads() == [2]

    @pytest.mark.parametrize("case", ["dense", "empty"])
    def test_count_is_restored_after_a_solve_and_after_an_error(
        self, case, desk_grid, standin_potential, monkeypatch
    ):
        seen = []

        def spy(h, grid, threshold=0.0):
            seen.append(_numpy_blas_threads())
            return _solve_in_place(h, grid, threshold)

        monkeypatch.setattr(dvr, "_solve_in_place", spy)
        if case == "dense":
            assert solve_bound_states(desk_grid, standin_potential).lift_points is None
        else:
            # above min V, below the lowest level: the coarse and the dense solve find nothing
            v_min = standin_potential.value(desk_grid.points).min()
            with pytest.raises(EmptySpectrumError):
                solve_bound_states(desk_grid, standin_potential, threshold=v_min + 1e-9)
        assert seen and all(counts == [1] for counts in seen)
        assert _numpy_blas_threads() == [2]

    def test_concurrent_solves_restore_the_count(self, harmonic_setup):
        # unserialized, a solve entering while another is inside saves the pinned 1
        grid, potential, _ = harmonic_setup
        errors = []

        def solve_many():
            try:
                for _ in range(20):
                    solve_bound_states(grid, potential, threshold=12.0)
            except Exception as exc:  # reported below
                errors.append(exc)

        threads = [threading.Thread(target=solve_many) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads) and not errors
        assert _numpy_blas_threads() == [2]


class TestSdme:
    def test_symmetry_exact(self, desk_spectrum, standin_dipole):
        sd = sdme_map(desk_spectrum, standin_dipole)
        assert np.array_equal(sd, sd.T)
        assert np.all(sd >= 0.0)
        d = dipole_matrix(desk_spectrum, standin_dipole)
        assert np.array_equal(d, d.T)
        assert np.array_equal(d**2, sd)

    def test_constant_dipole_is_diagonal(self, harmonic_setup):
        _, _, spectrum = harmonic_setup
        sd = sdme_map(spectrum, ConstantDipole(0.7))
        off = sd - np.diag(np.diag(sd))
        assert np.max(np.abs(off)) < 1e-20
        assert np.diag(sd) == pytest.approx(0.7**2, rel=1e-12)

    def test_harmonic_linear_dipole_ladder(self, harmonic_setup):
        # <n|x|n+1>^2 = (n+1)/(2 mu w) and nothing else couples
        _, _, spectrum = harmonic_setup
        sd = sdme_map(spectrum, LinearDipole(10.0))
        n_check = 8
        for n in range(n_check):
            expected = (n + 1) / 2.0
            assert sd[n, n + 1] == pytest.approx(expected, rel=1e-8)
        mask = np.zeros_like(sd, dtype=bool)
        idx = np.arange(n_check)
        mask[idx, idx + 1] = mask[idx + 1, idx] = True
        others = sd[:n_check, :n_check][~mask[:n_check, :n_check]]
        assert np.max(np.abs(others)) < 1e-10

    def test_near_diagonal_dominance_of_standin(self, desk_spectrum, desk_sdme):
        vals = desk_sdme.copy()
        np.fill_diagonal(vals, 0.0)
        hits = sum(
            abs(int(np.argmax(vals[v])) - v) == 1 for v in range(desk_spectrum.bound_count)
        )
        assert hits >= 0.8 * desk_spectrum.bound_count


def _fake_two_level(gap, sdme_value):
    grid = RadialGrid(r_min=1.0, r_max=2.0, n_points=16, mu=1.0)
    spectrum = VibrationalSpectrum(
        energies=np.array([-gap, 0.0]) - 1e-6,
        wavefunctions=np.zeros((2, 16)),
        grid=grid,
    )
    sd = np.array([[0.0, sdme_value], [sdme_value, 0.0]])
    return spectrum, sd


def _rate(spectrum, sd):
    """The 1 -> 0 emission rate in s^-1 of a two-level spectrum: level 1's only channel."""
    return 1.0 / lifetime(spectrum, sd)[1]


class TestEinstein:
    def test_zero_coupling_gives_zero_rate(self):
        spectrum, sd = _fake_two_level(0.01, 0.0)
        assert _rate(spectrum, sd) == 0.0

    def test_cubic_frequency_scaling(self):
        s1, d1 = _fake_two_level(0.01, 1.0)
        s2, d2 = _fake_two_level(0.02, 1.0)
        assert _rate(s2, d2) == pytest.approx(8.0 * _rate(s1, d1), rel=1e-12)

    def test_hand_computed_rate_and_si_oracle(self):
        # two-level toy: gap 0.01 a.u., squared matrix element 1 a.u.
        spectrum, sd = _fake_two_level(0.01, 1.0)
        got = _rate(spectrum, sd)
        by_hand = (4.0 / 3.0) * 0.01**3 / C_AU**3 / AU_TIME_S
        assert got == pytest.approx(by_hand, rel=1e-12)
        # independent SI route: A = w^3 d^2 / (3 pi eps0 hbar c^3)
        from scipy.constants import c, e, epsilon_0, hbar, physical_constants

        hartree = physical_constants["Hartree energy"][0]
        bohr = physical_constants["Bohr radius"][0]
        w_si = 0.01 * hartree / hbar
        d2_si = 1.0 * (e * bohr) ** 2
        a_si = w_si**3 * d2_si / (3.0 * math.pi * epsilon_0 * hbar * c**3)
        assert got == pytest.approx(a_si, rel=1e-6)

    def test_hydrogen_2p_1s_literature_rate(self):
        # E = -1/2, -1/8 hartree; |<1s|z|2p0>|^2 = 2^15/3^10
        grid = RadialGrid(r_min=1.0, r_max=2.0, n_points=16, mu=1.0)
        spectrum = VibrationalSpectrum(
            energies=np.array([-0.5, -0.125]),
            wavefunctions=np.zeros((2, 16)),
            grid=grid,
        )
        sd = np.array([[0.0, 2**15 / 3**10], [2**15 / 3**10, 0.0]])
        assert _rate(spectrum, sd) == pytest.approx(6.2648e8, rel=1e-3)


class TestLifetime:
    def test_two_level_inverse_rate(self):
        spectrum, sd = _fake_two_level(0.01, 1.0)
        rate = (4.0 / 3.0) * 0.01**3 * 1.0 / C_AU**3 / AU_TIME_S
        assert lifetime(spectrum, sd)[1] == pytest.approx(1.0 / rate, rel=1e-12)

    def test_each_level_inverts_the_sum_of_its_written_out_rates(self, desk_spectrum,
                                                                  desk_sdme):
        # A_iv = (4/3) w^3 |<i|D|v>|^2 / c^3 a.u. over every lower level v, in s^-1
        e = desk_spectrum.energies
        tau = lifetime(desk_spectrum, desk_sdme)
        assert tau.shape == (desk_spectrum.bound_count,)
        for i in range(1, desk_spectrum.bound_count):
            rates = [(4.0 / 3.0) * (e[i] - e[v]) ** 3 * desk_sdme[i, v] / C_AU**3 / AU_TIME_S
                     for v in range(i)]
            assert tau[i] == pytest.approx(1.0 / sum(rates), rel=1e-12)

    def test_extra_channel_shortens_lifetime(self, desk_spectrum, desk_sdme):
        # same total rate minus one channel must give a longer lifetime
        full = lifetime(desk_spectrum, desk_sdme)[5]
        trimmed = desk_sdme.copy()
        trimmed[5, 0] = trimmed[0, 5] = 0.0
        longer = lifetime(desk_spectrum, trimmed)[5]
        assert full < longer

    def test_no_channel_gives_infinity(self):
        spectrum, sd = _fake_two_level(0.01, 0.0)
        assert lifetime(spectrum, sd)[1] == math.inf

    def test_ground_level_is_infinite(self, desk_spectrum, desk_sdme):
        assert lifetime(desk_spectrum, desk_sdme)[0] == math.inf
