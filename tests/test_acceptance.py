"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. Tolerances are pinned here and nowhere else.
"""

import math
import time

import numpy as np
import pytest

from ladderdown.curves import MorsePotential
from ladderdown.dvr import (
    RadialGrid,
    sdme_map,
    solve_bound_states,
)
from ladderdown.ga import (
    GaConfig,
    LadderProblem,
    SurrogateProblem,
    init_population,
    optimize,
    roulette_pick,
)
from ladderdown.propagator import CapSpec, SplitStepper, WavefunctionState, propagate
from ladderdown.pulse import (
    ChirpSignError,
    ChirpedPulseParams,
    ParamRanges,
    bandwidth,
    fft_spectrum,
    heuristic_ranges,
    spectrum as pulse_spectrum,
)
from oracles import (
    AnharmonicPotential,
    HarmonicPotential,
    LinearDipole,
    ZeroPotential,
    gaussian_packet,
    morse_bound_count,
    morse_energies,
)
from test_pulse import PUBLISHED_PULSES


def report(criterion: int, name: str, checks: list[tuple[str, bool]]):
    ok = all(passed for _, passed in checks)
    verdict = "PASS" if ok else "FAIL"
    print(f"\n[criterion {criterion}] {name}: {verdict}")
    for label, passed in checks:
        if not passed:
            print(f"    failed: {label}")
    assert ok, f"criterion {criterion} ({name}) failed: " + ", ".join(
        label for label, passed in checks if not passed
    )


def test_criterion_1_dvr_correctness():
    t0 = time.perf_counter()
    checks = []

    grid = RadialGrid(r_min=2.0, r_max=18.0, n_points=256, mu=1.0)
    harm = solve_bound_states(grid, HarmonicPotential(1.0, 1.0, 10.0), threshold=12.0)
    expected = np.arange(10) + 0.5
    rel = np.max(np.abs(harm.energies[:10] - expected) / expected)
    checks.append((f"harmonic lowest 10 within 1e-8 (got {rel:.2e})", rel < 1e-8))

    morse_sets = [
        (0.1, 2.0, 1.0, 200.0, RadialGrid(r_min=0.3, r_max=20.0, n_points=768, mu=200.0)),
        (0.05, 3.0, 0.8, 500.0, RadialGrid(r_min=0.5, r_max=48.0, n_points=1536, mu=500.0)),
        (0.25, 10.0, 1.0, 50.0, RadialGrid(r_min=3.0, r_max=30.0, n_points=512, mu=50.0)),
    ]
    for de, re_, a, mu, g in morse_sets:
        spec = solve_bound_states(g, MorsePotential(de=de, re=re_, a=a))
        count_ok = spec.bound_count == morse_bound_count(de, a, mu)
        rel = np.max(
            np.abs(spec.energies - morse_energies(de, a, mu))
            / np.abs(morse_energies(de, a, mu))
        )
        checks.append((f"Morse(de={de}) count {spec.bound_count}", count_ok))
        checks.append((f"Morse(de={de}) eigenvalues within 1e-6 (got {rel:.2e})", rel < 1e-6))

    runtime = time.perf_counter() - t0
    checks.append((f"runtime < 30 s (got {runtime:.1f} s)", runtime < 30.0))
    report(1, "DVR correctness", checks)


def test_criterion_2_sdme_oracle():
    grid = RadialGrid(r_min=2.0, r_max=18.0, n_points=256, mu=1.0)
    spec = solve_bound_states(grid, HarmonicPotential(1.0, 1.0, 10.0), threshold=12.0)
    sd = sdme_map(spec, LinearDipole(10.0))
    checks = [("map symmetry exact", np.array_equal(sd, sd.T))]
    worst = 0.0
    for n in range(8):
        analytic = (n + 1) / 2.0  # <n|x|n+1>^2 = (n+1)/(2 mu w)
        worst = max(worst, abs(sd[n, n + 1] - analytic) / analytic)
    checks.append((f"ladder elements within 1e-8 (got {worst:.2e})", worst < 1e-8))
    report(2, "SDME oracle", checks)


def test_criterion_3_propagator_unitarity_and_order():
    checks = []
    grid = RadialGrid(r_min=2.0, r_max=18.0, n_points=256, mu=1.0)
    pot = HarmonicPotential(1.0, 1.0, 10.0)
    dip = LinearDipole(10.0)
    spec = solve_bound_states(grid, pot, threshold=12.0)
    pulse = ChirpedPulseParams(eps0=0.02, omega0=1.0, tau0=5.0, tau=2.0, chirp=0.05)

    psi0 = (spec.wavefunctions[0] + spec.wavefunctions[1]) / math.sqrt(2.0)
    state = WavefunctionState(psi=psi0.astype(complex), t=0.0, grid=grid)
    rec = propagate(state, pulse, SplitStepper(grid, pot, dip, None, 1e-3), t_max=10.0,
                    sample_stride=1000)
    drift = np.max(np.abs(rec.norm - 1.0))
    checks.append(
        (f"no-CAP norm drift < 1e-10 per 1e4 steps (got {drift:.2e})",
         rec.steps == 10_000 and drift < 1e-10)
    )

    ground = WavefunctionState(psi=spec.wavefunctions[0].astype(complex), t=0.0, grid=grid)
    drive = ChirpedPulseParams(eps0=0.02, omega0=1.0, tau0=10.0, tau=3.0, chirp=0.02)

    def final(dt):
        return propagate(ground, drive, SplitStepper(grid, pot, dip, None, dt), t_max=20.0,
                         sample_stride=10**9).final_state.psi

    ref = final(20.0 / 2**13)
    ratio = np.linalg.norm(final(20.0 / 2**10) - ref) / np.linalg.norm(
        final(20.0 / 2**11) - ref
    )
    checks.append((f"Strang self-convergence factor 4 +- 20% (got {ratio:.2f})",
                   3.2 < ratio < 4.8))

    free_grid = RadialGrid(r_min=1.0, r_max=101.0, n_points=512, mu=1.0)
    x = free_grid.points
    packet = WavefunctionState(psi=gaussian_packet(x, 51.0, 1.0), t=0.0, grid=free_grid)
    rec = propagate(packet, None, SplitStepper(free_grid, ZeroPotential(), None, None, 0.01),
                    t_max=10.0, sample_stride=10**9)
    prob = np.abs(rec.final_state.psi) ** 2 * free_grid.dr
    mean = float(np.sum(prob * x))
    var = float(np.sum(prob * (x - mean) ** 2))
    var_exact = 1.0 + (10.0 / 2.0) ** 2
    disp_err = abs(var - var_exact) / var_exact
    checks.append((f"free dispersion within 1e-6 (got {disp_err:.2e})", disp_err < 1e-6))

    dt, n_steps, stride = 1e-3, 10_000, 100
    stepper = SplitStepper(grid, pot, dip, None, dt)
    psi = spec.wavefunctions[0].astype(complex)
    overlaps = [complex(grid.dr * np.vdot(spec.wavefunctions[0], psi))]
    for _ in range(n_steps // stride):
        psi = stepper.run(psi, 0.0, stride, None)
        overlaps.append(complex(grid.dr * np.vdot(spec.wavefunctions[0], psi)))
    survival = np.abs(np.array(overlaps)) ** 2
    phase = np.unwrap(np.angle(np.array(overlaps)))[-1]
    phase_err = abs(phase - (-spec.energies[0] * dt * n_steps))
    checks.append((f"eigenstate survival within 1e-8 (got {1 - np.min(survival):.2e})",
                   np.min(survival) > 1 - 1e-8))
    checks.append((f"eigenstate phase within 1e-6 rad (got {phase_err:.2e})",
                   phase_err < 1e-6))
    report(3, "propagator unitarity and order", checks)


def test_criterion_4_rabi_oracle():
    grid = RadialGrid(r_min=4.0, r_max=24.0, n_points=256, mu=50.0)
    pot = MorsePotential(de=0.25, re=10.0, a=1.0)
    dip = LinearDipole(10.0)
    spec = solve_bound_states(grid, pot)
    w01 = spec.energies[1] - spec.energies[0]
    d01 = math.sqrt(sdme_map(spec, dip)[0, 1])
    eps = 0.004
    period = 2.0 * math.pi / (eps * d01)
    state = WavefunctionState(psi=spec.wavefunctions[0].astype(complex), t=0.0, grid=grid)
    rec = propagate(state, lambda t: eps * np.cos(w01 * np.asarray(t)),
                    SplitStepper(grid, pot, dip, None, 0.25), t_max=0.75 * period, sample_stride=20,
                    spectrum=spec)
    p0 = rec.populations[:, 0]
    t_half = rec.times[int(np.argmin(p0))]
    err = abs(t_half - period / 2.0) / (period / 2.0)
    report(4, "Rabi oracle", [
        (f"weak resonant period within 5% (got {100 * err:.2f}%)", err < 0.05),
    ])


def test_criterion_5_cap_accounting():
    pot = MorsePotential(de=5.0, re=3.0, a=1.0)

    def make_state(grid):
        spec = solve_bound_states(grid, pot)
        x = grid.points
        g = gaussian_packet(x, 30.0, 2.0, 6.0)
        g /= math.sqrt(grid.dr * np.sum(np.abs(g) ** 2))
        psi = math.sqrt(0.6) * spec.wavefunctions[0].astype(complex) + math.sqrt(0.4) * g
        return spec, WavefunctionState(psi=psi, t=0.0, grid=grid)

    grid_a = RadialGrid(r_min=0.5, r_max=100.5, n_points=1000, mu=1.0)
    spec_a, state_a = make_state(grid_a)
    rec_a = propagate(state_a, None, SplitStepper(grid_a, pot, None, CapSpec(r0=60.0, eta=0.02), 0.02),
                      t_max=25.0, sample_stride=50, spectrum=spec_a)
    grid_b = RadialGrid(r_min=0.5, r_max=200.5, n_points=2000, mu=1.0)
    spec_b, state_b = make_state(grid_b)
    rec_b = propagate(state_b, None, SplitStepper(grid_b, pot, None, None, 0.02), t_max=25.0,
                      sample_stride=10**9, spectrum=spec_b)
    mismatch = abs(rec_a.dissociation[-1] - (1.0 - rec_b.total_bound[-1]))
    report(5, "CAP accounting", [
        (f"flux removed matches doubled-grid run within 1e-6 (got {mismatch:.2e})",
         mismatch < 1e-6),
        ("norm non-increasing under CAP", bool(np.all(np.diff(rec_a.norm) <= 1e-12))),
    ])


def test_criterion_6_spectrum_cross_check():
    checks = []
    for name in sorted(PUBLISHED_PULSES):
        p = PUBLISHED_PULSES[name]
        w = np.linspace(0.5 * p.omega0, 1.5 * p.omega0, 20001)
        intens = pulse_spectrum(p, w)
        w_peak = w[int(np.argmax(intens))]
        exact = abs(w_peak - p.omega0) <= (w[1] - w[0])
        exact = exact and pulse_spectrum(p, p.omega0) >= np.max(intens)
        checks.append((f"{name}: analytic peak exactly at omega0", bool(exact)))
        freqs, power = fft_spectrum(p)
        fft_peak = freqs[int(np.argmax(power))]
        err = abs(fft_peak - p.omega0) / p.omega0
        checks.append((f"{name}: FFT peak within 2% (got {100 * err:.2f}%)", err < 0.02))
    report(6, "pulse spectrum cross-check", checks)


def test_criterion_7_ga_mechanics():
    t0 = time.perf_counter()
    checks = []
    ranges = ParamRanges(
        eps0=(1e-3, 1e-2), omega0=(3.1e-5, 3.6e-5), tau0=(3.3e6, 3.5e7),
        tau=(1e6, 1e7), chirp=(4e-13, 5e-12),
    )
    surrogate = SurrogateProblem.from_ranges(ranges)

    monotone = True
    for seed in range(20):
        cfg = GaConfig(ranges=ranges, population=40, generations=10,
                       elites=5, seed=seed)
        _, hist = optimize(cfg, surrogate)
        b = hist.best_fitness
        monotone = monotone and all(y >= x for x, y in zip(b, b[1:]))
    checks.append(("best fitness monotone on 20/20 seeded runs", monotone))

    rng = np.random.default_rng(99)
    fitness = np.array([1.0, 3.0])
    picks = np.array([roulette_pick(fitness, rng) for _ in range(100_000)])
    freq = float(np.mean(picks == 1))
    checks.append(
        (f"roulette frequencies 0.25/0.75 within 1% (got {1 - freq:.4f}/{freq:.4f})",
         abs(freq - 0.75) < 0.01)
    )

    cfg = GaConfig(ranges=ranges, population=20, generations=6, elites=3,
                   seed=12)
    _, h1 = optimize(cfg, surrogate)
    _, h2 = optimize(cfg, surrogate)
    checks.append(("byte-identical rerun per seed", h1 == h2))

    reached = 0
    for seed in range(10):
        cfg = GaConfig(ranges=ranges, population=40, generations=50,
                       elites=5, seed=seed)
        best, _ = optimize(cfg, surrogate)
        reached += best.fitness >= 0.99  # the surrogate peaks at 1
    checks.append((f"surrogate optimum reached on {reached}/10 seeds", reached == 10))

    runtime = time.perf_counter() - t0
    checks.append((f"runtime < 2 min (got {runtime:.0f} s)", runtime < 120.0))
    report(7, "GA mechanics", checks)


@pytest.fixture(scope="module")
def ladder_descent_run(desk_grid, desk_spectrum, desk_sdme, standin_potential,
                       standin_dipole):
    """The reduced-scale end-to-end optimization behind criterion 8."""
    t0 = time.perf_counter()
    ladder = (8, 6, 4, 2)
    ranges = heuristic_ranges(desk_spectrum, 8, ladder, lifetime_au=1e20,
                              sdme=desk_sdme, tau_span=2.5)
    cap = CapSpec(r0=48.0, eta=5e-6)
    problem = LadderProblem(
        potential=standin_potential, dipole=standin_dipole,
        cap=cap, spectrum=desk_spectrum, initial_level=8, target_level=2, dt=40.0,
    )
    cfg = GaConfig(ranges=ranges, population=12, generations=6,
                   elites=2, seed=1)
    best, history = optimize(cfg, problem)

    random_scores = sorted(
        problem.evaluate(init_population(ranges, 1, np.random.default_rng(seed))[0].params)
        for seed in range(100, 110)
    )
    state = WavefunctionState(
        psi=desk_spectrum.wavefunctions[8].astype(complex), t=0.0, grid=desk_grid
    )
    trace = propagate(
        state, best.params, SplitStepper(desk_grid, standin_potential, standin_dipole, cap, 40.0),
        t_max=best.params.tau0 + 4.0 * best.params.tau,
        sample_stride=100, spectrum=desk_spectrum,
    )
    return {
        "ladder": ladder,
        "best": best,
        "history": history,
        "random_scores": random_scores,
        "trace": trace,
        "runtime": time.perf_counter() - t0,
    }


def test_criterion_8_end_to_end_ladder_descent(ladder_descent_run):
    run = ladder_descent_run
    trace, ladder = run["trace"], run["ladder"]
    final = trace.populations[-1]

    p_initial = float(final[8])
    scores = run["random_scores"]
    median_random = 0.5 * (scores[4] + scores[5])
    peak_times = [
        float(trace.times[int(np.argmax(trace.populations[:, v]))]) for v in ladder
    ]
    monotone = all(a < b for a, b in zip(peak_times, peak_times[1:]))

    report(8, "end-to-end ladder descent", [
        (f"(a) initial level emptied below 5% (got {100 * p_initial:.2f}%)",
         p_initial < 0.05),
        (f"(b) optimized J={run['best'].fitness:.3f} beats random median "
         f"{median_random:.3f}", run["best"].fitness > median_random),
        (f"(c) rung peak times sequential: {['%.3g' % t for t in peak_times]}",
         monotone),
        (f"runtime < 15 min (got {run['runtime']:.0f} s)", run["runtime"] < 900.0),
    ])


def test_criterion_9_heuristic_ranges(desk_spectrum, desk_sdme):
    checks = []
    ladder = (8, 6, 4, 2)
    ranges = heuristic_ranges(desk_spectrum, 8, ladder, lifetime_au=1e20,
                              sdme=desk_sdme, tau_span=2.5)
    e = desk_spectrum.energies
    gaps = [e[a] - e[b] for a, b in zip(ladder, ladder[1:])]
    dw = gaps[-1] - gaps[0]
    tau_bound = 1.0 / (dw * math.sqrt(1.0 / (8.0 * math.log(2.0)) - 1.0 / 36.0))
    checks.append(
        (f"tau range [{ranges.tau[0]:.3g}, {ranges.tau[1]:.3g}] respects the "
         f"bandwidth bound {tau_bound:.3g}", ranges.tau[0] >= tau_bound * (1 - 1e-12))
    )
    seed_pulse = ChirpedPulseParams(
        eps0=1e-3, omega0=gaps[0], tau0=3 * ranges.tau[0], tau=ranges.tau[0],
        chirp=dw / (6.0 * ranges.tau[0]),
    )
    checks.append(
        ("bandwidth at the bound covers the ladder span",
         abs(bandwidth(seed_pulse) - dw) / dw < 1e-9)
    )

    grid = RadialGrid(r_min=2.0, r_max=18.0, n_points=384, mu=1.0)
    harm = solve_bound_states(grid, HarmonicPotential(1.0, 1.0, 10.0), threshold=8.0)
    try:
        heuristic_ranges(harm, 4, (4, 3, 2, 1), lifetime_au=1e30,
                         sdme=np.ones((harm.bound_count,) * 2))
        equal_raises = False
    except ChirpSignError:
        equal_raises = True
    checks.append(("equal transition energies raise the chirp-sign error", equal_raises))

    hard = solve_bound_states(
        grid, AnharmonicPotential(mu=1.0, w=1.0, r0=10.0, quartic=0.01), threshold=12.0
    )
    try:
        heuristic_ranges(hard, 5, (5, 4, 3, 2), lifetime_au=1e30,
                         sdme=np.ones((hard.bound_count,) * 2))
        decreasing_raises = False
    except ChirpSignError:
        decreasing_raises = True
    checks.append(("decreasing transition energies raise the chirp-sign error",
                   decreasing_raises))
    report(9, "heuristic parameter ranges", checks)
