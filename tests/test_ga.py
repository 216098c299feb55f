import multiprocessing
import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np
import pytest
import scipy

from ladderdown import dvr, ga
from ladderdown.constants import MU_K39RB87
from ladderdown.curves import MorsePotential
from ladderdown.dvr import RadialGrid, solve_bound_states
from ladderdown.ga import (
    GaConfig,
    Individual,
    LadderProblem,
    SurrogateProblem,
    evolve_generation,
    init_population,
    optimize,
    roulette_pick,
)
from ladderdown.propagator import CapSpec, PropagationBlowupError
from ladderdown.pulse import ChirpedPulseParams, ParamRanges
from oracles import LinearDipole

RANGES = ParamRanges(
    eps0=(1e-3, 1e-2),
    omega0=(3.1e-5, 3.6e-5),
    tau0=(3.3e6, 3.5e7),
    tau=(1e6, 1e7),
    chirp=(4e-13, 5e-12),
)


def _openblas_threads() -> list[int]:
    """The thread count of each OpenBLAS that numpy and scipy bundle, in this process."""
    return [get() for module in (np, scipy) for get in dvr._openblas_calls("get", module)]


@dataclass(frozen=True)
class FlatProblem:
    value: float = 0.0

    def evaluate(self, params):
        return self.value


@dataclass(frozen=True)
class BlowupProblem:
    def evaluate(self, params):
        raise PropagationBlowupError(17)


@pytest.fixture(scope="module")
def surrogate():
    return SurrogateProblem.from_ranges(RANGES)


@pytest.fixture(scope="module")
def toy_ladder_problem():
    # small anharmonic well: cheap real propagations for fitness tests
    grid = RadialGrid(r_min=4.0, r_max=24.0, n_points=256, mu=50.0)
    pot = MorsePotential(de=0.25, re=10.0, a=1.0)
    spectrum = solve_bound_states(grid, pot)
    return LadderProblem(
        potential=pot, dipole=LinearDipole(10.0), cap=None,
        spectrum=spectrum, initial_level=1, target_level=0, dt=0.25,
    )


class TestInitPopulation:
    def test_genes_always_inside_ranges(self):
        pop = init_population(RANGES, 2000, np.random.default_rng(3))
        los, his = RANGES.as_arrays()
        genes = np.array([ind.params.as_array() for ind in pop])
        assert genes.shape == (2000, 5)
        assert np.all(genes >= los) and np.all(genes <= his)

    def test_same_seed_is_bit_identical(self):
        a = init_population(RANGES, 50, np.random.default_rng(11))
        b = init_population(RANGES, 50, np.random.default_rng(11))
        assert all(
            np.array_equal(x.params.as_array(), y.params.as_array())
            for x, y in zip(a, b)
        )

    def test_unset_fitness(self):
        assert all(ind.fitness is None for ind in init_population(RANGES, 5, np.random.default_rng(0)))


class TestEvaluateFitness:
    def test_stationary_target_scores_one(self, toy_ladder_problem):
        prob = LadderProblem(
            potential=toy_ladder_problem.potential,
            dipole=toy_ladder_problem.dipole, cap=None,
            spectrum=toy_ladder_problem.spectrum, initial_level=1, target_level=1,
            dt=0.25,
        )
        ind = Individual(params=ChirpedPulseParams(
            eps0=1e-12, omega0=0.08, tau0=200.0, tau=50.0, chirp=1e-9
        ))
        j = prob.evaluate(ind.params)
        assert abs(j - 1.0) < 1e-8

    def test_orthogonal_target_scores_zero(self, toy_ladder_problem):
        ind = Individual(params=ChirpedPulseParams(
            eps0=1e-12, omega0=0.08, tau0=200.0, tau=50.0, chirp=1e-9
        ))
        assert toy_ladder_problem.evaluate(ind.params) < 1e-10

    def test_reevaluation_is_invariant(self, toy_ladder_problem):
        ind = Individual(params=ChirpedPulseParams(
            eps0=0.004, omega0=0.08, tau0=300.0, tau=100.0, chirp=1e-8
        ))
        j1 = toy_ladder_problem.evaluate(ind.params)
        j2 = toy_ladder_problem.evaluate(ind.params)
        assert abs(j1 - j2) < 1e-12

    def test_dropped_stepper_is_rebuilt_to_the_same_score(self, toy_ladder_problem):
        params = ChirpedPulseParams(eps0=0.004, omega0=0.08, tau0=300.0, tau=100.0,
                                    chirp=1e-8)
        j1 = toy_ladder_problem.evaluate(params)
        toy_ladder_problem.drop_stepper()
        assert "stepper" not in vars(toy_ladder_problem)
        assert toy_ladder_problem.evaluate(params) == j1


class TestRoulette:
    def test_frequencies_match_fitness_proportions(self):
        rng = np.random.default_rng(123)
        fitness = np.array([1.0, 3.0])
        n = 100_000
        picks = np.array([roulette_pick(fitness, rng) for _ in range(n)])
        freq1 = float(np.mean(picks == 1))
        assert abs((1.0 - freq1) - 0.25) < 0.01
        assert abs(freq1 - 0.75) < 0.01


class TestEvolveGeneration:
    def _evaluated_population(self, surrogate, n=20, seed=5):
        pop = init_population(RANGES, n, np.random.default_rng(seed))
        for ind in pop:
            ind.fitness = surrogate.evaluate(ind.params)
        return pop

    def test_requires_evaluated_population(self, surrogate):
        pop = init_population(RANGES, 10, np.random.default_rng(0))
        cfg = GaConfig(ranges=RANGES, population=10, elites=2)
        with pytest.raises(ValueError):
            evolve_generation(pop, cfg, np.random.default_rng(0))

    def test_population_size_preserved(self, surrogate):
        pop = self._evaluated_population(surrogate)
        cfg = GaConfig(ranges=RANGES, population=20, elites=3)
        child = evolve_generation(pop, cfg, np.random.default_rng(7))
        assert len(child) == 20

    def test_elite_carried_unchanged_with_fitness(self, surrogate):
        pop = self._evaluated_population(surrogate)
        cfg = GaConfig(ranges=RANGES, population=20, elites=3)
        best = max(pop, key=lambda ind: ind.fitness)
        child = evolve_generation(pop, cfg, np.random.default_rng(7))
        carried = [
            ind for ind in child
            if ind.fitness is not None
            and np.array_equal(ind.params.as_array(), best.params.as_array())
        ]
        assert carried and carried[0].fitness == best.fitness

    def test_below_mean_individuals_eliminated(self, surrogate):
        pop = self._evaluated_population(surrogate)
        scores = np.array([ind.fitness for ind in pop])
        mean = scores.mean()
        cfg = GaConfig(ranges=RANGES, population=20, elites=3)
        child = evolve_generation(pop, cfg, np.random.default_rng(7))
        # survivors are exactly the above-mean parents; they occupy the head
        n_survivors = int(np.sum(scores >= mean))
        head = child[:n_survivors]
        surviving_params = {tuple(ind.params.as_array()) for ind in pop
                            if ind.fitness >= mean}
        for ind in head:
            if ind.fitness is not None:  # elites are byte-identical parents
                assert tuple(ind.params.as_array()) in surviving_params

    def test_children_respect_gene_clipping(self, surrogate):
        pop = self._evaluated_population(surrogate)
        cfg = GaConfig(ranges=RANGES, population=20, elites=3)
        child = evolve_generation(pop, cfg, np.random.default_rng(7))
        los, his = RANGES.as_arrays()
        genes = np.array([ind.params.as_array() for ind in child])
        assert np.all(genes >= los) and np.all(genes <= his)

    def test_all_zero_fitness_falls_back_to_uniform(self):
        pop = init_population(RANGES, 12, np.random.default_rng(1))
        for ind in pop:
            ind.fitness = FlatProblem(0.0).evaluate(ind.params)
        cfg = GaConfig(ranges=RANGES, population=12, elites=2)
        from ladderdown.ga import GaHistory

        history = GaHistory()
        child = evolve_generation(pop, cfg, np.random.default_rng(3), history)
        assert len(child) == 12
        assert history.uniform_fallbacks == 1


class TestOptimize:
    def test_single_generation_returns_best_initial(self, surrogate):
        cfg = GaConfig(ranges=RANGES, population=15, generations=1,
                       elites=2, seed=9)
        best, history = optimize(cfg, surrogate)
        pop = init_population(RANGES, 15, np.random.default_rng(9))
        scores = [surrogate.evaluate(ind.params) for ind in pop]
        assert best.fitness == max(scores)
        assert history.evaluations == 15
        assert len(history.best_fitness) == 1

    def test_best_fitness_monotone_over_20_seeds(self, surrogate):
        for seed in range(20):
            cfg = GaConfig(ranges=RANGES, population=30, generations=8,
                           elites=4, seed=seed)
            _, history = optimize(cfg, surrogate)
            b = history.best_fitness
            assert all(later >= earlier for earlier, later in zip(b, b[1:]))

    def test_surrogate_reaches_optimum_on_10_seeds(self, surrogate):
        for seed in range(10):
            cfg = GaConfig(ranges=RANGES, population=40, generations=50,
                           elites=5, seed=seed)
            best, _ = optimize(cfg, surrogate)
            assert best.fitness >= 0.99  # the surrogate peaks at 1

    def test_rerun_is_byte_identical(self, surrogate):
        cfg = GaConfig(ranges=RANGES, population=20, generations=6,
                       elites=3, seed=4)
        _, h1 = optimize(cfg, surrogate)
        _, h2 = optimize(cfg, surrogate)
        assert h1 == h2

    def test_parallel_evaluation_matches_serial(self, surrogate):
        cfg = GaConfig(ranges=RANGES, population=16, generations=4,
                       elites=2, seed=8)
        _, serial = optimize(cfg, surrogate, threads=1)
        _, parallel = optimize(cfg, surrogate, threads=2)
        assert serial == parallel

    def test_parallel_ladder_run_matches_serial(self, standin_potential, standin_dipole):
        # a real propagation problem; workers get the stepper built here
        grid = RadialGrid(r_min=8.0, r_max=68.0, n_points=256, mu=MU_K39RB87)
        spectrum = solve_bound_states(grid, standin_potential)
        problem = LadderProblem(
            potential=standin_potential, dipole=standin_dipole,
            cap=CapSpec(r0=48.0, eta=5e-6), spectrum=spectrum, initial_level=8,
            target_level=6, dt=40.0,
        )
        gap = float(spectrum.energies[8] - spectrum.energies[6])
        ranges = ParamRanges(eps0=(1e-3, 5e-3), omega0=(0.8 * gap, 1.2 * gap),
                             tau0=(2e4, 4e4), tau=(5e3, 1e4), chirp=(1e-11, 1e-10))
        cfg = GaConfig(ranges=ranges, population=4, generations=2, elites=1,
                       seed=3)
        _, serial = optimize(cfg, problem, threads=1)
        assert "stepper" in pickle.loads(pickle.dumps(problem)).__dict__
        _, parallel = optimize(cfg, problem, threads=2)
        assert max(serial.best_fitness) > 1e-3
        assert serial == parallel

    def test_pool_workers_pin_the_bundled_openblas(self):
        here = _openblas_threads()
        if not here:
            pytest.skip("numpy and scipy bundle no OpenBLAS with scipy_openblas symbols here")
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        with ProcessPoolExecutor(max_workers=1, mp_context=multiprocessing.get_context("spawn"),
                                 initializer=ga._init_worker, initargs=(None, 2)) as pool:
            counts = pool.submit(_openblas_threads).result()
        assert len(counts) == len(here)
        assert counts == [max(1, cpus // 2)] * len(counts)

    def test_blowups_never_abort_the_run(self):
        cfg = GaConfig(ranges=RANGES, population=10, generations=3,
                       elites=2, seed=2)
        best, history = optimize(cfg, BlowupProblem())
        assert best.fitness == 0.0
        assert history.failures == history.evaluations
        assert len(history.best_fitness) == 3

    def test_history_chromosomes_inside_ranges(self, surrogate):
        cfg = GaConfig(ranges=RANGES, population=20, generations=10,
                       elites=3, seed=6)
        _, history = optimize(cfg, surrogate)
        los, his = RANGES.as_arrays()
        for p in history.best_params:
            g = p.as_array()
            assert np.all(g >= los) and np.all(g <= his)

    def test_needs_the_gene_ranges(self, surrogate):
        with pytest.raises(ValueError, match="ranges"):
            optimize(GaConfig(None), surrogate)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be >= 0"):
            GaConfig(ranges=RANGES, seed=-1)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GaConfig(ranges=RANGES, population=5, elites=5)
        with pytest.raises(ValueError):
            GaConfig(ranges=RANGES, crossover_prob=1.5)
        with pytest.raises(ValueError):
            GaConfig(ranges=RANGES, generations=0)

