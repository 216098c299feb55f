import math
import multiprocessing
import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial

import numpy as np
import pytest
import scipy

from ladderdown import dvr, ga
from ladderdown.constants import MU_K39RB87
from ladderdown.curves import MorsePotential
from ladderdown.dvr import RadialGrid, solve_bound_states
from ladderdown.ga import (
    GaConfig,
    GaHistory,
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


@dataclass
class RecordingProblem:
    """The surrogate, keeping every (genes, J) it scores, in call order."""

    inner: SurrogateProblem
    scores: list = field(default_factory=list)

    def evaluate(self, params):
        j = self.inner.evaluate(params)
        self.scores.append((params.as_array(), j))
        return j


def _score(problem, genes) -> np.ndarray:
    return np.array([problem.evaluate(ChirpedPulseParams.from_array(g)) for g in genes])


class TestInitPopulation:
    def test_genes_always_inside_ranges(self):
        genes = init_population(RANGES, 2000, np.random.default_rng(3))
        los, his = RANGES.as_arrays()
        assert genes.shape == (2000, 5)
        assert np.all(genes >= los) and np.all(genes <= his)

    def test_same_seed_is_bit_identical(self):
        a = init_population(RANGES, 50, np.random.default_rng(11))
        b = init_population(RANGES, 50, np.random.default_rng(11))
        assert a.tobytes() == b.tobytes()

    def test_unset_fitness(self, surrogate):
        # NaN marks a row still to be scored; only those rows are scored
        genes = init_population(RANGES, 5, np.random.default_rng(0))
        fitness = np.full(5, np.nan)
        fitness[2] = 0.5
        history = GaHistory()
        ga._evaluate_population(genes, fitness, partial(map, partial(ga._safe_evaluate, surrogate)),
                                history)
        assert history.evaluations == 4
        expected = _score(surrogate, genes)
        expected[2] = 0.5
        assert fitness.tolist() == expected.tolist()


class TestEvaluateFitness:
    def test_stationary_target_scores_one(self, toy_ladder_problem):
        prob = LadderProblem(
            potential=toy_ladder_problem.potential,
            dipole=toy_ladder_problem.dipole, cap=None,
            spectrum=toy_ladder_problem.spectrum, initial_level=1, target_level=1,
            dt=0.25,
        )
        params = ChirpedPulseParams(eps0=1e-12, omega0=0.08, tau0=200.0, tau=50.0, chirp=1e-9)
        j = prob.evaluate(params)
        assert abs(j - 1.0) < 1e-8

    def test_orthogonal_target_scores_zero(self, toy_ladder_problem):
        params = ChirpedPulseParams(eps0=1e-12, omega0=0.08, tau0=200.0, tau=50.0, chirp=1e-9)
        assert toy_ladder_problem.evaluate(params) < 1e-10

    def test_reevaluation_is_invariant(self, toy_ladder_problem):
        params = ChirpedPulseParams(eps0=0.004, omega0=0.08, tau0=300.0, tau=100.0, chirp=1e-8)
        j1 = toy_ladder_problem.evaluate(params)
        j2 = toy_ladder_problem.evaluate(params)
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
        genes = init_population(RANGES, n, np.random.default_rng(seed))
        return genes, _score(surrogate, genes)

    def test_requires_evaluated_population(self, surrogate):
        genes = init_population(RANGES, 10, np.random.default_rng(0))
        cfg = GaConfig(ranges=RANGES, population=10, elites=2)
        with pytest.raises(ValueError):
            evolve_generation(genes, np.full(10, np.nan), cfg, np.random.default_rng(0))

    def test_population_size_preserved(self, surrogate):
        genes, fitness = self._evaluated_population(surrogate)
        cfg = GaConfig(ranges=RANGES, population=20, elites=3)
        child, child_fitness = evolve_generation(genes, fitness, cfg, np.random.default_rng(7))
        assert child.shape == (20, 5)
        assert child_fitness.shape == (20,)

    def test_elite_carried_unchanged_with_fitness(self, surrogate):
        genes, fitness = self._evaluated_population(surrogate)
        cfg = GaConfig(ranges=RANGES, population=20, elites=3)
        best = int(np.argmax(fitness))
        child, child_fitness = evolve_generation(genes, fitness, cfg, np.random.default_rng(7))
        carried = [
            j for g, j in zip(child, child_fitness)
            if not np.isnan(j) and np.array_equal(g, genes[best])
        ]
        assert carried and carried[0] == fitness[best]

    def test_below_mean_individuals_eliminated(self, surrogate):
        genes, scores = self._evaluated_population(surrogate)
        mean = scores.mean()
        cfg = GaConfig(ranges=RANGES, population=20, elites=3)
        child, child_fitness = evolve_generation(genes, scores, cfg, np.random.default_rng(7))
        # survivors are exactly the above-mean parents; they occupy the head
        n_survivors = int(np.sum(scores >= mean))
        surviving_params = {tuple(g) for g, j in zip(genes, scores) if j >= mean}
        for g, j in zip(child[:n_survivors], child_fitness[:n_survivors]):
            if not np.isnan(j):  # elites are byte-identical parents
                assert tuple(g) in surviving_params

    def test_children_respect_gene_clipping(self, surrogate):
        genes, fitness = self._evaluated_population(surrogate)
        cfg = GaConfig(ranges=RANGES, population=20, elites=3)
        child, _ = evolve_generation(genes, fitness, cfg, np.random.default_rng(7))
        los, his = RANGES.as_arrays()
        assert np.all(child >= los) and np.all(child <= his)

    def test_all_zero_fitness_falls_back_to_uniform(self):
        genes = init_population(RANGES, 12, np.random.default_rng(1))
        fitness = _score(FlatProblem(0.0), genes)
        cfg = GaConfig(ranges=RANGES, population=12, elites=2)
        history = GaHistory()
        child, _ = evolve_generation(genes, fitness, cfg, np.random.default_rng(3), history)
        assert len(child) == 12
        assert history.uniform_fallbacks == 1

    def test_inputs_are_left_as_they_are(self, surrogate):
        genes, fitness = self._evaluated_population(surrogate)
        before = genes.tobytes(), fitness.tobytes()
        cfg = GaConfig(ranges=RANGES, population=20, elites=3, mutation_prob=1.0)
        child, child_fitness = evolve_generation(genes, fitness, cfg, np.random.default_rng(7))
        assert (genes.tobytes(), fitness.tobytes()) == before
        for new in (child, child_fitness):
            for old in (genes, fitness):
                assert not np.shares_memory(new, old)

    def test_equal_nonzero_scores_keep_every_row(self):
        # three scores of 0.1 average to 0.10000000000000002, above each of them
        assert np.mean([0.1, 0.1, 0.1]) > 0.1
        cfg = GaConfig(ranges=RANGES, population=3, generations=2, elites=1)
        best, history = optimize(cfg, FlatProblem(0.1))
        assert history.evaluations == 5
        assert history.best_fitness == [0.1, 0.1]
        assert history.uniform_fallbacks == 0


class TestOptimize:
    def test_single_generation_returns_best_initial(self, surrogate):
        cfg = GaConfig(ranges=RANGES, population=15, generations=1,
                       elites=2, seed=9)
        best, history = optimize(cfg, surrogate)
        genes = init_population(RANGES, 15, np.random.default_rng(9))
        scores = _score(surrogate, genes)
        assert history.best_fitness[-1] == max(scores)
        assert best == ChirpedPulseParams.from_array(genes[np.argmax(scores)])
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
            _, history = optimize(cfg, surrogate)
            assert history.best_fitness[-1] >= 0.99  # the surrogate peaks at 1

    def test_returns_the_best_of_every_score(self, surrogate):
        for seed in range(5):
            problem = RecordingProblem(surrogate)
            cfg = GaConfig(ranges=RANGES, population=12, generations=8, elites=2, seed=seed)
            best, history = optimize(cfg, problem)
            assert len(problem.scores) == history.evaluations
            first_max = max(problem.scores, key=lambda s: s[1])  # max keeps the first
            assert history.best_fitness[-1] == first_max[1]
            assert best.as_array().tobytes() == first_max[0].tobytes()

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
        _, history = optimize(cfg, BlowupProblem())
        assert history.best_fitness[-1] == 0.0
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

    @pytest.mark.parametrize("tau_span", [1.0, 0.5, -1.0, math.inf, math.nan])
    def test_tau_span_must_exceed_one_and_be_finite(self, tau_span):
        # the heuristic tau range runs from tau_lo to tau_span * tau_lo
        with pytest.raises(ValueError, match="^tau_span: must be > 1 and finite"):
            GaConfig(ranges=None, tau_span=tau_span)
