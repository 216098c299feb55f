"""Genetic optimization of the five pulse genes.

One evaluation cycle scores every pulse by propagating the initial
vibrational state and projecting on the target level; evolution then
eliminates below-mean individuals, protects an elite, refills the
population through roulette-wheel crossover, and applies range-clipped
Gaussian mutation to everyone but the elite.

All random draws come from one sequential generator, used only between
evaluation rounds, so runs are reproducible bit-for-bit no matter how the
fitness evaluations are parallelized.
"""

from __future__ import annotations

import itertools
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass, field, replace
from functools import cached_property, partial

import numpy as np

from .dvr import VibrationalSpectrum, solve_bound_states
from .propagator import (
    CapSpec,
    EigenStepper,
    PropagationBlowupError,
    TimeStepChoice,
    WavefunctionState,
    propagate,
    tolerance_time_step,
)
from .pulse import GENE_NAMES, ChirpedPulseParams, ParamRanges, duration

# std dev of a mutation kick, as a fraction of the gene's range width
_MUTATION_SCALE = 0.1


@dataclass
class Individual:
    """A pulse chromosome with its fitness score (None until evaluated)."""

    params: ChirpedPulseParams
    fitness: float | None = None


@dataclass(frozen=True)
class GaConfig:
    """The GA settings, named as the ``[ga]`` keys, with the published defaults;
    ``ranges`` may be None until the gene box is known, but ``optimize`` needs it."""

    ranges: ParamRanges | None
    population: int = 40
    generations: int = 10
    elites: int = 5
    crossover_prob: float = 0.25
    mutation_prob: float = 0.9
    seed: int = 1

    def __post_init__(self):
        if not 0 < self.elites < self.population:
            raise ValueError("need 0 < elites < population")
        for name in ("crossover_prob", "mutation_prob"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be a probability, got {p}")
        if self.generations < 1:
            raise ValueError("need at least one generation")
        if self.seed < 0:  # np.random.default_rng refuses negative seeds
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass
class GaHistory:
    """Per-generation summary of an optimization run."""

    best_fitness: list[float] = field(default_factory=list)
    mean_fitness: list[float] = field(default_factory=list)
    min_fitness: list[float] = field(default_factory=list)
    best_params: list[ChirpedPulseParams] = field(default_factory=list)
    evaluations: int = 0
    failures: int = 0
    uniform_fallbacks: int = 0

    def record(self, population: list[Individual]):
        scores = np.array([ind.fitness for ind in population])
        best = int(np.argmax(scores))
        self.best_fitness.append(float(scores[best]))
        self.mean_fitness.append(float(np.mean(scores)))
        self.min_fitness.append(float(np.min(scores)))
        self.best_params.append(population[best].params)


@dataclass(frozen=True)
class LadderProblem:
    """Fitness through propagation: J = |<target|Psi(t_max)>|^2.

    ``t_max`` per pulse is ``pulse.duration``, covering the whole envelope.
    The steps are Strang steps exp(-i H dt/2) exp(-i eps D dt) exp(-i H dt/2)
    in the eigenbasis of H0 below ``ecut`` = -E_0, the well depth measured
    from the dissociation limit, with H = H0 + CAP projected on that basis
    (``propagator.EigenStepper``), which ``evaluate`` hands to ``propagate``
    on ``spectrum.grid``; the overlap is taken there too. ``dt`` is either
    pinned by the caller or None, and then ``at_tolerance`` chooses it from
    ``propagator.POP_TOL`` over the corners of the gene box.
    """

    potential: object
    dipole: object
    cap: CapSpec | None
    spectrum: VibrationalSpectrum
    initial_level: int
    target_level: int
    dt: float | None

    def _eigen_stepper(self, dt: float) -> EigenStepper:
        ecut = -float(self.spectrum.energies[0])
        basis = solve_bound_states(self.spectrum.grid, self.potential, threshold=ecut)
        return EigenStepper(basis, self.dipole, self.cap, dt)

    @cached_property
    def stepper(self) -> EigenStepper:
        """The eigenbasis stepper, built at the first score and kept."""
        if self.dt is None:
            raise ValueError("dt is not set; at_tolerance chooses one")
        return self._eigen_stepper(self.dt)

    def drop_stepper(self):
        """Free the stepper's basis; a later score builds it again. perfbench keeps
        every score's arguments, this problem among them, and with the stepper
        kept its ``desk-ga`` peak RSS rose from 106.6 to 117.9 MB in one run."""
        self.__dict__.pop("stepper", None)

    def __getstate__(self):
        # pickled with the stepper, so no worker process repeats the eigensolve
        return {**self.__dict__, "stepper": self.stepper}

    def _psi0(self) -> np.ndarray:
        return self.spectrum.wavefunctions[self.initial_level].astype(complex)

    def at_tolerance(
        self, ranges: ParamRanges
    ) -> tuple["LadderProblem", TimeStepChoice, ChirpedPulseParams]:
        """This problem at the dt that holds POP_TOL at all 32 corners of the gene box.

        ``tolerance_time_step`` runs on the corner pulses, each over its own
        horizon, and the smallest dt wins. The 32 corners have 4 horizons, and
        the corners of one horizon share each trial stepper. The basis, D's
        eigenvectors and U^T Phi are built once for all. Returns the problem
        at that dt with its stepper built, the winning choice and the corner
        whose error estimate set it. Raises ``propagator.TimeStepError``
        where a search does.
        """
        los, his = ranges.as_arrays()
        by_horizon: dict[float, list[ChirpedPulseParams]] = {}
        for upper in itertools.product((False, True), repeat=len(GENE_NAMES)):
            corner = ChirpedPulseParams.from_array(np.where(upper, his, los))
            by_horizon.setdefault(duration(corner), []).append(corner)
        frame = self._eigen_stepper(max(by_horizon))
        psi0 = self._psi0()
        worst = None
        for t_end, corners in by_horizon.items():
            choice = tolerance_time_step(frame, psi0, self.spectrum, corners, t_end)
            if worst is None or choice.dt < worst[0].dt:
                worst = choice, corners[choice.worst]
        problem = replace(self, dt=worst[0].dt)
        problem.__dict__["stepper"] = frame.with_dt(problem.dt)
        return (problem, *worst)

    def evaluate(self, params: ChirpedPulseParams) -> float:
        state = WavefunctionState(psi=self._psi0(), t=0.0, grid=self.spectrum.grid)
        rec = propagate(state, params, self.stepper, duration(params), sample_stride=10**9)
        target = self.spectrum.wavefunctions[self.target_level]
        j = abs(rec.final_state.overlap(target)) ** 2
        return float(min(max(j, 0.0), 1.0))


@dataclass(frozen=True)
class SurrogateProblem:
    """Closed-form stand-in fitness: a Gaussian bump over the gene box.

    Evaluates in microseconds, so optimizer mechanics can be exercised
    end-to-end without any propagation. ``from_ranges`` puts the peak, of
    height 1, at 60% of each range, with a width of the whole range.
    """

    center: np.ndarray
    width: np.ndarray

    @classmethod
    def from_ranges(cls, ranges: ParamRanges) -> "SurrogateProblem":
        los, his = ranges.as_arrays()
        return cls(center=los + 0.6 * (his - los), width=his - los)

    def evaluate(self, params: ChirpedPulseParams) -> float:
        z = (params.as_array() - self.center) / self.width
        return float(np.exp(-np.sum(z * z)))


def _safe_evaluate(problem, genes) -> tuple[float, bool]:
    try:
        return problem.evaluate(ChirpedPulseParams.from_array(genes)), False
    except PropagationBlowupError:
        return 0.0, True


# set once in each worker process of optimize's pool, by _init_worker
_worker_problem = None


def _init_worker(problem):
    global _worker_problem
    _worker_problem = problem


def _worker_evaluate(genes) -> tuple[float, bool]:
    return _safe_evaluate(_worker_problem, genes)


def _evaluate_population(population: list[Individual], score, history: GaHistory):
    """Score the unevaluated individuals; ``score`` maps a list of genes to results."""
    todo = [i for i, ind in enumerate(population) if ind.fitness is None]
    if not todo:
        return
    results = score([population[i].params.as_array() for i in todo])
    for i, (j, failed) in zip(todo, results):
        population[i].fitness = j
        history.failures += failed
    history.evaluations += len(todo)


def init_population(ranges: ParamRanges, n: int,
                    rng: np.random.Generator) -> list[Individual]:
    """n unscored individuals, each with its five genes drawn uniformly from their ranges."""
    los, his = ranges.as_arrays()
    return [
        Individual(params=ChirpedPulseParams.from_array(rng.uniform(los, his)))
        for _ in range(n)
    ]


def roulette_pick(fitness: np.ndarray, rng: np.random.Generator) -> int:
    """Index drawn with probability proportional to fitness."""
    cum = np.cumsum(fitness)
    return int(np.searchsorted(cum, rng.random() * cum[-1], side="right"))


def evolve_generation(population: list[Individual], cfg: GaConfig,
                      rng: np.random.Generator,
                      history: GaHistory | None = None) -> list[Individual]:
    """One evolution cycle: eliminate, protect elite, cross over, mutate.

    Individuals scoring below the population mean are dropped; the best
    survivors are carried over untouched (fitness kept); the population is
    refilled with children of roulette-picked survivor pairs whose genes
    swap with the crossover probability; finally every non-elite gene
    mutates with the mutation probability by a range-clipped Gaussian kick.
    Returned non-elite individuals are unevaluated.
    """
    if any(ind.fitness is None for ind in population):
        raise ValueError("evolve_generation requires a fully evaluated population")
    scores = np.array([ind.fitness for ind in population])
    mean = float(np.mean(scores))
    survivors = [ind for ind in population if ind.fitness >= mean]
    order = sorted(range(len(survivors)), key=lambda k: -survivors[k].fitness)
    elite_idx = set(order[: cfg.elites])

    sur_fitness = np.array([ind.fitness for ind in survivors])
    degenerate = float(np.sum(sur_fitness)) <= 0.0
    if degenerate and history is not None:
        history.uniform_fallbacks += 1

    def pick_parent() -> np.ndarray:
        if degenerate:
            k = int(rng.integers(len(survivors)))
        else:
            k = roulette_pick(sur_fitness, rng)
        return survivors[k].params.as_array()

    n_children = cfg.population - len(survivors)
    children: list[Individual] = []
    for _ in range(n_children):
        a, b = pick_parent(), pick_parent()
        swap = rng.random(len(GENE_NAMES)) < cfg.crossover_prob
        child = np.where(swap, b, a)  # sibling np.where(swap, a, b) is discarded
        children.append(Individual(params=ChirpedPulseParams.from_array(child)))

    los, his = cfg.ranges.as_arrays()
    widths = his - los
    new_pop: list[Individual] = []
    for k, ind in enumerate(survivors):
        if k in elite_idx:
            new_pop.append(replace(ind))
        else:
            new_pop.append(Individual(params=ind.params))
    new_pop.extend(children)
    for idx, ind in enumerate(new_pop):
        if idx < len(survivors) and idx in elite_idx:
            continue
        genes = ind.params.as_array()
        for g in range(len(genes)):
            if rng.random() < cfg.mutation_prob:
                genes[g] += rng.normal(0.0, _MUTATION_SCALE * widths[g])
        ind.params = ChirpedPulseParams.from_array(np.clip(genes, los, his))
        ind.fitness = None
    return new_pop


def optimize(cfg: GaConfig, problem, threads: int = 1) -> tuple[Individual, GaHistory]:
    """Run the full optimization cycle and return the best-ever individual.

    Deterministic for a fixed config seed: evaluations never touch the
    random stream, so the thread count cannot change the outcome. With
    threads > 1 one pool of worker processes serves the whole run; each
    worker receives the problem once, when it starts.
    """
    if cfg.ranges is None:
        raise ValueError("optimize needs the gene ranges of cfg")
    rng = np.random.default_rng(cfg.seed)
    history = GaHistory()
    with ExitStack() as stack:
        score = partial(map, partial(_safe_evaluate, problem))
        if threads > 1:
            pool = stack.enter_context(ProcessPoolExecutor(
                max_workers=threads, mp_context=multiprocessing.get_context("spawn"),
                initializer=_init_worker, initargs=(problem,),
            ))
            score = partial(pool.map, _worker_evaluate)
        population = init_population(cfg.ranges, cfg.population, rng)
        _evaluate_population(population, score, history)
        history.record(population)
        for _ in range(cfg.generations - 1):
            population = evolve_generation(population, cfg, rng, history)
            _evaluate_population(population, score, history)
            history.record(population)
    best = max(population, key=lambda ind: ind.fitness)
    return replace(best), history
