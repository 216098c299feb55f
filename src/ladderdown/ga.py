"""Genetic optimization of the five pulse genes.

A generation is an (n, 5) array of genes, one pulse per row in the order
of ``GENE_NAMES``, and a length-n array of fitness in which NaN marks a row
still to be scored. One evaluation cycle scores those rows by propagating
the initial vibrational state and projecting on the target level;
evolution then eliminates below-mean rows, protects an elite, refills the
population through roulette-wheel crossover, and applies range-clipped
Gaussian mutation to every row but the elite.

All random draws come from one sequential generator, used only between
evaluation rounds, so runs are reproducible bit-for-bit no matter how the
fitness evaluations are parallelized.
"""

from __future__ import annotations

import itertools
import math
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass, field, replace
from functools import cached_property, partial

import numpy as np
import scipy

from .dvr import VibrationalSpectrum, _openblas_calls, solve_bound_states
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
    tau_span: float = 10.0  # read only by the heuristic ranges

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
        if not 1.0 < self.tau_span < math.inf:
            # tau_hi = tau_span * tau_lo, so the heuristic tau range needs tau_span > 1
            raise ValueError(f"tau_span: must be > 1 and finite, got {self.tau_span}")


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

    def record(self, genes: np.ndarray, fitness: np.ndarray):
        best = int(np.argmax(fitness))
        self.best_fitness.append(float(fitness[best]))
        self.mean_fitness.append(float(np.mean(fitness)))
        self.min_fitness.append(float(np.min(fitness)))
        self.best_params.append(ChirpedPulseParams.from_array(genes[best]))


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

    def at_tolerance(self, ranges: ParamRanges) -> tuple["LadderProblem", TimeStepChoice]:
        """This problem at the dt that holds POP_TOL at all 32 corners of the gene box.

        ``tolerance_time_step`` runs on the corner pulses, each to its own
        horizon, from one frame: the basis, D's eigenvectors and U^T Phi are
        built once for all. Returns the problem at the chosen dt with its
        stepper built, and the choice, whose ``worst`` is the corner that set
        dt. Raises ``propagator.TimeStepError`` where the search does.
        """
        los, his = ranges.as_arrays()
        corners = [ChirpedPulseParams.from_array(np.where(upper, his, los))
                   for upper in itertools.product((False, True), repeat=len(GENE_NAMES))]
        frame = self._eigen_stepper(max(map(duration, corners)))
        choice = tolerance_time_step(frame, self._psi0(), self.spectrum, corners)
        problem = replace(self, dt=choice.dt)
        problem.__dict__["stepper"] = frame.with_dt(choice.dt)
        return problem, choice

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


def _init_worker(problem, threads: int):
    global _worker_problem
    _worker_problem = problem
    # N workers share the usable cores, so each runs its BLAS on 1/N of them
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    for module in (np, scipy):
        for set_threads in _openblas_calls("set", module):
            set_threads(max(1, (cpus or 1) // threads))


def _worker_evaluate(genes) -> tuple[float, bool]:
    return _safe_evaluate(_worker_problem, genes)


def _evaluate_population(genes: np.ndarray, fitness: np.ndarray, score, history: GaHistory):
    """Score the NaN rows of ``fitness`` in place; ``score`` maps rows of genes to results."""
    todo = np.flatnonzero(np.isnan(fitness))
    for i, (j, failed) in zip(todo, score(genes[todo])):
        fitness[i] = j
        history.failures += failed
    history.evaluations += len(todo)


def init_population(ranges: ParamRanges, n: int, rng: np.random.Generator) -> np.ndarray:
    """n rows of genes, each drawn uniformly from the ranges."""
    los, his = ranges.as_arrays()
    return np.array([rng.uniform(los, his) for _ in range(n)])


def roulette_pick(fitness: np.ndarray, rng: np.random.Generator) -> int:
    """Index drawn with probability proportional to fitness."""
    cum = np.cumsum(fitness)
    return int(np.searchsorted(cum, rng.random() * cum[-1], side="right"))


def evolve_generation(genes: np.ndarray, fitness: np.ndarray, cfg: GaConfig,
                      rng: np.random.Generator,
                      history: GaHistory | None = None) -> tuple[np.ndarray, np.ndarray]:
    """One evolution cycle: eliminate, protect elite, cross over, mutate.

    Rows scoring below the population mean are dropped; the survivors stay
    at the head in their order, and the best of them, the elite, keep their
    genes and scores. The population is refilled with children of
    roulette-picked survivor pairs whose genes swap with the crossover
    probability; finally every gene of every other row mutates with the
    mutation probability by a range-clipped Gaussian kick, and its score is
    NaN. Returns new arrays; the inputs are left as they are.
    """
    if np.isnan(fitness).any():
        raise ValueError("evolve_generation requires a fully evaluated population")
    # the mean of equal scores can round above them all; the max keeps the best row
    keep = fitness >= min(float(np.mean(fitness)), float(np.max(fitness)))
    sur_genes, sur_fitness = genes[keep], fitness[keep]
    degenerate = float(np.sum(sur_fitness)) <= 0.0
    if degenerate and history is not None:
        history.uniform_fallbacks += 1

    def pick_parent() -> np.ndarray:
        if degenerate:
            return sur_genes[int(rng.integers(len(sur_genes)))]
        return sur_genes[roulette_pick(sur_fitness, rng)]

    children = []
    for _ in range(cfg.population - len(sur_genes)):
        a, b = pick_parent(), pick_parent()
        swap = rng.random(len(GENE_NAMES)) < cfg.crossover_prob
        children.append(np.where(swap, b, a))  # sibling np.where(swap, a, b) is discarded
    new_genes = np.vstack([sur_genes, *children])

    new_fitness = np.full(len(new_genes), np.nan)
    elites = np.argsort(-sur_fitness, kind="stable")[: cfg.elites]
    new_fitness[elites] = sur_fitness[elites]
    los, his = cfg.ranges.as_arrays()
    widths = his - los
    for i in np.flatnonzero(np.isnan(new_fitness)):
        row = new_genes[i]  # a view: an integer index, not a mask
        for g in range(len(row)):
            if rng.random() < cfg.mutation_prob:
                row[g] += rng.normal(0.0, _MUTATION_SCALE * widths[g])
        np.clip(row, los, his, out=row)
    return new_genes, new_fitness


def optimize(cfg: GaConfig, problem, threads: int = 1) -> tuple[ChirpedPulseParams, GaHistory]:
    """Run the full optimization cycle; return the best pulse of every score, and the history.

    The top elite carries the best-ever score, so that pulse is the best row
    of the last generation, and its J is ``history.best_fitness[-1]``.
    Deterministic for a fixed config seed: evaluations never touch the random
    stream, so the thread count cannot change the outcome. With threads > 1
    one pool of worker processes serves the whole run; each worker receives
    the problem once, when it starts, and runs the OpenBLAS that numpy and
    scipy bundle on its 1/threads share of the usable cores.
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
                initializer=_init_worker, initargs=(problem, threads),
            ))
            score = partial(pool.map, _worker_evaluate)
        genes = init_population(cfg.ranges, cfg.population, rng)
        fitness = np.full(cfg.population, np.nan)
        _evaluate_population(genes, fitness, score, history)
        history.record(genes, fitness)
        for _ in range(cfg.generations - 1):
            genes, fitness = evolve_generation(genes, fitness, cfg, rng, history)
            _evaluate_population(genes, fitness, score, history)
            history.record(genes, fitness)
    return history.best_params[-1], history
