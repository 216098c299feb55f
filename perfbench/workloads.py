"""The benchmark's workloads: inputs from a seed, the command, and output checks.

Each workload runs one ``ladderdown`` command in this process through
``ladderdown.cli.main``. Set-up ends at the first call of the workload's unit
operation (``first_work``): a fitness score, a pulse propagation or a
bound-state eigensolve. An untraced command wraps only that function and
``propagate`` (a few calls of seconds each); a traced command wraps every
public function of the six modules. References that are not stored are
computed in a child process, so their memory stays out of ``peak_rss_mb``.
"""

from __future__ import annotations

import configparser
import contextlib
import hashlib
import io
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.fft as sfft

import reference
from tracing import Tracer, public_callables

from ladderdown import cli, curves, dvr, ga, propagator, pulse

MODULES = (curves, dvr, pulse, propagator, ga, cli)
REFERENCES = Path(__file__).resolve().parent / "references"

DEFAULT_SEED = 1         # the desk preset's [ga] seed; stored references use it
POP_GATE = 1.0e-5        # largest allowed level-population error against a reference
NORM_GATE = 1.0 + 1.0e-9
ENERGY_GATE = 1.0e-10    # hartree, bound-level energies against the stored reference
BOUND_LEVELS = 30        # bound levels of the stand-in well on the production grid


class SetupDone(Exception):
    """Raised at the first unit operation of a run that only measures set-up."""


@dataclass
class Rep:
    """One command: timings, spans and what the hooks captured."""

    out: Path
    wall: float = 0.0
    setup: float | None = None
    exit_code: int | None = None
    tracer: Tracer = field(default_factory=Tracer)
    units: list = field(default_factory=list)       # (seconds, args, result) per unit operation
    records: list = field(default_factory=list)     # (steps, dt, final norm, horizon)
    samples: int = 0                                # field samples asked of pulse.amplitude
    h_bytes: int = 0
    bound_count: int = 0
    history: object = None
    grid_points: int = 0


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def source_digest() -> str:
    """Hash of the package source, so that only runs of the same code are compared."""
    src = Path(cli.__file__).resolve().parent
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def in_child(fn, *args):
    """fn(*args) in a fresh Python process, which has ended when this returns.

    fn is a function of this module; its arguments and its result pass as
    JSON. A plain child process is used, not multiprocessing, whose resource
    tracker would outlive the call.
    """
    code = ("import json, sys; sys.path[:0] = sys.argv[1:3]; import workloads; "
            "r = getattr(workloads, sys.argv[3])(*json.loads(sys.argv[4])); "
            "print(json.dumps(r.tolist() if isinstance(r, workloads.np.ndarray) else r))")
    bench = Path(__file__).resolve().parent
    done = subprocess.run([sys.executable, "-c", code, str(bench), str(bench.parent / "src"),
                           fn.__name__, json.dumps(args)],
                          stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def read_summary(out: Path) -> dict[str, str]:
    pairs = (line.split(" = ", 1) for line in (out / "summary.txt").read_text().splitlines())
    return {k: v for k, v in pairs}


def read_pulse(path: Path) -> dict:
    cp = configparser.ConfigParser()
    cp.read(path)
    return {g: float(cp["pulse"][g]) for g in reference.GENES}


class Workload:
    name = ""
    first_work = ""
    setup_only_runs = 0
    min_reps = 1
    compared_files: tuple[str, ...] = ()

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.inputs = work / "inputs"
        self.cache = work / "cache"
        for d in (self.inputs, self.cache):
            d.mkdir(parents=True, exist_ok=True)
        self.targets = public_callables(MODULES)
        self.pop_errors: list[float] = []
        self.notes: list[str] = []

    # --- to be provided by each workload -------------------------------------
    def prepare(self):
        """Write the inputs and load or compute references; not timed."""

    def argv(self, out: Path) -> list[str]:
        raise NotImplementedError

    def unit_seconds(self, rep: Rep) -> list[float]:
        return [u[0] for u in rep.units]

    def wall_seconds(self, rep: Rep) -> float:
        return rep.wall

    def check(self, rep: Rep) -> tuple[int, int]:
        """(operations attempted, operations failed) for one command."""
        raise NotImplementedError

    def after_timing(self, reps: list[Rep]):
        """Work the checks need that must not be timed."""

    def trajectory_match(self, rep: Rep) -> int:
        return 0

    # --- running ---------------------------------------------------------------
    def execute(self, out: Path, traced: bool, stop_at_first: bool = False) -> Rep:
        rep = Rep(out=out)
        tracer = rep.tracer
        first: list[float] = []

        def mark(args, kwargs):
            if not first:
                first.append(time.perf_counter())
                if stop_at_first:
                    raise SetupDone

        def unit(args, kwargs, result, span):
            rep.units.append((span.end - span.start, args, result))

        def on_propagate(args, kwargs, rec, span):
            state, params = args[0], args[1]
            rep.grid_points = state.grid.n_points
            rep.records.append((rec.steps, rec.dt, float(rec.norm[-1]),
                                params.tau0 + 4.0 * params.tau))

        tracer.before(self.first_work, mark)
        tracer.after(self.first_work, unit)
        tracer.after("propagator.propagate", on_propagate)
        if traced:
            self._layer_hooks(rep)
            tracer.install(self.targets)
        else:
            tracer.install({n: self.targets[n]
                            for n in (self.first_work, "propagator.propagate")})
        sink = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink):
                rep.exit_code = cli.main(self.argv(out))
        except SetupDone:
            pass
        finally:
            rep.wall = time.perf_counter() - t0
            tracer.remove()
        if not first:
            raise RuntimeError(f"{self.name}: {self.first_work} was never called")
        rep.setup = first[0] - t0
        return rep

    @staticmethod
    def _layer_hooks(rep: Rep):
        tracer = rep.tracer

        def on_amplitude(args, kwargs):
            rep.samples += int(np.size(args[1]))

        tracer.after("dvr.build_hamiltonian", lambda a, k, h, s: setattr(rep, "h_bytes", h.nbytes))
        tracer.after("dvr.solve_bound_states",
                     lambda a, k, spec, s: setattr(rep, "bound_count", spec.bound_count))
        tracer.after("ga.optimize", lambda a, k, res, s: setattr(rep, "history", res[1]))
        tracer.before("pulse.amplitude", on_amplitude)

    def pop_error(self, err: float) -> bool:
        """Record one accuracy comparison; True if it passes the gate."""
        self.pop_errors.append(err)
        if not err <= POP_GATE:
            self.notes.append(f"population error {err:.3g} above {POP_GATE:g}")
            return False
        return True


# --- desk-ga -------------------------------------------------------------------


class DeskGa(Workload):
    """``ladderdown optimize`` on the desk preset, cut to 3 x 2 generations."""

    name = "desk-ga"
    first_work = "ga.LadderProblem.evaluate"
    setup_only_runs = 9
    min_reps = 2             # two commands of 5 scores, to damp host noise
    compared_files = ("history.csv", "best_pulse.cfg")

    POPULATION, GENERATIONS, ELITES = 3, 2, 1
    REF_DT = 10.0            # a quarter of the preset's pinned dt = 40
    H_REF = 1.7e6            # a.u.; centre of the desk gene box's horizon range

    def prepare(self):
        self.write_inputs()
        stored = json.loads((REFERENCES / "desk-ga.json").read_text())
        self.trajectory = {tuple(p["genes"]): p["j_fine"] for p in stored["pulses"]}
        self.refs = dict(self.trajectory)

    def write_inputs(self):
        """The desk preset with the population and generation count cut down."""
        cp = configparser.ConfigParser()
        cp.read_string(cli.PRESETS["desk"])
        cp["ga"].update(population=str(self.POPULATION), generations=str(self.GENERATIONS),
                        elites=str(self.ELITES))
        self.config = self.inputs / "desk-ga.ini"
        with open(self.config, "w", encoding="utf-8") as fh:
            cp.write(fh)

    def argv(self, out):
        return ["optimize", "--config", str(self.config), "--out", str(out),
                "--seed", str(self.seed), "--threads", "1"]

    @staticmethod
    def scores(rep: Rep) -> list[tuple[dict, float]]:
        """(genes, J) of every score in call order; args are (problem, params)."""
        return [({g: getattr(args[1], g) for g in reference.GENES}, j)
                for _, args, j in rep.units]

    def unit_seconds(self, rep):
        """Score times, each scaled to the horizon H_REF, so seeds compare."""
        return [u[0] * self.H_REF / reference.horizon(g)
                for u, (g, _) in zip(rep.units, self.scores(rep))]

    def wall_seconds(self, rep):
        """Command time scaled by POPULATION * H_REF / (horizons of generation 1).

        The seed alone fixes the first generation's pulses, so this removes
        most of the seed's effect on the amount of work, while pulses scored
        in later generations still count in full.
        """
        first = [reference.horizon(g) for g, _ in self.scores(rep)[: self.POPULATION]]
        return rep.wall * self.POPULATION * self.H_REF / sum(first)

    def after_timing(self, reps):
        """Reference for the shortest scored pulse of a seed without stored ones."""
        scored = [g for g, _ in self.scores(reps[0])]
        if any(key(g) in self.refs for g in scored):
            return
        genes = min(scored, key=reference.horizon)
        path = self.cache / f"desk-ga-ref-{digest(key(genes))}.json"
        if not path.exists():
            j_fine = in_child(desk_reference, genes, self.REF_DT)
            path.write_text(json.dumps({"genes": key(genes), "j_fine": j_fine}))
        self.refs[key(genes)] = json.loads(path.read_text())["j_fine"]

    def check(self, rep):
        scores = self.scores(rep)
        failed = 0
        if rep.exit_code != 0:
            self.notes.append(f"optimize exited with {rep.exit_code}")
            return max(len(scores), 1), max(len(scores), 1)
        summary = read_summary(rep.out)
        failed += int(summary["failures"])
        if int(summary["evaluations"]) != len(scores):
            self.notes.append("summary evaluations differ from the scores made")
            failed += 1
        for norm in (r[2] for r in rep.records):
            if not norm <= NORM_GATE:
                self.notes.append(f"final norm {norm!r} above {NORM_GATE!r}")
                failed += 1
        for g, j in scores:
            if not 0.0 <= j <= 1.0:
                self.notes.append(f"score {j!r} outside [0, 1]")
                failed += 1
            ref = self.refs.get(key(g))
            if ref is not None and not self.pop_error(abs(j - ref)):
                failed += 1
        best = read_pulse(rep.out / "best_pulse.cfg")
        best_j = float(summary["best_fitness"])
        if (best, best_j) not in [(g, j) for g, j in scores]:
            self.notes.append("best_pulse.cfg is not a scored pulse with the best fitness")
            failed += 1
        rows = (rep.out / "history.csv").read_text().splitlines()
        if len(rows) != 1 + self.GENERATIONS:
            self.notes.append(f"history.csv has {len(rows) - 1} generations")
            failed += 1
        return len(scores), min(failed, len(scores))

    def trajectory_match(self, rep: Rep) -> int:
        return sum(key(g) in self.trajectory for g, _ in self.scores(rep))


def key(genes: dict) -> tuple:
    return tuple(genes[g] for g in reference.GENES)


def digest(obj) -> str:
    """Short hash of a pulse, to name its cached reference."""
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def desk_reference(genes: dict, dt: float) -> float:
    """Fine-dt fitness |<target|psi(t_max)>|^2 of one desk pulse."""
    c = cli.load_config(None, "desk")
    spec = dvr.solve_spectrum(c.grid, c.potential)
    psi = reference.propagate(c.grid, c.potential, c.dipole, c.cap,
                              spec.wavefunctions[c.initial_level], genes,
                              reference.horizon(genes), dt)
    return float(reference.populations(spec.wavefunctions[[c.target_level]],
                                       c.grid.dr, psi)[0])


# --- prod-trace ----------------------------------------------------------------


class ProdTrace(Workload):
    """``ladderdown propagate --preset mld20`` on a short benchmark pulse."""

    name = "prod-trace"
    first_work = "propagator.propagate"
    compared_files = ("timeseries.csv",)

    # eps0, omega0 and chirp come from the mld20 search ranges; the envelope
    # is fixed so that every seed propagates the same horizon tau0 + 4*tau.
    EPS0 = (1.0e-3, 1.0e-2)
    OMEGA0 = (1.0e-4, 1.8e-4)
    CHIRP = (1.8e-12, 1.6e-11)
    TAU0, TAU = 2.0e4, 5.0e3
    REF_DT = 1.0             # a.u.; under a quarter of the program's 4.3-4.5 a.u.

    @classmethod
    def pulse(cls, seed: int) -> dict:
        rng = np.random.default_rng(seed)
        return {"eps0": float(rng.uniform(*cls.EPS0)), "omega0": float(rng.uniform(*cls.OMEGA0)),
                "tau0": cls.TAU0, "tau": cls.TAU, "chirp": float(rng.uniform(*cls.CHIRP))}

    def prepare(self):
        genes = self.pulse(self.seed)
        self.pulse_file = self.inputs / f"prod-trace-seed{self.seed}.cfg"
        self.pulse_file.write_text(
            "[pulse]\n" + "".join(f"{g} = {genes[g]!r}\n" for g in reference.GENES))
        stored = json.loads((REFERENCES / "prod-trace.json").read_text())
        if stored["pulse"] == genes:
            self.ref = np.array(stored["populations"])
            return
        path = self.cache / f"prod-trace-ref-{digest(genes)}.json"
        if not path.exists():
            pops = in_child(prod_reference, genes, self.REF_DT, str(self.cache))
            path.write_text(json.dumps({"pulse": genes, "populations": pops}))
        self.ref = np.array(json.loads(path.read_text())["populations"])

    def argv(self, out):
        return ["propagate", "--preset", "mld20", "--pulse", str(self.pulse_file),
                "--out", str(out)]

    def check(self, rep):
        if rep.exit_code != 0:
            self.notes.append(f"propagate exited with {rep.exit_code}")
            return 1, 1
        path = rep.out / "timeseries.csv"
        header = path.read_text().split("\n", 1)[0].split(",")
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        levels = [i for i, h in enumerate(header) if h.startswith("p_")]
        ok = len(levels) == BOUND_LEVELS
        if not ok:
            self.notes.append(f"{len(levels)} bound levels, expected {BOUND_LEVELS}")
        else:
            ok = self.pop_error(float(np.max(np.abs(data[-1, levels] - self.ref))))
        norm = data[:, header.index("norm")]
        if not np.all(norm <= NORM_GATE):
            self.notes.append(f"norm {norm.max()!r} above {NORM_GATE!r}")
            ok = False
        return 1, int(not ok)


def prod_spectrum(cache: Path | str):
    """Bound levels of the mld20 grid, cached in the checkout after the first solve."""
    c = cli.load_config(None, "mld20")
    path = Path(cache) / "mld20-spectrum.npz"
    if not path.exists():
        spec = dvr.solve_spectrum(c.grid, c.potential)
        np.savez(path, energies=spec.energies, wavefunctions=spec.wavefunctions)
    with np.load(path) as data:
        return c, data["wavefunctions"]


def prod_reference(genes: dict, dt: float, cache: Path | str) -> np.ndarray:
    """Fine-dt populations of all bound levels at tau0 + 4*tau on the mld20 grid."""
    c, wf = prod_spectrum(cache)
    psi = reference.propagate(c.grid, c.potential, c.dipole, c.cap, wf[c.initial_level],
                              genes, reference.horizon(genes), dt)
    return reference.populations(wf, c.grid.dr, psi)


# --- eigensolve-prod ---------------------------------------------------------------


class EigensolveProd(Workload):
    """``ladderdown eigensolve --preset old20 --wavefunctions``; the seed is unused."""

    name = "eigensolve-prod"
    first_work = "dvr.solve_bound_states"
    setup_only_runs = 9
    compared_files = ("energies.csv", "sdme.csv", "lifetimes.csv", "wavefunctions.csv")

    def prepare(self):
        self.ref = json.loads((REFERENCES / "eigensolve-prod.json").read_text())

    def argv(self, out):
        return ["eigensolve", "--preset", "old20", "--wavefunctions", "--out", str(out)]

    def check(self, rep):
        if rep.exit_code != 0:
            self.notes.append(f"eigensolve exited with {rep.exit_code}")
            return 1, 1
        problems = []
        count = int(read_summary(rep.out)["bound_count"])
        energies = np.loadtxt(rep.out / "energies.csv", delimiter=",", skiprows=1, ndmin=2)[:, 1]
        if count != self.ref["bound_count"] or len(energies) != count:
            problems.append(f"bound_count {count}, expected {self.ref['bound_count']}")
        elif np.max(np.abs(energies - self.ref["energies"])) > ENERGY_GATE:
            problems.append("energies differ from the stored reference")
        shapes = {
            "sdme.csv": (count, count),
            "lifetimes.csv": (count - 1, 2),
            "wavefunctions.csv": (self.ref["grid_points"], count + 1),
        }
        for name, shape in shapes.items():
            skip = 0 if name == "sdme.csv" else 1
            got = np.loadtxt(rep.out / name, delimiter=",", skiprows=skip, ndmin=2).shape
            if got != shape:
                problems.append(f"{name} has shape {got}, expected {shape}")
        self.notes += problems
        return 1, int(bool(problems))


WORKLOADS = {w.name: w for w in (DeskGa, ProdTrace, EigensolveProd)}


# --- one benchmark run ---------------------------------------------------------------


def fft_pair_us(n: int, pairs: int = 200, batches: int = 5) -> float:
    """Median time of one scipy.fft forward/inverse pair on n complex points."""
    x = np.exp(1j * np.linspace(0.0, 1.0, n))
    times = []
    for _ in range(batches):
        t0 = time.perf_counter()
        for _ in range(pairs):
            x = sfft.ifft(sfft.fft(x, overwrite_x=True), overwrite_x=True)
        times.append((time.perf_counter() - t0) / pairs)
    return statistics.median(times) * 1e6


def layer_metrics(wl: Workload, rep: Rep, untraced: Rep) -> dict[str, float]:
    """Per-layer numbers of one traced command."""
    tr = rep.tracer
    steps = sum(r[0] for r in rep.records)
    run_s = tr.total("propagator.SplitStepper.run")
    step_us = run_s / steps * 1e6 if steps else 0.0
    fft_us = fft_pair_us(rep.grid_points) if steps else 0.0
    evaluate_s = tr.total("ga.LadderProblem.evaluate")
    history = rep.history
    propagate_s = tr.total("propagator.propagate")
    cmd = ("cli.cmd_eigensolve", "cli.cmd_propagate", "cli.cmd_optimize", "cli.cmd_pulse_spectrum")
    return {
        "curves.value_s": sum(tr.total(n) for n in wl.targets
                              if n.startswith("curves.") and n.endswith(".value")),
        "dvr.build_hamiltonian_s": tr.total("dvr.build_hamiltonian"),
        "dvr.solve_bound_states_s": tr.total("dvr.solve_bound_states"),
        "dvr.h_bytes": rep.h_bytes,
        "dvr.bound_count": rep.bound_count,
        "dvr.sdme_map_s": tr.total("dvr.sdme_map"),
        "dvr.lifetime_s": tr.total("dvr.lifetime"),
        "dvr.lifetime_calls": tr.count("dvr.lifetime"),
        "pulse.heuristic_ranges_s": tr.total("pulse.heuristic_ranges"),
        "pulse.amplitude_s": tr.total("pulse.amplitude"),
        "pulse.amplitude_samples": rep.samples,
        "propagator.steps": steps,
        "propagator.dt_au": rep.records[-1][1] if rep.records else 0.0,
        "propagator.step_us": step_us,
        "propagator.fft_pair_us": fft_us,
        "propagator.step_rest_us": step_us - fft_us,
        "propagator.observe_s": tr.total("propagator.populations"),
        "propagator.samples": tr.count("propagator.populations"),
        "propagator.sim_au_per_s": (sum(r[3] for r in rep.records) / propagate_s
                                    if propagate_s else 0.0),
        "propagator.pop_err_max": max(wl.pop_errors, default=0.0),
        "propagator.norm_final": max((r[2] for r in rep.records), default=0.0),
        "ga.evaluate_s": evaluate_s,
        "ga.bookkeeping_s": tr.total("ga.optimize") - evaluate_s if history else 0.0,
        "ga.evaluations": history.evaluations if history else 0,
        "ga.failures": history.failures if history else 0,
        "ga.uniform_fallbacks": history.uniform_fallbacks if history else 0,
        "ga.trajectory_match": wl.trajectory_match(rep),
        "cli.parse_config_s": tr.total("cli.load_config"),
        "cli.write_s": sum(tr.self_time(n) for n in cmd),
        "trace.overhead_s": rep.wall - untraced.wall,
        "trace.spans": len(tr.spans),
    }


def run(name: str, seed: int, seconds: float, traced: bool, work: Path) -> dict:
    wl = WORKLOADS[name](seed, work)
    wl.prepare()
    out_root = work / "out" / name
    setups = []
    if not traced:
        for _ in range(wl.setup_only_runs):
            setups.append(wl.execute(out_root / "setup", traced=False, stop_at_first=True).setup)

    start = time.perf_counter()
    if traced:
        reps = [wl.execute(out_root / "untraced", traced=False),
                wl.execute(out_root / "traced", traced=True)]
    else:
        reps = []
        while True:
            reps.append(wl.execute(out_root / f"rep{len(reps)}", traced=False))
            wall = statistics.median(r.wall for r in reps)
            if len(reps) >= wl.min_reps and time.perf_counter() - start + wall > seconds:
                break
    wl.after_timing(reps)

    attempted = failed = 0
    for rep in reps:
        a, f = wl.check(rep)
        attempted, failed = attempted + a, failed + f
    digests = [{f: sha256(r.out / f) for f in wl.compared_files} for r in reps if r.exit_code == 0]
    record = work / "record" / f"{name}-seed{seed}-{source_digest()}.json"
    record.parent.mkdir(parents=True, exist_ok=True)
    if record.exists():
        digests.append(json.loads(record.read_text()))
    elif digests:
        record.write_text(json.dumps(digests[0], indent=1, sort_keys=True))
    if any(d != digests[0] for d in digests):
        wl.notes.append("outputs differ between runs with the same seed")
        failed += 1

    if traced:
        metrics = layer_metrics(wl, reps[-1], reps[0])
        trace_dir = work / "traces"
        trace_dir.mkdir(exist_ok=True)
        reps[-1].tracer.dump(trace_dir / f"{name}-seed{seed}.jsonl", t0=start)
    else:
        units = [s for r in reps for s in wl.unit_seconds(r)]
        metrics = {
            "setup_s": statistics.median(setups + [r.setup for r in reps]),
            "wall_s": statistics.median(wl.wall_seconds(r) for r in reps),
            "eval_p50_s": statistics.median(units),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "samples": {"setup": len(setups) + len(reps), "wall": len(reps),
                    "eval": sum(len(r.units) for r in reps)},
        "reps": [{"wall_s": r.wall, "setup_s": r.setup, "exit_code": r.exit_code,
                  "unit_s": [u[0] for u in r.units]} for r in reps],
        "setup_only_s": setups,
        "pop_errors": wl.pop_errors,
        "notes": wl.notes,
    }
