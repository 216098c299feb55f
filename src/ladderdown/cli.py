"""Command-line interface: scenario presets, batch runs, plot-ready files.

Subcommands
-----------
eigensolve      bound levels, lifetimes, and the dipole-coupling map
propagate       wavepacket run under a fixed pulse, time-series output
optimize        genetic-algorithm pulse search, history + best chromosome
pulse-spectrum  analytic (and optionally FFT) optical spectrum of a pulse

Every run writes one record of named sections twice: as summary.txt lines
and as manifest.json, next to the config hash and library versions. Its
``timing`` section is the only part that differs between runs of one seed.
With the resolved config and locale-independent full-precision CSV files,
any result can be reproduced exactly from its output directory.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import math
import sys
import time
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .constants import AU_ANGFREQ_RAD_PER_S, AU_TIME_S, MU_K39RB87
from .curves import (
    CurveError,
    ExpRampDipole,
    MorsePotential,
    TabulatedCurve,
    krb_standin_dipole,
    krb_standin_potential,
    load_tabulated,
)
from .dvr import (
    EmptySpectrumError,
    RadialGrid,
    VibrationalSpectrum,
    lifetime,
    sdme_map,
    solve_bound_states,
)
from .ga import GaConfig, LadderProblem, SurrogateProblem, optimize
from .propagator import (
    POP_TOL,
    CapSpec,
    SplitStepper,
    TimeStepChoice,
    TimeStepError,
    WavefunctionState,
    propagate,
    tolerance_time_step,
)
from .pulse import (
    GENE_NAMES,
    ChirpedPulseParams,
    ChirpSignError,
    HeuristicRangeError,
    ParamRanges,
    bandwidth,
    duration,
    fft_spectrum,
    heuristic_ranges,
    spectrum as pulse_spectrum_values,
)


class ConfigError(Exception):
    """A config file field is missing or malformed."""


def _fmt(x) -> str:
    """Full-precision, locale-independent decimal for output files."""
    return repr(float(x))


# --- presets ----------------------------------------------------------------
#
# The four production presets pair the stand-in curves with the published
# search ranges and optimal pulses of the one-rung (old*) and multi-rung
# (mld*) scenarios; `desk` is a reduced-scale variant that runs in minutes.
# A [ga] key appears only where it differs from its default.

_STANDIN_A = krb_standin_potential().a

_CURVES = f"""
[potential]
model = morse
de = 1.1e-3
re = 11.0
a = {_STANDIN_A!r}

[dipole]
model = ramp
d0 = 0.5
rd = 28.0
p = 2.0
"""

_COMMON_PRODUCTION = f"""
[grid]
r_min = 6.0
r_max = 146.0
n_points = 5600
reduced_mass = {MU_K39RB87!r}
""" + _CURVES + """
[cap]
r0 = 100.0
eta = 5e-6
"""

PRESETS: dict[str, str] = {
    "old20": _COMMON_PRODUCTION + """
[levels]
initial = 20
target = 10

[pulse]
eps0 = 8.011e-3
omega0 = 3.531e-5
tau0 = 4.104e7
tau = 9.798e6
chirp = 6.259e-13

[ga]
eps0_range = 1.0e-3, 1.0e-2
omega0_range = 3.1e-5, 3.6e-5
tau0_range = 3.3e6, 3.5e7
tau_range = 1.0e6, 1.0e7
chirp_range = 4.0e-13, 5.0e-12
""",
    "old24": _COMMON_PRODUCTION + """
[levels]
initial = 24
target = 10

[pulse]
eps0 = 9.168e-3
omega0 = 3.723e-5
tau0 = 3.723e7
tau = 1.146e7
chirp = 7.300e-13

[ga]
eps0_range = 1.0e-3, 1.0e-2
omega0_range = 3.3e-5, 3.6e-5
tau0_range = 3.3e6, 3.5e7
tau_range = 1.0e6, 1.0e7
chirp_range = 6.0e-13, 7.0e-12
""",
    "mld20": _COMMON_PRODUCTION + """
[levels]
initial = 20
target = 10
ladder = 20, 16, 13, 10

[pulse]
eps0 = 5.154e-3
omega0 = 1.211e-4
tau0 = 4.900e6
tau = 1.489e6
chirp = 8.254e-12

[ga]
eps0_range = 1.0e-3, 1.0e-2
omega0_range = 1.0e-4, 1.8e-4
tau0_range = 1.0e6, 1.0e7
tau_range = 3.2e5, 3.2e6
chirp_range = 1.8e-12, 1.6e-11
""",
    "mld24": _COMMON_PRODUCTION + """
[levels]
initial = 24
target = 10
ladder = 24, 17, 13, 10

[pulse]
eps0 = 5.720e-3
omega0 = 1.378e-4
tau0 = 4.835e6
tau = 1.003e6
chirp = 5.832e-12

[ga]
eps0_range = 1.0e-3, 1.0e-2
omega0_range = 1.3e-4, 1.6e-4
tau0_range = 3.3e6, 3.5e7
tau_range = 1.0e6, 1.0e7
chirp_range = 1.0e-13, 1.0e-12
""",
    "desk": f"""
[grid]
r_min = 8.0
r_max = 68.0
n_points = 1024
reduced_mass = {MU_K39RB87!r}
""" + _CURVES + """
[cap]
r0 = 48.0
eta = 5e-6

[levels]
initial = 8
target = 2
ladder = 8, 6, 4, 2

[ga]
population = 12
generations = 6
elites = 2
tau_span = 2.5

[propagation]
dt = 40.0
sample_stride = 100
""",
}


# --- config parsing ---------------------------------------------------------

_REQUIRED = object()


@dataclass
class RunConfig:
    """Fully resolved run description, one-to-one with the config file."""

    grid: RadialGrid
    potential: object
    dipole: object
    cap: CapSpec | None
    initial_level: int
    target_level: int
    ladder: tuple[int, ...]
    pulse: ChirpedPulseParams | None
    ga: GaConfig | None
    tau_span: float  # [ga] tau_span, read only by the heuristic ranges
    dt: float | None
    sample_stride: int
    text: str


class _Ini(configparser.ConfigParser):
    """A parsed INI text that records each (section, key) ``_get`` asks for."""

    def __init__(self):
        super().__init__()
        self.asked: set[tuple[str, str]] = set()


def _get(cp: _Ini, section, key, cast, default=_REQUIRED):
    cp.asked.add((section, key))
    raw = cp.get(section, key, fallback=None)
    if raw is None:
        if default is _REQUIRED:
            raise ConfigError(f"[{section}] {key}: required field is missing")
        return default
    try:
        return cast(raw)
    except ValueError:
        raise ConfigError(
            f"[{section}] {key}: cannot parse {raw!r} as {_EXPECTED[cast]}"
        ) from None


def _build(section: str, make, *args, **kwargs):
    """make(...), with a value that fails its checks reported as a ConfigError."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {exc}") from None


def _parse_pair(raw: str) -> tuple[float, float]:
    parts = raw.replace(",", " ").split()
    if len(parts) != 2:
        raise ValueError(raw)
    return float(parts[0]), float(parts[1])


def _parse_ladder(raw: str) -> tuple[int, ...]:
    ladder = tuple(int(tok) for tok in raw.replace(",", " ").split())
    if not ladder:
        raise ValueError(raw)
    return ladder


# what _get names as the expected form of a value that does not parse
_EXPECTED = {int: "an integer", float: "a number", _parse_pair: "a pair of numbers",
             _parse_ladder: "a list of integers"}


def _read_text(path: str, what: str) -> str:
    """The text of the --config or --pulse file; an unreadable one is a ConfigError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"{what} {path}: {exc.strerror}") from None


def _load_curve(section: str, path: str, grid: RadialGrid) -> TabulatedCurve:
    """The [potential] or [dipole] table; it must cover the whole grid."""
    try:
        curve = load_tabulated(path)
    except OSError as exc:
        raise ConfigError(f"[{section}] file {path}: {exc.strerror}") from None
    except CurveError as exc:
        raise ConfigError(f"[{section}] file: {exc}") from None
    if curve.r[0] > grid.r_min or curve.r[-1] < grid.r_max:
        raise ConfigError(
            f"[{section}] file {path}: the table spans [{curve.r[0]:g}, {curve.r[-1]:g}] bohr "
            f"and does not cover the grid [{grid.r_min:g}, {grid.r_max:g}]"
        )
    return curve


def _read_ini(text: str) -> _Ini:
    cp = _Ini()
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config syntax: {exc}") from None
    return cp


def _refuse_unread(cp: _Ini) -> None:
    """A ConfigError for the first section or key that ``_get`` never asked for."""
    for section in cp.sections():
        read = sorted(k for s, k in cp.asked if s == section)
        if not read:
            raise ConfigError(f"[{section}]: unknown section")
        unread = [k for k in cp.options(section) if k not in read]
        if unread:
            raise ConfigError(f"[{section}] {unread[0]}: unknown key; this section reads "
                              + ", ".join(read))


def _parse_pulse(cp: _Ini) -> ChirpedPulseParams | None:
    if not cp.has_section("pulse"):
        return None
    return _build("pulse", ChirpedPulseParams,
                  **{k: _get(cp, "pulse", k, float) for k in GENE_NAMES})


def parse_config(text: str) -> RunConfig:
    cp = _read_ini(text)

    grid = _build(
        "grid", RadialGrid,
        r_min=_get(cp, "grid", "r_min", float),
        r_max=_get(cp, "grid", "r_max", float),
        n_points=_get(cp, "grid", "n_points", int),
        mu=_get(cp, "grid", "reduced_mass", float, MU_K39RB87),
    )

    if cp.has_option("potential", "file"):
        potential = _load_curve("potential", _get(cp, "potential", "file", str), grid)
    else:
        model = _get(cp, "potential", "model", str, "morse").strip().lower()
        if model != "morse":
            raise ConfigError(f"[potential] model: unknown model {model!r}")
        potential = _build(
            "potential", MorsePotential,
            de=_get(cp, "potential", "de", float),
            re=_get(cp, "potential", "re", float),
            a=_get(cp, "potential", "a", float),
        )

    if cp.has_option("dipole", "file"):
        dipole = _load_curve("dipole", _get(cp, "dipole", "file", str), grid)
    else:
        dmodel = _get(cp, "dipole", "model", str, "ramp").strip().lower()
        if dmodel != "ramp":
            raise ConfigError(f"[dipole] model: unknown model {dmodel!r}")
        dipole = _build(
            "dipole", ExpRampDipole,
            d0=_get(cp, "dipole", "d0", float),
            rd=_get(cp, "dipole", "rd", float),
            p=_get(cp, "dipole", "p", float, 4.0),
        )

    cap = None
    if cp.has_section("cap"):
        cap = _build("cap", CapSpec, r0=_get(cp, "cap", "r0", float),
                     eta=_get(cp, "cap", "eta", float))
        _build("cap", cap.check_inside, grid)

    initial = _get(cp, "levels", "initial", int)
    target = _get(cp, "levels", "target", int)
    if not initial > target >= 0:
        raise ConfigError(f"[levels]: need initial > target >= 0, got {initial}, {target}")
    ladder = _get(cp, "levels", "ladder", _parse_ladder, None)
    if ladder is None:
        ladder = tuple(range(initial, target - 1, -1))
    if ladder[0] != initial or ladder[-1] != target:
        raise ConfigError(f"[levels] ladder: must run from {initial} to {target}, got {ladder}")
    if any(a <= b for a, b in zip(ladder, ladder[1:])):
        raise ConfigError(f"[levels] ladder: must strictly descend, got {ladder}")

    ga = None
    if cp.has_section("ga"):
        explicit = {
            name: _get(cp, "ga", f"{name}_range", _parse_pair, None) for name in GENE_NAMES
        }
        if all(v is not None for v in explicit.values()):
            ranges = _build("ga", ParamRanges, **explicit)
        elif any(v is not None for v in explicit.values()):
            missing = [k for k, v in explicit.items() if v is None]
            raise ConfigError(f"[ga]: incomplete explicit ranges, missing {missing}")
        else:
            ranges = None
        ga = _build("ga", GaConfig, ranges, **{
            f.name: _get(cp, "ga", f.name, type(f.default), f.default)
            for f in fields(GaConfig)[1:]
        })
    tau_span = _get(cp, "ga", "tau_span", float, 10.0)
    if not 1.0 < tau_span < math.inf:
        # tau_hi = tau_span * tau_lo, so the heuristic tau range needs tau_span > 1
        raise ConfigError(f"[ga] tau_span: must be > 1 and finite, got {tau_span}")

    dt = _get(cp, "propagation", "dt", float, None)
    if dt is not None and not dt > 0:
        raise ConfigError(f"[propagation] dt: must be positive, got {dt}")
    sample_stride = _get(cp, "propagation", "sample_stride", int, 100)
    if sample_stride < 1:
        raise ConfigError(f"[propagation] sample_stride: must be >= 1, got {sample_stride}")

    pulse = _parse_pulse(cp)
    _refuse_unread(cp)  # after every other check, whose message comes first
    return RunConfig(
        grid=grid,
        potential=potential,
        dipole=dipole,
        cap=cap,
        initial_level=initial,
        target_level=target,
        ladder=ladder,
        pulse=pulse,
        ga=ga,
        tau_span=tau_span,
        dt=dt,
        sample_stride=sample_stride,
        text=text,
    )


def load_config(path: str | None, preset: str | None) -> RunConfig:
    if (path is None) == (preset is None):
        raise ConfigError("provide exactly one of --config or --preset")
    if preset is not None:
        if preset not in PRESETS:
            raise ConfigError(f"unknown preset {preset!r}; have {sorted(PRESETS)}")
        return parse_config(PRESETS[preset])
    return parse_config(_read_text(path, "--config"))


# --- output helpers ---------------------------------------------------------


def _out_path(out_dir: str) -> Path:
    """--out as a Path; one that is, or lies below, an existing non-directory is a ConfigError."""
    out = Path(out_dir)
    for path in (out, *out.parents):
        if path.exists() and not path.is_dir():
            raise ConfigError(f"--out {out_dir}: {path} is not a directory")
    return out


def _write(out: Path, name: str, text: str) -> None:
    (out / name).write_text(text, encoding="utf-8")


def _write_csv(out: Path, name: str, header: list[str] | None, rows) -> None:
    """Header line (if any), then one line per row, written as it is formed.

    ``rows`` is a 2-D array or an iterable of sequences of Python ints and
    floats. Each cell is written with repr, an array row's after
    ``tolist()``: a float reads as ``_fmt`` writes it and an int stays an int.
    """
    with open(out / name, "w", encoding="utf-8") as fh:
        if header is not None:
            fh.write(",".join(header) + "\n")
        for row in rows:
            cells = row.tolist() if isinstance(row, np.ndarray) else row
            fh.write(",".join(map(repr, cells)) + "\n")


def _write_record(out: Path, command: str, config: RunConfig, started: float,
                  seed: int | None = None, threads: int | None = None,
                  **sections: dict | None) -> None:
    """summary.txt, manifest.json and resolved_config.ini of one run record: each
    section given and not None, then ``timing``, the wall time since ``started``."""
    record = {name: s for name, s in sections.items() if s is not None}
    record["timing"] = {"wall_time_s": round(time.perf_counter() - started, 3)}
    lines = [f"{k} = {_fmt(v) if isinstance(v, float) else v}"
             for section in record.values() for k, v in section.items()]
    manifest = {
        "command": command,
        "config_sha256": hashlib.sha256(config.text.encode()).hexdigest(),
        "seed": seed,
        "threads": threads,
        "versions": {
            "ladderdown": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        **record,
    }
    _write(out, "summary.txt", "\n".join(lines) + "\n")
    _write(out, "resolved_config.ini", config.text)
    _write(out, "manifest.json", json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _resolve_pulse(config: RunConfig, pulse_file: str | None, command: str) -> ChirpedPulseParams:
    """The --pulse file's [pulse] if given, else the config's."""
    if pulse_file:
        pulse = _parse_pulse(_read_ini(_read_text(pulse_file, "--pulse")))
        if pulse is None:
            raise ConfigError(f"{pulse_file}: no [pulse] section")
        return pulse
    if config.pulse is None:
        raise ConfigError(f"{command} needs a [pulse] section or --pulse file")
    return config.pulse


def _pulse_to_ini(p: ChirpedPulseParams) -> str:
    lines = ["[pulse]"]
    lines += [f"{name} = {_fmt(getattr(p, name))}" for name in GENE_NAMES]
    return "\n".join(lines) + "\n"


def _bound_spectrum(config: RunConfig, check_levels: bool = True) -> VibrationalSpectrum:
    """The config's bound levels; an empty spectrum, or an initial level
    (the top of the ladder) that is not bound, is a ConfigError."""
    try:
        spec = solve_bound_states(config.grid, config.potential)
    except EmptySpectrumError:
        raise ConfigError("[potential]: binds no level below 0 on this grid") from None
    if check_levels and config.initial_level >= spec.bound_count:
        raise ConfigError(
            f"[levels] initial: level {config.initial_level} is not bound; "
            f"the grid holds levels 0-{spec.bound_count - 1}"
        )
    return spec


def _ga_ranges(config: RunConfig, spec: VibrationalSpectrum | None) -> ParamRanges:
    """The [ga] ranges: explicit ones, or the heuristic ones of the bound spectrum."""
    if config.ga.ranges is not None:
        return config.ga.ranges
    sd = sdme_map(spec, config.dipole)
    life_s = lifetime(spec, sd)[config.initial_level]
    try:
        return heuristic_ranges(
            spec, config.initial_level, config.ladder,
            lifetime_au=life_s / AU_TIME_S, sdme=sd, tau_span=config.tau_span,
        )
    except ChirpSignError as exc:
        raise ConfigError(f"[levels] ladder: {exc}") from None
    except HeuristicRangeError as exc:
        raise ConfigError(f"[ga] heuristic ranges: {exc}") from None


def _outside_ranges(pulse: ChirpedPulseParams, ranges: ParamRanges) -> list[str]:
    """The genes of ``pulse`` outside their search range."""
    los, his = ranges.as_arrays()
    return [name for name, g, lo, hi in zip(GENE_NAMES, pulse.as_array(), los, his)
            if not lo <= g <= hi]


def _pinned_dt(config: RunConfig, horizon: float, what: str) -> dict:
    """The record of a [propagation] dt given in the config; one above the horizon is an error."""
    if config.dt > horizon:
        raise ConfigError(
            f"[propagation] dt: {config.dt:g} exceeds {what}, tau0 + 4 tau = {horizon:g}"
        )
    return {"dt_au": config.dt, "dt_source": "config"}


def _tolerance_record(choice: TimeStepChoice) -> dict:
    """The record of a dt chosen from the population tolerance."""
    return {"dt_au": choice.dt, "dt_source": "tolerance", "dt_tol": POP_TOL,
            "dt_error_estimate": choice.estimate, "dt_measured_au": choice.measured_dt,
            "dt_measured_error": choice.measured_error, "dt_search_steps": choice.search_steps}


def _eigensolve_record(spec: VibrationalSpectrum) -> dict:
    """How the bound levels were solved: lifted from a coarser grid, or dense."""
    if spec.lift_points is None:
        return {"eigensolve": "dense", "eigensolve_points": spec.grid.n_points}
    return {"eigensolve": "lift", "eigensolve_points": spec.lift_points,
            "eigensolve_residual": spec.lift_residual}


# --- commands ---------------------------------------------------------------


def cmd_eigensolve(config: RunConfig, out_dir: str, with_wavefunctions: bool = False) -> dict:
    started, out = time.perf_counter(), _out_path(out_dir)
    spec = _bound_spectrum(config, check_levels=False)
    out.mkdir(parents=True, exist_ok=True)
    sd = sdme_map(spec, config.dipole)

    _write_csv(out, "energies.csv", ["level", "energy_hartree"], enumerate(spec.energies.tolist()))
    _write_csv(out, "sdme.csv", None, sd)
    # levels 1 up; a level with no decay channel is written as 'inf'
    _write_csv(out, "lifetimes.csv", ["level", "lifetime_s"],
               enumerate(lifetime(spec, sd).tolist()[1:], start=1))
    if with_wavefunctions:
        _write_csv(out, "wavefunctions.csv",
                   ["r_bohr"] + [f"psi_{v}" for v in range(spec.bound_count)],
                   np.column_stack([config.grid.points, spec.wavefunctions.T]))

    grid = config.grid
    bound_states = {"bound_count": spec.bound_count,
                    "grid": f"[{_fmt(grid.r_min)}, {_fmt(grid.r_max)}] x {grid.n_points}",
                    "reduced_mass": grid.mu, "threshold": 0.0}
    if config.cap is not None:
        bound_states.update(cap_r0=config.cap.r0, cap_eta=config.cap.eta)
    _write_record(out, "eigensolve", config, started, bound_states=bound_states,
                  eigensolve=_eigensolve_record(spec))
    print(f"eigensolve: {spec.bound_count} bound levels -> {out}")
    return {"bound_count": spec.bound_count, "out": out}


def cmd_propagate(config: RunConfig, out_dir: str, pulse_file: str | None = None) -> dict:
    started, out = time.perf_counter(), _out_path(out_dir)
    pulse = _resolve_pulse(config, pulse_file, "propagate")
    horizon = duration(pulse)
    if config.dt is not None:
        time_step = _pinned_dt(config, horizon, "the pulse horizon")
    spec = _bound_spectrum(config)
    ga_ranges = None if config.ga is None else {"pulse_outside_ga_ranges": ",".join(
        _outside_ranges(pulse, _ga_ranges(config, spec))) or "none"}
    psi0 = spec.wavefunctions[config.initial_level].astype(complex)
    state = WavefunctionState(psi=psi0, t=0.0, grid=config.grid)

    stepper = SplitStepper(config.grid, config.potential, config.dipole, config.cap,
                           config.dt or horizon)
    if config.dt is None:
        # dt = horizon/n, so that the run ends at the horizon
        choice = tolerance_time_step(stepper, psi0, spec, [pulse], horizon)
        time_step = _tolerance_record(choice)
        stepper = stepper.with_dt(choice.dt)
    out.mkdir(parents=True, exist_ok=True)
    rec = propagate(state, pulse, stepper, horizon,
                    sample_stride=config.sample_stride, spectrum=spec)

    _write_csv(
        out, "timeseries.csv",
        ["t_au", "t_ns", "field_au"] + [f"p_{v}" for v in range(spec.bound_count)]
        + ["total_bound", "norm", "dissociation"],
        np.column_stack([rec.times, rec.times * AU_TIME_S * 1e9, rec.field_values,
                         rec.populations, rec.total_bound, rec.norm, rec.dissociation]),
    )
    fin = rec.populations[-1]
    result = {"initial_level": config.initial_level, "target_level": config.target_level,
              "final_p_target": fin[config.target_level],
              "final_p_initial": fin[config.initial_level],
              "final_total_bound": rec.total_bound[-1],
              # 1 - norm dips below 0 when rounding lifts the norm above 1
              "final_dissociation": max(rec.dissociation[-1], 0.0), "steps": rec.steps}
    _write_record(out, "propagate", config, started, result=result, time_step=time_step,
                  eigensolve=_eigensolve_record(spec), ga_ranges=ga_ranges)
    print(
        f"propagate: {rec.steps} steps, p_target={fin[config.target_level]:.4f} -> {out}"
    )
    return {"record": rec, "out": out}


def cmd_optimize(
    config: RunConfig, out_dir: str, threads: int = 1, surrogate: bool = False,
    seed: int | None = None,
) -> dict:
    started, out = time.perf_counter(), _out_path(out_dir)
    if threads < 1:
        raise ConfigError(f"--threads must be >= 1, got {threads}")
    if config.ga is None:
        raise ConfigError("optimize needs a [ga] section")
    ga = config.ga if seed is None else _build("ga", replace, config.ga, seed=seed)

    spec = None
    if ga.ranges is None or not surrogate:
        spec = _bound_spectrum(config)
    ranges = _ga_ranges(config, spec)

    time_step = None
    if surrogate:
        problem = SurrogateProblem.from_ranges(ranges)
    else:
        problem = LadderProblem(
            potential=config.potential, dipole=config.dipole, cap=config.cap,
            spectrum=spec, initial_level=config.initial_level,
            target_level=config.target_level, dt=config.dt,
        )
        if config.dt is not None:
            shortest = duration(ChirpedPulseParams.from_array(ranges.as_arrays()[0]))
            time_step = _pinned_dt(config, shortest, "the shortest horizon of the gene box")
        else:
            problem, choice, corner = problem.at_tolerance(ranges)
            time_step = {**_tolerance_record(choice),
                         "dt_worst_corner": ", ".join(map(_fmt, corner.as_array()))}

    out.mkdir(parents=True, exist_ok=True)
    best, history = optimize(replace(ga, ranges=ranges), problem, threads=threads)
    if not surrogate:
        problem.drop_stepper()  # whoever keeps the problem need not keep its basis

    columns = zip(history.best_fitness, history.mean_fitness, history.min_fitness,
                  history.best_params)
    _write_csv(out, "history.csv",
               ["generation", "best_fitness", "mean_fitness", "min_fitness", *GENE_NAMES],
               ([g, b, m, lo, *p.as_array().tolist()]
                for g, (b, m, lo, p) in enumerate(columns, start=1)))
    _write(out, "best_pulse.cfg", _pulse_to_ini(best.params))

    los, his = ranges.as_arrays()
    genes = best.params.as_array()
    on_boundary = [
        name for name, g, lo, hi in zip(GENE_NAMES, genes, los, his)
        if g <= lo or g >= hi
    ]
    search = {"seed": ga.seed, "best_fitness": best.fitness,
              "evaluations": history.evaluations, "failures": history.failures,
              "uniform_fallbacks": history.uniform_fallbacks, "surrogate": surrogate,
              "genes_on_range_boundary": ",".join(on_boundary) or "none"}
    _write_record(out, "optimize", config, started, seed=ga.seed, threads=threads, ga=search,
                  ga_ranges={f"range_{name}": f"{_fmt(lo)}, {_fmt(hi)}"
                             for name, lo, hi in zip(GENE_NAMES, los, his)},
                  time_step=time_step,
                  eigensolve=None if spec is None else _eigensolve_record(spec))
    print(f"optimize: best J = {best.fitness:.6f} after {history.evaluations} evaluations -> {out}")
    return {"best": best, "history": history, "ranges": ranges, "out": out}


def cmd_pulse_spectrum(
    config: RunConfig, out_dir: str, pulse_file: str | None = None,
    omega_min: float | None = None, omega_max: float | None = None,
    n_points: int = 2000, with_fft: bool = False,
) -> dict:
    started, out = time.perf_counter(), _out_path(out_dir)
    if n_points < 2:
        raise ConfigError(f"--points must be >= 2, got {n_points}")
    pulse = _resolve_pulse(config, pulse_file, "pulse-spectrum")

    sigma = bandwidth(pulse)
    lo = omega_min if omega_min is not None else max(pulse.omega0 - 4.0 * sigma, 0.0)
    hi = omega_max if omega_max is not None else pulse.omega0 + 4.0 * sigma
    if not lo < hi:
        raise ConfigError(f"empty spectral range [{lo}, {hi}]")
    out.mkdir(parents=True, exist_ok=True)
    w = np.linspace(lo, hi, n_points)
    spectra = {"spectrum.csv": (w, pulse_spectrum_values(pulse, w))}
    if with_fft:
        freqs, power = fft_spectrum(pulse)
        keep = (freqs >= lo) & (freqs <= hi)
        spectra["spectrum_fft.csv"] = (freqs[keep], power[keep])
    for name, (w, intensity) in spectra.items():
        nu = w * AU_ANGFREQ_RAD_PER_S / (2 * math.pi)
        _write_csv(out, name, ["omega_au", "nu_hz", "intensity"],
                   np.column_stack([w, nu, intensity]))
    _write_record(out, "pulse-spectrum", config, started,
                  spectrum={"omega_min": lo, "omega_max": hi, "points": n_points})
    print(f"pulse-spectrum: peak at omega0 = {pulse.omega0:g} a.u. -> {out}")
    return {"pulse": pulse, "out": out}


# --- argument parsing ---------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ladderdown",
        description="Vibrational ladder-descent pulse optimization toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="path to an INI run config")
        p.add_argument("--preset", help=f"built-in scenario: {', '.join(sorted(PRESETS))}")
        p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("eigensolve", help="bound states, SDME map, lifetimes")
    common(p)
    p.add_argument("--wavefunctions", action="store_true", help="also write wavefunctions.csv")

    p = sub.add_parser("propagate", help="run one pulse and record populations")
    common(p)
    p.add_argument("--pulse", help="pulse parameter file overriding the config [pulse]")

    p = sub.add_parser("optimize", help="genetic-algorithm pulse search")
    common(p)
    p.add_argument("--surrogate", action="store_true",
                   help="closed-form test fitness instead of propagation")
    p.add_argument("--seed", type=int, help="override the [ga] seed")
    p.add_argument("--threads", type=int, default=1, help="parallel fitness evaluations")

    p = sub.add_parser("pulse-spectrum", help="optical spectrum of a pulse")
    common(p)
    p.add_argument("--pulse", help="pulse parameter file overriding the config [pulse]")
    p.add_argument("--omega-min", type=float, help="lower angular frequency (a.u.)")
    p.add_argument("--omega-max", type=float, help="upper angular frequency (a.u.)")
    p.add_argument("--points", type=int, default=2000, help="number of spectrum samples")
    p.add_argument("--fft", action="store_true", help="also emit the FFT cross-check spectrum")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = load_config(args.config, args.preset)
        if args.command == "eigensolve":
            cmd_eigensolve(config, args.out, with_wavefunctions=args.wavefunctions)
        elif args.command == "propagate":
            cmd_propagate(config, args.out, pulse_file=args.pulse)
        elif args.command == "optimize":
            cmd_optimize(config, args.out, threads=args.threads,
                         surrogate=args.surrogate, seed=args.seed)
        elif args.command == "pulse-spectrum":
            cmd_pulse_spectrum(
                config, args.out, pulse_file=args.pulse, omega_min=args.omega_min,
                omega_max=args.omega_max, n_points=args.points, with_fft=args.fft,
            )
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TimeStepError as exc:
        print(f"error: [propagation] dt is not set, and {exc}; set it", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
