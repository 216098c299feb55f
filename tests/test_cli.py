import configparser
import hashlib
import json
import math
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from ladderdown import cli
from ladderdown.cli import (
    ConfigError,
    PRESETS,
    _outside_ranges,
    cmd_eigensolve,
    cmd_optimize,
    cmd_propagate,
    cmd_pulse_spectrum,
    load_config,
    main,
    parse_config,
)
from ladderdown.constants import AU_ANGFREQ_RAD_PER_S
from ladderdown.dvr import lifetime, sdme_map, solve_bound_states
from ladderdown.ga import GaConfig, LadderProblem, init_population
from ladderdown.propagator import POP_TOL, SplitStepper, WavefunctionState, propagate
from ladderdown.pulse import ChirpedPulseParams, duration
from oracles import morse_bound_count, morse_energies

TINY_PULSE = """[pulse]
eps0 = 1e-30
omega0 = 1.15e-4
tau0 = 1.5e5
tau = 5e4
chirp = 1e-12
"""
# a field that moves no population on the desk grid within the horizon 4e4
WEAK_PULSE = """[pulse]
eps0 = 1e-30
omega0 = 1.5e-4
tau0 = 2e4
tau = 5e3
chirp = 1e-11
"""


DATA = Path(__file__).parent / "data"
# the pulse CI propagates on the desk grid, and the timeseries.csv of that run at dt 40
DESK_PULSE = DATA / "desk-propagate-dt40" / "pulse.cfg"


def read_summary(out):
    return dict(line.split(" = ", 1) for line in (out / "summary.txt").read_text().splitlines())


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    data = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    return header, data


class TestConfigParsing:
    def test_missing_field_names_section_and_key(self):
        with pytest.raises(ConfigError, match=r"\[grid\] r_min"):
            parse_config("[grid]\nr_max = 10\nn_points = 64\n")

    def test_bad_number_reports_field(self):
        text = PRESETS["desk"].replace("r_min = 8.0", "r_min = eight")
        with pytest.raises(ConfigError, match=r"\[grid\] r_min"):
            parse_config(text)

    def test_level_ordering_enforced(self):
        text = PRESETS["desk"].replace("initial = 8", "initial = 1")
        with pytest.raises(ConfigError, match=r"\[levels\]"):
            parse_config(text)

    def test_ladder_must_match_endpoints(self):
        text = PRESETS["desk"].replace("ladder = 8, 6, 4, 2", "ladder = 8, 6, 4")
        with pytest.raises(ConfigError, match="ladder"):
            parse_config(text)

    def test_ladder_must_descend(self):
        text = PRESETS["desk"].replace("ladder = 8, 6, 4, 2", "ladder = 8, 9, 4, 2")
        with pytest.raises(ConfigError, match="descend"):
            parse_config(text)

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="unknown preset"):
            load_config(None, "nope")

    def test_config_xor_preset(self):
        with pytest.raises(ConfigError):
            load_config(None, None)
        with pytest.raises(ConfigError):
            load_config("some.ini", "desk")

    def test_incomplete_explicit_ranges_rejected(self):
        text = PRESETS["old20"].replace("eps0_range = 1.0e-3, 1.0e-2\n", "")
        with pytest.raises(ConfigError, match="eps0"):
            parse_config(text)

    def test_presets_set_no_key_to_its_default(self):
        # without any one of its keys, a preset fails to parse or says something else
        for name, text in PRESETS.items():
            whole = replace(parse_config(text), text="")
            lines = text.splitlines(keepends=True)
            for k, line in enumerate(lines):
                if " = " not in line:
                    continue
                try:
                    cut = parse_config("".join(lines[:k] + lines[k + 1:]))
                except ConfigError:
                    continue
                assert replace(cut, text="") != whole, (name, line)

    def test_ga_ranges_alone_parse_to_the_default_ga_config(self):
        cp = configparser.ConfigParser()
        cp.read_string(PRESETS["old20"])
        assert all(key.endswith("_range") for key in cp["ga"])
        ga = parse_config(PRESETS["old20"]).ga
        assert ga.ranges.eps0 == (1.0e-3, 1.0e-2)
        default = GaConfig(ga.ranges)
        for f in fields(GaConfig):
            assert getattr(ga, f.name) == getattr(default, f.name), f.name
        assert ga.seed == 1

    def test_negative_ga_seed_is_refused_at_parse_time(self):
        text = PRESETS["desk"].replace("tau_span = 2.5", "tau_span = 2.5\nseed = -1")
        with pytest.raises(ConfigError, match=r"\[ga\] seed must be >= 0, got -1"):
            parse_config(text)

    def test_presets_all_parse(self):
        for name in PRESETS:
            cfg = parse_config(PRESETS[name])
            assert cfg.initial_level > cfg.target_level
            assert cfg.ladder[0] == cfg.initial_level


@pytest.fixture(scope="module")
def old20_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("old20")
    config = load_config(None, "old20")
    result = cmd_eigensolve(config, str(out))
    return out, result


class TestEigensolve:
    def test_production_preset_emits_30_levels(self, old20_run):
        out, result = old20_run
        assert result["bound_count"] == 30
        header, data = read_csv(out / "energies.csv")
        assert header == ["level", "energy_hartree"]
        assert len(data) == 30
        assert np.all(np.diff(data[:, 1]) > 0) and np.all(data[:, 1] < 0)

    def test_production_metadata_records_cap(self, old20_run):
        out, _ = old20_run
        summary = (out / "summary.txt").read_text()
        assert "cap_r0 = 100.0" in summary
        assert "cap_eta = 5e-06" in summary
        assert "bound_count = 30" in summary

    def test_sdme_matrix_shape_and_symmetry(self, old20_run):
        out, _ = old20_run
        rows = [
            [float(x) for x in line.split(",")]
            for line in (out / "sdme.csv").read_text().strip().splitlines()
        ]
        m = np.array(rows)
        assert m.shape == (30, 30)
        assert np.array_equal(m, m.T)

    def test_lifetimes_positive(self, old20_run):
        out, _ = old20_run
        header, data = read_csv(out / "lifetimes.csv")
        assert header == ["level", "lifetime_s"]
        assert len(data) == 29
        assert np.all(data[:, 1] > 0)

    def test_manifest_present_with_hash_and_versions(self, old20_run):
        out, _ = old20_run
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "eigensolve"
        assert len(manifest["config_sha256"]) == 64
        assert "numpy" in manifest["versions"]
        assert (out / "resolved_config.ini").exists()

    def test_summary_and_manifest_record_the_lift(self, old20_run):
        out, _ = old20_run
        summary = read_summary(out)
        assert (summary["eigensolve"], summary["eigensolve_points"]) == ("lift", "934")
        residual = float(summary["eigensolve_residual"])
        assert 0.0 < residual <= 1e-12
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["eigensolve"] == {"eigensolve": "lift", "eigensolve_points": 934,
                                          "eigensolve_residual": residual}

    def test_desk_rerun_is_deterministic(self, tmp_path):
        out = tmp_path / "a"
        rc = main(["eigensolve", "--preset", "desk", "--out", str(out)])
        assert rc == 0
        first = (out / "energies.csv").read_bytes()
        assert main(["eigensolve", "--preset", "desk", "--out", str(out)]) == 0
        assert (out / "energies.csv").read_bytes() == first

    def test_wavefunction_export_flag(self, tmp_path):
        out = tmp_path / "wf"
        rc = main(["eigensolve", "--preset", "desk", "--out", str(out),
                   "--wavefunctions"])
        assert rc == 0
        header, data = read_csv(out / "wavefunctions.csv")
        assert header[0] == "r_bohr" and header[1] == "psi_0"
        assert data.shape == (1024, 31)

    def test_desk_files_read_back_to_the_solved_arrays_bit_for_bit(self, tmp_path):
        config = load_config(None, "desk")
        out = tmp_path / "o"
        cmd_eigensolve(config, str(out), with_wavefunctions=True)
        spec = solve_bound_states(config.grid, config.potential)
        sd = sdme_map(spec, config.dipole)
        levels = np.arange(spec.bound_count)
        _, energies = read_csv(out / "energies.csv")
        assert np.array_equal(energies[:, 0], levels)
        assert np.array_equal(energies[:, 1], spec.energies)
        sdme_rows = (out / "sdme.csv").read_text().splitlines()
        assert np.array_equal([[float(x) for x in row.split(",")] for row in sdme_rows], sd)
        _, lifetimes = read_csv(out / "lifetimes.csv")
        assert np.array_equal(lifetimes[:, 0], levels[1:])
        assert np.array_equal(lifetimes[:, 1], lifetime(spec, sd)[1:])
        _, wavefunctions = read_csv(out / "wavefunctions.csv")
        assert np.array_equal(wavefunctions[:, 0], config.grid.points)
        assert np.array_equal(wavefunctions[:, 1:], spec.wavefunctions.T)
        # levels are written as integers
        for name in ("energies.csv", "lifetimes.csv"):
            rows = (out / name).read_text().splitlines()[1:]
            assert all(row.split(",")[0].isdigit() for row in rows)

    def test_tabulated_curve_route(self, tmp_path):
        # sampling the analytic well at the grid nodes makes the tabulated
        # route bit-equivalent to the model route
        from ladderdown.curves import MorsePotential

        pot = MorsePotential(de=0.1, re=2.0, a=1.0)
        r = np.linspace(0.3, 20.0, 768)
        table = tmp_path / "pec.dat"
        table.write_text(
            "".join(f"{float(x)!r} {float(v)!r}\n" for x, v in zip(r, pot.value(r)))
        )
        config = parse_config(f"""
[grid]
r_min = 0.3
r_max = 20.0
n_points = 768
reduced_mass = 200.0

[potential]
file = {table}

[dipole]
model = ramp
d0 = 0.5
rd = 28.0
p = 2.0

[levels]
initial = 3
target = 0
""")
        result = cmd_eigensolve(config, str(tmp_path / "out"))
        assert result["bound_count"] == morse_bound_count(0.1, 1.0, 200.0)
        _, data = read_csv(tmp_path / "out" / "energies.csv")
        expected = morse_energies(0.1, 1.0, 200.0)
        assert np.max(np.abs(data[:, 1] - expected) / np.abs(expected)) < 1e-6


class TestPropagate:
    def test_zero_amplitude_pulse_preserves_populations(self, tmp_path):
        pulse = tmp_path / "pulse.cfg"
        pulse.write_text(TINY_PULSE)
        out = tmp_path / "run"
        config = load_config(None, "desk")
        result = cmd_propagate(config, str(out), pulse_file=str(pulse))
        rec = result["record"]
        assert np.max(np.abs(rec.populations[-1] - rec.populations[0])) < 1e-10
        assert rec.populations[0][8] == pytest.approx(1.0, abs=1e-10)

    def test_sample_stride_row_count_and_units(self, tmp_path):
        pulse = tmp_path / "pulse.cfg"
        pulse.write_text(TINY_PULSE)
        out = tmp_path / "run"
        config = load_config(None, "desk")
        result = cmd_propagate(config, str(out), pulse_file=str(pulse))
        rec = result["record"]
        header, data = read_csv(out / "timeseries.csv")
        assert len(data) == math.ceil(rec.steps / config.sample_stride) + 1
        assert header[:3] == ["t_au", "t_ns", "field_au"]
        # ns column is the a.u. column converted
        assert data[-1, 1] == pytest.approx(data[-1, 0] * 2.4188843265e-17 * 1e9)
        summary = (out / "summary.txt").read_text()
        assert "final_p_target" in summary and "wall_time_s" in summary

    def test_missing_pulse_is_config_error(self):
        config = load_config(None, "desk")
        with pytest.raises(ConfigError, match="pulse"):
            cmd_propagate(config, "/tmp/should_not_exist_out")

    def test_rejected_pulse_leaves_no_output_directory(self, tmp_path, capsys):
        pulse = tmp_path / "nan_pulse.cfg"
        pulse.write_text(TINY_PULSE.replace("eps0 = 1e-30", "eps0 = nan"))
        rc = main(["propagate", "--preset", "desk", "--pulse", str(pulse),
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: [pulse] ")
        assert not (tmp_path / "o").exists()


class TestOptimize:
    def test_surrogate_mode_runs_fast_and_reproducibly(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        config = load_config(None, "old20")
        import time

        t0 = time.perf_counter()
        cmd_optimize(config, str(out_a), surrogate=True, seed=5)
        assert time.perf_counter() - t0 < 1.0
        cmd_optimize(config, str(out_b), surrogate=True, seed=5)
        assert (out_a / "history.csv").read_bytes() == (out_b / "history.csv").read_bytes()
        summary = (out_a / "summary.txt").read_text()
        assert "seed = 5" in summary
        assert "surrogate = True" in summary
        assert "genes_on_range_boundary" in summary
        assert "range_eps0 = 0.001, 0.01" in summary

    def test_defaults_match_published_settings(self):
        config = load_config(None, "old20")
        assert config.ga.population == 40
        assert config.ga.generations == 10
        assert config.ga.elites == 5
        assert config.ga.crossover_prob == 0.25
        assert config.ga.mutation_prob == 0.9

    def test_best_pulse_feeds_back_into_propagate(self, tmp_path):
        out = tmp_path / "opt"
        config = load_config(None, "old20")
        best = cmd_optimize(config, str(out), surrogate=True, seed=3)["best"]
        best_file = out / "best_pulse.cfg"
        assert best_file.exists()
        # chain: the optimizer's output is a valid propagate pulse file. Its
        # horizon is ~5e7 a.u., so the desk grid replays it in 2000 steps
        # instead of the desk preset's dt 40.
        dt = duration(best) / 2000
        desk = parse_config(PRESETS["desk"].replace("dt = 40.0\n", f"dt = {dt!r}\n"))
        assert desk.dt == dt
        run_out = tmp_path / "chained"
        result = cmd_propagate(desk, str(run_out), pulse_file=str(best_file))
        assert (run_out / "timeseries.csv").exists()
        assert result["record"].steps > 0

    def test_history_best_is_monotone(self, tmp_path):
        config = load_config(None, "mld24")
        result = cmd_optimize(config, str(tmp_path / "h"), surrogate=True, seed=2)
        b = result["history"].best_fitness
        assert all(later >= earlier for earlier, later in zip(b, b[1:]))

    def test_surrogate_run_keeps_its_random_stream(self, tmp_path):
        # a stored run: any change to the order or the scale of the GA's
        # random draws moves its genes
        assert main(["optimize", "--preset", "old20", "--surrogate", "--seed", "5",
                     "--out", str(tmp_path / "o")]) == 0
        stored = DATA / "old20-surrogate-seed5"
        _, got = read_csv(tmp_path / "o" / "history.csv")
        _, want = read_csv(stored / "history.csv")
        assert got.shape == want.shape
        np.testing.assert_array_equal(got[:, 0], want[:, 0])
        np.testing.assert_allclose(got[:, 1:4], want[:, 1:4], rtol=0, atol=1e-12)
        np.testing.assert_allclose(got[:, 4:], want[:, 4:], rtol=1e-12, atol=0)
        best, stored_best = configparser.ConfigParser(), configparser.ConfigParser()
        best.read(tmp_path / "o" / "best_pulse.cfg")
        stored_best.read(stored / "best_pulse.cfg")
        for gene, value in stored_best["pulse"].items():
            assert float(best["pulse"][gene]) == pytest.approx(float(value), rel=1e-12)

    def test_equal_scores_run_to_the_end(self, tmp_path):
        # without mutation, the surrogate's generations fill with equal scores
        # whose mean can round above them all; every row must still survive
        config = tmp_path / "flat.ini"
        config.write_text(PRESETS["old20"] + "population = 6\ngenerations = 60\n"
                          "elites = 1\nmutation_prob = 0.0\n")
        out = tmp_path / "o"
        assert main(["optimize", "--config", str(config), "--surrogate", "--seed", "39",
                     "--out", str(out)]) == 0
        _, history = read_csv(out / "history.csv")
        assert len(history) == 60

    def test_summary_reports_uniform_fallbacks(self, tmp_path):
        config = load_config(None, "old20")
        result = cmd_optimize(config, str(tmp_path / "u"), surrogate=True, seed=5)
        summary = (tmp_path / "u" / "summary.txt").read_text().splitlines()
        assert f"uniform_fallbacks = {result['history'].uniform_fallbacks}" in summary

    def test_threads_below_one_is_a_one_line_error(self, tmp_path, capsys):
        rc = main(["optimize", "--preset", "old20", "--surrogate", "--threads", "-3",
                   "--out", str(tmp_path / "t")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --threads ") and err.count("\n") == 1
        assert not (tmp_path / "t").exists()

    def test_missing_ga_section_is_config_error(self, tmp_path):
        text = PRESETS["desk"]
        start = text.index("[ga]")
        end = text.index("[propagation]")
        config = parse_config(text[:start] + text[end:])
        with pytest.raises(ConfigError, match="ga"):
            cmd_optimize(config, str(tmp_path / "x"), surrogate=True)

    def test_missing_ga_section_leaves_no_output_directory(self, tmp_path, capsys):
        text = PRESETS["desk"]
        config = tmp_path / "no_ga.ini"
        config.write_text(text[:text.index("[ga]")] + text[text.index("[propagation]"):])
        rc = main(["optimize", "--config", str(config), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert capsys.readouterr().err == "error: optimize needs a [ga] section\n"
        assert not (tmp_path / "o").exists()


class TestPulseSpectrum:
    def test_peak_row_at_center_frequency(self, tmp_path):
        out = tmp_path / "spec"
        config = load_config(None, "old20")
        cmd_pulse_spectrum(config, str(out))
        header, data = read_csv(out / "spectrum.csv")
        assert header == ["omega_au", "nu_hz", "intensity"]
        peak_row = data[np.argmax(data[:, 2])]
        assert peak_row[0] == pytest.approx(config.pulse.omega0, rel=1e-3)

    @pytest.mark.parametrize("preset", ["old20", "old24", "mld20", "mld24"])
    def test_infrared_regime(self, preset, tmp_path):
        out = tmp_path / preset
        config = load_config(None, preset)
        cmd_pulse_spectrum(config, str(out))
        _, data = read_csv(out / "spectrum.csv")
        nu_peak = data[np.argmax(data[:, 2]), 1]
        assert 1e11 <= nu_peak < 1e13
        assert nu_peak == pytest.approx(
            data[np.argmax(data[:, 2]), 0] * AU_ANGFREQ_RAD_PER_S / (2 * math.pi)
        )

    def test_fft_flag_emits_cross_check(self, tmp_path):
        out = tmp_path / "fft"
        rc = main(["pulse-spectrum", "--preset", "mld24", "--out", str(out), "--fft"])
        assert rc == 0
        assert (out / "spectrum.csv").exists()
        _, fft_data = read_csv(out / "spectrum_fft.csv")
        config = load_config(None, "mld24")
        nu_peak = fft_data[np.argmax(fft_data[:, 2]), 0]
        assert abs(nu_peak - config.pulse.omega0) / config.pulse.omega0 < 0.02

    def test_empty_range_rejected(self, tmp_path):
        config = load_config(None, "old20")
        with pytest.raises(ConfigError, match="empty"):
            cmd_pulse_spectrum(config, str(tmp_path / "e"),
                               omega_min=2e-5, omega_max=1e-5)

    def test_seed_and_threads_belong_to_optimize_only(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eigensolve", "--preset", "desk", "--out", str(tmp_path / "x"),
                  "--threads", "2"])
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_cli_error_paths_return_nonzero(self, tmp_path, capsys):
        rc = main(["eigensolve", "--preset", "nope", "--out", str(tmp_path / "x")])
        assert rc == 2
        assert "unknown preset" in capsys.readouterr().err

    def test_invalid_pulse_file_value_is_a_one_line_error(self, tmp_path, capsys):
        pulse = tmp_path / "bad_pulse.cfg"
        pulse.write_text(TINY_PULSE.replace("eps0 = 1e-30", "eps0 = -1e-3"))
        rc = main(["pulse-spectrum", "--preset", "old20", "--pulse", str(pulse),
                   "--out", str(tmp_path / "s")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: [pulse] ") and err.count("\n") == 1

    def test_rejected_pulse_leaves_no_output_directory(self, tmp_path, capsys):
        pulse = tmp_path / "bad_pulse.cfg"
        pulse.write_text(TINY_PULSE.replace("eps0 = 1e-30", "eps0 = -1e-3"))
        rc = main(["pulse-spectrum", "--preset", "old20", "--pulse", str(pulse),
                   "--out", str(tmp_path / "s")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: [pulse] ")
        assert not (tmp_path / "s").exists()

    def test_fewer_than_two_points_is_a_one_line_error(self, tmp_path, capsys):
        rc = main(["pulse-spectrum", "--preset", "old20", "--points", "-5",
                   "--out", str(tmp_path / "p")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --points ") and err.count("\n") == 1
        assert not (tmp_path / "p").exists()

    @pytest.mark.parametrize("command, old, new",
                             [("propagate", "eps0 = 1e-30", "eps0 = nan"),
                              ("pulse-spectrum", "tau0 = 1.5e5", "tau0 = inf"),
                              ("pulse-spectrum", "chirp = 1e-12", "chirp = nan")])
    def test_non_finite_pulse_value_is_a_one_line_error(self, tmp_path, capsys, command,
                                                        old, new):
        pulse = tmp_path / "bad_pulse.cfg"
        pulse.write_text(TINY_PULSE.replace(old, new))
        rc = main([command, "--preset", "desk", "--pulse", str(pulse),
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: [pulse] ") and err.count("\n") == 1

    def test_non_finite_cap_strength_is_a_one_line_error(self, tmp_path, capsys):
        config = tmp_path / "bad_cap.ini"
        config.write_text(PRESETS["desk"].replace("eta = 5e-6", "eta = nan"))
        rc = main(["eigensolve", "--config", str(config), "--out", str(tmp_path / "e")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: [cap] ") and err.count("\n") == 1

    def test_more_elites_than_population_is_a_one_line_error(self, tmp_path, capsys):
        config = tmp_path / "bad_ga.ini"
        config.write_text(PRESETS["desk"].replace("population = 12", "population = 4")
                          .replace("elites = 2", "elites = 5"))
        rc = main(["optimize", "--config", str(config), "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: [ga] ") and err.count("\n") == 1

    @pytest.mark.parametrize("old, new", [("n_points = 1024", "n_points = 8"),
                                          ("eta = 5e-6", "eta = -5e-6"),
                                          ("r0 = 48.0", "r0 = 200.0"),
                                          ("dt = 40.0", "dt = 0"),
                                          ("dt = 40.0", "dt = -40.0"),
                                          pytest.param(
                                              "[propagation]", "[propagation]\nsample_stride = 0",
                                              id="sample_stride = 100-sample_stride = 0")])
    def test_invalid_config_value_is_a_config_error(self, old, new):
        with pytest.raises(ConfigError):
            parse_config(PRESETS["desk"].replace(old, new))


class TestSpectrumContradictions:
    """Inputs that the bound spectrum contradicts: exit 2, one line, no output."""

    def test_potential_without_bound_level(self, tmp_path, capsys):
        config = tmp_path / "shallow.ini"
        config.write_text(PRESETS["desk"].replace("de = 0.0011", "de = 1e-9"))
        rc = main(["eigensolve", "--config", str(config), "--out", str(tmp_path / "e")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: [potential]") and err.count("\n") == 1
        assert not (tmp_path / "e").exists()

    @pytest.mark.parametrize("command", ["optimize", "propagate"])
    def test_initial_level_above_the_bound_spectrum(self, tmp_path, capsys, command):
        config = tmp_path / "high.ini"
        config.write_text(PRESETS["desk"].replace("initial = 8", "initial = 40")
                          .replace("ladder = 8, 6, 4, 2", "ladder = 40, 6, 4, 2"))
        pulse = tmp_path / "pulse.cfg"
        pulse.write_text(TINY_PULSE)
        extra = ["--pulse", str(pulse)] if command == "propagate" else []
        rc = main([command, "--config", str(config), "--out", str(tmp_path / "o")] + extra)
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: [levels] initial: level 40 ") and err.count("\n") == 1
        assert not (tmp_path / "o").exists()


def _desk_config(tmp_path, old, new, preset="desk"):
    """The preset's text, desk unless named, with ``old`` replaced by ``new``."""
    text = PRESETS[preset]
    assert old in text
    path = tmp_path / "run.ini"
    path.write_text(text.replace(old, new))
    return ["--config", str(path)]


def _write(path, text):
    path.write_text(text)
    return path


def _desk_table(tmp_path, header, rows):
    """The desk config with [potential] or [dipole] read from a table of rows."""
    table = tmp_path / "curve.dat"
    table.write_text("".join(f"{row}\n" for row in rows))
    return _desk_config(tmp_path, header, f"{header}\nfile = {table}")


# a dipole table that covers the desk grid
FLAT_DIPOLE = "8.0 0.1\n30.0 0.1\n50.0 0.1\n68.0 0.1\n"

# (command, argv builder taking tmp_path, text the one error line must contain)
_REJECTED_INPUTS = {
    "empty-ladder": ("eigensolve", lambda tp: _desk_config(
        tp, "ladder = 8, 6, 4, 2", "ladder ="), "[levels] ladder: "),
    "ladder-not-integers": ("eigensolve", lambda tp: _desk_config(
        tp, "ladder = 8, 6, 4, 2", "ladder = 8, x, 2"), "as a list of integers"),
    "range-not-a-pair": ("eigensolve", lambda tp: _desk_config(
        tp, "tau_span = 2.5", "tau_span = 2.5\neps0_range = 1e-3"), "as a pair of numbers"),
    "tau-span-below-one": ("optimize", lambda tp: _desk_config(
        tp, "tau_span = 2.5", "tau_span = 0.5"), "[ga] tau_span: "),
    "tau-span-negative": ("optimize", lambda tp: _desk_config(
        tp, "tau_span = 2.5", "tau_span = -1"), "[ga] tau_span: "),
    "tau-span-infinite": ("optimize", lambda tp: _desk_config(
        tp, "tau_span = 2.5", "tau_span = inf"), "[ga] tau_span: "),
    "infinite-ga-range": ("optimize", lambda tp: ["--surrogate"] + _desk_config(
        tp, "eps0_range = 1.0e-3, 1.0e-2", "eps0_range = 1.0e-3, inf", preset="old20"),
        "[ga] eps0: bounds must be finite"),
    "ladder-gaps-shrink": ("optimize", lambda tp: _desk_config(
        tp, "ladder = 8, 6, 4, 2", "ladder = 8, 5, 4, 2"), "[levels] ladder: "),
    "ladder-of-one-rung": ("optimize", lambda tp: _desk_config(
        tp, "ladder = 8, 6, 4, 2", "ladder = 8, 2"), "[ga] heuristic ranges: "),
    "negative-seed": ("optimize", lambda tp: ["--preset", "old20", "--surrogate",
                                              "--seed", "-1"], "seed must be >= 0"),
    "missing-config": ("eigensolve", lambda tp: ["--config", str(tp / "nowhere.ini")],
                       "--config "),
    "missing-pulse": ("propagate", lambda tp: ["--preset", "desk", "--pulse",
                                               str(tp / "nowhere.cfg")], "--pulse "),
    "missing-potential-table": ("eigensolve", lambda tp: _desk_config(
        tp, "[potential]", f"[potential]\nfile = {tp / 'nowhere.dat'}"), "[potential] file "),
    "missing-dipole-table": ("eigensolve", lambda tp: _desk_config(
        tp, "[dipole]", f"[dipole]\nfile = {tp / 'nowhere.dat'}"), "[dipole] file "),
    "malformed-potential-table": ("eigensolve", lambda tp: _desk_table(
        tp, "[potential]", ["8 -1e-3", "20 oops", "40 -1e-4", "68 0"]), "[potential] file"),
    "nan-in-potential-table": ("eigensolve", lambda tp: _desk_table(
        tp, "[potential]", ["8 -1e-3", "20 nan", "40 -1e-4", "68 0"]),
        "[potential] file: "),
    "inf-r-in-dipole-table": ("eigensolve", lambda tp: _desk_table(
        tp, "[dipole]", ["8 0.1", "20 0.1", "40 0.1", "inf 0.1"]), "[dipole] file: "),
    "short-dipole-table": ("eigensolve", lambda tp: _desk_table(
        tp, "[dipole]", ["8 0.1", "40 0.1", "68 0.1"]), "[dipole] file"),
    "potential-table-short-of-the-grid": ("eigensolve", lambda tp: _desk_table(
        tp, "[potential]", [f"{r!r} -1e-3" for r in (8.0, 20.0, 40.0, 60.0)]),
        "does not cover the grid"),
    "dipole-table-short-of-the-grid": ("eigensolve", lambda tp: _desk_table(
        tp, "[dipole]", [f"{r!r} 0.1" for r in (10.0, 20.0, 40.0, 68.0)]),
        "does not cover the grid"),
    "dt-above-the-pulse-horizon": ("propagate", lambda tp: _desk_config(
        tp, "dt = 40.0", "dt = 5e4") + ["--pulse", str(DESK_PULSE)],
        "[propagation] dt: 50000 exceeds the pulse horizon"),
    "dt-above-the-shortest-horizon": ("optimize", lambda tp: _desk_config(
        tp, "dt = 40.0", "dt = 1e6"), "exceeds the shortest horizon of the gene box"),
    "misspelled-ga-key": ("eigensolve", lambda tp: _desk_config(
        tp, "population = 12", "popualtion = 12"), "[ga] popualtion: unknown key"),
    "misspelled-section": ("eigensolve", lambda tp: _desk_config(
        tp, "[cap]", "[capp]"), "[capp]: unknown section"),
    "model-beside-file": ("eigensolve", lambda tp: _desk_config(
        tp, "d0 = 0.5\nrd = 28.0\np = 2.0",
        f"model = ramp\nfile = {_write(tp / 'd.dat', FLAT_DIPOLE)}"),
        "[dipole] model: unknown key"),
    # under a field of 1e-30 the eigenbasis steps of the corner search are
    # exact: the population error estimate is rounding from the first halving
    "dt-without-a-dt2-regime": ("optimize", lambda tp: ["--config", str(_unpinned_desk(
        tp, eps0_range="1e-30, 2e-30", omega0_range="1.4e-4, 1.6e-4",
        tau0_range="1.5e4, 2.5e4", tau_range="4e3, 6e3", chirp_range="1e-11, 2e-11"))],
        "[propagation] dt is not set, and the population error estimate never fell"),
}


@pytest.mark.parametrize("case", sorted(_REJECTED_INPUTS))
def test_rejected_input_is_one_error_line_and_no_output(tmp_path, capsys, case):
    """Config values and files that contradict each other or the grid: exit 2."""
    command, argv, expected = _REJECTED_INPUTS[case]
    rc = main([command, "--out", str(tmp_path / "o")] + argv(tmp_path))
    err = capsys.readouterr().err
    assert rc == 2, err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert expected in err
    assert not (tmp_path / "o").exists()


def _unpinned_desk(tmp_path, **ga):
    """The desk preset without [propagation] dt, with [ga] keys replaced."""
    cp = configparser.ConfigParser()
    cp.read_string(PRESETS["desk"])
    del cp["propagation"]["dt"]
    cp["ga"].update({k: str(v) for k, v in ga.items()})
    path = tmp_path / "unpinned.ini"
    with open(path, "w", encoding="utf-8") as fh:
        cp.write(fh)
    return path


class TestTimeStep:
    def test_pinned_desk_propagate_keeps_its_stored_timeseries(self, tmp_path):
        out = tmp_path / "o"
        assert main(["propagate", "--preset", "desk", "--pulse", str(DESK_PULSE),
                     "--out", str(out)]) == 0
        stored = DATA / "desk-propagate-dt40" / "timeseries.csv"
        assert (out / "timeseries.csv").read_bytes() == stored.read_bytes()
        summary = read_summary(out)
        assert (summary["dt_au"], summary["dt_source"]) == ("40.0", "config")
        # rounding lifts the norm above 1; the summary clamps 1 - norm, the CSV keeps it
        header, data = read_csv(out / "timeseries.csv")
        assert data[-1, header.index("dissociation")] < 0.0
        assert summary["final_dissociation"] == "0.0"
        assert "dt_tol" not in summary
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["time_step"] == {"dt_au": 40.0, "dt_source": "config"}
        # the desk grid oversamples its largest momentum only 2.6 times
        assert (summary["eigensolve"], summary["eigensolve_points"]) == ("dense", "1024")
        assert manifest["eigensolve"] == {"eigensolve": "dense", "eigensolve_points": 1024}

    def test_surrogate_run_keeps_its_stored_files_byte_for_byte(self, tmp_path):
        out = tmp_path / "o"
        assert main(["optimize", "--preset", "old20", "--surrogate", "--seed", "5",
                     "--out", str(out)]) == 0
        for name in ("history.csv", "best_pulse.cfg"):
            stored = DATA / "old20-surrogate-seed5" / name
            assert (out / name).read_bytes() == stored.read_bytes()
        assert "dt_source" not in read_summary(out)

    def test_unpinned_propagate_chooses_dt_from_the_tolerance(self, tmp_path):
        out = tmp_path / "o"
        assert main(["propagate", "--config", str(_unpinned_desk(tmp_path)),
                     "--pulse", str(DESK_PULSE), "--out", str(out)]) == 0
        summary = read_summary(out)
        assert summary["dt_source"] == "tolerance"
        assert float(summary["dt_tol"]) == 1e-6
        assert 0 < float(summary["dt_error_estimate"]) <= 5e-7 * (1 + 1e-12)
        dt, steps = float(summary["dt_au"]), int(summary["steps"])
        assert dt * steps == pytest.approx(4e4, rel=1e-14)  # ends at the horizon
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["time_step"]["dt_au"] == dt
        assert manifest["time_step"]["dt_source"] == "tolerance"
        # sample_stride counts steps of the chosen dt
        _, data = read_csv(out / "timeseries.csv")
        assert len(data) == math.ceil(steps / 100) + 1
        assert data[-1, 0] == pytest.approx(4e4, rel=1e-12)

    def test_unpinned_propagate_of_a_weak_pulse_holds_the_tolerance(self, tmp_path):
        # the split's own error leads, falling as dt^4 down to rounding
        pulse = str(_write(tmp_path / "weak.cfg", WEAK_PULSE))
        out, pinned = tmp_path / "o", tmp_path / "pinned"
        assert main(["propagate", "--config", str(_unpinned_desk(tmp_path)),
                     "--pulse", pulse, "--out", str(out)]) == 0
        assert read_summary(out)["dt_source"] == "tolerance"
        assert main(["propagate", "--out", str(pinned), "--pulse", pulse]
                    + _desk_config(tmp_path, "dt = 40.0", "dt = 5.0")) == 0
        assert read_summary(pinned)["dt_au"] == "5.0"
        header, got = read_csv(out / "timeseries.csv")
        _, ref = read_csv(pinned / "timeseries.csv")
        p = [k for k, name in enumerate(header) if name.startswith("p_")]
        assert np.max(np.abs(got[-1, p] - ref[-1, p])) <= POP_TOL

    def test_unpinned_optimize_holds_interior_pulses_within_1e5(self, tmp_path):
        config = load_config(str(_unpinned_desk(tmp_path, population=3, generations=2,
                                                elites=1)), None)
        result = cmd_optimize(config, str(tmp_path / "o"))
        summary = read_summary(tmp_path / "o")
        assert summary["dt_source"] == "tolerance"
        corner = [float(x) for x in summary["dt_worst_corner"].split(", ")]
        los, his = result["ranges"].as_arrays()
        assert all(g in (lo, hi) for g, lo, hi in zip(corner, los, his))
        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert manifest["time_step"]["dt_worst_corner"] == summary["dt_worst_corner"]
        assert summary["eigensolve"] == "dense"

        dt = float(summary["dt_au"])
        spec = solve_bound_states(config.grid, config.potential)
        problem = LadderProblem(potential=config.potential, dipole=config.dipole,
                                cap=config.cap, spectrum=spec, initial_level=8,
                                target_level=2, dt=dt)
        grid = SplitStepper(config.grid, config.potential, config.dipole, config.cap, 20.0)
        state = WavefunctionState(psi=spec.wavefunctions[8].astype(complex), t=0.0,
                                  grid=config.grid)
        errors = []
        for genes in init_population(result["ranges"], 10, np.random.default_rng(11)):
            p = ChirpedPulseParams.from_array(genes)
            t_end = duration(p)
            got, ref = (propagate(state, p, s, t_end, sample_stride=10**9, spectrum=spec)
                        for s in (problem.stepper, grid))
            assert got.dt == dt
            errors.append(np.max(np.abs(got.populations[-1] - ref.populations[-1])))
        assert max(errors) < 1e-5

    @pytest.mark.parametrize("preset, outside", [("old20", ["tau0"]),
                                                 ("old24", ["omega0", "tau0", "tau"]),
                                                 ("mld20", []), ("mld24", ["chirp"])])
    def test_published_pulses_outside_their_ga_ranges(self, preset, outside):
        config = load_config(None, preset)
        assert _outside_ranges(config.pulse, config.ga.ranges) == outside

    def test_propagate_summary_names_genes_outside_the_ga_ranges(self, tmp_path):
        out = tmp_path / "o"
        assert main(["propagate", "--preset", "desk", "--pulse", str(DESK_PULSE),
                     "--out", str(out)]) == 0
        assert read_summary(out)["pulse_outside_ga_ranges"] == "omega0,tau0,tau"


# the runs whose two record files are compared, and the manifest keys each
# held before summary.txt and manifest.json were rendered from one record
_RECORDED_RUNS = {
    "eigensolve": (["eigensolve", "--preset", "desk"], "desk",
                   {"eigensolve": {"eigensolve": "dense", "eigensolve_points": 1024}}),
    "propagate": (["propagate", "--preset", "desk", "--pulse", str(DESK_PULSE)], "desk",
                  {"time_step": {"dt_au": 40.0, "dt_source": "config"},
                   "eigensolve": {"eigensolve": "dense", "eigensolve_points": 1024}}),
    "optimize": (["optimize", "--preset", "old20", "--surrogate", "--seed", "5"], "old20",
                 {"seed": 5, "threads": 1}),
    "pulse-spectrum": (["pulse-spectrum", "--preset", "mld24"], "mld24", {}),
}


def _render(value):
    """A manifest value as summary.txt writes it."""
    return repr(value) if isinstance(value, float) else str(value)


class TestRunRecord:
    @pytest.mark.parametrize("command", sorted(_RECORDED_RUNS))
    def test_summary_and_manifest_hold_the_same_facts(self, tmp_path, command):
        argv, preset, kept = _RECORDED_RUNS[command]
        out = tmp_path / "o"
        assert main(argv + ["--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        sections = {k: v for k, v in manifest.items() if isinstance(v, dict) and k != "versions"}
        lines = (out / "summary.txt").read_text().splitlines()
        assert lines[-1].startswith("wall_time_s = ")
        assert manifest["timing"] == {"wall_time_s": float(lines[-1].split(" = ")[1])}
        for line in lines:
            key, value = line.split(" = ", 1)
            held = [s[key] for s in sections.values() if key in s]
            assert [_render(v) for v in held] == [value], line
        # every key the manifest held before keeps its value and nesting
        assert manifest["command"] == command
        assert manifest["config_sha256"] == hashlib.sha256(PRESETS[preset].encode()).hexdigest()
        assert set(manifest["versions"]) == {"ladderdown", "numpy", "scipy"}
        expected = {"seed": None, "threads": None, **kept}
        assert {k: manifest[k] for k in expected} == expected

    @pytest.mark.parametrize("stored, argv", [
        ("old20-surrogate-seed5", ["optimize", "--preset", "old20", "--surrogate", "--seed", "5"]),
        ("desk-propagate-dt40", ["propagate", "--preset", "desk", "--pulse", str(DESK_PULSE)]),
    ])
    def test_summary_keeps_its_stored_lines(self, tmp_path, stored, argv):
        out = tmp_path / "o"
        assert main(argv + ["--out", str(out)]) == 0

        def facts(path):
            return [line for line in path.read_text(encoding="utf-8").splitlines()
                    if not line.startswith("wall_time_s = ")]

        assert facts(out / "summary.txt") == facts(DATA / stored / "summary.txt")

    @pytest.mark.parametrize("argv", [["eigensolve", "--preset", "desk"],
                                      ["optimize", "--preset", "desk", "--surrogate"]],
                             ids=["eigensolve", "optimize-surrogate"])
    @pytest.mark.parametrize("below", [False, True], ids=["a-file", "below-a-file"])
    def test_out_that_is_a_file_is_refused_before_any_solve(
            self, tmp_path, capsys, monkeypatch, argv, below):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved the bound levels before checking --out")

        monkeypatch.setattr(cli, "solve_bound_states", no_solve)
        blocker = tmp_path / "taken"
        blocker.write_bytes(b"not a directory\n")
        out = blocker / "o" if below else blocker
        assert main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --out ") and err.count("\n") == 1
        assert blocker.read_bytes() == b"not a directory\n"
