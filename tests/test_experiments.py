"""Experiment drivers and the CLI: files, headers, determinism, exit codes.

These use the exact-propagator integrator and short horizons where the
physics allows it, to keep the suite fast; the acceptance tests cover the
full-length runs.
"""

import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from darksteady import cli, engine, pulses
from darksteady.config import EXPERIMENTS, parse_config, resolve_params
from darksteady.errors import ConfigError
from darksteady.experiments import extract_header_config, run_experiment

FAST_STEADY = "experiment = steady\n"
FAST_FIG2 = "experiment = fig2\nintegrator = propagator\n"


def run_cli(tmp_path, name, text, *extra):
    cfg = tmp_path / "run.ini"
    cfg.write_text(text)
    out = tmp_path / "out"
    code = cli.main([name, "--config", str(cfg), "--out", str(out), *extra])
    return code, out


def read_rows(path):
    lines = [
        line for line in path.read_text().splitlines() if not line.startswith("#")
    ]
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def test_steady_outputs(tmp_path):
    code, out = run_cli(tmp_path, "steady", FAST_STEADY)
    assert code == 0
    assert sorted(f.name for f in out.iterdir()) == [
        "data.csv",
        "plot.gp",
        "summary.txt",
    ]
    header, rows = read_rows(out / "data.csv")
    assert header == ["fidelity", "purity", "spectral_gap_per_us", "null_dimension"]
    assert len(rows) == 1
    assert float(rows[0][0]) > 0.999
    summary = (out / "summary.txt").read_text()
    assert "steady_state_unique = true" in summary
    assert "spectral_gap_per_us" in summary
    assert "data.csv" in (out / "plot.gp").read_text()


def test_header_round_trips(tmp_path):
    code, out = run_cli(tmp_path, "steady", FAST_STEADY + "[params]\nomega_e = 1.5\n")
    assert code == 0
    text = (out / "data.csv").read_text()
    cfg = parse_config(extract_header_config(text))
    assert cfg.experiment == "steady"
    p = resolve_params(cfg)
    assert p.omega_e == 1.5
    # every resolved physical parameter is pinned in the header
    for key in ("omega_n", "g", "e_plus", "gamma_zero", "t2_star", "variant"):
        assert key in extract_header_config(text)


def test_fig2_converges_and_pads(tmp_path):
    code, out = run_cli(tmp_path, "fig2", FAST_FIG2)
    assert code == 0
    header, rows = read_rows(out / "data.csv")
    assert header[:3] == ["time_us", "fidelity", "purity"]
    assert len(header) == 3 + 12 + 1
    final = rows[-1]
    assert float(final[1]) > 0.98
    assert float(final[2]) > 0.98
    summary = (out / "summary.txt").read_text()
    conv = float(summary.split("converged_time_us = ")[1].splitlines()[0])
    t_end = float(final[0])
    # 20% padding past the convergence point
    assert t_end >= 1.15 * conv


def test_fig2_respects_fixed_horizon(tmp_path):
    code, out = run_cli(tmp_path, "fig2", FAST_FIG2 + "t_end = 4\n")
    assert code == 0
    _, rows = read_rows(out / "data.csv")
    assert float(rows[-1][0]) == pytest.approx(4.0)


def test_fig2_adaptive_rk4_header_round_trips(tmp_path):
    code, out = run_cli(tmp_path, "fig2", "experiment = fig2\n")
    assert code == 0
    text = (out / "data.csv").read_text()
    cfg = parse_config(extract_header_config(text))
    assert cfg.integrator == "rk4"
    _, rows = read_rows(out / "data.csv")
    assert "%.12g" % cfg.t_end == rows[-1][0]


def test_fixed_horizon_beyond_limit_is_config_error(tmp_path, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("built a Liouvillian for a rejected config")

    monkeypatch.setattr(engine, "build_liouvillian", never)
    code, out = run_cli(tmp_path, "fig2", FAST_FIG2 + "t_end = 2000.5\n")
    assert code == 2
    assert not out.exists()
    cfg = parse_config(f"experiment = evolve\nt_end = 2001\nout = {tmp_path / 'o'}\n")
    with pytest.raises(ConfigError, match="t_end"):
        run_experiment(cfg)


def test_rk4_tiny_step_finishes(tmp_path):
    """1e6 RK4 steps cost O(log sample_every) products, not one per step."""
    (tmp_path / "rk4").mkdir()
    (tmp_path / "prop").mkdir()
    code, out = run_cli(tmp_path / "rk4", "evolve",
                        "experiment = evolve\ndt = 1e-7\nt_end = 0.1\n")
    assert code == 0
    code, ref = run_cli(tmp_path / "prop", "evolve",
                        "experiment = evolve\nintegrator = propagator\nt_end = 0.1\n")
    assert code == 0
    _, rows = read_rows(out / "data.csv")
    _, ref_rows = read_rows(ref / "data.csv")
    # t_end/dt lands just above 1e6, so the step is 0.1/1000001 us and a
    # remainder sample closes the run on t_end.
    assert [float(r[0]) for r in rows] == pytest.approx([0.0, 0.05, 0.1, 0.1])
    for cell, ref_cell in zip(rows[-1], ref_rows[-1]):
        assert float(cell) == pytest.approx(float(ref_cell), abs=1e-9)


def test_evolve_any_variant(tmp_path):
    text = (
        "experiment = evolve\nintegrator = propagator\nt_end = 2\n"
        "[params]\nvariant = two-nuclei-spin-half\n"
    )
    code, out = run_cli(tmp_path, "evolve", text)
    assert code == 0
    summary = (out / "summary.txt").read_text()
    # degenerate attractor is reported, not fatal, outside fig2/steady
    assert "steady_state_unique = false" in summary


def test_sweep_row_order_lexicographic(tmp_path):
    text = "experiment = sweep\n[grid]\nomega_n = 0.5, 1\ng = 1, 2.5\n"
    code, out = run_cli(tmp_path, "sweep", text)
    assert code == 0
    header, rows = read_rows(out / "data.csv")
    assert header[:2] == ["g", "omega_n"]
    combos = [(float(r[0]), float(r[1])) for r in rows]
    # axes alphabetical, leftmost slowest, values in config order
    assert combos == [(1.0, 0.5), (1.0, 1.0), (2.5, 0.5), (2.5, 1.0)]
    assert all(r[-1] == "1" for r in rows)


def test_fig2_inset_default_grid(tmp_path):
    code, out = run_cli(tmp_path, "fig2-inset", "experiment = fig2-inset\n")
    assert code == 0
    _, rows = read_rows(out / "data.csv")
    assert len(rows) == 9
    assert all(float(r[2]) >= 0.99 for r in rows)


def test_fig3_files_and_curves(tmp_path):
    text = "experiment = fig3\ncycles = 40\n[pulse]\ntau = 0.02\n"
    code, out = run_cli(tmp_path, "fig3", text)
    assert code == 0
    header, rows = read_rows(out / "data.csv")
    assert header == [
        "cycle",
        "time_us",
        "fidelity_ideal",
        "fidelity_uncorrected",
        "fidelity_corrected",
        "purity_ideal",
        "purity_uncorrected",
        "purity_corrected",
    ]
    assert len(rows) == 41
    last = rows[-1]
    assert float(last[2]) > float(last[3])  # ideal beats uncorrected
    assert float(last[4]) > float(last[3])  # corrected beats uncorrected
    summary = (out / "summary.txt").read_text()
    assert "dd_error_rad" in summary


class _Reached(Exception):
    pass


@pytest.mark.parametrize("name", ["fig3", "t2-inset"])
def test_pulsed_cycles_bounded(tmp_path, monkeypatch, name):
    """Pulsed runs above 40,000 cycles, the row cap of a continuous run,
    are rejected before any pulse map is built; 40,000 itself gets there."""

    def reached(*args, **kwargs):
        raise _Reached

    monkeypatch.setattr(pulses, "run_sequence", reached)
    code, out = run_cli(tmp_path, name, f"experiment = {name}\ncycles = 40001\n")
    assert code == 2
    assert not out.exists()
    with pytest.raises(_Reached):
        run_cli(tmp_path, name, f"experiment = {name}\ncycles = 40000\n")


def test_noise_samples_bounded(tmp_path):
    """A quasi-static sample count the noise draw could not allocate is a
    config error (exit 2) before anything runs or is written."""
    text = (
        "experiment = fig3\ncycles = 1\n[params]\nt2_star = 10\n"
        "[pulse]\nnoise_mode = quasistatic\nnoise_samples = 10000000000000\n"
    )
    code, out = run_cli(tmp_path, "fig3", text)
    assert code == 2
    assert not out.exists()


def test_fig3_rejects_correction_flag(tmp_path):
    text = "experiment = fig3\ncycles = 10\n[pulse]\ncorrection = true\n"
    code, _ = run_cli(tmp_path, "fig3", text)
    assert code == 2


def test_t2_inset_runs_reduced(tmp_path):
    text = (
        "experiment = t2-inset\ncycles = 40\n[grid]\nt2_star = 2, 20\n"
    )
    code, out = run_cli(tmp_path, "t2-inset", text)
    assert code == 0
    header, rows = read_rows(out / "data.csv")
    assert header == ["t2_star_us", "max_fidelity"]
    assert [float(r[0]) for r in rows] == [2.0, 20.0]
    assert float(rows[0][1]) < float(rows[1][1])


def test_t2_inset_rejects_foreign_grid(tmp_path):
    text = "experiment = t2-inset\n[grid]\ng = 1, 2\n"
    code, _ = run_cli(tmp_path, "t2-inset", text)
    assert code == 2


def test_two_nuclei_matched_drive_default(tmp_path):
    text = "experiment = two-nuclei\nintegrator = propagator\nt_end = 60\n"
    code, out = run_cli(tmp_path, "two-nuclei", text)
    assert code == 0
    header_text = extract_header_config((out / "data.csv").read_text())
    p = resolve_params(parse_config(header_text))
    assert p.omega_e == pytest.approx(np.sqrt(2.0))
    header, rows = read_rows(out / "data.csv")
    assert header[3] == "singlet_population"
    assert float(rows[-1][1]) == pytest.approx(0.75, abs=0.01)
    assert float(rows[-1][3]) == pytest.approx(0.25, abs=0.01)


# Bytes that the 4001 sampled 16x16 complex states of a 200 us two-nuclei
# run would take if a run kept them.
_STATES_200US_BYTES = 4001 * 16 * 16 * 16


@pytest.mark.parametrize("integrator", ["propagator", "rk4"])
def test_two_nuclei_keeps_no_states(tmp_path, integrator):
    """A continuous run observes each sample as it is taken: its traced
    peak stays below the size of the sampled states alone."""
    text = f"experiment = two-nuclei\nintegrator = {integrator}\nt_end = 200\n"
    tracemalloc.start()
    try:
        code, out = run_cli(tmp_path, "two-nuclei", text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert len(read_rows(out / "data.csv")[1]) > 3990
    assert peak < _STATES_200US_BYTES


def test_two_nuclei_explicit_drive_wins(tmp_path):
    text = (
        "experiment = two-nuclei\nintegrator = propagator\nt_end = 5\n"
        "[params]\nomega_e = 2.0\n"
    )
    code, out = run_cli(tmp_path, "two-nuclei", text)
    assert code == 0
    p = resolve_params(parse_config(extract_header_config((out / "data.csv").read_text())))
    assert p.omega_e == 2.0


def test_two_nuclei_rejects_single_variant(tmp_path):
    text = "experiment = two-nuclei\n[params]\nvariant = single-nucleus-spin1\n"
    code, _ = run_cli(tmp_path, "two-nuclei", text)
    assert code == 2


def test_experiment_mismatch_is_config_error(tmp_path):
    code, _ = run_cli(tmp_path, "fig2", "experiment = steady\n")
    assert code == 2


def test_missing_output_is_config_error(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text("experiment = steady\n")
    assert cli.main(["steady", "--config", str(cfg)]) == 2


def test_nonunique_exit_code_and_no_partial_files(tmp_path):
    text = (
        "experiment = steady\n"
        "[params]\ne = 0\ngamma_plus = 0\ngamma_minus = 0\ngamma_zero = 0\n"
    )
    code, out = run_cli(tmp_path, "steady", text)
    assert code == 4
    assert not out.exists()


def test_step_size_exit_code(tmp_path):
    code, out = run_cli(tmp_path, "fig2", "experiment = fig2\ndt = 0.5\nt_end = 1\n")
    assert code == 3
    assert not out.exists()


def test_seed_and_integrator_flags_override(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text("experiment = steady\nseed = 1\n")
    out = tmp_path / "out"
    code = cli.main(
        ["steady", "--config", str(cfg), "--out", str(out), "--seed", "5",
         "--integrator", "propagator"]
    )
    assert code == 0
    header = extract_header_config((out / "data.csv").read_text())
    cfg2 = parse_config(header)
    assert cfg2.seed == 5
    assert cfg2.integrator == "propagator"


FAST_CONFIGS = {
    "fig2": "integrator = propagator\nt_end = 1\n",
    "fig2-inset": "[grid]\ne = 5, 10\n",
    "fig3": "cycles = 3\n[params]\nt2_star = 10\n"
            "[pulse]\nnoise_mode = quasistatic\nnoise_samples = 2\n",
    "t2-inset": "cycles = 3\n[grid]\nt2_star = 2, 20\n",
    "two-nuclei": "integrator = propagator\nt_end = 1\n",
    "steady": "",
    "evolve": "integrator = propagator\nt_end = 1\n",
    "sweep": "[grid]\ng = 2, 3\n",
}


def test_fast_configs_cover_every_experiment():
    assert sorted(FAST_CONFIGS) == sorted(EXPERIMENTS)


@pytest.mark.parametrize("name", sorted(FAST_CONFIGS))
def test_header_reruns_to_identical_data(tmp_path, name):
    """The header of every experiment's data.csv is a complete config: run
    from it alone, the experiment writes the same data.csv bytes."""
    (tmp_path / "first").mkdir()
    (tmp_path / "again").mkdir()
    code, out = run_cli(tmp_path / "first", name,
                        f"experiment = {name}\n" + FAST_CONFIGS[name])
    assert code == 0
    data = (out / "data.csv").read_bytes()
    code, out = run_cli(tmp_path / "again", name,
                        extract_header_config(data.decode()))
    assert code == 0
    assert (out / "data.csv").read_bytes() == data


def test_byte_identical_reruns(tmp_path):
    text = (
        "experiment = fig3\ncycles = 15\nseed = 7\n"
        "[params]\nt2_star = 10\n"
        "[pulse]\ntau = 0.02\nnoise_mode = quasistatic\nnoise_samples = 30\n"
    )
    cfg = tmp_path / "run.ini"
    cfg.write_text(text)
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert cli.main(["fig3", "--config", str(cfg), "--out", str(out)]) == 0
        outs.append((out / "data.csv").read_bytes())
    assert outs[0] == outs[1]


def test_run_experiment_requires_selection(tmp_path):
    with pytest.raises(Exception):
        run_experiment(parse_config(""))


def test_module_entry_point(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text(FAST_STEADY)
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "darksteady", "steady", "--config", str(cfg),
         "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (out / "data.csv").exists()


def test_cli_reports_diagnostics_to_stderr(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[params]\ngamma_plus = -2\n")
    code = cli.main(["steady", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    captured = capsys.readouterr()
    assert "gamma_plus" in captured.err
    assert captured.out == ""
