"""Experiment drivers and the CLI: files, headers, determinism, exit codes.

These use the exact-propagator integrator and short horizons where the
physics allows it, to keep the suite fast; the acceptance tests cover the
full-length runs.
"""

import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from darksteady import cli, engine, experiments, linalg, pulses
from darksteady.config import (
    EXPERIMENTS,
    ExperimentConfig,
    PulseOptions,
    parse_config,
    resolve_params,
)
from darksteady.errors import ConfigError, NumericalError
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


def test_fig2_default_dt_sits_on_the_column_stacked_guard(tmp_path):
    """The default RK4 step is 0.1 / ||L||_1 of the column-stacked L, bit
    for bit, not of the real matrix that propagates (whose 1-norm differs)."""
    code, out = run_cli(tmp_path, "fig2", "experiment = fig2\n")
    assert code == 0
    cfg = parse_config(extract_header_config((out / "data.csv").read_text()))
    liouv = experiments._liouvillian(resolve_params(cfg))
    assert cfg.dt == 0.1 / liouv.norm_bound()
    assert np.abs(liouv.real()).sum(axis=0).max() != liouv.norm_bound()


@pytest.mark.parametrize("text", [
    "experiment = fig2\n",
    "experiment = fig2\nt_end = 3\n",
    FAST_FIG2,
    FAST_FIG2 + "t_end = 4\n",
], ids=["rk4-adaptive", "rk4-fixed", "propagator-adaptive", "propagator-fixed"])
def test_continuous_run_makes_the_real_generator_once(tmp_path, monkeypatch, text):
    """A fig2 run writes L in the Hermitian basis once and splits it by the
    mirror once: the run (its sample map and residual check) and the
    steady state share both."""
    calls, splits = [], []
    real = linalg.HermitianBasis.real
    monkeypatch.setattr(linalg.HermitianBasis, "real",
                        lambda self, mat: calls.append(1) or real(self, mat))
    blocks = engine.MirrorSplit.blocks
    monkeypatch.setattr(engine.MirrorSplit, "blocks",
                        lambda self, *args: splits.append(1) or blocks(self, *args))
    code, _ = run_cli(tmp_path, "fig2", text)
    assert code == 0
    assert len(calls) == 1
    assert len(splits) == 1


def test_fixed_horizon_beyond_limit_is_config_error(tmp_path, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("built a Liouvillian for a rejected config")

    monkeypatch.setattr(engine, "build_liouvillian", never)
    code, out = run_cli(tmp_path, "fig2", FAST_FIG2 + "t_end = 2000.5\n")
    assert code == 2
    assert not out.exists()
    with pytest.raises(ConfigError, match="t_end"):
        parse_config(f"experiment = evolve\nt_end = 2001\nout = {tmp_path / 'o'}\n")


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


def test_rk4_vanishing_step_matches_a_small_one(tmp_path):
    """At dt = 1e-20 (5e19 steps) RK4 writes the numbers of dt = 1e-9."""
    outs = []
    for dt in ("1e-20", "1e-9"):
        (tmp_path / dt).mkdir()
        code, out = run_cli(tmp_path / dt, "evolve", f"experiment = evolve\ndt = {dt}\nt_end = 0.5\n")
        assert code == 0
        outs.append(read_rows(out / "data.csv"))
    (header, rows), (ref_header, ref_rows) = outs
    assert header == ref_header and len(rows) == len(ref_rows) == 11
    for row, ref_row in zip(rows, ref_rows):
        assert [float(c) for c in row] == pytest.approx([float(c) for c in ref_row], abs=1e-9)


@pytest.mark.parametrize("name", ["evolve", "fig2"])
def test_subnormal_step_is_config_error(tmp_path, capsys, name):
    code, out = run_cli(tmp_path, name, f"experiment = {name}\ndt = 1e-320\n")
    assert code == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert "[run] dt:" in err and "Traceback" not in err


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


@pytest.mark.parametrize("name", ["fig3", "t2-inset"])
def test_pulsed_g_zero_rejected(tmp_path, monkeypatch, capsys, name):
    """g = 0, which leaves the free evolution of the standard cycle
    unsized, is a config error naming [params] g (exit 2) before any pulse
    map is built or anything is written."""

    def reached(*args, **kwargs):
        raise _Reached

    monkeypatch.setattr(pulses, "run_sequence", reached)
    monkeypatch.setattr(pulses, "t2star_sweep", reached)
    code, out = run_cli(tmp_path, name, f"experiment = {name}\n[params]\ng = 0\n")
    assert code == 2
    assert not out.exists()
    assert "[params] g:" in capsys.readouterr().err


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


def _quasi(samples):
    return f"[pulse]\nnoise_mode = quasistatic\nnoise_samples = {samples}\n"


def _t2_grid(points):
    return "[grid]\nt2_star = " + ", ".join(str(i + 1) for i in range(points)) + "\n"


_T2 = "[params]\nt2_star = 10\n"


@pytest.mark.parametrize(
    "text, accepted",
    [
        # 3 sequences x 1000 samples x (83 cycles + 250 for the maps) = 999,000
        ("experiment = fig3\ncycles = 83\n" + _T2 + _quasi(1000), True),
        ("experiment = fig3\ncycles = 84\n" + _T2 + _quasi(1000), False),
        # no T2*: quasi-static mode propagates each sequence once
        ("experiment = fig3\ncycles = 200\n" + _quasi(10000), True),
        # Markovian: one sample per sequence
        ("experiment = fig3\ncycles = 40000\n" + _T2 + "[pulse]\nnoise_samples = 10000\n",
         True),
        # (2 x 1000 samples + the noiseless sequence) x (249 + 250) = 998,499
        ("experiment = t2-inset\ncycles = 249\n" + _quasi(1000) + _t2_grid(2), True),
        ("experiment = t2-inset\ncycles = 250\n" + _quasi(1000) + _t2_grid(2), False),
        # the defaults: (5 x 200 + 1) x (195 + 250)
        ("experiment = t2-inset\n" + _quasi(200), True),
        # each sequence below the limit, the 1000 of them far above it
        ("experiment = t2-inset\ncycles = 83\n" + _quasi(3000) + _t2_grid(1000), False),
        ("experiment = t2-inset\ncycles = 40000\n" + _t2_grid(1000), False),
    ],
    ids=["fig3-limit", "fig3-over", "fig3-no-t2", "fig3-markovian", "t2-inset-limit",
         "t2-inset-over", "t2-inset-defaults", "t2-inset-grid", "t2-inset-markovian-grid"],
)
def test_pulsed_sample_cycles_bounded(tmp_path, monkeypatch, text, accepted):
    """A pulsed run above 1,000,000 sample-cycles over all its sequences is
    rejected (exit 2) before any pulse map is built; one at the limit gets
    there."""

    def reached(*args, **kwargs):
        raise _Reached

    monkeypatch.setattr(pulses, "run_sequence", reached)
    monkeypatch.setattr(pulses, "t2star_sweep", reached)
    name = text.split("\n")[0].split(" = ")[1]
    if accepted:
        with pytest.raises(_Reached):
            run_cli(tmp_path, name, text)
    else:
        code, out = run_cli(tmp_path, name, text)
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


def test_two_nuclei_data_csv_is_streamed(tmp_path):
    """data.csv rows are written as they are formatted: a run whose
    data.csv dominates its memory peaks below twice the file's size."""
    text = "experiment = two-nuclei\nintegrator = propagator\nt_end = 1000\n"
    tracemalloc.start()
    try:
        code, out = run_cli(tmp_path, "two-nuclei", text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 2 * (out / "data.csv").stat().st_size


def test_failed_write_leaves_no_partial_file(tmp_path):
    def rows():
        yield "a,b\n"
        raise NumericalError("formatting failed")

    out = tmp_path / "out"
    with pytest.raises(TypeError):
        experiments._write_outputs(out, {"a.csv": "x\n", "b.csv": None})
    assert list(out.iterdir()) == []
    with pytest.raises(NumericalError, match="formatting"):
        experiments._write_outputs(out, {"summary.txt": "x\n", "data.csv": rows()})
    assert list(out.iterdir()) == []


def test_csv_rows_format_as_cells():
    """One format string per row of a data.csv table writes each number as
    the summary's per-cell formatting does: integral values (counts, flags)
    as integers, floats to 12 digits, in blocks of rows or not."""
    rows = [
        [0, np.int64(40000), 1.0, np.float64(1 / 3), math.nan, math.inf, -0.0],
        [7, np.int64(-2), 1e-300, np.float64(-2.5e17), -math.inf, 123456789012.5, 0.1],
    ]
    columns = list("abcdefg")
    lines = list(experiments._csv_lines(["# x = 1"], columns, np.array(rows, dtype=float)))
    assert lines[:2] == ["# x = 1\n", "a,b,c,d,e,f,g\n"]
    assert lines[2:] == [",".join(map(experiments._fmt_cell, row)) + "\n" for row in rows]
    assert lines[2] == "0,40000,1,0.333333333333,nan,inf,-0\n"
    # Longer than two blocks, with -0.0, nan, inf and an integral value.
    n = 2 * experiments._CSV_BLOCK + 3
    table = np.random.default_rng(0).normal(size=(n, 4)) * 10.0 ** np.arange(-3, 9, 3)
    table[::7, 0], table[1::7, 1], table[2::7, 2], table[3::7, 3] = -0.0, math.nan, math.inf, 5
    lines = list(experiments._csv_lines([], list("abcd"), table))
    assert len(lines) == n + 1
    assert lines[1:] == [",".join(map(experiments._fmt_cell, row)) + "\n"
                         for row in table.tolist()]
    assert [lines[1 + k].split(",")[k] for k in range(4)] == ["-0", "nan", "inf", "5\n"]
    # A row of the wrong width is an error, not a reshaped table.
    with pytest.raises(TypeError):
        list(experiments._csv_lines([], list("abc"), table))


def test_two_nuclei_explicit_drive_wins(tmp_path):
    text = (
        "experiment = two-nuclei\nintegrator = propagator\nt_end = 5\n"
        "[params]\nomega_e = 2.0\n"
    )
    code, out = run_cli(tmp_path, "two-nuclei", text)
    assert code == 0
    p = resolve_params(parse_config(extract_header_config((out / "data.csv").read_text())))
    assert p.omega_e == 2.0


def test_two_nuclei_rejects_single_variant(tmp_path, capsys):
    text = "experiment = two-nuclei\n[params]\nvariant = single-nucleus-spin1\n"
    code, _ = run_cli(tmp_path, "two-nuclei", text)
    assert code == 2
    assert "two-nuclei runs the" in capsys.readouterr().err


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


ZERO_PARAMS = "[params]\n" + "".join(
    f"{key} = 0\n" for key in ("omega_e", "omega_n", "g", "e", "gamma_plus", "gamma_minus",
                               "gamma_zero"))


@pytest.mark.parametrize("name, want", [("steady", 4), ("fig2", 4), ("evolve", 0), ("sweep", 0)])
def test_zero_generator_is_non_unique(tmp_path, capsys, name, want):
    """Every drive, coupling and rate 0 makes L = 0: no traceback, a
    non-unique steady state with every eigenvalue null and no decay, and
    the default RK4 step takes one step per sample."""
    grid = "[grid]\ng = 0\n" if name == "sweep" else ""
    code, out = run_cli(tmp_path, name, f"experiment = {name}\n{ZERO_PARAMS}{grid}")
    err = capsys.readouterr().err
    assert code == want and "Traceback" not in err
    if want == 4:
        assert "stationary subspace dimension 144, spectral gap inf" in err
        assert not out.exists()
    elif name == "sweep":
        assert read_rows(out / "data.csv")[1] == [["0", "nan", "nan", "inf", "0"]]
    else:
        summary = (out / "summary.txt").read_text()
        for line in ("steady_state_unique = false", "null_dimension = 144",
                     "spectral_gap_per_us = inf"):
            assert line in summary.splitlines()
        assert "# dt = 0.05" in (out / "data.csv").read_text().splitlines()


def test_step_size_exit_code(tmp_path):
    code, out = run_cli(tmp_path, "fig2", "experiment = fig2\ndt = 0.5\nt_end = 1\n")
    assert code == 3
    assert not out.exists()


def test_no_convergence_within_horizon_exit_code(tmp_path, capsys):
    """The adaptive horizon's residual check stops a run that has not
    converged by 2000 us: exit 3, no output files."""
    text = (
        "experiment = fig2\nintegrator = propagator\n"
        "[params]\nomega_e = 0.001\nomega_n = 0.001\n"
    )
    code, out = run_cli(tmp_path, "fig2", text)
    assert code == 3
    assert "no convergence below 1e-08 within 2000.0 us" in capsys.readouterr().err
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
    # The experiment is named first in summary.txt and in the header.
    assert (out / "summary.txt").read_text().startswith(f"experiment = {name}\n")
    assert f"\n# experiment = {name}\n" in data.decode()
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
    # The child imports the package from where this process found it, also
    # when that came from pytest's pythonpath setting and not PYTHONPATH.
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "darksteady", "steady", "--config", str(cfg),
         "--out", str(out)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
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


# Bytes of the per-cycle 144-entry complex vectors of one 3000-cycle
# sequence, were a run to keep them.
_VECTORS_3000_CYCLES_BYTES = 3001 * 144 * 16


def test_markovian_fig3_keeps_no_vectors(tmp_path):
    """A Markovian pulsed run observes each cycle's vector as it is made:
    its traced peak stays below the size of one sequence's vectors."""
    text = "experiment = fig3\ncycles = 3000\n[params]\nt2_star = 10\n"
    tracemalloc.start()
    try:
        code, out = run_cli(tmp_path, "fig3", text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert len(read_rows(out / "data.csv")[1]) == 3001
    assert peak < _VECTORS_3000_CYCLES_BYTES


def test_pulsed_run_makes_states_in_blocks(tmp_path, monkeypatch):
    """A pulsed run propagates and observes coordinates: no per-sample
    unvectorize, and one density matrix per sequence, its final state."""
    calls = {"unvectorize": 0, "states": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module in (linalg, engine, pulses, experiments):
        if hasattr(module, "unvectorize"):
            monkeypatch.setattr(module, "unvectorize", counting("unvectorize", module.unvectorize))
    monkeypatch.setattr(linalg.HermitianBasis, "states",
                        counting("states", linalg.HermitianBasis.states))
    text = "experiment = fig3\ncycles = 200\n[params]\nt2_star = 10\n"
    code, out = run_cli(tmp_path, "fig3", text)
    assert code == 0
    assert len(read_rows(out / "data.csv")[1]) == 201
    assert calls["unvectorize"] == 0
    # three sequences of 201 samples each
    assert calls["states"] == 3


@pytest.mark.parametrize("fields", [
    dict(experiment="fig2", dt=1e-320),
    dict(experiment="fig2", dt=math.nan),
    dict(experiment="evolve", t_end=math.nan),
    dict(experiment="evolve", integrator="propagator", t_end=-1.0),
    dict(experiment="fig2", integrator="foo"),
    dict(experiment="fig3", seed=-1, param_overrides={"t2_star": 10.0},
         pulse=dict(noise_mode="quasistatic", noise_samples=2)),
    dict(experiment="fig3", pulse=dict(axis="z")),
    dict(experiment="sweep", grid=(("g", (1.0, -1.0)),)),
], ids=["dt-subnormal", "dt-nan", "t_end-nan", "t_end-negative", "integrator",
        "seed-negative", "pulse-axis", "grid-negative"])
def test_code_built_config_is_checked_like_a_file(tmp_path, fields):
    """A config built in code goes through the same per-key parsers as a
    file: every bad value is a ConfigError before any file is written."""
    out = tmp_path / "out"
    pulse = fields.pop("pulse", {})
    with pytest.raises(ConfigError, match=r"^\[(run|pulse|grid)\] "):
        run_experiment(ExperimentConfig(output=str(out), pulse=PulseOptions(**pulse), **fields))
    assert not out.exists()


@pytest.mark.parametrize("fields, message", [
    (dict(experiment="sweep", grid=5), r"^grid: expected key-value pairs, got 5$"),
    (dict(experiment="sweep", grid=(("g",),)), r"^grid: expected key-value pairs"),
    (dict(experiment="fig2", param_overrides=None),
     r"^param_overrides: expected key-value pairs, got None$"),
    (dict(experiment="fig3", pulse={"axis": "x"}), r"^pulse: expected a PulseOptions, got dict$"),
    (dict(experiment="fig2", seed=None), r"^\[run\] seed: expected a value, got None$"),
    (dict(experiment="fig2", integrator=None), r"^\[run\] integrator: expected a value"),
], ids=["grid-int", "grid-not-pairs", "params-none", "pulse-dict", "seed-none", "integrator-none"])
def test_code_built_config_of_a_wrong_type_is_a_config_error(tmp_path, fields, message):
    """A field of the wrong type is a ConfigError when the config is
    built, not a TypeError or a failure later in the run."""
    with pytest.raises(ConfigError, match=message):
        ExperimentConfig(output=str(tmp_path / "out"), **fields)


def test_code_built_pulse_option_of_none_is_a_config_error():
    with pytest.raises(ConfigError, match=r"^\[pulse\] correction: expected a value, got None$"):
        PulseOptions(correction=None)


def test_code_built_config_parses_like_its_rendering():
    cfg = ExperimentConfig(experiment="fig2", seed=np.int64(3), dt=np.float64(0.001),
                           param_overrides={"e": 10})
    assert cfg == parse_config("experiment = fig2\nseed = 3\ndt = 0.001\n[params]\ne = 10\n")
    assert type(cfg.seed) is int and type(cfg.dt) is float


def test_package_and_cli_runs_load_no_scipy(tmp_path):
    """numpy is the only runtime dependency: neither the imports nor a
    steady state and a quasi-static pulsed run load scipy, lazily or not."""
    (tmp_path / "steady.ini").write_text("experiment = steady\n")
    (tmp_path / "fig3.ini").write_text(
        "experiment = fig3\ncycles = 2\n[params]\nt2_star = 10\n"
        "[pulse]\nnoise_mode = quasistatic\nnoise_samples = 2\n")
    code = (
        "import os, sys\n"
        "def loaded(step):\n"
        "    print(step, 'scipy' in sys.modules)\n"
        "import darksteady\n"
        "loaded('import darksteady')\n"
        "import darksteady.cli\n"
        "loaded('import darksteady.cli')\n"
        "for name in ('steady', 'fig3'):\n"
        "    base = os.path.join(sys.argv[1], name)\n"
        "    assert darksteady.cli.main([name, '--config', base + '.ini', '--out', base]) == 0\n"
        "    loaded(name)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path)], capture_output=True,
                         text=True, env=env, check=True)
    assert out.stdout.splitlines() == [
        "import darksteady False", "import darksteady.cli False", "steady False", "fig3 False"]


def _run_halves(tmp_path, monkeypatch, name, text):
    """(data.csv rows, summary) of a run as shipped and of the same run
    forced whole: no initial state counts as mirror-even."""
    out = []
    for forced in (False, True):
        with monkeypatch.context() as m:
            if forced:
                m.setattr(engine.MirrorSplit, "even_start", lambda self, x: None)
            (tmp_path / str(forced)).mkdir()
            code, path = run_cli(tmp_path / str(forced), name, text)
        assert code == 0
        out.append((path / "data.csv", (path / "summary.txt").read_text()))
    return out


_HALF_RUNS = {
    "fig2-rk4-adaptive": ("fig2", "experiment = fig2\n"),
    "fig2-rk4-fixed": ("fig2", "experiment = fig2\nt_end = 3\n"),
    "fig2-propagator": ("fig2", FAST_FIG2),
    "evolve": ("evolve", "experiment = evolve\n[params]\nt2_star = 10\n"),
    "two-nuclei": ("two-nuclei", "experiment = two-nuclei\nt_end = 30\n"
                   "[params]\nasymmetry = 1, 0.8\n"),
    "fig3-markovian": ("fig3", "experiment = fig3\ncycles = 300\n[params]\nt2_star = 10\n"),
    "t2-inset": ("t2-inset", "experiment = t2-inset\ncycles = 60\n"),
}


@pytest.mark.parametrize("case", _HALF_RUNS)
def test_even_half_outputs_match_the_whole_run(tmp_path, monkeypatch, case):
    """Runs carried in the mirror-even half say so in summary.txt and write
    every data.csv cell within 1e-10 of the whole run.  The populations of
    mirror-paired levels are bitwise equal, and those that are exactly 0
    in the whole run stay 0."""
    name, text = _HALF_RUNS[case]
    (half, half_summary), (whole, whole_summary) = _run_halves(tmp_path, monkeypatch, name, text)
    assert "mirror_half = true" in half_summary
    assert "mirror_half = false" in whole_summary
    header, rows = read_rows(half)
    assert read_rows(whole)[0] == header
    cells, whole_cells = np.array(rows, dtype=float), np.array(read_rows(whole)[1], dtype=float)
    assert np.abs(cells - whole_cells).max() <= 1e-10
    pops = [i for i, col in enumerate(header) if col.startswith("p_")]
    if pops:
        variant = resolve_params(parse_config(extract_header_config(half.read_text()))).variant
        partner = np.abs(experiments.model.mirror(variant)).argmax(axis=0)
        got = np.array(rows)[:, pops]
        assert np.array_equal(got, got[:, partner])
        zeros = whole_cells[:, pops] == 0
        assert zeros.any() and np.all(cells[:, pops][zeros] == 0)


@pytest.mark.parametrize("name, text", [
    ("fig2", "experiment = fig2\n[params]\ngamma_minus = 31\n"),
    ("fig2", FAST_FIG2 + "[params]\ngamma_minus = 31\n"),
    ("two-nuclei", "experiment = two-nuclei\nt_end = 30\n[params]\ngamma_minus = 31\n"),
    ("fig3", "experiment = fig3\n[params]\ngamma_minus = 31\nt2_star = 10\n"),
    ("t2-inset", "experiment = t2-inset\ncycles = 60\n[params]\ngamma_minus = 31\n"),
], ids=["fig2-rk4", "fig2-propagator", "two-nuclei", "fig3-markovian", "t2-inset"])
def test_mirror_breaking_run_is_the_whole_run(tmp_path, monkeypatch, name, text):
    """With gamma_minus != gamma_plus the generator and the pump do not
    commute with the mirror: the run is whole, its data.csv byte-identical
    to a forced-whole run, and summary.txt says mirror_half = false."""
    (half, half_summary), (whole, whole_summary) = _run_halves(tmp_path, monkeypatch, name, text)
    assert half.read_bytes() == whole.read_bytes()
    assert half_summary == whole_summary
    assert "mirror_half = false" in half_summary


def test_quasistatic_runs_report_whole_propagation(tmp_path):
    code, out = run_cli(tmp_path, "fig3", "experiment = fig3\ncycles = 5\n[params]\nt2_star = 10\n"
                        "[pulse]\nnoise_mode = quasistatic\nnoise_samples = 2\n")
    assert code == 0
    assert "mirror_half = false" in (out / "summary.txt").read_text()
