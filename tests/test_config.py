"""Config parsing: strictness, value validation, render round-trips."""

import numpy as np
import pytest

from darksteady import config
from darksteady.config import (
    ExperimentConfig,
    parse_config,
    render_config,
    resolve_params,
)
from darksteady.errors import ConfigError
from darksteady.model import SystemParams, VARIANT_TWO


def test_empty_config_defaults():
    cfg = parse_config("")
    assert cfg == ExperimentConfig()
    assert cfg.seed == 0
    assert cfg.integrator == "rk4"
    assert cfg.param_overrides == {}
    assert resolve_params(cfg) == SystemParams()


def test_run_keys_and_comments():
    cfg = parse_config(
        "# a comment\n"
        "experiment = fig2   # inline comment\n"
        "seed = 9\n"
        "integrator = propagator\n"
        "dt = 0.001\n"
        "t_end = 12.5\n"
        "out = /tmp/somewhere\n"
    )
    assert cfg.experiment == "fig2"
    assert cfg.seed == 9
    assert cfg.integrator == "propagator"
    assert cfg.dt == 0.001
    assert cfg.t_end == 12.5
    assert cfg.output == "/tmp/somewhere"


def test_params_section():
    cfg = parse_config(
        "[params]\n"
        "omega_e = 1.5\n"
        "g = 2\n"
        "t2_star = none\n"
        "variant = two-nuclei-spin-half\n"
        "asymmetry = 1, 0.8\n"
    )
    assert cfg.param_overrides == {
        "omega_e": 1.5,
        "g": 2.0,
        "t2_star": None,
        "variant": VARIANT_TWO,
        "asymmetry": (1.0, 0.8),
    }
    p = resolve_params(cfg)
    assert p.variant == VARIANT_TWO
    assert p.asymmetry == (1.0, 0.8)


def test_e_shorthand():
    cfg = parse_config("[params]\ne = 12\n")
    assert cfg.param_overrides == {"e_plus": 12.0, "e_minus": -12.0}
    with pytest.raises(ConfigError):
        parse_config("[params]\ne = 12\ne_plus = 5\n")


@pytest.mark.parametrize(
    "text",
    [
        "experiment = warp\n",
        "bogus = 1\n",
        "[bogus]\nx = 1\n",
        "[params]\nomega_e = fast\n",
        "[params]\ngamma_plus = -1\n",
        "[params]\nt2_star = 0\n",
        "[params]\nvariant = qubit\n",
        "[params]\nunknown_knob = 3\n",
        "[pulse]\naxis = z\n",
        "[pulse]\nnoise_mode = telegraph\n",
        "[pulse]\nnoise_samples = 0\n",
        "[pulse]\nnoise_samples = 10001\n",
        "[grid]\nbananas = 1, 2\n",
        "[grid]\nt2_star = 0, 1\n",
        "seed = -1\n",
        "integrator = euler\n",
        "dt = 0\n",
        "[params]\nomega_e = inf\n",
    ],
)
def test_rejects_invalid_input(text):
    with pytest.raises(ConfigError):
        parse_config(text)


def test_pulse_section():
    cfg = parse_config(
        "[pulse]\n"
        "tau = 0.02\n"
        "pump_e = 25\n"
        "correction = true\n"
        "dd_filter = off\n"
        "noise_mode = quasistatic\n"
        "noise_samples = 77\n"
    )
    assert cfg.pulse.tau == 0.02
    assert cfg.pulse.pump_e == 25.0
    assert cfg.pulse.correction is True
    assert cfg.pulse.dd_filter is False
    assert cfg.pulse.noise_mode == "quasistatic"
    assert cfg.pulse.noise_samples == 77


def test_noise_samples_limit():
    # 10,000 is the limit itself; test_rejects_invalid_input covers 10,001.
    assert parse_config("[pulse]\nnoise_samples = 10000\n").pulse.noise_samples == 10000


def test_grid_sorted_by_axis_name():
    cfg = parse_config("[grid]\nomega = 2, 0.5\ne = 5, 20, 10\n")
    assert cfg.grid == (("e", (5.0, 20.0, 10.0)), ("omega", (2.0, 0.5)))


def test_grid_size_limit():
    values = ", ".join(str(v + 1) for v in range(101))
    with pytest.raises(ConfigError):
        parse_config(f"[grid]\ng = {values}\nomega = {values}\n")


def test_cross_field_validation_happens_at_resolve():
    # a two-entry asymmetry parses fine but cannot resolve on the
    # single-nucleus variant
    cfg = parse_config("[params]\nasymmetry = 1, 0.8\n")
    with pytest.raises(ConfigError):
        resolve_params(cfg)


def test_explicit_run_section_header_allowed():
    cfg = parse_config("[run]\nexperiment = steady\n")
    assert cfg.experiment == "steady"


def test_render_round_trip():
    run = {"experiment": "fig3", "seed": 4, "integrator": "rk4", "cycles": 150}
    p = SystemParams(omega_e=1.25, t2_star=10.0)
    params = {
        "omega_e": p.omega_e,
        "omega_n": p.omega_n,
        "g": p.g,
        "e_plus": p.e_plus,
        "e_minus": p.e_minus,
        "gamma_plus": p.gamma_plus,
        "gamma_minus": p.gamma_minus,
        "gamma_zero": p.gamma_zero,
        "t2_star": p.t2_star,
        "variant": p.variant,
        "asymmetry": p.asymmetry,
        "asymmetric_hyperfine": p.asymmetric_hyperfine,
    }
    pulse = {"tau": 0.02, "correction": False, "noise_samples": 120}
    grid = {"t2_star": (1.0, 5.0, 10.0)}
    text = render_config(run=run, params=params, pulse=pulse, grid=grid)
    cfg = parse_config(text)
    assert cfg.experiment == "fig3"
    assert cfg.seed == 4
    assert cfg.cycles == 150
    assert resolve_params(cfg) == p
    assert cfg.pulse.tau == 0.02
    assert cfg.pulse.noise_samples == 120
    assert cfg.grid == (("t2_star", (1.0, 5.0, 10.0)),)
    # rendering the re-parsed config again is byte-stable
    params2 = dict(params)
    text2 = render_config(run=run, params=params2, pulse=pulse, grid=grid)
    assert text2 == text


def test_render_float_precision():
    # a value with no short decimal form survives exactly
    v = 0.1 + 0.2
    text = render_config(run={}, params={"omega_e": v})
    cfg = parse_config(text)
    assert cfg.param_overrides["omega_e"] == v


def test_render_numpy_float_round_trip():
    # np.float64 subclasses float, but its repr is not config text
    text = render_config(run={"t_end": np.float64(1.5)}, params={"omega_e": np.float64(0.1 + 0.2)})
    assert "np.float64" not in text
    cfg = parse_config(text)
    assert cfg.t_end == 1.5
    assert cfg.param_overrides["omega_e"] == 0.1 + 0.2


def test_grid_axes_constant_matches_parser():
    for axis in config.GRID_AXES:
        cfg = parse_config(f"[grid]\n{axis} = 1, 2\n")
        assert cfg.grid[0][0] == axis
