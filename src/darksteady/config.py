"""Experiment configuration: a strict flat key-value format.

The format is INI-like text with ``key = value`` lines and ``#`` comments.
Run-level keys (experiment, seed, integrator, dt, t_end, cycles, out) live
at the top of the file or under an explicit ``[run]`` section; physical
parameters under ``[params]``; pulsed-protocol options under ``[pulse]``;
sweep axes under ``[grid]``.

Parsing is strict: unknown sections or keys, malformed values and
per-value invariant violations (negative rates, zero dephasing times, bad
variant names) all raise ConfigError.  Cross-field invariants that depend
on the experiment (for example the asymmetry length against the nucleus
count) are enforced when the parameter set is resolved.

``[params]`` accepts the single-amplitude shorthand ``e = 10``, which
expands to ``e_plus = +10`` and ``e_minus = -10`` per the adopted optical
sign convention; it cannot be combined with explicit e_plus/e_minus.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field

from .errors import ConfigError
from .model import SystemParams, VARIANTS
from .pulses import AXES, NOISE_MODES

__all__ = [
    "EXPERIMENTS",
    "GRID_AXES",
    "ExperimentConfig",
    "PulseOptions",
    "parse_config",
    "render_config",
    "resolve_params",
]

EXPERIMENTS = (
    "fig2",
    "fig2-inset",
    "fig3",
    "t2-inset",
    "two-nuclei",
    "steady",
    "evolve",
    "sweep",
)

INTEGRATORS = ("rk4", "propagator")

# Sweep axes: "omega" drives omega_e and omega_n together, "e" sets the
# single-amplitude optical pair.
GRID_AXES = (
    "e",
    "omega",
    "omega_e",
    "omega_n",
    "g",
    "gamma_plus",
    "gamma_minus",
    "gamma_zero",
    "t2_star",
)

_GRID_MAX_POINTS = 10_000
_MAX_NOISE_SAMPLES = 10_000

_TRUE = {"true", "1", "yes", "on"}
_FALSE = {"false", "0", "no", "off"}


@dataclass(frozen=True)
class PulseOptions:
    """Options of the pulsed experiments; tau = None defers to the experiment."""

    tau: float | None = None
    pump_duration: float = 0.1
    pump_e: float = 30.0
    nuclear_duration: float = 10.0
    electron_duration: float = 0.01
    axis: str = "y"
    correction: bool = False
    dd_filter: bool = True
    noise_mode: str = "markovian"
    noise_samples: int = 200


@dataclass(frozen=True, eq=True)
class ExperimentConfig:
    """A parsed, validated experiment description.

    ``param_overrides`` holds only the keys the config set explicitly (in
    SystemParams field names); experiments fill the remaining defaults when
    they resolve the parameter set, so they can distinguish user choices
    from derivable values.
    """

    experiment: str | None = None
    param_overrides: dict = field(default_factory=dict)
    grid: tuple = ()
    output: str | None = None
    seed: int = 0
    integrator: str = "rk4"
    dt: float | None = None
    t_end: float | None = None
    cycles: int | None = None
    pulse: PulseOptions = field(default_factory=PulseOptions)


def _ctx(section, key):
    return f"[{section}] {key}"


def _parse_float(section, key, raw, minimum=None, strict_min=False):
    try:
        val = float(raw)
    except ValueError:
        raise ConfigError(f"{_ctx(section, key)}: expected a number, got {raw!r}")
    if val != val or val in (float("inf"), float("-inf")):
        raise ConfigError(f"{_ctx(section, key)}: value must be finite, got {raw!r}")
    if minimum is not None:
        if strict_min and val <= minimum:
            raise ConfigError(f"{_ctx(section, key)}: must be > {minimum}, got {val}")
        if not strict_min and val < minimum:
            raise ConfigError(f"{_ctx(section, key)}: must be >= {minimum}, got {val}")
    return val


def _parse_int(section, key, raw, minimum=None, maximum=None):
    try:
        val = int(raw)
    except ValueError:
        raise ConfigError(f"{_ctx(section, key)}: expected an integer, got {raw!r}")
    if minimum is not None and val < minimum:
        raise ConfigError(f"{_ctx(section, key)}: must be >= {minimum}, got {val}")
    if maximum is not None and val > maximum:
        raise ConfigError(f"{_ctx(section, key)}: must be <= {maximum}, got {val}")
    return val


def _parse_bool(section, key, raw):
    low = raw.strip().lower()
    if low in _TRUE:
        return True
    if low in _FALSE:
        return False
    raise ConfigError(f"{_ctx(section, key)}: expected true/false, got {raw!r}")


def _parse_choice(section, key, raw, choices):
    if raw not in choices:
        raise ConfigError(
            f"{_ctx(section, key)}: expected one of {', '.join(choices)}, got {raw!r}"
        )
    return raw


def _parse_float_list(section, key, raw, minimum=None):
    parts = [s.strip() for s in raw.split(",") if s.strip()]
    if not parts:
        raise ConfigError(f"{_ctx(section, key)}: expected a comma-separated list")
    return tuple(_parse_float(section, key, s, minimum=minimum) for s in parts)


def _read_sections(text):
    parser = configparser.ConfigParser(
        delimiters=("=",),
        comment_prefixes=("#",),
        inline_comment_prefixes=("#",),
        interpolation=None,
        strict=True,
    )
    parser.optionxform = str
    has_run = any(line.strip() == "[run]" for line in text.splitlines())
    body = text if has_run else "[run]\n" + text
    try:
        parser.read_string(body)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}")
    known = {"run", "params", "grid", "pulse"}
    for section in parser.sections():
        if section not in known:
            raise ConfigError(f"unknown section [{section}]")
    return {s: dict(parser.items(s)) for s in parser.sections()}


def _parse_run(items):
    out = {}
    for key, raw in items.items():
        if key == "experiment":
            out["experiment"] = _parse_choice("run", key, raw, EXPERIMENTS)
        elif key == "seed":
            out["seed"] = _parse_int("run", key, raw, minimum=0)
        elif key == "integrator":
            out["integrator"] = _parse_choice("run", key, raw, INTEGRATORS)
        elif key == "dt":
            out["dt"] = _parse_float("run", key, raw, minimum=0.0, strict_min=True)
        elif key == "t_end":
            out["t_end"] = _parse_float("run", key, raw, minimum=0.0, strict_min=True)
        elif key == "cycles":
            out["cycles"] = _parse_int("run", key, raw, minimum=0)
        elif key == "out":
            out["output"] = raw.strip()
        else:
            raise ConfigError(f"{_ctx('run', key)}: unknown key")
    return out


def _param_fields(name, value):
    """The SystemParams fields that a [params] key or [grid] axis sets."""
    if name == "e":
        return {"e_plus": value, "e_minus": -value}
    if name == "omega":
        return {"omega_e": value, "omega_n": value}
    return {name: value}


def _parse_params(items):
    out = {}
    for key, raw in items.items():
        if key in ("omega_e", "omega_n", "g", "gamma_plus", "gamma_minus", "gamma_zero"):
            out[key] = _parse_float("params", key, raw, minimum=0.0)
        elif key == "e":
            out.update(_param_fields(key, _parse_float("params", key, raw)))
        elif key in ("e_plus", "e_minus"):
            out[key] = _parse_float("params", key, raw)
        elif key == "t2_star":
            if raw.strip().lower() == "none":
                out[key] = None
            else:
                out[key] = _parse_float("params", key, raw, minimum=0.0, strict_min=True)
        elif key == "variant":
            out[key] = _parse_choice("params", key, raw, VARIANTS)
        elif key == "asymmetry":
            out[key] = _parse_float_list("params", key, raw, minimum=0.0)
        elif key == "asymmetric_hyperfine":
            out[key] = _parse_bool("params", key, raw)
        else:
            raise ConfigError(f"{_ctx('params', key)}: unknown key")
    if "e" in items and ("e_plus" in items or "e_minus" in items):
        raise ConfigError(
            "[params] e: cannot be combined with explicit e_plus/e_minus"
        )
    return out


def _parse_pulse(items):
    kwargs = {}
    for key, raw in items.items():
        if key in ("tau", "pump_duration", "nuclear_duration", "electron_duration"):
            kwargs[key] = _parse_float("pulse", key, raw, minimum=0.0)
        elif key == "pump_e":
            kwargs[key] = _parse_float("pulse", key, raw)
        elif key == "axis":
            kwargs[key] = _parse_choice("pulse", key, raw, AXES)
        elif key in ("correction", "dd_filter"):
            kwargs[key] = _parse_bool("pulse", key, raw)
        elif key == "noise_mode":
            kwargs[key] = _parse_choice("pulse", key, raw, NOISE_MODES)
        elif key == "noise_samples":
            kwargs[key] = _parse_int("pulse", key, raw, minimum=1, maximum=_MAX_NOISE_SAMPLES)
        else:
            raise ConfigError(f"{_ctx('pulse', key)}: unknown key")
    return PulseOptions(**kwargs)


def _parse_grid(items):
    axes = []
    for key, raw in items.items():
        if key not in GRID_AXES:
            raise ConfigError(
                f"{_ctx('grid', key)}: unknown axis; expected one of {', '.join(GRID_AXES)}"
            )
        minimum = None if key in ("e",) else 0.0
        values = _parse_float_list("grid", key, raw, minimum=minimum)
        if key == "t2_star" and any(v <= 0 for v in values):
            raise ConfigError("[grid] t2_star: values must be > 0")
        axes.append((key, values))
    axes.sort(key=lambda kv: kv[0])
    total = math.prod(len(values) for _, values in axes)
    if total > _GRID_MAX_POINTS:
        raise ConfigError(f"grid has {total} points, limit is {_GRID_MAX_POINTS}")
    return tuple(axes)


def parse_config(text):
    """Parse config text into an ExperimentConfig (strict)."""
    sections = _read_sections(text)
    run = _parse_run(sections.get("run", {}))
    params = _parse_params(sections.get("params", {}))
    pulse = _parse_pulse(sections.get("pulse", {}))
    grid = _parse_grid(sections.get("grid", {}))
    return ExperimentConfig(
        experiment=run.get("experiment"),
        param_overrides=params,
        grid=grid,
        output=run.get("output"),
        seed=run.get("seed", 0),
        integrator=run.get("integrator", "rk4"),
        dt=run.get("dt"),
        t_end=run.get("t_end"),
        cycles=run.get("cycles"),
        pulse=pulse,
    )


def resolve_params(cfg, defaults=None):
    """Build the SystemParams for a config on top of experiment defaults.

    ``defaults`` maps SystemParams field names to values the experiment
    derives (variant, matched drive amplitudes, ...); explicit config keys
    win.  Cross-field invariants are enforced here by SystemParams itself.
    """
    merged = dict(defaults or {})
    merged.update(cfg.param_overrides)
    return SystemParams(**merged)


def _format_value(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "none"
    if isinstance(value, float):
        # float() drops subclasses such as np.float64, whose repr is not config text.
        return repr(float(value))
    if isinstance(value, (tuple, list)):
        return ", ".join(_format_value(v) for v in value)
    return str(value)


def render_config(run=None, params=None, pulse=None, grid=None):
    """Render section dicts back into parseable config text.

    Inverse of :func:`parse_config` for the keys it emits; floats use repr
    so values survive the round trip exactly.
    """
    lines = []
    for key, value in (run or {}).items():
        lines.append(f"{key} = {_format_value(value)}")
    for section, mapping in (("params", params), ("pulse", pulse), ("grid", grid)):
        if mapping:
            lines.append("")
            lines.append(f"[{section}]")
            for key, value in mapping.items():
                lines.append(f"{key} = {_format_value(value)}")
    return "\n".join(lines) + "\n"
