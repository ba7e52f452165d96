"""Experiment configuration: a strict flat key-value format.

The format is INI-like text with ``key = value`` lines and ``#`` comments.
Run-level keys live at the top of the file or under an explicit ``[run]``
section; physical parameters under ``[params]``; pulsed-protocol options
under ``[pulse]``; sweep axes under ``[grid]``.  ``_KEYS`` lists every key
of every section with the parser of its value.

Parsing is strict: unknown sections or keys, malformed values and
per-value invariant violations (negative rates, zero dephasing times, bad
variant names) all raise ConfigError; the text of an error in one value
starts ``[section] key:``.  Cross-field invariants that depend on the
experiment (for example the asymmetry length against the nucleus count)
are enforced when the parameter set is resolved.

The value parsers live in ``errors``, and the ``[params]`` table, all
keys but ``e``, is ``model._PARAMS``: ``SystemParams`` checks its fields
with it, so a parameter set built in code is accepted exactly when the
same values in a config file are, with the same ConfigError text.

``[params]`` accepts the single-amplitude shorthand ``e = 10``, which
expands to ``e_plus = +10`` and ``e_minus = -10`` per the adopted optical
sign convention; it cannot be combined with explicit e_plus/e_minus.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field

from .errors import (
    ConfigError,
    _bool,
    _bounded,
    _check_fields,
    _check_values,
    _choice,
    _floats,
    _format_value,
)
from .model import _PARAMS, SystemParams
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
_MAX_HORIZON = 2000.0  # us; longest run, fixed or to convergence
# Pulsed runs record one row per cycle; cap them at the rows of a
# continuous run, one per 0.05 us up to _MAX_HORIZON.
_MAX_CYCLES = 40_000


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

    def __post_init__(self):
        _check_fields(self, "pulse", _KEYS["pulse"])


@dataclass(frozen=True, eq=True)
class ExperimentConfig:
    """A parsed, validated experiment description.

    ``param_overrides`` holds only the keys the config set explicitly (in
    SystemParams field names); experiments fill the remaining defaults when
    they resolve the parameter set, so they can distinguish user choices
    from derivable values.

    A config built in code is checked as if it were read from a file: each
    set field is parsed back from its rendered text by its ``_KEYS``
    parser, ``e`` in ``param_overrides`` expands to ``e_plus``/``e_minus``,
    and a bad value raises ConfigError with the message parse_config gives.
    A field of the wrong type is a ConfigError too: None where the field
    has a value by default, ``param_overrides`` or ``grid`` that are not
    key-value pairs, and a ``pulse`` that is not a PulseOptions.
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

    def __post_init__(self):
        _check_fields(self, "run", _KEYS["run"], {"output": "out"})
        if not isinstance(self.pulse, PulseOptions):
            raise ConfigError(f"pulse: expected a PulseOptions, got {type(self.pulse).__name__}")
        params = _parse_section("params", _pairs("param_overrides", self.param_overrides))
        if "e" in params and ("e_plus" in params or "e_minus" in params):
            raise ConfigError("[params] e: cannot be combined with explicit e_plus/e_minus")
        overrides = {}
        for key, value in params.items():
            overrides.update(_param_fields(key, value))
        grid = _parse_section("grid", _pairs("grid", self.grid))
        total = math.prod(len(values) for values in grid.values())
        if total > _GRID_MAX_POINTS:
            raise ConfigError(f"grid has {total} points, limit is {_GRID_MAX_POINTS}")
        object.__setattr__(self, "param_overrides", overrides)
        object.__setattr__(self, "grid", tuple(sorted(grid.items())))


# Every key of the format: section -> key -> parser of its raw text.  A
# parser returns the value or raises ValueError with the message body.
_KEYS = {
    "run": {
        "experiment": _choice(EXPERIMENTS),
        "seed": _bounded(int, 0),
        "integrator": _choice(INTEGRATORS),
        "dt": _bounded(float, 1e-300),  # us; below it t_end / dt may overflow
        "t_end": _bounded(float, 0.0, _MAX_HORIZON, strict=True),
        "cycles": _bounded(int, 0, _MAX_CYCLES),
        "out": str.strip,
    },
    "params": {**_PARAMS, "e": _bounded(float)},
    "pulse": {
        **dict.fromkeys(("tau", "pump_duration", "nuclear_duration", "electron_duration"),
                        _bounded(float, 0.0)),
        "pump_e": _bounded(float),
        "axis": _choice(AXES),
        "correction": _bool,
        "dd_filter": _bool,
        "noise_mode": _choice(NOISE_MODES),
        "noise_samples": _bounded(int, 1, _MAX_NOISE_SAMPLES),
    },
    "grid": {axis: _floats(None if axis == "e" else 0.0, strict=axis == "t2_star")
             for axis in GRID_AXES},
}


def _read_sections(text):
    parser = configparser.ConfigParser(delimiters=("=",), comment_prefixes=("#",),
                                       inline_comment_prefixes=("#",), interpolation=None,
                                       strict=True)
    parser.optionxform = str
    has_run = any(line.strip() == "[run]" for line in text.splitlines())
    try:
        parser.read_string(text if has_run else "[run]\n" + text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}")
    for section in parser.sections():
        if section not in _KEYS:
            raise ConfigError(f"unknown section [{section}]")
    return {s: dict(parser.items(s)) for s in parser.sections()}


def _param_fields(name, value):
    """The SystemParams fields that a [params] key or [grid] axis sets."""
    if name == "e":
        return {"e_plus": value, "e_minus": -value}
    if name == "omega":
        return {"omega_e": value, "omega_n": value}
    return {name: value}


def _parse_section(section, items):
    """The values of one section from their raw texts (or values, rendered
    first), by the ``_KEYS`` parsers; an unknown key or a bad value raises
    ConfigError naming ``[section] key``."""
    for key in items:
        if key not in _KEYS[section]:
            what = f"axis; expected one of {', '.join(GRID_AXES)}" if section == "grid" else "key"
            raise ConfigError(f"[{section}] {key}: unknown {what}")
    return _check_values(section, _KEYS[section], items)


def _pairs(name, value):
    """The key-value pairs of field ``name`` as a dict; anything else is a
    ConfigError."""
    try:
        return dict(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{name}: expected key-value pairs, got {value!r}") from None


def parse_config(text):
    """Parse config text into an ExperimentConfig (strict)."""
    sections = _read_sections(text)
    parsed = {section: _parse_section(section, sections.get(section, {})) for section in _KEYS}
    return ExperimentConfig(
        **{"output" if key == "out" else key: value for key, value in parsed["run"].items()},
        param_overrides=parsed["params"],
        grid=tuple(parsed["grid"].items()),
        pulse=PulseOptions(**parsed["pulse"]),
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


def render_config(run=None, params=None, pulse=None, grid=None):
    """Render section dicts back into parseable config text.

    Inverse of :func:`parse_config` for the keys it emits; floats use repr
    so values survive the round trip exactly.
    """
    lines = []
    for key, value in (run or {}).items():
        lines.append(f"{key} = {_format_value(value, listed=True)}")
    for section, mapping in (("params", params), ("pulse", pulse), ("grid", grid)):
        if mapping:
            lines.append("")
            lines.append(f"[{section}]")
            for key, value in mapping.items():
                lines.append(f"{key} = {_format_value(value, listed=True)}")
    return "\n".join(lines) + "\n"
