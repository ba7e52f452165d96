"""Property tests over every key of the config format (config._KEYS).

Each key has a strategy of valid values and one of malformed raw texts.
Valid values survive render_config -> parse_config unchanged; a malformed
one raises ConfigError whose text names its section and key.  The same
strategies check that ExperimentConfig, PulseOptions, SystemParams and the
pulse segments accept a value built in code exactly when a config file
holding it is accepted, and reject it with the same message.
"""

import string

import pytest

from darksteady import config
from darksteady.config import (
    EXPERIMENTS,
    GRID_AXES,
    INTEGRATORS,
    ExperimentConfig,
    PulseOptions,
    parse_config,
    render_config,
    resolve_params,
)
from darksteady.errors import ConfigError
from darksteady.model import VARIANT_SINGLE, VARIANT_TWO, VARIANTS, SystemParams
from darksteady.pulses import (
    AXES,
    NOISE_MODES,
    ElectronRotation,
    FreeEvolution,
    Idle,
    NuclearRotation,
    OpticalPump,
)

st = pytest.importorskip("hypothesis.strategies")
given = pytest.importorskip("hypothesis").given
settings = pytest.importorskip("hypothesis").settings

# Raw texts no key accepts.
JUNK = st.sampled_from(["", "nan", "inf", "-inf", "1e999", "fast", "1 2", "0x1", "1, nan"])
WORDS = st.text(string.ascii_letters + "-", min_size=1)
BOOL_WORDS = {"true", "false", "1", "0", "yes", "no", "on", "off"}


def below(minimum, strict):
    return st.floats(max_value=minimum, exclude_max=not strict, allow_infinity=False)


def number(minimum=None, strict=False, maximum=None):
    valid = st.floats(min_value=minimum, max_value=maximum, exclude_min=strict,
                      allow_nan=False, allow_infinity=False)
    bad = JUNK if minimum is None else JUNK | below(minimum, strict).map(repr)
    if maximum is not None:
        bad |= st.floats(min_value=maximum, exclude_min=True, allow_infinity=False).map(repr)
    return valid, bad


def integer(minimum, maximum=None):
    outside = st.integers(max_value=minimum - 1)
    if maximum is not None:
        outside |= st.integers(min_value=maximum + 1)
    return st.integers(minimum, maximum), JUNK | outside.map(str) | st.just("1.5")


def choice(options):
    return st.sampled_from(options), JUNK | WORDS.filter(lambda s: s not in options)


def floats(minimum=None, strict=False):
    """Lists of 1 or 2 values; malformed lists hold one value out of range."""
    value = number(minimum, strict)[0]
    valid = st.lists(value, min_size=1, max_size=2).map(tuple)
    if minimum is None:
        return valid, JUNK
    mixed = st.tuples(value, below(minimum, strict)).map(lambda p: f"{p[0]!r}, {p[1]!r}")
    return valid, JUNK | mixed


BOOLEAN = st.booleans(), JUNK | WORDS.filter(lambda s: s.lower() not in BOOL_WORDS)
NONNEGATIVE = number(0.0)
POSITIVE = number(0.0, strict=True)

KEYS = {
    "run": {
        "experiment": choice(EXPERIMENTS),
        "seed": integer(0),
        "integrator": choice(INTEGRATORS),
        "dt": number(1e-300),
        "t_end": number(0.0, strict=True, maximum=2000.0),
        "cycles": integer(0, 40_000),
        "out": (st.text(string.ascii_letters + string.digits + "/._-", min_size=1), None),
    },
    "params": {
        **dict.fromkeys(("omega_e", "omega_n", "g", "gamma_plus", "gamma_minus",
                         "gamma_zero"), NONNEGATIVE),
        **dict.fromkeys(("e", "e_plus", "e_minus"), number()),
        "t2_star": (st.none() | POSITIVE[0], POSITIVE[1]),
        "variant": choice(VARIANTS),
        "asymmetry": floats(0.0),
        "asymmetric_hyperfine": BOOLEAN,
    },
    "pulse": {
        **dict.fromkeys(("tau", "pump_duration", "nuclear_duration", "electron_duration"),
                        NONNEGATIVE),
        "pump_e": number(),
        "axis": choice(AXES),
        "correction": BOOLEAN,
        "dd_filter": BOOLEAN,
        "noise_mode": choice(NOISE_MODES),
        "noise_samples": integer(1, 10_000),
    },
    # At most 2 values per axis keeps every grid under the point limit.
    "grid": {axis: floats(None if axis == "e" else 0.0, strict=axis == "t2_star")
             for axis in GRID_AXES},
}


def test_strategies_cover_every_key():
    assert {s: set(keys) for s, keys in KEYS.items()} == \
        {s: set(keys) for s, keys in config._KEYS.items()}


def section_values(section):
    return st.fixed_dictionaries({}, optional={k: v for k, (v, _) in KEYS[section].items()})


@given(run=section_values("run"), params=section_values("params"),
       pulse=section_values("pulse"), grid=section_values("grid"))
def test_valid_values_round_trip(run, params, pulse, grid):
    if "e" in params:
        params.pop("e_plus", None)
        params.pop("e_minus", None)
    cfg = parse_config(render_config(run=run, params=params, pulse=pulse, grid=grid))
    assert {k: getattr(cfg, "output" if k == "out" else k) for k in run} == run
    overrides = {}
    for key, value in params.items():
        overrides.update(config._param_fields(key, value))
    assert cfg.param_overrides == overrides
    assert cfg.pulse == PulseOptions(**pulse)
    assert cfg.grid == tuple(sorted(grid.items()))


@pytest.mark.parametrize("section, key", [
    (section, key) for section, keys in KEYS.items() for key, (_, bad) in keys.items()
    if bad is not None
])
@given(data=st.data())
def test_malformed_value_names_its_key(section, key, data):
    raw = data.draw(KEYS[section][key][1])
    with pytest.raises(ConfigError) as err:
        parse_config(f"[{section}]\n{key} = {raw}\n")
    assert str(err.value).startswith(f"[{section}] {key}:")


def consistent(key, value):
    """SystemParams fields setting ``key`` to ``value``, with a variant of
    as many nuclei as an asymmetry has factors."""
    if key == "asymmetry":
        return {key: value, "variant": {1: VARIANT_SINGLE, 2: VARIANT_TWO}[len(value)]}
    return {key: value}


@pytest.mark.parametrize("key", sorted(set(KEYS["params"]) - {"e"}))
@settings(max_examples=30)
@given(data=st.data())
def test_system_params_check_like_a_config_file(key, data):
    valid, malformed = KEYS["params"][key]
    values = consistent(key, data.draw(valid))
    assert SystemParams(**values) == resolve_params(parse_config(render_config(params=values)))
    raw = data.draw(malformed)
    with pytest.raises(ConfigError) as from_file:
        parse_config(f"[params]\n{key} = {raw}\n")
    with pytest.raises(ConfigError) as from_code:
        SystemParams(**{key: raw})
    assert str(from_code.value) == str(from_file.value)


# Each segment duration with the [pulse] key that sets it in the standard
# cycle; FreeEvolution and Idle have no key of their own and share the
# rule of every duration, here tau's.
DURATIONS = {
    (OpticalPump, "duration"): "pump_duration",
    (ElectronRotation, "duration"): "electron_duration",
    (FreeEvolution, "duration"): "tau",
    (NuclearRotation, "duration"): "nuclear_duration",
    (NuclearRotation, "dd_interval"): "tau",
    (Idle, "duration"): "tau",
}


def segment(cls, field, value):
    angle = {"angle": 1.0} if cls in (ElectronRotation, NuclearRotation) else {}
    return cls(**angle, **{field: value})


@pytest.mark.parametrize("cls, field", DURATIONS,
                         ids=[f"{cls.__name__}-{field}" for cls, field in DURATIONS])
@settings(max_examples=30)
@given(data=st.data())
def test_segment_durations_check_like_a_config_file(cls, field, data):
    key = DURATIONS[cls, field]
    valid, malformed = KEYS["pulse"][key]
    value = data.draw(valid)
    cfg = parse_config(render_config(pulse={key: value}))
    assert getattr(segment(cls, field, value), field) == getattr(cfg.pulse, key)
    raw = data.draw(malformed)
    with pytest.raises(ConfigError) as from_file:
        parse_config(f"[pulse]\n{key} = {raw}\n")
    with pytest.raises(ConfigError) as from_code:
        segment(cls, field, raw)
    body = str(from_file.value).removeprefix(f"[pulse] {key}: ")
    assert str(from_code.value) == f"[{cls.__name__}] {field}: {body}"


@pytest.mark.parametrize("section, key", [
    (section, key) for section in ("run", "pulse") for key in KEYS[section]
])
@settings(max_examples=30)
@given(data=st.data())
def test_config_objects_check_like_a_config_file(section, key, data):
    """An ExperimentConfig or PulseOptions field set in code parses like
    its key in a file."""
    def build(value):
        if section == "pulse":
            return ExperimentConfig(pulse=PulseOptions(**{key: value}))
        return ExperimentConfig(**{"output" if key == "out" else key: value})

    valid, malformed = KEYS[section][key]
    value = data.draw(valid)
    assert build(value) == parse_config(render_config(**{section: {key: value}}))
    if malformed is None:
        return
    raw = data.draw(malformed)
    with pytest.raises(ConfigError) as from_file:
        parse_config(f"[{section}]\n{key} = {raw}\n")
    with pytest.raises(ConfigError) as from_code:
        build(raw)
    assert str(from_code.value) == str(from_file.value)
