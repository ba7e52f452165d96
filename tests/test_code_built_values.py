"""Values built in code are checked by the config format's parsers.

SystemParams, the pulse segments, PulseSequence and run_sequence parse each
value from the text a config file would hold.  Each case below was
mishandled while they checked their values by hand: a string boolean was
stored as a truthy string, a fractional count was truncated, and a None or
a word raised a bare TypeError or ValueError instead of a ConfigError.
The one-element sequences were stored as the number they hold while every
sequence was rendered as a comma-separated list, whatever its key.
"""

import math

import numpy as np
import pytest

from darksteady import model
from darksteady.config import ExperimentConfig
from darksteady.errors import ConfigError
from darksteady.model import SystemParams
from darksteady.pulses import (
    ElectronRotation,
    Idle,
    OpticalPump,
    PulseSequence,
    run_sequence,
    standard_cycle,
)

P = SystemParams()
ONE_IDLE = (Idle(1.0),)


@pytest.mark.parametrize("stored", [
    pytest.param(lambda: SystemParams(asymmetric_hyperfine="false").asymmetric_hyperfine,
                 id="params-hyperfine"),
    pytest.param(lambda: PulseSequence(ONE_IDLE, 1, correction_enabled="false").correction_enabled,
                 id="sequence-correction"),
    pytest.param(lambda: PulseSequence(ONE_IDLE, 1, dd_filter="false").dd_filter,
                 id="sequence-dd-filter"),
    pytest.param(lambda: standard_cycle(P, correction="false").correction_enabled,
                 id="standard-cycle-correction"),
    pytest.param(lambda: standard_cycle(P, dd_filter="false").dd_filter,
                 id="standard-cycle-dd-filter"),
])
def test_string_false_is_false(stored):
    assert stored() is False


def test_standard_cycle_string_false_runs_as_false():
    rho0 = model.mixed_ground_state(P.variant)
    words = run_sequence(rho0, standard_cycle(P, tau=0.02, cycles=3, correction="false",
                                              dd_filter="false"), P)
    flags = run_sequence(rho0, standard_cycle(P, tau=0.02, cycles=3, correction=False,
                                              dd_filter=False), P)
    assert np.array_equal(words.fidelity, flags.fidelity)


@pytest.mark.parametrize("build, message", [
    pytest.param(lambda: PulseSequence(ONE_IDLE, cycles=2.7),
                 r"^\[PulseSequence\] cycles: expected an integer, got '2\.7'$",
                 id="fractional-cycles"),
    pytest.param(lambda: run_sequence(model.mixed_ground_state(P.variant),
                                      PulseSequence(ONE_IDLE, cycles=1), P, noise_samples=2.9),
                 r"^\[run_sequence\] noise_samples: expected an integer, got '2\.9'$",
                 id="fractional-noise-samples"),
    pytest.param(lambda: SystemParams(omega_e=None),
                 r"^\[params\] omega_e: expected a value, got None$", id="params-none"),
    pytest.param(lambda: OpticalPump(duration=None),
                 r"^\[OpticalPump\] duration: expected a value, got None$", id="pump-none"),
    pytest.param(lambda: ElectronRotation(angle=None),
                 r"^\[ElectronRotation\] angle: expected a value, got None$", id="angle-none"),
    pytest.param(lambda: SystemParams(gamma_zero="fast"),
                 r"^\[params\] gamma_zero: expected a number, got 'fast'$", id="params-word"),
    pytest.param(lambda: PulseSequence(ONE_IDLE, cycles=math.nan),
                 r"^\[PulseSequence\] cycles: expected an integer, got 'nan'$", id="cycles-nan"),
    # A one-element sequence is a list, not the number it holds.
    pytest.param(lambda: SystemParams(omega_e=[1.0]),
                 r"^\[params\] omega_e: expected a number, got '\[1\.0\]'$", id="params-list"),
    pytest.param(lambda: OpticalPump(duration=np.array([1.0])),
                 r"^\[OpticalPump\] duration: expected a number, got '\[1\.\]'$",
                 id="pump-array"),
    pytest.param(lambda: ExperimentConfig(param_overrides={"omega_e": [1.0]}),
                 r"^\[params\] omega_e: expected a number, got '\[1\.0\]'$",
                 id="override-list"),
])
def test_bad_value_is_a_config_error(build, message):
    with pytest.raises(ConfigError, match=message):
        build()


def test_message_takes_the_table_form():
    with pytest.raises(ConfigError, match=r"^\[params\] omega_e: must be >= 0\.0, got -1\.0$"):
        SystemParams(omega_e=-1.0)
