"""Workload inputs: one darksteady CLI invocation per operation.

Every operation gets its own config, made from (workload, seed, index) by a
stdlib RNG, so the same seed always gives the same inputs and no two
operations of a run share one.  Inputs differ by relative parameter offsets
of at most OFFSET (and, for the quasi-static workload, a fresh noise seed):
small enough that the work per operation does not change (same step size,
same horizon, same grid shape), large enough that a cache keyed on an
identical config never hits.

Index 0 is the fixed operation: its inputs depend on the workload alone.
Every run starts with it; indices 1, 2, ... are made with the run's --seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

OFFSET = 1e-6
FIXED_SEED = 0
# Configs written at set-up (index 0 and the first timed operations); a run
# that gets further writes the rest as it goes, outside the timed calls.
PREGENERATED = 64

# Quasi-static T2* noise: fig3 at T2* ~ 10 us with few cycles, many samples.
QS_CYCLES = 25
QS_SAMPLES = 20
# Markovian T2* dephasing: fig3 with thousands of cycles.
MK_CYCLES = 2000
T2_STAR = 10.0
TAU = 0.02
PUMP_E = 30.0
PUMP_DURATION = 0.1
# Decay rates (and the drives each workload uses) are written into every
# config, so the reference reads them from the inputs, not from defaults.
RATES = {"gamma_plus": 30.0, "gamma_minus": 30.0, "gamma_zero": 40.0}
# Two-nuclei sweep with drive asymmetry and the matched electron drive
# omega_e = sqrt(2) * omega_n * mean(asymmetry).
GRID_ASYMMETRY = (1.0, 0.8)
GRID_OMEGA_N = 1.0
GRID_E = (5.0, 10.0, 20.0)
GRID_G = (1.5, 2.5, 3.5)

WORKLOADS = ("continuous", "quasistatic", "markovian", "grid")


@dataclass(frozen=True)
class OpInput:
    """One operation: the CLI experiment, its --seed and its config sections."""

    workload: str
    index: int
    experiment: str
    seed: int
    run: dict = field(default_factory=dict)
    params: dict = field(default_factory=dict)
    pulse: dict = field(default_factory=dict)
    grid: dict = field(default_factory=dict)

    def config_text(self):
        lines = [f"{k} = {_fmt(v)}" for k, v in self.run.items()]
        for name, section in (("params", self.params), ("pulse", self.pulse),
                              ("grid", self.grid)):
            if section:
                lines += ["", f"[{name}]"]
                lines += [f"{k} = {_fmt(v)}" for k, v in section.items()]
        return "\n".join(lines) + "\n"

    def argv(self, config_path, out_dir):
        return [self.experiment, "--config", str(config_path), "--out", str(out_dir),
                "--seed", str(self.seed)]


def _fmt(value):
    if isinstance(value, (tuple, list)):
        return ", ".join(_fmt(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _jitter(rng, value):
    return value * (1.0 + OFFSET * rng.uniform(-1.0, 1.0))


def make_input(workload, seed, index):
    """The inputs of operation ``index`` of a run of ``workload`` with ``seed``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}:{index}")
    cli_seed = rng.randrange(2**31)
    if workload == "continuous":
        return OpInput(workload, index, "fig2", cli_seed,
                       params={"omega_e": 1.0, "omega_n": 1.0, "g": _jitter(rng, 2.5),
                               "e": _jitter(rng, 10.0), **RATES})
    if workload in ("quasistatic", "markovian"):
        quasi = workload == "quasistatic"
        pulse = {
            "tau": TAU,
            "pump_e": _jitter(rng, PUMP_E),
            "pump_duration": PUMP_DURATION,
            "noise_mode": "quasistatic" if quasi else "markovian",
        }
        if quasi:
            pulse["noise_samples"] = QS_SAMPLES
        return OpInput(workload, index, "fig3", cli_seed,
                       run={"cycles": QS_CYCLES if quasi else MK_CYCLES},
                       params={"omega_n": 1.0, "g": 2.5, "t2_star": _jitter(rng, T2_STAR),
                               **RATES},
                       pulse=pulse)
    mean_asym = sum(GRID_ASYMMETRY) / len(GRID_ASYMMETRY)
    return OpInput(
        workload, index, "sweep", cli_seed,
        params={
            "variant": "two-nuclei-spin-half",
            "asymmetry": GRID_ASYMMETRY,
            "omega_n": GRID_OMEGA_N,
            "omega_e": math.sqrt(2.0) * GRID_OMEGA_N * mean_asym,
            **RATES,
        },
        grid={"e": tuple(_jitter(rng, v) for v in GRID_E),
              "g": tuple(_jitter(rng, v) for v in GRID_G)},
    )


def fixed_input(workload):
    """The fixed operation of a workload, the same in every run."""
    return make_input(workload, FIXED_SEED, 0)


def write_inputs(workload, seed, indices, directory):
    """Write the configs of ``indices``; returns {index: (OpInput, path)}."""
    directory.mkdir(parents=True, exist_ok=True)
    out = {}
    for k in indices:
        op = fixed_input(workload) if k == 0 else make_input(workload, seed, k)
        path = directory / f"op{k}.ini"
        path.write_text(op.config_text(), encoding="utf-8")
        out[k] = (op, path)
    return out
