"""Tests of the benchmark itself: tracing counts and bytes, and that every
output check passes on real output and fails on a perturbed one.

    python3 -m pytest perfbench

Operations here are shrunk versions of the workloads (few cycles, few
samples, two grid points) so the file runs in seconds.
"""

import math
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import darksteady  # noqa: E402
import darksteady.cli  # noqa: E402
import darksteady.pulses  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

QS_CYCLES, QS_SAMPLES, MK_CYCLES = 3, 2, 3


def small(workload):
    op = workloads.make_input(workload, 0, 1)
    if workload == "continuous":
        # The exact propagator converges in well under a second.
        return replace(op, run={"integrator": "propagator"})
    if workload == "quasistatic":
        return replace(op, run={"cycles": QS_CYCLES},
                       pulse={**op.pulse, "noise_samples": QS_SAMPLES})
    if workload == "markovian":
        return replace(op, run={"cycles": MK_CYCLES})
    return replace(op, grid={"e": op.grid["e"][:2], "g": op.grid["g"][:1]})


def run_op(op, directory, tracer=None):
    """data.csv text of one CLI call, traced when a tracer is given."""
    config = directory / "op.ini"
    config.write_text(op.config_text(), encoding="utf-8")
    out = directory / ("traced" if tracer else "plain")
    argv = op.argv(config, out)
    if tracer is None:
        assert darksteady.cli.main(argv) == 0
    else:
        tracer.install()
        try:
            assert tracer.run_op(0, lambda: darksteady.cli.main(argv)) == 0
        finally:
            tracer.uninstall()
    return (out / "data.csv").read_text(encoding="utf-8")


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    out = {}
    for workload in workloads.WORKLOADS:
        out[workload] = (small(workload),
                         run_op(small(workload), tmp_path_factory.mktemp(workload)))
    return out


# ---------------------------------------------------------------------------
# tracing


RK4_T_END, RK4_DT = 0.05, 5e-5

HAND_COUNTS = {
    # Per quasi-static sample, each of the 3 sequences builds a pump map
    # (1 Liouvillian, 1 expm, 2 operator sets) and a free-evolution map
    # (1 expm, 2 operator sets): 6 S expm, 3 S Liouvillians, 12 S operator sets.
    "quasistatic": {
        "linalg.expm.calls": 6 * QS_SAMPLES,
        "engine.build_liouvillian.calls": 3 * QS_SAMPLES,
        "model.build_operators.calls": 12 * QS_SAMPLES,
        "pulses.sample_cycles": 3 * QS_CYCLES * QS_SAMPLES,
    },
    # Markovian: maps built once per sequence, pump and dephased free evolution.
    "markovian": {
        "linalg.expm.calls": 6,
        "engine.build_liouvillian.calls": 6,
        "pulses.sample_cycles": 3 * MK_CYCLES,
    },
    # One eigendecomposition (and one steady state) per grid point.
    "grid": {"linalg.eig_full.calls": 2},
    # One fixed-horizon RK4 call: ceil(t_end/dt) steps, then the steady state.
    "continuous": {
        "engine.rk4_steps": math.ceil(RK4_T_END / RK4_DT),
        "linalg.eig_full.calls": 1,
        "linalg.expm.calls": 0,
    },
}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_match_hand_derivation_and_bytes_unchanged(workload, tmp_path):
    op = small(workload)
    if workload == "continuous":
        op = replace(op, run={"t_end": RK4_T_END, "dt": RK4_DT})
    plain = run_op(op, tmp_path)
    tracer = tracing.Tracer(darksteady)
    traced = run_op(op, tmp_path, tracer)
    assert traced.encode() == plain.encode()
    metrics = tracer.per_layer(0.0)
    for name, want in HAND_COUNTS[workload].items():
        assert metrics[name]["value"] == want, name
    assert metrics["cli.main.self_s"]["value"] > 0
    # Self times partition the operation: none negative, and they add up to
    # the root span's duration.
    own = tracer.self_times()
    root = [end - start for _, start, end, parent, _, _ in tracer.spans if parent < 0]
    assert len(root) == 1 and min(own) >= -1e-12
    assert math.isclose(sum(own), root[0], rel_tol=1e-9)
    assert not hasattr(darksteady.linalg.expm, "__wrapped__")
    assert not hasattr(darksteady.experiments.expm, "__wrapped__")


def test_every_binding_is_wrapped_once_installed():
    tracer = tracing.Tracer(darksteady)
    tracer.install()
    try:
        for module in (darksteady.linalg, darksteady.experiments, darksteady.engine,
                       darksteady.pulses, darksteady.model):
            for attr in ("expm", "build_liouvillian", "build_operators", "fidelity"):
                fn = getattr(module, attr, None)
                if fn is not None:
                    assert hasattr(fn, "__wrapped__"), f"{module.__name__}.{attr}"
    finally:
        tracer.uninstall()


def test_distinct_ratio_counts_repeated_inputs(tmp_path):
    tracer = tracing.Tracer(darksteady)
    run_op(small("quasistatic"), tmp_path, tracer)
    metrics = tracer.per_layer(0.0)
    # One operator set for the single variant; the pump map plus one
    # free-evolution map per detuning (the three sequences share the draws).
    assert metrics["model.build_operators.distinct_ratio"]["value"] == 1 / (12 * QS_SAMPLES)
    assert metrics["linalg.expm.distinct_ratio"]["value"] == (1 + QS_SAMPLES) / (6 * QS_SAMPLES)


# ---------------------------------------------------------------------------
# output checks


def perturb(text, column, fn, rows=None):
    """Apply ``fn`` to ``column`` of data.csv (all rows, or the listed ones)."""
    lines = text.splitlines()
    head = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    j = lines[head].split(",").index(column)
    n = len(lines) - head - 1
    chosen = range(n) if rows is None else [r % n for r in rows]
    for r in chosen:
        cells = lines[head + 1 + r].split(",")
        cells[j] = "%.12g" % fn(float(cells[j]))
        lines[head + 1 + r] = ",".join(cells)
    return "\n".join(lines) + "\n"


def failed_checks(op, text, reference=False):
    found = checks.property_failures(op, text)
    if reference:
        found += checks.reference_failures(op, text)
    return {name for name, _ in found}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_real_output_passes_every_check(outputs, workload):
    op, text = outputs[workload]
    assert failed_checks(op, text, reference=True) == set()


PERTURBATIONS = [
    ("continuous", "initial_fidelity", lambda t: perturb(t, "fidelity", lambda x: x + 1e-6, [0])),
    ("quasistatic", "initial_fidelity",
     lambda t: perturb(t, "fidelity_uncorrected", lambda x: x + 1e-6, [0])),
    ("continuous", "bounds", lambda t: perturb(t, "purity", lambda x: 1.001, [5])),
    ("markovian", "bounds", lambda t: perturb(t, "fidelity_ideal", lambda x: -1e-3, [2])),
    ("continuous", "trace_dev", lambda t: perturb(t, "trace_dev", lambda x: 1e-8, [-1])),
    ("continuous", "final_fidelity", lambda t: perturb(t, "fidelity", lambda x: 1 - 2e-6, [-1])),
    ("grid", "grid_attractor", lambda t: perturb(t, "unique", lambda x: 0, [1])),
    ("grid", "grid_attractor", lambda t: perturb(t, "spectral_gap_per_us", lambda x: 0.0, [0])),
    ("grid", "grid_attractor", lambda t: perturb(t, "purity", lambda x: 1 - 1e-8, [0])),
    ("markovian", "shape", lambda t: t.rsplit("\n", 2)[0] + "\n"),
    ("grid", "shape", lambda t: perturb(t, "g", lambda x: x + 1e-3, [0])),
    ("continuous", "header", lambda t: t.replace("# g = 2.5", "# g = 2.6", 1)),
    ("markovian", "header", lambda t: t.replace("# cycles = 3", "# cycles = np.int64(3)", 1)),
    ("quasistatic", "header", lambda t: t.replace("# seed = ", "# seed = 1", 1)),
]


@pytest.mark.parametrize("workload,check,mutate", PERTURBATIONS)
def test_property_check_fails_on_perturbed_output(outputs, workload, check, mutate):
    op, text = outputs[workload]
    bad = mutate(text)
    assert bad != text
    assert check in failed_checks(op, bad)


REFERENCE_PERTURBATIONS = [
    ("continuous", lambda t: perturb(t, "fidelity", lambda x: x + 2e-6, [1, -1])),
    ("quasistatic", lambda t: perturb(t, "fidelity_corrected", lambda x: x + 1e-6, [-1])),
    ("markovian", lambda t: perturb(t, "fidelity_ideal", lambda x: x - 1e-6, [2])),
    ("grid", lambda t: perturb(t, "spectral_gap_per_us", lambda x: x * (1 + 1e-6))),
]


@pytest.mark.parametrize("workload,mutate", REFERENCE_PERTURBATIONS)
def test_reference_check_fails_on_perturbed_output(outputs, workload, mutate):
    op, text = outputs[workload]
    assert "reference" in failed_checks(op, mutate(text), reference=True)


@pytest.mark.parametrize("workload", ["quasistatic", "markovian"])
def test_reference_check_fails_with_correction_sign_flipped(workload, tmp_path, monkeypatch):
    original = darksteady.pulses._electron_overrides

    def flipped(seq, p):
        # pi/2 - eps becomes pi/2 + eps.
        return {i: math.pi - angle for i, angle in original(seq, p).items()}

    monkeypatch.setattr(darksteady.pulses, "_electron_overrides", flipped)
    op = small(workload)
    assert "reference" in failed_checks(op, run_op(op, tmp_path), reference=True)


def test_quasistatic_reference_needs_the_same_detunings(outputs):
    op, text = outputs["quasistatic"]
    assert "reference" in failed_checks(replace(op, seed=op.seed + 1), text, reference=True)
