"""Output checks of one operation: physical properties and the reference.

Each check returns a list of ``(name, message)`` failures; an empty list
means the output passed.  The expected values come from the paper's
claims and from the independent model in ``reference.py``, never from a
stored copy of earlier output.
"""

from __future__ import annotations

import itertools
import math

import reference

INITIAL_FIDELITY = 1.0 / 9.0  # target's 4 ground amplitudes of 1/2 over 9 levels
INITIAL_TOL = 1e-11  # the CSV carries 12 significant digits
BOUNDS_TOL = 1e-12
TRACE_DEV_MAX = 1e-9
FINAL_FIDELITY_MIN = 1.0 - 1e-6
GRID_MIN = 1.0 - 1e-9
CONTINUOUS_REF_TOL = 1e-6
PULSED_REF_TOL = 1e-9
GAP_REF_RTOL = 1e-8


def parse_csv(text):
    """Columns of data.csv as {name: [float, ...]} (header lines skipped)."""
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    names = lines[0].split(",")
    rows = [[float(cell) for cell in line.split(",")] for line in lines[1:] if line]
    return {name: [row[i] for row in rows] for i, name in enumerate(names)}


def _shape_failures(op, cols):
    if op.workload == "continuous":
        need = ["time_us", "fidelity", "purity", "trace_dev"]
    elif op.workload == "grid":
        need = ["e", "g", "fidelity", "purity", "spectral_gap_per_us", "unique"]
    else:
        need = ["cycle"] + [f"{q}_{v}" for q in ("fidelity", "purity")
                            for v in ("ideal", "uncorrected", "corrected")]
    missing = [name for name in need if name not in cols]
    if missing:
        return [("shape", f"missing columns {missing}")]
    if op.workload == "continuous":
        t = cols["time_us"]
        if len(t) < 2 or t[0] != 0.0 or any(b <= a for a, b in zip(t, t[1:])):
            return [("shape", "time_us must start at 0 and increase")]
    elif op.workload == "grid":
        points = list(itertools.product(op.grid["e"], op.grid["g"]))
        coords = list(zip(cols["e"], cols["g"]))
        if len(coords) != len(points) or any(
            not math.isclose(a, b, rel_tol=1e-11)
            for p, q in zip(points, coords) for a, b in zip(p, q)
        ):
            return [("shape", f"grid rows {coords} do not match the grid {points}")]
    elif cols["cycle"] != [float(c) for c in range(op.run["cycles"] + 1)]:
        return [("shape", f"expected cycles 0..{op.run['cycles']}")]
    return []


def _header_failures(op, text):
    from darksteady.config import parse_config
    from darksteady.errors import ConfigError
    from darksteady.experiments import extract_header_config

    try:
        cfg = parse_config(extract_header_config(text))
    except ConfigError as exc:
        return [("header", f"header does not parse: {exc}")]
    expected = {"experiment": (cfg.experiment, op.experiment), "seed": (cfg.seed, op.seed)}
    for key, value in op.run.items():
        expected[f"run.{key}"] = (getattr(cfg, key), value)
    for key, value in op.params.items():
        if key == "e":
            expected["params.e"] = (
                (cfg.param_overrides.get("e_plus"), cfg.param_overrides.get("e_minus")),
                (value, -value),
            )
        else:
            expected[f"params.{key}"] = (cfg.param_overrides.get(key), value)
    for key, value in op.pulse.items():
        expected[f"pulse.{key}"] = (getattr(cfg.pulse, key), value)
    grid = dict(cfg.grid)
    for key, value in op.grid.items():
        expected[f"grid.{key}"] = (grid.get(key), tuple(value))
    return [("header", f"{key}: header has {got!r}, input was {want!r}")
            for key, (got, want) in expected.items() if got != want]


def property_failures(op, text):
    """Checks on every operation: the paper's invariants and the header."""
    try:
        cols = parse_csv(text)
    except (IndexError, ValueError) as exc:
        return [("shape", f"data.csv does not parse: {exc}")]
    out = _shape_failures(op, cols)
    if out:
        return out
    fid_cols = [name for name in cols if name.startswith("fidelity")]
    pur_cols = [name for name in cols if name.startswith("purity")]
    if op.workload != "grid":
        for name in fid_cols:
            if abs(cols[name][0] - INITIAL_FIDELITY) > INITIAL_TOL:
                out.append(("initial_fidelity", f"{name}[0] = {cols[name][0]!r}, expected 1/9"))
    for name in fid_cols + pur_cols:
        bad = [x for x in cols[name] if not -BOUNDS_TOL <= x <= 1.0 + BOUNDS_TOL]
        if bad:
            out.append(("bounds", f"{name} leaves [0, 1]: {bad[:3]}"))
    if "trace_dev" in cols and max(cols["trace_dev"]) > TRACE_DEV_MAX:
        out.append(("trace_dev", f"max trace_dev {max(cols['trace_dev'])!r} > {TRACE_DEV_MAX}"))
    if op.workload == "continuous" and cols["fidelity"][-1] < FINAL_FIDELITY_MIN:
        out.append(("final_fidelity", f"final fidelity {cols['fidelity'][-1]!r} < 1 - 1e-6"))
    if op.workload == "grid":
        for i, unique in enumerate(cols["unique"]):
            fid, pur, gap = (cols[k][i] for k in ("fidelity", "purity", "spectral_gap_per_us"))
            if unique != 1 or not (fid >= GRID_MIN and pur >= GRID_MIN and gap > 0):
                out.append(("grid_attractor",
                            f"point {i}: unique={unique} F={fid!r} P={pur!r} gap={gap!r}"))
    return out + _header_failures(op, text)


def reference_failures(op, text):
    """Compare the output with the independent model of ``reference.py``."""
    cols = parse_csv(text)
    if op.workload == "continuous":
        n = len(cols["time_us"])
        rows = sorted({1, n // 4, n // 2, n - 1})
        times = [cols["time_us"][i] for i in rows]
        want = reference.continuous_fidelities(op.params, times)
        got = [cols["fidelity"][i] for i in rows]
        return [("reference", f"fidelity at t={t!r}: {a!r}, exact {b!r}")
                for t, a, b in zip(times, got, want) if abs(a - b) > CONTINUOUS_REF_TOL]
    if op.workload == "grid":
        j = op.index % len(cols["unique"])
        e, g = list(itertools.product(op.grid["e"], op.grid["g"]))[j]
        want = reference.spectral_gap(op.params, g, e)
        got = cols["spectral_gap_per_us"][j]
        if abs(got - want) > GAP_REF_RTOL * abs(want):
            return [("reference", f"gap at point {j}: {got!r}, reference {want!r}")]
        return []
    t2 = op.params["t2_star"]
    detunings = None
    if op.pulse["noise_mode"] == "quasistatic":
        detunings = reference.quasistatic_detunings(op.seed, t2, op.pulse["noise_samples"])
    curves = reference.pulsed_fidelities(op.params, op.pulse, op.run["cycles"], detunings)
    out = []
    for variant, want in zip(("ideal", "uncorrected", "corrected"), curves):
        got = cols[f"fidelity_{variant}"]
        worst = max(range(len(want)), key=lambda c: abs(got[c] - want[c]))
        if abs(got[worst] - want[worst]) > PULSED_REF_TOL:
            out.append(("reference", f"fidelity_{variant} at cycle {worst}: "
                                     f"{got[worst]!r}, reference {want[worst]!r}"))
    return out
