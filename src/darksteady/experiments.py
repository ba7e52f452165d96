"""Experiment drivers: resolve a config, run the physics, write the output
files (data.csv, summary.txt, plot.gp).

Output conventions
------------------
``data.csv`` starts with a metadata header.  Lines beginning ``## `` are
free-form notes; lines beginning ``# `` are the fully resolved configuration
and strip back into parseable config text (see
:func:`extract_header_config`), so a run is reproducible from its output
file alone.  Data cells carry 12 significant digits; header floats use repr
so the resolved config round-trips exactly.

``summary.txt`` holds the scalar results, including the steady-state
uniqueness certificate where one is computed.  ``plot.gp`` is a gnuplot
script referencing only data.csv; plotting is optional and external.

All drivers are deterministic for a fixed config and seed.  Files are
written only after a run finishes, and anything partially written is
removed on failure.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import replace

import numpy as np

from . import engine, model, pulses
from .config import render_config, resolve_params
from .errors import ConfigError, NonUniqueSteadyState, NumericalError
from .linalg import expm, kron, unvectorize, vectorize
from .model import VARIANT_SINGLE, VARIANT_TWO
from .version import __version__

__all__ = ["extract_header_config", "run_experiment"]

_SAMPLE_INTERVAL = 0.05  # us between CSV rows of continuous runs
_RESIDUAL_TARGET = 1e-8  # operational "steady state reached" criterion
_MAX_HORIZON = 2000.0  # us; longest run, fixed or to convergence
_PAD_FRACTION = 0.2  # extra integration past convergence, shows the plateau
_CHECK_EVERY = 20  # samples per residual check, i.e. every 1 us


def _fmt_cell(value):
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return "%.12g" % float(value)


def _csv_text(header_lines, columns, rows):
    out = list(header_lines)
    out.append(",".join(columns))
    for row in rows:
        out.append(",".join(_fmt_cell(v) for v in row))
    return "\n".join(out) + "\n"


def _summary_text(pairs):
    return "\n".join(f"{key} = {_fmt_cell(value)}" for key, value in pairs) + "\n"


def _header_lines(notes, run, params, pulse=None, grid=None):
    lines = [f"## darksteady {__version__}"]
    for note in notes:
        lines.append(f"## {note}")
    cfg_text = render_config(run=run, params=params, pulse=pulse, grid=grid)
    for line in cfg_text.splitlines():
        lines.append(f"# {line}" if line else "#")
    return lines


def extract_header_config(text):
    """Recover the resolved-config text embedded in an output file header."""
    out = []
    for line in text.splitlines():
        if line.startswith("##"):
            continue
        if line == "#":
            out.append("")
        elif line.startswith("# "):
            out.append(line[2:])
        else:
            break
    return "\n".join(out) + "\n"


def _params_section(p):
    return {
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


def _pulse_section(opts, tau):
    return {
        "tau": tau,
        "pump_duration": opts.pump_duration,
        "pump_e": opts.pump_e,
        "nuclear_duration": opts.nuclear_duration,
        "electron_duration": opts.electron_duration,
        "axis": opts.axis,
        "correction": opts.correction,
        "dd_filter": opts.dd_filter,
        "noise_mode": opts.noise_mode,
        "noise_samples": opts.noise_samples,
    }


_UNIT_NOTE = "units: drives/rates in MHz, times in us; internal angular units 2*pi*MHz"
_SIGN_NOTE = "optical sign convention: e_minus = -e_plus makes the symmetric electron superposition dark"
_RECORD_NOTE = "pulsed samples are taken after the free-evolution segment of each cycle"


def _write_outputs(outdir, files):
    os.makedirs(outdir, exist_ok=True)
    written = []
    try:
        for name, text in files.items():
            path = os.path.join(outdir, name)
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
            written.append(path)
    except BaseException:
        for path in written:
            try:
                os.remove(path)
            except OSError:
                pass
        raise


# ---------------------------------------------------------------------------
# continuous-evolution machinery


def _liouvillian(p):
    return engine.build_liouvillian(
        model.build_hamiltonian(p), model.build_collapse_ops(p), p.layout
    )


def _sample_loop(liouv, rho0, target, step, delta, n=None):
    """Apply the sample map ``step`` (``delta`` us per sample) ``n`` times.

    With n = None the run goes to convergence instead: the stationarity
    residual is checked every _CHECK_EVERY samples, and once it is below
    _RESIDUAL_TARGET after c checks, ceil(_PAD_FRACTION * c) more chunks
    of _CHECK_EVERY samples show the plateau.  Returns the trajectory (with
    states) and the converged time (None for a fixed n).
    """
    v = vectorize(rho0)
    states = [unvectorize(v, liouv.dim)]
    converged = None
    k = 0
    while n is None or k < n:
        v = step @ v
        k += 1
        states.append(unvectorize(v, liouv.dim))
        if n is None and k % _CHECK_EVERY == 0:
            if engine.stationarity_residual(liouv, states[-1]) < _RESIDUAL_TARGET:
                converged = k * delta
                n = k + _CHECK_EVERY * math.ceil(_PAD_FRACTION * (k // _CHECK_EVERY))
            elif k * delta > _MAX_HORIZON:
                raise NumericalError(
                    f"no convergence below {_RESIDUAL_TARGET:.0e} within {_MAX_HORIZON} us"
                )
    times = [i * delta for i in range(k + 1)]
    return engine.Trajectory.from_states(times, states, target, keep_states=True), converged


def _continuous_run(cfg, liouv, rho0, target):
    """Sample a continuous run every _SAMPLE_INTERVAL up to cfg.t_end, or to
    convergence plus padding when t_end is unset.

    Returns (trajectory with states, resolved run keys, converged time).
    """
    resolved = {}
    n = None
    if cfg.integrator == "rk4":
        # Default step sits at the stability guard; callers may go smaller.
        dt = cfg.dt if cfg.dt is not None else 0.1 / liouv.norm_bound()
        resolved["dt"] = dt
        sample_every = max(1, int(round(_SAMPLE_INTERVAL / dt)))
        if cfg.t_end is not None:
            traj = engine.evolve_fixed_step(
                rho0, liouv, cfg.t_end, dt, sample_every=sample_every, target=target,
                store_states=True,
            )
            resolved["t_end"] = cfg.t_end
            return traj, resolved, None
        delta = sample_every * dt
        step = engine.rk4_map(liouv, dt, sample_every)
    else:
        delta = _SAMPLE_INTERVAL
        if cfg.t_end is not None:
            n = max(1, int(math.ceil(cfg.t_end / delta - 1e-12)))
            delta = cfg.t_end / n
        step = expm(liouv.matrix, delta)
    traj, converged = _sample_loop(liouv, rho0, target, step, delta, n)
    resolved["t_end"] = cfg.t_end if cfg.t_end is not None else traj.times[-1]
    return traj, resolved, converged


def _run_section(cfg, experiment, resolved):
    run = {"experiment": experiment, "seed": cfg.seed, "integrator": cfg.integrator}
    run.update(resolved)
    return run


def _unique_pairs(res, target):
    """Summary fields of a unique steady state."""
    return [
        ("steady_state_unique", "true"),
        ("null_dimension", res.null_dimension),
        ("spectral_gap_per_us", res.spectral_gap),
        ("steady_fidelity", engine.fidelity(res.rho, target)),
        ("steady_purity", engine.purity(res.rho)),
    ]


def _certificate_pairs(liouv, target):
    """Steady-state summary fields; tolerant of a degenerate null space."""
    try:
        res = engine.steady_state(liouv)
    except NonUniqueSteadyState as exc:
        return [
            ("steady_state_unique", "false"),
            ("null_dimension", exc.null_dimension),
            ("spectral_gap_per_us", exc.spectral_gap),
        ]
    return _unique_pairs(res, target)


_GP_XY = """set datafile separator ","
set datafile commentschars "#"
set key autotitle columnhead
set xlabel "{xlabel}"
set ylabel "{ylabel}"
set yrange [0:1.05]
plot {plots}
"""


def _plot_script(xlabel, ylabel, spec):
    plots = ", \\\n     ".join(
        f'"data.csv" using {using} with lines title "{title}"' for using, title in spec
    )
    return _GP_XY.format(xlabel=xlabel, ylabel=ylabel, plots=plots)


def _population_columns(variant):
    return [f"p_{lab}" for lab in model.basis_labels(variant)]


def _time_series_rows(samples, extra=None):
    rows = []
    for i, t in enumerate(samples.times):
        row = [t, samples.fidelity[i], samples.purity[i]]
        if extra is not None:
            row.extend(extra[i])
        row.extend(samples.populations[i])
        row.append(samples.trace_deviation[i])
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# experiments


def _require_variant(cfg, variant, experiment):
    explicit = cfg.param_overrides.get("variant")
    if explicit is not None and explicit != variant:
        raise ConfigError(f"{experiment} runs the {variant} variant, got {explicit}")


def _run_fig2(cfg):
    _require_variant(cfg, VARIANT_SINGLE, "fig2")
    p = resolve_params(cfg, {"variant": VARIANT_SINGLE})
    target = model.default_target(p.variant)
    liouv = _liouvillian(p)
    rho0 = model.mixed_ground_state(p.variant)
    samples, resolved, converged = _continuous_run(cfg, liouv, rho0, target)

    # fig2 asserts a unique attractor, so NonUniqueSteadyState propagates.
    res = engine.steady_state(liouv)
    endpoint_gap = float(np.abs(samples.states[-1] - res.rho).max())

    run = _run_section(cfg, "fig2", resolved)
    header = _header_lines([_UNIT_NOTE, _SIGN_NOTE], run, _params_section(p))
    columns = ["time_us", "fidelity", "purity"] + _population_columns(p.variant) + ["trace_dev"]
    data = _csv_text(header, columns, _time_series_rows(samples))
    summary = _summary_text(
        [
            ("experiment", "fig2"),
            ("final_time_us", samples.times[-1]),
            ("converged_time_us", converged if converged is not None else "none"),
            ("final_fidelity", samples.fidelity[-1]),
            ("final_purity", samples.purity[-1]),
            ("final_residual_per_us", engine.stationarity_residual(liouv, samples.states[-1])),
            ("endpoint_vs_steady_maxnorm", endpoint_gap),
        ]
        + _unique_pairs(res, target)
    )
    plot = _plot_script(
        "time (us)", "F, P",
        [("1:2", "fidelity"), ("1:3", "purity")],
    )
    return {"data.csv": data, "summary.txt": summary, "plot.gp": plot}


def _run_evolve(cfg):
    p = resolve_params(cfg)
    target = model.default_target(p.variant)
    liouv = _liouvillian(p)
    rho0 = model.mixed_ground_state(p.variant)
    horizon_cfg = cfg if cfg.t_end is not None else replace(cfg, t_end=10.0)
    samples, resolved, _ = _continuous_run(horizon_cfg, liouv, rho0, target)

    cert = _certificate_pairs(liouv, target)
    run = _run_section(cfg, "evolve", resolved)
    header = _header_lines([_UNIT_NOTE, _SIGN_NOTE], run, _params_section(p))
    columns = ["time_us", "fidelity", "purity"] + _population_columns(p.variant) + ["trace_dev"]
    data = _csv_text(header, columns, _time_series_rows(samples))
    summary = _summary_text(
        [
            ("experiment", "evolve"),
            ("final_time_us", samples.times[-1]),
            ("final_fidelity", samples.fidelity[-1]),
            ("final_purity", samples.purity[-1]),
            ("max_trace_deviation", samples.trace_deviation.max()),
        ]
        + cert
    )
    plot = _plot_script("time (us)", "F, P", [("1:2", "fidelity"), ("1:3", "purity")])
    return {"data.csv": data, "summary.txt": summary, "plot.gp": plot}


def _run_steady(cfg):
    p = resolve_params(cfg)
    target = model.default_target(p.variant)
    liouv = _liouvillian(p)
    res = engine.steady_state(liouv)  # NonUniqueSteadyState propagates (exit 4)
    cert = _unique_pairs(res, target)
    residual = engine.stationarity_residual(liouv, res.rho)

    run = _run_section(cfg, "steady", {})
    header = _header_lines([_UNIT_NOTE, _SIGN_NOTE], run, _params_section(p))
    columns = ["fidelity", "purity", "spectral_gap_per_us", "null_dimension"]
    values = dict(cert)
    row = [values["steady_fidelity"], values["steady_purity"], res.spectral_gap,
           res.null_dimension]
    data = _csv_text(header, columns, [row])
    summary = _summary_text(
        [("experiment", "steady")] + cert
        + [("stationarity_residual_per_us", residual)]
    )
    plot = _plot_script("index", "fidelity", [("0:1", "steady fidelity")])
    return {"data.csv": data, "summary.txt": summary, "plot.gp": plot}


_AXIS_SETTERS = {
    "e": lambda v: {"e_plus": v, "e_minus": -v},
    "omega": lambda v: {"omega_e": v, "omega_n": v},
}


def _sweep_rows(cfg, grid):
    names = [name for name, _ in grid]
    value_lists = [values for _, values in grid]
    rows = []
    n_nonunique = 0
    for combo in itertools.product(*value_lists):
        overrides = {}
        for name, value in zip(names, combo):
            overrides.update(_AXIS_SETTERS.get(name, lambda v, _n=name: {_n: v})(value))
        merged = dict(cfg.param_overrides)
        merged.update(overrides)
        p = resolve_params(replace(cfg, param_overrides=merged))
        target = model.default_target(p.variant)
        liouv = _liouvillian(p)
        try:
            res = engine.steady_state(liouv)
            row = list(combo) + [
                engine.fidelity(res.rho, target),
                engine.purity(res.rho),
                res.spectral_gap,
                1,
            ]
        except NonUniqueSteadyState as exc:
            n_nonunique += 1
            row = list(combo) + [math.nan, math.nan, exc.spectral_gap, 0]
        rows.append(row)
    return names, rows, n_nonunique


def _sweep_files(cfg, grid, experiment):
    names, rows, n_nonunique = _sweep_rows(cfg, grid)
    p_base = resolve_params(cfg)
    run = _run_section(cfg, experiment, {})
    header = _header_lines(
        [_UNIT_NOTE, _SIGN_NOTE],
        run,
        _params_section(p_base),
        grid={name: values for name, values in grid},
    )
    columns = names + ["fidelity", "purity", "spectral_gap_per_us", "unique"]
    data = _csv_text(header, columns, rows)
    unique_fids = [r[len(names)] for r in rows if r[-1] == 1]
    summary = _summary_text(
        [
            ("experiment", experiment),
            ("grid_points", len(rows)),
            ("nonunique_points", n_nonunique),
            ("min_fidelity", min(unique_fids) if unique_fids else "none"),
            ("max_fidelity", max(unique_fids) if unique_fids else "none"),
        ]
    )
    ycol = len(names) + 1
    plot = _plot_script(names[0], "steady-state fidelity", [(f"1:{ycol}", "fidelity")])
    return {"data.csv": data, "summary.txt": summary, "plot.gp": plot}


def _run_sweep(cfg):
    if not cfg.grid:
        raise ConfigError("sweep needs a [grid] section with at least one axis")
    return _sweep_files(cfg, cfg.grid, "sweep")


_DEFAULT_INSET_GRID = (("e", (5.0, 10.0, 20.0)), ("omega", (0.5, 1.0, 2.0)))


def _run_fig2_inset(cfg):
    grid = cfg.grid if cfg.grid else _DEFAULT_INSET_GRID
    return _sweep_files(cfg, grid, "fig2-inset")


def _run_fig3(cfg):
    _require_variant(cfg, VARIANT_SINGLE, "fig3")
    if cfg.pulse.correction:
        raise ConfigError(
            "fig3 computes corrected and uncorrected curves itself; "
            "'correction' must stay false"
        )
    p = resolve_params(cfg, {"variant": VARIANT_SINGLE})
    tau = cfg.pulse.tau if cfg.pulse.tau is not None else 0.02
    cycles = cfg.cycles if cfg.cycles is not None else 200
    opts = cfg.pulse
    rho0 = model.mixed_ground_state(p.variant)

    def seq(tau_k, correction):
        return pulses.standard_cycle(
            p, tau=tau_k, cycles=cycles, correction=correction,
            pump_duration=opts.pump_duration, pump_e=opts.pump_e,
            nuclear_duration=opts.nuclear_duration,
            electron_duration=opts.electron_duration, axis=opts.axis,
            dd_filter=opts.dd_filter,
        )

    kw = dict(noise_mode=opts.noise_mode, noise_samples=opts.noise_samples,
              seed=cfg.seed)
    ideal = pulses.run_sequence(rho0, seq(0.0, False), p, **kw)
    uncorr = pulses.run_sequence(rho0, seq(tau, False), p, **kw)
    corr = pulses.run_sequence(rho0, seq(tau, True), p, **kw)

    run = _run_section(cfg, "fig3", {"cycles": cycles})
    header = _header_lines(
        [_UNIT_NOTE, _SIGN_NOTE, _RECORD_NOTE],
        run,
        _params_section(p),
        pulse=_pulse_section(opts, tau),
    )
    columns = [
        "cycle", "time_us",
        "fidelity_ideal", "fidelity_uncorrected", "fidelity_corrected",
        "purity_ideal", "purity_uncorrected", "purity_corrected",
    ]
    rows = [
        [
            int(ideal.cycles[i]), ideal.times[i],
            ideal.fidelity[i], uncorr.fidelity[i], corr.fidelity[i],
            ideal.purity[i], uncorr.purity[i], corr.purity[i],
        ]
        for i in range(len(ideal.times))
    ]
    data = _csv_text(header, columns, rows)

    tail = max(1, cycles // 5)
    eps = pulses.dd_error(p.g, p.omega_n, tau)
    summary = _summary_text(
        [
            ("experiment", "fig3"),
            ("cycles", cycles),
            ("tau_us", tau),
            ("dd_error_rad", eps),
            ("plateau_ideal", float(np.mean(ideal.fidelity[-tail:]))),
            ("plateau_uncorrected", float(np.mean(uncorr.fidelity[-tail:]))),
            ("plateau_corrected", float(np.mean(corr.fidelity[-tail:]))),
            ("max_ideal", float(ideal.fidelity.max())),
            ("max_uncorrected", float(uncorr.fidelity.max())),
            ("max_corrected", float(corr.fidelity.max())),
        ]
    )
    plot = _plot_script(
        "optical cycle N", "fidelity",
        [("1:3", "tau = 0"), ("1:4", "uncorrected"), ("1:5", "corrected")],
    )
    return {"data.csv": data, "summary.txt": summary, "plot.gp": plot}


_DEFAULT_T2_VALUES = (1.0, 5.0, 10.0, 50.0, 100.0)


def _run_t2_inset(cfg):
    _require_variant(cfg, VARIANT_SINGLE, "t2-inset")
    # Feasibility defaults: slower hyperfine g = 2 MHz, ~2 ms of cycles.
    defaults = {"variant": VARIANT_SINGLE}
    if "g" not in cfg.param_overrides:
        defaults["g"] = 2.0
    p = resolve_params(cfg, defaults)
    tau = cfg.pulse.tau if cfg.pulse.tau is not None else 0.0
    cycles = cfg.cycles if cfg.cycles is not None else 195
    opts = cfg.pulse
    t2_values = _DEFAULT_T2_VALUES
    for name, values in cfg.grid:
        if name != "t2_star":
            raise ConfigError(f"t2-inset sweeps t2_star only, got grid axis {name!r}")
        t2_values = values

    seq = pulses.standard_cycle(
        p, tau=tau, cycles=cycles, correction=opts.correction,
        pump_duration=opts.pump_duration, pump_e=opts.pump_e,
        nuclear_duration=opts.nuclear_duration,
        electron_duration=opts.electron_duration, axis=opts.axis,
        dd_filter=opts.dd_filter,
    )
    kw = dict(noise_mode=opts.noise_mode, noise_samples=opts.noise_samples,
              seed=cfg.seed)
    rows = pulses.t2star_sweep(p, seq, t2_values, **kw)
    rho0 = model.mixed_ground_state(p.variant)
    noiseless = pulses.run_sequence(rho0, seq, replace(p, t2_star=None), **kw)

    run = _run_section(cfg, "t2-inset", {"cycles": cycles})
    header = _header_lines(
        [_UNIT_NOTE, _SIGN_NOTE, _RECORD_NOTE],
        run,
        _params_section(p),
        pulse=_pulse_section(opts, tau),
        grid={"t2_star": tuple(t2 for t2, _ in rows)},
    )
    data = _csv_text(header, ["t2_star_us", "max_fidelity"], rows)
    diffs = [b[1] - a[1] for a, b in zip(rows, rows[1:])]
    summary = _summary_text(
        [
            ("experiment", "t2-inset"),
            ("cycles", cycles),
            ("noiseless_max_fidelity", float(noiseless.fidelity.max())),
            ("monotone_in_t2", "true" if all(d >= -1e-12 for d in diffs) else "false"),
        ]
    )
    plot = _plot_script("T2* (us)", "maximal fidelity", [("1:2", "max fidelity")])
    return {"data.csv": data, "summary.txt": summary, "plot.gp": plot}


def _nuclear_singlet_projector():
    h0 = np.array([1.0, 0.0], dtype=complex)
    h1 = np.array([0.0, 1.0], dtype=complex)
    anti = (np.kron(h1, h0) - np.kron(h0, h1)) / math.sqrt(2.0)
    return kron(np.eye(4, dtype=complex), np.outer(anti, anti.conj()))


def _run_two_nuclei(cfg):
    _require_variant(cfg, VARIANT_TWO, "two-nuclei")
    base = resolve_params(cfg, {"variant": VARIANT_TWO})
    defaults = {"variant": VARIANT_TWO}
    if "omega_e" not in cfg.param_overrides:
        # Matched drive: the two nuclei couple collectively with a sqrt(2)
        # enhancement, so darkness needs omega_e = sqrt(2) * mean drive.
        mean_asym = sum(base.asymmetry) / len(base.asymmetry)
        defaults["omega_e"] = math.sqrt(2.0) * base.omega_n * mean_asym
    p = resolve_params(cfg, defaults)
    target = model.target_states(p.variant).psi_dark_two
    liouv = _liouvillian(p)
    rho0 = model.mixed_ground_state(p.variant)
    horizon_cfg = cfg if cfg.t_end is not None else replace(cfg, t_end=120.0)
    samples, resolved, _ = _continuous_run(horizon_cfg, liouv, rho0, target)

    proj = _nuclear_singlet_projector()
    singlet = [float(np.trace(proj @ rho).real) for rho in samples.states]
    cert = _certificate_pairs(liouv, target)

    run = _run_section(cfg, "two-nuclei", resolved)
    header = _header_lines([_UNIT_NOTE, _SIGN_NOTE], run, _params_section(p))
    columns = (
        ["time_us", "fidelity", "purity", "singlet_population"]
        + _population_columns(p.variant)
        + ["trace_dev"]
    )
    rows = _time_series_rows(samples, extra=[[s] for s in singlet])
    data = _csv_text(header, columns, rows)
    summary = _summary_text(
        [
            ("experiment", "two-nuclei"),
            ("final_time_us", samples.times[-1]),
            ("final_fidelity", samples.fidelity[-1]),
            ("final_purity", samples.purity[-1]),
            ("final_singlet_population", singlet[-1]),
        ]
        + cert
    )
    plot = _plot_script(
        "time (us)", "F, P, singlet",
        [("1:2", "fidelity"), ("1:3", "purity"), ("1:4", "singlet population")],
    )
    return {"data.csv": data, "summary.txt": summary, "plot.gp": plot}


_RUNNERS = {
    "fig2": _run_fig2,
    "fig2-inset": _run_fig2_inset,
    "fig3": _run_fig3,
    "t2-inset": _run_t2_inset,
    "two-nuclei": _run_two_nuclei,
    "steady": _run_steady,
    "evolve": _run_evolve,
    "sweep": _run_sweep,
}


def run_experiment(cfg):
    """Run the configured experiment and write its output files.

    Raises ConfigError for invalid configs, NonUniqueSteadyState when an
    experiment that requires a unique attractor hits a degenerate one, and
    numerical errors from the engine; the CLI maps these to exit codes.
    """
    if cfg.experiment is None:
        raise ConfigError("no experiment selected")
    runner = _RUNNERS.get(cfg.experiment)
    if runner is None:
        raise ConfigError(f"unknown experiment {cfg.experiment!r}")
    if not cfg.output:
        raise ConfigError("no output directory given (CLI --out or 'out' key)")
    if cfg.t_end is not None and cfg.t_end > _MAX_HORIZON:
        raise ConfigError(f"t_end = {cfg.t_end} us exceeds the {_MAX_HORIZON} us limit")
    files = runner(cfg)
    _write_outputs(cfg.output, files)
