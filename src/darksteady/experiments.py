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
written only after a run's numbers are computed.  The rows of data.csv
come from one 2-D float table and are formatted a block of rows at a time
as they are written; anything partially written is removed on failure.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import os
from dataclasses import asdict, replace

import numpy as np

from . import engine, model, pulses
from .config import _MAX_HORIZON, _param_fields, render_config, resolve_params
from .errors import ConfigError, NonUniqueSteadyState, NumericalError
from .linalg import HermitianBasis, _one_blas_thread, expm
from .model import VARIANT_SINGLE, VARIANT_TWO
from .version import __version__

__all__ = ["extract_header_config", "run_experiment"]

_SAMPLE_INTERVAL = 0.05  # us between CSV rows of continuous runs
_RESIDUAL_TARGET = 1e-8  # operational "steady state reached" criterion
_PAD_FRACTION = 0.2  # extra integration past convergence, shows the plateau
_CHECK_EVERY = 20  # samples per residual check, i.e. every 1 us
# One pulsed run propagates at most this many sample-cycles, at about 5-6 us
# each on one core in sequences of up to 256 cycles and about 1-2 us in
# longer ones, made by GEMM blocks (measured on a 2-vCPU Xeon, numpy 2.4.6,
# OpenBLAS).  Building a sample's maps takes 1.8-1.9 ms in a run of 20
# samples, which share the rotations, some 300-400 short sample-cycles or
# 1,450-1,750 long ones, but counts as _MAPS_CYCLES of them (the default
# t2-inset admits at most 804), so a run at the limit takes from about 1-2 s
# (all propagation in long sequences) to about 7-8 s (all map builds).
_MAX_SAMPLE_CYCLES = 1_000_000
_MAPS_CYCLES = 250
_CSV_BLOCK = 1024  # data.csv rows per .tolist()


def _fmt_cell(value):
    if isinstance(value, float):  # the common case; np.float64 is a float
        return "%.12g" % value
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return "%.12g" % float(value)


def _csv_lines(header_lines, columns, table):
    """The lines of a data.csv, with one line per row of the 2-D float
    ``table``, formatted _CSV_BLOCK rows at a time.  Its ints (counts,
    flags) are below 1e12, so one format string per row writes what
    _fmt_cell writes per cell."""
    for line in [*header_lines, ",".join(columns)]:
        yield line + "\n"
    fmt = ",".join(["%.12g"] * len(columns)) + "\n"
    for start in range(0, len(table), _CSV_BLOCK):
        for row in table[start:start + _CSV_BLOCK].tolist():
            yield fmt % tuple(row)


def _summary_text(cfg, pairs):
    """summary.txt: the experiment's name, then ``pairs``."""
    pairs = [("experiment", cfg.experiment), *pairs]
    return "\n".join(f"{key} = {_fmt_cell(value)}" for key, value in pairs) + "\n"


def _mirror_pair(*trajectories):
    """The summary field that tells whether every propagation of a run was
    carried in the mirror-even half (engine.Trajectory.mirror_half)."""
    return ("mirror_half", "true" if all(t.mirror_half for t in trajectories) else "false")


def _header_lines(cfg, resolved, p, pulse=None, grid=None):
    """Notes plus the resolved config: the [run] keys with ``resolved``
    added, [params] from the SystemParams ``p`` and, for pulsed runs,
    [pulse] from the resolved PulseOptions ``pulse``."""
    notes = [_UNIT_NOTE, _SIGN_NOTE] + ([_RECORD_NOTE] if pulse is not None else [])
    lines = [f"## darksteady {__version__}"] + [f"## {note}" for note in notes]
    run = {"experiment": cfg.experiment, "seed": cfg.seed, "integrator": cfg.integrator}
    run.update(resolved)
    cfg_text = render_config(
        run=run,
        params=asdict(p),
        pulse=asdict(pulse) if pulse is not None else None,
        grid=grid,
    )
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


_UNIT_NOTE = "units: drives/rates in MHz, times in us; internal angular units 2*pi*MHz"
_SIGN_NOTE = "optical sign convention: e_minus = -e_plus makes the symmetric electron superposition dark"
_RECORD_NOTE = "pulsed samples are taken after the free-evolution segment of each cycle"


def _write_outputs(outdir, files):
    """Write each of ``files`` (name -> text, or an iterable of lines
    written as they come); on failure remove every file begun."""
    os.makedirs(outdir, exist_ok=True)
    begun = []
    try:
        for name, text in files.items():
            path = os.path.join(outdir, name)
            begun.append(path)
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.writelines([text] if isinstance(text, str) else text)
    except BaseException:
        for path in begun:
            with contextlib.suppress(OSError):
                os.remove(path)
        raise


# ---------------------------------------------------------------------------
# continuous-evolution machinery


def _liouvillian(p):
    """The generator of ``p``, with the variant's mirror as its symmetry: its
    steady state and runs share one split (engine.Liouvillian.halves)."""
    return engine.build_liouvillian(model.build_hamiltonian(p), model.build_collapse_ops(p),
                                    p.layout, model.mirror(p.variant))


def _continuous_run(cfg, liouv, rho0, target, observables=None):
    """Sample a continuous run every _SAMPLE_INTERVAL, observing each sample
    as it is taken (``observables`` as in engine.Trajectory.from_coords).
    It is carried in the mirror-even half of ``liouv.halves()`` when rho0
    allows it, as in engine.evolve_fixed_step.

    It runs to cfg.t_end or, when that is unset, to convergence: the
    residual is checked every _CHECK_EVERY samples, and once it is below
    _RESIDUAL_TARGET after c checks, ceil(_PAD_FRACTION * c) more chunks of
    _CHECK_EVERY samples show the plateau.  Returns (trajectory, resolved
    run keys, converged time or None).
    """
    resolved = {}
    n = None
    if cfg.integrator == "rk4":
        # Default step sits at the stability guard; callers may go smaller.
        # With ||L||_1 = 0 every step is stable: one per sample.
        bound = liouv.norm_bound()
        dt = cfg.dt if cfg.dt is not None else (engine._STEP_GUARD / bound if bound
                                                else _SAMPLE_INTERVAL)
        resolved["dt"] = dt
        sample_every = max(1, int(round(_SAMPLE_INTERVAL / dt)))
        if cfg.t_end is not None:
            traj = engine.evolve_fixed_step(
                rho0, liouv, cfg.t_end, dt, sample_every=sample_every, target=target,
                observables=observables,
            )
            resolved["t_end"] = cfg.t_end
            return traj, resolved, None
        delta = sample_every * dt
        engine._check_step(liouv, dt)  # as engine.rk4_map does
    else:
        delta = _SAMPLE_INTERVAL
        if cfg.t_end is not None:
            n = max(1, int(math.ceil(cfg.t_end / delta - 1e-12)))
            delta = cfg.t_end / n
    basis = HermitianBasis(liouv.dim)
    # One per run: the sample map and the residual check.
    gen, x0, split = engine._even_half(liouv, basis.coords(rho0))
    step = engine._rk4_power(gen, dt, sample_every) if cfg.integrator == "rk4" else expm(gen, delta)
    converged = None

    def until(k, v):
        # The total sample count once converged, else None (keep going).
        # Both bases are orthonormal, so ||L vec(rho)|| = ||gen v|| (up to
        # the odd part of L vec(rho), which the split check bounds).
        nonlocal converged
        if k % _CHECK_EVERY == 0:
            if np.linalg.norm(gen @ v) < _RESIDUAL_TARGET:
                converged = k * delta
                return k + _CHECK_EVERY * math.ceil(_PAD_FRACTION * (k // _CHECK_EVERY))
            if k * delta > _MAX_HORIZON:
                raise NumericalError(
                    f"no convergence below {_RESIDUAL_TARGET:.0e} within {_MAX_HORIZON} us"
                )

    blocks = engine.iterate(x0, step, n, until=until)
    traj = engine.Trajectory.from_coords(blocks, lambda k: k * delta, basis, target, observables,
                                         split=split)
    resolved["t_end"] = cfg.t_end if cfg.t_end is not None else traj.times[-1]
    return traj, resolved, converged


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


_FP_PLOT = _plot_script("time (us)", "F, P", [("1:2", "fidelity"), ("1:3", "purity")])


def _time_series_csv(cfg, resolved, p, samples):
    """data.csv of a continuous run: time, fidelity, purity, the columns of
    ``samples.expectations``, one population per basis level and trace_dev."""
    columns = (
        ["time_us", "fidelity", "purity"]
        + list(samples.expectations)
        + [f"p_{lab}" for lab in model.basis_labels(p.variant)]
        + ["trace_dev"]
    )
    table = np.column_stack([samples.times, samples.fidelity, samples.purity,
                             *samples.expectations.values(), samples.populations,
                             samples.trace_deviation])
    return _csv_lines(_header_lines(cfg, resolved, p), columns, table)


def _pulsed_setup(cfg, p, default_tau, default_cycles, t2_stars):
    """Set-up shared by the pulsed experiments.

    ``t2_stars`` holds the T2* of each sequence the run propagates; with
    quasi-static noise, as in ``pulses.run_sequence``, one that is not None
    averages over noise_samples samples.  Returns the PulseOptions with tau
    resolved (the header's [pulse]), the cycle count, a builder
    ``cycle(tau, correction)`` of the standard cycle with the remaining
    options from cfg.pulse, and the noise keywords of
    ``pulses.run_sequence``.  g = 0 leaves the free evolution unsized.
    """
    if p.g <= 0:
        raise ConfigError(f"[params] g: a pulsed run needs g > 0 to size its free evolution, "
                          f"got {p.g}")
    opts = cfg.pulse if cfg.pulse.tau is not None else replace(cfg.pulse, tau=default_tau)
    cycles = cfg.cycles if cfg.cycles is not None else default_cycles
    quasi = opts.noise_mode == "quasistatic"
    samples = sum(opts.noise_samples if quasi and t2 is not None else 1 for t2 in t2_stars)
    if samples * (cycles + _MAPS_CYCLES) > _MAX_SAMPLE_CYCLES:
        raise ConfigError(
            f"{samples} samples x ({cycles} cycles + {_MAPS_CYCLES} for the maps) "
            f"exceeds the {_MAX_SAMPLE_CYCLES} sample-cycle limit of a pulsed run"
        )

    def cycle(tau, correction):
        return pulses.standard_cycle(
            p, tau=tau, cycles=cycles, correction=correction,
            pump_duration=opts.pump_duration, pump_e=opts.pump_e,
            nuclear_duration=opts.nuclear_duration,
            electron_duration=opts.electron_duration, axis=opts.axis,
            dd_filter=opts.dd_filter,
        )

    noise = dict(noise_mode=opts.noise_mode, noise_samples=opts.noise_samples,
                 seed=cfg.seed)
    return opts, cycles, cycle, noise


# ---------------------------------------------------------------------------
# experiments


def _variant_params(cfg, variant, **defaults):
    """SystemParams of an experiment that runs one variant only; explicit
    config keys win over ``defaults``."""
    explicit = cfg.param_overrides.get("variant")
    if explicit is not None and explicit != variant:
        raise ConfigError(f"{cfg.experiment} runs the {variant} variant, got {explicit}")
    return resolve_params(cfg, {"variant": variant, **defaults})


def _run_fig2(cfg):
    p = _variant_params(cfg, VARIANT_SINGLE)
    target = model.default_target(p.variant)
    liouv = _liouvillian(p)
    rho0 = model.mixed_ground_state(p.variant)
    samples, resolved, converged = _continuous_run(cfg, liouv, rho0, target)

    # fig2 asserts a unique attractor, so NonUniqueSteadyState propagates.
    res = engine.steady_state(liouv)
    cert = _unique_pairs(res, target)
    endpoint_gap = float(np.abs(samples.final_state - res.rho).max())

    data = _time_series_csv(cfg, resolved, p, samples)
    summary = _summary_text(
        cfg,
        [
            ("final_time_us", samples.times[-1]),
            ("converged_time_us", converged if converged is not None else "none"),
            ("final_fidelity", samples.fidelity[-1]),
            ("final_purity", samples.purity[-1]),
            ("final_residual_per_us", engine.stationarity_residual(liouv, samples.final_state)),
            ("endpoint_vs_steady_maxnorm", endpoint_gap),
            _mirror_pair(samples),
        ]
        + cert
    )
    return {"data.csv": data, "summary.txt": summary, "plot.gp": _FP_PLOT}


def _run_evolve(cfg):
    p = resolve_params(cfg)
    target = model.default_target(p.variant)
    liouv = _liouvillian(p)
    rho0 = model.mixed_ground_state(p.variant)
    horizon_cfg = cfg if cfg.t_end is not None else replace(cfg, t_end=10.0)
    # Certified before the run: the certificate ends on a small BLAS product,
    # after which formatting data.csv runs slower until a numpy ufunc runs.
    cert = _certificate_pairs(liouv, target)
    samples, resolved, _ = _continuous_run(horizon_cfg, liouv, rho0, target)

    data = _time_series_csv(cfg, resolved, p, samples)
    summary = _summary_text(
        cfg,
        [
            ("final_time_us", samples.times[-1]),
            ("final_fidelity", samples.fidelity[-1]),
            ("final_purity", samples.purity[-1]),
            ("max_trace_deviation", samples.trace_deviation.max()),
            _mirror_pair(samples),
        ]
        + cert
    )
    return {"data.csv": data, "summary.txt": summary, "plot.gp": _FP_PLOT}


def _run_steady(cfg):
    p = resolve_params(cfg)
    target = model.default_target(p.variant)
    liouv = _liouvillian(p)
    # NonUniqueSteadyState propagates (exit 4).
    res = engine.steady_state(liouv)
    cert = _unique_pairs(res, target)
    residual = engine.stationarity_residual(liouv, res.rho)

    columns = ["fidelity", "purity", "spectral_gap_per_us", "null_dimension"]
    values = dict(cert)
    row = [values[k] for k in ("steady_fidelity", "steady_purity", "spectral_gap_per_us",
                               "null_dimension")]
    data = _csv_lines(_header_lines(cfg, {}, p), columns, np.array([row]))
    summary = _summary_text(cfg, cert + [("stationarity_residual_per_us", residual)])
    plot = _plot_script("index", "fidelity", [("0:1", "steady fidelity")])
    return {"data.csv": data, "summary.txt": summary, "plot.gp": plot}


def _sweep_rows(cfg, grid):
    names = [name for name, _ in grid]
    value_lists = [values for _, values in grid]
    rows = []
    for combo in itertools.product(*value_lists):
        merged = dict(cfg.param_overrides)
        for name, value in zip(names, combo):
            merged.update(_param_fields(name, value))
        p = resolve_params(replace(cfg, param_overrides=merged))
        # Bound to a local, the point's Liouvillian lives until the next one
        # is built.  Passed straight to _certificate_pairs, it was freed
        # before, and a 3 x 3 two-nuclei sweep took 0.144-0.156 s against
        # 0.132-0.135 s (best of 30 in one process, 2-vCPU Xeon, numpy
        # 2.4.6, OpenBLAS).  The cause is not verified.
        liouv = _liouvillian(p)
        cert = dict(_certificate_pairs(liouv, model.default_target(p.variant)))
        rows.append([*combo, cert.get("steady_fidelity", math.nan),
                     cert.get("steady_purity", math.nan), cert["spectral_gap_per_us"],
                     cert["steady_state_unique"] == "true"])
    return names, np.array(rows, dtype=float)


def _sweep_files(cfg, grid):
    names, table = _sweep_rows(cfg, grid)
    header = _header_lines(cfg, {}, resolve_params(cfg), grid=dict(grid))
    columns = names + ["fidelity", "purity", "spectral_gap_per_us", "unique"]
    data = _csv_lines(header, columns, table)
    unique_fids = table[table[:, -1] == 1, len(names)]
    summary = _summary_text(
        cfg,
        [
            ("grid_points", len(table)),
            ("nonunique_points", len(table) - len(unique_fids)),
            ("min_fidelity", unique_fids.min() if len(unique_fids) else "none"),
            ("max_fidelity", unique_fids.max() if len(unique_fids) else "none"),
        ]
    )
    ycol = len(names) + 1
    plot = _plot_script(names[0], "steady-state fidelity", [(f"1:{ycol}", "fidelity")])
    return {"data.csv": data, "summary.txt": summary, "plot.gp": plot}


def _run_sweep(cfg):
    if not cfg.grid:
        raise ConfigError("sweep needs a [grid] section with at least one axis")
    return _sweep_files(cfg, cfg.grid)


_DEFAULT_INSET_GRID = (("e", (5.0, 10.0, 20.0)), ("omega", (0.5, 1.0, 2.0)))


def _run_fig2_inset(cfg):
    grid = cfg.grid if cfg.grid else _DEFAULT_INSET_GRID
    return _sweep_files(cfg, grid)


def _run_fig3(cfg):
    p = _variant_params(cfg, VARIANT_SINGLE)
    if cfg.pulse.correction:
        raise ConfigError(
            "fig3 computes corrected and uncorrected curves itself; "
            "'correction' must stay false"
        )
    opts, cycles, cycle, noise = _pulsed_setup(cfg, p, 0.02, 200, (p.t2_star,) * 3)
    tau = opts.tau
    rho0 = model.mixed_ground_state(p.variant)
    runs = {
        name: pulses.run_sequence(rho0, cycle(t, correction), p, **noise)
        for name, t, correction in [("ideal", 0.0, False), ("uncorrected", tau, False),
                                    ("corrected", tau, True)]
    }
    ideal = runs["ideal"]

    columns = (["cycle", "time_us"] + [f"fidelity_{name}" for name in runs]
               + [f"purity_{name}" for name in runs])
    table = np.column_stack([ideal.cycles, ideal.times, *(r.fidelity for r in runs.values()),
                             *(r.purity for r in runs.values())])
    data = _csv_lines(_header_lines(cfg, {"cycles": cycles}, p, pulse=opts), columns, table)

    tail = max(1, cycles // 5)
    eps = pulses.dd_error(p.g, p.omega_n, tau)
    summary = _summary_text(
        cfg,
        [("cycles", cycles), ("tau_us", tau), ("dd_error_rad", eps)]
        + [(f"plateau_{name}", float(np.mean(r.fidelity[-tail:]))) for name, r in runs.items()]
        + [(f"max_{name}", float(r.fidelity.max())) for name, r in runs.items()]
        + [_mirror_pair(*runs.values())]
    )
    plot = _plot_script(
        "optical cycle N", "fidelity",
        [("1:3", "tau = 0"), ("1:4", "uncorrected"), ("1:5", "corrected")],
    )
    return {"data.csv": data, "summary.txt": summary, "plot.gp": plot}


_DEFAULT_T2_VALUES = (1.0, 5.0, 10.0, 50.0, 100.0)


def _run_t2_inset(cfg):
    # Feasibility defaults: slower hyperfine g = 2 MHz, ~2 ms of cycles.
    p = _variant_params(cfg, VARIANT_SINGLE, g=2.0)
    t2_values = _DEFAULT_T2_VALUES
    for name, values in cfg.grid:
        if name != "t2_star":
            raise ConfigError(f"t2-inset sweeps t2_star only, got grid axis {name!r}")
        t2_values = values
    # One sequence per T2*, then the noiseless one.
    opts, cycles, cycle, noise = _pulsed_setup(cfg, p, 0.0, 195, (*t2_values, None))

    seq = cycle(opts.tau, opts.correction)
    runs = list(pulses._t2star_runs(p, seq, t2_values, **noise))
    rows = [(t2, float(traj.fidelity.max())) for t2, traj in runs]
    rho0 = model.mixed_ground_state(p.variant)
    noiseless = pulses.run_sequence(rho0, seq, replace(p, t2_star=None), **noise)

    header = _header_lines(
        cfg, {"cycles": cycles}, p, pulse=opts,
        grid={"t2_star": tuple(t2 for t2, _ in rows)},
    )
    data = _csv_lines(header, ["t2_star_us", "max_fidelity"], np.array(rows))
    diffs = [b[1] - a[1] for a, b in zip(rows, rows[1:])]
    summary = _summary_text(
        cfg,
        [
            ("cycles", cycles),
            ("noiseless_max_fidelity", float(noiseless.fidelity.max())),
            ("monotone_in_t2", "true" if all(d >= -1e-12 for d in diffs) else "false"),
            _mirror_pair(noiseless, *(traj for _, traj in runs)),
        ]
    )
    plot = _plot_script("T2* (us)", "maximal fidelity", [("1:2", "max fidelity")])
    return {"data.csv": data, "summary.txt": summary, "plot.gp": plot}


def _run_two_nuclei(cfg):
    base = _variant_params(cfg, VARIANT_TWO)
    # Matched drive: the two nuclei couple collectively with a sqrt(2)
    # enhancement, so darkness needs omega_e = sqrt(2) * mean drive.
    mean_asym = sum(base.asymmetry) / len(base.asymmetry)
    p = _variant_params(cfg, VARIANT_TWO, omega_e=math.sqrt(2.0) * base.omega_n * mean_asym)
    target = model.default_target(p.variant)
    liouv = _liouvillian(p)
    rho0 = model.mixed_ground_state(p.variant)
    horizon_cfg = cfg if cfg.t_end is not None else replace(cfg, t_end=120.0)
    observables = {"singlet_population": model.nuclear_singlet_projector()}
    cert = _certificate_pairs(liouv, target)
    samples, resolved, _ = _continuous_run(horizon_cfg, liouv, rho0, target, observables)

    data = _time_series_csv(cfg, resolved, p, samples)
    summary = _summary_text(
        cfg,
        [
            ("final_time_us", samples.times[-1]),
            ("final_fidelity", samples.fidelity[-1]),
            ("final_purity", samples.purity[-1]),
            ("final_singlet_population", samples.expectations["singlet_population"][-1]),
            _mirror_pair(samples),
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
    BLAS runs single-threaded meanwhile (see linalg._one_blas_thread).
    """
    with _one_blas_thread():
        if cfg.experiment is None:
            raise ConfigError("no experiment selected")
        if not cfg.output:
            raise ConfigError("no output directory given (CLI --out or 'out' key)")
        files = _RUNNERS[cfg.experiment](cfg)
        _write_outputs(cfg.output, files)
