"""Stroboscopic pulsed protocol: optical pumping, fast electron rotations,
hyperfine free evolution and slow nuclear rotations under dynamical
decoupling, with the analytic residual error and the correction step.

A standard cycle is

    OpticalPump -> ElectronRotation(pi/2) -> FreeEvolution(pi/(2*g_angular))
    -> NuclearRotation(pi/2, tau)

The electron is treated as ideally decoupled from the hyperfine coupling
during the nuclear rotation; the imperfection of the decoupling at pulse
interval tau is carried entirely by the analytic angle deficit

    eps = sin(g_ang^2 * tau / sqrt(g_ang^2 + omega_n_ang^2)),

so the nuclear rotation executes (angle - eps).  The correction step sets
the electron rotation to that same degraded angle.

Rotations are instantaneous unitaries; their ``duration`` fields are pure
wall-clock bookkeeping (10 ns electron pulse, 10 us nuclear pulse) and enter
the dynamics only when dephasing is accumulated during an unfiltered nuclear
pulse.  By default the decoupling also filters the quasi-static T2* noise
during the nuclear pulse (``dd_filter=True``), so dephasing acts during
FreeEvolution only.

The entangled target lives mid-cycle: the closing nuclear rotation re-poses
the state for the next pump, so the per-cycle sample is taken right after
FreeEvolution (``record_segment`` of the standard cycle).  The cycle map's
fixed point is the nuclear-rotated image of the dark state; sampling at the
cycle boundary would report the basis-rotated fidelity of 1/2 instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import linalg, model
from .engine import Trajectory, build_liouvillian
from .errors import ConfigError, DimensionError, DomainError
from .linalg import unvectorize, vectorize
from .model import TWO_PI

__all__ = [
    "ElectronRotation",
    "FreeEvolution",
    "Idle",
    "NuclearRotation",
    "OpticalPump",
    "PulseSequence",
    "apply_segment",
    "dd_error",
    "run_sequence",
    "standard_cycle",
    "subspace_rotation",
    "t2star_sweep",
]

NOISE_MODES = ("markovian", "quasistatic")


def _check_duration(value, what):
    value = float(value)
    if not math.isfinite(value) or value < 0:
        raise ConfigError(f"{what} must be a finite duration >= 0 us, got {value}")
    return value


def _check_angle(value, what):
    value = float(value)
    if not math.isfinite(value):
        raise ConfigError(f"{what} must be a finite angle, got {value}")
    return value


def _check_axis(axis):
    if axis not in ("x", "y"):
        raise ConfigError(f"rotation axis must be 'x' or 'y', got {axis!r}")
    return axis


@dataclass(frozen=True)
class OpticalPump:
    """Optical pumping for ``duration`` us with drives and hyperfine off.

    ``e_amplitude`` (MHz) overrides the optical amplitude as e_plus = +E,
    e_minus = -E; None keeps the system parameters' own optical couplings.
    """

    duration: float = 0.1
    e_amplitude: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "duration", _check_duration(self.duration, "pump duration"))
        if self.e_amplitude is not None:
            amp = float(self.e_amplitude)
            if not math.isfinite(amp):
                raise ConfigError(f"pump amplitude must be finite, got {amp}")
            object.__setattr__(self, "e_amplitude", amp)


@dataclass(frozen=True)
class ElectronRotation:
    """Instantaneous rotation in the electron {|0>, |D>} subspace.

    ``duration`` (default 10 ns) is wall-clock bookkeeping only.
    """

    angle: float
    axis: str = "y"
    duration: float = 0.01

    def __post_init__(self):
        object.__setattr__(self, "angle", _check_angle(self.angle, "electron angle"))
        _check_axis(self.axis)
        object.__setattr__(self, "duration", _check_duration(self.duration, "electron pulse duration"))


@dataclass(frozen=True)
class FreeEvolution:
    """Evolution under the hyperfine coupling alone, plus dephasing if T2* set."""

    duration: float

    def __post_init__(self):
        object.__setattr__(self, "duration", _check_duration(self.duration, "free evolution duration"))


@dataclass(frozen=True)
class NuclearRotation:
    """Slow nuclear {|0>, |D>} rotation under dynamical decoupling.

    Executes ``angle - eps`` with eps = dd_error(g, omega_n, dd_interval).
    ``duration`` (default 10 us) is wall-clock bookkeeping; it feeds the
    dynamics only when the sequence runs with ``dd_filter=False``.
    """

    angle: float
    axis: str = "y"
    dd_interval: float = 0.0
    duration: float = 10.0

    def __post_init__(self):
        object.__setattr__(self, "angle", _check_angle(self.angle, "nuclear angle"))
        _check_axis(self.axis)
        object.__setattr__(self, "dd_interval", _check_duration(self.dd_interval, "dd_interval"))
        object.__setattr__(self, "duration", _check_duration(self.duration, "nuclear pulse duration"))


@dataclass(frozen=True)
class Idle:
    """Free decay (and dephasing if T2* set) with all coherent terms off."""

    duration: float

    def __post_init__(self):
        object.__setattr__(self, "duration", _check_duration(self.duration, "idle duration"))


_SEGMENT_TYPES = (OpticalPump, ElectronRotation, FreeEvolution, NuclearRotation, Idle)


@dataclass(frozen=True)
class PulseSequence:
    """An ordered cycle of segments repeated ``cycles`` times.

    ``record_segment`` names the segment index after which the per-cycle
    sample is taken (None samples at the cycle boundary).  When
    ``correction_enabled`` is set, each electron rotation is re-targeted to
    the actual error-degraded angle of the matching nuclear rotation.
    """

    segments: tuple
    cycles: int
    correction_enabled: bool = False
    dd_filter: bool = True
    record_segment: int | None = None

    def __post_init__(self):
        segs = tuple(self.segments)
        for seg in segs:
            if not isinstance(seg, _SEGMENT_TYPES):
                raise ConfigError(f"unknown pulse segment {seg!r}")
        if not segs:
            raise ConfigError("pulse sequence needs at least one segment")
        object.__setattr__(self, "segments", segs)
        cycles = int(self.cycles)
        if cycles < 0:
            raise ConfigError(f"cycle count must be >= 0, got {cycles}")
        object.__setattr__(self, "cycles", cycles)
        if self.record_segment is not None:
            r = int(self.record_segment)
            if r < 0 or r >= len(segs):
                raise ConfigError(
                    f"record_segment {r} out of range for {len(segs)} segments"
                )
            object.__setattr__(self, "record_segment", r)


def dd_error(g, omega_n, tau):
    """Residual rotation-angle error of the decoupled nuclear pulse (rad).

    eps = sin(g_ang^2 * tau / sqrt(g_ang^2 + omega_n_ang^2)) with g and
    omega_n in MHz converted to angular units and tau in us.
    """
    g = float(g)
    omega_n = float(omega_n)
    tau = float(tau)
    if g < 0 or omega_n < 0 or tau < 0:
        raise DomainError("dd_error arguments must be >= 0")
    if g == 0 and omega_n == 0:
        raise DomainError("dd_error undefined for g = omega_n = 0")
    g_ang = TWO_PI * g
    w_ang = TWO_PI * omega_n
    return math.sin(g_ang * g_ang * tau / math.hypot(g_ang, w_ang))


def _party_state(label, variant):
    if len(label) < 2 or label[0] not in ("e", "n"):
        raise ConfigError(f"level label {label!r} must start with 'e' or 'n'")
    party, level = label[0], label[1:]
    if party == "e":
        return party, model.electron_state(level)
    if variant != model.VARIANT_SINGLE:
        raise ConfigError(
            "nuclear subspace rotations are defined for the spin-1 variant only"
        )
    return party, model.nuclear_spin1_state(level)


def subspace_rotation(levels, angle, axis="y", variant=model.VARIANT_SINGLE):
    """Unitary exp(-i*angle/2*sigma_axis) on a two-level subspace.

    ``levels`` is a pair of party-prefixed labels such as ("e0", "eD") or
    ("n0", "nD"); composite labels D and B are allowed.  The rotation acts
    as the identity outside the subspace and is embedded in the full space
    of the given variant.
    """
    if len(levels) != 2:
        raise ConfigError(f"levels must name exactly two states, got {levels!r}")
    angle = _check_angle(angle, "rotation angle")
    _check_axis(axis)
    party_u, u = _party_state(levels[0], variant)
    party_v, v = _party_state(levels[1], variant)
    if party_u != party_v:
        raise ConfigError(f"levels {levels!r} must belong to the same party")
    if abs(u.conj() @ v) > 1e-12:
        raise ConfigError(f"levels {levels!r} are not orthogonal")
    proj = np.outer(u, u.conj()) + np.outer(v, v.conj())
    if axis == "x":
        sigma = np.outer(u, v.conj()) + np.outer(v, u.conj())
    else:
        sigma = -1j * np.outer(u, v.conj()) + 1j * np.outer(v, u.conj())
    eye = np.eye(u.size, dtype=complex)
    r = (eye - proj) + math.cos(angle / 2.0) * proj - 1j * math.sin(angle / 2.0) * sigma
    if party_u == "e":
        return linalg.kron(r, np.eye(model.dim(variant) // 4, dtype=complex))
    return linalg.kron(np.eye(4, dtype=complex), r)


def _unitary_map(u):
    return np.kron(u.conj(), u)


def _segment_propagator(seg, p, *, electron_angle=None, detuning=0.0,
                        dd_filter=True, quasistatic=False):
    """Superoperator map of one segment."""
    if isinstance(seg, OpticalPump):
        kwargs = dict(omega_e=0.0, omega_n=0.0, g=0.0, t2_star=None)
        if seg.e_amplitude is not None:
            kwargs["e_plus"] = seg.e_amplitude
            kwargs["e_minus"] = -seg.e_amplitude
        p2 = replace(p, **kwargs)
        liouv = build_liouvillian(model.build_hamiltonian(p2), model.decay_ops(p2), p.layout)
        return linalg.expm(liouv.matrix, seg.duration)
    if isinstance(seg, ElectronRotation):
        angle = seg.angle if electron_angle is None else electron_angle
        u = subspace_rotation(("e0", "eD"), angle, seg.axis, p.variant)
        return _unitary_map(u)
    if isinstance(seg, FreeEvolution):
        p2 = replace(p, omega_e=0.0, omega_n=0.0, e_plus=0.0, e_minus=0.0)
        h = model.build_hamiltonian(p2)
        if detuning:
            h = h + detuning * model.build_operators(p.variant)["S_z"]
        deph = None if quasistatic else model.dephasing_op(p2)
        if deph is not None:
            liouv = build_liouvillian(h, [deph], p.layout)
            return linalg.expm(liouv.matrix, seg.duration)
        u = linalg.expm(-1j * h, seg.duration)
        return _unitary_map(u)
    if isinstance(seg, NuclearRotation):
        eps = dd_error(p.g, p.omega_n, seg.dd_interval)
        u = subspace_rotation(("n0", "nD"), seg.angle - eps, seg.axis, p.variant)
        mat = _unitary_map(u)
        if p.t2_star is not None and not dd_filter and seg.duration > 0:
            # Unfiltered noise accumulates over the pulse's wall-clock time.
            sz = model.build_operators(p.variant)["S_z"]
            if quasistatic:
                u_noise = linalg.expm(-1j * detuning * sz, seg.duration)
                mat = _unitary_map(u_noise) @ mat
            else:
                deph = model.dephasing_op(p)
                liouv = build_liouvillian(np.zeros_like(sz), [deph], p.layout)
                mat = linalg.expm(liouv.matrix, seg.duration) @ mat
        return mat
    if isinstance(seg, Idle):
        p2 = replace(p, omega_e=0.0, omega_n=0.0, g=0.0, e_plus=0.0, e_minus=0.0)
        liouv = build_liouvillian(
            model.build_hamiltonian(p2), model.build_collapse_ops(p2), p.layout
        )
        return linalg.expm(liouv.matrix, seg.duration)
    raise ConfigError(f"unknown pulse segment {seg!r}")


def apply_segment(rho, seg, p):
    """Apply a single segment to a density matrix (default sequence flags)."""
    d = p.dim
    rho = np.asarray(rho, dtype=complex)
    mat = _segment_propagator(seg, p)
    return unvectorize(mat @ vectorize(rho), d)


def _electron_overrides(seq, p):
    """Per-electron-rotation angle overrides implementing the correction."""
    if not seq.correction_enabled:
        return {}
    e_idx = [i for i, s in enumerate(seq.segments) if isinstance(s, ElectronRotation)]
    n_segs = [s for s in seq.segments if isinstance(s, NuclearRotation)]
    if len(e_idx) != len(n_segs):
        raise ConfigError(
            "correction requires one nuclear rotation per electron rotation, "
            f"got {len(e_idx)} electron / {len(n_segs)} nuclear"
        )
    overrides = {}
    for i, nseg in zip(e_idx, n_segs):
        eps = dd_error(p.g, p.omega_n, nseg.dd_interval)
        overrides[i] = nseg.angle - eps
    return overrides


def _build_maps(seq, p, detuning=0.0, quasistatic=False):
    overrides = _electron_overrides(seq, p)
    return [
        _segment_propagator(
            seg,
            p,
            electron_angle=overrides.get(i),
            detuning=detuning,
            dd_filter=seq.dd_filter,
            quasistatic=quasistatic,
        )
        for i, seg in enumerate(seq.segments)
    ]


def _run_vec(v0, maps, cycles, record_at):
    """Vectors at the record point of each cycle (index 0 = initial state)."""
    out = [v0.copy()]
    v = v0.copy()
    for _ in range(cycles):
        for i, mat in enumerate(maps):
            v = mat @ v
            if i == record_at:
                out.append(v.copy())
    return out


def run_sequence(rho0, seq, p, target=None, noise_mode="markovian",
                 noise_samples=200, seed=0):
    """Run ``seq.cycles`` cycles and sample once per cycle.

    Returns a Trajectory whose ``cycles`` field counts cycles (sample 0 is
    the initial state) and whose ``times`` accumulate the wall-clock
    durations up to each cycle's record point.  If the wall-clock grid is
    degenerate (zero-duration segments), times fall back to the cycle count.

    ``noise_mode`` selects the T2* model: "markovian" uses the dephasing
    collapse operator; "quasistatic" draws ``noise_samples`` static electron
    detunings from N(0, sqrt(2)/T2*) with the given seed and averages the
    resulting states.  Without a finite t2_star both modes coincide.
    """
    if noise_mode not in NOISE_MODES:
        raise ConfigError(f"noise_mode must be one of {NOISE_MODES}, got {noise_mode!r}")
    noise_samples = int(noise_samples)
    if noise_samples < 1:
        raise ConfigError(f"noise_samples must be >= 1, got {noise_samples}")
    d = p.dim
    rho0 = np.asarray(rho0, dtype=complex)
    if rho0.shape != (d, d):
        raise DimensionError(f"initial state shape {rho0.shape} does not match dim {d}")
    if target is None:
        target = model.default_target(p.variant)
    record_at = seq.record_segment if seq.record_segment is not None else len(seq.segments) - 1
    v0 = vectorize(rho0)

    quasi = noise_mode == "quasistatic" and p.t2_star is not None
    if quasi:
        rng = np.random.default_rng(seed)
        detunings = rng.normal(0.0, math.sqrt(2.0) / p.t2_star, size=noise_samples)
    else:
        detunings = (0.0,)
    # Average over the detunings, accumulating into the first sample's vectors.
    vecs = None
    for delta in detunings:
        maps = _build_maps(seq, p, detuning=float(delta), quasistatic=quasi)
        sample = _run_vec(v0, maps, seq.cycles, record_at)
        if vecs is None:
            vecs = sample
        else:
            for acc, v in zip(vecs, sample):
                acc += v
    for acc in vecs:
        acc /= len(detunings)

    walls = [seg.duration for seg in seq.segments]
    record_offset = float(sum(walls[: record_at + 1]))
    cycle_duration = float(sum(walls))
    times = [0.0] + [
        (c - 1) * cycle_duration + record_offset for c in range(1, seq.cycles + 1)
    ]
    if any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
        times = [float(c) for c in range(seq.cycles + 1)]

    return Trajectory.from_states(
        zip(times, (unvectorize(v, d) for v in vecs)), target,
        cycles=np.arange(seq.cycles + 1, dtype=float),
    )


def standard_cycle(p, tau=0.0, cycles=200, correction=False, pump_duration=0.1,
                   pump_e=30.0, nuclear_duration=10.0, electron_duration=0.01,
                   axis="y", dd_filter=True):
    """The canonical pump / rotate / evolve / rotate cycle.

    Free evolution lasts pi/(2*g_angular) = 1/(4*g) us, the time of a full
    dark-dark to bright-bright transfer under the hyperfine coupling.
    """
    if p.g <= 0:
        raise DomainError("standard cycle needs g > 0 to size the free evolution")
    half_pi = math.pi / 2.0
    segments = (
        OpticalPump(duration=pump_duration, e_amplitude=pump_e),
        ElectronRotation(angle=half_pi, axis=axis, duration=electron_duration),
        FreeEvolution(duration=1.0 / (4.0 * p.g)),
        NuclearRotation(angle=half_pi, axis=axis, dd_interval=tau,
                        duration=nuclear_duration),
    )
    return PulseSequence(
        segments=segments,
        cycles=cycles,
        correction_enabled=correction,
        dd_filter=dd_filter,
        record_segment=2,
    )


def t2star_sweep(p, seq, t2_values, noise_mode="markovian", noise_samples=200,
                 seed=0):
    """Maximal per-cycle fidelity for each dephasing time.

    Returns ``[(t2_star, max_fidelity), ...]`` sorted by increasing T2*.
    The initial state is the uniform ground mixture of the variant.
    """
    t2_list = sorted(float(t) for t in t2_values)
    if not t2_list:
        raise ConfigError("t2_values must not be empty")
    if any(not math.isfinite(t) or t <= 0 for t in t2_list):
        raise ConfigError(f"t2_values must be finite and > 0, got {t2_list}")
    rho0 = model.mixed_ground_state(p.variant)
    rows = []
    for t2 in t2_list:
        p2 = replace(p, t2_star=t2)
        traj = run_sequence(rho0, seq, p2, noise_mode=noise_mode,
                            noise_samples=noise_samples, seed=seed)
        rows.append((t2, float(traj.fidelity.max())))
    return rows
