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
the dynamics only through T2* noise or a static detuning during an
unfiltered nuclear pulse.  By default the decoupling filters that noise
(``dd_filter=True``), so it acts during FreeEvolution only.  A cycle's maps
are one function of a detuning: None applies a finite T2* as Markovian
dephasing, and a number is a static electron detuning in its place.  A
quasi-static run averages, in draw order, the runs of its drawn detunings,
which share the rotation maps that no detuning changes.

Every segment map is a real matrix on coordinates in the orthonormal
basis of Hermitian matrices (:class:`linalg.HermitianBasis`): generators
are exponentiated there, and unitary maps U* kron U become orthogonal
matrices, so composing and applying a cycle is real arithmetic.

The entangled target lives mid-cycle: the closing nuclear rotation re-poses
the state for the next pump, so the per-cycle sample is taken right after
FreeEvolution (``record_segment`` of the standard cycle).  The cycle map's
fixed point is the nuclear-rotated image of the dark state; sampling at the
cycle boundary would report the basis-rotated fidelity of 1/2 instead.

Segments, ``PulseSequence`` and the value arguments of ``run_sequence``,
``subspace_rotation`` and ``t2star_sweep`` are checked by the parsers of
the config format (``errors``), through the ``_FIELDS`` table: a value is
accepted exactly when the same text in a config file would be, and a bad
one raises ConfigError naming the class or function in place of the
section, e.g. ``[OpticalPump] duration: must be >= 0.0, got -0.1``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import linalg, model
from .engine import MirrorSplit, Trajectory, build_liouvillian, iterate
from .errors import (
    ConfigError,
    DomainError,
    _bool,
    _bounded,
    _check_fields,
    _check_values,
    _choice,
    _floats,
)
from .linalg import HermitianBasis
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
AXES = ("x", "y")

# The parser of each value field of the segments and of PulseSequence, and
# of each value argument of the functions below, by name.
_FIELDS = {
    **dict.fromkeys(("duration", "dd_interval"), _bounded(float, 0.0)),  # us
    "angle": _bounded(float),
    "axis": _choice(AXES),
    "e_amplitude": _bounded(float),
    "cycles": _bounded(int, 0),
    "correction_enabled": _bool,
    "dd_filter": _bool,
    "record_segment": _bounded(int, 0),
    "noise_mode": _choice(NOISE_MODES),
    "noise_samples": _bounded(int, 1),
    "t2_values": _floats(0.0, strict=True),
}


class _Segment:
    """Base of the segment classes: each field is checked by its
    ``_FIELDS`` parser, and an error names the class."""

    def __post_init__(self):
        _check_fields(self, type(self).__name__, _FIELDS)


@dataclass(frozen=True)
class OpticalPump(_Segment):
    """Optical pumping for ``duration`` us with drives and hyperfine off.

    ``e_amplitude`` (MHz) overrides the optical amplitude as e_plus = +E,
    e_minus = -E; None keeps the system parameters' own optical couplings.
    """

    duration: float = 0.1
    e_amplitude: float | None = None


@dataclass(frozen=True)
class ElectronRotation(_Segment):
    """Instantaneous rotation in the electron {|0>, |D>} subspace.

    ``duration`` (default 10 ns) is wall-clock bookkeeping only.
    """

    angle: float
    axis: str = "y"
    duration: float = 0.01


@dataclass(frozen=True)
class FreeEvolution(_Segment):
    """Evolution under the hyperfine coupling alone, plus dephasing if T2* set."""

    duration: float


@dataclass(frozen=True)
class NuclearRotation(_Segment):
    """Slow nuclear {|0>, |D>} rotation under dynamical decoupling.

    Executes ``angle - eps`` with eps = dd_error(g, omega_n, dd_interval).
    ``duration`` (default 10 us) is wall-clock bookkeeping; it feeds the
    dynamics only when the sequence runs with ``dd_filter=False``.
    """

    angle: float
    axis: str = "y"
    dd_interval: float = 0.0
    duration: float = 10.0


@dataclass(frozen=True)
class Idle(_Segment):
    """Free decay (and dephasing if T2* set) with all coherent terms off."""

    duration: float


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
            if not isinstance(seg, _Segment):
                raise ConfigError(f"unknown pulse segment {seg!r}")
        if not segs:
            raise ConfigError("pulse sequence needs at least one segment")
        object.__setattr__(self, "segments", segs)
        _check_fields(self, "PulseSequence", _FIELDS)
        if self.record_segment is not None and self.record_segment >= len(segs):
            raise ConfigError(
                f"record_segment {self.record_segment} out of range for {len(segs)} segments")


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
    angle, axis = _check_values("subspace_rotation", _FIELDS,
                                {"angle": angle, "axis": axis}).values()
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
    return model.embed(r, variant, 0 if party_u == "e" else 1)


def _generator(h, cs, p, duration):
    """The factor exp(duration * L) of the Liouvillian of ``h`` and ``cs``
    (see _segment_factors)."""
    return build_liouvillian(h, cs, p.layout).real(), duration


def _bare_rotation(seg, dd_filter):
    """Whether ``seg``'s map is the same under every detuning: an electron
    rotation, or a nuclear one filtered by the decoupling or of no duration."""
    if isinstance(seg, NuclearRotation):
        return dd_filter or seg.duration == 0
    return isinstance(seg, ElectronRotation)


def _segment_factors(seg, p, *, electron_angle=None, detuning=None, dd_filter=True):
    """Map of one segment as a list of factors, the last applied first:
    (m, None) for a real map m on coordinates in ``HermitianBasis(p.dim)``
    and (g, t) for exp(t g) of a real generator g, which
    :func:`_segment_map` exponentiates.  ``detuning`` None applies a finite
    T2* as Markovian dephasing; a number, with or without T2*, is a static
    electron detuning (rad/us) wherever the decoupling exposes the electron."""
    if isinstance(seg, OpticalPump):
        kwargs = dict(omega_e=0.0, omega_n=0.0, g=0.0, t2_star=None)
        if seg.e_amplitude is not None:
            kwargs["e_plus"] = seg.e_amplitude
            kwargs["e_minus"] = -seg.e_amplitude
        p2 = replace(p, **kwargs)
        return [_generator(model.build_hamiltonian(p2), model.decay_ops(p2), p, seg.duration)]
    basis = HermitianBasis(p.dim)
    if isinstance(seg, ElectronRotation):
        angle = seg.angle if electron_angle is None else electron_angle
        return [(basis.unitary(subspace_rotation(("e0", "eD"), angle, seg.axis, p.variant)), None)]
    if isinstance(seg, FreeEvolution):
        p2 = replace(p, omega_e=0.0, omega_n=0.0, e_plus=0.0, e_minus=0.0)
        h = model.build_hamiltonian(p2)
        if detuning:
            h = h + detuning * model.build_operators(p.variant)["S_z"]
        if detuning is None and p.t2_star is not None:
            return [_generator(h, [model.dephasing_op(p2)], p, seg.duration)]
        return [(basis.unitary(linalg.expm(-1j * h, seg.duration)), None)]
    if isinstance(seg, NuclearRotation):
        eps = dd_error(p.g, p.omega_n, seg.dd_interval)
        mat = basis.unitary(subspace_rotation(("n0", "nD"), seg.angle - eps, seg.axis, p.variant))
        if _bare_rotation(seg, dd_filter) or (detuning is None and p.t2_star is None):
            return [(mat, None)]
        # Unfiltered noise accumulates over the pulse's wall-clock time.
        sz = model.build_operators(p.variant)["S_z"]
        if detuning is None:
            noise = _generator(np.zeros_like(sz), [model.dephasing_op(p)], p, seg.duration)
        else:
            noise = basis.unitary(linalg.expm(-1j * detuning * sz, seg.duration)), None
        return [noise, (mat, None)]
    if isinstance(seg, Idle):
        p2 = replace(p, omega_e=0.0, omega_n=0.0, g=0.0, e_plus=0.0, e_minus=0.0)
        return [_generator(model.build_hamiltonian(p2), model.build_collapse_ops(p2), p,
                           seg.duration)]
    raise ConfigError(f"unknown pulse segment {seg!r}")


def _segment_map(factors):
    """The product of a segment's factors (see _segment_factors), one expm
    per generator."""
    mats = [m if t is None else linalg.expm(m, t) for m, t in factors]
    return functools.reduce(np.matmul, mats)


def _segment_propagator(seg, p, **kwargs):
    """Map of one segment, a real matrix on coordinates in
    ``HermitianBasis(p.dim)``; the keywords are those of _segment_factors."""
    return _segment_map(_segment_factors(seg, p, **kwargs))


def _even_factors(factors, split):
    """The even blocks of ``factors`` (see _segment_factors) under a
    MirrorSplit ``split``, each generator split before its exponential, or
    None if one does not commute with the mirror (MirrorSplit.blocks)."""
    out = []
    for m, t in factors:
        even, _ = split.blocks(m) or (None, None)
        if even is None:
            return None
        out.append((even, t))
    return out


def apply_segment(rho, seg, p):
    """Apply a single segment to a density matrix (default sequence flags)."""
    basis = HermitianBasis(p.dim)
    return basis.states(_segment_propagator(seg, p) @ basis.coords(rho))


# perfbench/test_perfbench.py monkeypatches this function by name.
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


def _record_end(seq):
    """The number of segments up to and including the record point."""
    return len(seq.segments) if seq.record_segment is None else seq.record_segment + 1


def _cycle_maps(seq, p, detunings, split=None):
    """Yield (head, step, split) for each detuning in turn: one cycle's
    segment maps under it, as in :func:`_segment_propagator`, composed
    once; the rotations that no detuning changes (:func:`_bare_rotation`)
    are built once and shared.  ``head`` = M_r ... M_0 takes the initial
    state to the first record point and ``step`` = head M_{n-1} ...
    M_{r+1} one record point to the next, so engine.iterate applies one
    map per cycle: a matrix-vector product for each of the first 256
    cycles, then one GEMM per block of 64.

    Given a MirrorSplit ``split``, the maps are made in its even half if
    every factor of every segment commutes with the mirror
    (:func:`_even_factors`), and the third item is ``split``; otherwise,
    and without one, they are whole and it is None.  Either way each
    generator is built and exponentiated once."""
    overrides = _electron_overrides(seq, p)

    def build(i, seg, detuning):
        return _segment_factors(seg, p, electron_angle=overrides.get(i), detuning=detuning,
                                dd_filter=seq.dd_filter)

    shared = {i: build(i, seg, None) for i, seg in enumerate(seq.segments)
              if _bare_rotation(seg, seq.dd_filter)}
    end = _record_end(seq)
    for detuning in detunings:
        # The pump is rebuilt too: perfbench pins its builds per sample (ROADMAP item 1).
        factors = [shared[i] if i in shared else build(i, seg, detuning)
                   for i, seg in enumerate(seq.segments)]
        even = split and [_even_factors(f, split) for f in factors]
        half = split if even and None not in even else None
        maps = [_segment_map(f) for f in (factors if half is None else even)]
        head = maps[0]
        for mat in maps[1:end]:
            head = mat @ head
        step = head
        for mat in reversed(maps[end:]):
            step = step @ mat
        yield head, step, half


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
    resulting states; its rotation maps are built once and shared by every
    sample.  Without a finite t2_star both modes coincide.

    A run of one map set (Markovian or noiseless) is carried in the
    mirror-even half of ``model.mirror(p.variant)`` (engine.MirrorSplit)
    when rho0 is mirror-even and every segment map commutes with the
    mirror; otherwise, as for a pump with gamma_minus != gamma_plus, it runs
    whole.  A static detuning maps to its negative under the mirror, so
    quasi-static samples always run whole.
    """
    noise_mode, noise_samples = _check_values(
        "run_sequence", _FIELDS,
        {"noise_mode": noise_mode, "noise_samples": noise_samples}).values()
    if target is None:
        target = model.default_target(p.variant)
    basis = HermitianBasis(p.dim)
    v0 = basis.coords(rho0)
    split = None
    if noise_mode == "quasistatic" and p.t2_star is not None:
        rng = np.random.default_rng(seed)
        detunings = rng.normal(0.0, math.sqrt(2.0) / p.t2_star, size=noise_samples).tolist()
    else:  # Markovian dephasing: one map set, in the mirror-even half if it can be
        detunings = [None]
        split = MirrorSplit(model.mirror(p.variant), p.dim)
        y0 = split.even_start(v0)
        split = None if y0 is None else split
    # One run per detuning, its own maps built when it starts.
    maps = _cycle_maps(seq, p, detunings, split)
    head, step, split = next(maps)
    # One detuning: each block is observed as it is made.
    blocks = iterate(v0 if split is None else y0, step, seq.cycles, first=head)
    if len(detunings) > 1:
        # Average in draw order, accumulating into the first run's blocks.
        blocks = list(blocks)
        for head, step, _ in maps:
            for acc, block in zip(blocks, iterate(v0, step, seq.cycles, first=head)):
                acc += block
        for acc in blocks:
            acc /= len(detunings)

    walls = [seg.duration for seg in seq.segments]
    record_offset = float(sum(walls[:_record_end(seq)]))
    cycle_duration = float(sum(walls))
    cycles = np.arange(seq.cycles + 1, dtype=float)
    times = np.r_[0.0, np.arange(seq.cycles) * cycle_duration + record_offset]
    if (np.diff(times) <= 0).any():
        times = cycles

    return Trajectory.from_coords(blocks, times.tolist().__getitem__, basis, target,
                                  cycles=cycles, split=split)


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
    return [(t2, float(traj.fidelity.max()))
            for t2, traj in _t2star_runs(p, seq, t2_values, noise_mode, noise_samples, seed)]


def _t2star_runs(p, seq, t2_values, noise_mode, noise_samples, seed):
    """Yield (t2_star, trajectory) of each run of :func:`t2star_sweep`."""
    t2_list = sorted(_check_values("t2star_sweep", _FIELDS, {"t2_values": t2_values})["t2_values"])
    rho0 = model.mixed_ground_state(p.variant)
    for t2 in t2_list:
        yield t2, run_sequence(rho0, seq, replace(p, t2_star=t2), noise_mode=noise_mode,
                               noise_samples=noise_samples, seed=seed)
