"""Pulsed protocol: segment propagators, the standard cycle, error models."""

from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import darksteady as ds
from darksteady import engine, linalg, model, pulses
from darksteady.errors import ConfigError, DimensionError, DomainError
from darksteady.pulses import (
    ElectronRotation,
    FreeEvolution,
    Idle,
    NuclearRotation,
    OpticalPump,
    PulseSequence,
    apply_segment,
    dd_error,
    run_sequence,
    standard_cycle,
    subspace_rotation,
    t2star_sweep,
)

# Frozen residual-rotation angles sin(g~^2 tau / sqrt(g~^2 + w~^2)),
# computed with high-precision arithmetic before the implementation.
DD_ERROR_CASES = [
    ((2.5, 0.05, 0.02), 0.30895725504310201),
    ((2.5, 1.0, 0.02), 0.2875708220334452),
    ((2.0, 1.0, 0.01), 0.11216053142244362),
]


@pytest.mark.parametrize("args, expected", DD_ERROR_CASES)
def test_dd_error_frozen_values(args, expected):
    assert dd_error(*args) == pytest.approx(expected, abs=1e-15)


def test_dd_error_limits_and_domain():
    assert dd_error(2.5, 1.0, 0.0) == 0.0
    with pytest.raises(DomainError):
        dd_error(-1.0, 1.0, 0.01)
    with pytest.raises(DomainError):
        dd_error(2.5, 1.0, -0.01)
    with pytest.raises(DomainError):
        dd_error(0.0, 0.0, 0.01)


def test_segment_validation():
    with pytest.raises(ConfigError):
        OpticalPump(duration=-0.1)
    with pytest.raises(ConfigError):
        ElectronRotation(angle=float("nan"))
    with pytest.raises(ConfigError):
        ElectronRotation(angle=np.pi / 2, axis="z")
    with pytest.raises(ConfigError):
        FreeEvolution(duration=-1.0)
    with pytest.raises(ConfigError):
        PulseSequence(segments=(), cycles=1)
    with pytest.raises(ConfigError):
        PulseSequence(segments=(Idle(1.0),), cycles=-1)
    with pytest.raises(ConfigError):
        PulseSequence(segments=(Idle(1.0),), cycles=1, record_segment=3)


def test_subspace_rotation_unitary_and_additive():
    r1 = subspace_rotation(("e0", "eD"), np.pi / 3)
    r2 = subspace_rotation(("e0", "eD"), np.pi / 5)
    r3 = subspace_rotation(("e0", "eD"), np.pi / 3 + np.pi / 5)
    assert np.abs(r1 @ r1.conj().T - np.eye(12)).max() < 1e-12
    assert np.abs(r1 @ r2 - r3).max() < 1e-12


def test_subspace_rotation_pi_swaps_levels():
    r = subspace_rotation(("e0", "eD"), np.pi)
    n0 = model.nuclear_spin1_state("0")
    zero = np.kron(model.electron_state("0"), n0)
    dark = np.kron(model.electron_state("D"), n0)
    # y-axis pi rotation: |0> -> |D> up to phase, orthogonal level untouched
    assert abs(abs(np.vdot(dark, r @ zero)) - 1.0) < 1e-12
    bright = np.kron(model.electron_state("B"), n0)
    assert np.allclose(r @ bright, bright, atol=1e-12)


def test_subspace_rotation_axis_convention():
    rx = subspace_rotation(("e0", "eD"), np.pi / 2, axis="x")
    ry = subspace_rotation(("e0", "eD"), np.pi / 2, axis="y")
    assert np.abs(rx - ry).max() > 1e-3


def test_subspace_rotation_label_checks():
    with pytest.raises(ConfigError):
        subspace_rotation(("e0", "n0"), np.pi / 2)  # mixed parties
    with pytest.raises(ConfigError):
        subspace_rotation(("e+1", "eD"), np.pi / 2)  # not orthogonal
    with pytest.raises(ConfigError):
        subspace_rotation(("e0", "e0"), np.pi / 2)
    with pytest.raises(ConfigError):
        subspace_rotation(("nD", "n0"), np.pi / 2, variant=model.VARIANT_TWO)


def test_optical_pump_empties_bright_and_excited():
    """The pump couples only the bright superposition to the excited level,
    which decays; after 0.1 us at 30 MHz both are drained."""
    p = ds.SystemParams()
    n0 = model.nuclear_spin1_state("0")
    bright = np.kron(model.electron_state("B"), n0)
    rho = np.outer(bright, bright.conj())
    out = apply_segment(rho, OpticalPump(duration=0.1, e_amplitude=30.0), p)
    pops = np.diag(out).real
    p_a1 = pops[9:].sum()
    p_bright = np.vdot(bright, out @ bright).real
    assert p_a1 < 1e-6
    assert p_bright < 1e-3
    assert abs(np.trace(out).real - 1.0) < 1e-9
    # the dark superposition is untouched by the pump
    dark = np.kron(model.electron_state("D"), n0)
    rho_d = np.outer(dark, dark.conj())
    out_d = apply_segment(rho_d, OpticalPump(duration=0.1, e_amplitude=30.0), p)
    assert np.abs(out_d - rho_d).max() < 1e-12


def test_free_evolution_swaps_dark_populations():
    """A quarter hyperfine period pi/(2 g~) exchanges |D,D'>-type populations
    between the parties (their S_z I_z phases differ by pi)."""
    p = ds.SystemParams()
    n0 = model.nuclear_spin1_state("0")
    dark_e = np.kron(model.electron_state("D"), n0)
    rho = np.outer(dark_e, dark_e.conj())
    out = apply_segment(rho, FreeEvolution(duration=1.0 / (4.0 * p.g)), p)
    # |D>|0_n> is hyperfine-inert (I_z |0_n> = 0): stays put
    assert abs(np.vdot(dark_e, out @ dark_e).real - 1.0) < 1e-12
    # |D>|+1_n> flips to |B>|+1_n>
    dark_p = np.kron(model.electron_state("D"), model.nuclear_spin1_state("+1"))
    bright_p = np.kron(model.electron_state("B"), model.nuclear_spin1_state("+1"))
    rho2 = np.outer(dark_p, dark_p.conj())
    out2 = apply_segment(rho2, FreeEvolution(duration=1.0 / (4.0 * p.g)), p)
    assert abs(np.vdot(bright_p, out2 @ bright_p).real - 1.0) < 1e-12


def test_idle_decays_excited_level():
    p = ds.SystemParams()
    rho = np.zeros((12, 12), dtype=complex)
    rho[11, 11] = 1.0
    out = apply_segment(rho, Idle(duration=0.05), p)
    gamma = 2 * np.pi * 100.0
    assert abs(out[11, 11].real - np.exp(-gamma * 0.05)) < 1e-9


def test_standard_cycle_structure():
    p = ds.SystemParams()
    seq = standard_cycle(p, tau=0.02, cycles=50)
    kinds = tuple(type(s) for s in seq.segments)
    assert kinds == (OpticalPump, ElectronRotation, FreeEvolution, NuclearRotation)
    assert seq.segments[2].duration == pytest.approx(1.0 / (4.0 * p.g))
    assert seq.record_segment == 2
    assert seq.cycles == 50
    assert not seq.correction_enabled
    with pytest.raises(DomainError):
        standard_cycle(ds.SystemParams(g=0.0))


def test_ideal_cycle_reaches_target():
    p = ds.SystemParams()
    rho0 = model.mixed_ground_state(p.variant)
    traj = run_sequence(rho0, standard_cycle(p, tau=0.0, cycles=120), p)
    assert traj.fidelity[-1] > 0.97
    assert traj.cycles[-1] == 120
    assert len(traj.times) == 121
    assert np.all(np.diff(traj.times) > 0)
    assert np.all(traj.trace_deviation < 1e-8)


def test_residual_rotation_lowers_plateau_and_correction_recovers():
    p = ds.SystemParams()
    rho0 = model.mixed_ground_state(p.variant)
    tau = 0.02
    ideal = run_sequence(rho0, standard_cycle(p, tau=0.0, cycles=120), p)
    uncorr = run_sequence(rho0, standard_cycle(p, tau=tau, cycles=120), p)
    corr = run_sequence(
        rho0, standard_cycle(p, tau=tau, cycles=120, correction=True), p
    )
    tail = slice(-24, None)
    plateau_ideal = float(np.mean(ideal.fidelity[tail]))
    plateau_uncorr = float(np.mean(uncorr.fidelity[tail]))
    plateau_corr = float(np.mean(corr.fidelity[tail]))
    assert plateau_uncorr < plateau_ideal - 0.1
    assert abs(plateau_ideal - plateau_corr) < 0.02


def test_pulsed_plateau_matches_continuous_steady_state():
    """Both preparation routes target the same state; their asymptotic
    fidelities agree to well under 0.02."""
    p = ds.SystemParams()
    rho0 = model.mixed_ground_state(p.variant)
    traj = run_sequence(rho0, standard_cycle(p, tau=0.0, cycles=200), p)
    plateau = float(np.mean(traj.fidelity[-40:]))
    liouv = engine.build_liouvillian(
        model.build_hamiltonian(p), model.build_collapse_ops(p), p.layout
    )
    res = engine.steady_state(liouv)
    f_ss = engine.fidelity(res.rho, model.default_target(p.variant))
    assert abs(plateau - f_ss) < 0.02


def test_dephasing_lowers_fidelity_markovian():
    p_noisy = ds.SystemParams(t2_star=10.0, g=2.0)
    p_clean = ds.SystemParams(g=2.0)
    rho0 = model.mixed_ground_state(p_noisy.variant)
    seq = standard_cycle(p_clean, tau=0.0, cycles=100)
    clean = run_sequence(rho0, seq, p_clean)
    noisy = run_sequence(rho0, seq, p_noisy)
    assert noisy.fidelity.max() < clean.fidelity.max() - 0.01


def test_t2star_sweep_monotone():
    p = ds.SystemParams(g=2.0)
    seq = standard_cycle(p, tau=0.0, cycles=80)
    rows = t2star_sweep(p, seq, (5.0, 1.0, 20.0))  # unsorted on purpose
    assert [t2 for t2, _ in rows] == [1.0, 5.0, 20.0]
    fids = [f for _, f in rows]
    assert fids[0] < fids[1] < fids[2]
    with pytest.raises(ConfigError):
        t2star_sweep(p, seq, ())
    with pytest.raises(ConfigError):
        t2star_sweep(p, seq, (0.0, 1.0))


def test_quasistatic_noise_seeded():
    p = ds.SystemParams(t2_star=5.0, g=2.0)
    rho0 = model.mixed_ground_state(p.variant)
    seq = standard_cycle(p, tau=0.0, cycles=30)
    a = run_sequence(rho0, seq, p, noise_mode="quasistatic", noise_samples=40, seed=3)
    b = run_sequence(rho0, seq, p, noise_mode="quasistatic", noise_samples=40, seed=3)
    c = run_sequence(rho0, seq, p, noise_mode="quasistatic", noise_samples=40, seed=4)
    assert np.array_equal(a.fidelity, b.fidelity)
    assert not np.array_equal(a.fidelity, c.fidelity)
    # dephasing hurts here too
    assert a.fidelity.max() < 0.999


@pytest.mark.parametrize("samples,dd_filter", [
    pytest.param(1, False, id="1"), pytest.param(3, False, id="3"),
    pytest.param(1, True, id="1-filtered"), pytest.param(3, True, id="3-filtered"),
])
def test_quasistatic_average_is_the_in_order_mean_of_one_detuning_runs(samples, dd_filter):
    """A quasi-static run is, bit for bit, the sum of the runs under each
    drawn detuning, in draw order, divided by their count; a Markovian run
    is the run of the maps with no detuning.  300 cycles reach the GEMM
    blocks of engine.iterate.  With the filter on, the nuclear rotation's
    map is one shared by all samples."""
    p = ds.SystemParams(t2_star=10.0)
    seq = standard_cycle(p, tau=0.02, cycles=300, correction=True, dd_filter=dd_filter)
    rho0 = model.mixed_ground_state(p.variant)
    basis = linalg.HermitianBasis(p.dim)

    def run(detuning=None):
        head, step = next(pulses._cycle_maps(seq, p, [detuning]))
        return list(engine.iterate(basis.coords(rho0), step, seq.cycles, first=head))

    def observed(blocks):
        return engine.Trajectory.from_coords(blocks, float, basis,
                                             model.default_target(p.variant))

    deltas = np.random.default_rng(5).normal(0.0, np.sqrt(2.0) / p.t2_star, samples)
    total = run(float(deltas[0]))
    for delta in deltas[1:]:
        for acc, block in zip(total, run(float(delta))):
            acc += block
    cases = [
        (run_sequence(rho0, seq, p, noise_mode="quasistatic", noise_samples=samples, seed=5),
         observed([acc / samples for acc in total])),
        (run_sequence(rho0, seq, p), observed(run())),
    ]
    for got, expect in cases:
        assert np.array_equal(got.fidelity, expect.fidelity)
        assert np.array_equal(got.purity, expect.purity)


@pytest.mark.parametrize("dd_filter", [True, False])
def test_rotation_maps_are_built_once_per_sequence(dd_filter, monkeypatch):
    """The electron rotation, and the nuclear one unless it carries
    unfiltered T2* noise, are built once for all quasi-static samples."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return subspace_rotation(*args, **kwargs)

    monkeypatch.setattr(pulses, "subspace_rotation", counted)
    p = ds.SystemParams(t2_star=10.0)
    seq = standard_cycle(p, tau=0.02, cycles=3, dd_filter=dd_filter)
    samples = 5
    run_sequence(model.mixed_ground_state(p.variant), seq, p, noise_mode="quasistatic",
                 noise_samples=samples)
    assert len(calls) == (2 if dd_filter else 1 + samples)


def test_run_sequence_argument_checks():
    p = ds.SystemParams()
    seq = standard_cycle(p, cycles=5)
    rho0 = model.mixed_ground_state(p.variant)
    with pytest.raises(ConfigError):
        run_sequence(rho0, seq, p, noise_mode="telegraph")
    with pytest.raises(DimensionError):
        run_sequence(np.eye(5), seq, p)


def test_correction_requires_matching_rotation_pairs():
    p = ds.SystemParams()
    seq = PulseSequence(
        segments=(
            ElectronRotation(angle=np.pi / 2),
            ElectronRotation(angle=np.pi / 2),
            NuclearRotation(angle=np.pi / 2),
        ),
        cycles=1,
        correction_enabled=True,
    )
    rho0 = model.mixed_ground_state(p.variant)
    with pytest.raises(ConfigError):
        run_sequence(rho0, seq, p)


def test_dd_filter_gates_nuclear_noise():
    """With the decoupling filter on, dephasing ignores the slow nuclear
    rotation; switching it off exposes the 10 us window and hurts."""
    p = ds.SystemParams(t2_star=10.0)
    rho0 = model.mixed_ground_state(p.variant)
    on = run_sequence(rho0, standard_cycle(p, tau=0.0, cycles=60, dd_filter=True), p)
    off = run_sequence(rho0, standard_cycle(p, tau=0.0, cycles=60, dd_filter=False), p)
    assert off.fidelity.max() < on.fidelity.max() - 0.05


@pytest.mark.parametrize("record_segment", [0, 2, None])
@pytest.mark.parametrize("cycles", [0, 1, 5])
@pytest.mark.parametrize("noise_mode", ["markovian", "quasistatic"])
def test_composed_cycle_matches_segment_by_segment(record_segment, cycles, noise_mode):
    """One composed map per cycle gives the states that applying each
    segment map in turn gives, at every record point."""
    p = ds.SystemParams(t2_star=10.0)
    seq = replace(standard_cycle(p, tau=0.02, cycles=cycles, dd_filter=False),
                  record_segment=record_segment)
    detuning = 0.3 if noise_mode == "quasistatic" else None
    overrides = pulses._electron_overrides(seq, p)
    maps = [pulses._segment_propagator(seg, p, electron_angle=overrides.get(i),
                                       detuning=detuning, dd_filter=seq.dd_filter)
            for i, seg in enumerate(seq.segments)]
    record_at = len(maps) - 1 if record_segment is None else record_segment
    v = linalg.HermitianBasis(p.dim).coords(model.mixed_ground_state(p.variant))
    expect = [v]
    for _ in range(cycles):
        for i, mat in enumerate(maps):
            v = mat @ v
            if i == record_at:
                expect.append(v)
    head, step = next(pulses._cycle_maps(seq, p, [detuning]))
    got = np.concatenate(list(engine.iterate(expect[0], step, cycles, first=head)))
    assert len(got) == cycles + 1
    for a, b in zip(got, expect):
        assert np.abs(a - b).max() < 1e-12


def unitary_superop(u):
    return np.kron(u.conj(), u)


def generator_superop(h, cs, p, duration):
    return scipy.linalg.expm(duration * engine.build_liouvillian(h, cs, p.layout).matrix)


def complex_segment_maps(p, delta):
    """(name, segment, _segment_propagator keywords, the column-stacked
    complex map written out from the segment's physics, unitary?)."""
    sz = model.build_operators(p.variant)["S_z"]
    free = replace(p, omega_e=0.0, omega_n=0.0, e_plus=0.0, e_minus=0.0)
    pump = replace(p, omega_e=0.0, omega_n=0.0, g=0.0, t2_star=None, e_plus=30.0, e_minus=-30.0)
    idle = replace(free, g=0.0)
    u_e = subspace_rotation(("e0", "eD"), 1.2, "x")
    eps = dd_error(p.g, p.omega_n, 0.02)
    u_n = unitary_superop(subspace_rotation(("n0", "nD"), np.pi / 2 - eps, "y"))
    u_free = scipy.linalg.expm(-0.1j * (model.build_hamiltonian(free) + delta * sz))
    nuclear = NuclearRotation(np.pi / 2, dd_interval=0.02, duration=10.0)
    quasi = dict(detuning=delta)
    return [
        ("pump", OpticalPump(0.1, 30.0), {},
         generator_superop(model.build_hamiltonian(pump), model.decay_ops(pump), p, 0.1), False),
        ("electron", ElectronRotation(1.2, "x"), {}, unitary_superop(u_e), True),
        ("free-dephased", FreeEvolution(0.1), {},
         generator_superop(model.build_hamiltonian(free), [model.dephasing_op(free)], p, 0.1),
         False),
        ("free-unitary", FreeEvolution(0.1), quasi, unitary_superop(u_free), True),
        ("nuclear-filtered", nuclear, {}, u_n, True),
        ("nuclear-markovian", nuclear, dict(dd_filter=False),
         generator_superop(np.zeros_like(sz), [model.dephasing_op(p)], p, 10.0) @ u_n, False),
        ("nuclear-quasistatic", nuclear, dict(dd_filter=False, **quasi),
         unitary_superop(scipy.linalg.expm(-10j * delta * sz)) @ u_n, True),
        ("idle", Idle(0.1), {},
         generator_superop(model.build_hamiltonian(idle), model.build_collapse_ops(idle), p, 0.1),
         False),
    ]


def test_segment_maps_are_real_images_of_complex_maps():
    """Every segment type's map is T^H M T of its complex map M, real; the
    unitary ones are orthogonal."""
    p = ds.SystemParams(t2_star=10.0)
    mats = linalg.HermitianBasis(p.dim).states(np.eye(p.dim ** 2))
    t = np.stack([ds.vectorize(b) for b in mats], axis=1)
    eye = np.eye(p.dim ** 2)
    for name, seg, kwargs, m, unitary in complex_segment_maps(p, 0.3):
        real = pulses._segment_propagator(seg, p, **kwargs)
        assert real.dtype == np.float64, name
        assert np.abs(real - t.conj().T @ m @ t).max() < 1e-12, name
        if unitary:
            assert np.abs(real.T @ real - eye).max() < 1e-12, name


@pytest.mark.parametrize("pump_e", [30.0, 30.0 * (1 + 3.7e-7), 17.3])
def test_pump_and_dephased_free_evolution_stay_block_diagonal(pump_e, monkeypatch):
    """The real generators that the pump and the dephased free evolution
    hand to expm split into components no wider than 10 and 2: rounding in
    build_liouvillian or HermitianBasis.real that filled in their zeros
    would make every pump map a dense 144x144 expm."""
    seen = []
    original = linalg.expm

    def recording(a, s=1.0):
        seen.append(a)
        return original(a, s)

    monkeypatch.setattr(linalg, "expm", recording)
    p = ds.SystemParams(t2_star=10.0)
    pulses._segment_propagator(OpticalPump(duration=0.1, e_amplitude=pump_e), p)
    pulses._segment_propagator(FreeEvolution(duration=1.0 / (4.0 * p.g)), p)
    pump, free = (np.bincount(linalg._components(a)).max() for a in seen)
    assert pump <= 10 and free <= 2


ANGLES = st.floats(-2 * np.pi, 2 * np.pi)
AXES = st.sampled_from(["x", "y"])
SEGMENTS = {
    "pump": st.builds(OpticalPump, duration=st.floats(0, 0.5),
                      e_amplitude=st.none() | st.floats(-40, 40)),
    "electron": st.builds(ElectronRotation, angle=ANGLES, axis=AXES),
    "free": st.builds(FreeEvolution, duration=st.floats(0, 1)),
    "nuclear": st.builds(NuclearRotation, angle=ANGLES, axis=AXES,
                         dd_interval=st.floats(0, 0.1), duration=st.floats(0, 20)),
    "idle": st.builds(Idle, duration=st.floats(0, 1)),
}


@st.composite
def system_params(draw, variant, t2_star):
    value = st.floats(0, 5)
    return ds.SystemParams(  # g > 0, which dd_error needs
        omega_e=draw(value), omega_n=draw(value), g=draw(st.floats(0.1, 5)),
        e_plus=draw(st.floats(-40, 40)), e_minus=draw(st.floats(-40, 40)),
        gamma_plus=draw(st.floats(0, 50)), gamma_minus=draw(st.floats(0, 50)),
        gamma_zero=draw(st.floats(0, 50)),
        t2_star=draw(st.floats(0.5, 100)) if t2_star else None,
        variant=variant,
        asymmetry=draw(st.tuples(*[st.floats(0, 2)] * (len(model.layout(variant).factor_dims) - 1))),
        asymmetric_hyperfine=draw(st.booleans()),
    )


def choi(real, basis):
    """The Choi matrix sum_ij E_ij kron Phi(E_ij) of the map whose matrix
    in ``basis`` is ``real``: Phi(E_ij)[a, b] is entry (b d + a, j d + i)
    of the column-stacked superoperator T real T^H."""
    d = basis.dim
    t = np.stack([ds.vectorize(b) for b in basis.states(np.eye(d * d))], axis=1)
    sup = (t @ real @ t.conj().T).reshape(d, d, d, d)
    return sup.transpose(3, 1, 2, 0).reshape(d * d, d * d)


# (segment, T2* set, quasistatic, dd_filter): free evolution dephased,
# detuned and noiseless, the nuclear rotation filtered and unfiltered in
# both noise modes.
CPTP_CASES = [
    ("pump", True, False, True),
    ("electron", True, True, True),
    ("free", True, False, True),
    ("free", True, True, True),
    ("free", False, False, True),
    ("nuclear", True, False, True),
    ("nuclear", True, False, False),
    ("nuclear", True, True, True),
    ("nuclear", True, True, False),
    ("idle", True, False, True),
]


@pytest.mark.parametrize("kind, t2_star, quasistatic, dd_filter", CPTP_CASES)
@settings(max_examples=10)
@given(data=st.data())
def test_segment_maps_are_cptp(kind, t2_star, quasistatic, dd_filter, data):
    """Over random parameters, durations, angles and detunings every
    segment map keeps the trace (the sum of the diagonal coordinates) to
    1e-12 and is completely positive: its Choi matrix is PSD to -1e-10."""
    variants = [model.VARIANT_SINGLE] if kind == "nuclear" else model.VARIANTS
    p = data.draw(system_params(data.draw(st.sampled_from(variants)), t2_star))
    seg = data.draw(SEGMENTS[kind])
    real = pulses._segment_propagator(
        seg, p, electron_angle=data.draw(st.none() | ANGLES),
        detuning=data.draw(st.floats(-3, 3)) if quasistatic else None,
        dd_filter=dd_filter)
    trace = np.repeat([1.0, 0.0], [p.dim, p.dim ** 2 - p.dim])
    assert np.abs(trace @ real - trace).max() <= 1e-12
    c = choi(real, linalg.HermitianBasis(p.dim))
    assert np.abs(c - c.conj().T).max() <= 1e-12
    assert np.linalg.eigvalsh(c).min() >= -1e-10
