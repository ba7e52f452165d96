"""Lindblad engine: Liouvillian structure, both integrators, steady states."""

import numpy as np
import pytest

import darksteady as ds
from darksteady import engine, model, pulses
from darksteady.engine import (
    build_liouvillian,
    evolve_fixed_step,
    evolve_propagator,
    fidelity,
    purity,
    stationarity_residual,
    steady_state,
)
from darksteady.errors import (
    DimensionError,
    DomainError,
    NonUniqueSteadyState,
    NumericalError,
    StepSizeError,
)


def fig2_system():
    p = ds.SystemParams()
    liouv = build_liouvillian(
        model.build_hamiltonian(p), model.build_collapse_ops(p), p.layout
    )
    return p, liouv


def decay_only_system():
    p = ds.SystemParams(
        omega_e=0, omega_n=0, g=0, e_plus=0, e_minus=0,
        gamma_plus=0.5, gamma_minus=0.5, gamma_zero=1.0,
    )
    liouv = build_liouvillian(
        model.build_hamiltonian(p), model.build_collapse_ops(p), p.layout
    )
    return p, liouv


def excited_state():
    rho = np.zeros((12, 12), dtype=complex)
    rho[11, 11] = 1.0  # |A1, n0>
    return rho


def test_liouvillian_annihilates_trace():
    """vec(I)^dag L = 0: the generator preserves Tr rho."""
    _, liouv = fig2_system()
    lhs = ds.vectorize(np.eye(12)).conj() @ liouv.matrix
    assert np.abs(lhs).max() < 1e-10


def test_build_liouvillian_shape_checks():
    with pytest.raises(DimensionError):
        build_liouvillian(np.eye(12), [np.eye(11)])
    with pytest.raises(DimensionError):
        build_liouvillian(np.zeros((12, 11)), [])


def test_vectorized_matches_direct_rhs():
    p, liouv = fig2_system()
    h = model.build_hamiltonian(p)
    cs = model.build_collapse_ops(p)
    heff = h - 0.5j * sum(c.conj().T @ c for c in cs)
    rng = np.random.default_rng(5)
    for _ in range(20):
        a = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
        rho = a @ a.conj().T
        rho /= np.trace(rho).real
        direct = -1j * (heff @ rho - rho @ heff.conj().T)
        direct += sum(c @ rho @ c.conj().T for c in cs)
        via_l = ds.unvectorize(liouv.matrix @ ds.vectorize(rho), 12)
        assert np.abs(direct - via_l).max() < 1e-12


def test_amplitude_damping_analytic():
    """Excited population decays as exp(-Gamma t) with the summed rate."""
    _, liouv = decay_only_system()
    rho0 = excited_state()
    gamma = 2 * np.pi * 2.0
    traj = evolve_fixed_step(rho0, liouv, 1.0, 0.001, sample_every=100,
                             store_states=True)
    for t, st in zip(traj.times, traj.states):
        assert abs(st[11, 11].real - np.exp(-gamma * t)) < 1e-9
        # gamma_zero branch collects half the decayed weight into |0, n0>
        assert abs(st[8, 8].real - 0.5 * (1 - np.exp(-gamma * t))) < 1e-9
    end = evolve_propagator(rho0, liouv, 1.0)
    assert abs(end[11, 11].real - np.exp(-gamma)) < 1e-12


def test_rabi_oscillation_drive_only():
    """Electron drive alone: P_0(t) = cos^2(2*sqrt(2)*pi*Omega*t)."""
    p = ds.SystemParams(omega_e=1.0, omega_n=0, g=0, e_plus=0, e_minus=0,
                        gamma_plus=0, gamma_minus=0, gamma_zero=0)
    liouv = build_liouvillian(model.build_hamiltonian(p), [], p.layout)
    psi0 = np.kron(model.electron_state("0"), model.nuclear_spin1_state("0"))
    rho0 = np.outer(psi0, psi0.conj())
    traj = evolve_fixed_step(rho0, liouv, 1.0, 0.001, sample_every=25,
                             store_states=True)
    for t, st in zip(traj.times, traj.states):
        p0 = sum(st[6 + k, 6 + k].real for k in range(3))
        assert abs(p0 - np.cos(2 * np.sqrt(2) * np.pi * t) ** 2) < 1e-7


def test_matrix_step_equals_classical_rk4():
    """The precomputed step matrix reproduces the four-stage RK4 update."""
    _, liouv = fig2_system()
    rho0 = model.mixed_ground_state(model.VARIANT_SINGLE)
    dt = 5e-5
    n = 40
    traj = evolve_fixed_step(rho0, liouv, n * dt, dt, sample_every=10 ** 9,
                             store_states=True)
    v = ds.vectorize(rho0)
    a = liouv.matrix
    for _ in range(n):
        k1 = a @ v
        k2 = a @ (v + 0.5 * dt * k1)
        k3 = a @ (v + 0.5 * dt * k2)
        k4 = a @ (v + dt * k3)
        v = v + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    ref = ds.unvectorize(v, 12)
    assert np.abs(traj.states[-1] - ref).max() < 1e-13


def test_rk4_samples_match_stepwise_stage_form():
    """Every sample equals the four-stage update applied one step at a time,
    including the last partial interval (47 steps, a sample every 10)."""
    _, liouv = fig2_system()
    rho0 = model.mixed_ground_state(model.VARIANT_SINGLE)
    dt, n, every = 5e-5, 47, 10
    traj = evolve_fixed_step(rho0, liouv, n * dt, dt, sample_every=every,
                             store_states=True)
    v = ds.vectorize(rho0)
    a = liouv.matrix
    ref = {0: v}
    for step in range(1, n + 1):
        k1 = a @ v
        k2 = a @ (v + 0.5 * dt * k1)
        k3 = a @ (v + 0.5 * dt * k2)
        k4 = a @ (v + dt * k3)
        v = v + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        ref[step] = v
    steps = [0, 10, 20, 30, 40, 47]
    assert traj.times == pytest.approx([k * dt for k in steps], rel=1e-12)
    assert len(traj.states) == len(steps)
    for k, state in zip(steps, traj.states):
        assert np.abs(state - ds.unvectorize(ref[k], 12)).max() < 1e-12


def test_observables_and_final_state_match_stored_states():
    """``expectations`` and ``final_state`` equal what the stored states
    give, over a run whose last interval is partial (47 steps, a sample
    every 10); a pulsed run's final state is its last sample."""
    p, liouv = fig2_system()
    target = model.default_target(p.variant)
    rho0 = model.mixed_ground_state(p.variant)
    proj = np.outer(target, target.conj())
    dt = 5e-5
    traj = evolve_fixed_step(rho0, liouv, 47 * dt, dt, sample_every=10, target=target,
                             store_states=True, observables={"target": proj})
    assert list(traj.expectations) == ["target"]
    assert traj.expectations["target"].tolist() == [
        float(np.trace(proj @ s).real) for s in traj.states
    ]
    assert np.array_equal(traj.final_state, traj.states[-1])

    seq = pulses.standard_cycle(p, tau=0.02, cycles=3)
    pulsed = pulses.run_sequence(rho0, seq, p)
    assert pulsed.expectations == {}
    assert fidelity(pulsed.final_state, target) == pulsed.fidelity[-1]
    assert purity(pulsed.final_state) == pulsed.purity[-1]
    assert np.array_equal(np.diag(pulsed.final_state).real, pulsed.populations[-1])


def test_step_size_guard():
    _, liouv = fig2_system()
    rho0 = model.mixed_ground_state(model.VARIANT_SINGLE)
    with pytest.raises(StepSizeError) as info:
        evolve_fixed_step(rho0, liouv, 1.0, 0.1)
    assert info.value.suggested_dt is not None
    assert info.value.suggested_dt <= 0.1 / liouv.norm_bound() * (1 + 1e-9)
    # the suggested step is accepted
    evolve_fixed_step(rho0, liouv, 10 * info.value.suggested_dt,
                      info.value.suggested_dt)


def test_evolve_argument_validation():
    _, liouv = fig2_system()
    rho0 = model.mixed_ground_state(model.VARIANT_SINGLE)
    with pytest.raises(DomainError):
        evolve_fixed_step(rho0, liouv, -1.0, 0.001)
    with pytest.raises(DomainError):
        evolve_fixed_step(rho0, liouv, 1.0, 0.0)
    with pytest.raises(DimensionError):
        evolve_fixed_step(np.eye(5), liouv, 1.0, 0.001)
    with pytest.raises(DomainError):
        evolve_propagator(rho0, liouv, -0.5)


def test_propagator_zero_time_is_identity():
    _, liouv = fig2_system()
    rho0 = model.mixed_ground_state(model.VARIANT_SINGLE)
    assert np.array_equal(evolve_propagator(rho0, liouv, 0.0), rho0)


def test_trajectory_sampling_and_trace():
    p, liouv = fig2_system()
    target = model.default_target(p.variant)
    rho0 = model.mixed_ground_state(p.variant)
    dt = 0.1 / liouv.norm_bound()
    traj = evolve_fixed_step(rho0, liouv, 1.0, dt, sample_every=200, target=target)
    assert traj.times[0] == 0.0
    assert np.all(np.diff(traj.times) > 0)
    assert traj.times[-1] == pytest.approx(1.0, abs=1e-12)
    assert abs(traj.fidelity[0] - 1.0 / 9.0) < 1e-12
    assert abs(traj.purity[0] - 1.0 / 9.0) < 1e-12
    assert np.all(traj.trace_deviation < 1e-9)
    assert traj.states is None
    assert traj.populations.shape == (len(traj.times), 12)


def test_fidelity_and_purity_contracts():
    psi = model.default_target(model.VARIANT_SINGLE)
    rho = np.outer(psi, psi.conj())
    assert fidelity(rho, psi) == pytest.approx(1.0, abs=1e-14)
    assert purity(rho) == pytest.approx(1.0, abs=1e-14)
    mixed = model.mixed_ground_state(model.VARIANT_SINGLE)
    assert fidelity(mixed, psi) == pytest.approx(1.0 / 9.0, abs=1e-14)
    with pytest.raises(DimensionError):
        fidelity(rho, psi[:5])
    # a non-hermitian matrix makes the sandwich complex; that is an error
    with pytest.raises(NumericalError):
        fidelity(1j * rho, psi)


def test_steady_state_unique_and_stationary():
    p, liouv = fig2_system()
    res = steady_state(liouv)
    assert res.null_dimension == 1
    assert res.spectral_gap > 0
    assert stationarity_residual(liouv, res.rho) < 1e-8
    assert fidelity(res.rho, model.default_target(p.variant)) > 0.999
    vals = np.linalg.eigvalsh(res.rho)
    assert vals.min() >= -1e-12
    assert abs(np.trace(res.rho) - 1.0) < 1e-12


def test_steady_state_matches_long_time_limit():
    p, liouv = fig2_system()
    res = steady_state(liouv)
    end = evolve_propagator(model.mixed_ground_state(p.variant), liouv, 300.0)
    assert np.abs(end - res.rho).max() < 1e-10


def test_steady_state_initial_state_independence():
    """Three different initial states land on the same attractor."""
    p, liouv = fig2_system()
    rng = np.random.default_rng(11)
    inits = [model.mixed_ground_state(p.variant)]
    for _ in range(2):
        a = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
        r = a @ a.conj().T
        inits.append(r / np.trace(r).real)
    ends = [evolve_propagator(r, liouv, 300.0) for r in inits]
    for e in ends[1:]:
        assert np.abs(ends[0] - e).max() < 1e-6


def test_nonunique_steady_state_reported():
    """Without any drive the ground manifold is all stationary."""
    p = ds.SystemParams(omega_e=0, omega_n=0, g=0, e_plus=0, e_minus=0)
    liouv = build_liouvillian(
        model.build_hamiltonian(p), model.build_collapse_ops(p), p.layout
    )
    with pytest.raises(NonUniqueSteadyState) as info:
        steady_state(liouv)
    exc = info.value
    assert exc.null_dimension > 1
    assert exc.stationary_basis is not None
    assert len(exc.stationary_basis) == exc.null_dimension
    # every reported basis element is stationary
    for b in exc.stationary_basis:
        assert np.abs(liouv.matrix @ ds.vectorize(b)).max() < 1e-8


@pytest.mark.parametrize("omega_e,gap", [(1.0, 0.675005), (2.0 ** 0.5, 0.941949)])
def test_degenerate_attractor_gap_is_a_decay_rate(omega_e, gap):
    """The symmetric two-nuclei system has a 3-dimensional stationary space
    whose purely imaginary eigenvalues must not pass for decay rates."""
    p = ds.SystemParams(variant=model.VARIANT_TWO, omega_e=omega_e)
    liouv = build_liouvillian(
        model.build_hamiltonian(p), model.build_collapse_ops(p), p.layout
    )
    with pytest.raises(NonUniqueSteadyState) as info:
        steady_state(liouv)
    assert info.value.null_dimension == 3
    assert info.value.spectral_gap == pytest.approx(gap, abs=1e-6)


def test_late_time_fidelity_monotone():
    """Once fidelity passes 0.9 it keeps rising toward the attractor."""
    p, liouv = fig2_system()
    target = model.default_target(p.variant)
    rho0 = model.mixed_ground_state(p.variant)
    dt = 0.1 / liouv.norm_bound()
    traj = evolve_fixed_step(rho0, liouv, 25.0, dt, sample_every=500, target=target)
    f = traj.fidelity
    above = np.nonzero(f > 0.9)[0]
    assert above.size > 10
    tail = f[above[0]:]
    assert np.all(np.diff(tail) > -1e-9)
