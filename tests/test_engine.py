"""Lindblad engine: Liouvillian structure, both integrators, steady states."""

import functools
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import darksteady as ds
from darksteady import cli, engine, linalg, model, pulses
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


def with_mirror(p, liouv):
    """``liouv`` with the mirror of p's variant as its symmetry (a new
    Liouvillian, so nothing made for ``liouv`` carries over)."""
    return replace(liouv, symmetry=model.mirror(p.variant))


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


@pytest.mark.parametrize("where", ["hamiltonian", "collapse"])
@pytest.mark.parametrize("value", [np.nan, np.inf, complex(0, np.inf)], ids=["nan", "inf", "inf-j"])
def test_build_liouvillian_rejects_a_non_finite_operator(value, where):
    """One non-finite entry of H or of one collapse operator is a
    DomainError, not a generator whose runs give NaN without an error."""
    p = ds.SystemParams()
    h, cs = model.build_hamiltonian(p), [c.astype(complex) for c in model.build_collapse_ops(p)]
    (h if where == "hamiltonian" else cs[1])[3, 5] = value
    with pytest.raises(DomainError, match="finite"):
        build_liouvillian(h, cs, p.layout)


def kronecker_formula(h, cs):
    """L of the module docstring, its terms in the docstring's order:
    -i (I kron H_eff) + i (conj(H_eff) kron I) + sum_k conj(C_k) kron C_k."""
    h_eff = np.asarray(h, dtype=complex)
    for c in cs:
        h_eff = h_eff - 0.5j * (c.conj().T @ c)
    eye = np.eye(len(h_eff), dtype=complex)
    mat = -1j * np.kron(eye, h_eff) + 1j * np.kron(h_eff.conj(), eye)
    for c in cs:
        mat = mat + np.kron(c.conj(), c)
    return mat


def model_generators():
    """H and the collapse operators of the pump, of both variants with and
    without T2*, with an empty collapse list, and at d = 1."""
    for variant in model.VARIANTS:
        p = ds.SystemParams(variant=variant)
        pump = replace(p, omega_e=0.0, omega_n=0.0, g=0.0, e_plus=30.0, e_minus=-30.0)
        yield pytest.param(model.build_hamiltonian(pump), model.decay_ops(pump), id=f"pump-{variant}")
        for t2 in (None, 10.0):
            q = replace(p, t2_star=t2)
            yield pytest.param(model.build_hamiltonian(q), model.build_collapse_ops(q),
                               id=f"{variant}-t2-{t2}")
        yield pytest.param(model.build_hamiltonian(p), [], id=f"no-collapse-{variant}")
    yield pytest.param(np.array([[0.7]]), [np.array([[1.3]])], id="d1")
    yield pytest.param(np.array([[0.7]]), [], id="d1-no-collapse")


@pytest.mark.parametrize("h, cs", list(model_generators()))
def test_build_liouvillian_is_the_kronecker_formula(h, cs):
    """Bit for bit, signs of zeros included: where terms of the model's
    operators meet on one entry (the diagonal of L, with dephasing), their
    sum is exact in any order."""
    mat = build_liouvillian(h, cs).matrix
    assert mat.tobytes() == kronecker_formula(h, cs).tobytes()


@given(d=st.integers(1, 6), k=st.integers(0, 4), seed=st.integers(0, 2**32 - 1))
def test_build_liouvillian_of_random_operators_is_the_kronecker_formula(d, k, seed):
    """Random complex operators sum in another order than the formula's, so
    to rounding: 1e-14 times the 1-norm of the terms, 2 ||H_eff||_1 + sum
    ||C_k||_1^2 (at d = 1 they cancel to an L far below it)."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    cs = [rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for _ in range(k)]
    h_eff = a + a.conj().T - 0.5j * sum(c.conj().T @ c for c in cs)
    scale = 2 * np.abs(h_eff).sum(axis=0).max() + sum(np.abs(c).sum(axis=0).max() ** 2 for c in cs)
    mat = build_liouvillian(a + a.conj().T, cs).matrix
    assert np.abs(mat - kronecker_formula(a + a.conj().T, cs)).max() <= 1e-14 * scale


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


@pytest.mark.parametrize("dt", [None, 1e-9, 1e-14])
def test_rk4_sample_map_keeps_the_trace(dt):
    """One 0.05 us sample map keeps the trace functional to 1e-14 however
    many steps it holds (767 at the default step, 5e12 at 1e-14)."""
    _, liouv = fig2_system()
    dt = 0.1 / liouv.norm_bound() if dt is None else dt
    step = engine.rk4_map(liouv, dt, round(0.05 / dt))
    trace = linalg.HermitianBasis(12).coords(np.eye(12))
    assert np.abs(trace @ step - trace).max() <= 1e-14


def test_rk4_small_step_map_matches_the_propagator():
    """5e7 steps of 1e-9 us give exp(0.05 L) on the ground mixture."""
    _, liouv = fig2_system()
    x = linalg.HermitianBasis(12).coords(model.mixed_ground_state(model.VARIANT_SINGLE))
    step = engine.rk4_map(liouv, 1e-9, 50_000_000)
    assert np.abs(step @ x - linalg.expm(liouv.real(), 0.05) @ x).max() <= 1e-12
    assert np.array_equal(engine.rk4_map(liouv, 1e-9, 0), np.eye(144))


@pytest.mark.parametrize("dt, steps", [(1e-5, -3), (1e-5, 2.5), (1e-5, None), (math.nan, 2),
                                       (math.inf, 2), (-1e-5, 2), (0.0, 2)])
def test_rk4_map_rejects_bad_time_arguments(dt, steps):
    """A step that is not finite and > 0, or a step count that is not an
    integer >= 0, is a domain error; a negative count would never end the
    repeated squaring of _rk4_power."""
    _, liouv = fig2_system()
    with pytest.raises(DomainError):
        engine.rk4_map(liouv, dt, steps)


def test_rk4_step_count_overflow_is_domain_error():
    _, liouv = fig2_system()
    rho0 = model.mixed_ground_state(model.VARIANT_SINGLE)
    with pytest.raises(DomainError, match="dt"):
        evolve_fixed_step(rho0, liouv, t_end=1.0, dt=1e-320)


def test_iterate_count_zero_yields_only_a_copy():
    v = np.arange(4, dtype=complex)
    out = list(engine.iterate(v, np.eye(4), 0))
    assert len(out) == 1 and np.array_equal(out[0], [v])
    out[0] += 1.0  # accumulating into the yielded block leaves v alone
    assert np.array_equal(v, np.arange(4))


@pytest.mark.parametrize("count", [2, 3, 5])
def test_iterate_applies_first_and_last_once(count):
    """Diagonal maps with distinct prime factors show which map made each
    vector: first, then step, ..., then last."""
    step, first, last = (np.diag([f, 1.0]) for f in (2.0, 3.0, 5.0))
    v = np.ones(2)
    blocks = list(engine.iterate(v, step, count, first=first, last=last))
    out = np.concatenate(blocks)
    expect = [1.0] + [3.0 * 2.0 ** j for j in range(count - 1)] + [3.0 * 2.0 ** (count - 2) * 5.0]
    assert [w[0] for w in out] == expect
    assert [w[1] for w in out] == [1.0] * (count + 1)
    assert len({id(b) for b in blocks} | {id(v)}) == len(blocks) + 1
    assert not any(np.shares_memory(b, v) for b in blocks)
    no_first = np.concatenate(list(engine.iterate(v, step, count)))
    assert [w[0] for w in no_first] == [2.0 ** k for k in range(count + 1)]


def test_iterate_until_matches_fixed_count():
    """A run stopped by ``until`` is bitwise the run of the count it
    returned; ``until`` sees each vector up to the one that set it."""
    _, liouv = fig2_system()
    step = engine.rk4_map(liouv, 0.1 / liouv.norm_bound(), 50)
    v = linalg.HermitianBasis(12).coords(model.mixed_ground_state(model.VARIANT_SINGLE))
    seen = []

    def until(k, w):
        seen.append(k)
        return k + 3 if k == 7 else None

    stopped = np.concatenate(list(engine.iterate(v, step, until=until)))
    fixed = np.concatenate(list(engine.iterate(v, step, 10)))
    assert seen == list(range(1, 8))
    assert len(stopped) == len(fixed) == 11
    for a, b in zip(stopped, fixed):
        assert np.array_equal(a, b)


def test_iterate_until_may_raise():
    def until(k, w):
        if k == 3:
            raise NumericalError("stop")

    got = []
    with pytest.raises(NumericalError, match="stop"):
        for block in engine.iterate(np.ones(2), 0.5 * np.eye(2), until=until):
            got.extend(block[:, 0])
    assert got == [1.0, 0.5, 0.25]


def product_chain(v, step, count, first=None, last=None):
    """v_0 = v, then ``count`` vectors, one matrix-vector product each."""
    out = [v.copy()]
    for k in range(1, count + 1):
        if k == 1 and first is not None:
            out.append(first @ out[-1])
        elif k == count and last is not None:
            out.append(last @ out[-1])
        else:
            out.append(step @ out[-1])
    return out


@functools.cache
def chain_maps(kind):
    """(v, step, first, last): the 144 RK4 sample map of the fig2 system
    with a 3-step first and 7-step last map, or a composed pulsed cycle map
    with its head map and the bare pump map as last."""
    p, liouv = fig2_system()
    v = linalg.HermitianBasis(12).coords(model.mixed_ground_state(p.variant))
    if kind == "rk4":
        dt = 0.1 / liouv.norm_bound()
        return v, *(engine.rk4_map(liouv, dt, n) for n in (20, 3, 7))
    p = ds.SystemParams(t2_star=10.0)
    seq = pulses.standard_cycle(p, tau=0.02, cycles=1)
    head, step, _ = next(pulses._cycle_maps(seq, p, [None]))
    return v, step, head, pulses._segment_propagator(seq.segments[0], p)


@pytest.mark.parametrize("ends", ["none", "first", "last", "both"])
@pytest.mark.parametrize("count", [0, 1, 63, 64, 65, 128, 129, 255, 256, 257, 2000])
@pytest.mark.parametrize("kind", ["rk4", "pulsed"])
def test_iterate_blocks_match_the_product_chain(kind, count, ends):
    """Blocks of 64 rows; past the product blocks, one GEMM with step^64
    per block gives the vectors of one product each to 1e-12 of ||v||, and
    the first 256 vectors are the product chain bit for bit."""
    v, step, first, last = chain_maps(kind)
    first = first if ends in ("first", "both") else None
    last = last if ends in ("last", "both") else None
    blocks = list(engine.iterate(v, step, count, first=first, last=last))
    expect = np.array(product_chain(v, step, count, first=first, last=last))
    assert [len(b) for b in blocks] == [64] * (count // 64) + [count % 64 + 1]
    got = np.concatenate(blocks)
    assert np.array_equal(got[:256], expect[:256])
    assert np.abs(got - expect).max() <= 1e-12 * np.linalg.norm(v)


class Counted(np.ndarray):
    """A map that records the shapes of the operands of each product it
    takes part in (in ``log``, set on the instance)."""

    def __array_ufunc__(self, ufunc, method, *args, **kwargs):
        self.log.append(tuple(np.shape(x) for x in args))
        args = [x.view(np.ndarray) if isinstance(x, Counted) else x for x in args]
        return getattr(ufunc, method)(*args, **kwargs)


@pytest.mark.parametrize("count", [64, 256])
def test_iterate_makes_a_lone_last_row_by_one_product(count):
    """With ``last`` and a count that leaves v_count alone in its block,
    v_count is ``last @ v_(count-1)``: no step product or power is formed
    for a row that ``last`` replaces, and the bits are unchanged."""
    v, step, _, last = chain_maps("rk4")
    step_c, last_c = step.view(Counted), last.view(Counted)
    step_c.log, last_c.log = [], []
    blocks = list(engine.iterate(v, step_c, count, last=last_c))
    assert step_c.log == [(step.shape, v.shape)] * (count - 1)
    assert last_c.log == [(last.shape, v.shape)]
    assert [len(b) for b in blocks] == [64] * (count // 64) + [1]
    expect = np.array(product_chain(v, step, count, last=last))
    assert np.array_equal(np.concatenate(blocks), expect)


@pytest.mark.parametrize("stop, told_at", [(70, 30), (70, 70), (260, 30), (260, 260)],
                         ids=["products-early", "products", "gemm-early", "gemm"])
def test_iterate_until_stop_mid_block_is_the_fixed_count_run(stop, told_at):
    """``until`` sets a count inside a block, of products (70) or of one
    GEMM (260, five rows in), at k = ``told_at``: the run is bitwise the
    run of that count, and ``until`` saw every k up to ``told_at``, in
    order.  A GEMM of five rows need not give the bits of the same rows of
    a full block, so the fixed-count run must make full blocks too."""
    v, step, _, _ = chain_maps("rk4")
    seen = []

    def until(k, w):
        seen.append(k)
        assert np.array_equal(w, fixed[k])
        return stop if k == told_at else None

    fixed = np.concatenate(list(engine.iterate(v, step, stop)))
    stopped = np.concatenate(list(engine.iterate(v, step, until=until)))
    assert seen == list(range(1, told_at + 1))
    assert np.array_equal(stopped, fixed)


def test_quasistatic_short_run_is_the_product_chain(tmp_path, monkeypatch):
    """A quasi-static fig3 of 25 cycles is made by products, so its
    data.csv has the bytes of a run whose every vector is one product."""
    text = ("experiment = fig3\ncycles = 25\n[params]\nt2_star = 10\n"
            "[pulse]\nnoise_mode = quasistatic\nnoise_samples = 5\n")
    (tmp_path / "run.ini").write_text(text)

    def data(name):
        out = tmp_path / name
        assert cli.main(["fig3", "--config", str(tmp_path / "run.ini"), "--out", str(out)]) == 0
        return (out / "data.csv").read_bytes()

    blocked = data("blocked")
    monkeypatch.setattr(pulses, "iterate",
                        lambda *args, **kw: iter([np.array(product_chain(*args, **kw))]))
    assert data("chained") == blocked


@pytest.mark.parametrize(
    "system, steps, cycles",
    [("fig2", 47, 3), ("fig2", 1497, 150), ("two-nuclei", 47, None), ("fig2", 2997, 300)],
    ids=["one-block", "three-blocks", "two-nuclei", "gemm-block"],
)
def test_observables_and_final_state_match_stored_states(system, steps, cycles):
    """What a trajectory reads off the coordinates agrees with the stored
    states, over a run whose last interval is partial (a sample every 10
    steps); a pulsed run's final state is its last sample.  The second
    case observes 151 samples: two full blocks and a partial one; the
    third observes the nuclear singlet of two nuclei; the fourth observes
    301 samples, whose last block is one GEMM past the product blocks.
    Populations and the final state are exact; the rest are dot products
    on one side and matrix products on the other, so they agree to 1e-14."""
    p, liouv = fig2_system() if system == "fig2" else asymmetric_two_nuclei_system()
    target = model.default_target(p.variant)
    rho0 = model.mixed_ground_state(p.variant)
    observables = {"target": np.outer(target, target.conj())}
    if system == "two-nuclei":
        observables["singlet"] = model.nuclear_singlet_projector()
    dt = 5e-5
    traj = evolve_fixed_step(rho0, liouv, steps * dt, dt, sample_every=10, target=target,
                             store_states=True, observables=observables)
    assert len(traj.states) == -(-steps // 10) + 1
    assert list(traj.expectations) == list(observables)
    for name, op in observables.items():
        assert traj.expectations[name] == pytest.approx(
            [np.trace(op @ s).real for s in traj.states], abs=1e-14)
    assert traj.fidelity == pytest.approx([fidelity(s, target) for s in traj.states], abs=1e-14)
    assert traj.purity == pytest.approx([purity(s) for s in traj.states], abs=1e-14)
    assert traj.trace_deviation == pytest.approx(
        [abs(complex(np.trace(s)) - 1.0) for s in traj.states], abs=1e-14)
    assert np.array_equal(traj.populations, [np.diag(s).real for s in traj.states])
    assert np.array_equal(traj.final_state, traj.states[-1])
    if cycles is None:  # the pulsed protocol runs on the spin-1 variant only
        return

    seq = pulses.standard_cycle(p, tau=0.02, cycles=cycles)
    pulsed = pulses.run_sequence(rho0, seq, p)
    assert len(pulsed.fidelity) == cycles + 1
    assert pulsed.expectations == {}
    assert fidelity(pulsed.final_state, target) == pytest.approx(pulsed.fidelity[-1], abs=1e-14)
    assert purity(pulsed.final_state) == pytest.approx(pulsed.purity[-1], abs=1e-14)
    assert np.array_equal(np.diag(pulsed.final_state).real, pulsed.populations[-1])


def test_non_hermitian_observable_is_rejected():
    """Observables are read as dot products with their coordinates in the
    Hermitian basis, which only a Hermitian operator has."""
    p, liouv = fig2_system()
    rho0 = model.mixed_ground_state(p.variant)
    raising = np.zeros((12, 12))
    raising[0, 1] = 1.0
    with pytest.raises(DomainError, match="not Hermitian"):
        evolve_fixed_step(rho0, liouv, 5e-4, 5e-5, observables={"raising": raising})


@pytest.mark.parametrize("size", [3, 13])
def test_observable_of_the_wrong_size_is_a_dimension_error(size):
    _, liouv = fig2_system()
    with pytest.raises(DimensionError, match="is not 12x12"):
        linalg.HermitianBasis(12).coords(np.eye(size))
    with pytest.raises(DimensionError, match="is not 12x12"):
        evolve_fixed_step(excited_state(), liouv, 0.01, 1e-5, observables={"x": np.eye(size)})


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
    # Times that are not finite, and a step back in time, are domain errors
    # that name the argument, before any step is sized or taken.
    for t_end, dt, sample_every, name in [
        (math.nan, 1e-5, 1, "t_end"), (math.inf, 1e-5, 1, "t_end"), (1.0, math.nan, 1, "dt"),
        (1.0, math.inf, 1, "dt"), (1.0, -1e-5, 1, "dt"), (1.0, 1e-5, math.inf, "sample_every"),
        (1.0, 1e-5, math.nan, "sample_every"),
    ]:
        with pytest.raises(DomainError, match=f"{name} must"):
            evolve_fixed_step(rho0, liouv, t_end, dt, sample_every=sample_every)
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
    # one state at a time: a (k, d, d) stack is not a state
    stack = np.stack([rho, mixed])
    with pytest.raises(DimensionError):
        fidelity(stack, psi)
    with pytest.raises(DimensionError):
        purity(stack)


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
    # the same certificate as the complex eigendecomposition of L
    n_null, complex_gap, _ = complex_path(liouv)
    assert n_null == 3
    assert info.value.spectral_gap == pytest.approx(complex_gap, rel=1e-10)


def asymmetric_two_nuclei_system():
    p = ds.SystemParams(variant=model.VARIANT_TWO, asymmetry=(1.0, 0.8),
                        omega_e=math.sqrt(2) * 0.9)
    liouv = build_liouvillian(
        model.build_hamiltonian(p), model.build_collapse_ops(p), p.layout
    )
    return p, liouv


def random_generator(rng, d):
    """Lindblad generator of a random Hermitian H and two random collapse
    operators on a flat d-dimensional space."""
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    cs = [rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for _ in range(2)]
    return build_liouvillian(a + a.conj().T, cs)


def hermitian_t(d):
    """T, whose columns are the column-stacked matrices of the real
    Hermitian basis, and those matrices."""
    mats = linalg.HermitianBasis(d).states(np.eye(d * d))
    return np.stack([ds.vectorize(b) for b in mats], axis=1), mats


@pytest.mark.parametrize("d", [3, 4, 5])
def test_generator_is_real_in_hermitian_basis(d):
    liouv = random_generator(np.random.default_rng(d), d)
    real = liouv.real()
    assert real.dtype == np.float64
    # The index form equals the dense product T^H L T, imaginary part and all.
    t, _ = hermitian_t(d)
    assert np.abs(real - t.conj().T @ liouv.matrix @ t).max() <= 1e-12 * liouv.norm_bound()


@pytest.mark.parametrize("d", [1, 2, 3, 4, 12, 16])
def test_hermitian_back_map_is_unitary(d):
    t, mats = hermitian_t(d)
    assert np.abs(t.conj().T @ t - np.eye(d * d)).max() < 1e-15
    # every basis element is a Hermitian matrix
    for b in mats:
        assert np.array_equal(b, b.conj().T)


def complex_path(liouv):
    """The certificate from all eigenpairs of the complex L: the null
    count, the gap and, when unique, the trace-one Hermitized null vector."""
    tol = engine._NULL_TOL_REL * liouv.norm_bound()
    vals, vecs = linalg.eig_full(liouv.matrix)
    null = np.abs(vals) < tol
    gap = float(-vals.real[vals.real <= -tol].max())
    if null.sum() != 1:
        return int(null.sum()), gap, None
    rho = ds.unvectorize(vecs[:, null][:, 0], liouv.dim)
    rho = rho / np.trace(rho)
    return 1, gap, 0.5 * (rho + rho.conj().T)


@pytest.mark.parametrize("system", [fig2_system, asymmetric_two_nuclei_system])
def test_steady_state_matches_complex_path(system):
    """The whole real generator and its two mirror blocks alike."""
    p, liouv = system()
    n_null, gap, rho = complex_path(liouv)
    for generator in (liouv, with_mirror(p, liouv)):
        res = steady_state(generator)
        assert res.null_dimension == n_null == 1
        assert res.spectral_gap == pytest.approx(gap, rel=1e-10)
        assert np.abs(res.rho - rho).max() < 1e-12


def test_non_hermitian_generator_raises():
    """-i[H, rho] preserves Hermiticity only for Hermitian H."""
    d = 4
    rng = np.random.default_rng(5)
    h = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    eye = np.eye(d)
    mat = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
    liouv = engine.Liouvillian(matrix=mat, dim=d, layout=ds.SpaceLayout((d,)))
    with pytest.raises(NumericalError, match="Hermiticity"):
        steady_state(liouv)


def test_steady_state_memory_bound():
    """The basis change and the residual check hold no more than four
    n x n complex arrays at once (n = 256), with and without the mirror
    split."""
    p, liouv = asymmetric_two_nuclei_system()
    n = liouv.matrix.shape[0]
    for generator in (with_mirror(p, liouv), liouv):
        tracemalloc.start()
        try:
            steady_state(generator)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * n * n * 16


def recorded(monkeypatch, name):
    """The operands of every later ``linalg.<name>`` call, in order."""
    operands = []
    original = getattr(linalg, name)

    def recording(a):
        operands.append(a)
        return original(a)

    monkeypatch.setattr(linalg, name, recording)
    return operands


@pytest.mark.parametrize("system", [fig2_system, asymmetric_two_nuclei_system])
def test_steady_state_takes_one_real_eig_full(system, monkeypatch):
    """Whole, eig_full gets L.real(); split, it gets the even block of n/2
    alone, and the odd block goes to linalg.eigenvalues, with no vectors:
    each is the block that Liouvillian.halves() names."""
    p, liouv = system()
    n = liouv.dim ** 2
    full, values = recorded(monkeypatch, "eig_full"), recorded(monkeypatch, "eigenvalues")
    steady_state(liouv)
    assert [(a.dtype, a.shape) for a in full] == [(np.float64, (n, n))] and values == []
    full.clear()
    mirrored = with_mirror(p, liouv)
    steady_state(mirrored)
    _, even, odd = mirrored.halves()
    assert [(a.dtype, a.shape) for a in full + values] == [(np.float64, (n // 2, n // 2))] * 2
    assert np.array_equal(full[0], even) and np.array_equal(values[0], odd)


def adapted_basis(split):
    """The dense mirror-adapted basis Q, its columns lifted from the units
    of the even half, then of the odd one."""
    return np.hstack([split.lift(np.eye(split.even)).T,
                      split.lift(np.eye(split.n - split.even), True).T])


def test_mirror_split_blocks_are_the_generator_in_the_adapted_basis():
    """The index forms of the mirror on the coordinates, of Q^T L Q and of
    the even and odd parts and their lifts equal the dense products, Q is
    orthogonal and its halves are the mirror's even and odd states, the
    even-odd blocks are below 1e-12 ||L||_1, and blocks() gives the two
    diagonal blocks, of n/2 each."""
    p, liouv = asymmetric_two_nuclei_system()
    gen = liouv.real()
    basis = linalg.HermitianBasis(liouv.dim)
    u = model.mirror(p.variant)
    pi, sigma = basis.permutation(u)
    # the index form of rho -> U rho U^T in the basis is its dense matrix
    dense_map = np.zeros((len(pi), len(pi)))
    dense_map[pi, np.arange(len(pi))] = sigma
    assert np.abs(dense_map - basis.unitary(u)).max() < 1e-15
    split = engine.MirrorSplit(u, liouv.dim)
    n, even = len(gen), split.even
    q = adapted_basis(split)
    assert np.abs(q.T @ q - np.eye(n)).max() < 1e-15
    # the mirror-even columns are fixed by the mirror, the odd ones negated
    assert np.abs(dense_map @ q - q * np.repeat([1.0, -1.0], [even, n - even])).max() < 1e-15
    x = np.random.default_rng(3).normal(size=(4, n))
    for odd, cols in ((False, q[:, :even]), (True, q[:, even:])):
        assert np.abs(split.part(x, odd) - x @ cols).max() < 1e-14
        assert np.abs(split.lift(split.part(x, odd), odd) - x @ cols @ cols.T).max() < 1e-14
    dense = q.T @ gen @ q
    bound = liouv.norm_bound()
    assert np.abs(dense[:even, even:]).max() < 1e-12 * bound
    assert np.abs(dense[even:, :even]).max() < 1e-12 * bound
    even_block, odd_block = split.blocks(gen, bound)
    assert even == n // 2
    assert even_block.shape == (even, even) and odd_block.shape == (n - even, n - even)
    assert np.abs(even_block - dense[:even, :even]).max() < 1e-12 * bound
    assert np.abs(odd_block - dense[even:, even:]).max() < 1e-12 * bound


@pytest.mark.parametrize("change", [{"gamma_minus": 20.0}, {"e_minus": -9.0},
                                    {"gamma_minus": 30.0 * (1 + 1e-9)}],
                         ids=["unequal-decays", "unequal-couplings", "decays-1e-9-apart"])
def test_broken_mirror_takes_the_whole_generator_bit_for_bit(change, monkeypatch):
    """Without the symmetry the check fails, and the one eig_full call gets
    L.real() itself and returns what the single dense call gives."""
    p = ds.SystemParams(**change)
    liouv = build_liouvillian(model.build_hamiltonian(p), model.build_collapse_ops(p), p.layout)
    operands, results = [], []
    original = linalg.eig_full

    def recording(a):
        operands.append(a)
        results.append(original(a))
        return results[-1]

    monkeypatch.setattr(linalg, "eig_full", recording)
    split = steady_state(with_mirror(p, liouv))
    whole = steady_state(liouv)
    assert np.array_equal(operands[0], liouv.real())
    vals, vecs = np.linalg.eig(liouv.real())
    order = np.lexsort((vals.imag, vals.real))
    assert np.array_equal(results[0][0], vals[order].astype(complex))
    assert np.array_equal(results[0][1], vecs[:, order].astype(complex))
    assert np.array_equal(split.rho, whole.rho)
    assert split.spectral_gap == whole.spectral_gap


def test_nuclear_swap_splits_into_blocks_of_unequal_size():
    """The nuclear swap of the symmetric two-nuclei default commutes with L
    and splits it into blocks of 160 and 96 coordinates.  The split
    certificate is the whole generator's: 3 null eigenvalues, the same gap
    and the same stationary space; and a propagator run from the mixed
    ground state, in the 160-wide even half, is the whole run."""
    p = ds.SystemParams(variant=model.VARIANT_TWO)
    liouv = build_liouvillian(model.build_hamiltonian(p), model.build_collapse_ops(p), p.layout)
    swapped = replace(liouv, symmetry=np.kron(np.eye(4), np.eye(4)[[0, 2, 1, 3]]))
    split, even, odd = swapped.halves()
    assert even.shape == (160, 160) and odd.shape == (96, 96)
    with pytest.raises(NonUniqueSteadyState) as half:
        steady_state(swapped)
    with pytest.raises(NonUniqueSteadyState) as whole:
        steady_state(liouv)
    assert half.value.null_dimension == whole.value.null_dimension == 3
    assert half.value.spectral_gap == pytest.approx(whole.value.spectral_gap, rel=1e-10)
    assert np.abs(hs_projector(half.value.stationary_basis)
                  - hs_projector(whole.value.stationary_basis)).max() < 1e-12
    rho0 = model.mixed_ground_state(p.variant)
    assert engine._even_half(swapped, linalg.HermitianBasis(p.dim).coords(rho0))[2] is split
    got, want = evolve_propagator(rho0, swapped, 5.0), evolve_propagator(rho0, liouv, 5.0)
    assert np.abs(got - want).max() < 1e-10


def test_identity_symmetry_has_an_empty_odd_half():
    """U = I fixes every coordinate: the even block is L.real() itself, the
    odd block is 0 x 0, and the certificate is the whole one, bit for bit."""
    p, liouv = fig2_system()
    identity = replace(liouv, symmetry=np.eye(p.dim))
    _, even, odd = identity.halves()
    assert np.array_equal(even, liouv.real()) and odd.shape == (0, 0)
    split, whole = steady_state(identity), steady_state(liouv)
    assert np.array_equal(split.rho, whole.rho) and split.spectral_gap == whole.spectral_gap


@pytest.mark.parametrize("mirrored", [False, True], ids=["whole", "mirror"])
def test_zero_generator_is_reported_non_unique(mirrored):
    """With every drive, coupling and rate 0, L = 0 and the null tolerance
    is 0: all d^2 eigenvalues are null, and none decays."""
    zero = dict.fromkeys(("omega_e", "omega_n", "g", "e_plus", "e_minus", "gamma_plus",
                          "gamma_minus", "gamma_zero"), 0.0)
    p = ds.SystemParams(**zero)
    liouv = build_liouvillian(model.build_hamiltonian(p), model.build_collapse_ops(p), p.layout,
                              symmetry=model.mirror(p.variant) if mirrored else None)
    assert liouv.norm_bound() == 0.0
    with pytest.raises(NonUniqueSteadyState) as info:
        steady_state(liouv)
    exc = info.value
    assert exc.null_dimension == len(exc.stationary_basis) == p.dim ** 2
    assert exc.spectral_gap == math.inf


def hs_projector(basis):
    """The orthogonal projector onto the span of the Hermitian matrices of
    ``basis``, on column-stacked density matrices."""
    q = np.linalg.qr(np.stack([ds.vectorize(b) for b in basis], axis=1))[0]
    return q @ q.conj().T


@pytest.mark.parametrize("variant", model.VARIANTS)
def test_odd_null_eigenvalue_takes_the_odd_block_vectors(variant, monkeypatch):
    """L = 0 has null eigenvalues in the odd block too: after its
    eigenvalues, that block also goes to eig_full, and the stationary basis
    is orthonormal and spans what the whole generator's does."""
    zero = dict.fromkeys(("omega_e", "omega_n", "g", "e_plus", "e_minus", "gamma_plus",
                          "gamma_minus", "gamma_zero"), 0.0)
    p = ds.SystemParams(variant=variant, **zero)
    liouv = build_liouvillian(model.build_hamiltonian(p), model.build_collapse_ops(p), p.layout)
    full = recorded(monkeypatch, "eig_full")
    with pytest.raises(NonUniqueSteadyState) as split:
        steady_state(with_mirror(p, liouv))
    n = p.dim ** 2
    assert [a.shape for a in full] == [(n // 2, n // 2)] * 2
    with pytest.raises(NonUniqueSteadyState) as whole:
        steady_state(liouv)
    assert split.value.null_dimension == whole.value.null_dimension == n
    assert split.value.spectral_gap == whole.value.spectral_gap == math.inf
    basis = split.value.stationary_basis
    gram = np.einsum("aij,bij->ab", np.conj(basis), basis)  # Tr(A^dag B)
    assert np.abs(gram - np.eye(n)).max() < 1e-12
    assert np.abs(hs_projector(basis) - hs_projector(whole.value.stationary_basis)).max() < 1e-12


def test_unique_steady_state_is_mirror_even():
    for p, liouv in (fig2_system(), asymmetric_two_nuclei_system()):
        u = model.mirror(p.variant)
        rho = steady_state(replace(liouv, symmetry=u)).rho
        assert np.abs(u @ rho @ u.T - rho).max() < 1e-12


def test_split_keeps_the_degenerate_two_nuclei_attractor():
    """The symmetric two-nuclei default: 3 null eigenvalues, and 3
    stationary Hermitian basis matrices, from the two blocks."""
    p = ds.SystemParams(variant=model.VARIANT_TWO)
    liouv = build_liouvillian(model.build_hamiltonian(p), model.build_collapse_ops(p), p.layout,
                              symmetry=model.mirror(p.variant))
    with pytest.raises(NonUniqueSteadyState) as info:
        steady_state(liouv)
    exc = info.value
    assert exc.null_dimension == 3 and len(exc.stationary_basis) == 3
    for b in exc.stationary_basis:
        assert np.abs(b - b.conj().T).max() < 1e-15
        assert np.abs(liouv.matrix @ ds.vectorize(b)).max() < 1e-8
    n_null, gap, _ = complex_path(liouv)
    assert n_null == 3
    assert exc.spectral_gap == pytest.approx(gap, rel=1e-10)


def test_symmetry_that_is_not_a_signed_involution_is_rejected():
    p, liouv = fig2_system()
    cycle = np.roll(np.eye(p.dim), 1, axis=0)  # a 12-cycle, not its own inverse
    with pytest.raises(DomainError, match="signed permutation"):
        steady_state(replace(liouv, symmetry=cycle))
    with pytest.raises(DomainError, match="signed permutation"):
        steady_state(replace(liouv, symmetry=np.full((p.dim, p.dim), 1 / math.sqrt(p.dim))))


@st.composite
def system_params(draw):
    """Valid SystemParams of both variants, with and without T2*, with
    asymmetric hyperfine couplings, and with the mirror broken by unequal
    optical couplings or decays in three draws of four.  Drives of at least
    0.8 MHz keep the gap large enough that the null vector is determined to
    1e-12 (at 0.5 MHz the whole generator and its blocks alike differ from
    the complex path by up to 2.5e-12)."""
    variant = draw(st.sampled_from(model.VARIANTS))
    rate = st.floats(15.0, 50.0)
    drive = st.floats(0.8, 2.0)
    e_plus, gamma_plus = draw(st.floats(4.0, 20.0)), draw(rate)
    # None keeps the mirror; otherwise unequal couplings, decays or both.
    broken = draw(st.sampled_from([None, "e", "gamma", "both"]))
    kw = dict(
        variant=variant, omega_e=draw(drive), omega_n=draw(drive), g=draw(st.floats(1.5, 4.0)),
        e_plus=e_plus, gamma_plus=gamma_plus, gamma_zero=draw(rate),
        e_minus=-draw(st.floats(4.0, 20.0)) if broken in ("e", "both") else -e_plus,
        gamma_minus=draw(rate) if broken in ("gamma", "both") else gamma_plus,
        t2_star=draw(st.one_of(st.none(), st.floats(2.0, 50.0))),
    )
    if variant == model.VARIANT_TWO:
        kw["asymmetry"] = (1.0, draw(st.sampled_from([1.0, 0.8, 0.6])))
        kw["asymmetric_hyperfine"] = draw(st.booleans())
    return ds.SystemParams(**kw)


@settings(max_examples=24)
@given(p=system_params())
@example(p=ds.SystemParams(t2_star=5.0))
@example(p=ds.SystemParams(variant=model.VARIANT_TWO, asymmetry=(1.0, 0.8), omega_e=1.3,
                           asymmetric_hyperfine=True, t2_star=10.0))
@example(p=ds.SystemParams(variant=model.VARIANT_TWO, asymmetry=(1.0, 0.8), omega_e=1.3,
                           asymmetric_hyperfine=True, gamma_minus=20.0))
def test_split_certificate_matches_complex_path(p):
    u = model.mirror(p.variant)
    liouv = build_liouvillian(model.build_hamiltonian(p), model.build_collapse_ops(p), p.layout,
                              symmetry=u)
    n_null, gap, rho = complex_path(liouv)
    try:
        res = steady_state(liouv)
    except NonUniqueSteadyState as exc:
        assert exc.null_dimension == n_null > 1
        assert exc.spectral_gap == pytest.approx(gap, rel=1e-10)
        for b in exc.stationary_basis:
            assert np.linalg.norm(liouv.matrix @ ds.vectorize(b)) <= 1e-12 * liouv.norm_bound()
        return
    assert res.null_dimension == n_null == 1
    assert res.spectral_gap == pytest.approx(gap, rel=1e-10)
    assert np.abs(res.rho - rho).max() < 1e-12
    if p.gamma_minus == p.gamma_plus and p.e_minus == -p.e_plus:
        assert np.abs(u @ res.rho @ u.T - res.rho).max() < 1e-12


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


def test_liouvillian_compares_and_hashes_by_identity():
    """Two builds of one generator are two objects: they compare unequal
    without reading their arrays, and hash."""
    a, b = fig2_system()[1], fig2_system()[1]
    assert a == a and a != b and a not in [b]
    assert a in {a} and hash(a) != hash(b)


def test_norm_bound_is_made_once():
    """A second call returns the stored value: it does not see a change
    made to the matrix in between."""
    liouv = fig2_system()[1]
    bound = liouv.norm_bound()
    liouv.matrix[...] *= 2
    assert liouv.norm_bound() == bound


def test_real_generator_is_made_once_and_read_only():
    """So are the mirror's halves of a Liouvillian built with it."""
    p, liouv = fig2_system()
    real = liouv.real()
    assert liouv.real() is real
    with pytest.raises(ValueError):
        real[0, 0] = 1.0
    liouv = with_mirror(p, liouv)
    halves = liouv.halves()
    assert liouv.halves() is halves
    for block in halves[1:]:
        with pytest.raises(ValueError):
            block[0, 0] = 1.0


@pytest.mark.parametrize("system", [fig2_system, asymmetric_two_nuclei_system])
def test_whole_run_stays_in_the_mirror_even_half(system):
    """The premise of the split: from the mixed ground state, the odd part
    of a whole RK4 run stays below 1e-12 at every sample."""
    p, liouv = system()
    rho0 = model.mixed_ground_state(p.variant)
    split = engine.MirrorSplit(model.mirror(p.variant), p.dim)
    basis = linalg.HermitianBasis(p.dim)
    traj = evolve_fixed_step(rho0, liouv, 20.0, 0.1 / liouv.norm_bound(), sample_every=200,
                             store_states=True)
    assert not traj.mirror_half
    coords = np.array([basis.coords(rho) for rho in traj.states])
    assert np.linalg.norm(split.part(coords, odd=True), axis=1).max() < 1e-12


@pytest.mark.parametrize("system", [fig2_system, asymmetric_two_nuclei_system])
def test_even_half_run_matches_the_whole_run(system, monkeypatch):
    """With the mirror, evolve_fixed_step steps the even half: every
    observable is within 1e-10 of the whole run, the populations of
    mirror-paired levels are bitwise equal, populations that are exactly 0
    in the whole run stay 0, and the kept states are the whole run's.
    evolve_propagator exponentiates the even block, and its state is
    within 1e-10 of the whole one's."""
    p, liouv = system()
    rho0 = model.mixed_ground_state(p.variant)
    target = model.default_target(p.variant)
    u = model.mirror(p.variant)
    s_z = model.build_operators(p.variant)["S_z"]
    obs = {"s_z": s_z, "s_z_squared": s_z @ s_z}  # mirror-odd and mirror-even
    runs = [evolve_fixed_step(rho0, generator, 10.0, 0.1 / liouv.norm_bound(), sample_every=100,
                              target=target, store_states=True, observables=obs)
            for generator in (liouv, replace(liouv, symmetry=u))]
    whole, half = runs
    assert half.mirror_half and not whole.mirror_half
    for name in ("fidelity", "purity", "populations", "trace_deviation"):
        assert np.abs(getattr(half, name) - getattr(whole, name)).max() < 1e-10, name
    for name in obs:
        assert np.abs(half.expectations[name] - whole.expectations[name]).max() < 1e-10
    assert np.abs(np.array(half.states) - np.array(whole.states)).max() < 1e-10
    assert np.abs(half.final_state - whole.final_state).max() < 1e-10
    partner = np.abs(u).argmax(axis=0)
    assert np.array_equal(half.populations, half.populations[:, partner])
    zeros = whole.populations == 0
    assert zeros.any() and np.all(half.populations[zeros] == 0)
    operands = []
    original = linalg.expm
    monkeypatch.setattr(linalg, "expm", lambda a, s: operands.append(a.shape) or original(a, s))
    states = [evolve_propagator(rho0, generator, 10.0)
              for generator in (liouv, replace(liouv, symmetry=u))]
    n = liouv.dim ** 2
    assert operands == [(n, n), (n // 2, n // 2)]
    assert np.abs(states[1] - states[0]).max() < 1e-10


def test_odd_initial_state_runs_whole():
    """An initial state with an odd part (|+1><+1| alone: the mirror maps
    it to |-1><-1|) runs whole, bit for bit the run without the mirror."""
    p, liouv = fig2_system()
    rho0 = np.zeros((p.dim, p.dim), dtype=complex)
    rho0[0, 0] = 1.0
    dt = 0.1 / liouv.norm_bound()
    runs = [evolve_fixed_step(rho0, generator, 2.0, dt, sample_every=50)
            for generator in (liouv, with_mirror(p, liouv))]
    assert not runs[1].mirror_half
    assert np.array_equal(runs[0].populations, runs[1].populations)
    assert np.array_equal(runs[0].purity, runs[1].purity)


def test_broken_mirror_runs_whole_bit_for_bit():
    p = ds.SystemParams(gamma_minus=31.0)
    liouv = build_liouvillian(model.build_hamiltonian(p), model.build_collapse_ops(p), p.layout)
    rho0 = model.mixed_ground_state(p.variant)
    dt = 0.1 / liouv.norm_bound()
    runs = [evolve_fixed_step(rho0, generator, 2.0, dt, sample_every=50,
                              target=model.default_target(p.variant))
            for generator in (liouv, with_mirror(p, liouv))]
    assert not runs[1].mirror_half
    assert np.array_equal(runs[0].fidelity, runs[1].fidelity)
    assert np.array_equal(runs[0].populations, runs[1].populations)
