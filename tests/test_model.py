"""Model builders: basis order, Hamiltonian structure, collapse operators,
target states.

Frozen matrix-element values below were computed independently with
high-precision arithmetic before the builders existed, so they pin the
builders rather than the other way round.
"""

import itertools
import math

import numpy as np
import pytest

from darksteady import model
from darksteady.errors import ConfigError, DimensionError
from darksteady.model import (
    TWO_PI,
    SystemParams,
    VARIANT_SINGLE,
    VARIANT_TWO,
    basis_labels,
    build_collapse_ops,
    build_hamiltonian,
    build_operators,
    decay_ops,
    default_target,
    dephasing_op,
    electron_state,
    mixed_ground_state,
    nuclear_spin1_state,
    target_states,
)

# <A1, n0| H |B, n0> for E = 10 MHz; equals sqrt(2) * 2pi * 10.
OPTICAL_BRIGHT_ELEMENT = 88.857658763167325
# ||H |Psi_D>|| for omega_e = 1.3, omega_n = 1 MHz, no optical drive;
# equals sqrt(2) * 2pi * 0.3.
MISMATCH_NORM = 2.6657297628950197


def test_dimensions_and_labels():
    assert model.dim(VARIANT_SINGLE) == 12
    assert model.dim(VARIANT_TWO) == 16
    labels = basis_labels(VARIANT_SINGLE)
    assert len(labels) == 12
    assert labels[0] == "e+1:n+1"
    assert labels[11] == "eA1:n0"
    labels2 = basis_labels(VARIANT_TWO)
    assert len(labels2) == 16
    assert labels2[0] == "e+1:n00"


def test_electron_composites():
    d = electron_state("D")
    b = electron_state("B")
    assert abs(d @ electron_state("+1") - 1 / np.sqrt(2)) < 1e-15
    assert abs(d @ electron_state("-1") - 1 / np.sqrt(2)) < 1e-15
    assert abs(b @ electron_state("+1") - 1 / np.sqrt(2)) < 1e-15
    assert abs(b @ electron_state("-1") + 1 / np.sqrt(2)) < 1e-15
    assert abs(np.vdot(d, b)) < 1e-15
    with pytest.raises(ConfigError):
        electron_state("X")


@pytest.mark.parametrize("variant", [VARIANT_SINGLE, VARIANT_TWO])
def test_build_operators_is_shared_and_read_only(variant):
    """Every call returns the one operator set of a variant, and no caller
    can change it: writing into an array or a mapping raises."""
    ops = build_operators(variant)
    assert build_operators(variant) is ops
    with pytest.raises(ValueError):
        ops["S_z"][0, 0] = 5.0
    with pytest.raises(ValueError):
        ops["I_x"][0] *= 2.0
    with pytest.raises(ValueError):
        ops["projectors"]["A1"][...] = 0.0
    with pytest.raises(TypeError):
        ops["S_x"] = np.zeros((2, 2))
    with pytest.raises(TypeError):
        ops["optical_lowering"]["+1"] = None
    h = build_hamiltonian(SystemParams(variant=variant))
    h[0, 0] = 1.0  # products of shared operators are the caller's own


def test_spin_operators_on_composites():
    """S_x couples |0> to |D> with sqrt(2) and annihilates |B>; S_z swaps
    the dark and bright superpositions."""
    ops = build_operators(VARIANT_SINGLE)
    n0 = nuclear_spin1_state("0")
    d = np.kron(electron_state("D"), n0)
    b = np.kron(electron_state("B"), n0)
    zero = np.kron(electron_state("0"), n0)
    Sx = ops["S_x"] if ops["S_x"].shape == (12, 12) else np.kron(ops["S_x"], np.eye(3))
    Sz = ops["S_z"] if ops["S_z"].shape == (12, 12) else np.kron(ops["S_z"], np.eye(3))
    assert np.allclose(Sx @ d, np.sqrt(2) * zero, atol=1e-14)
    assert np.allclose(Sx @ b, 0, atol=1e-14)
    assert np.allclose(Sz @ d, b, atol=1e-14)
    assert np.allclose(Sz @ b, d, atol=1e-14)


def test_hamiltonian_hermitian():
    for p in (SystemParams(), SystemParams(variant=VARIANT_TWO)):
        h = build_hamiltonian(p)
        assert np.abs(h - h.conj().T).max() < 1e-12


def test_optical_matrix_element_frozen():
    p = SystemParams(omega_e=0, omega_n=0, g=0, e_plus=10.0, e_minus=-10.0)
    h = build_hamiltonian(p)
    n0 = nuclear_spin1_state("0")
    bright = np.kron(electron_state("B"), n0)
    excited = np.kron(electron_state("A1"), n0)
    elem = np.vdot(excited, h @ bright)
    assert abs(elem - OPTICAL_BRIGHT_ELEMENT) < 1e-12
    # the dark superposition is uncoupled
    dark = np.kron(electron_state("D"), n0)
    assert abs(np.vdot(excited, h @ dark)) < 1e-13


def test_dark_state_annihilated_at_matched_drive():
    p = SystemParams()  # omega_e = omega_n = 1
    h = build_hamiltonian(p)
    psi = default_target(VARIANT_SINGLE)
    assert np.linalg.norm(h @ psi) < 1e-12


def test_drive_mismatch_norm_frozen():
    p = SystemParams(omega_e=1.3, omega_n=1.0, g=2.5, e_plus=0.0, e_minus=0.0)
    h = build_hamiltonian(p)
    psi = default_target(VARIANT_SINGLE)
    assert abs(np.linalg.norm(h @ psi) - MISMATCH_NORM) < 1e-12


def test_decay_ops_sum_rule():
    """sum C_k^dag C_k = 2pi*(gamma_+ + gamma_- + gamma_0) * P_A1."""
    p = SystemParams()
    total = sum(c.conj().T @ c for c in decay_ops(p))
    proj = build_operators(VARIANT_SINGLE)["projectors"]["A1"]
    assert np.allclose(total, TWO_PI * 100.0 * proj, atol=1e-10)


def test_dephasing_op_scaling():
    p = SystemParams(t2_star=10.0)
    c = dephasing_op(p)
    ops = build_operators(VARIANT_SINGLE)
    expect = np.sqrt((1.0 / 10.0) / 2.0) * ops["S_z"]
    assert np.allclose(c, expect, atol=1e-14)
    assert dephasing_op(SystemParams()) is None
    assert len(build_collapse_ops(p)) == 4
    assert len(build_collapse_ops(SystemParams())) == 3


def test_mixed_ground_state_single():
    rho = mixed_ground_state(VARIANT_SINGLE)
    assert abs(np.trace(rho) - 1.0) < 1e-15
    diag = np.diag(rho).real
    # excited level A1 carries no weight; the 9 ground levels are uniform
    assert np.allclose(diag[9:], 0.0, atol=1e-15)
    assert np.allclose(diag[:9], 1.0 / 9.0, atol=1e-15)
    psi = default_target(VARIANT_SINGLE)
    # overlap with the target: 4 basis amplitudes of 1/2 each at weight 1/9
    assert abs(np.vdot(psi, rho @ psi).real - 1.0 / 9.0) < 1e-14
    assert abs(np.trace(rho @ rho).real - 1.0 / 9.0) < 1e-14


def test_mixed_ground_state_two():
    rho = mixed_ground_state(VARIANT_TWO)
    diag = np.diag(rho).real
    assert np.allclose(diag[:12], 1.0 / 12.0, atol=1e-15)
    assert np.allclose(diag[12:], 0.0, atol=1e-15)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"omega_e": -1.0},
        {"g": float("nan")},
        {"gamma_plus": -0.1},
        {"t2_star": 0.0},
        {"t2_star": -5.0},
        {"variant": "three-nuclei"},
        {"asymmetry": (1.0, 0.8)},  # wrong length for single variant
        {"asymmetry": (-1.0,)},
        {"e_plus": float("inf")},
    ],
)
def test_params_validation(kwargs):
    with pytest.raises(ConfigError):
        SystemParams(**kwargs)


def test_params_asymmetry_default():
    assert SystemParams().asymmetry == (1.0,)
    assert SystemParams(variant=VARIANT_TWO).asymmetry == (1.0, 1.0)


def test_two_nuclei_target_is_dark_under_matched_drive():
    """With omega_e = sqrt(2)*omega_n the collective coupling cancels and
    the four-component entangled target is annihilated by H."""
    p = SystemParams(variant=VARIANT_TWO, omega_e=np.sqrt(2.0), omega_n=1.0)
    h = build_hamiltonian(p)
    psi = target_states(VARIANT_TWO).psi_dark_two
    assert abs(np.linalg.norm(psi) - 1.0) < 1e-14
    assert np.linalg.norm(h @ psi) < 1e-12


def test_two_nuclei_matched_drive_holds_with_asymmetry():
    # asymmetric couplings, drive matched to the mean
    p = SystemParams(
        variant=VARIANT_TWO, asymmetry=(1.0, 0.8),
        omega_e=np.sqrt(2.0) * 0.9, omega_n=1.0,
    )
    h = build_hamiltonian(p)
    psi = target_states(VARIANT_TWO).psi_dark_two
    assert np.linalg.norm(h @ psi) < 1e-12


def test_nuclear_singlet_structure():
    s = target_states(VARIANT_TWO).singlet_two
    # |0>_e (x) (|10> - |01>)/sqrt(2): electron block 2 (value 0), nuclear
    # indices 10 -> 2+... basis is e*4 + n with n in {00,01,10,11}
    nz = np.nonzero(np.abs(s) > 1e-14)[0]
    assert set(nz) == {2 * 4 + 1, 2 * 4 + 2}
    assert abs(s[2 * 4 + 2] + s[2 * 4 + 1]) < 1e-14  # opposite signs


def test_symmetric_hamiltonian_commutes_with_nuclear_swap():
    p = SystemParams(variant=VARIANT_TWO, omega_e=np.sqrt(2.0))
    h = build_hamiltonian(p)
    swap2 = np.zeros((4, 4))
    for i in range(2):
        for j in range(2):
            swap2[j * 2 + i, i * 2 + j] = 1.0
    swap = np.kron(np.eye(4), swap2)
    assert np.abs(h @ swap - swap @ h).max() < 1e-12
    # asymmetry breaks the exchange symmetry
    pa = SystemParams(variant=VARIANT_TWO, asymmetry=(1.0, 0.5))
    ha = build_hamiltonian(pa)
    assert np.abs(ha @ swap - swap @ ha).max() > 1e-3


@pytest.mark.parametrize("variant", model.VARIANTS)
def test_mirror_is_a_signed_permutation_keeping_the_dark_state(variant):
    u = model.mirror(variant)
    d = model.dim(variant)
    assert u.shape == (d, d) and u.dtype == np.float64
    assert np.array_equal(np.abs(u).sum(axis=0), np.ones(d))
    assert np.array_equal(u @ u, np.eye(d))
    labels = basis_labels(variant)
    # |D> is even, |B> and |A1> odd: U (|a><b| x I) U^T = +-(|a><b| x I).
    for a, b, sign in [("D", "D", 1), ("B", "B", 1), ("D", "B", -1), ("A1", "0", -1)]:
        op = model.embed(np.outer(electron_state(a), electron_state(b)), variant, 0)
        assert np.abs(u @ op @ u.T - sign * op).max() < 1e-15
    # In every factor the first two levels change places.
    factors = [model.ELECTRON_LEVELS] + [
        model.NUCLEAR_SPIN1_LEVELS if variant == VARIANT_SINGLE else model.NUCLEAR_HALF_LEVELS
    ] * (len(model.layout(variant).factor_dims) - 1)
    for i, levels in enumerate(itertools.product(*factors)):
        twin = [f[1 - f.index(lv)] if f.index(lv) < 2 else lv for f, lv in zip(factors, levels)]
        j = labels.index(f"e{twin[0]}:n{''.join(twin[1:])}")
        assert u[j, i] == (-1.0 if levels[0] == "A1" else 1.0)


def collapse_set_is_mapped(u, cs):
    """Each U C U^T is one of the collapse operators or its negative."""
    return all(
        min(min(np.abs(m - c).max(), np.abs(m + c).max()) for c in cs) < 1e-12
        for m in (u @ c @ u.T for c in cs)
    )


@pytest.mark.parametrize("p", [
    pytest.param(SystemParams(), id="single"),
    pytest.param(SystemParams(t2_star=5.0, omega_e=0.7, g=3.1, e_plus=4.0, e_minus=-4.0),
                 id="single-dephased"),
    pytest.param(SystemParams(variant=VARIANT_TWO), id="two"),
    pytest.param(SystemParams(variant=VARIANT_TWO, asymmetry=(1.0, 0.8),
                              asymmetric_hyperfine=True, t2_star=10.0), id="two-asymmetric"),
])
def test_mirror_commutes_with_the_model_at_equal_couplings_and_decays(p):
    u = model.mirror(p.variant)
    h = build_hamiltonian(p)
    assert np.abs(u @ h @ u.T - h).max() < 1e-12 * np.abs(h).max()
    assert collapse_set_is_mapped(u, build_collapse_ops(p))
    # unequal decays or optical couplings break it
    assert not collapse_set_is_mapped(u, build_collapse_ops(
        SystemParams(**{**p.__dict__, "gamma_minus": p.gamma_plus + 1.0})))
    h_unequal = build_hamiltonian(SystemParams(**{**p.__dict__, "e_minus": -p.e_plus + 1.0}))
    assert np.abs(u @ h_unequal @ u.T - h_unequal).max() > 1.0


def test_apply_asymmetry():
    p = SystemParams(variant=VARIANT_TWO, asymmetry=(1.0, 0.8), g=2.5)
    drives, couplings = model.apply_asymmetry(p)
    assert drives == (1.0, 0.8)
    assert couplings == (2.5, 2.5)
    pa = SystemParams(
        variant=VARIANT_TWO, asymmetry=(1.0, 0.8), g=2.5, asymmetric_hyperfine=True
    )
    _, couplings = model.apply_asymmetry(pa)
    assert couplings == (2.5, 2.0)


@pytest.mark.parametrize("variant", model.VARIANTS)
def test_factor_table_derivations(variant):
    """Dimension, labels, embeddings and the ground mixture agree with the
    tensor structure spelled out by hand."""
    dims = model.layout(variant).factor_dims
    labels = basis_labels(variant)
    assert model.dim(variant) == len(labels) == math.prod(dims)
    rng = np.random.default_rng(3)
    for j, d in enumerate(dims):
        op = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        explicit = np.ones((1, 1))
        for k, dk in enumerate(dims):
            explicit = np.kron(explicit, op if k == j else np.eye(dk))
        assert np.array_equal(model.embed(op, variant, j), explicit)
    diag = np.diag(mixed_ground_state(variant)).real
    support = {labels[i] for i in np.nonzero(diag)[0]}
    assert support == {lab for lab in labels if not lab.startswith("eA1:")}
    with pytest.raises(DimensionError):
        model.embed(np.eye(dims[-1] + 1), variant, len(dims) - 1)


def test_nuclear_singlet_projector():
    s = np.array([0.0, -1.0, 1.0, 0.0]) / np.sqrt(2.0)  # (|10> - |01>)/sqrt(2)
    proj = model.nuclear_singlet_projector()
    assert np.allclose(proj, np.kron(np.eye(4), np.outer(s, s)), atol=1e-15)
    assert abs(np.trace(proj) - 4.0) < 1e-14
    nuclear = target_states(VARIANT_TWO).singlet_two.reshape(4, 4)[2]
    assert np.allclose(proj, np.kron(np.eye(4), np.outer(nuclear, nuclear.conj())))


@pytest.mark.parametrize(
    "call",
    [
        model.dim,
        model.layout,
        basis_labels,
        lambda v: model.embed(np.eye(4), v, 0),
        build_operators,
        target_states,
        mixed_ground_state,
    ],
    ids=["dim", "layout", "basis_labels", "embed", "build_operators",
         "target_states", "mixed_ground_state"],
)
def test_unknown_variant_is_config_error(call):
    with pytest.raises(ConfigError, match="unknown variant"):
        call("three-nuclei")
