"""Dense linear-algebra helpers: conventions and error contracts."""

from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given
from hypothesis import strategies as st

from darksteady import engine, linalg, model
from darksteady.errors import DimensionError, DomainError, NumericalError
from darksteady.linalg import (
    SpaceLayout,
    dagger,
    eig_full,
    eigenvalues,
    expm,
    kron,
    partial_trace,
    unvectorize,
    vectorize,
)


def random_complex(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def test_space_layout_dim():
    assert SpaceLayout((4, 3)).dim == 12
    assert SpaceLayout((4, 2, 2)).dim == 16
    assert SpaceLayout([2, 2]).factor_dims == (2, 2)


@pytest.mark.parametrize("dims", [(), (0, 2), (-1,), (2.5, 2)])
def test_space_layout_rejects_bad_dims(dims):
    with pytest.raises(DimensionError):
        SpaceLayout(dims)


def test_dagger():
    rng = np.random.default_rng(0)
    a = random_complex(rng, 3, 3)
    assert np.array_equal(dagger(a), a.conj().T)


def test_kron_matches_numpy():
    rng = np.random.default_rng(1)
    a = random_complex(rng, 3, 3)
    b = random_complex(rng, 4, 4)
    assert np.allclose(kron(a, b), np.kron(a, b), atol=0, rtol=0)


def test_kron_rejects_nonsquare():
    with pytest.raises(DimensionError):
        kron(np.zeros((2, 3)), np.eye(2))
    with pytest.raises(DimensionError):
        kron(np.eye(2), np.zeros((3, 2)))


def test_expm_scalar_scaling():
    rng = np.random.default_rng(2)
    a = random_complex(rng, 5, 5)
    assert np.allclose(expm(a, 0.37), expm(0.37 * a), atol=1e-13)


def test_expm_diagonal():
    a = np.diag([1.0, -2.0, 0.5]).astype(complex)
    assert np.allclose(expm(a, 2.0), np.diag(np.exp([2.0, -4.0, 1.0])), atol=1e-14)


def test_expm_rejects_nonfinite_scale():
    with pytest.raises(NumericalError):
        expm(np.eye(2), float("nan"))
    with pytest.raises(NumericalError):
        expm(np.eye(2), float("inf"))


def test_expm_keeps_real_input_real():
    a = np.random.default_rng(7).normal(size=(9, 9))
    out = expm(a, 0.3)
    assert out.dtype == np.float64
    assert np.abs(out - expm(a.astype(complex), 0.3)).max() < 1e-13


def rel_1norm(x, ref):
    return np.abs(x - ref).sum(axis=0).max() / np.abs(ref).sum(axis=0).max()


def real_generator(variant, pump=False):
    """The real Hermitian-basis Liouvillian of the default parameters, or
    of the optical pump (drive 30, no coherent terms) as pulses builds it."""
    p = model.SystemParams(variant=variant)
    if pump:
        pumped = replace(p, omega_e=0.0, omega_n=0.0, g=0.0, e_plus=30.0, e_minus=-30.0)
        h, cs = model.build_hamiltonian(pumped), model.decay_ops(pumped)
    else:
        h, cs = model.build_hamiltonian(p), model.build_collapse_ops(p)
    return engine.build_liouvillian(h, cs, p.layout).real()


@pytest.mark.parametrize("variant, pump, t", [
    ("single-nucleus-spin1", False, 0.05),
    ("single-nucleus-spin1", True, 0.1),
    ("two-nuclei-spin-half", False, 0.05),
])
def test_expm_of_generators_matches_scipy(variant, pump, t):
    gen = real_generator(variant, pump)
    out = expm(gen, t)
    assert out.dtype == np.float64 and out.shape == gen.shape
    assert rel_1norm(out, scipy.linalg.expm(t * gen)) <= 1e-13


def test_expm_anti_hermitian_is_the_unitary():
    rng = np.random.default_rng(11)
    h = random_complex(rng, 12, 12)
    h = (h + h.conj().T) / 2
    w, v = np.linalg.eigh(h)
    t = 0.7
    u = expm(-1j * h, t)
    assert rel_1norm(u, (v * np.exp(-1j * w * t)) @ v.conj().T) <= 1e-13
    assert np.abs(u.conj().T @ u - np.eye(12)).max() <= 1e-14


def test_expm_norm_sweep_reaches_every_degree(monkeypatch):
    """||t L||_1 from 1e-4 to 1e3: degrees 3, 5, 7, 9 and 13, the last with
    and without squarings, each against scipy."""
    gen = real_generator("single-nucleus-spin1")
    norm = np.abs(gen).sum(axis=0).max()
    chosen = []
    original = linalg._pade_degree

    def recording(a, powers):
        chosen.append(original(a, powers))
        return chosen[-1]

    monkeypatch.setattr(linalg, "_pade_degree", recording)
    for target in np.logspace(-4, 3, 29):
        t = target / norm
        assert rel_1norm(expm(gen, t), scipy.linalg.expm(t * gen)) <= 1e-13, target
    degrees = {m for m, _ in chosen}
    assert degrees == {3, 5, 7, 9, 13}
    assert {s > 0 for m, s in chosen if m == 13} == {False, True}


def test_expm_far_from_normal_matches_divided_differences():
    """An upper bidiagonal a with eigenvalues -1..-5 and couplings 1e3:
    exp(a)[i, j] is the product of the couplings times the divided
    difference of exp over eigenvalues i..j, exactly."""
    lam, beta = -np.arange(1.0, 6.0), 1e3
    ref = np.zeros((5, 5))
    for i in range(5):
        for j in range(i, 5):
            ks = range(i, j + 1)
            ref[i, j] = beta ** (j - i) * sum(
                np.exp(lam[k]) / np.prod([lam[k] - lam[q] for q in ks if q != k]) for k in ks)
    assert rel_1norm(expm(np.diag(lam) + np.diag([beta] * 4, 1)), ref) <= 1e-13


@pytest.mark.parametrize("a", [np.diag([800.0]), np.array([[800.0, 1.0], [2.0, 800.0]])])
def test_expm_overflow_raises(a):
    with pytest.raises(NumericalError, match="overflow"):
        expm(a, 1.0)


@pytest.mark.parametrize("d", [1, 2, 3, 5, 12])
def test_permutation_is_the_map_of_a_signed_permutation(d):
    rng = np.random.default_rng(d)
    u = np.zeros((d, d))
    u[rng.permutation(d), np.arange(d)] = rng.choice([-1.0, 1.0], d)
    basis = linalg.HermitianBasis(d)
    pi, sigma = basis.permutation(u)
    dense = np.zeros((d * d, d * d))
    dense[pi, np.arange(d * d)] = sigma
    assert np.abs(dense - basis.unitary(u)).max() < 1e-15
    # a scaled entry, a phase, two entries in one row
    others = [2 * u, 1j * u] + ([np.ones((d, d)) * (np.arange(d) == 0)[:, None]] if d > 1 else [])
    for bad in others:
        with pytest.raises(DomainError, match="signed permutation"):
            basis.permutation(bad)


def permuted_blocks(rng, widths, dtype=float, scale=1.0):
    """A block-diagonal matrix of random blocks of the given widths (entries
    of size scale / width), rows and columns permuted at random, and the
    block of each permuted index."""
    n = sum(widths)
    block = np.repeat(np.arange(len(widths)), widths)
    a = np.zeros((n, n), dtype)
    for c, w in enumerate(widths):
        entries = rng.normal(size=(w, w)) if dtype is float else random_complex(rng, w, w)
        a[np.ix_(block == c, block == c)] = scale / w * entries
    perm = rng.permutation(n)
    return a[np.ix_(perm, perm)], block[perm]


@pytest.mark.parametrize("dtype", [float, complex])
def test_expm_of_permuted_blocks_matches_scipy(dtype, monkeypatch):
    """Blocks of width 1, 2, 3 and 10, permuted: scipy's exp(a) to 1e-13,
    exact zeros between blocks, and the Pade degree and squarings that the
    dense matrix gets."""
    a, block = permuted_blocks(np.random.default_rng(5), [1, 2, 3, 10, 1, 3], dtype, scale=8.0)
    chosen = []
    original = linalg._pade_degree

    def recording(x, powers):
        chosen.append(original(x, powers))
        return chosen[-1]

    monkeypatch.setattr(linalg, "_pade_degree", recording)
    out = expm(a, 0.9)
    assert out.dtype == dtype
    assert rel_1norm(out, scipy.linalg.expm(0.9 * a)) <= 1e-13
    assert np.all(out[block[:, None] != block[None, :]] == 0)
    linalg._pade_exp(0.9 * a)
    assert len(chosen) == 2 and chosen[0] == chosen[1] and chosen[0][1] > 0


def test_expm_of_one_component_is_the_dense_pade():
    """A matrix of one component, sparse or dense, takes the dense path
    bit for bit."""
    rng = np.random.default_rng(9)
    chain = np.diag(rng.normal(size=7)) + np.diag(rng.normal(size=6), 1)
    for a in (chain, random_complex(rng, 6, 6), real_generator("single-nucleus-spin1")):
        assert np.array_equal(expm(a, 0.05), linalg._pade_exp(0.05 * a))


@pytest.mark.parametrize("widths, big", [([1, 3, 2], 0), ([1, 3, 2], 2)],
                         ids=["width-1", "width-2"])
def test_expm_overflow_inside_one_block_raises(widths, big):
    """One overflowing block (800 on its diagonal) beside blocks that do
    not overflow."""
    a, block = permuted_blocks(np.random.default_rng(3), widths)
    a[block == big, block == big] += 800.0
    with pytest.raises(NumericalError, match="overflow"):
        expm(a)


@given(widths=st.lists(st.integers(1, 8), min_size=1, max_size=8),
       seed=st.integers(0, 2**32 - 1), complex_=st.booleans(), scale=st.floats(0.01, 10.0))
def test_expm_by_blocks_matches_the_dense_pade(widths, seed, complex_, scale):
    """Over random block widths and permutations, the block-by-block exp(a)
    is the dense Pade one to 1e-13."""
    a, _ = permuted_blocks(np.random.default_rng(seed), widths, complex if complex_ else float,
                           scale)
    assert rel_1norm(expm(a), linalg._pade_exp(a)) <= 1e-13


def hermitian_t(basis):
    """The dense d^2 x d^2 matrix T whose columns are the basis matrices,
    column-stacked."""
    n = basis.dim ** 2
    return np.stack([vectorize(b) for b in basis.states(np.eye(n))], axis=1)


@pytest.mark.parametrize("d", [1, 2, 5])
def test_hermitian_basis_coords_and_states(d):
    """coords is T^H vec(rho), real for a Hermitian rho; states inverts it
    for one vector and for a block of columns."""
    rng = np.random.default_rng(d)
    basis = linalg.HermitianBasis(d)
    t = hermitian_t(basis)
    rhos = [a + a.conj().T for a in (random_complex(rng, d, d) for _ in range(3))]
    xs = np.stack([basis.coords(r) for r in rhos], axis=1)
    assert xs.dtype == np.float64
    for x, r in zip(xs.T, rhos):
        assert np.abs(x - t.conj().T @ vectorize(r)).max() < 1e-13
        assert np.abs(basis.states(x) - r).max() < 1e-13
    block = basis.states(xs)
    assert block.shape == (3, d, d) and block.flags.c_contiguous
    assert all(np.array_equal(b, basis.states(x)) for b, x in zip(block, xs.T))


@pytest.mark.parametrize("d", [1, 2, 5, 12])
def test_hermitian_basis_real_is_the_dense_product(d):
    """real(M) is T^H M T, with T from ``states`` of the unit coordinate
    vectors, for a map and for a Lindblad generator: to 1e-13 * ||M||_1."""
    rng = np.random.default_rng(d)
    basis = linalg.HermitianBasis(d)
    t = hermitian_t(basis)
    ops = [random_complex(rng, d, d) for _ in range(3)]
    h = random_complex(rng, d, d)
    mats = [sum(w * np.kron(a.conj(), a) for w, a in zip((1.0, -0.5, 2.0), ops)),
            engine.build_liouvillian(h + h.conj().T, ops).matrix]
    for mat in mats:
        scale = np.abs(mat).sum(axis=0).max()
        assert np.abs(basis.real(mat) - t.conj().T @ mat @ t).max() <= 1e-13 * scale


def test_hermitian_basis_is_one_read_only_instance_per_dimension():
    basis = linalg.HermitianBasis(12)
    assert linalg.HermitianBasis(12) is basis
    assert linalg.HermitianBasis(5) is not basis
    for table in (basis._j, basis._k, basis._diag, basis._p, basis._q):
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 0


@pytest.mark.parametrize("d", [1, 2, 5, 12])
def test_hermitian_basis_unitary_is_the_orthogonal_image(d):
    basis = linalg.HermitianBasis(d)
    u, _ = np.linalg.qr(random_complex(np.random.default_rng(d), d, d))
    t = hermitian_t(basis)
    r = basis.unitary(u)
    assert r.dtype == np.float64
    assert np.abs(r - t.conj().T @ np.kron(u.conj(), u) @ t).max() < 1e-13
    assert np.abs(r.T @ r - np.eye(d * d)).max() < 1e-13


@pytest.mark.parametrize("d", [12, 16])
@given(seed=st.integers(0, 2**32 - 1), t=st.floats(0.0, 10.0), scale=st.floats(0.0, 50.0))
def test_hermitian_basis_phase_is_the_map_of_a_diagonal_unitary(d, seed, t, scale):
    """phase(h, t, x) for a random real diagonal h is the map
    unitary(expm(-i h, t)) applied to a vector of coordinates and to the
    rows of a matrix, to 1e-14."""
    rng = np.random.default_rng(seed)
    basis = linalg.HermitianBasis(d)
    h = np.diag(scale * rng.normal(size=d))
    dense = basis.unitary(expm(-1j * h, t))
    for x in (rng.normal(size=d * d), rng.normal(size=(d * d, 5))):
        assert np.abs(basis.phase(h, t, x) - dense @ x).max() <= 1e-14


def test_hermitian_basis_phase_needs_a_real_diagonal():
    """An entry off the diagonal, however small, or a complex diagonal entry
    raises DomainError instead of being dropped."""
    basis = linalg.HermitianBasis(3)
    x = np.ones(9)
    off = np.diag([1.0, 2.0, 3.0]).astype(complex)
    off[0, 2] = off[2, 0] = 1e-300
    for h in (off, np.diag([1.0, 2.0 + 1e-300j, 3.0])):
        with pytest.raises(DomainError, match="real diagonal"):
            basis.phase(h, 0.5, x)
    with pytest.raises(DimensionError):
        basis.phase(np.eye(2), 0.5, x)


def test_hermitian_basis_rejects_what_breaks_hermiticity():
    d = 3
    basis = linalg.HermitianBasis(d)
    a = random_complex(np.random.default_rng(8), d, d)
    # rho -> a rho a^dag keeps Hermiticity; rho -> a rho does not.
    assert basis.real(np.kron(a.conj(), a)).dtype == np.float64
    with pytest.raises(NumericalError, match="Hermiticity"):
        basis.real(np.kron(np.eye(d), a))
    with pytest.raises(DomainError, match="not Hermitian"):
        basis.coords(a)
    with pytest.raises(DimensionError):
        basis.real(np.eye(d))


def test_eig_full_ordering_and_residual():
    rng = np.random.default_rng(3)
    a = random_complex(rng, 8, 8)
    vals, vecs = eig_full(a)
    # ascending by real part, ties by imaginary part
    assert np.all(np.diff(vals.real) >= -1e-12)
    for k in range(8):
        r = np.linalg.norm(a @ vecs[:, k] - vals[k] * vecs[:, k])
        assert r <= 1e-8 * np.linalg.norm(a)


def test_eig_full_real_input():
    rng = np.random.default_rng(4)
    a = rng.normal(size=(8, 8))
    vals, vecs = eig_full(a)
    order = np.lexsort((vals.imag, vals.real))
    assert np.array_equal(order, np.arange(8))
    for k in range(8):
        r = np.linalg.norm(a @ vecs[:, k] - vals[k] * vecs[:, k])
        assert r <= 1e-8 * np.linalg.norm(a)
    # complex eigenvalues come in exact conjugate pairs, adjacent once sorted
    pairs = vals[vals.imag != 0]
    assert pairs.size > 0
    assert np.array_equal(pairs[0::2], pairs[1::2].conj())
    promoted, _ = eig_full(a.astype(complex))
    dist = np.abs(vals[:, None] - promoted[None, :])
    assert dist.min(axis=1).max() < 1e-12
    assert dist.min(axis=0).max() < 1e-12
    with pytest.raises(DimensionError):
        eig_full(rng.normal(size=(3, 4)))


def test_eig_full_keeps_real_input_real(monkeypatch):
    seen = []
    original = np.linalg.eig

    def recording(a):
        seen.append(a.dtype)
        return original(a)

    monkeypatch.setattr(np.linalg, "eig", recording)
    eig_full(np.eye(3))
    eig_full(np.eye(3, dtype=complex))
    assert seen == [np.float64, np.complex128]


@pytest.mark.parametrize("dtype", [float, complex])
def test_eig_full_residual_checks_every_block(dtype, monkeypatch):
    """A bad pair sorted last, in the last block of columns, is caught."""
    a = np.random.default_rng(6).normal(size=(150, 150)).astype(dtype)
    original = np.linalg.eig

    def corrupted(m):
        vals, vecs = original(m)
        vals[np.argmax(vals.real)] += 1.0
        return vals, vecs

    eig_full(a)
    monkeypatch.setattr(np.linalg, "eig", corrupted)
    with pytest.raises(NumericalError, match="residual"):
        eig_full(a)


@pytest.mark.parametrize("part", ["value", "vector"])
def test_eig_full_residual_catches_a_nan(part, monkeypatch):
    """A NaN eigenvalue, or a NaN in one eigenvector column, makes a NaN
    residual, which fails the check instead of passing it."""
    a = np.random.default_rng(22).normal(size=(6, 6))
    original = np.linalg.eig

    def corrupted(m):
        vals, vecs = original(m)
        (vals if part == "value" else vecs[:, 2])[0] = np.nan
        return vals, vecs

    monkeypatch.setattr(np.linalg, "eig", corrupted)
    with pytest.raises(NumericalError, match="residual"):
        eig_full(a)


def test_eig_full_of_one_component_is_the_dense_call():
    a = np.random.default_rng(23).normal(size=(40, 40))
    vals, vecs = np.linalg.eig(a)
    order = np.lexsort((vals.imag, vals.real))
    got_vals, got_vecs = eig_full(a)
    assert np.array_equal(got_vals, vals[order].astype(complex))
    assert np.array_equal(got_vecs, vecs[:, order].astype(complex))


def test_eig_full_dimension_cap():
    with pytest.raises(DimensionError):
        eig_full(np.eye(513))


@given(n=st.integers(1, 24), seed=st.integers(0, 2**32 - 1), complex_=st.booleans())
def test_eigenvalues_are_those_of_eig_full(n, seed, complex_):
    """On a random real or complex matrix, the sorted eigenvalues are
    eig_full's to 1e-12 of their largest, a real operand staying real."""
    rng = np.random.default_rng(seed)
    a = random_complex(rng, n, n) if complex_ else rng.normal(size=(n, n))
    got = eigenvalues(a)
    want = eig_full(a)[0]
    assert got.dtype == complex and got.shape == want.shape
    got = got[np.lexsort((got.imag, got.real))]
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_eigenvalues_map_a_lapack_failure_to_numerical_error(monkeypatch):
    def failing(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvals", failing)
    with pytest.raises(NumericalError, match="did not converge"):
        eigenvalues(np.eye(3))


@pytest.mark.parametrize("shift", [1e-6, np.nan], ids=["small", "nan"])
def test_eigenvalues_check_the_sum_against_the_trace(shift, monkeypatch):
    """One value shifted by 1e-6 of ||a||, or made NaN, is caught by the
    trace check."""
    a = np.random.default_rng(24).normal(size=(40, 40))
    original = np.linalg.eigvals

    def shifted(m):
        vals = original(m).astype(complex)
        vals[-1] += shift * np.linalg.norm(m)
        return vals

    eigenvalues(a)
    monkeypatch.setattr(np.linalg, "eigvals", shifted)
    with pytest.raises(NumericalError, match="trace"):
        eigenvalues(a)


def test_eigenvalues_operand_checks():
    """The cap, and one square matrix per call: a (k, n, n) stack is
    rejected by both solvers."""
    with pytest.raises(DimensionError, match="512"):
        eigenvalues(np.eye(513))
    with pytest.raises(DimensionError, match="square"):
        eigenvalues(np.ones((3, 4)))
    for solver in (eigenvalues, eig_full):
        with pytest.raises(DimensionError, match="square"):
            solver(np.ones((2, 3, 3)))


def test_vectorize_round_trip():
    rng = np.random.default_rng(4)
    rho = random_complex(rng, 6, 6)
    assert np.array_equal(unvectorize(vectorize(rho), 6), rho)


def test_unvectorize_length_check():
    with pytest.raises(DimensionError):
        unvectorize(np.zeros(10), 3)


@pytest.mark.parametrize("d", [2, 3, 5])
def test_column_stacking_identity(d):
    """vec(A rho B) = (B^T kron A) vec(rho), the vectorization convention."""
    rng = np.random.default_rng(d)
    a = random_complex(rng, d, d)
    b = random_complex(rng, d, d)
    rho = random_complex(rng, d, d)
    lhs = vectorize(a @ rho @ b)
    rhs = np.kron(b.T, a) @ vectorize(rho)
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_partial_trace_product_state():
    rng = np.random.default_rng(7)
    a = random_complex(rng, 4, 4)
    b = random_complex(rng, 3, 3)
    a /= np.trace(a)
    b /= np.trace(b)
    rho = np.kron(a, b)
    layout = SpaceLayout((4, 3))
    assert np.allclose(partial_trace(rho, layout, 0), a, atol=1e-12)
    assert np.allclose(partial_trace(rho, layout, 1), b, atol=1e-12)


def test_partial_trace_keep_multiple():
    rng = np.random.default_rng(8)
    a = random_complex(rng, 2, 2)
    b = random_complex(rng, 2, 2)
    c = random_complex(rng, 3, 3)
    for m in (a, b, c):
        m /= np.trace(m)
    rho = np.kron(np.kron(a, b), c)
    layout = SpaceLayout((2, 2, 3))
    kept = partial_trace(rho, layout, (0, 2))
    assert np.allclose(kept, np.kron(a, c), atol=1e-12)
    # trace of the kept marginal is preserved
    assert abs(np.trace(kept) - 1.0) < 1e-12


def test_partial_trace_rejects_bad_keep():
    layout = SpaceLayout((4, 3))
    with pytest.raises(DimensionError):
        partial_trace(np.eye(12), layout, 2)
    with pytest.raises(DimensionError):
        partial_trace(np.eye(12), layout, ())
    with pytest.raises(DimensionError):
        partial_trace(np.eye(10), layout, 0)
