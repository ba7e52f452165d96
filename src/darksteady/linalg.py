"""Dense linear algebra used by the model, engine and pulse layers.

Everything operates on plain ``numpy`` arrays and is pure, and numpy is
the only dependency: ``expm`` is a Pade scaling-and-squaring method
written here, and ``eig_full`` and ``eigenvalues`` call LAPACK through
``numpy.linalg.eig`` and ``numpy.linalg.eigvals``, so the package never
imports scipy.  ``expm`` splits its operand into the connected components
of its nonzero pattern and exponentiates them as one stack of small blocks
(a diagonal operand is the case of width 1), so a generator that is
block-diagonal up to a permutation, such as the optical pump's, costs a
fraction of a dense one.  ``eig_full`` decomposes a matrix or a stack of
them in one LAPACK call; ``eigenvalues`` computes no vectors, in about
half its time, for a caller that reads only the spectrum (the odd block
of the steady-state generator in its mirror-adapted basis, see
``engine.steady_state``).  ``expm``, ``eig_full`` and ``eigenvalues``
keep a real input real; other operands are promoted to complex128.  State
spaces here are at most 16-dimensional and superoperators at most
256-dimensional, so dense storage is used throughout.

Vectorization follows the column-stacking convention: ``vec(A rho B) =
(B^T kron A) vec(rho)``.  All superoperator formulas elsewhere in the package
assume it.  :class:`HermitianBasis` changes to the orthonormal basis of
Hermitian matrices, where a density matrix has real coordinates and a
superoperator that preserves Hermiticity is a real matrix; the engine and
the pulse layer propagate and observe there.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError, NumericalError

__all__ = [
    "HermitianBasis",
    "SpaceLayout",
    "dagger",
    "eig_full",
    "eigenvalues",
    "expm",
    "kron",
    "partial_trace",
    "unvectorize",
    "vectorize",
]

# HermitianBasis rejects an imaginary part above this times the 1-norm.
_LEAK_REL = 1e-10
# eig_full residuals, and the distance of each eigenvalue sum from its
# trace in eigenvalues(), are checked against this relative bound.
_EIG_RESIDUAL_REL = 1e-8
_EIG_MAX_DIM = 512
# Eigenvector columns per residual product, so that the check holds no
# second n x n complex array.
_EIG_RESIDUAL_BLOCK = 64


@dataclass(frozen=True)
class SpaceLayout:
    """Ordered tensor-factor dimensions of a Hilbert space.

    ``SpaceLayout((4, 3))`` describes an electron factor of dimension 4
    followed by a spin-1 nuclear factor; ``SpaceLayout((4, 2, 2))`` two
    spin-1/2 nuclei.  The first factor varies slowest in the basis ordering.
    """

    factor_dims: tuple

    def __post_init__(self):
        try:
            raw = tuple(self.factor_dims)
            dims = tuple(int(d) for d in raw)
        except (TypeError, ValueError):
            raise DimensionError(f"invalid factor dimensions {self.factor_dims!r}")
        if not dims or any(d < 1 for d in dims) or any(d != r for d, r in zip(dims, raw)):
            raise DimensionError(f"invalid factor dimensions {self.factor_dims!r}")
        object.__setattr__(self, "factor_dims", dims)

    @property
    def dim(self):
        return math.prod(self.factor_dims)


def _as_square(a, what="operand", dtype=complex):
    a = np.asarray(a, dtype=dtype)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"{what} must be a square matrix, got shape {a.shape}")
    return a


def dagger(a):
    """Conjugate transpose."""
    return np.asarray(a, dtype=complex).conj().T


def kron(a, b):
    """Kronecker product of two square matrices."""
    a = _as_square(a, "kron left operand")
    b = _as_square(b, "kron right operand")
    return np.kron(a, b)


def expm(a, s=1.0):
    """Matrix exponential exp(s*a) for a square matrix and a real scalar.

    Scaling and squaring with a diagonal Pade approximant of degree 3, 5,
    7, 9 or 13 (Higham, SIAM J. Matrix Anal. Appl. 26, 1179 (2005)), the
    degree and the number of squarings chosen from ||(s*a)^k||_1^(1/k) as
    in Algorithm 5.1 of Al-Mohy & Higham, SIAM J. Matrix Anal. Appl. 31,
    970 (2009).  s*a is first split into the connected components of the
    exact nonzero pattern of a + a^T, so that a matrix that is
    block-diagonal up to a permutation is exponentiated block by block.
    The blocks run as one stack, zero-padded to the widest (exp(diag(B, 0))
    = diag(exp(B), I)), with the degree and squarings of the largest norms
    over the stack, which are those of the whole matrix; entries between
    components are exactly 0.  A matrix of one component is exponentiated
    as it is, and a diagonal one (all components of width 1) takes the
    exponential of its diagonal.  A real input stays real; anything else
    is promoted to complex128.  Raises NumericalError if the result or a
    power of s*a formed on the way is not finite (an overflow or a
    non-finite operand).
    """
    a = _as_square(a, "expm operand", dtype=float if np.isrealobj(a) else complex)
    s = float(s)
    if not np.isfinite(s):
        raise NumericalError(f"expm scalar must be finite, got {s}")
    a = s * a
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        out = _block_exp(a)
    if not np.all(np.isfinite(out)):
        raise NumericalError("expm overflowed: result contains non-finite entries")
    return out


def _components(a):
    """For each index of a, the smallest index of its connected component
    in the nonzero pattern of a + a^T: over the nonzero entries (i, j),
    i and j each take the smaller of their labels, then every index the
    label of its label, until no label changes."""
    i, j = np.divmod(np.flatnonzero(a != 0), a.shape[0])
    labels = np.arange(a.shape[0])
    while True:
        new = labels.copy()
        np.minimum.at(new, i, labels[j])
        np.minimum.at(new, j, labels[i])
        new = new[new]
        if np.array_equal(new, labels):
            return labels
        labels = new


def _block_exp(a):
    """exp(a), one connected component of a at a time (see expm)."""
    n = a.shape[0]
    # The indices grouped by component, in index order within one, and
    # where each component starts in ``order`` and how wide it is.
    labels = _components(a)
    order = np.argsort(labels, kind="stable")
    _, starts, widths = np.unique(labels[order], return_index=True, return_counts=True)
    if len(widths) == n:  # diagonal
        return np.diag(np.exp(a.diagonal()))
    if len(widths) == 1:
        return _pade_exp(a)
    # idx[c, j]: the j-th index of the c-th component, or n past its width;
    # row and column n of the padded matrices are the zero padding.
    comp = np.repeat(np.arange(len(widths)), widths)
    idx = np.full((len(widths), widths.max()), n)
    idx[comp, np.arange(n) - starts[comp]] = order
    rows, cols = idx[:, :, None], idx[:, None, :]
    out = np.zeros((n + 1, n + 1), dtype=a.dtype)
    out[rows, cols] = _pade_exp(np.pad(a, (0, 1))[rows, cols])
    return out[:n, :n].copy()


# Al-Mohy & Higham (2009), Table 3.1: per Pade degree m, the largest bound
# on ||A^k||^(1/k) at which the degree-m approximant of exp(A) has a
# backward error below the unit roundoff.  Degree 13 squares beyond it.
_PADE_THETA = {3: 1.495585217958292e-2, 5: 2.539398330063230e-1,
               7: 9.504178996162932e-1, 9: 2.097847961257068, 13: 4.25}


def _pade_rows(m):
    """Coefficient rows that, times the stacked even powers (I, A^2, ...),
    give the degree-m approximant's U = A u and V = v, where
    exp(A) ~ (V - U)^-1 (V + U).  The numerator coefficients b_0..b_m are
    scaled to integers (Higham 2005).  Degree 13 gives four rows (w1, u,
    w2, v) over (I, A^2, A^4, A^6): U = A (A^6 w1 + u), V = A^6 w2 + v."""
    b = [math.factorial(2 * m - j) // (math.factorial(j) * math.factorial(m - j))
         for j in range(m + 1)]
    if m < 13:
        return np.array([b[1::2], b[0::2]], dtype=float)
    return np.array([[0, *b[9::2]], b[1:9:2], [0, *b[8::2]], b[0:8:2]], dtype=float)


_PADE_ROWS = {m: _pade_rows(m) for m in _PADE_THETA}


def _norm1(x):
    """The 1-norm of x, or the largest of a stack: that of the
    block-diagonal matrix of its blocks."""
    return float(np.abs(x).sum(axis=-2).max())


def _pade_degree(a, powers):
    """(m, s): the Pade degree and the number of squarings for exp(a), by
    Algorithm 5.1 of Al-Mohy & Higham (2009).  A (k, n, n) stack ``a``
    gets the choice for the block-diagonal matrix of its blocks.

    ``powers`` is a buffer of slots shaped like a, holding I and a^2.  The
    choice reads d_k = ||a^k||_1^(1/k), exact for the even powers it forms
    into the buffer and bounded by products of their norms above them.  a^4
    is formed only once degree 3 is ruled out, a^6 once degree 5 is, and
    a^8 only for degree 9, which needs it.  Raises NumericalError when the
    powers are not finite.
    """
    norm = _norm1(a)
    b = col = k = None  # |a| / ||a||_1 and the column sums of its k-th power

    def ell(m, s=0):
        """Extra squarings that keep the rounding of the degree-m
        approximant of 2^-s a below the unit roundoff 2^-53: the function
        ell of Al-Mohy & Higham (2009), from ||(|a|)^(2m+1)||_1.  The
        powers of b = |a| / ||a||_1 have non-increasing 1-norms, so the
        chain of them stops as soon as one settles it."""
        nonlocal b, col, k
        c = math.factorial(2 * m) * math.factorial(2 * m + 1) / math.factorial(m) ** 2
        # log2(alpha / u) at ||b^(2m+1)||_1 = 1, its largest value.
        log2_alpha = 2 * m * (math.log2(norm) - s) + 53 - math.log2(c)
        if b is None and log2_alpha > 0:
            b = np.abs(a)
            b /= norm  # its powers cannot overflow
            col, k = b.sum(axis=-2, keepdims=True), 1  # the column sums of b^k
        while log2_alpha > 0:
            unit = float(col.max())
            if unit == 0.0 or log2_alpha + math.log2(unit) <= 0:
                break
            if k == 2 * m + 1:
                return math.ceil((log2_alpha + math.log2(unit)) / (2 * m))
            col, k = col @ b, k + 1
        return 0

    n2 = _norm1(powers[1])
    # ||a^4||, ||a^6|| <= ||a^2||^2, ||a^2||^3.
    if math.sqrt(n2) <= _PADE_THETA[3] and ell(3) == 0:
        return 3, 0
    np.matmul(powers[1], powers[1], out=powers[2])
    n4 = _norm1(powers[2])
    if max(n4 ** 0.25, (n4 * n2) ** (1 / 6)) <= _PADE_THETA[5] and ell(5) == 0:
        return 5, 0
    np.matmul(powers[2], powers[1], out=powers[3])
    n6 = _norm1(powers[3])
    n8 = min(n4 * n4, n6 * n2)
    eta = max(n6 ** (1 / 6), n8 ** 0.125)
    if eta <= _PADE_THETA[7] and ell(7) == 0:
        return 7, 0
    if eta <= _PADE_THETA[9] and ell(9) == 0:
        np.matmul(powers[2], powers[2], out=powers[4])
        return 9, 0
    eta = min(eta, max(n8 ** 0.125, min(n4 * n6, n8 * n2) ** 0.1))
    if not math.isfinite(eta):
        raise NumericalError("expm overflowed: powers of the operand are not finite")
    s = max(math.ceil(math.log2(eta / _PADE_THETA[13])), 0) if eta > 0 else 0
    return 13, s + ell(13, s)


def _pade_exp(a):
    """exp(a) by scaling and squaring (see expm), of each matrix of a
    (k, n, n) stack at once.

    Every intermediate lives in one workspace of eight slots shaped like
    a: the even powers I, a^2, a^4, a^6 (and a^8), then the coefficient
    combinations, and the products reuse the slots they free.  Only the
    solve and the squarings allocate, so a call does not grow and shrink
    the heap by a dozen temporaries.
    """
    work = np.empty((8, *a.shape), dtype=a.dtype)
    work[0] = 0.0
    np.einsum("...jj->...j", work[0])[...] = 1.0  # the diagonals, a view
    np.matmul(a, a, out=work[1])
    m, s = _pade_degree(a, work)
    rows = _PADE_ROWS[m]
    k, r = rows.shape[1], rows.shape[0]
    if m == 13:
        # a^(2j) of 2^-s a is 4^(-js) a^(2j): exact power-of-two scalings.
        rows = rows * [1.0, 4.0 ** -s, 16.0 ** -s, 64.0 ** -s]
    combos = work[k:k + r]
    np.matmul(rows, work[:k].reshape(k, -1), out=combos.reshape(r, -1))
    if m < 13:
        u_in, v = combos
        u = np.matmul(a, u_in, out=work[0])
    else:
        w1, u_in, w2, v = combos
        a6 = work[3]
        a6 *= 2.0 ** (-6 * s)
        inner = np.matmul(a6, w1, out=work[0])
        inner += u_in
        u = np.matmul(np.multiply(a, 2.0 ** -s, out=work[1]), inner, out=work[2])
        v = np.add(np.matmul(a6, w2, out=w1), v, out=w1)
    p = np.add(v, u, out=u_in)
    q = np.subtract(v, u, out=v)
    try:
        x = np.linalg.solve(q, p)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"expm: the Pade denominator is singular: {exc}")
    spare = np.empty_like(x)
    for _ in range(s):
        x, spare = np.matmul(x, x, out=spare), x
    return x


def _eig_operand(a, what):
    """a as a real (a real input) or complex128 square matrix or (k, n, n)
    stack, with n <= 512; else DimensionError, naming ``what``."""
    a = np.asarray(a, dtype=float if np.isrealobj(a) else complex)
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2]:
        raise DimensionError(f"{what} operand must be a square matrix or a stack of them, "
                             f"got shape {a.shape}")
    n = a.shape[-1]
    if n > _EIG_MAX_DIM:
        raise DimensionError(f"{what} supports dimension <= {_EIG_MAX_DIM}, got {n}")
    return a


def eig_full(a):
    """All eigenpairs of a general real or complex matrix, or of each
    matrix of a (k, n, n) stack, in one ``numpy.linalg.eig`` call on the
    operand as given.

    A real input stays real (LAPACK ``dgeev``, whose complex eigenvalues
    come in exact conjugate pairs); anything else is promoted to complex128.
    Returns ``(values, vectors)``, both complex, with ``vectors[..., :, k]``
    the unit eigenvector for ``values[..., k]``.  The pairs of each matrix
    are sorted by (real, imaginary) part so the output order is
    reproducible.  Residuals ``||a v - lambda v||`` are verified against
    ``1e-8 * ||a||`` of the whole operand, a block of columns at a time.
    """
    a = _eig_operand(a, "eig_full")
    try:
        vals, vecs = np.linalg.eig(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed: {exc}")
    worst = _eig_residual(a, vals, vecs)
    if worst > _EIG_RESIDUAL_REL * np.linalg.norm(a):
        raise NumericalError(
            f"eigenpair residual {worst:.3e} exceeds {_EIG_RESIDUAL_REL:.0e}*||a||"
        )
    # numpy returns real arrays when every eigenvalue of a real a is real.
    order = np.lexsort((vals.imag, vals.real), axis=-1)
    vals = np.take_along_axis(vals, order, axis=-1)
    vecs = np.take_along_axis(vecs, order[..., None, :], axis=-1)
    return vals.astype(complex, copy=False), vecs.astype(complex, copy=False)


def eigenvalues(a):
    """The eigenvalues of a general real or complex matrix, or of each
    matrix of a (k, n, n) stack, without vectors: one
    ``numpy.linalg.eigvals`` call (LAPACK ``dgeev`` or ``zgeev`` computing
    no vectors), about half the time of :func:`eig_full` at n = 128.

    Operands are checked and promoted as by :func:`eig_full`.  Returns a
    complex array in LAPACK's order, not sorted.  With no vectors there is
    no residual; each matrix's sum of eigenvalues is checked against its
    trace instead, to ``1e-8 * ||a||`` of the whole operand.
    """
    a = _eig_operand(a, "eigenvalues")
    try:
        vals = np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigenvalue computation failed: {exc}")
    worst = float(np.abs(vals.sum(axis=-1) - np.trace(a, axis1=-2, axis2=-1)).max())
    if not worst <= _EIG_RESIDUAL_REL * np.linalg.norm(a):  # a NaN fails too
        raise NumericalError(
            f"eigenvalue sum is {worst:.3e} from the trace, above "
            f"{_EIG_RESIDUAL_REL:.0e}*||a||"
        )
    return vals.astype(complex, copy=False)


def _eig_residual(a, vals, vecs):
    """The largest ||a v - lambda v|| over the eigenpairs (vals, vecs) of
    a matrix or of each matrix of a (k, w, w) stack, a block of columns at
    a time, so that the check holds no second copy of the eigenvectors."""
    worst = 0.0
    for lo in range(0, a.shape[-1], _EIG_RESIDUAL_BLOCK):
        v = vecs[..., lo:lo + _EIG_RESIDUAL_BLOCK]
        # A real a takes two real products, not a complex copy of itself.
        av = a @ v.real + 1j * (a @ v.imag) if np.isrealobj(a) else a @ v
        av -= v * vals[..., None, lo:lo + _EIG_RESIDUAL_BLOCK]
        worst = max(worst, float(np.linalg.norm(av, axis=-2).max()))
    return worst


def partial_trace(rho, layout, keep):
    """Trace out all tensor factors not listed in ``keep``.

    ``keep`` is an index or iterable of indices into ``layout.factor_dims``;
    the kept factors stay in their original order.
    """
    if not isinstance(layout, SpaceLayout):
        layout = SpaceLayout(tuple(layout))
    dims = list(layout.factor_dims)
    n = len(dims)
    if isinstance(keep, (int, np.integer)):
        keep = (int(keep),)
    keep = sorted({int(k) for k in keep})
    if not keep:
        raise DimensionError("partial_trace must keep at least one factor")
    if any(k < 0 or k >= n for k in keep):
        raise DimensionError(f"keep indices {keep} out of range for {n} factors")
    rho = _as_square(rho, "partial_trace operand")
    if rho.shape[0] != layout.dim:
        raise DimensionError(
            f"state dimension {rho.shape[0]} does not match layout product {layout.dim}"
        )
    t = rho.reshape(dims + dims)
    # Trace out the complement, highest factor first so lower axes keep
    # their positions.
    for idx in sorted((i for i in range(n) if i not in keep), reverse=True):
        t = np.trace(t, axis1=idx, axis2=idx + n)
        n -= 1
    d_keep = math.prod(dims[k] for k in keep)
    return t.reshape(d_keep, d_keep)


def vectorize(rho):
    """Column-stack a square matrix into a vector."""
    rho = _as_square(rho, "vectorize operand")
    return rho.reshape(-1, order="F").copy()


def unvectorize(v, dim):
    """Inverse of :func:`vectorize` for a ``dim x dim`` matrix."""
    v = np.asarray(v, dtype=complex)
    dim = int(dim)
    if v.ndim != 1 or v.size != dim * dim:
        raise DimensionError(
            f"vector of length {v.size} cannot unstack into {dim}x{dim}"
        )
    return v.reshape((dim, dim), order="F").copy()


# One basis per dimension, built on first use and shared by every caller.
_BASES = {}


class HermitianBasis:
    """The orthonormal basis of the real space of d x d Hermitian matrices:
    the d diagonal units E_jj, then for each j < k (E_jk + E_kj)/sqrt2,
    then for each j < k i(E_kj - E_jk)/sqrt2.

    T, the d^2 x d^2 unitary whose columns are these matrices column-stacked,
    is never formed: each of its columns has at most two nonzeros, so every
    change of basis is a few index operations.  A Hermitian rho has real
    coordinates T^H vec(rho), and a superoperator M that maps Hermitian
    matrices to Hermitian matrices is the real matrix T^H M T; both keep
    the Euclidean norm, so ||M vec(rho)|| = ||(T^H M T) x||.

    ``HermitianBasis(d)`` is one instance per dimension, built on first use
    and shared, so its index tables are read-only.
    """

    def __new__(cls, d):
        d = int(d)
        basis = _BASES.get(d)
        if basis is None:
            if d < 1:
                raise DimensionError(f"basis dimension must be >= 1, got {d}")
            basis = super().__new__(cls)
            basis.dim = d
            j, k = np.triu_indices(d, 1)
            # Column-stacked indices of E_jj, E_jk and E_kj (j < k); a
            # row-major index swaps the last two.
            tables = j, k, np.arange(d) * (d + 1), k * d + j, j * d + k
            for table in tables:
                table.flags.writeable = False
            basis._j, basis._k, basis._diag, basis._p, basis._q = tables
            _BASES[d] = basis
        return basis

    def _rows(self, v, out, spare):
        """T^H v into ``out`` for a vector or the rows of a 2-D array, with
        ``spare`` (shaped like the m = d(d-1)/2 rows of either off-diagonal
        group) as scratch."""
        d, m, s = self.dim, self._p.size, math.sqrt(0.5)
        sym, anti = out[d:d + m], out[d + m:]
        # Indices are in range: mode="clip" writes into out unbuffered.
        np.take(v, self._diag, axis=0, out=out[:d], mode="clip")
        np.take(v, self._p, axis=0, out=spare, mode="clip")
        np.take(v, self._q, axis=0, out=anti, mode="clip")
        np.add(spare, anti, out=sym)
        np.subtract(spare, anti, out=anti)
        sym *= s
        anti *= 1j * s
        return out

    @staticmethod
    def _check_leak(leak, scale, error, what):
        if leak > _LEAK_REL * scale:
            raise error(
                f"{what}: imaginary part {leak:.3e} in the Hermitian basis "
                f"exceeds 1e-10*||.||_1"
            )

    def real(self, mat):
        """T^H mat T for a d^2 x d^2 superoperator (a generator or a map),
        as a real matrix.  An imaginary part above 1e-10 * ||mat||_1 (max
        column sum) means mat does not preserve Hermiticity and raises
        NumericalError."""
        n = self.dim ** 2
        mat = _as_square(mat, "superoperator")
        if mat.shape[0] != n:
            raise DimensionError(f"superoperator of shape {mat.shape} does not act on {n}-vectors")
        # T^H mat T = (T^H (T^H mat)^H)^H: two passes of row operations,
        # which are much faster than the same on columns, into one buffer.
        # The real result's buffer holds |mat|, then the passes' scratch
        # (m x n complex, m = d(d-1)/2, fits in n x n real), then the
        # leak's |imag|.
        real = np.abs(mat, out=np.empty((n, n)))
        scale = float(real.sum(axis=0).max())
        out = np.empty((n, n), dtype=complex)
        spare = real.reshape(-1)[:2 * self._p.size * n].view(complex).reshape(-1, n)
        self._rows(mat, out, spare)
        self._rows(np.conjugate(out.T, order="C"), out, spare)
        self._check_leak(float(np.abs(out.imag, out=real).max()), scale, NumericalError,
                         "superoperator does not preserve Hermiticity")
        np.copyto(real, out.real.T)
        return real

    def unitary(self, u):
        """The map rho -> u rho u^dag, T^H (conj(u) kron u) T, as a real
        orthogonal matrix.  Column b holds the coordinates of u B_b u^dag
        for the b-th basis matrix B_b, made from products of entries of u
        on and above the diagonal (a Hermitian matrix needs no more), so no
        d^2 x d^2 complex array is formed."""
        u = np.asarray(u, dtype=complex)
        d, j, k = self.dim, self._j, self._k
        if u.shape != (d, d):
            raise DimensionError(f"unitary of shape {u.shape} is not {d}x{d}")
        m, s = j.size, math.sqrt(0.5)
        rows = np.arange(d)
        ul, um = u[np.concatenate([rows, j])], u[np.concatenate([rows, k])].conj()
        jk, kj = ul[:, j] * um[:, k], ul[:, k] * um[:, j]
        # (u B_b u^dag)[l, m] for l = m, then l < m, in the rows of each
        # column group; its real part on the diagonal, and sqrt2 times its
        # real and imaginary parts above it, are the coordinates.
        groups = ul * um, s * (jk + kj), (1j * s) * (kj - jk)
        out = np.empty((d * d, d * d))
        for cols, w in zip((slice(None, d), slice(d, d + m), slice(d + m, None)), groups):
            out[:d, cols] = w[:d].real
            np.multiply(w[d:].real, 2 * s, out=out[d:d + m, cols])
            np.multiply(w[d:].imag, -2 * s, out=out[d + m:, cols])
        return out

    def permutation(self, u):
        """The map rho -> u rho u^dag of a d x d signed permutation matrix u
        as a signed permutation of the coordinates: ``(pi, sigma)`` with
        that map sending basis element b to sigma[b] times element pi[b].
        Made by index operations on the pairs j < k; any other u raises
        DomainError."""
        u = np.asarray(u)
        d, j, k = self.dim, self._j, self._k
        if u.shape != (d, d):
            raise DimensionError(f"unitary of shape {u.shape} is not {d}x{d}")
        perm = np.abs(u).argmax(axis=0)  # u e_i = sign[i] e_perm[i]
        sign = u[perm, np.arange(d)]
        if (np.count_nonzero(u) != d or np.unique(perm).size != d
                or not np.all((sign == 1) | (sign == -1))):
            raise DomainError("the symmetry is not a signed permutation matrix")
        # E_jk -> sign_j sign_k E_(pj, pk): the pair (pj, pk) in either order.
        pj, pk, s, m = perm[j], perm[k], (sign[j] * sign[k]).real, j.size
        pair = np.empty((d, d), dtype=int)
        pair[j, k] = pair[k, j] = np.arange(m)
        pi = np.concatenate([perm, d + pair[pj, pk], d + m + pair[pj, pk]])
        sigma = np.concatenate([np.ones(d), s, np.where(pj < pk, s, -s)])
        return pi, sigma

    def coords(self, rho):
        """Real coordinates T^H vec(rho) of a Hermitian d x d matrix; an
        anti-Hermitian part above 1e-10 times their 1-norm raises
        DomainError."""
        rho = _as_square(rho, "matrix")
        if rho.shape[0] != self.dim:
            raise DimensionError(f"matrix of shape {rho.shape} is not {self.dim}x{self.dim}")
        x = self._rows(vectorize(rho), np.empty(self.dim ** 2, dtype=complex),
                       np.empty(self._p.size, dtype=complex))
        self._check_leak(float(np.abs(x.imag).max()), float(np.abs(x).sum()), DomainError,
                         "matrix is not Hermitian")
        return x.real.copy()

    def states(self, x):
        """The matrices T x: one d x d matrix for a vector of coordinates,
        or a C-contiguous stack of shape (k, d, d) for the k columns of a
        2-D ``x``.  Real coordinates give exactly Hermitian matrices."""
        x = np.asarray(x)
        d, n = self.dim, self.dim ** 2
        if x.ndim not in (1, 2) or x.shape[0] != n:
            raise DimensionError(f"coordinates of shape {x.shape} do not match dimension {d}")
        rows = np.atleast_2d(x.T)  # one state per row
        m, s = self._p.size, math.sqrt(0.5)
        sym, anti = s * rows[:, d:d + m], (1j * s) * rows[:, d + m:]
        flat = np.empty((rows.shape[0], n), dtype=complex)
        flat[:, self._diag] = rows[:, :d]
        flat[:, self._q] = sym - anti  # E_jk, row-major
        flat[:, self._p] = sym + anti  # E_kj
        out = flat.reshape(-1, d, d)
        return out[0] if x.ndim == 1 else out


# ---------------------------------------------------------------------------
# BLAS thread pools


def _find_blas_pools():
    """(get, set) thread-count functions of the scipy-openblas build that
    the numpy wheel bundles in ``numpy.libs``: its 64-bit-integer build
    (symbol suffix ``64_``) or a 32-bit one (no suffix).  A library that
    exports neither pair (another BLAS) gives no pool."""
    pools = []
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas*"))):
        lib = ctypes.CDLL(path)
        for suffix in ("64_", ""):
            get = getattr(lib, "scipy_openblas_get_num_threads" + suffix, None)
            set_ = getattr(lib, "scipy_openblas_set_num_threads" + suffix, None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                pools.append((get, set_))
                break
    return pools


_blas_pools = None  # found on first use of _one_blas_thread, then kept


@contextlib.contextmanager
def _one_blas_thread():
    """Run the body with numpy's bundled scipy-openblas pool at one thread.

    It is the only BLAS that darksteady calls.  At 144x144 and 256x256 a
    second thread costs more than it gains, and one thread makes the
    summation order, and so the output bytes, the same on every machine.
    The counts found on entry are restored on every exit.  Does nothing
    when no pool is found (another BLAS).
    """
    global _blas_pools
    if _blas_pools is None:
        _blas_pools = _find_blas_pools()
    saved = [get() for get, _ in _blas_pools]
    for _, set_ in _blas_pools:
        set_(1)
    try:
        yield
    finally:
        for (_, set_), count in zip(_blas_pools, saved):
            set_(count)
