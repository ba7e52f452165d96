"""Dense linear algebra used by the model, engine and pulse layers.

Everything operates on plain ``numpy`` arrays, promoted to complex128
except where ``eig_full`` keeps a real input real, and is pure.  State
spaces here are at most 16-dimensional and superoperators at most
256-dimensional, so dense storage is used throughout.

Vectorization follows the column-stacking convention: ``vec(A rho B) =
(B^T kron A) vec(rho)``.  All superoperator formulas elsewhere in the package
assume it.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import math
import os
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DimensionError, NumericalError

__all__ = [
    "SpaceLayout",
    "dagger",
    "eig_full",
    "expm",
    "kron",
    "partial_trace",
    "unvectorize",
    "vectorize",
]

# eig_full residuals are checked against this relative bound.
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

    Raises NumericalError if the scaling overflows to non-finite entries.
    """
    a = _as_square(a, "expm operand")
    s = float(s)
    if not np.isfinite(s):
        raise NumericalError(f"expm scalar must be finite, got {s}")
    out = scipy.linalg.expm(s * a)
    if not np.all(np.isfinite(out)):
        raise NumericalError("expm overflowed: result contains non-finite entries")
    return out


def eig_full(a):
    """All eigenpairs of a general real or complex matrix.

    A real input stays real (LAPACK ``dgeev``, whose complex eigenvalues
    come in exact conjugate pairs); anything else is promoted to complex128.
    Returns ``(values, vectors)``, both complex, with ``vectors[:, k]`` the
    unit eigenvector for ``values[k]``.  Pairs are sorted by (real,
    imaginary) part so the output order is reproducible.  Residuals
    ``||a v - lambda v||`` are verified against ``1e-8 * ||a||``, a block of
    columns at a time.
    """
    real = np.isrealobj(a)
    a = _as_square(a, "eig_full operand", dtype=float if real else complex)
    n = a.shape[0]
    if n > _EIG_MAX_DIM:
        raise DimensionError(f"eig_full supports dimension <= {_EIG_MAX_DIM}, got {n}")
    try:
        vals, vecs = scipy.linalg.eig(a)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NumericalError(f"eigendecomposition did not converge: {exc}")
    order = np.lexsort((vals.imag, vals.real))
    vals = vals[order]
    vecs = vecs[:, order]
    scale = np.linalg.norm(a)
    worst = 0.0
    for lo in range(0, n, _EIG_RESIDUAL_BLOCK):
        v = vecs[:, lo:lo + _EIG_RESIDUAL_BLOCK]
        # A real a takes two real products, not a complex copy of itself.
        av = a @ v.real + 1j * (a @ v.imag) if real else a @ v
        av -= v * vals[lo:lo + _EIG_RESIDUAL_BLOCK]
        worst = max(worst, float(np.linalg.norm(av, axis=0).max()))
    if worst > _EIG_RESIDUAL_REL * scale:
        raise NumericalError(
            f"eigenpair residual {worst:.3e} exceeds {_EIG_RESIDUAL_REL:.0e}*||a||"
        )
    return vals, vecs


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


# ---------------------------------------------------------------------------
# BLAS thread pools


def _find_blas_pools():
    """(get, set) thread-count functions of the scipy-openblas builds that
    the numpy and scipy wheels bundle in ``numpy.libs`` / ``scipy.libs``:
    numpy's 64-bit-integer build (symbol suffix ``64_``) and scipy's.  A
    library that exports neither pair (another BLAS) gives no pool."""
    pools = []
    for pkg in (np, scipy):
        libs = os.path.join(os.path.dirname(os.path.dirname(pkg.__file__)), pkg.__name__ + ".libs")
        for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas*"))):
            lib = ctypes.CDLL(path)
            for suffix in ("64_", ""):
                get = getattr(lib, "scipy_openblas_get_num_threads" + suffix, None)
                set_ = getattr(lib, "scipy_openblas_set_num_threads" + suffix, None)
                if get is not None and set_ is not None:
                    pools.append((get, set_))
                    break
    return pools


_blas_pools = None  # found on first use of _one_blas_thread, then kept


@contextlib.contextmanager
def _one_blas_thread():
    """Run the body with every bundled scipy-openblas pool at one thread.

    At 144x144 and 256x256 a second thread costs more than it gains, and
    one thread makes the summation order, and so the output bytes, the
    same on every machine.  The counts found on entry are restored on
    every exit.  Does nothing when no pool is found (another BLAS).
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
