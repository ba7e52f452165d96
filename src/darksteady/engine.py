"""Liouvillian construction, time integration and steady-state solving.

The Liouvillian acts on column-stacked density matrices:

    d/dt vec(rho) = L vec(rho),
    L = -i (I kron H_eff) + i (conj(H_eff) kron I) + sum_k conj(C_k) kron C_k,
    H_eff = H - (i/2) sum_k C_k^dag C_k.

``unvectorize(L vec(rho))`` then equals -i(H_eff rho - rho H_eff^dag)
+ sum_k C_k rho C_k^dag, i.e. the usual master-equation right-hand side.
``Liouvillian.matrix`` is this column-stacked L.  :func:`build_liouvillian`
forms no Kronecker product: the collapse sum is one matrix product over the
stacked C_k, written into L through a transposed (d, d, d, d) view, and the
two H_eff terms are added on that view's diagonals.

Propagation runs in the orthonormal basis of Hermitian matrices
(:class:`linalg.HermitianBasis`): there a density matrix is a real
coordinate vector and L is a real matrix with the same eigenvalues
(``Liouvillian.real``), so every map, step and steady-state solve
is real arithmetic, and so is observation (:meth:`Trajectory.from_coords`):
a density matrix is made only for a final state and for states a caller keeps.
Given a symmetry such as ``model.mirror`` (``Liouvillian.symmetry``), that
real matrix is split once into the blocks of the symmetry's even and odd
states when it commutes with it (``Liouvillian.halves``, :class:`MirrorSplit`).
:func:`steady_state` then takes eigenvectors of the even block, where a
unique steady state lies, and only the eigenvalues of the odd one unless
it has a null eigenvalue; :func:`evolve_fixed_step` and
:func:`evolve_propagator` propagate a mirror-even initial state in the
even block alone, half the coordinates, and observe it there.

The fixed-step integrator is classical 4th-order Runge-Kutta.  For a linear
autonomous system the four stages collapse to one matrix: the degree-4
Taylor polynomial of h*L.  Because L does not depend on time, that step is
raised by repeated squaring to the sample interval (``sample_every`` steps)
to give one sample map; a remainder map covers a last partial interval.
This is algebraically identical to stepping the stage form, and a run
costs O(log sample_every) matrix products plus its samples instead of one
product per step.  The map is built as its increment over the identity,
so its trace error does not grow with the step count.

One stepping generator, :func:`iterate`, applies the sample maps of both
integrators and the composed cycle map of the pulsed protocol, in blocks
of ``_OBSERVE_BLOCK`` = 64 samples: the first 256 samples cost one
matrix-vector product each, and each later block one GEMM with the map's
64th power, formed once per run by six squarings.  Observation reads each
block whole.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import (
    DimensionError,
    DomainError,
    NonUniqueSteadyState,
    NumericalError,
    StepSizeError,
)
from .linalg import HermitianBasis, SpaceLayout, vectorize

__all__ = [
    "Liouvillian",
    "SteadyStateResult",
    "Trajectory",
    "build_liouvillian",
    "evolve_fixed_step",
    "evolve_propagator",
    "fidelity",
    "iterate",
    "purity",
    "rk4_map",
    "stationarity_residual",
    "steady_state",
]

# Stability guard for the fixed-step integrator: dt * ||L||_1 <= this.
_STEP_GUARD = 0.1
_NULL_TOL_REL = 1e-10
_FIDELITY_IMAG_TOL = 1e-12
_CLIP_WEIGHT_TOL = 1e-8
# Liouvillian.halves splits L by its symmetry only if no entry between the
# even and odd blocks exceeds this times ||L||_1.
_MIRROR_REL = 1e-12
# A run goes in the mirror-even half only if the odd part of its initial
# coordinates is at most this times their norm.
_ODD_REL = 1e-14
# Samples per block of iterate and of observation (a power of two): few
# enough to stay small beside a run, enough that one GEMM per block beats a
# product per sample.
_OBSERVE_BLOCK = 64
# Blocks that iterate makes by products (at least 2, so v_0 enters no GEMM).
# step^64 costs six squarings, about 160 products at 144x144, so a run of up
# to 256 samples (the default fig3 and t2-inset among them) does not form it.
_CHAIN_BLOCKS = 4


@dataclass(frozen=True, eq=False)
class Liouvillian:
    """Dense superoperator matrix (d^2 x d^2, units 1/us) plus bookkeeping;
    ``symmetry`` is None or a d x d signed permutation U = U^-1 to split by.

    ``norm_bound``, ``real`` and ``halves`` are made on their first call and
    stored on the instance, so a Liouvillian compares and hashes by
    identity, not by its arrays."""

    matrix: np.ndarray
    dim: int
    layout: SpaceLayout
    symmetry: np.ndarray | None = None

    def _once(self, name, make):
        # The stored value of ``name``, made by make() on the first call.
        if name not in self.__dict__:
            object.__setattr__(self, name, make())
        return self.__dict__[name]

    def norm_bound(self):
        """Max column sum of |L|, an upper bound on the spectral radius."""
        return self._once("_norm_bound",
                          lambda: float(np.abs(self.matrix).sum(axis=0).max()))

    def real(self):
        """L in the real Hermitian basis, ``HermitianBasis(dim).real(matrix)``:
        a real matrix with the eigenvalues of L, made on the first call and
        shared by every later one, so it is read-only.  Raises
        NumericalError if L does not preserve Hermiticity."""
        def make():
            real = HermitianBasis(self.dim).real(self.matrix)
            real.flags.writeable = False
            return real
        return self._once("_real", make)

    def halves(self):
        """(split, blocks): the :class:`MirrorSplit` of ``symmetry`` and the
        (2, n/2, n/2) stack of ``real()``'s blocks on its even and odd states
        (U rho U^dag = +rho or -rho; the dark state is even), or None without
        a symmetry or when L does not split (:meth:`MirrorSplit.blocks`
        against ||L||_1).  Made once and shared, read-only, like ``real()``."""
        def make():
            split = None if self.symmetry is None else MirrorSplit(self.symmetry, self.dim)
            blocks = split and split.blocks(self.real(), self.norm_bound())
            if blocks is None:
                return None
            blocks.flags.writeable = False
            return split, blocks
        return self._once("_halves", make)


@dataclass(frozen=True)
class Trajectory:
    """Sampled observables along an evolution.

    ``times`` is strictly increasing (us for continuous runs; pulsed runs
    also fill ``cycles`` with the cycle count per sample).  ``fidelity`` is
    None when no target state was supplied.  ``trace_deviation`` records
    |Tr rho - 1| per sample; the integrator never renormalizes.
    ``expectations`` maps each name of :meth:`from_coords`' Hermitian
    ``observables`` to Tr(A rho) per sample.  ``final_state`` is the last
    sampled density matrix; ``states`` holds them all only when requested.
    ``mirror_half`` tells whether the run was carried in the mirror-even
    half (:class:`MirrorSplit`).
    """

    times: np.ndarray
    fidelity: np.ndarray | None
    purity: np.ndarray
    populations: np.ndarray
    trace_deviation: np.ndarray
    states: tuple | None = None
    cycles: np.ndarray | None = None
    final_state: np.ndarray | None = None
    expectations: dict = field(default_factory=dict)
    mirror_half: bool = False

    @classmethod
    def from_coords(cls, blocks, times, basis, target=None, observables=None,
                    keep_states=False, cycles=None, split=None):
        """Observe the states whose real coordinates in ``basis`` (a
        linalg.HermitianBasis) are the rows of ``blocks``, 2-D arrays as
        :func:`iterate` yields them, one block at a time: fidelity with
        ``target`` (if given), purity, populations, |Tr rho - 1| and Tr(A
        rho) for each named operator A of ``observables`` per sample;
        ``times(k)`` is the time of sample k.  The basis is orthonormal, so
        populations are x[:d], purity is ||x||^2, and fidelity and each
        Tr(A rho) are dot products with the coordinates of |target><target|
        and of A (a non-Hermitian A raises DomainError), one GEMM per block.
        Only the final state becomes a density matrix, unless
        ``keep_states``.

        With a :class:`MirrorSplit` ``split`` the rows are coordinates y in
        its mirror-even half.  Q is orthonormal too, so purity is ||y||^2,
        and the dot products take the even parts of the coordinates of the
        target and of each A, made once per call.  Each population is one
        entry of y, weighted 1/sqrt2 for a mirror-paired level and 1 for a
        level the mirror fixes, and each kept state is made from Q y."""
        observables = observables or {}
        proj = [] if target is None else [np.outer(target, np.conj(target))]
        rows = np.reshape([basis.coords(a) for a in [*observables.values(), *proj]],
                          (-1, basis.dim ** 2))
        if split is not None:
            rows = split.part(rows)

        def whole(y, stop=None):  # the whole coordinates (the first ``stop``) of rows y
            return y[..., :stop] if split is None else split.lift(y, stop=stop)

        kept, dots, purs, pops = [], [], [], []
        for block in blocks:
            dots.append(block @ rows.T)
            purs.append(np.einsum("ij,ij->i", block, block))
            # A copy, so that no kept row holds on to the block.
            pops.append(whole(block, basis.dim).copy())
            if keep_states:
                kept.extend(basis.states(whole(block).T))
        dots = np.concatenate(dots).T.copy()
        pops = np.concatenate(pops)
        return cls(
            times=np.fromiter(map(times, range(len(pops))), float, len(pops)),
            fidelity=None if target is None else dots[-1],
            purity=np.concatenate(purs),
            populations=pops,
            trace_deviation=np.abs(pops.sum(axis=1) - 1.0),
            states=tuple(kept) if keep_states else None,
            cycles=cycles,
            final_state=basis.states(whole(block[-1])),
            expectations=dict(zip(observables, dots)),
            mirror_half=split is not None,
        )


@dataclass(frozen=True)
class SteadyStateResult:
    """Steady state plus its uniqueness certificate.

    ``null_dimension`` counts Liouvillian eigenvalues with |lambda| <= tol,
    the null tolerance (1 on success), and ``spectral_gap`` is the smallest
    decay rate min(-Re lambda), in 1/us, among the eigenvalues with
    Re lambda < -tol (inf when there are none).  Purely imaginary
    eigenvalues of a degenerate stationary space are not decay rates and
    do not enter it.
    """

    rho: np.ndarray
    null_dimension: int
    spectral_gap: float


def build_liouvillian(h, cs, layout=None, symmetry=None):
    """Assemble the master-equation generator from H and collapse operators.

    Without a ``layout`` the space is treated as one flat factor;
    ``symmetry`` is kept as ``Liouvillian.symmetry``.  L is
    written into one d^2 x d^2 array viewed as (d, d, d, d) with entry
    [a, b, a', b'] = L[a*d + b, a'*d + b']: the sum of conj(C_k) kron C_k
    is one product of the (K, d^2) stack of the C_k with its conjugate,
    transposed into place, and -i (I kron H_eff) and +i (conj(H_eff) kron
    I) are added on the two diagonal views a = a' and b = b'.
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise DimensionError(f"hamiltonian must be square, got shape {h.shape}")
    d = h.shape[0]
    cs = [np.asarray(c, dtype=complex) for c in cs]
    for c in cs:
        if c.shape != (d, d):
            raise DimensionError(
                f"collapse operator shape {c.shape} does not match hamiltonian {h.shape}"
            )
    if layout is None:
        layout = SpaceLayout((d,))
    if layout.dim != d:
        raise DimensionError(f"layout product {layout.dim} does not match dimension {d}")
    h_eff = h.astype(complex)
    for c in cs:
        h_eff = h_eff - 0.5j * (c.conj().T @ c)
    stack = np.array(cs, dtype=complex).reshape(len(cs), d * d)
    mat = np.empty((d * d, d * d), dtype=complex)
    view = mat.reshape(d, d, d, d)
    view[...] = (stack.conj().T @ stack).reshape(d, d, d, d).transpose(0, 2, 1, 3)
    np.einsum("jijk->jik", view)[...] += -1j * h_eff  # [a, b, b'] at a = a'
    np.einsum("jili->jli", view)[...] += (1j * h_eff.conj())[:, :, None]  # [a, a', b] at b = b'
    return Liouvillian(matrix=mat, dim=d, layout=layout, symmetry=symmetry)


def _check_state(rho, d, what="rho0"):
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (d, d):
        raise DimensionError(f"{what} shape {rho.shape} does not match dimension {d}")
    return rho


def fidelity(rho, psi):
    """<psi| rho |psi> as a real number.

    The imaginary residue must stay below 1e-12 (it does for any Hermitian
    rho); larger residues raise NumericalError instead of being discarded.
    """
    rho = np.asarray(rho, dtype=complex)
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1] or rho.shape[0] != psi.size:
        raise DimensionError(
            f"state shape {rho.shape} incompatible with vector length {psi.size}"
        )
    val = complex(psi.conj() @ (rho @ psi))
    if abs(val.imag) > _FIDELITY_IMAG_TOL:
        raise NumericalError(f"fidelity imaginary residue {val.imag:.3e} exceeds 1e-12")
    return float(val.real)


def purity(rho):
    """Tr(rho^2)."""
    rho = linalg._as_square(rho, "state")
    return float(np.trace(rho @ rho).real)


def stationarity_residual(liouv, rho):
    """||L vec(rho)||_2, the operational distance from stationarity (1/us)."""
    return float(np.linalg.norm(liouv.matrix @ vectorize(rho)))


def _check_step(liouv, dt):
    bound = liouv.norm_bound()
    if dt * bound > _STEP_GUARD * (1.0 + 1e-12):
        suggested = _STEP_GUARD / bound
        raise StepSizeError(
            f"dt = {dt:.3e} us violates dt*||L|| <= {_STEP_GUARD}; "
            f"use dt <= {suggested:.3e} us",
            suggested_dt=suggested,
        )


def _rk4_power(gen, h, steps):
    # T4(h*gen), the degree-4 Taylor polynomial (one RK4 step of a linear
    # system), raised to ``steps`` by repeated squaring, all on the increment
    # E = T4 - I: adding I at each product would round E against 1, and the
    # power would multiply that error by ``steps``.
    a = h * gen
    inc = a / 4  # Horner's rule without I: E_k = (a + a @ E_(k+1)) / k
    for k in (3, 2, 1):
        inc = (a @ inc + a) / k
    out = None  # (I + A)(I + B) = I + A + B + AB
    while steps:
        if steps & 1 and out is None:
            out = inc.copy()
        elif steps & 1:
            prod = out @ inc
            out += inc
            out += prod
        steps >>= 1
        if steps:
            prod = inc @ inc
            inc *= 2
            inc += prod
    out = np.zeros_like(a) if out is None else out
    out.flat[::len(out) + 1] += 1.0
    return out


def rk4_map(liouv, dt, steps):
    """Map of ``steps`` classical RK4 steps of size dt, a real matrix on
    coordinates in ``HermitianBasis(liouv.dim)``.  It is built as I + E,
    with the increment E over I kept apart through every product, so the
    map keeps the trace to rounding of E, not of I, for any dt and steps.

    dt must satisfy dt * ||L||_1 <= 0.1, with ||L||_1 the column-stacked
    ``liouv.norm_bound()``, or StepSizeError is raised with a suggested step.
    """
    dt = float(dt)
    _check_step(liouv, dt)
    return _rk4_power(liouv.real(), dt, int(steps))


def iterate(v, step, count=None, first=None, last=None, until=None):
    """Yield v_0 = v, v_1 = ``first @ v_0`` (``step @ v_0`` without
    ``first``), v_k = ``step @ v_(k-1)`` up to v_count (made by ``last``
    from v_(count-1) when it is given) as the rows of blocks of
    ``_OBSERVE_BLOCK`` = B rows (the last may be shorter), each a new 2-D
    array.  The first ``_CHAIN_BLOCKS`` blocks are a chain of one product
    per vector.  Past them, step^B is formed once by repeated squaring and
    each block is one GEMM with it on the block before: v_(k+B) = step^B
    v_k.  With ``count=None`` it runs until ``until(k, v_k)``, called in
    order of k before v_k's block is yielded, returns the total count (None
    goes on); a count inside a block truncates it, so the run is bitwise
    the run of that count.  If ``until`` raises, the vectors before v_k are
    yielded first."""
    width = _OBSERVE_BLOCK
    dtype = np.result_type(v, step)
    # fixed: the last k that ``last`` may not make (v_1 if ``first`` made it,
    # or a vector ``until`` has seen).
    prev, power, fixed = None, None, int(first is not None)
    for start in itertools.count(0, width):
        if last is not None and 0 < start == count:
            yield (last @ prev[-1])[None]  # v_count alone: no step product
            return
        if start < _CHAIN_BLOCKS * width:
            block = np.empty((width if count is None else min(width, count + 1 - start), len(v)),
                             dtype)
            for k, row in enumerate(block, start):
                if k == 0:
                    row[:] = v
                else:
                    np.matmul(first if k == 1 and first is not None else step, v, out=row)
                v = row  # v_k, which makes the next row
        else:
            if power is None:
                power = step
                for _ in range(width.bit_length() - 1):  # B is a power of two
                    power = power @ power
            block = prev @ power.T
        stop = start + len(block)
        k = max(start, 1)
        while count is None and k < stop:
            try:
                count = until(k, block[k - start])
            except Exception:
                yield block[:k - start]
                raise
            fixed, k = k, k + 1
        if count is not None and count < stop:
            block = block[:count + 1 - start]
            if last is not None and count > fixed:
                block[-1] = last @ (block[-2] if len(block) > 1 else prev[-1])
            yield block
            return
        yield block
        prev = block


def evolve_fixed_step(rho0, liouv, t_end, dt, sample_every=1, target=None,
                      store_states=False, observables=None):
    """Integrate vec(rho) with fixed-step classical RK4.

    Samples are taken at t = 0, every ``sample_every`` steps, and at t_end.
    The requested dt must satisfy dt * ||L||_1 <= 0.1 (``liouv.norm_bound()``)
    or StepSizeError is raised with a suggested step.  The step actually
    used is t_end/n for the smallest n with t_end/n <= dt, so the final
    sample lands exactly on t_end (a dt so small that t_end / dt overflows
    raises DomainError); steps act on real coordinates
    (``Liouvillian.real``), or on the even half of ``Liouvillian.halves``
    when rho0 is even (:func:`_even_half`), since then rho(t) stays even.
    ``expectations`` holds Tr(A rho) per sample for each named Hermitian A
    of ``observables``; ``final_state`` is the state at t_end.
    """
    rho0 = _check_state(rho0, liouv.dim)
    t_end = float(t_end)
    dt = float(dt)
    if t_end <= 0:
        raise DomainError(f"t_end must be > 0, got {t_end}")
    if dt <= 0:
        raise DomainError(f"dt must be > 0, got {dt}")
    if not math.isfinite(t_end / dt):
        raise DomainError(f"dt = {dt} is too small: t_end / dt overflows")
    _check_step(liouv, dt)
    n_steps = max(1, int(math.ceil(t_end / dt - 1e-12)))
    h = t_end / n_steps
    sample_every = min(max(1, int(sample_every)), n_steps)
    full, rest = divmod(n_steps, sample_every)
    basis = HermitianBasis(liouv.dim)
    gen, x0, split = _even_half(liouv, basis.coords(rho0))
    blocks = iterate(x0, _rk4_power(gen, h, sample_every), full + bool(rest),
                     last=_rk4_power(gen, h, rest) if rest else None)
    return Trajectory.from_coords(blocks, lambda k: min(k * sample_every, n_steps) * h,
                                  basis, target, observables, keep_states=store_states,
                                  split=split)


def evolve_propagator(rho0, liouv, t):
    """Exact-in-time propagation via the matrix exponential of t*L, in the
    even half of ``Liouvillian.halves`` when rho0 is even."""
    rho0 = _check_state(rho0, liouv.dim)
    t = float(t)
    if t < 0:
        raise DomainError(f"propagation time must be >= 0, got {t}")
    if t == 0.0:
        return rho0.astype(complex)
    basis = HermitianBasis(liouv.dim)
    gen, x0, split = _even_half(liouv, basis.coords(rho0))
    x = linalg.expm(gen, t) @ x0
    return basis.states(x if split is None else split.lift(x))


class MirrorSplit:
    """The mirror-adapted basis Q of a symmetry on the coordinates of
    ``HermitianBasis(dim)``.

    ``symmetry`` is a d x d signed permutation matrix U with U^2 = I, such
    as ``model.mirror``; rho -> U rho U^dag is then the signed permutation
    P of the coordinates e_i -> sigma_i e_pi(i) of
    ``HermitianBasis.permutation`` (one that is not its own inverse raises
    DomainError).  Q's columns are (e_i +- sigma_i e_pi(i))/sqrt2 for each
    pair i < pi(i), and e_i for each fixed i = pi(i): the ``even`` ones
    (P q = q) first, then the odd ones.  Column c is w1[c] e_i1[c] + w2[c]
    e_i2[c] (w1 = w2 = 1/2 and i1 = i2 at a fixed index), so every change
    of basis is a few index operations and Q is never formed.
    """

    def __init__(self, symmetry, dim):
        pi, sigma = HermitianBasis(dim).permutation(symmetry)
        idx = np.arange(len(pi))
        if np.any(pi[pi] != idx) or np.any(sigma[pi] != sigma):
            raise DomainError("the symmetry is not a signed permutation that is its own inverse")
        pair, fixed = idx[idx < pi], idx[idx == pi]
        even, odd = fixed[sigma[fixed] > 0], fixed[sigma[fixed] < 0]
        i1 = np.concatenate([pair, even, pair, odd])
        i2 = np.concatenate([pi[pair], even, pi[pair], odd])
        w1 = np.where(i1 == i2, 0.5, math.sqrt(0.5))
        w2 = w1 * np.concatenate([sigma[pair], np.ones(len(even)), -sigma[pair],
                                  np.ones(len(odd))])
        self.n, self.even = len(pi), len(pair) + len(even)
        self._cols = i1, i2, w1, w2
        # Per half, the whole coordinates of its columns' nonzeros, the
        # column of each and its weight: a fixed index carries one weight 1.
        self._lifts = []
        for half in (slice(None, self.even), slice(self.even, None)):
            a, b, wa, wb = (x[half] for x in self._cols)
            c, paired = np.arange(len(a)), a != b
            self._lifts.append((np.concatenate([a, b[paired]]),
                                np.concatenate([c, c[paired]]),
                                np.concatenate([np.where(paired, wa, 1.0), wb[paired]])))

    def blocks(self, mat, bound=None):
        """The even and odd diagonal blocks of Q^T mat Q for a real n x n
        ``mat``, as one (2, n/2, n/2) stack, or None when an entry between
        them exceeds 1e-12 * ``bound`` (mat does not commute with the
        mirror; ``bound`` defaults to mat's largest column sum) or the
        blocks differ in size."""
        i1, i2, w1, w2 = self._cols
        even = self.even
        if 2 * even != len(mat):
            return None
        if bound is None:
            bound = linalg._norm1(mat)
        w1, w2 = w1[:, None], w2[:, None]
        # Q^T mat, then Q^T (Q^T mat)^T = (Q^T mat Q)^T: gathers of rows,
        # which are much faster than those of columns.  Indices are in
        # range: mode="clip" writes into the buffers unbuffered.
        rows, tmp = mat[i1], mat[i2]
        rows *= w1
        tmp *= w2
        rows += tmp
        half = rows.T.copy()
        np.take(half, i1, axis=0, out=rows, mode="clip")
        rows *= w1
        np.take(half, i2, axis=0, out=tmp, mode="clip")
        tmp *= w2
        rows += tmp
        off = max(np.abs(rows[:even, even:]).max(), np.abs(rows[even:, :even]).max())
        if off > _MIRROR_REL * bound:
            return None
        return np.stack([rows[:even, :even].T, rows[even:, even:].T])

    def part(self, x, odd=False):
        """Q^T x in the even half, or the odd one: the coordinates of x
        (last axis) on that half's columns."""
        half = slice(self.even, None) if odd else slice(None, self.even)
        i1, i2, w1, w2 = (a[half] for a in self._cols)
        return x[..., i1] * w1 + x[..., i2] * w2

    def even_start(self, x):
        """The even part of initial coordinates x, or None when their odd
        part exceeds 1e-14 ||x||."""
        if np.linalg.norm(self.part(x, odd=True)) > _ODD_REL * np.linalg.norm(x):
            return None
        return self.part(x)

    def lift(self, y, odd=False, stop=None):
        """Q y for coordinates y (last axis) in the even half, or the odd
        one: the whole coordinates (the first ``stop`` of them), each one
        entry of y times its weight (0 + w y, so no zero turns to -0)."""
        idx, col, w = self._lifts[odd]
        if stop is not None:
            keep = idx < stop
            idx, col, w = idx[keep], col[keep], w[keep]
        out = np.zeros((*y.shape[:-1], self.n if stop is None else stop), dtype=y.dtype)
        out[..., idx] += y[..., col] * w
        return out


def _even_half(liouv, x0):
    """(gen, x0, split): the even block of ``liouv.halves()`` and the
    initial coordinates x0 in its half, with its :class:`MirrorSplit` as
    ``split``; or the real generator and x0 as they are, with split None,
    when L has no halves or x0's odd part exceeds 1e-14 ||x0||."""
    split, blocks = liouv.halves() or (None, None)
    y0 = None if split is None else split.even_start(x0)
    if y0 is None:
        return liouv.real(), x0, None
    return blocks[0], y0, split


def steady_state(liouv):
    """Solve L vec(rho) = 0 and certify uniqueness.

    L is first written in the orthonormal basis of Hermitian matrices
    (``Liouvillian.real``), where a Lindblad generator is a real
    matrix with the same eigenvalues; an imaginary part above
    1e-10 * ||L||_1 there means L does not preserve Hermiticity and raises
    NumericalError.  Null vectors are eigenvectors of that real matrix with
    |lambda| <= tol = 1e-10 * ||L||_1, mapped back to vec(rho), and the gap
    is taken over the eigenvalues with Re lambda < -tol, so the two sets
    stay apart even for L = 0 (tol = 0, every eigenvalue null).  A
    unique null vector is normalized to trace one, Hermitized, and negative
    eigenvalues are clipped to zero; the clipped weight must stay below
    1e-8 or NumericalError is raised.  Zero null vectors raise
    NumericalError, several raise NonUniqueSteadyState with the full
    stationary basis attached: Hermitian matrices, from a real orthonormal
    basis of the null vectors' span.

    With ``Liouvillian.halves`` only the half-size blocks are decomposed,
    and eigenvectors only of a block that has a null eigenvalue: one
    ``eig_full`` call on the even block, where a unique steady state lies,
    and ``linalg.eigenvalues`` on the odd one, which is decomposed with
    vectors too only when one of its eigenvalues is null.  The null count
    and the gap come from both blocks, and each null vector is mapped back
    from its own block, the even block's first.  Without halves (for the
    mirror, gamma_plus != gamma_minus or e_minus != -e_plus) L is
    decomposed whole.
    """
    tol = _NULL_TOL_REL * liouv.norm_bound()
    halves = liouv.halves()
    if halves is None:
        vals, vecs = linalg.eig_full(liouv.real())
        coords = vecs[:, np.abs(vals) <= tol]
    else:  # back from the mirror-adapted basis: Q y, y in its own block
        split, blocks = halves
        parts = [linalg.eig_full(blocks[0]), (linalg.eigenvalues(blocks[1]), None)]
        if np.any(np.abs(parts[1][0]) <= tol):  # only then are odd vectors read
            parts[1] = linalg.eig_full(blocks[1])
        vals = np.concatenate([part[0] for part in parts])
        coords = np.vstack([split.lift(v[:, np.abs(w) <= tol].T, odd)
                            for odd, (w, v) in enumerate(parts) if v is not None]).T
    n_null = coords.shape[1]
    decaying = vals.real[vals.real < -tol]
    gap = float((-decaying).min()) if decaying.size else math.inf
    if n_null == 0:
        raise NumericalError(
            f"no eigenvalue within the null tolerance {tol:.3e}; "
            f"smallest |lambda| = {np.abs(vals).min():.3e}"
        )
    if n_null > 1:
        # Null eigenvalues may come as conjugate pairs with complex vectors;
        # their span has a real orthonormal basis, of Hermitian matrices.
        left = np.linalg.svd(np.hstack([coords.real, coords.imag]), full_matrices=False)[0]
        coords = left[:, :n_null]
    null = HermitianBasis(liouv.dim).states(coords)
    if n_null > 1:
        raise NonUniqueSteadyState(
            f"stationary space has dimension {n_null} (tolerance {tol:.3e})",
            stationary_basis=tuple(null),
            null_dimension=n_null,
            spectral_gap=gap,
        )
    rho = null[0]
    tr = complex(np.trace(rho))
    if abs(tr) < 1e-12:
        raise NumericalError("stationary eigenvector has (near) zero trace")
    rho = rho / tr
    rho = 0.5 * (rho + rho.conj().T)
    w, u = np.linalg.eigh(rho)
    clipped = float(-w[w < 0].sum()) if np.any(w < 0) else 0.0
    if clipped > _CLIP_WEIGHT_TOL:
        raise NumericalError(
            f"steady-state clipping would remove weight {clipped:.3e} > 1e-8"
        )
    w = np.clip(w, 0.0, None)
    rho = (u * w) @ u.conj().T
    rho = rho / np.trace(rho).real
    return SteadyStateResult(rho=rho, null_dimension=1, spectral_gap=gap)
