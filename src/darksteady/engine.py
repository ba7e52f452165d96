"""Liouvillian construction, time integration and steady-state solving.

The Liouvillian acts on column-stacked density matrices:

    d/dt vec(rho) = L vec(rho),
    L = -i (I kron H_eff) + i (conj(H_eff) kron I) + sum_k conj(C_k) kron C_k,
    H_eff = H - (i/2) sum_k C_k^dag C_k.

``unvectorize(L vec(rho))`` then equals -i(H_eff rho - rho H_eff^dag)
+ sum_k C_k rho C_k^dag, i.e. the usual master-equation right-hand side.

The fixed-step integrator is classical 4th-order Runge-Kutta.  For a linear
autonomous system the four stages collapse to one matrix: the degree-4
Taylor polynomial of h*L.  Because L does not depend on time, that step is
raised by repeated squaring to the sample interval (``sample_every`` steps)
and each sample costs one product with the resulting map; a remainder map
covers a last partial interval.  This is algebraically identical to
stepping the stage form, and a run costs O(log sample_every) matrix
products plus one product per sample instead of one per step.
"""

from __future__ import annotations

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
from .linalg import SpaceLayout, unvectorize, vectorize

__all__ = [
    "Liouvillian",
    "SteadyStateResult",
    "Trajectory",
    "build_liouvillian",
    "evolve_fixed_step",
    "evolve_propagator",
    "fidelity",
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


@dataclass(frozen=True)
class Liouvillian:
    """Dense superoperator matrix (d^2 x d^2, units 1/us) plus bookkeeping."""

    matrix: np.ndarray
    dim: int
    layout: SpaceLayout

    def norm_bound(self):
        """Max column sum of |L|, an upper bound on the spectral radius."""
        return float(np.abs(self.matrix).sum(axis=0).max())


@dataclass(frozen=True)
class Trajectory:
    """Sampled observables along an evolution.

    ``times`` is strictly increasing (us for continuous runs; pulsed runs
    also fill ``cycles`` with the cycle count per sample).  ``fidelity`` is
    None when no target state was supplied.  ``trace_deviation`` records
    |Tr rho - 1| per sample; the integrator never renormalizes.
    ``expectations`` maps each name of :meth:`from_states`' ``observables``
    to Tr(A rho) per sample.  ``final_state`` is the last sampled density
    matrix; ``states`` holds them all only when requested.
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

    @classmethod
    def from_states(cls, samples, target=None, observables=None, keep_states=False, cycles=None):
        """Observe a stream of (time, rho) pairs in one pass: fidelity with
        ``target`` (if given), purity, populations, |Tr rho - 1| and
        Tr(A rho) for each named operator A of ``observables`` per sample.
        Only the last state is kept, unless ``keep_states``."""
        times, kept, fids, purs, pops, tdevs = [], [], [], [], [], []
        expect = {name: [] for name in observables or {}}
        rho = None
        for t, rho in samples:
            times.append(t)
            if target is not None:
                fids.append(fidelity(rho, target))
            purs.append(purity(rho))
            pops.append(np.diag(rho).real.copy())
            tdevs.append(abs(complex(np.trace(rho)) - 1.0))
            for name, values in expect.items():
                values.append(float(np.trace(observables[name] @ rho).real))
            if keep_states:
                kept.append(rho)
        return cls(
            times=np.asarray(times, dtype=float),
            fidelity=None if target is None else np.asarray(fids, dtype=float),
            purity=np.asarray(purs, dtype=float),
            populations=np.asarray(pops, dtype=float),
            trace_deviation=np.asarray(tdevs, dtype=float),
            states=tuple(kept) if keep_states else None,
            cycles=cycles,
            final_state=rho,
            expectations={name: np.asarray(v, dtype=float) for name, v in expect.items()},
        )


@dataclass(frozen=True)
class SteadyStateResult:
    """Steady state plus its uniqueness certificate.

    ``null_dimension`` counts Liouvillian eigenvalues inside the null
    tolerance (1 on success) and ``spectral_gap`` is the smallest decay rate
    min(-Re lambda), in 1/us, among the eigenvalues with Re lambda <= -tol
    (the same tolerance).  Purely imaginary eigenvalues of a degenerate
    stationary space are not decay rates and do not enter it.
    """

    rho: np.ndarray
    null_dimension: int
    spectral_gap: float


def build_liouvillian(h, cs, layout=None):
    """Assemble the master-equation generator from H and collapse operators.

    Without a ``layout`` the space is treated as one flat factor.
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
    eye = np.eye(d, dtype=complex)
    mat = -1j * np.kron(eye, h_eff) + 1j * np.kron(h_eff.conj(), eye)
    for c in cs:
        mat = mat + np.kron(c.conj(), c)
    return Liouvillian(matrix=mat, dim=d, layout=layout)


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
    rho = np.asarray(rho, dtype=complex)
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


def _rk4_power(liouv, h, steps):
    # Degree-4 Taylor polynomial of h*L == one RK4 step for a linear system,
    # raised to ``steps`` by repeated squaring.
    a = h * liouv.matrix
    eye = np.eye(a.shape[0], dtype=complex)
    step = eye.copy()
    for k in (4, 3, 2, 1):
        step = eye + (a @ step) / k
    return np.linalg.matrix_power(step, steps)


def rk4_map(liouv, dt, steps):
    """Superoperator of ``steps`` classical RK4 steps of size dt.

    dt must satisfy dt * ||L||_1 <= 0.1 or StepSizeError is raised with a
    suggested step.
    """
    dt = float(dt)
    _check_step(liouv, dt)
    return _rk4_power(liouv, dt, int(steps))


def evolve_fixed_step(rho0, liouv, t_end, dt, sample_every=1, target=None,
                      store_states=False, observables=None):
    """Integrate vec(rho) with fixed-step classical RK4.

    Samples are taken at t = 0, every ``sample_every`` steps, and at t_end.
    The requested dt must satisfy dt * ||L||_1 <= 0.1 or StepSizeError is
    raised with a suggested step.  The step actually used is t_end/n for the
    smallest n with t_end/n <= dt, so the final sample lands exactly on
    t_end.  ``expectations`` holds Tr(A rho) per sample for each named A of
    ``observables``; ``final_state`` is the state at t_end.
    """
    rho0 = _check_state(rho0, liouv.dim)
    t_end = float(t_end)
    dt = float(dt)
    if t_end <= 0:
        raise DomainError(f"t_end must be > 0, got {t_end}")
    if dt <= 0:
        raise DomainError(f"dt must be > 0, got {dt}")
    _check_step(liouv, dt)
    n_steps = max(1, int(math.ceil(t_end / dt - 1e-12)))
    h = t_end / n_steps
    sample_every = min(max(1, int(sample_every)), n_steps)
    full, rest = divmod(n_steps, sample_every)
    maps = [_rk4_power(liouv, h, sample_every)] * full
    if rest:
        maps.append(_rk4_power(liouv, h, rest))

    def samples():
        v = vectorize(rho0)
        yield 0.0, unvectorize(v, liouv.dim)
        for k, sample_map in enumerate(maps, 1):
            v = sample_map @ v
            yield min(k * sample_every, n_steps) * h, unvectorize(v, liouv.dim)

    return Trajectory.from_states(samples(), target, observables, keep_states=store_states)


def evolve_propagator(rho0, liouv, t):
    """Exact-in-time propagation via the matrix exponential of t*L."""
    rho0 = _check_state(rho0, liouv.dim)
    t = float(t)
    if t < 0:
        raise DomainError(f"propagation time must be >= 0, got {t}")
    if t == 0.0:
        return rho0.astype(complex)
    prop = linalg.expm(liouv.matrix, t)
    return unvectorize(prop @ vectorize(rho0), liouv.dim)


def steady_state(liouv, tol=None):
    """Solve L vec(rho) = 0 and certify uniqueness.

    Null vectors are eigenvectors with |lambda| < tol (default
    1e-10 * ||L||_1).  A unique null vector is normalized to trace one,
    Hermitized, and negative eigenvalues are clipped to zero; the clipped
    weight must stay below 1e-8 or NumericalError is raised.  Zero null
    vectors raise NumericalError, several raise NonUniqueSteadyState with
    the full stationary basis attached.
    """
    mat = liouv.matrix
    if tol is None:
        tol = _NULL_TOL_REL * liouv.norm_bound()
    vals, vecs = linalg.eig_full(mat)
    null_mask = np.abs(vals) < tol
    n_null = int(null_mask.sum())
    decaying = vals.real[vals.real <= -tol]
    gap = float((-decaying).min()) if decaying.size else math.inf
    if n_null == 0:
        raise NumericalError(
            f"no eigenvalue below the null tolerance {tol:.3e}; "
            f"smallest |lambda| = {np.abs(vals).min():.3e}"
        )
    if n_null > 1:
        basis = tuple(
            unvectorize(vecs[:, i], liouv.dim) for i in np.nonzero(null_mask)[0]
        )
        raise NonUniqueSteadyState(
            f"stationary space has dimension {n_null} (tolerance {tol:.3e})",
            stationary_basis=basis,
            null_dimension=n_null,
            spectral_gap=gap,
        )
    rho = unvectorize(vecs[:, int(np.nonzero(null_mask)[0][0])], liouv.dim)
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
