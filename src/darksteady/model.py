"""Level structure, spin and optical operators, Hamiltonian, collapse
operators and target entangled states.

Basis ordering is fixed and every golden number in the test suite depends on
it: the electron factor varies slowest with levels ordered (+1, -1, 0, A1);
a spin-1 nucleus orders its levels (+1, -1, 0); spin-1/2 nuclei order (0, 1).

Unit convention: all constructor inputs are plain frequencies or rates in
MHz and times are in microseconds.  Operators are assembled in angular units,
omega = 2*pi*f rad/us and Gamma = 2*pi*gamma 1/us.  The optical term uses the
sign convention e_plus = +E, e_minus = -E (the default parameters follow it),
which makes the symmetric electron superposition |D> = (|+1> + |-1>)/sqrt(2)
optically dark and couples only |B> = (|+1> - |-1>)/sqrt(2) to |A1>.

The electron dephasing channel for a finite T2* is Markovian,
sqrt(Gamma_phi/2) * S_z with Gamma_phi = 1/T2* (T2* in us, no 2*pi here).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .linalg import SpaceLayout, dagger, kron

__all__ = [
    "ELECTRON_LEVELS",
    "NUCLEAR_HALF_LEVELS",
    "NUCLEAR_SPIN1_LEVELS",
    "SystemParams",
    "TargetStates",
    "VARIANTS",
    "VARIANT_SINGLE",
    "VARIANT_TWO",
    "apply_asymmetry",
    "basis_labels",
    "build_collapse_ops",
    "build_hamiltonian",
    "build_operators",
    "decay_ops",
    "default_target",
    "dephasing_op",
    "dim",
    "electron_state",
    "layout",
    "mixed_ground_state",
    "nuclear_spin1_state",
    "target_states",
]

TWO_PI = 2.0 * math.pi

ELECTRON_LEVELS = ("+1", "-1", "0", "A1")
NUCLEAR_SPIN1_LEVELS = ("+1", "-1", "0")
NUCLEAR_HALF_LEVELS = ("0", "1")

VARIANT_SINGLE = "single-nucleus-spin1"
VARIANT_TWO = "two-nuclei-spin-half"
VARIANTS = (VARIANT_SINGLE, VARIANT_TWO)


def _basis(n, i):
    v = np.zeros(n, dtype=complex)
    v[i] = 1.0
    return v


_E_INDEX = {lab: i for i, lab in enumerate(ELECTRON_LEVELS)}
_N1_INDEX = {lab: i for i, lab in enumerate(NUCLEAR_SPIN1_LEVELS)}

_SQRT_HALF = 1.0 / math.sqrt(2.0)


def _level_state(label, index, what):
    # Bare levels by index; "D" and "B" are the symmetric and antisymmetric
    # superpositions of the +1 and -1 levels (indices 0 and 1 in both factors).
    n = len(index)
    if label in index:
        return _basis(n, index[label])
    if label == "D":
        return _SQRT_HALF * (_basis(n, 0) + _basis(n, 1))
    if label == "B":
        return _SQRT_HALF * (_basis(n, 0) - _basis(n, 1))
    raise ConfigError(f"unknown {what} level label {label!r}")


def electron_state(label):
    """Electron single-party state vector (dimension 4) for a level label.

    Accepts the bare levels "+1", "-1", "0", "A1" and the composite labels
    "D" (symmetric, drive-coupled, optically dark) and "B" (antisymmetric,
    optically bright).
    """
    return _level_state(label, _E_INDEX, "electron")


def nuclear_spin1_state(label):
    """Spin-1 nuclear state vector (dimension 3), including "D" and "B"."""
    return _level_state(label, _N1_INDEX, "spin-1 nuclear")


def _check_variant(variant):
    if variant not in VARIANTS:
        raise ConfigError(
            f"unknown variant {variant!r}; expected one of {', '.join(VARIANTS)}"
        )


def dim(variant):
    """Total Hilbert-space dimension for a variant (12 or 16)."""
    _check_variant(variant)
    return 12 if variant == VARIANT_SINGLE else 16


def layout(variant):
    """Tensor-factor layout: (4, 3) or (4, 2, 2), electron first."""
    _check_variant(variant)
    if variant == VARIANT_SINGLE:
        return SpaceLayout((4, 3))
    return SpaceLayout((4, 2, 2))


def _nucleus_count(variant):
    return 1 if variant == VARIANT_SINGLE else 2


def basis_labels(variant):
    """Human-readable label per basis index, e.g. "e+1:n0" or "e0:n10"."""
    _check_variant(variant)
    if variant == VARIANT_SINGLE:
        return tuple(
            f"e{e}:n{n}" for e in ELECTRON_LEVELS for n in NUCLEAR_SPIN1_LEVELS
        )
    return tuple(
        f"e{e}:n{a}{b}"
        for e in ELECTRON_LEVELS
        for a in NUCLEAR_HALF_LEVELS
        for b in NUCLEAR_HALF_LEVELS
    )


@dataclass(frozen=True)
class SystemParams:
    """Physical parameters in MHz (rates and drives) and us (T2*).

    Defaults reproduce the reference continuous-drive scenario:
    Omega_e = Omega_n = 1 MHz, g = 2.5 MHz, E = 10 MHz (as e_plus = +10,
    e_minus = -10), gamma_+- = 30 MHz, gamma_0 = 40 MHz, no dephasing.

    ``asymmetry`` holds one dimensionless drive scale factor per nucleus
    (default all 1).  ``asymmetric_hyperfine`` extends the asymmetry to the
    hyperfine couplings as well; it is off by default so that asymmetry acts
    on the drive amplitudes only.
    """

    omega_e: float = 1.0
    omega_n: float = 1.0
    g: float = 2.5
    e_plus: float = 10.0
    e_minus: float = -10.0
    gamma_plus: float = 30.0
    gamma_minus: float = 30.0
    gamma_zero: float = 40.0
    t2_star: float | None = None
    variant: str = VARIANT_SINGLE
    asymmetry: tuple = None
    asymmetric_hyperfine: bool = False

    def __post_init__(self):
        _check_variant(self.variant)
        for name in ("omega_e", "omega_n", "g"):
            val = float(getattr(self, name))
            if not math.isfinite(val) or val < 0:
                raise ConfigError(f"{name} must be a finite value >= 0, got {val}")
            object.__setattr__(self, name, val)
        for name in ("gamma_plus", "gamma_minus", "gamma_zero"):
            val = float(getattr(self, name))
            if not math.isfinite(val) or val < 0:
                raise ConfigError(f"{name} must be a finite rate >= 0, got {val}")
            object.__setattr__(self, name, val)
        # Optical amplitudes are signed: the adopted convention is
        # e_minus = -e_plus, and both stay independently settable.
        for name in ("e_plus", "e_minus"):
            val = float(getattr(self, name))
            if not math.isfinite(val):
                raise ConfigError(f"{name} must be finite, got {val}")
            object.__setattr__(self, name, val)
        if self.t2_star is not None:
            t2 = float(self.t2_star)
            if not math.isfinite(t2) or t2 <= 0:
                raise ConfigError(f"t2_star must be > 0 us, got {t2}")
            object.__setattr__(self, "t2_star", t2)
        count = _nucleus_count(self.variant)
        asym = self.asymmetry
        if asym is None:
            asym = (1.0,) * count
        else:
            try:
                asym = tuple(float(a) for a in asym)
            except (TypeError, ValueError):
                raise ConfigError(f"asymmetry must be a sequence of numbers, got {self.asymmetry!r}")
        if len(asym) != count:
            raise ConfigError(
                f"asymmetry needs {count} factor(s) for variant {self.variant}, got {len(asym)}"
            )
        if any(not math.isfinite(a) or a < 0 for a in asym):
            raise ConfigError(f"asymmetry factors must be finite and >= 0, got {asym}")
        object.__setattr__(self, "asymmetry", asym)
        object.__setattr__(self, "asymmetric_hyperfine", bool(self.asymmetric_hyperfine))

    @property
    def nucleus_count(self):
        return _nucleus_count(self.variant)

    @property
    def dim(self):
        return dim(self.variant)

    @property
    def layout(self):
        return layout(self.variant)


@dataclass(frozen=True)
class TargetStates:
    """Reference state vectors for a variant.

    ``psi_dark`` is the electron-nucleus singlet-like dark state of the
    single-nucleus variant; ``psi_dark_two`` and ``singlet_two`` belong to
    the two-nuclei variant (fields not applicable to a variant are None).
    ``dark_e``/``bright_e`` are 4-dimensional electron party vectors,
    ``dark_n``/``bright_n`` 3-dimensional spin-1 party vectors.
    """

    psi_dark: np.ndarray | None
    psi_dark_two: np.ndarray | None
    singlet_two: np.ndarray | None
    dark_e: np.ndarray
    bright_e: np.ndarray
    dark_n: np.ndarray | None
    bright_n: np.ndarray | None


def _spin1_ops(index):
    """S_x and S_z of the spin-1 levels +1, -1, 0 within a factor whose
    levels are numbered by ``index`` (any further level is left untouched)."""
    n = len(index)
    x = np.zeros((n, n), dtype=complex)
    x[index["0"], index["+1"]] = 1.0
    x[index["0"], index["-1"]] = 1.0
    x = x + dagger(x)
    z = np.zeros((n, n), dtype=complex)
    z[index["+1"], index["+1"]] = 1.0
    z[index["-1"], index["-1"]] = -1.0
    return x, z


def _half_ops():
    ix = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    # order (0, 1): I_z = |1><1| - |0><0|
    iz = np.array([[-1.0, 0.0], [0.0, 1.0]], dtype=complex)
    return ix, iz


def _nuclear_identity(variant):
    return np.eye(3, dtype=complex) if variant == VARIANT_SINGLE else np.eye(4, dtype=complex)


def _embed_electron(op4, variant):
    return kron(op4, _nuclear_identity(variant))


def _embed_nucleus(op, variant, which):
    if variant == VARIANT_SINGLE:
        return kron(np.eye(4, dtype=complex), op)
    eye2 = np.eye(2, dtype=complex)
    nuc = kron(op, eye2) if which == 0 else kron(eye2, op)
    return kron(np.eye(4, dtype=complex), nuc)


def build_operators(variant):
    """Full-dimension spin and optical operators for a variant.

    Returns a dict with Hermitian ``S_x``/``S_z``, per-nucleus tuples
    ``I_x``/``I_z``, unit-amplitude ``optical_lowering``/``optical_raising``
    maps |k><A1| / |A1><k| keyed by ground level, and electron level
    ``projectors``.
    """
    _check_variant(variant)
    sx4, sz4 = _spin1_ops(_E_INDEX)
    ops = {
        "S_x": _embed_electron(sx4, variant),
        "S_z": _embed_electron(sz4, variant),
    }
    if variant == VARIANT_SINGLE:
        ix, iz = _spin1_ops(_N1_INDEX)
        ops["I_x"] = (_embed_nucleus(ix, variant, 0),)
        ops["I_z"] = (_embed_nucleus(iz, variant, 0),)
    else:
        ix, iz = _half_ops()
        ops["I_x"] = tuple(_embed_nucleus(ix, variant, j) for j in range(2))
        ops["I_z"] = tuple(_embed_nucleus(iz, variant, j) for j in range(2))
    a1 = _E_INDEX["A1"]
    lowering = {}
    for lab in ("+1", "-1", "0"):
        m = np.zeros((4, 4), dtype=complex)
        m[_E_INDEX[lab], a1] = 1.0
        lowering[lab] = _embed_electron(m, variant)
    ops["optical_lowering"] = lowering
    ops["optical_raising"] = {lab: dagger(m) for lab, m in lowering.items()}
    projectors = {}
    for lab in ELECTRON_LEVELS:
        m = np.zeros((4, 4), dtype=complex)
        m[_E_INDEX[lab], _E_INDEX[lab]] = 1.0
        projectors[lab] = _embed_electron(m, variant)
    ops["projectors"] = projectors
    return ops


def apply_asymmetry(p):
    """Per-nucleus effective couplings in MHz after asymmetry scaling.

    Returns ``(drive_amps, hyperfine_couplings)``, one entry per nucleus.
    The scale factors always multiply the nuclear drive amplitudes; they
    touch the hyperfine couplings only when ``asymmetric_hyperfine`` is set.
    """
    drives = tuple(p.omega_n * a for a in p.asymmetry)
    if p.asymmetric_hyperfine:
        hyper = tuple(p.g * a for a in p.asymmetry)
    else:
        hyper = (p.g,) * p.nucleus_count
    return drives, hyper


def build_hamiltonian(p):
    """Hermitian Hamiltonian in angular units (rad/us).

    H = w_e S_x + sum_j w_j I_x^(j) + sum_j g_j S_z I_z^(j)
        + (e_+ |+1><A1| + e_- |-1><A1| + h.c.), every MHz input times 2*pi.
    """
    ops = build_operators(p.variant)
    drives, hyper = apply_asymmetry(p)
    h = TWO_PI * p.omega_e * ops["S_x"]
    for amp, ix in zip(drives, ops["I_x"]):
        h = h + TWO_PI * amp * ix
    sz = ops["S_z"]
    for gj, iz in zip(hyper, ops["I_z"]):
        h = h + TWO_PI * gj * (sz @ iz)
    low = ops["optical_lowering"]
    optical = p.e_plus * low["+1"] + p.e_minus * low["-1"]
    h = h + TWO_PI * (optical + dagger(optical))
    return h


def decay_ops(p):
    """Optical decay collapse operators sqrt(2*pi*gamma_k) |k><A1| x I."""
    ops = build_operators(p.variant)
    low = ops["optical_lowering"]
    rates = {"+1": p.gamma_plus, "-1": p.gamma_minus, "0": p.gamma_zero}
    return [math.sqrt(TWO_PI * rates[lab]) * low[lab] for lab in ("+1", "-1", "0")]


def dephasing_op(p):
    """Electron dephasing operator sqrt(Gamma_phi/2) S_z, or None.

    Gamma_phi = 1/t2_star in 1/us; no 2*pi factor since t2_star is a time.
    """
    if p.t2_star is None:
        return None
    gamma_phi = 1.0 / p.t2_star
    return math.sqrt(gamma_phi / 2.0) * build_operators(p.variant)["S_z"]


def build_collapse_ops(p):
    """All collapse operators: three optical decays, plus dephasing if T2* set."""
    cs = decay_ops(p)
    deph = dephasing_op(p)
    if deph is not None:
        cs.append(deph)
    return cs


def target_states(variant):
    """Normalized target state vectors for a variant."""
    _check_variant(variant)
    dark_e = electron_state("D")
    bright_e = electron_state("B")
    e0 = electron_state("0")
    if variant == VARIANT_SINGLE:
        dark_n = nuclear_spin1_state("D")
        bright_n = nuclear_spin1_state("B")
        n0 = nuclear_spin1_state("0")
        psi = _SQRT_HALF * (np.kron(dark_e, n0) - np.kron(e0, dark_n))
        return TargetStates(
            psi_dark=psi,
            psi_dark_two=None,
            singlet_two=None,
            dark_e=dark_e,
            bright_e=bright_e,
            dark_n=dark_n,
            bright_n=bright_n,
        )
    h0 = _basis(2, 0)
    h1 = _basis(2, 1)
    sym = _SQRT_HALF * (np.kron(h1, h0) + np.kron(h0, h1))
    anti = _SQRT_HALF * (np.kron(h1, h0) - np.kron(h0, h1))
    aligned = _SQRT_HALF * (np.kron(h1, h1) + np.kron(h0, h0))
    psi_two = _SQRT_HALF * (np.kron(dark_e, sym) - np.kron(e0, aligned))
    singlet = np.kron(e0, anti)
    return TargetStates(
        psi_dark=None,
        psi_dark_two=psi_two,
        singlet_two=singlet,
        dark_e=dark_e,
        bright_e=bright_e,
        dark_n=None,
        bright_n=None,
    )


def default_target(variant):
    """The variant's canonical target state vector."""
    ts = target_states(variant)
    return ts.psi_dark if variant == VARIANT_SINGLE else ts.psi_dark_two


def mixed_ground_state(variant):
    """Uniform mixture over all ground basis states (electron not in A1).

    9 states for the single-nucleus variant, 12 for two nuclei.
    """
    _check_variant(variant)
    d = dim(variant)
    per_e = d // 4
    rho = np.zeros((d, d), dtype=complex)
    ground = [e * per_e + n for e in range(3) for n in range(per_e)]
    w = 1.0 / len(ground)
    for i in ground:
        rho[i, i] = w
    return rho
