"""Level structure, spin and optical operators, Hamiltonian, collapse
operators and target entangled states.

One table maps each variant to the level tuples of its tensor factors,
electron first: one spin-1 nucleus or two spin-1/2 nuclei.  Dimension,
layout, basis labels, the ground mixture (labels whose electron level is not
A1) and ``embed`` (a factor operator in the full space) derive from it, and
an unknown variant fails its lookup with a ConfigError.

Basis ordering is fixed and every golden number in the test suite depends on
it: the electron factor varies slowest with levels ordered (+1, -1, 0, A1);
a spin-1 nucleus orders its levels (+1, -1, 0); spin-1/2 nuclei order (0, 1).

Unit convention: all constructor inputs are plain frequencies or rates in
MHz and times are in microseconds.  Operators are assembled in angular units,
omega = 2*pi*f rad/us and Gamma = 2*pi*gamma 1/us.  The optical term uses the
sign convention e_plus = +E, e_minus = -E (the default parameters follow it),
which makes the symmetric electron superposition |D> = (|+1> + |-1>)/sqrt(2)
optically dark and couples only |B> = (|+1> - |-1>)/sqrt(2) to |A1>.
With gamma_+ = gamma_- as well, ``mirror`` (|+1> <-> |-1>, |A1> -> -|A1>,
the first two levels of each nucleus swapped) is a symmetry of the model
that keeps |D> and negates |B>.

The electron dephasing channel for a finite T2* is Markovian,
sqrt(Gamma_phi/2) * S_z with Gamma_phi = 1/T2* (T2* in us, no 2*pi here).
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .errors import ConfigError, DimensionError, _bool, _bounded, _check_fields, _choice, _floats
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
    "embed",
    "layout",
    "mirror",
    "mixed_ground_state",
    "nuclear_singlet_projector",
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


_SQRT_HALF = 1.0 / math.sqrt(2.0)

# The levels of one spin-1/2 nucleus and the singlet (|10> - |01>)/sqrt(2)
# of two.
_H0, _H1 = _basis(2, 0), _basis(2, 1)
_NUCLEAR_SINGLET = _SQRT_HALF * (np.kron(_H1, _H0) - np.kron(_H0, _H1))


def _level_state(label, levels, what):
    # Bare levels by position; "D" and "B" are the symmetric and antisymmetric
    # superpositions of the +1 and -1 levels (positions 0 and 1 in both factors).
    n = len(levels)
    if label in levels:
        return _basis(n, levels.index(label))
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
    return _level_state(label, ELECTRON_LEVELS, "electron")


def nuclear_spin1_state(label):
    """Spin-1 nuclear state vector (dimension 3), including "D" and "B"."""
    return _level_state(label, NUCLEAR_SPIN1_LEVELS, "spin-1 nuclear")


# The tensor factors of each variant as level tuples, electron first.
# Dimensions, layouts, basis labels and embeddings all follow from it.
_FACTORS = {
    VARIANT_SINGLE: (ELECTRON_LEVELS, NUCLEAR_SPIN1_LEVELS),
    VARIANT_TWO: (ELECTRON_LEVELS, NUCLEAR_HALF_LEVELS, NUCLEAR_HALF_LEVELS),
}


def _factors(variant):
    try:
        return _FACTORS[variant]
    except (KeyError, TypeError):
        raise ConfigError(
            f"unknown variant {variant!r}; expected one of {', '.join(VARIANTS)}"
        ) from None


def _factor_dims(variant):
    return tuple(len(levels) for levels in _factors(variant))


def dim(variant):
    """Total Hilbert-space dimension for a variant (12 or 16)."""
    return math.prod(_factor_dims(variant))


def layout(variant):
    """Tensor-factor layout: (4, 3) or (4, 2, 2), electron first."""
    return SpaceLayout(_factor_dims(variant))


def basis_labels(variant):
    """Human-readable label per basis index, e.g. "e+1:n0" or "e0:n10"."""
    return tuple(
        f"e{e}:n{''.join(nuclei)}" for e, *nuclei in itertools.product(*_factors(variant))
    )


_POSITIVE = _bounded(float, 0.0, strict=True)

# The parser of each SystemParams field, from the text a config file's
# [params] section holds; config._KEYS["params"] is this table plus "e".
_PARAMS = {
    **dict.fromkeys(("omega_e", "omega_n", "g", "gamma_plus", "gamma_minus", "gamma_zero"),
                    _bounded(float, 0.0)),
    # Optical amplitudes are signed: the adopted convention is
    # e_minus = -e_plus, and both stay independently settable.
    **dict.fromkeys(("e_plus", "e_minus"), _bounded(float)),
    "t2_star": lambda raw: None if raw.strip().lower() == "none" else _POSITIVE(raw),
    "variant": _choice(VARIANTS),
    "asymmetry": _floats(0.0),
    "asymmetric_hyperfine": _bool,
}


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

    Each field is checked by its parser in ``_PARAMS``, the table of the
    config format's ``[params]`` section: a value is accepted exactly when
    the same value in a config file is, and a bad one raises the ConfigError
    the file would, e.g. ``[params] omega_e: must be >= 0.0, got -1.0``.
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
        _check_fields(self, "params", _PARAMS)
        count = self.nucleus_count
        if self.asymmetry is None:
            object.__setattr__(self, "asymmetry", (1.0,) * count)
        if len(self.asymmetry) != count:
            raise ConfigError(f"asymmetry needs {count} factor(s) for variant {self.variant}, "
                              f"got {len(self.asymmetry)}")

    @property
    def nucleus_count(self):
        return len(_factors(self.variant)) - 1

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
    """

    psi_dark: np.ndarray | None
    psi_dark_two: np.ndarray | None
    singlet_two: np.ndarray | None


def _spin1_ops(levels):
    """S_x and S_z of the spin-1 levels +1, -1, 0 within a factor with these
    ``levels`` (any further level is left untouched)."""
    n = len(levels)
    i = levels.index
    x = np.zeros((n, n), dtype=complex)
    x[i("0"), i("+1")] = 1.0
    x[i("0"), i("-1")] = 1.0
    x = x + dagger(x)
    z = np.zeros((n, n), dtype=complex)
    z[i("+1"), i("+1")] = 1.0
    z[i("-1"), i("-1")] = -1.0
    return x, z


# Single-factor operators.  (I_x, I_z) of a nucleus, keyed by its factor's
# levels; spin-1/2 levels are ordered (0, 1), so I_z = |1><1| - |0><0|.
_NUCLEAR_SPIN_OPS = {
    NUCLEAR_SPIN1_LEVELS: _spin1_ops(NUCLEAR_SPIN1_LEVELS),
    NUCLEAR_HALF_LEVELS: (
        np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
        np.array([[-1.0, 0.0], [0.0, 1.0]], dtype=complex),
    ),
}
# The electron's S_x and S_z, optical lowering maps |k><A1| and projectors.
_ELECTRON_SPIN_OPS = _spin1_ops(ELECTRON_LEVELS)
_LOWERING = {
    lab: np.outer(electron_state(lab), electron_state("A1")) for lab in ("+1", "-1", "0")
}
_PROJECTORS = {lab: np.outer(electron_state(lab), electron_state(lab)) for lab in ELECTRON_LEVELS}


def embed(op, variant, factor):
    """Full-space operator acting as ``op`` on tensor factor ``factor`` (0
    is the electron), or on the run of factors from there whose dimensions
    multiply to its size, and as the identity on every other factor."""
    dims = _factor_dims(variant)
    n = len(op)
    if n not in itertools.accumulate(dims[factor:], operator.mul):
        raise DimensionError(
            f"a {n}x{n} operator spans no run of the factors {dims[factor:]}"
        )
    after = math.prod(dims[factor:]) // n
    out = op if after == 1 else kron(op, np.eye(after, dtype=complex))
    for d in reversed(dims[:factor]):
        out = kron(np.eye(d, dtype=complex), out)
    return out


def mirror(variant):
    """The mirror U of a variant, a real signed permutation matrix: the
    electron levels +1 and -1 swapped and A1 negated, and the first two
    levels of each nucleus swapped (+1 and -1 of a spin-1 nucleus, 0 and 1
    of a spin-1/2 one).  U is its own inverse.

    U maps the dark electron state |D> to itself and the bright |B> to -|B>.
    It commutes with H whenever e_minus = -e_plus, and it maps the collapse
    operators onto themselves up to sign whenever gamma_plus = gamma_minus,
    whatever the drives, the asymmetry and T2*.  Then rho -> U rho U^dag
    commutes with the Liouvillian (a weak symmetry, Buca & Prosen, NJP 14,
    073007 (2012)), which ``engine.Liouvillian.halves`` splits it by.
    """
    u = np.ones((1, 1))
    for levels in _factors(variant):
        f = np.eye(len(levels))
        f[[0, 1]] = f[[1, 0]]
        if "A1" in levels:
            f[levels.index("A1")] *= -1.0
        u = np.kron(u, f)
    return u


# One operator set per variant, built on first use and shared by every caller.
_OPERATORS = {}


def build_operators(variant):
    """Full-dimension spin and optical operators for a variant.

    Returns a mapping with Hermitian ``S_x``/``S_z``, per-nucleus tuples
    ``I_x``/``I_z``, unit-amplitude ``optical_lowering`` maps |k><A1|
    keyed by ground level, and electron level ``projectors``.  The set is
    built once per variant and shared, so its mappings and arrays are
    read-only.
    """
    ops = _OPERATORS.get(variant)
    if ops is None:
        nuclei = list(enumerate(_factors(variant)[1:], start=1))
        ops = _OPERATORS[variant] = _read_only({
            "S_x": embed(_ELECTRON_SPIN_OPS[0], variant, 0),
            "S_z": embed(_ELECTRON_SPIN_OPS[1], variant, 0),
            "I_x": tuple(embed(_NUCLEAR_SPIN_OPS[lv][0], variant, j) for j, lv in nuclei),
            "I_z": tuple(embed(_NUCLEAR_SPIN_OPS[lv][1], variant, j) for j, lv in nuclei),
            "optical_lowering": {lab: embed(m, variant, 0) for lab, m in _LOWERING.items()},
            "projectors": {lab: embed(m, variant, 0) for lab, m in _PROJECTORS.items()},
        })
    return ops


def _read_only(value):
    """``value`` with each array made read-only and each dict a read-only view."""
    if isinstance(value, np.ndarray):
        value.flags.writeable = False
        return value
    if isinstance(value, dict):
        return MappingProxyType({key: _read_only(v) for key, v in value.items()})
    return tuple(_read_only(v) for v in value)


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
    _factors(variant)  # an unknown variant raises ConfigError
    dark_e = electron_state("D")
    e0 = electron_state("0")
    if variant == VARIANT_SINGLE:
        n0 = nuclear_spin1_state("0")
        psi = _SQRT_HALF * (np.kron(dark_e, n0) - np.kron(e0, nuclear_spin1_state("D")))
        return TargetStates(psi_dark=psi, psi_dark_two=None, singlet_two=None)
    sym = _SQRT_HALF * (np.kron(_H1, _H0) + np.kron(_H0, _H1))
    aligned = _SQRT_HALF * (np.kron(_H1, _H1) + np.kron(_H0, _H0))
    psi_two = _SQRT_HALF * (np.kron(dark_e, sym) - np.kron(e0, aligned))
    return TargetStates(
        psi_dark=None,
        psi_dark_two=psi_two,
        singlet_two=np.kron(e0, _NUCLEAR_SINGLET),
    )


def nuclear_singlet_projector():
    """I4 (x) |S><S| of the two-nuclei variant: the population of the
    nuclear singlet |S> = (|10> - |01>)/sqrt(2), whatever the electron does."""
    return embed(np.outer(_NUCLEAR_SINGLET, _NUCLEAR_SINGLET.conj()), VARIANT_TWO, 1)


def default_target(variant):
    """The variant's canonical target state vector."""
    ts = target_states(variant)
    return ts.psi_dark if variant == VARIANT_SINGLE else ts.psi_dark_two


def mixed_ground_state(variant):
    """Uniform mixture over all ground basis states (electron not in A1).

    9 states for the single-nucleus variant, 12 for two nuclei.
    """
    labels = basis_labels(variant)
    ground = [i for i, lab in enumerate(labels) if not lab.startswith("eA1:")]
    rho = np.zeros((len(labels), len(labels)), dtype=complex)
    rho[ground, ground] = 1.0 / len(ground)
    return rho
