"""Independent reference physics for the output checks.

Built from the model's formulas with numpy and scipy only; nothing here
imports darksteady.  Conventions (the ones the program documents):

* electron levels (+1, -1, 0, A1), slowest factor; a spin-1 nucleus
  (+1, -1, 0); spin-1/2 nuclei (0, 1) with I_z = |1><1| - |0><0|;
* S_x = |0><+1| + |0><-1| + h.c., S_z = |+1><+1| - |-1><-1|, likewise I_x,
  I_z for spin 1 and I_x = sigma_x for spin 1/2;
* H = 2 pi [w_e S_x + sum_j w_n a_j I_x^j + sum_j g S_z I_z^j
  + E (|+1><A1| - |-1><A1|) + h.c.], decays sqrt(2 pi gamma_k) |k><A1|,
  Markovian T2* dephasing sqrt(1/(2 T2*)) S_z;
* column-stacked vec(rho), and the Lindblad generator written out term by
  term: L = -i(1 x H) + i(H^T x 1) + sum_k [C_k* x C_k
  - 1/2 (1 x C_k^+ C_k) - 1/2 ((C_k^+ C_k)^T x 1)].
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg

TWO_PI = 2.0 * math.pi
_E = {"+1": 0, "-1": 1, "0": 2, "A1": 3}


class System:
    """Operators of the one-nucleus (d = 12) or two-nuclei (d = 16) system."""

    def __init__(self, nuclei):
        self.nuclei = nuclei
        if nuclei == 1:
            self.nuc_dim = 3
            ix = np.zeros((3, 3))
            ix[2, 0] = ix[2, 1] = ix[0, 2] = ix[1, 2] = 1.0
            self.ix = [ix]
            self.iz = [np.diag([1.0, -1.0, 0.0])]
        else:
            self.nuc_dim = 4
            sx = np.array([[0.0, 1.0], [1.0, 0.0]])
            sz = np.diag([-1.0, 1.0])
            eye2 = np.eye(2)
            self.ix = [np.kron(sx, eye2), np.kron(eye2, sx)]
            self.iz = [np.kron(sz, eye2), np.kron(eye2, sz)]
        self.d = 4 * self.nuc_dim
        self.eye_n = np.eye(self.nuc_dim)
        sx_e = np.zeros((4, 4))
        sx_e[2, 0] = sx_e[2, 1] = sx_e[0, 2] = sx_e[1, 2] = 1.0
        self.sx = np.kron(sx_e, self.eye_n)
        self.sz = np.kron(np.diag([1.0, -1.0, 0.0, 0.0]), self.eye_n)
        self.ix = [np.kron(np.eye(4), m) for m in self.ix]
        self.iz = [np.kron(np.eye(4), m) for m in self.iz]

    def electron_op(self, k, l):
        m = np.zeros((4, 4))
        m[_E[k], _E[l]] = 1.0
        return np.kron(m, self.eye_n)

    def hamiltonian(self, omega_e=0.0, omega_n=0.0, asymmetry=None, g=0.0, e=0.0):
        asymmetry = asymmetry or (1.0,) * self.nuclei
        h = omega_e * self.sx
        for a, ix, iz in zip(asymmetry, self.ix, self.iz):
            h = h + omega_n * a * ix + g * (self.sz @ iz)
        optical = e * (self.electron_op("+1", "A1") - self.electron_op("-1", "A1"))
        return TWO_PI * (h + optical + optical.T).astype(complex)

    def decays(self, params):
        rates = {"+1": params["gamma_plus"], "-1": params["gamma_minus"],
                 "0": params["gamma_zero"]}
        return [math.sqrt(TWO_PI * rates[k]) * self.electron_op(k, "A1")
                for k in ("+1", "-1", "0")]

    def ground_mixture(self):
        w = np.array([1.0] * (3 * self.nuc_dim) + [0.0] * self.nuc_dim)
        return np.diag(w / w.sum()).astype(complex)

    def target(self):
        """(|D,0> - |0,D>)/sqrt(2) for one nucleus; the two-nuclei analogue."""
        s = 1.0 / math.sqrt(2.0)
        dark_e = s * (np.eye(4)[0] + np.eye(4)[1])
        e0 = np.eye(4)[2]
        if self.nuclei == 1:
            n0 = np.eye(3)[2]
            dark_n = s * (np.eye(3)[0] + np.eye(3)[1])
            return s * (np.kron(dark_e, n0) - np.kron(e0, dark_n))
        h0, h1 = np.eye(2)
        sym = s * (np.kron(h1, h0) + np.kron(h0, h1))
        aligned = s * (np.kron(h1, h1) + np.kron(h0, h0))
        return s * (np.kron(dark_e, sym) - np.kron(e0, aligned))


def liouvillian(h, cs):
    d = h.shape[0]
    eye = np.eye(d)
    mat = -1j * np.kron(eye, h) + 1j * np.kron(h.T, eye)
    for c in cs:
        cdc = c.conj().T @ c
        mat = mat + np.kron(c.conj(), c) - 0.5 * np.kron(eye, cdc) - 0.5 * np.kron(cdc.T, eye)
    return mat


def vec(rho):
    return rho.reshape(-1, order="F")


def fidelity_of_vec(v, psi, d):
    rho = v.reshape((d, d), order="F")
    return float((psi.conj() @ rho @ psi).real)


# ---------------------------------------------------------------------------
# continuous drive (fig2)


def continuous_fidelities(params, times):
    """Exact <psi| exp(L t) rho0 |psi> of the one-nucleus system at ``times``."""
    sys_ = System(1)
    h = sys_.hamiltonian(params["omega_e"], params["omega_n"], None, params["g"], params["e"])
    lmat = liouvillian(h, sys_.decays(params))
    v0 = vec(sys_.ground_mixture())
    psi = sys_.target()
    return [fidelity_of_vec(scipy.linalg.expm(lmat * t) @ v0, psi, sys_.d) for t in times]


# ---------------------------------------------------------------------------
# pulsed protocol (fig3)


def _subspace_rotation(u, v, angle):
    """exp(-i angle/2 sigma_y) on span{u, v}, sigma_y = -i|u><v| + i|v><u|."""
    sigma_y = -1j * np.outer(u, v) + 1j * np.outer(v, u)
    return scipy.linalg.expm(-0.5j * angle * sigma_y)


def _unitary_map(u):
    return np.kron(u.conj(), u)


def dd_error(g, omega_n, tau):
    g_a, w_a = TWO_PI * g, TWO_PI * omega_n
    return math.sin(g_a * g_a * tau / math.hypot(g_a, w_a))


def pulsed_fidelities(params, pulse, cycles, detunings=None):
    """Per-cycle fidelities (ideal, uncorrected, corrected) of the standard cycle.

    Cycle: optical pump with drives and hyperfine off, electron pi/2 rotation
    in {|0>, |D>}, free hyperfine evolution for 1/(4 g), nuclear pi/2 - eps
    rotation in {|0>, |D>} (decoupled, noise filtered).  The sample is taken
    after the free evolution; the correction sets the electron angle to
    pi/2 - eps as well.  With ``detunings`` the free evolution adds
    delta * S_z per sample (quasi-static noise) and the states are averaged;
    without, it carries the Markovian dephasing of T2*.
    """
    g, t2_star = params["g"], params["t2_star"]
    sys_ = System(1)
    d = sys_.d
    pump = scipy.linalg.expm(
        liouvillian(sys_.hamiltonian(e=pulse["pump_e"]), sys_.decays(params))
        * pulse["pump_duration"])
    s = 1.0 / math.sqrt(2.0)
    e0, e_dark = np.eye(4)[2], s * (np.eye(4)[0] + np.eye(4)[1])
    n0, n_dark = np.eye(3)[2], s * (np.eye(3)[0] + np.eye(3)[1])

    def electron(angle):
        return _unitary_map(np.kron(_subspace_rotation(e0, e_dark, angle), np.eye(3)))

    def nuclear(angle):
        return _unitary_map(np.kron(np.eye(4), _subspace_rotation(n0, n_dark, angle)))

    # The free evolution is diagonal: rho_ij picks up exp(-i (h_i - h_j) t)
    # and, for Markovian dephasing, exp(-Gamma_phi/4 (s_i - s_j)^2 t).
    t_free = 1.0 / (4.0 * g)
    h_diag = np.diag(TWO_PI * g * (sys_.sz @ sys_.iz[0])).real
    s_diag = np.diag(sys_.sz).real
    dh = (h_diag[:, None] - h_diag[None, :]).reshape(-1, order="F")
    ds = (s_diag[:, None] - s_diag[None, :]).reshape(-1, order="F")
    if detunings is None:
        free = np.exp((-1j * dh - ds**2 / (4.0 * t2_star)) * t_free)[:, None]
    else:
        delta = np.asarray(detunings, dtype=float)[None, :]
        free = np.exp(-1j * (dh[:, None] + delta * ds[:, None]) * t_free)
    samples = free.shape[1]
    v0 = np.repeat(vec(sys_.ground_mixture())[:, None], samples, axis=1)
    psi = sys_.target()

    eps = dd_error(g, params["omega_n"], pulse["tau"])
    half_pi = math.pi / 2.0
    curves = []
    for e_angle, n_angle in ((half_pi, half_pi), (half_pi, half_pi - eps),
                             (half_pi - eps, half_pi - eps)):
        r_e, r_n = electron(e_angle), nuclear(n_angle)
        v = v0
        fids = [fidelity_of_vec(v.mean(axis=1), psi, d)]
        for _ in range(cycles):
            v = free * (r_e @ (pump @ v))
            fids.append(fidelity_of_vec(v.mean(axis=1), psi, d))
            v = r_n @ v
        curves.append(fids)
    return curves


def quasistatic_detunings(seed, t2_star, samples):
    """The detunings run_sequence documents: N(0, sqrt(2)/T2*) from the seed."""
    return np.random.default_rng(seed).normal(0.0, math.sqrt(2.0) / t2_star, samples)


# ---------------------------------------------------------------------------
# steady state (sweep)


def spectral_gap(params, g, e):
    """Smallest decay rate min(-Re lambda) of the two-nuclei Liouvillian,
    over every eigenvalue but the single stationary one."""
    sys_ = System(2)
    h = sys_.hamiltonian(params["omega_e"], params["omega_n"], params["asymmetry"], g, e)
    vals = scipy.linalg.eigvals(liouvillian(h, sys_.decays(params)))
    order = np.argsort(np.abs(vals))
    return float((-vals[order[1:]].real).min())
