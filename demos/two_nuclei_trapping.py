"""Two nuclear spins: singlet trapping and how asymmetry lifts it.

With two identical spin-1/2 nuclei the drive only couples to their
symmetric combination, so the antisymmetric (singlet) component of an
unpolarized start is invisible to the dynamics and stays trapped: the
four-spin entangled target is reached with probability 3/4.  Unequal
hyperfine couplings break the symmetry and make the target unique again.
"""

import numpy as np

import darksteady as ds
from darksteady import engine, model
from darksteady.errors import NonUniqueSteadyState

variant = model.VARIANT_TWO
target = model.target_states(variant).psi_dark_two
rho0 = model.mixed_ground_state(variant)

# matched drive: the collective nuclear coupling is sqrt(2) stronger
p = ds.SystemParams(variant=variant, omega_e=np.sqrt(2.0))
liouv = engine.build_liouvillian(
    model.build_hamiltonian(p), model.build_collapse_ops(p), p.layout
)

singlet_proj = model.nuclear_singlet_projector()  # I4 (x) |S><S|

print("symmetric couplings, t = 120 us of evolution:")
end = engine.evolve_propagator(rho0, liouv, 120.0)
print("  target fidelity    =", round(engine.fidelity(end, target), 4))
print("  singlet population =", round(float(np.trace(singlet_proj @ end).real), 4))

try:
    engine.steady_state(liouv)
except NonUniqueSteadyState as exc:
    print("  steady state not unique:", exc.null_dimension,
          "stationary directions (singlet sector is decoupled)")

# asymmetric couplings (1, 0.8): the singlet is no longer invisible
asym = (1.0, 0.8)
omega_matched = np.sqrt(2.0) * 1.0 * (sum(asym) / len(asym))
pa = ds.SystemParams(variant=variant, asymmetry=asym, omega_e=omega_matched)
liouv_a = engine.build_liouvillian(
    model.build_hamiltonian(pa), model.build_collapse_ops(pa), pa.layout
)
print(f"\nasymmetry {asym}, drive re-matched to {omega_matched:.4f} MHz:")
res = engine.steady_state(liouv_a)
print("  unique steady state, fidelity =",
      round(engine.fidelity(res.rho, target), 6))
print("  spectral gap =", round(res.spectral_gap, 4), "1/us",
      "(small: the singlet leaks out slowly)")

end_a = engine.evolve_propagator(rho0, liouv_a, 120.0)
print("  fidelity after 120 us =", round(engine.fidelity(end_a, target), 4))
print("  singlet population    =",
      round(float(np.trace(singlet_proj @ end_a).real), 6))
