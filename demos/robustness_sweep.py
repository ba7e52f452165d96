"""Steady-state fidelity across drive strengths.

The stationary target does not depend on the field amplitudes, only the
approach rate does, so the steady-state fidelity should stay pinned near 1
across a wide grid of optical and spin drives.
"""

import numpy as np

import darksteady as ds
from darksteady import engine, model

e_values = (5.0, 10.0, 20.0)
omega_values = (0.5, 1.0, 2.0)

target = model.default_target(model.VARIANT_SINGLE)

print("E (MHz)  Omega (MHz)  steady F      gap (1/us)")
for e in e_values:
    for om in omega_values:
        p = ds.SystemParams(omega_e=om, omega_n=om, e_plus=e, e_minus=-e)
        # The mirror holds (e_minus = -e_plus, equal decays): two half-size blocks.
        liouv = engine.build_liouvillian(
            model.build_hamiltonian(p), model.build_collapse_ops(p), p.layout,
            symmetry=model.mirror(p.variant),
        )
        res = engine.steady_state(liouv)
        f = engine.fidelity(res.rho, target)
        print(f"{e:7.1f}  {om:11.2f}  {f:.10f}  {res.spectral_gap:.4f}")

print("\nfidelity is drive-independent; the gap (preparation speed) is not.")

# mismatched drives break the dark condition: the target is no longer
# stationary and the steady fidelity drops
p_bad = ds.SystemParams(omega_e=1.5, omega_n=1.0)
liouv = engine.build_liouvillian(
    model.build_hamiltonian(p_bad), model.build_collapse_ops(p_bad), p_bad.layout
)
res = engine.steady_state(liouv)
print("\nmismatched drives (1.5 vs 1.0 MHz): F =",
      round(engine.fidelity(res.rho, target), 4))
h = model.build_hamiltonian(p_bad)
print("residual ||H |psi>|| =", np.linalg.norm(h @ target),
      " (vs 0 at matched drive)")
