"""The bad 2-cycle survives realistic perturbations.

Instead of every voter adjusting after every poll, only a fraction p of
each type adjusts, and nothing at all is assumed about behavior when two
candidates are within a 4-point margin.  On the two margin-certified
corner regions of the (x, z) square the map still swaps them, so a
contraction argument yields an attracting 2-cycle: one state elects the
Condorcet winner a, the other elects the consensual loser c, for every
p >= 0.85 and every sub-threshold fallback behavior.
"""

import numpy as np

from pollsim import Fallback, find_periodic_orbit, orbit_rows, sup_distance
from pollsim.presets import (
    in_region_a1,
    in_region_a2,
    region_a1_grid,
    region_a2_grid,
    sample_region_a1,
    two_bloc_dynamics,
    two_bloc_view,
)

if __name__ == "__main__":
    for fb in Fallback:
        dyn = two_bloc_dynamics(p=0.85, margin=0.04, fallback=fb)
        view = two_bloc_view(dyn)
        ok1 = all(in_region_a2(*view.coords(dyn.step(view.state(x, z)))) for x, z in region_a1_grid(60))
        ok2 = all(in_region_a1(*view.coords(dyn.step(view.state(x, z)))) for x, z in region_a2_grid(60))
        print(f"fallback={fb.value:5s}: step(A1) in A2: {ok1}, step(A2) in A1: {ok2}")

    dyn = two_bloc_dynamics()
    view = two_bloc_view(dyn)

    print("\norbit from (0.99, 0.99):")
    for k, s, w in orbit_rows(dyn, view.state(0.99, 0.99), 10):
        x, z = view.coords(s)
        print(f"  poll {k}: (x, z) = ({x:.4f}, {z:.4f})  winner {w}")

    found = find_periodic_orbit(dyn, lambda rng: view.state(*sample_region_a1(rng)), period=2, seed=0)
    print("\nattracting 2-cycle:")
    for s, w in zip(found.states, found.winners):
        x, z = view.coords(s)
        print(f"  (x, z) = ({x:.6f}, {z:.6f})  elects {w}")

    # the second iterate contracts, so convergence is exponential
    rng = np.random.default_rng(0)
    s = view.state(*sample_region_a1(rng))
    t = view.state(*sample_region_a1(rng))
    d0 = sup_distance(s, t)
    s2, t2 = dyn.step(dyn.step(s)), dyn.step(dyn.step(t))
    print(f"\ncontraction: |step^2(s) - step^2(t)| / |s - t| = {sup_distance(s2, t2) / d0:.4f}"
          f" (bound {(0.15)**2:.4f})")
