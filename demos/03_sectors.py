"""
Charge transport and sector classification
==========================================

A unit charge sits in one region of the ring; transporters move it
between regions.  Bare transport telescopes to nothing, so the sector is
DHR-type.  Weighting the same transporters by a quarter-turn background
leaves every local law intact but prints a loop value no local
deformation can remove: the sector is topological.
"""

import numpy as np

from flatnet import (
    FockSpace,
    PhaseU1,
    SigmaMorphism,
    allocate_modes,
    annulus_cover,
    approximate_curve,
    build_nerve,
    classify,
    dress_transporter,
    generator_loop,
    make_window,
    plain_transporter,
    telescope_residual,
    topological_component,
    transition_amplitude,
    transition_cocycle,
    twisted_transporter,
    z_path,
)

cover = annulus_cover()
nerve = build_nerve(cover)
fock = FockSpace(allocate_modes(cover, 2))
window = make_window(fock, cover)
print("window basis: vacuum + one charged vector per region ->",
      len(window.columns), "columns")

# -- bare transport is invisible to loops -------------------------------------

plain = plain_transporter(window, cover)
loop = generator_loop(nerve, 0)
print("plain loop value:", topological_component(plain, loop).value)
print("plain classification:", classify(plain, nerve).kind)

# -- a quarter-turn background makes the same charge topological ---------------

sigma = SigmaMorphism({"g0": PhaseU1(np.pi / 2)}, PhaseU1(0.0))
coc = transition_cocycle(sigma, nerve)
twisted = twisted_transporter(window, coc)

path = approximate_curve(cover, [0, 1, 2, 3, 0, 1])
print("telescoping residual along a 5-step path:",
      telescope_residual(twisted, path))
comp = topological_component(twisted, loop)
print("twisted loop value:", np.round(comp.value, 12),
      "| scalar residual:", comp.residual)
cls = classify(twisted, nerve)
print("twisted classification:", cls.kind,
      "| component angle:", cls.components["g0"].angle)

# -- interference between two transport routes --------------------------------

top = approximate_curve(cover, [0, 1, 2])
bottom = approximate_curve(cover, [0, 3, 2])
amp = transition_amplitude(twisted, top, bottom)
print("amplitude between the two routes to region 2:", np.round(amp, 12))

# the loop value survives dressing by arbitrary per-region phases
rng = np.random.default_rng(3)
phases = {r: PhaseU1(rng.uniform(-np.pi, np.pi)) for r in cover.regions}
dressed = dress_transporter(twisted, phases)
print("dressed loop value:",
      np.round(topological_component(dressed, loop).value, 12))
print("dressed edge coefficient (0->1):",
      np.round(z_path(dressed, approximate_curve(cover, [0, 1])).coeff.angle, 6),
      "(moved by the dressing; the loop value is what cannot move)")
