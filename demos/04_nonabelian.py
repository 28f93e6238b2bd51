"""
Non-commuting transport on the figure eight
===========================================

Two petals, two generators.  Sending them to i*sigma_x and i*sigma_y
makes the commutator loop transport to -1: the order of travel is
observable.  The same matrix arises as a path-ordered exponential, and
the brute-force subdivision oracle converges to it quadratically.
"""

import numpy as np

from flatnet import (
    AntiHermitianUn,
    MatrixUn,
    SigmaMorphism,
    approximate_curve,
    build_nerve,
    classify,
    distance,
    figure_eight_cover,
    generator_loop,
    holonomy,
    loop_class,
    path_compose,
    path_ordered_exp,
    path_ordered_exp_subdivided,
    pi1_presentation,
    rho_layer_transporter,
    transition_cocycle,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)

cover = figure_eight_cover()
nerve = build_nerve(cover)
pres = pi1_presentation(nerve)
print("figure eight:", len(cover.regions), "regions, generators", pres.generators)

sigma = SigmaMorphism(
    {"g0": MatrixUn(1j * SX), "g1": MatrixUn(1j * SY)}, MatrixUn(np.eye(2))
)
coc = transition_cocycle(sigma, nerve)
t = rho_layer_transporter(coc)

# -- the commutator loop is not trivial ----------------------------------------

comm = approximate_curve(cover, [0, 1, 2, 0, 3, 4, 0, 2, 1, 0, 4, 3, 0])
word = loop_class(pres, comm)
print("commutator class:", word.as_names())
val = holonomy(t, comm)
print("loop holonomy:\n", np.round(val.mat, 12))
print("distance from identity:", distance(val, MatrixUn(np.eye(2))))
print("matches direct word evaluation:",
      distance(val, sigma.evaluate(word)) < 1e-12)
verdict = classify(t, nerve)
print("classification:", verdict.kind, "dimension", verdict.dimension)

# reversing the order of the petals inverts the answer
ab = path_compose(generator_loop(nerve, 0), generator_loop(nerve, 1))
ba = path_compose(generator_loop(nerve, 1), generator_loop(nerve, 0))
print("a-then-b equals b-then-a:",
      distance(holonomy(t, ab), holonomy(t, ba)) < 1e-12)

# -- the same values as ordered exponentials -----------------------------------

# i*sigma = exp(i (pi/2) sigma), so each petal is one exponential step
steps = [
    AntiHermitianUn(1j * (np.pi / 2) * SX),
    AntiHermitianUn(1j * (np.pi / 2) * SY),
]
print("ordered exponential reproduces a-then-b:",
      distance(path_ordered_exp(steps), holonomy(t, ab)) < 1e-12)

rng = np.random.default_rng(42)
rand_steps = [
    AntiHermitianUn(h - h.conj().T)
    for h in (0.5 * (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
              for _ in range(6))
]
exact = path_ordered_exp(rand_steps)
for n in (100, 1000, 10000):
    err = distance(path_ordered_exp_subdivided(rand_steps, n), exact)
    print(f"subdivision oracle, {n:>6d} substeps: error {err:.3e}")
