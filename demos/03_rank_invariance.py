"""Rank invariance: the iterates ignore monotone rescalings of f.

A rank-based optimizer consumes only comparisons, so composing the
objective with any strictly increasing map (affine, exponential, ...)
changes nothing about its trajectory - bit for bit - as long as the
step rule is comparison-based too (fixed or backtracking; the
instrumented regime reads values and is deliberately excluded).
"""

import numpy as np

import rankzo as rz

obj = rz.make_quadratic(d=8, mu=1.0, L=10.0, seed=2)
cfg = rz.RunConfig(
    n=16, iterations=40, seed=31,
    step=rz.StepPolicy("backtracking", eta0=1.0, shrink=0.5, max_tries=20),
    alpha=rz.AlphaPolicy("fixed", alpha0=1e-2),
    record_iterates=True,
)

base = rz.run(obj, cfg)
print(f"plain objective:      final gap {base.final_gap:.3e}")

for transform in (rz.MonotoneTransform("affine", a=3.0, b=7.0),
                  rz.MonotoneTransform("exponential"),
                  rz.MonotoneTransform("cube_plus_linear")):
    wrapped = rz.wrap_monotone(obj, transform)
    other = rz.run(wrapped, cfg)
    same = np.array_equal(base.iterates, other.iterates)
    print(f"{wrapped.name:30s} identical iterates: {same}")

# the transformed objective reports transformed values, of course -
# only the *path* is invariant
print("\n(the value-based baseline has no such invariance: its gradient")
print(" estimate scales with f, so an affine rescaling changes its path)")
