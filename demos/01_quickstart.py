"""Quickstart: minimize a seeded quadratic with the rank-based optimizer.

The optimizer only ever sees the *ordering* of probe evaluations: each
iteration ranks n Gaussian probes around the current point, pushes
toward the best quartile and away from the worst, and steps.  Here we
run the instrumented regime (step size and smoothing radius set from
the gradient oracle, used for theory validation) and watch the gap
decay linearly on a log scale.
"""

import rankzo as rz

obj = rz.make_quadratic(d=32, mu=1.0, L=10.0, seed=7)
cfg = rz.RunConfig(
    n=16,                                  # probes per iteration
    iterations=2000,
    scheme="uniform",                      # 4/n on every selected rank
    step=rz.StepPolicy("instrumented"),
    alpha=rz.AlphaPolicy("instrumented", c=1.0),
    seed=123,
)

trace = rz.run(obj, cfg)

print(f"objective            : {obj.name}")
print(f"initial gap          : {trace.fgap[0]:.4e}")
print(f"final gap            : {trace.final_gap:.4e}")
print(f"total queries        : {trace.total_queries}")
print(f"log-gap decay / iter : {rz.fit_log_gap_slope(trace):.5f}")

# every tenth of the run, one line of progress
for t in range(0, len(trace.t), len(trace.t) // 10):
    print(f"  t={t:5d}  gap={trace.fgap[t]:.3e}  alpha={trace.alpha[t]:.2e}"
          f"  eta={trace.eta[t]:.2e}")
