"""Weight schemes: uniform vs log vs Blom.

All three put positive weight on the best quartile of ranked directions
(summing to +1) and negative weight on the worst quartile (summing to
-1).  They differ in how sharply they concentrate on the extreme ranks:

  uniform  - every selected rank gets 4/n;
  log      - magnitude proportional to log(n+1) - log(k);
  blom     - magnitude of the expected Gaussian order statistic,
             |Phi^-1((k - 0.375)/(n + 0.25))|.

The log and Blom profiles are nearly proportional, which is the reason
log-shaped weights behave like an order-statistic-matched choice.  The
min/max magnitude ratio feeds the convergence bound: uniform maximizes
it (ratio 1), so the *bound* favors uniform even though shaped weights
are popular in practice.
"""

import numpy as np

import rankzo as rz

N = 20
for scheme in ("uniform", "log", "blom"):
    w = rz.weights_by_name(scheme, N)
    print(f"{scheme:8s} w+ = {np.round(w.w_plus, 4)}  "
          f"min/max ratio = {rz.weight_ratio(w):.4f}")

wb, wl = rz.weights_by_name("blom", N), rz.weights_by_name("log", N)
corr = np.corrcoef(wb.w_plus, wl.w_plus)[0, 1]
print(f"\ncorrelation(blom, log) over the best quartile: {corr:.5f}")

print("\nconvergence with each scheme on the same quadratic:")
obj = rz.make_quadratic(d=32, mu=1.0, L=10.0, seed=7)
for scheme in ("uniform", "log", "blom"):
    cfg = rz.RunConfig(n=16, iterations=1500, scheme=scheme, seed=5)
    trace = rz.run(obj, cfg)
    print(f"  {scheme:8s} final gap = {trace.final_gap:.3e} "
          f"({trace.total_queries} queries)")
