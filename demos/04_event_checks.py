"""Monte-Carlo verification of the high-probability events and bounds.

The convergence analysis rests on a handful of per-iteration events
(remainder control E1, spectral control E2, inner-product control E3,
quartile-boundary control E4/E5) plus classical probability bounds
(Chernoff, Gaussian max, chi-square tail, spectral norm, order
statistic tails).  Each checker replays the defining random experiment
and compares the observed failure rate against the stated bound at a
3-sigma binomial tolerance.

This is a reduced-trials version of the full suite that the CLI runs
with ``rankzo verify``.
"""

import numpy as np

import rankzo as rz
from rankzo.sampling import new_generator
from rankzo.theory import (P_TAIL_EXACT, c_N_d_delta, c_d_delta, floors,
                           instrumented_alpha, kl_bernoulli, rho)

# a state on an instrumented quadratic, with the smoothing radius at the
# regime bound ||grad|| / (4 L C_d)
d, n, delta = 50, 32, 0.1
obj = rz.make_quadratic(d, 1.0, 10.0, seed=3)
x = obj.x_star + new_generator(909).standard_normal(d)
gnorm = float(np.linalg.norm(obj.grad(x)))
alpha = instrumented_alpha(gnorm, obj.L, c_d_delta(d, delta))
setup = rz.EventSetup(obj=obj, x=x, alpha=alpha, n=n, delta=delta)

print(f"{'check':12s} {'trials':>7s} {'empirical':>10s} {'bound':>10s}  pass")
for event in ("E1", "E2", "E3", "E4", "E5"):
    r = rz.check_event(event, setup, trials=2000, rng=new_generator(11))
    print(f"{r.event_id:12s} {r.trials:7d} {r.empirical_failure_rate:10.3g} "
          f"{r.theoretical_bound:10.3g}  {r.passed}")

for which in ("chernoff", "gauss_max", "chi2", "spectral",
              "order_low1", "order_low2"):
    r = rz.check_appendix_bounds(which, None, trials=5000, rng=new_generator(12))
    print(f"{r.event_id:12s} {r.trials:7d} {r.empirical_failure_rate:10.3g} "
          f"{r.theoretical_bound:10.3g}  {r.passed}")

print("\nconstants at (n=32, d=100, delta=0.1, L=10, mu=1, alpha=1e-4):")
floor_sc, floor_nc = floors(32, 100, 0.1, L=10.0, alpha=1e-4)
print(f"  C_d          = {c_d_delta(100, 0.1):.4f}")
print(f"  C_N          = {c_N_d_delta(32, 100, 0.1):.4f}")
print(f"  tail p       = {P_TAIL_EXACT:.6f}  (exact 1 - Phi(2))")
print(f"  D(1/4 || p)  = {kl_bernoulli(0.25, P_TAIL_EXACT):.6f}")
print(f"  rho          = {rho(32, 100, 0.1, mu=1.0, L=10.0):.3e}")
print(f"  floors       = {floor_sc:.3e} (sc), {floor_nc:.3e} (nc)")
