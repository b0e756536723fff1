"""Value-based baseline and the negative-sample ablation.

Two comparisons on the same quadratic:

1. rank-based vs a classic two-point value-based estimator (the
   baseline sees function *values*; the rank method only orderings);
2. the full scheme vs an ablation that keeps only the best-quartile
   directions - discarding the worst-quartile "push-away" information
   roughly doubles the queries needed.
"""

from dataclasses import replace

import numpy as np

import rankzo as rz
from rankzo.bench import queries_to_target
from rankzo.optimizer import baseline_value_zo

obj = rz.make_quadratic(d=32, mu=1.0, L=10.0, seed=7)
eps_rel = 1e-4
seeds = range(100, 106)


def med(fn, cfg):
    qs = []
    for s in seeds:
        trace = fn(obj, replace(cfg, seed=s))
        q = queries_to_target(trace, eps_rel)
        qs.append(q if q is not None else np.inf)
    return float(np.median(qs))


rank_cfg = rz.RunConfig(n=16, iterations=12_000, eps_target=eps_rel,
                        step=rz.StepPolicy("backtracking", eta0=1.0,
                                           shrink=0.5, max_tries=60),
                        alpha=rz.AlphaPolicy("fixed", alpha0=1e-3))
value_cfg = rz.RunConfig(n=16, iterations=40_000, eps_target=eps_rel,
                         alpha=rz.AlphaPolicy("fixed", alpha0=1e-3))

q_rank = med(rz.run, rank_cfg)
q_value = med(baseline_value_zo, value_cfg)
q_pos = med(rz.run, replace(rank_cfg, positive_only=True))

print(f"median queries to {eps_rel:g} x initial gap over {len(list(seeds))} seeds:")
print(f"  rank-based (full)        : {q_rank:8.0f}")
print(f"  value-based two-point    : {q_value:8.0f}   (ratio recorded, not asserted)")
print(f"  rank-based positive-only : {q_pos:8.0f}   "
      f"({q_pos / q_rank:.2f}x the full scheme)")
