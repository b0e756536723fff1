"""Scaling experiments: queries to target vs dimension and conditioning.

Runs a small grid (two dimensions x two condition numbers, several
seeds) in the practical backtracking regime, reports median queries to
a relative target next to the theoretical (T, Q, N) prediction, and
prints the observed scaling ratios.  The headline laws are: queries
grow about linearly in d and in the condition number.
"""

import rankzo as rz
from rankzo.bench import ExperimentGrid, GridCell, run_grid

cfg = rz.RunConfig(
    n=16, iterations=20_000, seed=0,
    step=rz.StepPolicy("backtracking", eta0=1.0, shrink=0.5, max_tries=60),
    alpha=rz.AlphaPolicy("fixed", alpha0=1e-3),
)

cells = [
    GridCell(config_id=f"d{d}_k{int(kappa)}", d=d, mu=1.0, L=kappa, config=cfg)
    for d in (16, 64) for kappa in (10.0,)
]

grid = ExperimentGrid(cells=cells, seeds=list(range(100, 106)), eps_rel=1e-4)
rows, summary = run_grid(grid)

print(f"{'cell':10s} {'median Q':>9s} {'predicted T':>12s} {'predicted Q':>12s}")
for cid, cell in summary["cells"].items():
    pred = cell["predicted"]
    print(f"{cid:10s} {cell['median_queries_to_target']:9.0f} "
          f"{pred['t']:12d} {pred['q']:12d}")

q16 = summary["cells"]["d16_k10"]["median_queries_to_target"]
q64 = summary["cells"]["d64_k10"]["median_queries_to_target"]
print(f"\nQ(d=64) / Q(d=16) = {q64 / q16:.2f}   (about 4 expected: linear in d)")
print("predictions use unit constants, so compare growth rates, not levels")
