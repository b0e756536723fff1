"""rankzo: rank-based zeroth-order optimization.

A derivative-free optimizer that updates along a signed weighted
combination of the best- and worst-ranked Gaussian probe directions,
with interchangeable weight schemes (uniform / log / Blom), an
instrumented regime that follows the convergence analysis exactly, and
a Monte-Carlo verification suite for every probabilistic event and
constant the analysis relies on.
"""

from .objective import (Objective, MonotoneTransform, evaluate,
                        evaluate_batch, remainder, make_quadratic,
                        make_rosenbrock_like, wrap_monotone)
from .sampling import (QueryLedger, NonFiniteValueError, check_sample_size,
                       new_generator, sample_directions, rank_oracle,
                       selected_ranks)
from .weights import WeightVector, weights_by_name, weight_ratio
from .optimizer import (StepPolicy, AlphaPolicy, RunConfig, RunTrace,
                        StepRegimeError, OptimizationError,
                        descent_direction, instrumented_step_size,
                        practical_step, run, baseline_value_zo)
from .theory import (P_TAIL_EXACT, EventCheckReport, EventSetup, c_d_delta,
                     instrumented_alpha, c_N_d_delta, kl_bernoulli,
                     event_bound_E45, rho, floors, ComplexityPrediction,
                     predict_complexity, check_events, check_event,
                     check_appendix_bounds)
from .bench import (ExperimentGrid, GridCell, ResultRow, queries_to_target,
                    fit_log_gap_slope, run_grid, build_objective)

__version__ = "0.1.0"
