"""Random walks on combs: exact kernels, samplers, collision statistics."""

from ._native import BuildError
from .graphs import (Ball, BiasedLadder, BudgetError, Graph, GraphError,
                     Product, Star, ball, build_graph)
from .oracle import (Kernel, KernelSeries, OracleError, SparseDistribution,
                     identity_check_suite, meeting_expectation_series,
                     per_site_collision_series, return_probability_series,
                     transition_vector)
from .rng import RngStream
from .sampler import (PairTrajectorySummary, RecordPolicy, SimulationError,
                      SummaryBlock, clock_dichotomy_violations,
                      dyadic_checkpoints, geometric_clock_path, read_summaries,
                      run_ensemble, run_pair, sample_marginal, write_summaries)
from .stats import (DriftEstimate, DyadicCellStats, ExponentFit, GrowthCurve,
                    StatsError, conditional_W, drift_estimate,
                    dyadic_collision_stats, estimate_exponent,
                    lil_envelope_check, lil_threshold, meeting_growth_curve)

__version__ = "0.1.0"
