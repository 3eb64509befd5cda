"""Crowd label aggregation, Dawid-Skene inference, finite-sample error
bounds and a seeded experiment harness."""

from .core import (
    AssignmentModel,
    DecomposableRule,
    DimensionMismatch,
    DomainError,
    EmptyMatrix,
    LabelMatrix,
    LabelSet,
    LengthMismatch,
    NotBinary,
    Prior,
    WorkerModel,
    argmax_labels,
    error_rate,
    posterior,
)
from .simulate import (
    RejectionBudgetExceeded,
    SimConfig,
    SimOutput,
    derive_rng,
    make_misspecified_dataset,
    sample_workers_beta,
    simulate_dataset,
)
from .aggregate import (
    IwmvResult,
    WeightLengthMismatch,
    bound_optimal_weights,
    decomposable_predict,
    hyperplane_predict,
    iwmv,
    majority_vote,
    one_step_wmv,
    oracle_map_predict,
    oracle_map_weights_hds,
    weighted_majority_vote,
)
from .em import EmConfig, EmResult, em_fit, em_fit_many, em_map_predict
from .bounds import (
    BoundReport,
    ScoreQuantities,
    bernoulli_kl,
    binary_entropy,
    confidence_thresholds,
    high_probability_bound,
    mean_error_bounds,
    mv_bounds_hds,
    one_step_wmv_bound,
    per_item_bounds,
    quantities_hyperplane,
    quantities_wmv_hds,
    score_quantities,
    unnormalized_gaussian,
)
from .harness import (
    DatasetSummary,
    DuplicateLabel,
    ExperimentConfig,
    ParseError,
    ResultRow,
    UnknownLabel,
    load_labels,
    load_truth,
    run_experiment,
    subsample_labels,
    summarize_dataset,
    summarize_rows,
    write_results,
)

__version__ = "0.1.0"
