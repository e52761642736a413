"""Kernel regularized least squares with localization and subsampling.

The package splits into a small estimator library (kernels, exact and
Nystrom-subsampled KRLS, partition-localized variants, a
distributed-averaging baseline), the parameter schedules and spectral
diagnostics that go with them, synthetic tasks of known smoothness and
capacity, and an experiment harness that measures convergence-rate
exponents and fit cost.
"""

from .exceptions import (
    ContractError,
    DomainError,
    EmptyInputError,
    IllConditionedError,
)
from .kernels import (
    KernelSpec,
    brownian,
    cross_gram,
    eval_kernel,
    gaussian,
    gram,
    kernel_bound,
    laplacian,
    polynomial,
)
from .linalg import EigenDecomposition, eigh, pinv_solve, spd_solve
from .krls import KrlsModel, fit_krls
from .nystrom import NystromModel, fit_nystrom, sample_landmarks
from .partition import (
    CellStats,
    Partition,
    assign,
    build_grid_partition,
    build_voronoi_partition,
    grid_cell_bounds,
    split_dataset,
)
from .localized import (
    DistributedAverageModel,
    LocalizedModel,
    ZeroModel,
    cell_seed,
    direct_sum_gram,
    fit_distributed_average,
    fit_localized,
    fit_localized_nystrom,
)
from .theory import (
    ModelParams,
    b_quantity,
    effective_dimension,
    effective_dimension_from_spectrum,
    effective_dimension_sum_check,
    l_schedule,
    lambda_schedule,
    local_dimension_diagnostic,
    m_schedule,
    n0_sufficient,
    rate_exponent,
)
from .synth import (
    NoiseSpec,
    PiecewiseTarget,
    SobolevTarget,
    SyntheticTask,
    cellwise_mse,
    gen_inputs,
    make_piecewise_target,
    make_sobolev_target,
    mercer_eigenvalues,
    mise_estimate,
    piecewise_task,
    sample_labels,
    sobolev_task,
)
from .harness import (
    CSV_HEADER,
    ESTIMATORS,
    ExperimentConfig,
    RateReport,
    Row,
    TimingRow,
    TimingTable,
    emit_report,
    fit_estimator,
    fit_loglog_slope,
    mean_mise_curve,
    paired_contrast,
    parse_report,
    row_seeds,
    run_improved_bound_experiment,
    run_rate_experiment,
    run_timing_benchmark,
    schedule_values,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
