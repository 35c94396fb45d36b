"""CDF estimation for PDEs with one random input: standard, multilevel, and
stratified multilevel Monte Carlo with optional indicator smoothing."""

from .cdf import CdfEstimate, NodeGrid, indicator, reference_cdf, sup_distance
from .config import ExperimentConfig, load_config, preset
from .cost import CostLedger, aggregate, comparison_table
from .estimators import (
    McResult,
    MultilevelResult,
    RunConfig,
    mc_sample_count,
    required_samples_mlmc,
    required_samples_smlmc,
    run_mc,
    run_mlmc,
    run_smlmc,
    stopping_check,
)
from .inputs import (
    Stratification,
    StratumStats,
    TruncatedLognormal,
    build_equal_width_strata,
    optimal_allocation,
    proportional_allocation,
    sample_stratum,
)
from .models import (
    BURGERS,
    DIFFUSION,
    LevelPair,
    MeshHierarchy,
    ModelSpec,
    godunov_flux,
    solve_burgers,
    solve_diffusion,
    thomas_solve,
)
from .smoothing import (
    Bandwidth,
    GaussianKernelCdf,
    GilesPolynomial,
    build_giles_polynomial,
    calibrate_bandwidth,
    eval_gaussian_cdf,
    eval_giles,
    smoothed_term,
)

__version__ = "0.1.0"
