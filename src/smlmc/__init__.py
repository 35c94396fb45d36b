"""CDF estimation for PDEs with one random input: standard, multilevel, and
stratified multilevel Monte Carlo with optional indicator smoothing."""

from .cdf import CdfEstimate, NodeGrid, reference_cdf, sup_distance
from .config import ExperimentConfig, load_config, preset
from .cost import aggregate, comparison_table
from .estimators import (
    McResult,
    MultilevelResult,
    RunConfig,
    SampleBank,
    mc_sample_count,
    required_samples_smlmc,
    run_mc,
    run_mlmc,
    run_smlmc,
    stopping_check,
)
from .inputs import (
    Stratification,
    TruncatedLognormal,
    build_equal_width_strata,
    proportional_allocation,
)
from .models import MeshHierarchy, ModelSpec
from .smoothing import (
    GaussianKernelCdf,
    GilesPolynomial,
    build_giles_polynomial,
    calibrate_bandwidth,
)

__version__ = "0.1.0"
