"""Experiment configuration: the INI keys, the methods, the two presets of
the testbed problems, and load-time validation.

KEYS is the one table of INI keys.  Each row maps a (section, key) to an
ExperimentConfig field and the converter of its text; loading, the rejection
of unknown sections and keys, and the reference cache key all read it.
METHODS is the one table of methods: each name maps to its smoother, whether
it is stratified, and the field that holds its per-level warmup.

A config checks itself by building every object a run will use: the model,
the input law, the node grid, the mesh hierarchy and, for every planned run,
its stratification, its RunConfig at every tolerance and that run's smoother.
Each of them rejects the settings it cannot use, so a config that cannot run
fails when it is loaded, not hours into a run.  Its error names the INI
section the object reads and, for a run's settings, the method, the tolerance
and the keys the message is about.  Only the checks that no single object
owns are made here.
"""

import configparser
import re
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace

from .cdf import NodeGrid
from .estimators import RunConfig
from .inputs import TruncatedLognormal, build_equal_width_strata
from .models import MeshHierarchy, ModelSpec, burgers_max_speed, model_by_name


def _list_of(conv):
    """Converter of a comma-separated list key."""
    return lambda raw: tuple(conv(tok.strip()) for tok in raw.split(",") if tok.strip())


# (section, key, ExperimentConfig field, converter), in the README's order
KEYS = (
    ("experiment", "model", "model", str),
    ("experiment", "eps", "eps_values", _list_of(float)),
    ("experiment", "methods", "methods", _list_of(str)),
    ("experiment", "strata", "strata_counts", _list_of(int)),
    ("experiment", "n_real", "n_real", int),
    ("experiment", "seed", "seed", int),
    ("experiment", "out", "out", str),
    ("model", "m0", "m0", int),
    ("model", "refinement", "refinement", int),
    ("model", "l_star", "l_star", int),
    ("model", "final_time", "final_time", float),
    ("model", "domain_length", "domain_length", float),
    ("model", "qoi_scale", "qoi_scale", float),
    ("model", "cfl", "cfl", float),
    ("distribution", "mu", "mu", float),
    ("distribution", "sigma", "sigma", float),
    ("distribution", "w_lo", "w_lo", float),
    ("distribution", "w_hi", "w_hi", float),
    ("grid", "a", "grid_a", float),
    ("grid", "b", "grid_b", float),
    ("grid", "s_count", "grid_s", int),
    ("warmup", "plain", "warmup_plain", int),
    ("warmup", "smoothed", "warmup_smoothed", int),
    ("warmup", "stratified_plain", "warmup_strat_plain", int),
    ("warmup", "stratified_smoothed", "warmup_strat_smoothed", int),
    ("smoothing", "degree", "giles_degree", int),
    ("smoothing", "calibration_fraction", "calibration_fraction", float),
    ("sampling", "safety", "sampling_safety", float),
    ("sampling", "min_stratum_samples", "min_stratum_samples", int),
    ("reference", "mesh_refine", "ref_mesh_refine", int),
    ("reference", "quad_cells", "ref_quad_cells", int),
    ("reference", "quad_points", "ref_quad_points", int),
    ("reference", "time_coarsen", "ref_time_coarsen", float),
)

_SCHEMA = {section: {k for s, k, _, _ in KEYS if s == section} for section, *_ in KEYS}


@dataclass(frozen=True)
class MethodSpec:
    smoother: str     # none | giles | kde
    stratified: bool  # runs once per configured stratum count
    warmup: str       # the ExperimentConfig field of its per-level warmup


# in protocol order; mc sizes itself from the mlmc run, so its warmup is unused
METHODS = {
    "mlmc": MethodSpec("none", False, "warmup_plain"),
    "mc": MethodSpec("none", False, "warmup_plain"),
    "mlmc_giles": MethodSpec("giles", False, "warmup_smoothed"),
    "mlmc_kde": MethodSpec("kde", False, "warmup_smoothed"),
    "smlmc": MethodSpec("none", True, "warmup_strat_plain"),
    "smlmc_kde": MethodSpec("kde", True, "warmup_strat_smoothed"),
}


@contextmanager
def _located(where: str, keys=None):
    """Re-raise a ValueError prefixed with where it comes from and the
    "[section] key" of each name in keys (with _ or space) its message names."""
    try:
        yield
    except ValueError as exc:
        named = [f"[{section}] {key}" for name, (section, key) in (keys or {}).items()
                 if re.search(r"\b%s\b" % name.replace("_", "[_ ]"), str(exc))]
        raise ValueError(", ".join([where, *named]) + f": {exc}") from exc


def run_tag(method: str, r: int) -> str:
    """The name of a planned run in output files: stratified methods carry
    their stratum count."""
    return f"{method}_r{r}" if METHODS[method].stratified else method


@dataclass(frozen=True)
class ExperimentConfig:
    model: str
    eps_values: tuple
    methods: tuple
    strata_counts: tuple
    n_real: int
    seed: int
    out: str
    m0: int
    refinement: int
    l_star: int
    final_time: float
    domain_length: float
    qoi_scale: float
    cfl: float
    mu: float
    sigma: float
    w_lo: float
    w_hi: float
    grid_a: float
    grid_b: float
    grid_s: int
    warmup_plain: int
    warmup_smoothed: int
    warmup_strat_plain: int
    warmup_strat_smoothed: int
    giles_degree: int
    calibration_fraction: float
    sampling_safety: float
    min_stratum_samples: int
    ref_mesh_refine: int
    ref_quad_cells: int
    ref_quad_points: int
    ref_time_coarsen: float

    def __post_init__(self):
        unknown = set(self.methods) - set(METHODS)
        if unknown:
            raise ValueError(f"unknown methods: {sorted(unknown)}")
        if "mc" in self.methods and "mlmc" not in self.methods:
            raise ValueError("the mc comparison reuses plain mlmc samples; add mlmc")
        if self.n_real < 1:
            raise ValueError("n_real must be at least 1")
        # each object a run uses rejects the settings it cannot use
        with _located("[model]"):
            spec = self.model_spec()
            self.hierarchy()
        with _located("[distribution]"):
            self.distribution()
        with _located("[grid]"):
            self.node_grid()
        for method, r in self.run_plan():
            with _located("[experiment] strata"):
                self.stratification(r)
            for eps in self.eps_values:
                with _located(f"{method} at eps {eps}", self._run_keys(method)):
                    cfg = self.run_config(method, eps, 0)
                with _located(f"{method}, [smoothing] degree"):
                    cfg.make_smoother()
            if self.warmup_for(method) < r * self.min_stratum_samples:
                raise ValueError(
                    f"{method} warmup {self.warmup_for(method)} cannot give "
                    f"{self.min_stratum_samples} sample(s) to each of {r} strata"
                )
        if self.model == "burgers":
            bound = burgers_max_speed(spec.inflow, spec.outflow)
            if max(abs(self.w_lo), abs(self.w_hi)) > bound:
                raise ValueError(
                    f"Burgers plateau support [{self.w_lo}, {self.w_hi}] exceeds the "
                    f"wave-speed bound {bound} of the boundary states"
                )

    # -- derived objects ---------------------------------------------------

    def model_spec(self) -> ModelSpec:
        base = model_by_name(self.model)
        return replace(base, final_time=self.final_time,
                       domain_length=self.domain_length,
                       qoi_scale=self.qoi_scale, cfl=self.cfl)

    def distribution(self) -> TruncatedLognormal:
        return TruncatedLognormal(self.mu, self.sigma, self.w_lo, self.w_hi)

    def node_grid(self) -> NodeGrid:
        return NodeGrid(self.grid_a, self.grid_b, self.grid_s)

    def hierarchy(self) -> MeshHierarchy:
        return MeshHierarchy(m0=self.m0, factor=self.refinement, l_star=self.l_star)

    def stratification(self, r: int):
        return build_equal_width_strata(self.distribution(), r)

    def warmup_for(self, method: str) -> int:
        return getattr(self, METHODS[method].warmup)

    def run_config(self, method: str, eps: float, run_idx: int) -> RunConfig:
        """The settings of one run of a method: realization run_idx at eps."""
        return RunConfig(
            eps=eps,
            l_star=self.l_star,
            warmup=self.warmup_for(method),
            smoother=METHODS[method].smoother,
            giles_degree=self.giles_degree,
            seed=self.seed + run_idx,
            sampling_safety=self.sampling_safety,
            calibration_fraction=self.calibration_fraction,
            min_stratum_samples=self.min_stratum_samples,
        )

    def _run_keys(self, method: str) -> dict:
        """(section, key) of the INI setting behind each field of a method's
        RunConfig."""
        at = {field: (section, key) for section, key, field, _ in KEYS}
        at.update(eps=at["eps_values"], warmup=at[METHODS[method].warmup])
        return {f.name: at[f.name] for f in fields(RunConfig) if f.name in at}

    def run_plan(self) -> list:
        """Expanded (method, strata) run matrix in protocol order."""
        return [(method, r) for method, spec in METHODS.items() if method in self.methods
                for r in (self.strata_counts if spec.stratified else (1,))]


_DIFFUSION = ExperimentConfig(
    model="diffusion",
    eps_values=(0.01, 0.008, 0.005),
    methods=tuple(METHODS),
    strata_counts=(8, 16),
    n_real=50,
    seed=0,
    out="results",
    m0=16,
    refinement=2,
    l_star=7,
    final_time=0.2,
    domain_length=4.0,
    qoi_scale=10.0,
    cfl=0.9,
    mu=3.0,
    sigma=3.0,
    w_lo=1.0,
    w_hi=4.0,
    grid_a=14.0,
    grid_b=28.0,
    grid_s=28,
    warmup_plain=200,
    warmup_smoothed=50,
    warmup_strat_plain=200,
    warmup_strat_smoothed=50,
    giles_degree=3,
    calibration_fraction=0.15,
    sampling_safety=2.5,
    min_stratum_samples=2,
    ref_mesh_refine=4,
    ref_quad_cells=4096,
    ref_quad_points=8,
    ref_time_coarsen=4.0,
)

_BURGERS = replace(
    _DIFFUSION,
    model="burgers",
    m0=32,
    final_time=0.5,
    domain_length=2.0,
    mu=1.5,
    sigma=1.0,
    w_lo=0.0,
    w_hi=2.0,
    grid_a=15.0,
    grid_b=65.0,
    grid_s=100,
    ref_quad_cells=1024,
    ref_time_coarsen=1.0,
)

PRESETS = {"diffusion": _DIFFUSION, "burgers": _BURGERS}


def preset(name: str) -> ExperimentConfig:
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    return PRESETS[name]


def load_config(path: str) -> ExperimentConfig:
    """Read an INI config; the [experiment] model key selects the preset whose
    values any other key overrides.  Unknown sections or keys are errors."""
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ValueError(f"cannot read config file {path!r}")
    # the retired work-model key: the benchmark's generated INI still writes
    # "deterministic", the one model left, so that value is ignored; this
    # check goes once bench/workloads.py write_ini drops the line
    if parser.has_option("experiment", "work_model"):
        if parser["experiment"]["work_model"] != "deterministic":
            raise ValueError("[experiment] work_model: the deterministic work model "
                             "is the only one")
        parser.remove_option("experiment", "work_model")
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ValueError(f"unknown config section [{section}]")
        unknown = set(parser[section]) - _SCHEMA[section]
        if unknown:
            raise ValueError(f"unknown keys in [{section}]: {sorted(unknown)}")
    if not parser.has_option("experiment", "model"):
        raise ValueError("config needs [experiment] with a model key")
    return replace(preset(parser["experiment"]["model"]), **{
        field: conv(parser[section][key])
        for section, key, field, conv in KEYS if parser.has_option(section, key)
    })
