"""Experiment configuration: INI-style files, baked-in presets for the two
testbed problems, and strict validation (unknown keys are rejected)."""

import configparser
from dataclasses import dataclass, field, replace

from .cdf import NodeGrid
from .inputs import TruncatedLognormal, build_equal_width_strata
from .models import MeshHierarchy, ModelSpec, burgers_max_speed, model_by_name

KNOWN_METHODS = ("mc", "mlmc", "mlmc_giles", "mlmc_kde", "smlmc", "smlmc_kde")

_SCHEMA = {
    "experiment": {"model", "eps", "methods", "strata", "n_real", "seed",
                   "work_model", "out"},
    "model": {"m0", "refinement", "l_star", "final_time", "domain_length",
              "qoi_scale", "cfl"},
    "distribution": {"mu", "sigma", "w_lo", "w_hi"},
    "grid": {"a", "b", "s_count"},
    "warmup": {"plain", "smoothed", "stratified_plain", "stratified_smoothed"},
    "smoothing": {"degree", "calibration_fraction"},
    "sampling": {"safety", "batch_size", "min_stratum_samples"},
    "reference": {"mesh_refine", "quad_cells", "quad_points", "time_coarsen"},
}


@dataclass(frozen=True)
class ExperimentConfig:
    model: str
    eps_values: tuple
    methods: tuple
    strata_counts: tuple
    n_real: int
    seed: int
    work_model: str
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
    batch_size: int
    min_stratum_samples: int
    ref_mesh_refine: int
    ref_quad_cells: int
    ref_quad_points: int
    ref_time_coarsen: float

    def __post_init__(self):
        if self.model not in ("diffusion", "burgers"):
            raise ValueError(f"unknown model preset {self.model!r}")
        unknown = set(self.methods) - set(KNOWN_METHODS)
        if unknown:
            raise ValueError(f"unknown methods: {sorted(unknown)}")
        if "mc" in self.methods and "mlmc" not in self.methods:
            raise ValueError("the mc comparison reuses plain mlmc samples; add mlmc")
        if self.work_model not in ("deterministic", "wallclock"):
            raise ValueError(f"unknown work model {self.work_model!r}")
        if any(e <= 0 for e in self.eps_values):
            raise ValueError("tolerances must be positive")
        if self.n_real < 1:
            raise ValueError("n_real must be at least 1")
        if any(r < 1 for r in self.strata_counts):
            raise ValueError("strata counts must be positive")
        spec = self.model_spec()  # rejects [model] cfl outside (0, 1]
        if self.grid_s < 3:
            raise ValueError("[grid] s_count must be at least 3: the CDF spline "
                             "needs four nodes")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.min_stratum_samples < 1:
            raise ValueError("min_stratum_samples must be at least 1")
        warmups = (self.warmup_plain, self.warmup_smoothed,
                   self.warmup_strat_plain, self.warmup_strat_smoothed)
        if min(warmups) < 2:
            raise ValueError("need at least two warmup samples per level")
        for method, r in self.run_plan():
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
        return {
            "mc": self.warmup_plain,  # unused: mc sizes itself from the mlmc run
            "mlmc": self.warmup_plain,
            "mlmc_giles": self.warmup_smoothed,
            "mlmc_kde": self.warmup_smoothed,
            "smlmc": self.warmup_strat_plain,
            "smlmc_kde": self.warmup_strat_smoothed,
        }[method]

    def run_plan(self) -> list:
        """Expanded (method, strata) run matrix in protocol order."""
        plan = []
        for method in ("mlmc", "mc", "mlmc_giles", "mlmc_kde"):
            if method in self.methods:
                plan.append((method, 1))
        for method in ("smlmc", "smlmc_kde"):
            if method in self.methods:
                for r in self.strata_counts:
                    plan.append((method, r))
        return plan


_DIFFUSION = ExperimentConfig(
    model="diffusion",
    eps_values=(0.01, 0.008, 0.005),
    methods=KNOWN_METHODS,
    strata_counts=(8, 16),
    n_real=50,
    seed=0,
    work_model="deterministic",
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
    batch_size=32768,
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


def _parse_list(raw: str, conv):
    return tuple(conv(tok.strip()) for tok in raw.split(",") if tok.strip())


def load_config(path: str) -> ExperimentConfig:
    """Read an INI config; the [experiment] model key selects the preset whose
    values any other key overrides.  Unknown sections or keys are errors."""
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ValueError(f"cannot read config file {path!r}")
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ValueError(f"unknown config section [{section}]")
        unknown = set(parser[section]) - _SCHEMA[section]
        if unknown:
            raise ValueError(f"unknown keys in [{section}]: {sorted(unknown)}")
    if "experiment" not in parser or "model" not in parser["experiment"]:
        raise ValueError("config needs [experiment] with a model key")
    cfg = preset(parser["experiment"]["model"])
    exp = parser["experiment"]
    updates = {}
    if "eps" in exp:
        updates["eps_values"] = _parse_list(exp["eps"], float)
    if "methods" in exp:
        updates["methods"] = _parse_list(exp["methods"], str)
    if "strata" in exp:
        updates["strata_counts"] = _parse_list(exp["strata"], int)
    scalar_map = [
        ("experiment", "n_real", int, "n_real"),
        ("experiment", "seed", int, "seed"),
        ("experiment", "work_model", str, "work_model"),
        ("experiment", "out", str, "out"),
        ("model", "m0", int, "m0"),
        ("model", "refinement", int, "refinement"),
        ("model", "l_star", int, "l_star"),
        ("model", "final_time", float, "final_time"),
        ("model", "domain_length", float, "domain_length"),
        ("model", "qoi_scale", float, "qoi_scale"),
        ("model", "cfl", float, "cfl"),
        ("distribution", "mu", float, "mu"),
        ("distribution", "sigma", float, "sigma"),
        ("distribution", "w_lo", float, "w_lo"),
        ("distribution", "w_hi", float, "w_hi"),
        ("grid", "a", float, "grid_a"),
        ("grid", "b", float, "grid_b"),
        ("grid", "s_count", int, "grid_s"),
        ("warmup", "plain", int, "warmup_plain"),
        ("warmup", "smoothed", int, "warmup_smoothed"),
        ("warmup", "stratified_plain", int, "warmup_strat_plain"),
        ("warmup", "stratified_smoothed", int, "warmup_strat_smoothed"),
        ("smoothing", "degree", int, "giles_degree"),
        ("smoothing", "calibration_fraction", float, "calibration_fraction"),
        ("sampling", "safety", float, "sampling_safety"),
        ("sampling", "batch_size", int, "batch_size"),
        ("sampling", "min_stratum_samples", int, "min_stratum_samples"),
        ("reference", "mesh_refine", int, "ref_mesh_refine"),
        ("reference", "quad_cells", int, "ref_quad_cells"),
        ("reference", "quad_points", int, "ref_quad_points"),
        ("reference", "time_coarsen", float, "ref_time_coarsen"),
    ]
    for section, key, conv, attr in scalar_map:
        if section in parser and key in parser[section]:
            updates[attr] = conv(parser[section][key])
    return replace(cfg, **updates)
