"""Experiment configuration: the INI keys, the methods, the two presets of
the testbed problems, and load-time validation.

Each ExperimentConfig field is declared once, with its INI (section, key)
and its diffusion-preset value.  KEYS, the table of INI keys, is read off
those fields: each row maps a (section, key) to a field and the converter of
its text; loading, the rejection of unknown sections and keys, and the
reference cache key all read it.
METHODS is the one table of methods: each name maps to its smoother and
whether it is stratified.  A method's per-level warmup follows its smoother
alone: WARMUP_PLAIN without one, WARMUP_SMOOTHED with one.

A config checks itself by building every object a run will use: the model,
the input law, the node grid, the mesh hierarchy and, for every planned run,
its stratification and its RunConfig at every tolerance.
Each of them rejects the settings it cannot use, so a config that cannot run
fails when it is loaded, not hours into a run.  Its error names the INI
section the object reads and, for a run's settings, the method, the tolerance
and the keys the message is about.  Only the checks that no single object
owns are made here.
"""

import configparser
import math
import re
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace

from .cdf import NodeGrid
from .estimators import MIN_STRATUM_SAMPLES, RunConfig
from .inputs import TruncatedLognormal, build_equal_width_strata
from .models import BURGERS_INFLOW, MeshHierarchy, ModelSpec


def _list_of(conv):
    """Converter of a comma-separated list key."""
    return lambda raw: tuple(conv(tok.strip()) for tok in raw.split(",") if tok.strip())


def _ini(section: str, key: str, default, conv=None):
    """A config field: the INI (section, key) that sets it, its
    diffusion-preset value and, for a list key, its converter."""
    return field(default=default, metadata={"ini": (section, key), "conv": conv})


@dataclass(frozen=True)
class MethodSpec:
    smoother: str     # none | giles | kde
    stratified: bool  # runs once per configured stratum count


# in protocol order; mc sizes itself from the mlmc run, so its warmup is unused
METHODS = {
    "mlmc": MethodSpec("none", False),
    "mc": MethodSpec("none", False),
    "mlmc_giles": MethodSpec("giles", False),
    "mlmc_kde": MethodSpec("kde", False),
    "smlmc": MethodSpec("none", True),
    "smlmc_kde": MethodSpec("kde", True),
}

# per-level warmup samples: a method's warmup follows its smoother, plain
# without one, smoothed with one (giles, kde), stratified or not
WARMUP_PLAIN = 200
WARMUP_SMOOTHED = 50

# the INI (section, key) of each RunConfig field a config sets
_RUN_KEYS = {"eps": ("experiment", "eps"), "seed": ("experiment", "seed")}


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


def eps_tag(eps: float) -> str:
    """The name of a tolerance in output files, to six significant digits."""
    return f"eps{eps:g}"


def run_tag(method: str, r: int) -> str:
    """The name of a planned run in output files: stratified methods carry
    their stratum count."""
    return f"{method}_r{r}" if METHODS[method].stratified else method


@dataclass(frozen=True)
class ExperimentConfig:
    model: str = _ini("experiment", "model", "diffusion")
    eps_values: tuple = _ini("experiment", "eps", (0.01, 0.008, 0.005), _list_of(float))
    methods: tuple = _ini("experiment", "methods", tuple(METHODS), _list_of(str))
    strata_counts: tuple = _ini("experiment", "strata", (8, 16), _list_of(int))
    n_real: int = _ini("experiment", "n_real", 50)
    seed: int = _ini("experiment", "seed", 0)
    out: str = _ini("experiment", "out", "results")
    m0: int = _ini("model", "m0", 16)
    l_star: int = _ini("model", "l_star", 7)
    final_time: float = _ini("model", "final_time", 0.2)
    domain_length: float = _ini("model", "domain_length", 4.0)
    cfl: float = _ini("model", "cfl", 0.9)
    mu: float = _ini("distribution", "mu", 3.0)
    sigma: float = _ini("distribution", "sigma", 3.0)
    w_lo: float = _ini("distribution", "w_lo", 1.0)
    w_hi: float = _ini("distribution", "w_hi", 4.0)
    grid_a: float = _ini("grid", "a", 14.0)
    grid_b: float = _ini("grid", "b", 28.0)
    grid_s: int = _ini("grid", "s_count", 28)
    ref_mesh_refine: int = _ini("reference", "mesh_refine", 4)
    ref_quad_cells: int = _ini("reference", "quad_cells", 4096)
    # the reference oracle's Gauss-Legendre points per input cell and its
    # diffusion time-step relaxation: constants, not fields (the Burgers
    # march ignores the relaxation); bench/workloads.py reads both
    ref_quad_points = 8
    ref_time_coarsen = 4.0

    def __post_init__(self):
        # the halving check builds the reference again at quad_cells // 2
        if self.ref_quad_cells < 2:
            raise ValueError("[reference] quad_cells must be at least 2: the halving "
                             "check compares it with quad_cells // 2")
        for f in fields(self):
            section, key = f.metadata["ini"]
            value = getattr(self, f.name)
            # nan and inf get past checks such as value <= 0 and fail mid-run
            items = value if f.metadata["conv"] else (value,)
            if any(isinstance(v, float) and not math.isfinite(v) for v in items):
                raise ValueError(f"[{section}] {key} must be finite, not {value}")
            if f.metadata["conv"] and (not value or len(set(value)) < len(value)):
                raise ValueError(f"[{section}] {key} must list each value once, "
                                 f"and at least one: {value}")
            # the reference oracle's settings, which no object of a run reads
            if section == "reference" and not value > 0:
                raise ValueError(f"[{section}] {key} must be positive, not {value}")
        # two tolerances with one name would write over each other's reports
        named = {}
        for eps in self.eps_values:
            other = named.setdefault(eps_tag(eps), eps)
            if other != eps:
                raise ValueError(f"[experiment] eps {other} and {eps} both name their "
                                 f"report files {eps_tag(eps)}")
        unknown = set(self.methods) - set(METHODS)
        if unknown:
            raise ValueError(f"unknown methods: {sorted(unknown)}")
        if "mc" in self.methods and "mlmc" not in self.methods:
            raise ValueError("the mc comparison reuses plain mlmc samples; add mlmc")
        if self.n_real < 1:
            raise ValueError("n_real must be at least 1")
        # each object a run uses rejects the settings it cannot use
        with _located("[model]"):
            self.model_spec()
            self.hierarchy()
        with _located("[distribution]"):
            self.distribution()
        with _located("[grid]"):
            self.node_grid()
        for method, r in self.run_plan():
            with _located("[experiment] strata"):
                self.stratification(r)
            for eps in self.eps_values:
                with _located(f"{method} at eps {eps}", _RUN_KEYS):
                    cfg = self.run_config(method, eps, 0)
            if cfg.warmup < r * MIN_STRATUM_SAMPLES:
                raise ValueError(f"[experiment] strata: {method} takes {cfg.warmup} "
                                 f"warmup samples a level, too few to give "
                                 f"{MIN_STRATUM_SAMPLES} to each of {r} strata")
        if self.model == "burgers" and max(abs(self.w_lo), abs(self.w_hi)) > BURGERS_INFLOW:
            raise ValueError(
                f"Burgers plateau support [{self.w_lo}, {self.w_hi}] exceeds the "
                f"wave-speed bound {BURGERS_INFLOW}, the inflow state"
            )

    # -- derived objects ---------------------------------------------------

    def model_spec(self) -> ModelSpec:
        return ModelSpec(self.model, self.final_time, self.domain_length, self.cfl)

    def distribution(self) -> TruncatedLognormal:
        return TruncatedLognormal(self.mu, self.sigma, self.w_lo, self.w_hi)

    def node_grid(self) -> NodeGrid:
        return NodeGrid(self.grid_a, self.grid_b, self.grid_s)

    def hierarchy(self) -> MeshHierarchy:
        return MeshHierarchy(m0=self.m0, l_star=self.l_star)

    def stratification(self, r: int):
        return build_equal_width_strata(self.distribution(), r)

    def run_config(self, method: str, eps: float, run_idx: int) -> RunConfig:
        """The settings of one run of a method: realization run_idx at eps."""
        smoother = METHODS[method].smoother
        return RunConfig(
            eps=eps,
            warmup=WARMUP_PLAIN if smoother == "none" else WARMUP_SMOOTHED,
            smoother=smoother,
            seed=self.seed + run_idx,
        )

    def run_plan(self) -> list:
        """Expanded (method, strata) run matrix in protocol order."""
        return [(method, r) for method, spec in METHODS.items() if method in self.methods
                for r in (self.strata_counts if spec.stratified else (1,))]


# (section, key, ExperimentConfig field, converter), in the README's order; a
# list key gives its converter, a scalar converts by its annotated type
KEYS = tuple((*f.metadata["ini"], f.name, f.metadata["conv"] or f.type)
             for f in fields(ExperimentConfig))

_SCHEMA = {section: {k for s, k, _, _ in KEYS if s == section} for section, *_ in KEYS}

_DIFFUSION = ExperimentConfig()

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
)

PRESETS = {"diffusion": _DIFFUSION, "burgers": _BURGERS}


def preset(name: str) -> ExperimentConfig:
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    return PRESETS[name]


def load_config(path: str) -> ExperimentConfig:
    """Read an INI config; the [experiment] model key selects the preset whose
    values any other key overrides.  Unknown sections or keys are errors."""
    parser = configparser.ConfigParser(interpolation=None)  # no key interpolates: % is text
    try:
        read = parser.read(path)
    except configparser.Error as exc:  # a repeated key or section, no section header
        raise ValueError(" ".join(str(exc).split())) from exc
    if not read:
        raise ValueError(f"cannot read config file {path!r}")
    # configparser copies [DEFAULT] keys into every section
    if parser.defaults():
        raise ValueError("unknown config section [DEFAULT]")
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
    values = {}
    for section, key, name, conv in KEYS:
        if parser.has_option(section, key):
            with _located(f"[{section}] {key}"):
                values[name] = conv(parser[section][key])
    return replace(preset(parser["experiment"]["model"]), **values)
