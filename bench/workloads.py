"""Workloads of the benchmark: generated inputs, timed passes, output checks
and metrics.

``run.py`` imports this module in the worker process after putting ``src/``
on the import path; the import itself (numpy, scipy, smlmc) is part of the
measured set-up time.  The program is only called from outside: through
``smlmc.cli.main`` on a generated INI file, or through
``smlmc.cdf.reference_cdf`` on objects built from one.
"""

import contextlib
import json
import math
import re
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from smlmc import cdf as cdf_mod
from smlmc import cli, estimators, smoothing
from smlmc.cdf import CdfEstimate
from smlmc.config import load_config, preset
from smlmc.inputs import TruncatedLognormal
from smlmc.models import ModelSpec, diffusion_steps
from smlmc.smoothing import GaussianKernelCdf, GilesPolynomial

from hostspeed import HostProbe
from tracing import Target, Tracer, self_times

ROOT = Path(__file__).resolve().parents[1]
FROZEN_REFERENCE = ROOT / "tests" / "data" / "diffusion_reference.json"
SCRATCH = ROOT / ".bench_out"

STRATA = 8
ACCURACY_FACTOR = 3.0     # a run fails if its raw sup error exceeds this many eps
REFERENCE_BOUND = 5e-3    # reduced oracle against the frozen reference
REF_QUAD_CELLS = 64
REF_MESH_REFINE = 2       # 4096 cells: twice the finest level, a sixth of a run per build
SEED_STRIDE = 1000        # realization seeds of different --seed values never overlap
SWEEP_CELLS = 256
SWEEP_BATCHES = (128, 512, 2048, 8192)
SWEEP_MIN_S = 0.5         # repeat a sweep call until this much time, at most 5 times
LEVELS = range(8)
ALL_METHODS = ("mlmc", "mc", "mlmc_giles", "mlmc_kde", "smlmc", "smlmc_kde")
METHOD_TAGS = ("mlmc", "mc", "mlmc_giles", "mlmc_kde",
               f"smlmc_r{STRATA}", f"smlmc_kde_r{STRATA}")


@dataclass(frozen=True)
class Workload:
    name: str
    model: str
    unit_s: float            # seconds one unit (a realization or an oracle build)
                             # takes on the reference host; sizes a run to --seconds
    methods: tuple = ()      # CLI methods of a protocol run; empty for the oracle
    eps: float = 0.0         # tolerance of a protocol run
    l_star: int = 0          # level cap of a protocol run
    probe: tuple = ("rows",)  # host-probe kernels that track its solves best (README.md)

    def units(self, seconds: float) -> int:
        return max(1, int(seconds // self.unit_s))


# The tolerances and caps make every method of a protocol run end at the cap,
# so cost and time do not jump with the finest level a seed happens to reach
# (see README.md).
WORKLOADS = {w.name: w for w in (
    Workload("diffusion-protocol", "diffusion", 3.5, ALL_METHODS, eps=0.01, l_star=4),
    Workload("burgers-protocol", "burgers", 5.5, ALL_METHODS, eps=0.01, l_star=2,
             probe=("stream",)),
    Workload("diffusion-reference", "diffusion", 3.5, probe=("rows", "stream")),
)}


@dataclass
class Context:
    """What set-up builds: the preset objects and the reference CDF."""

    workload: Workload
    model: ModelSpec
    dist: TruncatedLognormal
    grid: cdf_mod.NodeGrid
    hierarchy: object
    reference: CdfEstimate


@dataclass
class Unit:
    """One estimator run (realization, method tag) or one oracle build."""

    key: tuple
    cost: float
    sup_err: float
    ok: bool
    report: dict


@dataclass
class PassResult:
    walls: list       # wall seconds of each realization or oracle build, probes excluded
    units: list
    spans: list
    bytes_written: int = 0
    slowdowns: list = field(default_factory=list)   # host slowdown during each wall
    probe: Optional[HostProbe] = None


@contextlib.contextmanager
def timing(probe: Optional[HostProbe], walls: list, slowdowns: list):
    """Yields a callable that times a call; with a probe, the host is sampled
    throughout and each wall comes with the slowdown the probe saw in it."""
    def timed(fn, *args, **kwargs):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        t1 = time.perf_counter()
        walls.append(t1 - t0 - (probe.paused(t0, t1) if probe else 0.0))
        if probe:
            slowdowns.append(probe.slowdown(t0, t1))
        return out

    with probe.sampling() if probe else contextlib.nullcontext():
        yield timed


def load_reference(exp, grid) -> CdfEstimate:
    if exp.model == "diffusion":
        payload = json.loads(FROZEN_REFERENCE.read_text())
        if not np.allclose(payload["nodes"], grid.nodes):
            raise ValueError("frozen reference nodes differ from the preset grid")
        return CdfEstimate(grid=grid, raw=np.asarray(payload["values"], dtype=float))
    # Burgers: shocks do not interact before t = 0.5, so Q(u1) = 20 + 10 u1 + 5 u1^2
    u1 = -1.0 + np.sqrt(np.maximum(grid.nodes / 5.0 - 3.0, 0.0))
    return CdfEstimate(grid=grid, raw=exp.distribution().cdf(u1))


def prepare(name: str) -> Context:
    wl = WORKLOADS[name]
    exp = preset(wl.model)
    grid = exp.node_grid()
    return Context(wl, exp.model_spec(), exp.distribution(), grid,
                   exp.hierarchy(), load_reference(exp, grid))


def cell_steps(model: ModelSpec, cells: int, batch: int, dt_over_dx: float = 1.0) -> int:
    """Cells x time steps x batch of one qoi_batch call, computed from the work
    model (not counted).  ModelSpec.steps ignores dt_over_dx, so diffusion
    steps come from diffusion_steps."""
    if model.name == "diffusion":
        steps = diffusion_steps(cells, model.final_time, model.domain_length, dt_over_dx)
    else:
        steps = model.steps(cells)
    return cells * steps * batch


# -- tracing targets --------------------------------------------------------

def _mlmc_tag(args, kwargs):
    cfg = args[4]
    return {"method": "mlmc" if cfg.smoother == "none" else f"mlmc_{cfg.smoother}"}


def _smlmc_tag(args, kwargs):
    strat, cfg = args[2], args[5]
    kind = "" if cfg.smoother == "none" else f"_{cfg.smoother}"
    return {"method": f"smlmc{kind}_r{strat.r}"}


def _solve_info(args, kwargs):
    model, w, cells = args[0], args[1], args[2]
    dt_over_dx = kwargs.get("dt_over_dx", args[3] if len(args) > 3 else 1.0)
    batch = int(np.size(w))
    return {"cells": cells, "batch": batch,
            "cell_steps": cell_steps(model, cells, batch, dt_over_dx)}


def trace_targets(full: bool) -> list:
    """The estimator-run wrappers time each method (12 spans per protocol
    realization); ``full`` adds a span at every layer boundary."""
    targets = [
        Target(cli, "run_mlmc", "estimators.run", _mlmc_tag),
        Target(cli, "run_smlmc", "estimators.run", _smlmc_tag),
        Target(cli, "run_mc", "estimators.run", lambda a, k: {"method": "mc"}),
    ]
    if full:
        targets += [
            Target(ModelSpec, "qoi_batch", "models.qoi_batch", _solve_info),
            Target(TruncatedLognormal, "inverse_cdf", "inputs.inverse_cdf",
                   lambda a, k: {"draws": int(np.size(a[1]))}),
            Target(GilesPolynomial, "values", "smoothing.values"),
            Target(GaussianKernelCdf, "values", "smoothing.values"),
            Target(estimators, "calibrate_bandwidth", "smoothing.calibrate",
                   lambda a, k: {"kind": "kde" if isinstance(a[0], GaussianKernelCdf)
                                 else "giles"}),
            Target(smoothing, "calibration_discrepancy", "smoothing.discrepancy"),
            Target(cdf_mod, "reference_cdf", "cdf.reference_cdf"),
            Target(CdfEstimate, "__init__", "cdf.estimate"),
            Target(cdf_mod, "cdf_to_csv", "cli.write"),
        ]
    return targets


# -- passes -----------------------------------------------------------------

def write_ini(path: Path, wl: Workload, seed: int, out: Path):
    lines = ["[experiment]", f"model = {wl.model}", f"seed = {seed}", f"out = {out}"]
    if wl.methods:
        lines += [f"eps = {wl.eps}", "methods = " + ", ".join(wl.methods),
                  f"strata = {STRATA}", "n_real = 1",
                  "work_model = deterministic", "[model]", f"l_star = {wl.l_star}"]
    else:
        lines += ["[reference]", f"quad_cells = {REF_QUAD_CELLS}",
                  f"mesh_refine = {REF_MESH_REFINE}"]
    path.write_text("\n".join(lines) + "\n")


def expected_tags(wl: Workload) -> list:
    return [f"{m}_r{STRATA}" if m.startswith("smlmc") else m for m in wl.methods]


def read_cdf_csv(path: Path, grid) -> CdfEstimate:
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    q = np.array([float(r[0]) for r in rows])
    if q.shape != grid.nodes.shape or not np.allclose(q, grid.nodes):
        raise ValueError(f"{path.name}: nodes differ from the preset grid")
    return CdfEstimate(grid=grid, raw=np.array([float(r[1]) for r in rows]))


_FAILURE = re.compile(r"run=\d+ (\S+):")


def check_protocol_outputs(out: Path, ctx: Context, k: int) -> list:
    """One Unit per method of realization k, run by one CLI call; a unit fails
    when the CLI lists it under failures, when its files are missing, or when
    its raw CDF misses the reference by more than ACCURACY_FACTOR * eps."""
    listed = {m.group(1) for line in json.loads((out / "summary.json").read_text())["failures"]
              if (m := _FAILURE.search(line))}
    units = []
    for tag in expected_tags(ctx.workload):
        stem = out / "reports" / f"eps{ctx.workload.eps:g}_run0_{tag}"
        report_path = stem.with_name(stem.name + ".json")
        csv_path = stem.with_name(stem.name + "_cdf.csv")
        if tag in listed or not report_path.exists() or not csv_path.exists():
            units.append(Unit((k, tag), math.nan, math.nan, False, {}))
            continue
        report = json.loads(report_path.read_text())
        est = read_cdf_csv(csv_path, ctx.grid)
        err = cdf_mod.sup_distance(est, ctx.reference, use_raw=True)
        units.append(Unit((k, tag), float(report["total_cost"]), err,
                          err <= ACCURACY_FACTOR * ctx.workload.eps, report))
    return units


@contextlib.contextmanager
def scratch_dir(prefix: str):
    """A fresh directory under SCRATCH, removed on exit."""
    SCRATCH.mkdir(exist_ok=True)
    base = Path(tempfile.mkdtemp(prefix=prefix, dir=SCRATCH))
    try:
        yield base
    finally:
        shutil.rmtree(base)


def protocol_pass(ctx: Context, seed: int, n_real: int, targets,
                  probe: Optional[HostProbe] = None) -> PassResult:
    """n_real CLI runs of one realization each, so every realization is timed."""
    tracer = Tracer()
    walls, slowdowns = [], []
    with scratch_dir(ctx.workload.name) as base:
        # the CLI prints its cost lines to stdout, which carries the result
        with tracer.installed(targets), contextlib.redirect_stdout(sys.stderr), \
                timing(probe, walls, slowdowns) as timed:
            for k in range(n_real):
                ini = base / f"run{k}.ini"
                write_ini(ini, ctx.workload, seed * SEED_STRIDE + k, base / f"out{k}")
                timed(cli.main, ["run", "--config", str(ini)])
        units = [u for k in range(n_real)
                 for u in check_protocol_outputs(base / f"out{k}", ctx, k)]
        written = sum(p.stat().st_size for p in base.rglob("*")
                      if p.is_file() and p.suffix != ".ini")
    return PassResult(walls, units, tracer.spans, written, slowdowns, probe)


def reference_pass(ctx: Context, seed: int, builds: int, targets,
                   probe: Optional[HostProbe] = None) -> PassResult:
    with scratch_dir(ctx.workload.name) as base:
        ini = base / "run.ini"
        write_ini(ini, ctx.workload, seed * SEED_STRIDE, base)
        exp = load_config(str(ini))
    model = exp.model_spec()
    args = (model, exp.distribution(), exp.node_grid(), exp.hierarchy())
    kwargs = dict(mesh_refine=exp.ref_mesh_refine, quad_cells=exp.ref_quad_cells,
                  quad_points=exp.ref_quad_points, time_coarsen=exp.ref_time_coarsen)
    tracer = Tracer()
    estimates, walls, slowdowns = [], [], []
    with tracer.installed(targets), timing(probe, walls, slowdowns) as timed:
        for _ in range(builds):
            estimates.append(timed(cdf_mod.reference_cdf, *args, **kwargs))
    cost = cell_steps(model, exp.hierarchy().cells(exp.l_star) * exp.ref_mesh_refine,
                      exp.ref_quad_cells * exp.ref_quad_points, exp.ref_time_coarsen)
    units = []
    for i, est in enumerate(estimates):
        err = cdf_mod.sup_distance(est, ctx.reference, use_raw=True)
        units.append(Unit(("build", i), float(cost), err, err <= REFERENCE_BOUND, {}))
    return PassResult(walls, units, tracer.spans, slowdowns=slowdowns, probe=probe)


def mark_nondeterministic(first: PassResult, second: PassResult):
    """Fail the units of the second pass whose cost or error differs from the
    first pass on the same inputs."""
    before = {u.key: (u.cost, u.sup_err) for u in first.units}
    for u in second.units:
        if u.ok and before.get(u.key) != (u.cost, u.sup_err):
            u.ok = False


def sweep(ctx: Context, seed: int) -> dict:
    """Direct qoi_batch calls at SWEEP_CELLS cells, one batch size at a time."""
    rng = np.random.default_rng(seed)
    out = {}
    for b in SWEEP_BATCHES:
        w = ctx.dist.inverse_cdf(rng.random(b))
        times = []
        while not times or (len(times) < 5 and sum(times) < SWEEP_MIN_S):
            t0 = time.perf_counter()
            ctx.model.qoi_batch(w, SWEEP_CELLS)
            times.append(time.perf_counter() - t0)
        work = cell_steps(ctx.model, SWEEP_CELLS, b)
        out[f"models.sweep.B{b}.ns_per_cell_step"] = 1e9 * statistics.median(times) / work
    return out


# -- metrics ----------------------------------------------------------------

def _ns(seconds: float, work: float) -> float:
    return 1e9 * seconds / work if work else 0.0


def end_to_end(p: PassResult) -> dict:
    errs = [u.sup_err for u in p.units if not math.isnan(u.sup_err)]
    failed = sum(not u.ok for u in p.units)
    return {
        "scaled_wall_s": statistics.median(w / s for w, s in zip(p.walls, p.slowdowns)),
        "cost_units": float(sum(u.cost for u in p.units if not math.isnan(u.cost))),
        "sup_err_rmse": math.sqrt(sum(e * e for e in errs) / len(errs)) if errs else math.nan,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pass_ratio": 1.0 - failed / len(p.units),
    }


def per_layer(ctx: Context, untraced: PassResult, traced: PassResult) -> dict:
    spans = traced.spans
    selfs = self_times(spans)

    def named(name):
        return [(s, selfs[i]) for i, s in enumerate(spans) if s.name == name]

    def total(name, own=False):
        return sum(t if own else s.duration for s, t in named(name))

    m = {}
    solves = [s for s, _ in named("models.qoi_batch")]
    busy = sum(s.duration for s in solves)
    work = sum(s.info["cell_steps"] for s in solves)
    m["models.busy_s"] = busy
    m["models.ns_per_cell_step"] = _ns(busy, work)
    m["models.cell_steps"] = work
    m["models.calls"] = len(solves)
    m["models.samples"] = sum(s.info["batch"] for s in solves)
    m["models.wall_share"] = busy / sum(traced.walls)
    h = ctx.hierarchy
    for lvl in LEVELS:
        at = [s for s in solves if s.info["cells"] == h.m0 * h.factor**lvl]
        m[f"models.L{lvl}.ns_per_cell_step"] = _ns(
            sum(s.duration for s in at), sum(s.info["cell_steps"] for s in at))
        m[f"models.L{lvl}.mean_batch"] = (
            sum(s.info["batch"] for s in at) / len(at) if at else 0.0)

    calib = [s for s, _ in named("smoothing.calibrate")]
    for kind in ("giles", "kde"):
        m[f"smoothing.{kind}.calibrate_s"] = sum(
            s.duration for s in calib if s.info["kind"] == kind)
    m["smoothing.calibrate_calls"] = len(calib)
    m["smoothing.discrepancy_evals"] = len(named("smoothing.discrepancy"))
    m["smoothing.values_s"] = total("smoothing.values")

    m["estimators.self_s"] = total("estimators.run", own=True)
    reports = [u.report for u in traced.units if u.report]
    levels = [lv for r in reports for lv in r.get("levels", ())]
    mc = [r for r in reports if r.get("method") == "mc"]
    m["estimators.samples"] = (sum(lv["n_total"] for lv in levels)
                               + sum(r["n_samples"] for r in mc))
    m["estimators.sizing_passes"] = sum(len(lv["history"]) for lv in levels)
    n_mc = sum(r["n_samples"] for r in mc)
    m["estimators.mc_reuse_ratio"] = sum(r["n_reused"] for r in mc) / n_mc if n_mc else 0.0
    # per-method figures come from the untraced pass, probes excluded
    runs = [s for s in untraced.spans if s.name == "estimators.run"]
    for tag in METHOD_TAGS:
        secs = sum(s.duration - untraced.probe.paused(s.start, s.end)
                   for s in runs if s.info["method"] == tag)
        cost = sum(u.cost for u in untraced.units if u.key[1] == tag and u.ok)
        m[f"estimators.{tag}.wall_s"] = secs
        m[f"estimators.{tag}.ns_per_cost_unit"] = _ns(secs, cost)

    draws = named("inputs.inverse_cdf")
    m["inputs.inverse_cdf_s"] = sum(s.duration for s, _ in draws)
    m["inputs.draws"] = sum(s.info["draws"] for s, _ in draws)
    m["cdf.reference_self_s"] = total("cdf.reference_cdf", own=True)
    m["cdf.estimate_s"] = total("cdf.estimate")
    m["cli.write_s"] = total("cli.write")
    m["cli.bytes_written"] = traced.bytes_written
    m["trace.overhead_s"] = sum(traced.walls) - sum(untraced.walls)
    m["trace.spans"] = len(spans)
    m["host.raw_wall_s"] = statistics.median(untraced.walls)
    m["host.slowdown"] = statistics.median(untraced.slowdowns)
    return m


def measure(ctx: Context, seed: int, seconds: float, trace: bool) -> dict:
    """One run: an untraced pass with the host probe; with ``trace`` also a
    traced pass on the same inputs and the batch-size sweep, both without it.
    Returns the result minus set-up time."""
    wl = ctx.workload
    run_pass = protocol_pass if wl.methods else reference_pass
    n = wl.units(seconds)
    first = run_pass(ctx, seed, n, trace_targets(full=False), HostProbe(wl.probe))
    for wall, slow in zip(first.walls, first.slowdowns):
        print(f"unit: wall {wall:.3f} s, host slowdown {slow:.3f}", file=sys.stderr)
    passes = [first]
    if trace:
        second = run_pass(ctx, seed, n, trace_targets(full=True))
        mark_nondeterministic(first, second)
        passes.append(second)
        metrics = per_layer(ctx, first, second)
        metrics.update(sweep(ctx, seed))
    else:
        metrics = end_to_end(first)
    units = [u for p in passes for u in p.units]
    failed = sum(not u.ok for u in units)
    for u in units:
        if not u.ok:
            print(f"check failed: {wl.name} seed={seed} {u.key} "
                  f"sup_err={u.sup_err:.4g}", file=sys.stderr)
    return {"correct": failed == 0, "attempted": len(units), "failed": failed,
            "metrics": metrics}
