"""The benchmark's hooks into the program still hold.

bench/workloads.py (imported here, not changed) traces a protocol run by
wrapping attributes of smlmc's modules and classes, tags each estimator run
from the positional arguments of cli.run_mlmc and cli.run_smlmc, and reads
the reports and CDF files smlmc run writes; it judges Burgers estimates by
its own copy of the testbed's closed form.  A refactor that breaks any of
these would otherwise show only as a failed benchmark run.
"""

import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))  # workloads imports hostspeed and tracing from there

import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

from oracles import exact_burgers_cdf  # noqa: E402
from smlmc import cli  # noqa: E402
from smlmc.config import PRESETS, load_config  # noqa: E402


def test_traced_protocol_run(tmp_path):
    # the diffusion protocol workload's INI, at a tolerance and level cap
    # small enough for a unit test
    base = workloads.prepare("diffusion-protocol")
    ctx = replace(base, workload=replace(base.workload, eps=0.05, l_star=1))
    ini, out = tmp_path / "run.ini", tmp_path / "out"
    workloads.write_ini(ini, ctx.workload, 4, out)

    targets = workloads.trace_targets(full=True)
    originals = [t.owner.__dict__[t.attr] for t in targets]  # each target resolves
    tracer = Tracer()
    with tracer.installed(targets):
        assert cli.main(["run", "--config", str(ini)]) == 0
    assert all(t.owner.__dict__[t.attr] is original
               for t, original in zip(targets, originals))

    runs = [s.info["method"] for s in tracer.spans if s.name == "estimators.run"]
    assert runs == list(workloads.METHOD_TAGS) == workloads.expected_tags(ctx.workload)
    assert {s.info["kind"] for s in tracer.spans
            if s.name == "smoothing.calibrate"} == {"giles", "kde"}
    # the bench finds every run's files under the tag its span carries
    units = workloads.check_protocol_outputs(out, ctx, 0)
    assert [u.key[1] for u in units] == runs
    assert all(u.report["method"] == u.key[1] and not math.isnan(u.cost) for u in units)


def test_reference_pass():
    # one oracle build of the diffusion reference workload: the benchmark's
    # reference hooks (the config's reference settings, reference_cdf's
    # keywords, diffusion_steps) still resolve and give its cost
    result = workloads.reference_pass(workloads.prepare("diffusion-reference"), 0, 1,
                                      workloads.trace_targets(full=True))
    [unit] = result.units
    assert unit.ok
    assert unit.cost == 4096 * 52 * 512 == 109051904
    assert {"models.qoi_batch", "cdf.reference_cdf"} <= {s.name for s in result.spans}


def test_reference_constants_are_the_frozen_references(tmp_path):
    # reference_pass builds the oracle at the config's quadrature points and
    # time-step relaxation, constants of ExperimentConfig: they are the ones
    # the frozen diffusion reference it is judged against was built with
    ini = tmp_path / "run.ini"
    workloads.write_ini(ini, workloads.WORKLOADS["diffusion-reference"], 0, tmp_path)
    exp = load_config(str(ini))
    params = json.loads(workloads.FROZEN_REFERENCE.read_text())["params"]
    assert (exp.ref_quad_points, exp.ref_time_coarsen) == (
        params["quad_points"], params["time_coarsen"]) == (8, 4.0)


def test_burgers_reference_is_the_exact_cdf():
    # the benchmark judges Burgers estimates against its own copy of the
    # closed form (load_reference): it agrees with the tests' oracle at
    # every node of the preset grid
    ctx = workloads.prepare("burgers-protocol")
    exact = exact_burgers_cdf(ctx.dist, ctx.grid.nodes)
    assert np.allclose(ctx.reference.raw, exact, rtol=0.0, atol=1e-8)


def test_per_layer_level_rule_matches_the_hierarchy():
    # per_layer assigns each solve to a level by m0 * factor**level, so the
    # hierarchy's factor stays readable and gives its cells at every level
    for exp in PRESETS.values():
        h = exp.hierarchy()
        assert [h.m0 * h.factor**lvl for lvl in range(h.l_star + 1)] == [
            h.cells(lvl) for lvl in range(h.l_star + 1)]
