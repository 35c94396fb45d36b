"""Tests of the benchmark's own logic: span arithmetic, the host probe's
arithmetic, the metric names in BENCHMARK.json, and the output checks.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

import json
import re
import signal
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import hostspeed  # noqa: E402
import workloads  # noqa: E402
from smlmc.cdf import CdfEstimate, cdf_to_csv  # noqa: E402
from tracing import Span, Target, Tracer, self_times  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _span(start, end, parent=None):
    return Span("x", start, end, parent, 0)


class TestSelfTime:
    def test_children_are_subtracted(self):
        spans = [_span(0.0, 10.0), _span(1.0, 3.0, 0), _span(4.0, 8.0, 0),
                 _span(5.0, 6.0, 2)]
        assert self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0])

    def test_overlapping_children_counted_once(self):
        spans = [_span(0.0, 10.0), _span(1.0, 5.0, 0), _span(3.0, 7.0, 0)]
        assert self_times(spans)[0] == pytest.approx(4.0)

    def test_child_outside_parent_is_clipped(self):
        spans = [_span(2.0, 4.0), _span(3.0, 9.0, 0)]
        assert self_times(spans)[0] == pytest.approx(1.0)

    def test_tracer_nests_and_restores(self):
        ns = types.SimpleNamespace()
        ns.inner = lambda x: x + 1
        ns.outer = lambda x: ns.inner(x) * 2
        original = ns.__dict__["inner"]
        tracer = Tracer()
        targets = [Target(ns, "outer", "outer"),
                   Target(ns, "inner", "inner", lambda a, k: {"x": a[0]})]
        with tracer.installed(targets):
            assert ns.outer(1) == 4
            assert ns.outer(2) == 6
        assert ns.__dict__["inner"] is original
        names = [(s.name, s.parent, s.run) for s in tracer.spans]
        assert names == [("outer", None, 0), ("inner", 0, 0),
                         ("outer", None, 1), ("inner", 2, 1)]
        assert tracer.spans[3].info == {"x": 2}
        assert all(s.end >= s.start for s in tracer.spans)


class TestHostProbe:
    def _probe(self):
        probe = hostspeed.HostProbe(("python", "rows"))
        py, rows = (nominal for _, nominal in probe.kernels)
        probe.probes = [(1.0, 1.1, (2 * py, 2 * rows)), (2.0, 2.1, (4 * py, 8 * rows)),
                        (5.0, 5.1, (py, rows))]
        return probe

    def test_paused_clips_to_the_interval(self):
        assert self._probe().paused(1.05, 2.05) == pytest.approx(0.1)

    def test_slowdown_is_geometric_mean_of_kernel_means(self):
        # python 3x its nominal time on average, rows 5x, over the first two probes
        assert self._probe().slowdown(0.0, 3.0) == pytest.approx(15.0 ** 0.5)
        assert self._probe().slowdown(4.0, 6.0) == pytest.approx(1.0)

    def test_slowdown_needs_a_probe_inside(self):
        with pytest.raises(ValueError):
            self._probe().slowdown(3.0, 4.0)

    def test_timing_excludes_probes_and_restores_the_handler(self):
        before = signal.getsignal(signal.SIGALRM)
        probe = hostspeed.HostProbe(("rows",), interval=0.01)
        walls, slowdowns = [], []
        with workloads.timing(probe, walls, slowdowns) as timed:
            assert timed(lambda n: sum(i * i for i in range(n)), 200_000) > 0
        assert signal.getsignal(signal.SIGALRM) is before
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
        assert probe.probes and len(walls) == len(slowdowns) == 1
        assert slowdowns[0] > 0


class TestSpec:
    def test_metric_names_and_units(self):
        metrics = SPEC["end_to_end"] + SPEC["per_layer"]
        names = [m["name"] for m in metrics]
        assert len(names) == len(set(names))
        for m in metrics:
            assert NAME.match(m["name"]), m["name"]
            assert UNIT.match(m["unit"]), m["unit"]
            assert m["better"] in ("lower", "higher")

    def test_charset_rejects_bad_names(self):
        for bad in ("_lead", "has space", "a" * 65, "x/y", ""):
            assert not NAME.match(bad)

    def test_workloads_match_the_code(self):
        assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
        for w in SPEC["workloads"]:
            assert NAME.match(w["name"]) and len(w["why"]) <= 200
        for wl in workloads.WORKLOADS.values():
            assert set(wl.probe) <= set(hostspeed.KERNELS)

    def test_bounds(self):
        bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
        assert all(0 < b <= 0.25 for b in bounds.values())
        assert bounds["setup_s"] == max(bounds.values())

    def test_per_method_names_cover_the_tags(self):
        names = {m["name"] for m in SPEC["per_layer"]}
        for tag in workloads.METHOD_TAGS:
            assert f"estimators.{tag}.wall_s" in names
            assert f"estimators.{tag}.ns_per_cost_unit" in names


@pytest.fixture(scope="module")
def ctx():
    return workloads.prepare("diffusion-protocol")


def _fake_outputs(out: Path, ctx, shift: float, failures=()):
    (out / "reports").mkdir(parents=True)
    (out / "summary.json").write_text(json.dumps({"failures": list(failures)}))
    raw = ctx.reference.raw + shift
    for tag in workloads.expected_tags(ctx.workload):
        stem = out / "reports" / f"eps{ctx.workload.eps:g}_run0_{tag}"
        stem.with_name(stem.name + ".json").write_text(json.dumps({"total_cost": 100.0}))
        cdf_to_csv(CdfEstimate(grid=ctx.grid, raw=raw), stem.with_name(stem.name + "_cdf.csv"))


class TestChecks:
    def test_exact_cdf_passes(self, ctx, tmp_path):
        _fake_outputs(tmp_path, ctx, 0.0)
        units = workloads.check_protocol_outputs(tmp_path, ctx, 0)
        assert len(units) == 6
        assert all(u.ok for u in units)
        assert max(u.sup_err for u in units) < 1e-9

    def test_shifted_cdf_fails(self, ctx, tmp_path):
        _fake_outputs(tmp_path, ctx, 0.05)
        units = workloads.check_protocol_outputs(tmp_path, ctx, 0)
        assert not any(u.ok for u in units)

    def test_listed_failure_and_missing_file_fail(self, ctx, tmp_path):
        eps = ctx.workload.eps
        _fake_outputs(tmp_path, ctx, 0.0, [f"eps={eps} run=0 mlmc_kde: boom"])
        (tmp_path / "reports" / f"eps{eps:g}_run0_mc_cdf.csv").unlink()
        units = {u.key: u for u in workloads.check_protocol_outputs(tmp_path, ctx, 3)}
        assert [tag for (_, tag), u in units.items() if not u.ok] == ["mc", "mlmc_kde"]
        assert set(k for k, _ in units) == {3}

    def test_perturbed_cost_fails_determinism(self):
        def make(cost):
            return workloads.PassResult([1.0], [
                workloads.Unit((0, "mlmc"), 10.0, 0.01, True, {}),
                workloads.Unit((0, "mc"), cost, 0.01, True, {})], [])

        first, same, perturbed = make(20.0), make(20.0), make(20.0 + 1e-9)
        workloads.mark_nondeterministic(first, same)
        assert all(u.ok for u in same.units)
        workloads.mark_nondeterministic(first, perturbed)
        assert [u.ok for u in perturbed.units] == [True, False]

    def test_cell_steps_uses_time_coarsening(self, ctx):
        # ModelSpec.steps ignores dt_over_dx; the reference oracle relies on it
        assert workloads.cell_steps(ctx.model, 8192, 512, 4.0) == 8192 * 103 * 512
        assert workloads.cell_steps(ctx.model, 256, 1) == 256 * ctx.model.steps(256)

    def test_generated_ini_loads(self, tmp_path):
        from smlmc.config import load_config

        for wl in workloads.WORKLOADS.values():
            ini = tmp_path / f"{wl.name}.ini"
            workloads.write_ini(ini, wl, 7000, tmp_path / "out")
            exp = load_config(str(ini))
            assert exp.model == wl.model and exp.seed == 7000
            if wl.methods:
                assert exp.eps_values == (wl.eps,) and exp.n_real == 1
                assert exp.l_star == wl.l_star
            else:
                assert exp.ref_quad_cells == workloads.REF_QUAD_CELLS
                assert exp.ref_mesh_refine == workloads.REF_MESH_REFINE
