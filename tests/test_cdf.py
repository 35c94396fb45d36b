import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import exact_burgers_cdf, indicator, sample
from smlmc.cdf import (
    CdfEstimate,
    NodeGrid,
    build_spline,
    cdf_to_csv,
    cdf_to_json,
    isotonic_projection,
    load_cdf_json,
    postprocess_cdf,
    reference_cdf,
    sup_distance,
)
from smlmc.config import preset
from smlmc.inputs import TruncatedLognormal, substream
from smlmc.models import MeshHierarchy

DIFFUSION = preset("diffusion").model_spec()
BURGERS = preset("burgers").model_spec()
FROZEN_REFERENCE = Path(__file__).parent / "data" / "diffusion_reference.json"

DIFF_DIST = TruncatedLognormal(3.0, 3.0, 1.0, 4.0)
BURG_DIST = TruncatedLognormal(1.5, 1.0, 0.0, 2.0)


class TestIndicator:
    def test_closed_on_the_right(self):
        assert indicator(2.0, 2.0) == 1.0

    def test_just_above(self):
        assert indicator(2.0, 2.0 + 1e-9) == 0.0

    def test_far_below(self):
        assert indicator(2.0, -1e30) == 1.0

    def test_vectorized(self):
        out = indicator(np.array([0.0, 1.0]), np.array([0.5, 0.5]))
        assert out.tolist() == [0.0, 1.0]


class TestNodeGrid:
    def test_spacing(self):
        g = NodeGrid(14.0, 28.0, 28)
        assert g.h == 0.5
        assert np.allclose(np.diff(g.nodes), 0.5)
        assert g.nodes.size == 29

    def test_dense_grid(self):
        g = NodeGrid(0.0, 1.0, 4)
        assert g.dense(10).size == 41

    def test_validation(self):
        with pytest.raises(ValueError):
            NodeGrid(1.0, 1.0, 4)
        with pytest.raises(ValueError):
            NodeGrid(0.0, 1.0, 0)


class TestSpline:
    def test_constant_reproduction(self):
        g = NodeGrid(0.0, 1.0, 5)
        f = build_spline(g, np.full(6, 0.7))
        q = np.linspace(-0.5, 1.5, 50)
        assert np.abs(f(q) - 0.7).max() < 1e-14

    def test_interpolates_nodes(self):
        g = NodeGrid(0.0, 2.0, 8)
        vals = np.sin(g.nodes)
        f = build_spline(g, vals)
        assert np.abs(f(g.nodes) - vals).max() < 1e-14

    def test_linear_reproduction_at_midpoints(self):
        g = NodeGrid(0.0, 1.0, 10)
        vals = 2.0 * g.nodes + 0.3
        f = build_spline(g, vals)
        mid = g.nodes[:-1] + g.h / 2
        assert np.abs(f(mid) - (2.0 * mid + 0.3)).max() < 1e-13

    def test_clamped_outside(self):
        g = NodeGrid(0.0, 1.0, 4)
        f = build_spline(g, np.array([0.0, 0.1, 0.5, 0.9, 1.0]))
        assert f(-3.0) == 0.0 and f(3.0) == 1.0

    def test_too_few_nodes(self):
        # the grid refuses fewer than the four nodes the spline needs
        with pytest.raises(ValueError, match="four nodes"):
            build_spline(NodeGrid(0.0, 1.0, 2), np.zeros(3))
        assert build_spline(NodeGrid(0.0, 1.0, 3), np.zeros(4))(0.5) == 0.0


class TestIsotonic:
    def test_sorted_unchanged(self):
        v = np.array([0.0, 0.2, 0.5, 1.0])
        assert np.array_equal(isotonic_projection(v), v)

    def test_pools_violators(self):
        out = isotonic_projection(np.array([0.0, 0.6, 0.4, 1.0]))
        assert np.allclose(out, [0.0, 0.5, 0.5, 1.0])

    @given(st.lists(st.floats(min_value=-2, max_value=2), min_size=1, max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_output_monotone_and_mean_preserving(self, values):
        v = np.asarray(values)
        out = isotonic_projection(v)
        assert np.all(np.diff(out) >= -1e-12)
        assert out.sum() == pytest.approx(v.sum(), abs=1e-9)

    def test_postprocess_clips(self):
        out = postprocess_cdf(np.array([-0.1, 0.2, 0.1, 1.3]))
        assert out.min() >= 0.0 and out.max() <= 1.0
        assert np.all(np.diff(out) >= 0)


class TestCdfEstimate:
    def test_processed_within_total_adjustment(self):
        g = NodeGrid(0.0, 1.0, 5)
        raw = np.array([-0.05, 0.1, 0.4, 0.35, 0.8, 1.1])
        est = CdfEstimate(grid=g, raw=raw)
        assert np.abs(est.processed - est.raw).max() <= est.clipping_adjustment + 1e-15

    def test_spline_matches_processed_nodes(self):
        g = NodeGrid(0.0, 1.0, 5)
        raw = np.array([-0.05, 0.1, 0.4, 0.35, 0.8, 1.1])
        est = CdfEstimate(grid=g, raw=raw)
        assert np.abs(est.spline(g.nodes) - est.processed).max() < 1e-14
        assert np.abs(est.raw_spline(g.nodes) - est.raw).max() < 1e-14

    def test_splines_and_interpolation_import_on_first_use(self):
        # importing the CLI and building an estimate load no scipy.interpolate
        # (about 0.2 s of import); evaluating the estimate does
        code = (
            "import sys, numpy as np, smlmc.cli\n"
            "from smlmc.cdf import CdfEstimate, NodeGrid\n"
            "loaded = lambda: any(m.startswith('scipy.interpolate') for m in sys.modules)\n"
            "est = CdfEstimate(grid=NodeGrid(0.0, 1.0, 5), raw=np.linspace(0, 1, 6))\n"
            "before = loaded()\n"
            "value = est.spline(0.5)\n"
            "print(before, loaded(), value)\n"
        )
        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(src)}, check=True)
        assert proc.stdout.split() == ["False", "True", "0.5"]

    def test_csv_and_json_round_trip(self, tmp_path):
        g = NodeGrid(0.0, 1.0, 5)
        est = CdfEstimate(grid=g, raw=np.linspace(0, 1, 6), metadata={"kind": "x"})
        jpath = tmp_path / "e.json"
        cdf_to_json(est, jpath)
        back = load_cdf_json(jpath)
        assert np.array_equal(back.raw, est.raw)
        # processed is recomputed from raw, and matches the one written
        assert np.array_equal(back.processed, est.processed)
        assert back.metadata["kind"] == "x"
        cpath = tmp_path / "e.csv"
        cdf_to_csv(est, cpath)
        lines = cpath.read_text().splitlines()
        assert lines[0] == "q,raw,processed"
        assert len(lines) == 7
        assert all(line.count(",") == 2 for line in lines)
        assert "\r" not in cpath.read_text()


class TestSupDistance:
    G = NodeGrid(0.0, 1.0, 10)

    def _est(self, values):
        return CdfEstimate(grid=self.G, raw=np.asarray(values, dtype=float))

    def test_identical(self):
        a = self._est(np.linspace(0, 1, 11))
        assert sup_distance(a, a) == 0.0

    def test_zero_vs_one(self):
        assert sup_distance(self._est(np.zeros(11)), self._est(np.ones(11))) == 1.0

    def test_linear_vs_constant_half(self):
        a = self._est(np.linspace(0, 1, 11))
        b = self._est(np.full(11, 0.5))
        assert sup_distance(a, b) == pytest.approx(0.5)

    def test_mismatched_domain(self):
        b = CdfEstimate(grid=NodeGrid(0.0, 2.0, 10), raw=np.zeros(11))
        with pytest.raises(ValueError):
            sup_distance(self._est(np.zeros(11)), b)

    def test_raw_flag_uses_unprocessed_values(self):
        a = self._est(np.concatenate([[0.2], np.linspace(0, 1, 10)]))  # dips raw
        b = self._est(np.linspace(0, 1, 11))
        assert sup_distance(a, b, use_raw=True) >= sup_distance(a, b) - 1e-12


class TestReference:
    # coarse hierarchy keeps these exercises fast; resolution controls are
    # parameters of the oracle
    HIER = MeshHierarchy(m0=16, l_star=3)

    def test_monotone_with_saturated_endpoints(self):
        grid = NodeGrid(14.0, 28.0, 28)
        ref = reference_cdf(DIFFUSION, DIFF_DIST, grid, self.HIER, mesh_refine=4,
                            quad_cells=128, quad_points=4, time_coarsen=1.0)
        assert ref.raw[0] <= 1e-6
        assert ref.raw[-1] >= 1.0 - 1e-6
        assert np.all(np.diff(ref.raw) >= 0)

    def test_metadata_records_every_setting(self):
        ref = reference_cdf(DIFFUSION, DIFF_DIST, NodeGrid(14.0, 28.0, 28), self.HIER,
                            mesh_refine=2, quad_cells=8, quad_points=2, time_coarsen=4.0)
        assert ref.metadata == {"kind": "reference", "model": "diffusion", "m_ref": 256,
                                "mesh_refine": 2, "quad_cells": 8, "quad_points": 2,
                                "time_coarsen": 4.0}

    def test_input_grid_self_convergence(self):
        grid = NodeGrid(14.0, 28.0, 28)
        deltas = []
        for cells in (64, 128, 256):
            a = reference_cdf(DIFFUSION, DIFF_DIST, grid, self.HIER, mesh_refine=4,
                              quad_cells=cells, quad_points=4, time_coarsen=1.0)
            b = reference_cdf(DIFFUSION, DIFF_DIST, grid, self.HIER, mesh_refine=4,
                              quad_cells=2 * cells, quad_points=4, time_coarsen=1.0)
            deltas.append(np.abs(a.raw - b.raw).max())
        assert deltas[2] < deltas[0]

    def test_burgers_reference_against_exact_cdf(self):
        # the testbed has a closed-form solution at t = 0.5 (shocks do not
        # interact)
        grid = NodeGrid(15.0, 65.0, 100)
        hier = MeshHierarchy(m0=32, l_star=3)
        ref = reference_cdf(BURGERS, BURG_DIST, grid, hier, mesh_refine=4,
                            quad_cells=256, quad_points=4, time_coarsen=1.0)
        exact = exact_burgers_cdf(BURG_DIST, grid.nodes)
        assert np.abs(ref.raw - exact).max() < 5e-3

    def test_unbiasedness_of_plain_mc_at_matched_level(self):
        # the MC estimator targets the CDF of the discretized QoI: against a
        # reference at the same mesh the node means match within 3 SE
        grid = NodeGrid(14.0, 28.0, 28)
        hier = MeshHierarchy(m0=64, l_star=0)
        ref = reference_cdf(DIFFUSION, DIFF_DIST, grid, hier, mesh_refine=1,
                            quad_cells=512, quad_points=8, time_coarsen=1.0)
        runs, per_run = 200, 100
        counts = np.zeros(grid.nodes.size)
        for k in range(runs):
            w = sample(DIFF_DIST, substream(1000 + k, 0, 0), per_run)
            q = DIFFUSION.qoi_batch(w, 64)
            counts += (q[:, None] <= grid.nodes[None, :]).mean(axis=0)
        mean = counts / runs
        se = np.sqrt(np.maximum(ref.raw * (1 - ref.raw), 1e-12) / (runs * per_run))
        assert np.all(np.abs(mean - ref.raw) <= 3.0 * se + 1e-9)

    def test_diffusion_oracle_near_frozen_reference(self):
        # the oracle on the diffusion preset at a reduced resolution (4096
        # cells, 512 inputs) lands within 2.5e-3 of the frozen production
        # reference; the measured distance is 1.9e-3
        exp = preset("diffusion")
        frozen = json.loads(FROZEN_REFERENCE.read_text())
        ref = reference_cdf(exp.model_spec(), exp.distribution(), exp.node_grid(),
                            exp.hierarchy(), mesh_refine=2, quad_cells=64,
                            quad_points=8, time_coarsen=4.0)
        assert np.allclose(frozen["nodes"], exp.node_grid().nodes)
        assert np.abs(ref.raw - np.asarray(frozen["values"])).max() <= 2.5e-3
