import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import required_samples_mlmc
from smlmc.cdf import NodeGrid
from smlmc.cli import run_realization
from smlmc.config import METHODS, preset, run_tag
from smlmc.estimators import (
    MIN_STRATUM_SAMPLES,
    SAMPLING_SAFETY,
    LevelState,
    SampleBank,
    mc_sample_count,
    required_samples_smlmc,
    run_mc,
    run_mlmc,
    run_smlmc,
    stopping_check,
)
from smlmc.inputs import (
    Stratification,
    build_equal_width_strata,
    proportional_allocation,
    substream,
)
from smlmc.models import MeshHierarchy, ModelSpec

EXP = preset("diffusion")
BURGERS_EXP = preset("burgers")
MODEL = EXP.model_spec()
DIST = EXP.distribution()
GRID = EXP.node_grid()
HIER = EXP.hierarchy()
# the preset's settings of a plain run; tests replace the ones they set
RUN = EXP.run_config("mlmc", 0.01, 0)

# small, fast engine configuration reused across tests: levels 0..3 and 64
# warmup samples
HIER3 = replace(HIER, l_star=3)
FAST = dict(warmup=64)


class TestRequiredSamplesMlmc:
    def test_single_level_arithmetic(self):
        assert required_samples_mlmc([0.25], [1.0], 0.01, 4.0) == [10000]

    def test_all_zero_variances(self):
        assert required_samples_mlmc([0.0, 0.0], [1.0, 2.0], 0.01, 4.0) == [0, 0]

    def test_two_level_oracle(self):
        # sqrt(V/w) * (sum sqrt(V w)) spreadsheet: totals 0.5 + 0.2 = 0.7
        # N0 = 4e4 * 0.5 * 0.7 = 14000, N1 = 4e4 * 0.05 * 0.7 = 1400
        out = required_samples_mlmc([0.25, 0.01], [1.0, 4.0], 0.01, 4.0)
        assert out == [14000, 1400]

    def test_per_node_max(self):
        v0 = np.array([0.25, 0.01])
        out = required_samples_mlmc([v0], [1.0], 0.01, 4.0)
        assert out == [10000]  # the 0.25 node dominates

    def test_zero_work_rejected(self):
        with pytest.raises(ValueError):
            required_samples_mlmc([0.1], [0.0], 0.01, 4.0)

    def test_negative_variance_rejected(self):
        with pytest.raises(ValueError):
            required_samples_mlmc([-0.1], [1.0], 0.01, 4.0)


class TestRequiredSamplesSmlmc:
    def test_degenerate_reduces_to_mlmc(self):
        variances = [np.array([[0.25, 0.04]]), np.array([[0.01, 0.02]])]
        works = [1.0, 4.0]
        strat_out = required_samples_smlmc(variances, [1.0], works, 0.01, 4.0)
        plain_out = required_samples_mlmc([v[0] for v in variances], works, 0.01, 4.0)
        assert [int(c[0]) for c in strat_out] == plain_out

    def test_symmetric_strata_get_equal_counts(self):
        v = np.full((4, 3), 0.09)
        out = required_samples_smlmc([v], [0.25] * 4, [1.0], 0.01, 4.0)
        assert len(set(out[0].tolist())) == 1

    def test_two_stratum_oracle(self):
        # r=2, one level: V=(1.0, 0.25), p=(0.5, 0.5), w=1, bf=4, eps=0.01
        # total = 0.5*1.0 + 0.5*0.5 = 0.75 (exact in floats)
        # n_1 = ceil(4e4 * sqrt(1.0*0.25/1) * 0.75) = 15000
        # n_2 = ceil(4e4 * sqrt(0.25*0.25) * 0.75) = 7500
        out = required_samples_smlmc(
            [np.array([[1.0], [0.25]])], [0.5, 0.5], [1.0], 0.01, 4.0
        )
        assert out[0].tolist() == [15000, 7500]

    def test_count_past_int64_rejected(self):
        # a count of 2^63 or more wrapped to a negative int in the cast, which
        # the engine read as no more samples; here a count is 0.25 bf / eps^2
        v = [np.array([[0.25]])]
        assert required_samples_smlmc(v, [1.0], [1.0], 1.0, 2.0**64)[0].tolist() == [2**62]
        with pytest.raises(ValueError, match=r"9\.22e\+18 samples at eps 1, not below 2\^63"):
            required_samples_smlmc(v, [1.0], [1.0], 1.0, 2.0**65)
        with pytest.raises(ValueError, match=r"1\.25e\+20 samples at eps 1e-10"):
            required_samples_smlmc(v, [1.0], [1.0], 1e-10, 5.0)


class TestMcSampleCount:
    def test_arithmetic(self):
        assert mc_sample_count(0.25, 0.01, 2.0) == 5000

    def test_bernoulli_bound(self):
        # indicator variance never exceeds 1/4, so N <= bf * eps^-2 / 4
        eps = 0.01
        assert mc_sample_count(0.25, eps, 2.0) <= 2.0 / eps**2 / 4 + 1

    def test_errors(self):
        with pytest.raises(ValueError):
            mc_sample_count(0.1, 0.0, 2.0)
        with pytest.raises(ValueError):
            mc_sample_count(-0.1, 0.01, 2.0)


class TestStoppingCheck:
    def test_level_zero_never_stops(self):
        assert not stopping_check(0, np.zeros(5), 0.005, 7)

    def test_bias_below_threshold(self):
        assert stopping_check(2, np.array([0.003]), 0.005, 7)  # 0.003 <= 0.003536

    def test_bias_above_threshold(self):
        assert not stopping_check(2, np.array([0.004]), 0.005, 7)

    def test_cap_forces_stop(self):
        assert stopping_check(7, np.array([0.5]), 0.005, 7)

    def test_negative_level_rejected(self):
        with pytest.raises(ValueError):
            stopping_check(-1, np.array([0.0]), 0.01, 7)


class TestRunMlmc:
    def test_deterministic_replay(self):
        cfg = replace(RUN, eps=0.02, seed=11, **FAST)
        a = run_mlmc(MODEL, DIST, GRID, HIER3, cfg)
        b = run_mlmc(MODEL, DIST, GRID, HIER3, cfg)
        assert np.array_equal(a.estimate.raw, b.estimate.raw)
        assert [lv.n_total for lv in a.levels] == [lv.n_total for lv in b.levels]

    def test_raw_node_means_bounded(self):
        cfg = replace(RUN, eps=0.02, seed=3, **FAST)
        res = run_mlmc(MODEL, DIST, GRID, HIER3, cfg)
        for lv in res.levels:
            mean = lv.mean_g_stratified(res.strat.probs)
            assert np.all(np.abs(mean) <= 1.0 + 1e-12)

    def test_sample_floor_at_warmup(self):
        cfg = replace(RUN, eps=0.05, seed=1, **FAST)
        res = run_mlmc(MODEL, DIST, GRID, HIER3, cfg)
        assert all(lv.n_total >= cfg.warmup for lv in res.levels)

    def test_ledger_consistency(self):
        cfg = replace(RUN, eps=0.02, seed=5, **FAST)
        res = run_mlmc(MODEL, DIST, GRID, HIER3, cfg)
        total = sum(lv.n_total * lv.pair_work for lv in res.levels)
        assert res.total_cost == pytest.approx(total)

    def test_smoothed_run_tracks_indicator_stats(self):
        cfg = replace(RUN, eps=0.02, seed=2, smoother="kde", **FAST)
        res = run_mlmc(MODEL, DIST, GRID, HIER3, cfg)
        assert res.levels[0].delta is not None and res.levels[0].delta > 0
        assert res.levels[0].sumsq_idiff.sum() > 0  # raw stats alongside smoothed

    @pytest.mark.parametrize("smoother,budget_split", [("kde", 4.0), ("none", 2.0)])
    def test_budget_bookkeeping(self, smoother, budget_split):
        # realized sampling-error bound stays within eps^2 / split (the safety
        # factor keeps it comfortably inside even though the per-level argmax
        # nodes need not coincide)
        cfg = replace(RUN, eps=0.02, seed=4, smoother=smoother, **FAST)
        res = run_mlmc(MODEL, DIST, GRID, HIER3, cfg)
        realized = sum(lv.var_g()[0].max() / lv.n_total for lv in res.levels)
        assert realized <= cfg.eps**2 / budget_split * 1.05

    def test_cap_produces_warning_when_bias_unmet(self):
        cfg = replace(RUN, eps=0.001, seed=1, warmup=32)
        res = run_mlmc(MODEL, DIST, GRID, replace(HIER, l_star=1), cfg)
        assert res.l_max == 1
        assert any("cap" in w for w in res.warnings)

    def test_work_monotone_in_level_deterministic(self):
        cfg = replace(RUN, eps=0.02, seed=1, **FAST)
        res = run_mlmc(MODEL, DIST, GRID, HIER3, cfg)
        works = [lv.pair_work for lv in res.levels]
        assert all(b > a for a, b in zip(works, works[1:]))


def _plain_fine_rows(seed, level, n):
    """The first n fine QoIs a plain run uses at a level: the inverse CDF of
    the level's single-stratum substream, solved on the level's mesh."""
    w = DIST.inverse_cdf(substream(seed, level, 0).random(n))
    return MODEL.qoi_batch(w, HIER.cells(level))


def _empirical_cdf(samples):
    return (samples[:, None] <= GRID.nodes[None, :]).mean(axis=0)


class TestLevelStateArrays:
    @given(
        r=st.integers(min_value=1, max_value=16),
        nodes=st.integers(min_value=2, max_value=101),
        seed=st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_per_stratum_loops(self, r, nodes, seed):
        # the (r, nodes) array forms add the strata in order, term by term as
        # a loop over the strata does, so they agree bit for bit
        rng = np.random.default_rng(seed)
        lv = LevelState(0, r, nodes, 1.0)
        lv.n[:] = rng.integers(0, 50, r)  # empty strata included
        for sums, sumsq in ((lv.sum_g, lv.sumsq_g), (lv.sum_idiff, lv.sumsq_idiff)):
            sums[:] = rng.normal(size=(r, nodes)) * lv.n[:, None]
            sumsq[:] = sums**2 / np.maximum(lv.n, 1)[:, None] + rng.uniform(0, 3, (r, nodes))
        probs = rng.dirichlet(np.ones(r))

        def var(sums, sumsq, i):
            n = max(int(lv.n[i]), 1)
            m = sums[i] / n
            return np.maximum(sumsq[i] / n - m * m, 0.0)

        mean_g, mean_idiff, strat_var = (np.zeros(nodes) for _ in range(3))
        for i, p in enumerate(probs):
            n = max(int(lv.n[i]), 1)
            mean_g += p * lv.sum_g[i] / n
            mean_idiff += p * lv.sum_idiff[i] / n
            strat_var += p * p * var(lv.sum_idiff, lv.sumsq_idiff, i) / n
        var_g = np.stack([var(lv.sum_g, lv.sumsq_g, i) for i in range(r)])
        assert np.array_equal(lv.mean_g_stratified(probs), mean_g)
        assert np.array_equal(lv.mean_idiff_stratified(probs), mean_idiff)
        assert np.array_equal(lv.stratified_estimator_variance(probs), strat_var)
        assert np.array_equal(lv.var_g(), var_g)


class TestTelescopingIdentity:
    def test_single_level_mlmc_equals_mc_bitwise(self):
        # with the cap at level 0 the telescoping sum collapses to the
        # empirical CDF of the kept samples.  The tolerance is chosen so that
        # MC needs exactly the 64 warmup samples (N_MC = ceil(5 V / eps^2)
        # with 5 V / eps^2 = 63.5), so it reuses the identical sample set and
        # the two estimates agree exactly
        base, hier = dict(seed=21, warmup=64), replace(HIER, l_star=0)
        probe = run_mlmc(MODEL, DIST, GRID, hier, replace(RUN, eps=0.3, **base))
        v = float(probe.levels[0].var_ifine_pooled().max())
        cfg = replace(RUN, eps=float(np.sqrt(5.0 * v / 63.5)), **base)
        mlmc_res = run_mlmc(MODEL, DIST, GRID, hier, cfg)
        mc_res = run_mc(MODEL, DIST, GRID, hier, cfg, mlmc_res)
        kept = _plain_fine_rows(cfg.seed, 0, 64)
        assert mlmc_res.l_max == 0
        assert mlmc_res.levels[0].n_total == 64
        assert mc_res.n_samples == mc_res.n_reused == 64
        assert np.array_equal(mlmc_res.estimate.raw, mc_res.estimate.raw)
        assert np.array_equal(mc_res.estimate.raw, _empirical_cdf(kept))


class TestRunSmlmc:
    def test_r1_matches_mlmc_bit_for_bit(self):
        cfg = replace(RUN, eps=0.02, seed=13, **FAST)
        plain = run_mlmc(MODEL, DIST, GRID, HIER3, cfg)
        strat = build_equal_width_strata(DIST, 1)
        stratified = run_smlmc(MODEL, DIST, strat, GRID, HIER3, cfg)
        assert np.array_equal(plain.estimate.raw, stratified.estimate.raw)
        assert [lv.n_total for lv in plain.levels] == [
            lv.n_total for lv in stratified.levels
        ]

    @given(
        exp=st.sampled_from([EXP, BURGERS_EXP]),
        smoother=st.sampled_from(["none", "giles", "kde"]),
        seed=st.integers(min_value=0, max_value=10**6),
        eps=st.floats(min_value=0.02, max_value=0.2),
        shared=st.booleans(),
    )
    @settings(max_examples=30, deadline=None)
    def test_r1_property(self, exp, smoother, seed, eps, shared):
        # one stratum is plain MLMC: same draws, same statistics, same
        # sizing, so the same estimate, sample counts, bandwidths and cost;
        # also when the sMLMC run takes every row from the MLMC run's bank
        cfg = replace(RUN, eps=eps, seed=seed, smoother=smoother, warmup=16)
        hier = replace(exp.hierarchy(), l_star=2)
        args = (exp.model_spec(), exp.distribution())
        rest = (exp.node_grid(), hier, cfg)
        bank = SampleBank(*args, hier) if shared else None
        plain = run_mlmc(*args, *rest, bank=bank)
        strat = run_smlmc(*args, build_equal_width_strata(exp.distribution(), 1), *rest,
                          bank=bank)
        assert np.array_equal(plain.estimate.raw, strat.estimate.raw)
        assert [lv.n.tolist() for lv in plain.levels] == [
            lv.n.tolist() for lv in strat.levels
        ]
        assert [lv.delta for lv in plain.levels] == [lv.delta for lv in strat.levels]
        assert plain.total_cost == strat.total_cost

    @pytest.mark.parametrize("r", [1, 8])
    def test_names_match_run_tags(self, r):
        # every run smlmc run makes is named as its output files are, a
        # one-stratum sMLMC run included: the runner yields the planned
        # (method, strata) pairs in order, their tags are distinct, and each
        # result is the run its tag names (smoother and stratum count)
        exp = replace(EXP, eps_values=(0.2,), methods=tuple(METHODS), strata_counts=(r,),
                      l_star=1, seed=3)
        runs = [run[1:] for run in run_realization(exp, 0)]
        assert [(m, s) for m, s, _ in runs] == exp.run_plan()
        tags = [run_tag(m, s) for m, s, _ in runs]
        assert len(set(tags)) == len(tags)
        assert f"smlmc_r{r}" in tags and f"smlmc_kde_r{r}" in tags
        for method, s, res in runs:
            assert not isinstance(res, Exception), (run_tag(method, s), res)
            spec = METHODS[method]
            if method == "mc":
                assert set(res.report()) >= {"n_samples", "n_reused", "total_cost"}
                continue
            rep = res.report()
            assert rep["smoother"] == spec.smoother
            assert rep["strata"] == (r if spec.stratified else 1)
            assert run_tag(method, s) == (f"{method}_r{r}" if spec.stratified else method)

    def test_stratified_run_basics(self):
        strat = build_equal_width_strata(DIST, 4)
        cfg = replace(RUN, eps=0.02, seed=7, **FAST)
        res = run_smlmc(MODEL, DIST, strat, GRID, HIER3, cfg)
        for lv in res.levels:
            assert np.all(lv.n >= MIN_STRATUM_SAMPLES)
        raw = res.estimate.raw
        assert raw[0] < 0.2 and raw[-1] > 0.8

    def test_stratified_variance_not_worse(self):
        # N_l * V[stratified level mean] <= pooled indicator variance, at the
        # majority of levels (law of total variance, up to sampling noise)
        strat = build_equal_width_strata(DIST, 8)
        wins = total = 0
        for seed in range(3):
            cfg = replace(RUN, eps=0.02, seed=seed, **FAST)
            res = run_smlmc(MODEL, DIST, strat, GRID, HIER3, cfg)
            plain = run_mlmc(MODEL, DIST, GRID, HIER3,
                             replace(RUN, eps=0.02, seed=seed, **FAST))
            for lv, plv in zip(res.levels, plain.levels):
                strat_var = lv.n_total * lv.stratified_estimator_variance(strat.probs).max()
                plain_var = plv.var_idiff_pooled().max()
                wins += strat_var <= plain_var + 1e-12
                total += 1
        assert wins > total / 2

    def test_report_shape(self):
        strat = build_equal_width_strata(DIST, 4)
        cfg = replace(RUN, eps=0.05, seed=1, **FAST)
        res = run_smlmc(MODEL, DIST, strat, GRID, HIER3, cfg)
        rep = res.report()
        assert rep["strata"] == 4
        assert len(rep["levels"]) == res.l_max + 1
        for lv in rep["levels"]:
            assert set(lv) >= {"n_per_stratum", "delta", "avg_work",
                               "max_var_idiff", "history"}
            assert len(lv["var_idiff_per_node"]) == GRID.nodes.size

    def test_bandwidths_accessor(self):
        # per-level bandwidths reach the report: positive for a smoothed
        # run, absent for a plain one
        cfg = replace(RUN, eps=0.05, seed=2, smoother="kde", **FAST)
        res = run_mlmc(MODEL, DIST, GRID, HIER3, cfg)
        deltas = [lv["delta"] for lv in res.report()["levels"]]
        assert len(deltas) == res.l_max + 1
        assert all(d > 0 for d in deltas)
        assert deltas == [lv.delta for lv in res.levels]
        plain = run_mlmc(MODEL, DIST, GRID, HIER3, replace(RUN, eps=0.05, seed=2, **FAST))
        assert all(lv["delta"] is None for lv in plain.report()["levels"])


class TestOneSolvePerPass:
    """The engine solves each warmup or sizing pass of a level, all strata
    together, with one qoi_batch call per mesh; MC solves its fresh draws in
    one call."""

    @staticmethod
    def _count_calls(monkeypatch):
        calls = []
        qoi_batch = ModelSpec.qoi_batch

        def counted(self, w, cells, *args, **kwargs):
            calls.append((cells, int(np.size(w))))
            return qoi_batch(self, w, cells, *args, **kwargs)

        monkeypatch.setattr(ModelSpec, "qoi_batch", counted)
        return calls

    @staticmethod
    def _expected_calls(res, warmup, held=()):
        """(cells, samples) of every call of a one-stratum run, in the
        engine's pass order: open level l with its warmup, size it, then
        resize levels 0..l-1; a pass that grows a level beyond the rows its
        bank holds (held[l] from earlier runs, and the run's own) solves the
        rows it lacks at the fine and, above level 0, the coarse mesh."""
        sizes = [iter([warmup] + lv.history) for lv in res.levels]
        solved = [held[l] if l < len(held) else 0 for l in range(len(res.levels))]
        calls = []
        for top in range(len(res.levels)):
            for level in [top, top, *range(top)]:
                size = next(sizes[level])
                if size > solved[level]:
                    added, solved[level] = size - solved[level], size
                    calls += [(HIER.cells(l), added) for l in range(level, max(level - 2, -1), -1)]
        return calls

    @pytest.mark.parametrize("r", [1, 8])
    def test_one_call_per_mesh_per_pass(self, monkeypatch, r):
        calls = self._count_calls(monkeypatch)
        cfg = replace(RUN, eps=0.03, seed=5, **FAST)
        res = run_smlmc(MODEL, DIST, build_equal_width_strata(DIST, r), GRID, HIER3, cfg)
        assert res.l_max >= 2
        warmup = int(proportional_allocation(cfg.warmup, res.strat, MIN_STRATUM_SAMPLES).sum())
        assert calls == self._expected_calls(res, warmup)

    def test_held_rows_never_reach_qoi_batch(self, monkeypatch):
        # a smoothed run after a plain one on the same bank solves only the
        # rows the plain run did not; an sMLMC run at r = 1 after both
        # solves none
        bank = SampleBank(MODEL, DIST, HIER3)
        plain = run_mlmc(MODEL, DIST, GRID, HIER3, replace(RUN, eps=0.1, seed=5, **FAST),
                         bank=bank)
        calls = self._count_calls(monkeypatch)
        cfg = replace(RUN, eps=0.03, seed=5, smoother="kde", warmup=16)
        res = run_mlmc(MODEL, DIST, GRID, HIER3, cfg, bank=bank)
        assert calls == self._expected_calls(res, cfg.warmup,
                                             [lv.n_total for lv in plain.levels])
        assert calls and calls != self._expected_calls(res, cfg.warmup)  # some held, some not
        calls.clear()
        run_smlmc(MODEL, DIST, build_equal_width_strata(DIST, 1), GRID, HIER3, cfg, bank=bank)
        assert calls == []

    def test_other_boundaries_get_no_rows(self, monkeypatch):
        # two stratifications with the same r but other boundaries share no
        # stratum interval, so neither reads the other's rows
        first = build_equal_width_strata(DIST, 4)
        b = first.boundaries + np.array([0.0, 0.1, 0.1, 0.1, 0.0])
        p = np.diff(DIST.cdf(b))
        other = Stratification(boundaries=b, probs=p / p.sum())
        cfg = replace(RUN, eps=0.03, seed=5, **FAST)
        calls = self._count_calls(monkeypatch)
        alone = run_smlmc(MODEL, DIST, other, GRID, HIER3, cfg)
        alone_calls = list(calls)
        bank = SampleBank(MODEL, DIST, HIER3)
        run_smlmc(MODEL, DIST, first, GRID, HIER3, cfg, bank=bank)
        calls.clear()
        after = run_smlmc(MODEL, DIST, other, GRID, HIER3, cfg, bank=bank)
        assert calls == alone_calls
        assert after.report() == alone.report()
        assert np.array_equal(after.estimate.raw, alone.estimate.raw)

    # at eps 0.1 the finest level keeps more samples than MC needs
    @pytest.mark.parametrize("settings, fresh", [
        ((3, dict(eps=0.02, seed=17, **FAST)), True),
        ((1, dict(eps=0.1, seed=3, warmup=200)), False),
    ])
    def test_mc_solves_fresh_draws_in_one_call(self, monkeypatch, settings, fresh):
        # settings: the level cap and the run's settings
        cap, kw = settings
        cfg, hier = replace(RUN, **kw), replace(HIER, l_star=cap)
        mlmc_res = run_mlmc(MODEL, DIST, GRID, hier, cfg)
        calls = self._count_calls(monkeypatch)
        mc_res = run_mc(MODEL, DIST, GRID, hier, cfg, mlmc_res)
        extra = mc_res.n_samples - mc_res.n_reused
        assert (extra > 0) == fresh
        assert calls == ([(HIER.cells(mc_res.level), extra)] if fresh else [])

    def test_second_mc_solves_nothing(self, monkeypatch):
        # MC's fresh draws are rows of the bank: a second MC run on the same
        # MLMC run finds every row it needs held
        cfg, hier = replace(RUN, eps=0.02, seed=17, **FAST), replace(HIER, l_star=3)
        mlmc_res = run_mlmc(MODEL, DIST, GRID, hier, cfg)
        first = run_mc(MODEL, DIST, GRID, hier, cfg, mlmc_res)
        assert first.n_samples > first.n_reused
        calls = self._count_calls(monkeypatch)
        again = run_mc(MODEL, DIST, GRID, hier, cfg, mlmc_res)
        assert calls == []
        assert again.report() == first.report()
        assert np.array_equal(again.estimate.raw, first.estimate.raw)

    def test_realization_solves_each_row_once_across_tolerances(self, monkeypatch):
        # a realization runs its tolerances on one bank: per substream key it
        # solves the rows of the tolerance that needs the most, not the sum
        # of what each tolerance needs alone
        exp = replace(EXP, eps_values=(0.05, 0.03), methods=tuple(METHODS),
                      strata_counts=(4,), l_star=2, seed=3)

        def held(eps_values):
            """Rows each key of the realization's bank holds, and its meshes."""
            runs = list(run_realization(replace(exp, eps_values=eps_values), 0))
            assert not [res for *_, res in runs if isinstance(res, Exception)]
            bank = runs[0][-1].bank
            return {key: (rows.size, key[-1]) for key, rows in bank._held.items()}

        alone = [held((eps,)) for eps in exp.eps_values]
        calls = self._count_calls(monkeypatch)
        both = held(exp.eps_values)
        assert both == {key: max(h.get(key, (0,)) for h in alone)
                        for key in alone[0].keys() | alone[1].keys()}
        solved, expected = Counter(), Counter()
        for cells, n in calls:
            solved[cells] += n
        for n, meshes in both.values():
            expected.update(dict.fromkeys(meshes, n))
        assert solved == expected
        # the looser tolerance's rows are not solved again
        assert sum(solved.values()) < sum(n * len(m) for h in alone for n, m in h.values())


# warmups that differ by method, so that runs sharing a bank find some of
# the rows they ask for held and some not
BANK_WARMUPS = {"mlmc": 32, "mlmc_giles": 16, "mlmc_kde": 24,
                "smlmc": 32, "smlmc_kde": 16}


def _realization(exp, order, seed, shared):
    """The six methods of one realization at r = 4, run in the given order
    (mc straight after mlmc, which it reuses), on one shared bank or each
    on its own."""
    model, dist, grid, hier = (exp.model_spec(), exp.distribution(), exp.node_grid(),
                               replace(exp.hierarchy(), l_star=2))
    strat = build_equal_width_strata(dist, 4)
    bank = SampleBank(model, dist, hier) if shared else None
    out = {}
    for method in order:
        spec = METHODS[method]
        cfg = replace(RUN, eps=0.05, seed=seed, smoother=spec.smoother,
                      warmup=BANK_WARMUPS[method])
        if spec.stratified:
            out[method] = run_smlmc(model, dist, strat, grid, hier, cfg, bank=bank)
        else:
            out[method] = run_mlmc(model, dist, grid, hier, cfg, bank=bank)
        if method == "mlmc":
            out["mc"] = run_mc(model, dist, grid, hier, cfg, out["mlmc"])
    return out


class TestSampleBank:
    @given(
        exp=st.sampled_from([EXP, BURGERS_EXP]),
        seed=st.integers(min_value=0, max_value=10**6),
        order=st.permutations([m for m in METHODS if m != "mc"]),
    )
    @settings(max_examples=12, deadline=None)
    def test_shared_bank_changes_no_result(self, exp, seed, order):
        # whatever the order, runs sharing one bank report what runs on
        # their own banks report, bit for bit
        shared = _realization(exp, order, seed, shared=True)
        alone = _realization(exp, order, seed, shared=False)
        for method in METHODS:
            assert shared[method].report() == alone[method].report()
            assert np.array_equal(shared[method].estimate.raw, alone[method].estimate.raw)

    def test_bank_of_another_model_rejected(self):
        bank = SampleBank(BURGERS_EXP.model_spec(), DIST, HIER3)
        with pytest.raises(ValueError, match="sample bank"):
            run_mlmc(MODEL, DIST, GRID, HIER3, replace(RUN, eps=0.05, **FAST), bank=bank)

    def test_holds_sixteen_bytes_per_pair(self):
        # the bank's memory is O(rows held): 16 bytes per (fine, coarse) pair
        # plus a fixed overhead per key (its generator)
        hier = MeshHierarchy(m0=4, l_star=1)   # 8-cell solves: fast
        cdf = DIST.cdf(build_equal_width_strata(DIST, 4).boundaries)
        intervals = list(zip(cdf[:-1], cdf[1:]))
        keys, meshes = [(1, i) for i in range(4)], (hier.cells(1), hier.cells(0))

        # scipy's DST path keeps a varying number of small blocks alive from
        # one call to the next (from 1 to 44 of 54 bytes in a pass, in
        # identical processes); they are the transform's, not the bank's, so
        # traces whose latest frame lies in scipy are left out
        not_scipy = [tracemalloc.Filter(False, "*/scipy/*")]

        def held_bytes(per_pass):
            bank = SampleBank(MODEL, DIST, hier)
            counts = np.full(4, per_pass)
            tracemalloc.start()
            try:
                for n in range(0, 3 * per_pass, per_pass):
                    bank.take(7, keys, intervals, meshes, np.full(4, n), counts)
                snapshot = tracemalloc.take_snapshot()
            finally:
                tracemalloc.stop()
            return sum(stat.size for stat in
                       snapshot.filter_traces(not_scipy).statistics("filename"))

        # fill the solver's caches at the sizes measured, before measuring
        held_bytes(100), held_bytes(10_000)
        small, large = held_bytes(100), held_bytes(10_000)
        pairs = 4 * 3 * (10_000 - 100)
        assert 16 * pairs <= large - small <= 16 * pairs + 1024
        assert small <= 16 * 4 * 3 * 100 + 4 * 4096

    @given(seed=st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=3, deadline=None)
    def test_realization_peak_memory_bounded(self, seed):
        # one Burgers preset realization at eps 0.02 of all six methods, by
        # the runner smlmc run uses (one bank for the realization): its
        # smoothed runs mostly reach the level cap L7.  The peak RSS it adds
        # to the process stays bounded
        code = """
import resource, sys
from dataclasses import replace
from smlmc.cli import run_realization
from smlmc.config import preset
seed = int(sys.argv[1])
exp = replace(preset("burgers"), strata_counts=(8,), eps_values=(0.02,))
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
for eps, method, r, res in run_realization(exp, seed - exp.seed):
    if isinstance(res, Exception):
        raise res
print(before, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""
        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run([sys.executable, "-c", code, str(seed)],
                              capture_output=True, text=True, check=True,
                              env={**os.environ, "PYTHONPATH": str(src)})
        before, after = (int(x) for x in proc.stdout.split())
        assert after - before <= REALIZATION_RSS_KB


# peak RSS one Burgers realization may add, in KiB: at eps 0.02 it adds
# 5-6 MB (and 18 MB at eps 0.01); a bank that held solution fields instead
# of QoIs would add hundreds
REALIZATION_RSS_KB = 32 * 1024


class TestRunMc:
    def test_sample_count_and_cost(self):
        cfg = replace(RUN, eps=0.02, seed=17, **FAST)
        mlmc_res = run_mlmc(MODEL, DIST, GRID, HIER3, cfg)
        mc_res = run_mc(MODEL, DIST, GRID, HIER3, cfg, mlmc_res)
        top = mlmc_res.levels[-1]
        expected_n = mc_sample_count(
            float(top.var_ifine_pooled().max()), cfg.eps, 2.0 * SAMPLING_SAFETY
        )
        assert mc_res.n_samples == expected_n
        fine_work = MODEL.work_units(HIER.cells(mc_res.level))
        assert mc_res.total_cost == pytest.approx(expected_n * fine_work)

    def test_reuses_finest_level_samples(self):
        cfg = replace(RUN, eps=0.02, seed=17, **FAST)
        mlmc_res = run_mlmc(MODEL, DIST, GRID, HIER3, cfg)
        mc_res = run_mc(MODEL, DIST, GRID, HIER3, cfg, mlmc_res)
        assert mc_res.n_reused == min(mlmc_res.levels[-1].n_total, mc_res.n_samples)

    def test_reuse_capped_at_n_mc(self):
        # a loose tolerance keeps more fine samples than MC needs: the
        # estimate averages exactly the N_MC samples its cost charges for
        cfg, hier = replace(RUN, eps=0.1, seed=3, warmup=200), replace(HIER, l_star=1)
        mlmc_res = run_mlmc(MODEL, DIST, GRID, hier, cfg)
        mc_res = run_mc(MODEL, DIST, GRID, hier, cfg, mlmc_res)
        assert mlmc_res.levels[-1].n_total > mc_res.n_samples
        assert mc_res.n_reused == mc_res.n_samples
        kept = _plain_fine_rows(cfg.seed, mc_res.level, mc_res.n_samples)
        assert np.array_equal(mc_res.estimate.raw, _empirical_cdf(kept))

    @pytest.mark.parametrize("smoother, r", [("giles", 1), ("none", 4)])
    def test_needs_a_plain_unstratified_run(self, smoother, r):
        # only a plain single-stratum run draws its rows as MC would
        cfg = replace(RUN, eps=0.1, seed=3, warmup=16, smoother=smoother)
        hier = replace(HIER, l_star=1)
        res = run_smlmc(MODEL, DIST, build_equal_width_strata(DIST, r), GRID, hier, cfg)
        with pytest.raises(ValueError, match="plain, unstratified"):
            run_mc(MODEL, DIST, GRID, hier, cfg, res)

    def test_zero_variance_still_averages(self):
        # a grid above every QoI leaves no indicator variance, so the formula
        # asks for no MC samples; the run still averages one
        grid = NodeGrid(100.0, 120.0, 4)
        cfg, hier = replace(RUN, eps=0.05, seed=3, warmup=16), replace(HIER, l_star=1)
        mlmc_res = run_mlmc(MODEL, DIST, grid, hier, cfg)
        mc_res = run_mc(MODEL, DIST, grid, hier, cfg, mlmc_res)
        assert mc_res.n_samples == mc_res.n_reused == 1
        assert np.array_equal(mc_res.estimate.raw, np.ones(5))

    def test_estimate_is_a_cdf(self):
        cfg = replace(RUN, eps=0.02, seed=23, **FAST)
        mlmc_res = run_mlmc(MODEL, DIST, GRID, HIER3, cfg)
        mc_res = run_mc(MODEL, DIST, GRID, HIER3, cfg, mlmc_res)
        raw = mc_res.estimate.raw
        assert np.all(np.diff(raw) >= 0)  # plain empirical CDF is monotone
        assert raw.min() >= 0 and raw.max() <= 1


class TestRunConfig:
    def test_budget_factor(self):
        # the textbook split, 2 plain and 4 smoothed, times the safety of 2.5
        assert SAMPLING_SAFETY == 2.5
        assert replace(RUN, eps=0.01).budget_factor == 5.0
        assert replace(RUN, eps=0.01, smoother="kde").budget_factor == 10.0
        assert replace(RUN, eps=0.01, smoother="giles").budget_factor == 10.0

    def test_validation(self):
        with pytest.raises(ValueError):
            replace(RUN, eps=0.0)
        with pytest.raises(ValueError):
            replace(RUN, eps=0.01, smoother="boxcar")

    # a level's variance estimate needs two warmup samples
    @pytest.mark.parametrize("bad", [dict(warmup=1), dict(warmup=0), dict(warmup=-1)])
    def test_invalid_sampling_rejected(self, bad):
        with pytest.raises(ValueError, match="two warmup samples"):
            replace(RUN, eps=0.01, **bad)

    @pytest.mark.parametrize("bad,match", [
        (dict(seed=-1), "seed"),
    ])
    def test_invalid_run_settings_rejected(self, bad, match):
        # a negative seed fails in the RNG
        with pytest.raises(ValueError, match=match):
            replace(RUN, eps=0.01, **bad)

    def test_smallest_valid_sampling(self):
        cfg = replace(RUN, eps=0.01, warmup=MIN_STRATUM_SAMPLES)
        assert cfg.warmup == MIN_STRATUM_SAMPLES == 2
