import configparser
import os
import re
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import pytest

from smlmc import models
from smlmc.cli import _reference_cache_key, main
from smlmc.config import KEYS, ExperimentConfig, load_config, preset

README = Path(__file__).resolve().parent.parent / "README.md"


class TestPresets:
    def test_diffusion_matches_benchmark_setup(self):
        exp = preset("diffusion")
        assert exp.eps_values == (0.01, 0.008, 0.005)
        assert exp.l_star == 7
        assert exp.n_real == 50
        grid = exp.node_grid()
        assert (grid.a, grid.b) == (14.0, 28.0)
        assert grid.nodes.size == 29 and grid.h == 0.5
        dist = exp.distribution()
        assert (dist.mu, dist.sigma, dist.w_lo, dist.w_hi) == (3.0, 3.0, 1.0, 4.0)
        assert exp.hierarchy().cells(0) == 16
        assert exp.strata_counts == (8, 16)

    def test_burgers_matches_benchmark_setup(self):
        exp = preset("burgers")
        grid = exp.node_grid()
        assert (grid.a, grid.b) == (15.0, 65.0)
        assert grid.nodes.size == 101 and grid.h == 0.5
        dist = exp.distribution()
        assert (dist.mu, dist.sigma, dist.w_lo, dist.w_hi) == (1.5, 1.0, 0.0, 2.0)
        assert exp.hierarchy().cells(0) == 32
        assert exp.model_spec().final_time == 0.5

    def test_field_defaults_are_the_diffusion_preset(self):
        assert ExperimentConfig() == preset("diffusion")

    @pytest.mark.parametrize("name", ["diffusion", "burgers"])
    def test_values_have_their_annotated_types(self, name):
        # INI text converts by the field's annotated type: an int preset
        # value of a float field would load from its own text as a float,
        # and the two would give different reference cache keys
        exp = preset(name)
        wrong = [(f.name, getattr(exp, f.name)) for f in fields(ExperimentConfig)
                 if not isinstance(getattr(exp, f.name), f.type)]
        assert not wrong

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            preset("advection")

    def test_run_plan_order(self):
        exp = preset("diffusion")
        plan = exp.run_plan()
        assert plan[0] == ("mlmc", 1)
        assert ("mc", 1) in plan
        assert ("smlmc", 8) in plan and ("smlmc_kde", 16) in plan


class TestLoadConfig:
    def _write(self, tmp_path, body):
        path = tmp_path / "exp.ini"
        path.write_text(body)
        return str(path)

    def test_overrides_applied(self, tmp_path):
        path = self._write(tmp_path, """
[experiment]
model = diffusion
eps = 0.02
n_real = 3
methods = mlmc, mc
seed = 42
""")
        exp = load_config(path)
        assert exp.eps_values == (0.02,)
        assert exp.n_real == 3
        assert exp.seed == 42
        assert exp.methods == ("mlmc", "mc")
        assert exp.m0 == 16  # untouched preset value

    def test_unknown_key_rejected(self, tmp_path):
        path = self._write(tmp_path, """
[experiment]
model = diffusion
turbo = yes
""")
        with pytest.raises(ValueError, match="unknown keys"):
            load_config(path)

    def test_unknown_section_rejected(self, tmp_path):
        path = self._write(tmp_path, """
[experiment]
model = diffusion

[plotting]
style = fancy
""")
        with pytest.raises(ValueError, match="unknown config section"):
            load_config(path)

    @pytest.mark.parametrize("body", [
        # was "unknown keys in [model]: ['seed']"
        "[DEFAULT]\nseed = 1\n[experiment]\nmodel = diffusion\n[model]\nm0 = 16\n",
        # silently set the seed of [experiment]
        "[DEFAULT]\nseed = 1\n[experiment]\nmodel = diffusion\n",
    ])
    def test_default_section_rejected(self, tmp_path, body):
        with pytest.raises(ValueError, match=r"^unknown config section \[DEFAULT\]$"):
            load_config(self._write(tmp_path, body))

    def test_mc_requires_mlmc(self, tmp_path):
        path = self._write(tmp_path, """
[experiment]
model = diffusion
methods = mc
""")
        with pytest.raises(ValueError, match="mlmc"):
            load_config(path)

    def test_missing_model_rejected(self, tmp_path):
        path = self._write(tmp_path, "[experiment]\nseed = 1\n")
        with pytest.raises(ValueError, match="model"):
            load_config(path)

    def test_missing_file(self):
        with pytest.raises(ValueError):
            load_config("/nonexistent/exp.ini")

    @pytest.mark.parametrize("value", ["gpu", "wallclock"])
    def test_bad_work_model(self, tmp_path, value):
        # the work-model key is retired: no value but the one model left loads
        path = self._write(tmp_path, f"[experiment]\nmodel = diffusion\nwork_model = {value}\n")
        with pytest.raises(ValueError, match=r"\[experiment\] work_model"):
            load_config(path)

    def test_retired_deterministic_work_model_ignored(self, tmp_path):
        # the benchmark's generated INI still writes this line
        path = self._write(tmp_path, "[experiment]\nmodel = diffusion\n"
                           "work_model = deterministic\n")
        assert load_config(path) == preset("diffusion")

    def test_work_model_flag_gone(self):
        # an argparse usage error; --dry-run keeps a flag that came back from
        # starting the preset's runs
        with pytest.raises(SystemExit) as exc:
            main(["run", "--preset", "diffusion", "--work-model", "deterministic",
                  "--dry-run"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("s_count", [1, 2])
    def test_too_few_grid_nodes_rejected(self, tmp_path, s_count):
        # the CDF spline needs four nodes; a run would fail only after
        # computing its whole estimate
        path = self._write(tmp_path, "[experiment]\nmodel = diffusion\n"
                           f"[grid]\ns_count = {s_count}\n")
        with pytest.raises(ValueError, match="s_count"):
            load_config(path)

    def test_four_grid_nodes_accepted(self, tmp_path):
        path = self._write(tmp_path, "[experiment]\nmodel = diffusion\n"
                           "[grid]\ns_count = 3\n")
        assert load_config(path).node_grid().nodes.size == 4

    def test_burgers_support_beyond_speed_bound(self, tmp_path):
        # the Burgers time step is fixed by the inflow state 2;
        # a wider plateau support would break the CFL condition
        path = self._write(tmp_path, """
[experiment]
model = burgers

[distribution]
w_hi = 2.5
""")
        with pytest.raises(ValueError, match="wave-speed bound"):
            load_config(path)

    # above 1 the Burgers scheme is not monotone and its states can turn
    # negative, which the upwind kernel does not admit
    @pytest.mark.parametrize("model", ["burgers", "diffusion"])
    @pytest.mark.parametrize("cfl", ["0", "-0.1", "1.0000001", "1.5"])
    def test_cfl_outside_unit_interval_rejected(self, tmp_path, model, cfl):
        path = self._write(tmp_path, f"[experiment]\nmodel = {model}\n"
                           f"[model]\ncfl = {cfl}\n")
        with pytest.raises(ValueError, match="cfl"):
            load_config(path)

    def test_cfl_one_accepted(self, tmp_path):
        path = self._write(tmp_path, "[experiment]\nmodel = burgers\n"
                           "[model]\ncfl = 1.0\n")
        exp = load_config(path)
        assert exp.cfl == 1.0 and exp.model_spec().cfl == 1.0


class TestSamplingValidation:
    """Sampling settings that cannot run fail when the config is built, not
    when a run first needs them."""

    def _write(self, tmp_path, body):
        path = tmp_path / "exp.ini"
        path.write_text("[experiment]\nmodel = diffusion\n" + body)
        return str(path)

    @pytest.mark.parametrize("body,match", [
        # batch_size, min_stratum_samples and the warmups are no longer
        # settings: [sampling] and [warmup], which no key is left in, fail as
        # unknown sections, at any value
        ("[sampling]\nbatch_size = 0\n", r"^unknown config section \[sampling\]$"),
        ("[sampling]\nmin_stratum_samples = 0\n", r"^unknown config section \[sampling\]$"),
        ("[warmup]\nplain = 1\n", r"^unknown config section \[warmup\]$"),
        ("[warmup]\nsmoothed = 1\n", r"^unknown config section \[warmup\]$"),
        ("[warmup]\nplain = 200\n", r"^unknown config section \[warmup\]$"),
        ("[warmup]\nstratified_plain = 0\n", r"^unknown config section \[warmup\]$"),
        ("[warmup]\nstratified_smoothed = 1\n", r"^unknown config section \[warmup\]$"),
    ])
    def test_rejected_at_load(self, tmp_path, body, match):
        with pytest.raises(ValueError, match=match):
            load_config(self._write(tmp_path, body))

    def test_stratified_warmup_below_strata_floor(self, tmp_path):
        # 26 strata x 2 samples need a warmup of 52; smlmc_kde takes the
        # smoothed warmup of 50
        path = self._write(tmp_path, "strata = 8, 26\n")
        with pytest.raises(ValueError, match=(
                r"^\[experiment\] strata: smlmc_kde takes 50 warmup samples a level, "
                r"too few to give 2 to each of 26 strata$")):
            load_config(path)

    def test_floor_only_for_methods_that_run(self):
        exp = preset("diffusion")
        with pytest.raises(ValueError, match="smlmc_kde takes 50"):
            replace(exp, strata_counts=(26,))
        ok = replace(exp, methods=("mlmc", "smlmc"), strata_counts=(26,))
        assert ok.strata_counts == (26,)
        with pytest.raises(ValueError, match="smlmc takes 200 warmup samples a level, "
                           "too few to give 2 to each of 101 strata"):
            replace(ok, strata_counts=(101,))

    def test_floor_met_exactly(self):
        # WARMUP_SMOOTHED / 2 and WARMUP_PLAIN / 2 strata: each stratified
        # method at its floor
        assert replace(preset("diffusion"), strata_counts=(25,)).strata_counts == (25,)
        exp = replace(preset("diffusion"), methods=("mlmc", "smlmc"), strata_counts=(100,))
        assert exp.strata_counts == (100,)


def _ini_of(exp) -> str:
    """An INI file that sets every key of the table to exp's value."""
    sections: dict = {}
    for section, key, field, _ in KEYS:
        value = getattr(exp, field)
        text = ", ".join(map(str, value)) if isinstance(value, tuple) else str(value)
        sections.setdefault(section, []).append(f"{key} = {text}")
    return "".join(f"[{section}]\n" + "\n".join(lines) + "\n\n"
                   for section, lines in sections.items())


class TestKeyTable:
    @pytest.mark.parametrize("name", ["diffusion", "burgers"])
    def test_every_key_round_trips_to_the_preset(self, tmp_path, name):
        path = tmp_path / "full.ini"
        path.write_text(_ini_of(preset(name)))
        assert load_config(str(path)) == preset(name)

    def test_each_key_and_field_once(self):
        assert len({(s, k) for s, k, _, _ in KEYS}) == len(KEYS)
        assert len({f for _, _, f, _ in KEYS}) == len(KEYS)

    @pytest.mark.parametrize("name,digest", [
        ("diffusion", "5e3cea12a46a67bb"),
        ("burgers", "dfd8396b57bf178f"),
    ])
    def test_reference_digests_pinned(self, name, digest):
        # cached references on disk stay valid as long as these hold
        assert _reference_cache_key(preset(name)) == digest

    @pytest.mark.parametrize("owner,name", [
        (ExperimentConfig, "ref_quad_points"),
        (ExperimentConfig, "ref_time_coarsen"),
        (models, "QOI_SCALE"),
        (models.MeshHierarchy, "factor"),
        (models, "BURGERS_INFLOW"),
        (models, "DIFFUSION_IC_WIDTH"),
    ])
    def test_reference_key_moves_with_each_constant(self, monkeypatch, owner, name):
        # a reference built with another value of a constant the build reads
        # is cached under another name, so it is never read as a hit
        exp = preset("diffusion")
        before = _reference_cache_key(exp)
        monkeypatch.setattr(owner, name, 2 * getattr(owner, name))
        assert _reference_cache_key(exp) != before

    def test_readme_example_names_exactly_the_table_keys(self):
        block = re.search(r"## Configuration.*?```ini\n(.*?)```", README.read_text(),
                          re.S).group(1)
        parser = configparser.ConfigParser()
        parser.read_string(block)
        listed = [(section, key) for section in parser.sections()
                  for key in parser[section]]
        assert listed == [(section, key) for section, key, _, _ in KEYS]


# every float key, the eps list included, read off the table
FLOAT_KEYS = [(section, key) for section, key, field, _ in KEYS
              if isinstance(value := getattr(preset("diffusion"), field), float)
              or isinstance(value, tuple) and isinstance(value[0], float)]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("section,key", FLOAT_KEYS)
def test_non_finite_float_rejected(tmp_path, section, key, value):
    # nan gets past range checks such as value <= 0, inf past lower bounds;
    # either would fail a run mid-way
    path = tmp_path / "bad.ini"
    path.write_text("[experiment]\nmodel = diffusion\n"
                    + ("" if section == "experiment" else f"[{section}]\n")
                    + f"{key} = {value}\n")
    with pytest.raises(ValueError, match=rf"^\[{section}\] {key} must be finite, not "):
        load_config(str(path))


class TestRejectedAtLoad:
    """Settings that no run can use fail in load_config, each in the object
    that uses it."""

    @pytest.mark.parametrize("body,match", [
        ("seed = -1\n", "seed -1"),
        # the polynomial degree, the calibration fraction and the sampling
        # safety are constants: their sections are unknown, at any value
        ("[smoothing]\ndegree = 3\n", r"^unknown config section \[smoothing\]$"),
        ("[smoothing]\ncalibration_fraction = 0.15\n",
         r"^unknown config section \[smoothing\]$"),
        ("[sampling]\nsafety = 2.5\n", r"^unknown config section \[sampling\]$"),
        ("[distribution]\nsigma = -1\n", "sigma"),
        # the law's mass lies near e^3 = 20, outside [1, 4]: a stratified run
        # never ended
        ("[distribution]\nsigma = 0.01\n",
         r"^\[distribution\]: the law at mu 3\.0, sigma 0\.01 has no mass on the "
         r"support \[1\.0, 4\.0\] in double precision$"),
        ("[model]\nm0 = 1\n", "coarsest mesh"),
        ("[model]\nrefinement = 1\n", "refinement"),
        # the refinement factor and the QoI scale are testbed constants: their
        # keys are unknown, at any value
        ("[model]\nrefinement = 2\n", r"^unknown keys in \[model\]: \['refinement'\]$"),
        ("[model]\nqoi_scale = 10.0\n", r"^unknown keys in \[model\]: \['qoi_scale'\]$"),
        ("[model]\nl_star = -1\n", "l_star"),
        ("eps = 0.01, 0\n", "eps"),
        ("eps = 0.01, nan\n", r"^\[experiment\] eps must be finite, not \(0\.01, nan\)$"),
        ("strata = 8, 0\n", "stratum"),
        # an empty list ran nothing and failed in the cost table; a repeated
        # value ran its runs again over the same report files
        ("eps =\n", r"^\[experiment\] eps must list each value once"),
        ("eps = 0.01, 0.005, 0.01\n", r"^\[experiment\] eps must list each value once"),
        # report files name a tolerance by six significant digits
        ("eps = 0.05, 0.05000001\n",
         r"^\[experiment\] eps 0\.05 and 0\.05000001 both name their report files eps0\.05$"),
        ("strata = 8, 8\n", r"^\[experiment\] strata must list each value once"),
        ("strata =\n", r"^\[experiment\] strata must list each value once"),
        ("methods = mlmc, mlmc\n", r"^\[experiment\] methods must list each value once"),
        ("methods =\n", r"^\[experiment\] methods must list each value once"),
        # the reference oracle's resolution: 0 cells gave an all-NaN
        # reference, 1 cell a halving check against itself, and a zero
        # mesh_refine a ZeroDivisionError
        ("[reference]\nquad_cells = 0\n", r"^\[reference\] quad_cells must be at least 2: "
         r"the halving check compares it with quad_cells // 2$"),
        ("[reference]\nquad_cells = 1\n", r"^\[reference\] quad_cells must be at least 2: "
         r"the halving check compares it with quad_cells // 2$"),
        ("[reference]\nmesh_refine = 0\n", r"^\[reference\] mesh_refine must be positive"),
        # the quadrature points and the time-step relaxation are constants:
        # their keys are unknown, at any value
        ("[reference]\nquad_points = 0\n", r"^unknown keys in \[reference\]: \['quad_points'\]$"),
        ("[reference]\nquad_points = 8\n", r"^unknown keys in \[reference\]: \['quad_points'\]$"),
        ("[reference]\ntime_coarsen = -4\n",
         r"^unknown keys in \[reference\]: \['time_coarsen'\]$"),
        ("[reference]\ntime_coarsen = 4.0\n",
         r"^unknown keys in \[reference\]: \['time_coarsen'\]$"),
        # the object's own message follows the INI section it reads and, for
        # a run's settings, the method, the tolerance and the keys it names
        ("seed = -1\n", r"^mlmc at eps 0\.01, \[experiment\] seed: seed -1 must be"),
        # the warmups are constants: a [warmup] section is unknown, so a
        # warmup below two is no longer a run's own error
        ("[warmup]\nsmoothed = 1\n", r"^unknown config section \[warmup\]$"),
        ("[model]\nm0 = 1\n", r"^\[model\]: coarsest mesh"),
        # every run on such a domain fails
        ("[model]\ndomain_length = 0\n", r"^\[model\]: domain_length must be positive$"),
        ("[model]\ndomain_length = -4\n", r"^\[model\]: domain_length must be positive$"),
        # a value that does not convert names its key
        ("[model]\nm0 = abc\n", r"^\[model\] m0: invalid literal for int\(\)"),
        ("[model]\nfinal_time = abc\n", r"^\[model\] final_time: could not convert"),
        ("strata = 8, x\n", r"^\[experiment\] strata: invalid literal for int\(\)"),
    ])
    def test_rejected(self, tmp_path, body, match):
        path = tmp_path / "bad.ini"
        path.write_text("[experiment]\nmodel = diffusion\n" + body)
        with pytest.raises(ValueError, match=match):
            load_config(str(path))

    def test_cli_dry_run_stops_before_the_plan(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[experiment]\nmodel = diffusion\n[distribution]\nsigma = -1\n")
        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from smlmc.cli import main; "
             "sys.exit(main(sys.argv[1:]))", "run", "--config", str(path), "--dry-run"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert proc.returncode != 0
        assert proc.stdout == ""
        assert "sigma must be positive" in proc.stderr
