import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from smlmc.cli import main
from smlmc.config import METHODS, load_config, preset, run_tag

TINY_CONFIG = """
[experiment]
model = diffusion
eps = 0.05
methods = {methods}
strata = {strata}
n_real = 2
seed = 3

[model]
l_star = 2

[warmup]
plain = 32
smoothed = 16
"""


def _write_config(tmp_path, methods="mlmc, mc, smlmc", strata="2"):
    path = tmp_path / "exp.ini"
    path.write_text(TINY_CONFIG.format(methods=methods, strata=strata))
    return str(path)


@pytest.fixture(scope="module")
def full_run(tmp_path_factory):
    """One run of TINY_CONFIG with every method, and sMLMC at r = 1 too:
    the config path and the output directory."""
    tmp_path = tmp_path_factory.mktemp("full")
    cfg = _write_config(tmp_path, methods=", ".join(METHODS), strata="1, 2")
    out = tmp_path / "results"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    return cfg, out


# the first 16 hex digits of the sha256 of each file full_run writes, taken
# with numpy 2.4.6 and scipy 1.17.1
OUTPUT_DIGESTS = {
    "costs.csv": "364d10db771fb822",
    "reports/eps0.05_run0_mc.json": "3dcc5f89dcc5a995",
    "reports/eps0.05_run0_mc_cdf.csv": "cd338124bb99fd83",
    "reports/eps0.05_run0_mlmc.json": "1eeec64ea215883d",
    "reports/eps0.05_run0_mlmc_cdf.csv": "313790b60ff99fc1",
    "reports/eps0.05_run0_mlmc_giles.json": "7a26799216235e69",
    "reports/eps0.05_run0_mlmc_giles_cdf.csv": "13500df08a448a94",
    "reports/eps0.05_run0_mlmc_kde.json": "89472b73b393d77e",
    "reports/eps0.05_run0_mlmc_kde_cdf.csv": "890f2a1d0d7e87f3",
    "reports/eps0.05_run0_smlmc_kde_r1.json": "49fa5139e900b92e",
    "reports/eps0.05_run0_smlmc_kde_r1_cdf.csv": "890f2a1d0d7e87f3",
    "reports/eps0.05_run0_smlmc_kde_r2.json": "b15dc21db78f6ab6",
    "reports/eps0.05_run0_smlmc_kde_r2_cdf.csv": "72dffcb19714f131",
    "reports/eps0.05_run0_smlmc_r1.json": "c803aac31a3bea7a",
    "reports/eps0.05_run0_smlmc_r1_cdf.csv": "313790b60ff99fc1",
    "reports/eps0.05_run0_smlmc_r2.json": "34f52718f620f822",
    "reports/eps0.05_run0_smlmc_r2_cdf.csv": "42b375ffa47a2319",
    "reports/eps0.05_run1_mc.json": "b0dfd824e54e9ff5",
    "reports/eps0.05_run1_mc_cdf.csv": "63d13e9f41df30a3",
    "reports/eps0.05_run1_mlmc.json": "be0fa2b064eea977",
    "reports/eps0.05_run1_mlmc_cdf.csv": "cf14fc8e0188619d",
    "reports/eps0.05_run1_mlmc_giles.json": "9e440dddc570ccfb",
    "reports/eps0.05_run1_mlmc_giles_cdf.csv": "86ecf4e29b5bd2e1",
    "reports/eps0.05_run1_mlmc_kde.json": "ce72d75126d60159",
    "reports/eps0.05_run1_mlmc_kde_cdf.csv": "c90890a6ac2061a0",
    "reports/eps0.05_run1_smlmc_kde_r1.json": "6e68decaf7159ef6",
    "reports/eps0.05_run1_smlmc_kde_r1_cdf.csv": "c90890a6ac2061a0",
    "reports/eps0.05_run1_smlmc_kde_r2.json": "90c39454482b34f5",
    "reports/eps0.05_run1_smlmc_kde_r2_cdf.csv": "9717bc3f66313d59",
    "reports/eps0.05_run1_smlmc_r1.json": "3035386c0a163b9d",
    "reports/eps0.05_run1_smlmc_r1_cdf.csv": "cf14fc8e0188619d",
    "reports/eps0.05_run1_smlmc_r2.json": "5f834831e3490244",
    "reports/eps0.05_run1_smlmc_r2_cdf.csv": "8267fb4fc84f4c7c",
    "summary.json": "9de5d4df73fc640a",
}


class TestRun:
    def test_dry_run_prints_matrix(self, tmp_path, capsys):
        cfg = _write_config(tmp_path)
        rc = main(["run", "--config", cfg, "--dry-run"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "eps=0.05 run=0" in out and "eps=0.05 run=1" in out
        assert "smlmc_r2" in out

    def test_end_to_end_artifacts(self, full_run):
        cfg, out = full_run
        assert (out / "costs.csv").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["failures"] == []
        assert "work_model" not in summary
        tags = [run_tag(m, r) for m, r in load_config(cfg).run_plan()]
        assert "smlmc_r1" in tags and "smlmc_kde_r2" in tags
        for k in range(2):
            for tag in tags:
                # each report names its run as its file name does
                stem = out / "reports" / f"eps0.05_run{k}_{tag}"
                report = json.loads(stem.with_name(stem.name + ".json").read_text())
                assert report["method"] == tag and report["run"] == k
                assert "total_cost" in report and "work_model" not in report
                csv = stem.with_name(stem.name + "_cdf.csv").read_text()
                assert csv.splitlines()[0] == "q,raw,processed"
        assert len(list((out / "reports").glob("*.json"))) == 2 * len(tags)
        assert len(list((out / "reports").glob("*_cdf.csv"))) == 2 * len(tags)

    def test_output_digests(self, full_run):
        # the fixed reference for byte-identical outputs: a change that moves
        # these bytes on purpose records the new digests and says why
        _, out = full_run
        digests = {p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()[:16]
                   for p in sorted(out.rglob("*")) if p.is_file()}
        assert digests == OUTPUT_DIGESTS

    def test_byte_identical_outputs_under_deterministic_work(self, tmp_path):
        cfg = _write_config(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", cfg, "--out", str(out_a)]) == 0
        assert main(["run", "--config", cfg, "--out", str(out_b)]) == 0
        assert (out_a / "costs.csv").read_bytes() == (out_b / "costs.csv").read_bytes()
        for f in sorted((out_a / "reports").glob("*")):
            twin = out_b / "reports" / f.name
            assert f.read_bytes() == twin.read_bytes()

    def test_seed_flag_changes_outputs(self, tmp_path):
        cfg = _write_config(tmp_path, methods="mlmc")
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", cfg, "--out", str(out_a)]) == 0
        assert main(["run", "--config", cfg, "--out", str(out_b),
                     "--seed", "99"]) == 0
        assert (out_a / "costs.csv").read_bytes() != (out_b / "costs.csv").read_bytes()

    def test_needs_preset_or_config(self):
        with pytest.raises(SystemExit):
            main(["run"])


class TestMalformedConfig:
    @pytest.mark.parametrize("body,match", [
        ("[experiment]\nmodel = diffusion\nseed = 1\nseed = 2\n",
         "option 'seed' in section 'experiment' already exists"),
        ("seed = 1\n", "File contains no section headers"),
    ])
    def test_ends_in_one_line(self, tmp_path, body, match):
        path = tmp_path / "bad.ini"
        path.write_text(body)
        with pytest.raises(SystemExit) as exc:
            main(["run", "--config", str(path), "--dry-run"])
        message = str(exc.value)
        assert message.startswith("smlmc: invalid config: ") and "\n" not in message
        assert match in message

    def test_percent_is_literal(self, tmp_path):
        # no key interpolates, so a % is part of the value
        path = tmp_path / "exp.ini"
        path.write_text("[experiment]\nmodel = diffusion\nout = res%ults\n")
        assert load_config(str(path)).out == "res%ults"
        assert main(["run", "--config", str(path), "--dry-run"]) == 0


class TestReference:
    def test_compute_and_cache(self, tmp_path, capsys):
        cfg_path = tmp_path / "ref.ini"
        cfg_path.write_text("""
[experiment]
model = diffusion

[model]
l_star = 2

[reference]
quad_cells = 64
quad_points = 4
mesh_refine = 2
time_coarsen = 4.0
""")
        out = tmp_path / "refs"
        assert main(["reference", "--config", str(cfg_path), "--out", str(out)]) == 0
        files = list(out.glob("reference_diffusion_*.json"))
        assert len(files) == 1
        payload = json.loads(files[0].read_text())
        values = np.asarray(payload["raw"])
        assert np.all(np.diff(values) >= 0)
        assert values[0] <= 1e-6 and values[-1] >= 1.0 - 1e-6
        assert "halving_delta" in payload["metadata"]
        # second invocation is a cache hit and leaves the file untouched
        stamp = files[0].stat().st_mtime_ns
        assert main(["reference", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert "cache hit" in capsys.readouterr().out
        assert files[0].stat().st_mtime_ns == stamp


@pytest.mark.parametrize("argv", [
    ["reference", "--preset", "diffusion", "--seed", "1"],
    ["inspect", "strata", "--preset", "diffusion", "--out", "x"],
    ["inspect", "strata", "--preset", "diffusion", "--seed", "1"],
])
def test_options_a_command_does_not_read_are_rejected(argv):
    # the reference does not depend on the seed, and inspect writes no file
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def _smoothing_config(tmp_path, degree, methods="mlmc, mlmc_giles"):
    path = tmp_path / "smoothing.ini"
    path.write_text(f"[experiment]\nmodel = diffusion\nmethods = {methods}\n"
                    f"[smoothing]\ndegree = {degree}\n")
    return str(path)


class TestInspect:
    def test_giles_poly_linear_ramp(self, tmp_path, capsys):
        assert main(["inspect", "giles-poly", "--config", _smoothing_config(tmp_path, 1)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["coeffs"] == pytest.approx([0.5, -0.5, 0.0])

    def test_giles_poly_degree_from_config(self, tmp_path, capsys):
        assert main(["inspect", "giles-poly", "--config", _smoothing_config(tmp_path, 5)]) == 0
        assert json.loads(capsys.readouterr().out)["degree_d"] == 5

    @pytest.mark.parametrize("argv", [
        ["strata", "--preset", "diffusion", "--r", "0"],
        ["solver-field", "--preset", "burgers", "--w", "3.0"],
        ["solver-field", "--preset", "diffusion", "--cells", "1"],
        # inputs the kernels take but cannot solve: the field is not finite
        ["solver-field", "--preset", "diffusion", "--w", "nan"],
        ["solver-field", "--preset", "diffusion", "--w", "inf"],
        ["solver-field", "--preset", "burgers", "--w", "nan"],
    ])
    @pytest.mark.filterwarnings("error")  # no numpy warning comes before the message
    def test_bad_arguments_end_in_a_message(self, argv):
        with pytest.raises(SystemExit, match=f"smlmc: invalid inspect {argv[0]}: "):
            main(["inspect", *argv])

    @pytest.mark.parametrize("cells", ["0", "1", "-3"])
    @pytest.mark.parametrize("model", ["diffusion", "burgers"])
    def test_fewer_than_two_cells_end_in_a_message(self, model, cells):
        with pytest.raises(SystemExit) as exc:
            main(["inspect", "solver-field", "--preset", model, "--cells", cells])
        assert str(exc.value) == "smlmc: invalid inspect solver-field: need at least two cells"

    def test_bad_degree_ends_in_a_message(self, tmp_path):
        # the degree is only checked at load time when a polynomial method runs
        cfg = _smoothing_config(tmp_path, -1, methods="mlmc")
        with pytest.raises(SystemExit, match="smlmc: invalid inspect giles-poly: "):
            main(["inspect", "giles-poly", "--config", cfg])

    def test_strata_table(self, capsys):
        assert main(["inspect", "strata", "--preset", "diffusion", "--r", "8"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "stratum,lower,upper,prob"
        assert len(lines) == 9
        probs = [float(l.split(",")[3]) for l in lines[1:]]
        assert sum(probs) == pytest.approx(1.0, abs=1e-12)

    def test_solver_field_burgers(self, capsys):
        assert main(["inspect", "solver-field", "--preset", "burgers",
                     "--w", "1.0", "--cells", "64"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "x,u"
        values = np.array([float(l.split(",")[1]) for l in lines[1:]])
        assert np.all(np.isfinite(values))
        assert values.min() >= 0.0 and values.max() <= 2.0

    def test_solver_field_diffusion(self, capsys):
        cells = 32
        assert main(["inspect", "solver-field", "--preset", "diffusion",
                     "--w", "2.0", "--cells", str(cells)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "x,u"
        rows = np.array([[float(v) for v in l.split(",")] for l in lines[1:]])
        # the cells + 1 nodes from 0 to domain_length, walls included
        assert rows.shape == (cells + 1, 2)
        assert rows[0, 0] == 0.0 and rows[-1, 0] == preset("diffusion").domain_length
        assert (rows[0, 1], rows[-1, 1]) == (-1.0, 1.0)
        assert np.all(np.isfinite(rows[:, 1]))
