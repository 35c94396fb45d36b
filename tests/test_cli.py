import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from smlmc import cdf as cdf_mod
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
    "costs.csv": "c8675e304dac120c",
    "reports/eps0.05_run0_mc.json": "08f294e8d5090c8a",
    "reports/eps0.05_run0_mc_cdf.csv": "dd163887fe0c4d15",
    "reports/eps0.05_run0_mlmc.json": "7abaf0a86a5a4fff",
    "reports/eps0.05_run0_mlmc_cdf.csv": "43e208e19f2c1104",
    "reports/eps0.05_run0_mlmc_giles.json": "daac20b70f62b764",
    "reports/eps0.05_run0_mlmc_giles_cdf.csv": "fd2e2f45f1371314",
    "reports/eps0.05_run0_mlmc_kde.json": "f34236335ef74d1b",
    "reports/eps0.05_run0_mlmc_kde_cdf.csv": "0ea56e9e546812b3",
    "reports/eps0.05_run0_smlmc_kde_r1.json": "26a321409971d4ea",
    "reports/eps0.05_run0_smlmc_kde_r1_cdf.csv": "0ea56e9e546812b3",
    "reports/eps0.05_run0_smlmc_kde_r2.json": "8e22fb0e774e1277",
    "reports/eps0.05_run0_smlmc_kde_r2_cdf.csv": "b46697ff725e0ddd",
    "reports/eps0.05_run0_smlmc_r1.json": "56dd0db69149f166",
    "reports/eps0.05_run0_smlmc_r1_cdf.csv": "43e208e19f2c1104",
    "reports/eps0.05_run0_smlmc_r2.json": "b403a30052f87e96",
    "reports/eps0.05_run0_smlmc_r2_cdf.csv": "adfbbfe65fee8aaf",
    "reports/eps0.05_run1_mc.json": "678309f3630af2ad",
    "reports/eps0.05_run1_mc_cdf.csv": "0abe6a807a6c560e",
    "reports/eps0.05_run1_mlmc.json": "7f928c8dc1cb3f1a",
    "reports/eps0.05_run1_mlmc_cdf.csv": "3dd8f475e99f4f8f",
    "reports/eps0.05_run1_mlmc_giles.json": "84451b7875eca4f5",
    "reports/eps0.05_run1_mlmc_giles_cdf.csv": "b9cac3562d458d7a",
    "reports/eps0.05_run1_mlmc_kde.json": "1f8ff89695572720",
    "reports/eps0.05_run1_mlmc_kde_cdf.csv": "5c3690ae7cae97e6",
    "reports/eps0.05_run1_smlmc_kde_r1.json": "a1ad289db728fc18",
    "reports/eps0.05_run1_smlmc_kde_r1_cdf.csv": "5c3690ae7cae97e6",
    "reports/eps0.05_run1_smlmc_kde_r2.json": "f740096a2fe9aa91",
    "reports/eps0.05_run1_smlmc_kde_r2_cdf.csv": "21315b6308a0be5e",
    "reports/eps0.05_run1_smlmc_r1.json": "47f311d53ae1fbf4",
    "reports/eps0.05_run1_smlmc_r1_cdf.csv": "3dd8f475e99f4f8f",
    "reports/eps0.05_run1_smlmc_r2.json": "475e0c561cc8e052",
    "reports/eps0.05_run1_smlmc_r2_cdf.csv": "a07aabebd3c1c9f8",
    "summary.json": "9e8cbabb9c90f368",
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

    def test_sample_count_past_int64_fails_the_run(self, tmp_path, capsys):
        # level 0 asks 1.25e20 samples, which once wrapped to a negative count:
        # the run stopped at its warmups and exited 0
        path = tmp_path / "tight.ini"
        path.write_text("[experiment]\nmodel = diffusion\neps = 1e-10\nmethods = mlmc\n"
                        "n_real = 1\n[model]\nl_star = 2\n")
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        failed = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("FAILED")]
        assert failed == ["FAILED eps=1e-10 run=0 mlmc: a stratum needs 1.25e+20 samples "
                          "at eps 1e-10, not below 2^63"]


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


REF_CONFIG = """
[experiment]
model = diffusion

[model]
l_star = 2

[reference]
quad_cells = 64
mesh_refine = 2
"""


class TestReference:
    def test_compute_and_cache(self, tmp_path, capsys):
        cfg_path = tmp_path / "ref.ini"
        cfg_path.write_text(REF_CONFIG)
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

    def test_write_that_fails_leaves_no_cache(self, tmp_path, monkeypatch):
        # a later call would read a partial file under the cache name as a hit
        def write_part(estimate, path):
            Path(path).write_text('{"grid": {"a": ')
            raise OSError("no space left on device")

        monkeypatch.setattr(cdf_mod, "cdf_to_json", write_part)
        cfg_path = tmp_path / "ref.ini"
        cfg_path.write_text(REF_CONFIG)
        out = tmp_path / "refs"
        with pytest.raises(OSError, match="no space left"):
            main(["reference", "--config", str(cfg_path), "--out", str(out)])
        assert list(out.iterdir()) == []

    def test_cut_short_cache_ends_in_one_line(self, tmp_path):
        cfg_path = tmp_path / "ref.ini"
        cfg_path.write_text(REF_CONFIG)
        out = tmp_path / "refs"
        assert main(["reference", "--config", str(cfg_path), "--out", str(out)]) == 0
        [path] = out.glob("reference_diffusion_*.json")
        path.write_bytes(path.read_bytes()[:200])
        with pytest.raises(SystemExit) as exc:
            main(["reference", "--config", str(cfg_path), "--out", str(out)])
        message = str(exc.value)
        assert message.startswith(f"smlmc: invalid reference cache {path}: ")
        assert "\n" not in message


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


class TestInspect:
    def test_giles_poly_prints_the_run_kernel(self, capsys):
        # the polynomial every mlmc_giles run smooths with: 1/2 - (9/8) s + (5/8) s^3
        assert main(["inspect", "giles-poly", "--preset", "burgers"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["degree_d"] == 3
        assert payload["coeffs"] == pytest.approx([0.5, -1.125, 0.0, 0.625, 0.0], abs=1e-12)

    @pytest.mark.parametrize("argv", [
        ["strata", "--preset", "diffusion", "--r", "0"],
        ["solver-field", "--preset", "burgers", "--w", "3.0"],
        ["solver-field", "--preset", "diffusion", "--cells", "1"],
        # inputs the kernels take but cannot solve: the field is not finite
        ["solver-field", "--preset", "diffusion", "--w", "nan"],
        ["solver-field", "--preset", "diffusion", "--w", "inf"],
        ["solver-field", "--preset", "burgers", "--w", "nan"],
    ])
    def test_bad_arguments_end_in_a_message(self, argv):
        with pytest.raises(SystemExit, match=f"smlmc: invalid inspect {argv[0]}: "):
            main(["inspect", *argv])

    @pytest.mark.parametrize("cells", ["0", "1", "-3"])
    @pytest.mark.parametrize("model", ["diffusion", "burgers"])
    def test_fewer_than_two_cells_end_in_a_message(self, model, cells):
        with pytest.raises(SystemExit) as exc:
            main(["inspect", "solver-field", "--preset", model, "--cells", cells])
        assert str(exc.value) == "smlmc: invalid inspect solver-field: need at least two cells"

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
