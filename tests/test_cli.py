import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from steerkit import cli, qcore
from steerkit.criteria import Criterion, Scenario, closed_form
from steerkit.expio import synthesize_counts, write_counts
from steerkit.montecarlo import CHUNK_SIZE


def run_cli(*args, env_extra=None):
    env = os.environ.copy()
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "steerkit", *args],
        capture_output=True,
        text=True,
        env=env,
    )


class TestSweepCommand:
    def test_reference_sweep_shape_and_values(self, tmp_path):
        out = tmp_path / "sweep.csv"
        result = run_cli(
            "sweep",
            "--m", "2",
            "--phi", "0",
            "--mu", "0.9733",
            "--alpha-grid", "0:90:10",
            "--criteria", "shannon,tsallis2,renyi,db",
            "--out", str(out),
        )
        assert result.returncode == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "mu,alpha_deg,phi_deg,m,criterion,order,value,steerable"
        assert len(lines) == 1 + 10 * 4
        # spot-check one row against the closed form
        row = lines[1].split(",")
        assert row[4] == "shannon"
        expected = closed_form(Scenario(mu=0.9733, m=2), Criterion("shannon"))
        assert np.isclose(float(row[6]), expected, atol=1e-10)

    def test_full_tilt_entropic_values_nonpositive(self):
        result = run_cli(
            "sweep", "--m", "3", "--phi", "90", "--mu", "0.9733",
            "--criteria", "shannon,tsallis2",
        )
        assert result.returncode == 0
        rows = result.stdout.strip().split("\n")[1:]
        assert len(rows) == 10 * 2
        assert all(float(r.split(",")[6]) <= 1e-12 for r in rows)

    def test_missing_mu_is_usage_error(self):
        result = run_cli("sweep", "--m", "2", "--phi", "0")
        assert result.returncode == 2

    def test_bad_grid_is_usage_error(self):
        result = run_cli("sweep", "--m", "2", "--mu", "0.9", "--alpha-grid", "0:90")
        assert result.returncode == 2

    @pytest.mark.parametrize("flags", [("--phi", "nan"), ("--phi", "inf"), ("--alpha-grid", "nan")])
    def test_non_finite_angle_is_usage_error(self, capsys, flags):
        # a NaN tilt passed the unit-norm and table checks: shannon read 0.693, steerable
        argv = ["sweep", "--m", "2", "--mu", "0.5", "--alpha-grid", "0", "--criteria", "shannon,db"]
        assert cli.main(argv + list(flags)) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("grid", ["0:inf:10", "-inf:0:1", "0:10:nan"])
    def test_non_finite_grid_is_usage_error(self, capsys, grid):
        argv = ["sweep", "--m", "2", "--mu", "0.9", f"--alpha-grid={grid}", "--criteria", "db"]
        assert cli.main(argv) == 2
        assert "finite" in capsys.readouterr().err

    def test_grid_cap_admits_the_mc_grid_workload(self):
        assert cli.MAX_GRID_POINTS >= 1001
        assert len(cli._parse_grid(f"0:{cli.MAX_GRID_POINTS - 1}:1")) == cli.MAX_GRID_POINTS

    @pytest.mark.parametrize("grid", ["0:{cap}:1", "0:1e308:1e-308", "-1e308:1e308:1"])
    def test_oversized_grid_rejected_before_building(self, grid):
        with pytest.raises(cli.UsageError, match="more than"):
            cli._parse_grid(grid.format(cap=cli.MAX_GRID_POINTS))

    def test_renyi_with_three_settings_is_usage_error(self):
        result = run_cli("sweep", "--m", "3", "--mu", "0.9", "--criteria", "renyi")
        assert result.returncode == 2
        assert "two settings" in result.stderr

    def test_json_format(self):
        result = run_cli(
            "sweep", "--m", "2", "--mu", "0.9", "--alpha-grid", "0:20:10",
            "--criteria", "db", "--format", "json",
        )
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        assert len(payload) == 3
        assert payload[0]["criterion"] == "db"


class TestMcCommand:
    def test_three_settings_step(self, tmp_path):
        out = tmp_path / "mc.csv"
        result = run_cli(
            "mc", "--m", "3", "--class", "rom",
            "--mu-grid", "0.5:0.7:0.02", "--samples", "20000", "--seed", "7",
            "--out", str(out),
        )
        assert result.returncode == 0
        rows = [line.split(",") for line in out.read_text().strip().split("\n")[1:]]
        mus = np.array([float(r[2]) for r in rows])
        probs = np.array([float(r[5]) for r in rows])
        assert set(probs) == {0.0, 1.0}
        jump = mus[probs == 1.0].min()
        assert abs(jump - 1.0 / math.sqrt(3.0)) < 0.011

    def test_table_one_cell(self):
        result = run_cli(
            "mc", "--m", "2", "--class", "rom", "--scheme", "dihedral",
            "--mu-grid", "1.0", "--samples", "400000", "--bound-factor", "1.1",
            "--seed", "7",
        )
        assert result.returncode == 0
        row = result.stdout.strip().split("\n")[1].split(",")
        p, stderr = float(row[5]), float(row[6])
        assert abs(p - 0.6292554) < 4.0 * stderr

    def test_byte_determinism(self):
        args = (
            "mc", "--m", "2", "--class", "crm", "--mu-grid", "0.9:1.0:0.05",
            "--samples", "50000", "--seed", "3",
        )
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout

    def test_worker_count_does_not_change_output(self):
        base = (
            "mc", "--m", "3", "--class", "crm", "--mu-grid", "1.0",
            "--samples", "200000", "--seed", "5",
        )
        serial = run_cli(*base, "--workers", "1")
        threaded = run_cli(*base, "--workers", "8")
        assert serial.stdout == threaded.stdout

    @pytest.mark.parametrize(
        "m, mc_class, scheme",
        [(2, "rom", "dihedral"), (2, "rom", "haar"), (3, "rom", "haar"), (2, "crm", "isotropic"),
         (3, "crm", "isotropic")],
    )
    def test_output_identical_across_workers_and_reruns(self, tmp_path, m, mc_class, scheme):
        base = [
            "mc", "--m", str(m), "--class", mc_class, "--scheme", scheme, "--mu-grid", "0.6:1:0.05",
            "--samples", str(3 * CHUNK_SIZE + 17), "--seed", "4",
        ]
        for fmt in ("csv", "json"):
            outputs = []
            for run, workers in enumerate(("1", "2", "1", "2")):
                out = tmp_path / f"{fmt}-{run}"
                argv = base + ["--workers", workers, "--format", fmt, "--out", str(out)]
                assert cli.main(argv) == 0
                outputs.append(out.read_bytes())
            assert len(set(outputs)) == 1

    @pytest.mark.parametrize(
        "flags",
        [
            ("--bound-factor", "nan"),
            ("--bound-factor", "inf"),
            ("--workers", "0"),
            ("--workers", "-3"),
        ],
    )
    def test_bad_bound_factor_or_workers_is_usage_error(self, flags):
        # a NaN threshold compares False with every sample and would read as p = 0
        result = run_cli(
            "mc", "--m", "2", "--class", "rom", "--mu-grid", "1", "--samples", "1000", *flags
        )
        assert result.returncode == 2
        assert result.stdout == ""

    def test_incompatible_class_scheme(self):
        result = run_cli(
            "mc", "--m", "2", "--class", "rom", "--scheme", "isotropic",
            "--mu-grid", "1.0", "--samples", "100",
        )
        assert result.returncode == 2

    def test_histogram_output(self, tmp_path):
        out = tmp_path / "mc.csv"
        result = run_cli(
            "mc", "--m", "2", "--class", "rom", "--scheme", "dihedral",
            "--mu-grid", "1.0", "--samples", "50000", "--seed", "2",
            "--hist", "25", "--out", str(out),
        )
        assert result.returncode == 0
        hist_lines = (tmp_path / "mc.csv.hist.csv").read_text().strip().split("\n")
        assert hist_lines[0] == "bin_left,bin_right,density"
        assert len(hist_lines) == 26
        widths = [float(r.split(",")[1]) - float(r.split(",")[0]) for r in hist_lines[1:]]
        densities = [float(r.split(",")[2]) for r in hist_lines[1:]]
        assert abs(sum(w * d for w, d in zip(widths, densities)) - 1.0) < 1e-9


class TestThresholdCommand:
    def test_tilted_tsallis(self):
        result = run_cli(
            "threshold", "--criterion", "tsallis", "--q", "2",
            "--mu", "0.9733", "--phi", "30", "--m", "2",
        )
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        assert abs(payload["critical_alpha_deg"] - 39.0437) < 0.3

    def test_three_setting_shannon(self):
        result = run_cli(
            "threshold", "--criterion", "shannon", "--mu", "0.9733",
            "--phi", "30", "--m", "3",
        )
        payload = json.loads(result.stdout)
        assert abs(payload["critical_alpha_deg"] - 55.789) < 1.0

    def test_no_threshold_sentinel(self):
        result = run_cli("threshold", "--criterion", "tsallis", "--mu", "0.5")
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        assert payload["critical_alpha_deg"] is None
        assert "note" in payload

    def test_non_finite_tilt_is_usage_error(self, capsys):
        # a NaN tilt read as "does not change sign"
        argv = ["threshold", "--criterion", "shannon", "--mu", "0.9", "--phi", "nan"]
        assert cli.main(argv) == 2
        assert capsys.readouterr().out == ""

    def test_renyi_orders_flag(self):
        result = run_cli(
            "threshold", "--criterion", "renyi", "--rs", "0.5,inf", "--mu", "0.9733"
        )
        payload = json.loads(result.stdout)
        assert abs(payload["critical_alpha_deg"] - 43.406) < 0.3

    def test_renyi_orders_parse_like_sweep_criteria(self):
        # --rs goes through the same order parser as sweep's renyi(R,S)
        base = ("threshold", "--criterion", "renyi", "--mu", "0.9733")
        outputs = [run_cli(*base, "--rs", f"{r},0.5") for r in ("inf", "infinity", "oo")]
        assert [out.returncode for out in outputs] == [0, 0, 0]
        assert outputs[0].stdout == outputs[1].stdout == outputs[2].stdout
        assert json.loads(outputs[0].stdout)["order"] == "r=inf,s=0.5"
        sweep = run_cli("sweep", "--m", "2", "--mu", "0.9733", "--criteria", "renyi(oo,0.5)")
        assert sweep.returncode == 0
        assert run_cli(*base, "--rs", "0.5").returncode == 2

    def test_nan_tsallis_order_is_usage_error(self):
        result = run_cli("threshold", "--criterion", "tsallis", "--q", "nan", "--mu", "0.9733")
        assert result.returncode == 2
        assert result.stdout == ""


class TestAnalyzeCommand:
    def make_counts(self, tmp_path, m=3, mu=0.963, total=10_000_000):
        alice, bob = qcore.nom_settings(m)
        records = synthesize_counts(mu, alice, bob, total)
        path = tmp_path / "counts.csv"
        write_counts(records, path)
        return path

    def test_synthetic_nom_three_settings(self, tmp_path):
        path = self.make_counts(tmp_path)
        result = run_cli(
            "analyze", "--input", str(path),
            "--criteria", "shannon,tsallis2,db",
            "--bootstrap", "200", "--jitter", "0.1", "--seed", "11",
        )
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        by_name = {rec["criterion"]: rec for rec in payload}
        scen = Scenario(mu=0.963, m=3, mode="nom")
        for name, criterion in (
            ("shannon", Criterion("shannon")),
            ("tsallis", Criterion("tsallis", q=2.0)),
            ("db", Criterion("db")),
        ):
            rec = by_name[name]
            target = closed_form(scen, criterion)
            tol = max(3.0 * rec["total_err"], 1e-4)
            assert abs(rec["value"] - target) < tol
            assert rec["steerable"] is True
            assert np.isclose(
                rec["total_err"], math.hypot(rec["stat_err"], rec["sys_err"]), atol=1e-12
            )

    def test_zero_bootstrap_zero_errors(self, tmp_path):
        path = self.make_counts(tmp_path, total=10_000)
        result = run_cli(
            "analyze", "--input", str(path), "--criteria", "tsallis2",
            "--bootstrap", "0", "--jitter", "0",
        )
        payload = json.loads(result.stdout)
        assert payload[0]["stat_err"] == 0.0
        assert payload[0]["sys_err"] == 0.0
        assert payload[0]["total_err"] == 0.0

    @pytest.mark.parametrize(
        "flags", [("--bootstrap", "-5"), ("--jitter", "nan"), ("--jitter", "-0.5")]
    )
    def test_bad_bootstrap_or_jitter_is_usage_error(self, tmp_path, capsys, flags):
        # these reported stat_err or sys_err 0 and exited 0
        path = self.make_counts(tmp_path, m=2, total=10_000)
        argv = ["analyze", "--input", str(path), "--criteria", "tsallis2", "--bootstrap", "10"]
        assert cli.main(argv + list(flags)) == 2
        assert capsys.readouterr().out == ""

    def test_nan_vector_component_is_data_error(self, tmp_path, capsys):
        path = self.make_counts(tmp_path, m=2, total=10_000)
        lines = path.read_text().split("\n")
        parts = lines[1].split(",")
        parts[7] = "nan"  # bx
        lines[1] = ",".join(parts)
        path.write_text("\n".join(lines))
        assert cli.main(["analyze", "--input", str(path), "--criteria", "db"]) == 3
        assert "line 2: vector component bx must be finite" in capsys.readouterr().err

    def test_empty_file_is_usage_error(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        result = run_cli("analyze", "--input", str(path), "--criteria", "shannon")
        assert result.returncode == 2
        assert "parse error" in result.stderr

    def test_missing_file_is_usage_error(self, tmp_path):
        result = run_cli("analyze", "--input", str(tmp_path / "nope.csv"))
        assert result.returncode == 2

    def test_malformed_rows_are_data_error(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("setting,a,b,counts\n1,+1,+1,10\n1,+1,-1,x\n")
        result = run_cli("analyze", "--input", str(path), "--criteria", "shannon")
        assert result.returncode == 3

    def test_attach_mode_supplies_vectors(self, tmp_path):
        alice, bob = qcore.nom_settings(2)
        records = synthesize_counts(0.963, alice, bob, 1_000_000)
        bare = [
            type(rec)(rec.setting, rec.counts) for rec in records
        ]
        path = tmp_path / "bare.csv"
        write_counts(bare, path)
        result = run_cli(
            "analyze", "--input", str(path), "--criteria", "db",
            "--bootstrap", "0", "--jitter", "0", "--mode", "nom",
        )
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        assert abs(payload[0]["value"] - 0.0536) < 1e-3


class TestBoundCommand:
    def test_db_bounds(self):
        result = run_cli("bound", "--criterion", "db", "--m", "2", "--da", "2")
        assert result.returncode == 0
        assert abs(float(result.stdout) - 0.0883883476) < 1e-9
        result = run_cli("bound", "--criterion", "db", "--m", "3", "--da", "2")
        assert abs(float(result.stdout) - 0.0092592593) < 1e-9

    def test_tsallis_bound(self):
        result = run_cli("bound", "--criterion", "tsallis", "--q", "2", "--m", "3")
        assert abs(float(result.stdout) - 1.0) < 1e-12

    def test_renyi2_bound(self):
        result = run_cli("bound", "--criterion", "renyi2")
        assert abs(float(result.stdout) - math.log(2.0)) < 1e-9


class TestCliInfrastructure:
    def test_version(self):
        result = run_cli("--version")
        assert result.returncode == 0
        assert result.stdout.startswith("steerkit ")

    def test_config_file_supplies_flags(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("mu = 0.9\nalpha-grid = 0:20:10\ncriteria = db\n")
        result = run_cli("sweep", "--m", "2", "--config", str(config))
        assert result.returncode == 0
        assert len(result.stdout.strip().split("\n")) == 4

    def test_cli_flags_override_config(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("mu = 0.9\ncriteria = db\nalpha-grid = 0:20:10\n")
        result = run_cli("sweep", "--m", "2", "--config", str(config), "--mu", "0.5")
        assert result.returncode == 0
        assert result.stdout.strip().split("\n")[1].startswith("0.5,")

    def test_outdir_env_var(self, tmp_path):
        result = run_cli(
            "bound", "--criterion", "renyi2", "--out", "bound.txt",
            env_extra={"STEERKIT_OUTDIR": str(tmp_path)},
        )
        assert result.returncode == 0
        assert (tmp_path / "bound.txt").exists()
