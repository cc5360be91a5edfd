import collections
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steerkit import cli, montecarlo, qcore
from steerkit.criteria import Criterion, Scenario, closed_form
from steerkit.expio import MAX_BOOTSTRAP, CountsData, load_counts, synthesize_counts, write_counts
from steerkit.montecarlo import CHUNK_SIZE, MAX_SAMPLES


def write_nom_counts(path, m=2, total=10_000):
    alice, bob = qcore.nom_settings(m)
    write_counts(synthesize_counts(0.963, alice, bob, total), path)
    return path


CliResult = collections.namedtuple("CliResult", "returncode stdout stderr")


def run_cli(*args, env_extra=None):
    """``cli.main(args)`` in this process, with ``env_extra`` set in the environment."""
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as monkeypatch:
        for name, value in (env_extra or {}).items():
            monkeypatch.setenv(name, value)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(args))
    return CliResult(code, out.getvalue(), err.getvalue())


def run_python_m_steerkit(*args, env_extra=None):
    """``python -m steerkit ARGS`` in a fresh interpreter, for the tests whose property is
    the process itself; every other test calls :func:`run_cli`."""
    return subprocess.run([sys.executable, "-m", "steerkit", *args], capture_output=True,
                          text=True, env=dict(os.environ, **(env_extra or {})))


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

    def test_negative_grid_start_in_flag_form(self, capsys):
        # the flag form exited 2 with "expected one argument"
        base = ["sweep", "--m", "2", "--mu", "0.9", "--criteria", "db,shannon"]
        assert cli.main(base + ["--alpha-grid=-10:10:10"]) == 0
        joined = capsys.readouterr().out
        assert len(joined.splitlines()) == 1 + 3 * 2
        assert cli.main(base + ["--alpha-grid", "-10:10:10"]) == 0
        assert capsys.readouterr().out == joined

    def test_negative_grid_start_from_config(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("alpha-grid = -10:10:10\n")
        base = ["sweep", "--m", "2", "--mu", "0.9", "--criteria", "db"]
        assert cli.main(base + ["--alpha-grid=-10:10:10"]) == 0
        joined = capsys.readouterr().out
        assert cli.main(base + ["--config", str(config)]) == 0
        assert capsys.readouterr().out == joined

    def test_negative_value_in_exponent_form(self, capsys):
        base = ["sweep", "--m", "2", "--mu", "0.9", "--alpha-grid", "0", "--criteria", "db"]
        assert cli.main(base + ["--phi=-1e-3"]) == 0
        joined = capsys.readouterr().out
        assert cli.main(base + ["--phi", "-1e-3"]) == 0
        assert capsys.readouterr().out == joined

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["--phi", "-1e-3"], ["--phi=-1e-3"]),
            (["--alpha-grid", "-inf:0:1"], ["--alpha-grid=-inf:0:1"]),
            (["--mu-grid", "-.5"], ["--mu-grid=-.5"]),
            (["--phi", "-x"], ["--phi", "-x"]),
            (["--phi=-1", "-2"], ["--phi=-1", "-2"]),
            (["--", "-5"], ["--", "-5"]),
            (["--help", "-5"], ["--help", "-5"]),
            (["--vers", "-5"], ["--vers", "-5"]),
        ],
    )
    def test_attach_negative_values(self, argv, expected):
        assert cli._attach_negative_values(argv) == expected

    def test_grid_cap_admits_the_mc_grid_workload(self):
        assert cli.MAX_GRID_POINTS >= 1001
        assert len(cli._parse_grid(f"0:{cli.MAX_GRID_POINTS - 1}:1")) == cli.MAX_GRID_POINTS

    @pytest.mark.parametrize("grid", ["0:{cap}:1", "0:1e308:1e-308", "-1e308:1e308:1"])
    def test_oversized_grid_rejected_before_building(self, grid):
        with pytest.raises(ValueError, match="more than"):
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

    def test_threshold_when_factor_times_bound_underflows(self):
        # 5e-324 * T_2 rounds to 0, which made every sample violate (p_violation 1);
        # haar m = 2 violates with probability 1 - t at threshold t
        result = run_cli(
            "mc", "--m", "2", "--class", "rom", "--scheme", "haar", "--mu-grid", "2e-162",
            "--bound-factor", "5e-324", "--samples", "2000", "--seed", "1",
        )
        assert result.returncode == 0
        p = float(result.stdout.strip().split("\n")[1].split(",")[5])
        expected = 1.0 - float(Fraction(5e-324) * Fraction(0.5) / Fraction(2e-162) ** 2)
        assert abs(expected - 0.38) < 0.01
        assert abs(p - expected) < 5.0 * math.sqrt(expected * (1.0 - expected) / 2000)

    def test_byte_determinism(self):
        args = (
            "mc", "--m", "2", "--class", "crm", "--mu-grid", "0.9:1.0:0.05",
            "--samples", "50000", "--seed", "3",
        )
        # two interpreters: nothing carried over in the process, string hashing seeded apart
        first = run_python_m_steerkit(*args, env_extra={"PYTHONHASHSEED": "1"})
        second = run_python_m_steerkit(*args, env_extra={"PYTHONHASHSEED": "2"})
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
        # a grid counts by sorting each chunk, a single mu in one comparison pass
        for grid in ("0.6:1:0.05", "0.9"):
            base = [
                "mc", "--m", str(m), "--class", mc_class, "--scheme", scheme, "--mu-grid", grid,
                "--samples", str(3 * CHUNK_SIZE + 17), "--seed", "4",
            ]
            for fmt in ("csv", "json"):
                outputs = []
                for run, workers in enumerate(("1", "2", "1", "2")):
                    out = tmp_path / f"{grid}-{fmt}-{run}"
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

    def test_negative_mu_grid_start_is_range_error(self, capsys):
        argv = ["mc", "--m", "2", "--class", "rom", "--mu-grid", "-0.5:1:0.5", "--samples", "10"]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "steerkit: mixing probability must lie in [0, 1], got -0.5\n"

    @pytest.mark.parametrize("samples", [str(MAX_SAMPLES + 1), "1000000000000000000"])
    def test_oversized_sample_count_is_usage_error(self, monkeypatch, capsys, samples):
        # 1e18 samples hung while the chunk plan was built; now no plan is made
        monkeypatch.setattr(montecarlo, "_chunk_plan", None)
        argv = ["mc", "--m", "2", "--class", "rom", "--mu-grid", "1", "--samples", samples]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"steerkit: sample count must lie in [1, {MAX_SAMPLES}], got {samples}\n"

    def test_oversized_histogram_follows_the_main_output(self, tmp_path, capsys):
        # 1e12 bins ended in a MemoryError traceback
        out = tmp_path / "x.csv"
        base = ["mc", "--m", "2", "--class", "rom", "--mu-grid", "1", "--samples", "1000",
                "--out", str(out)]
        assert cli.main(base) == 0
        plain = out.read_bytes()
        assert cli.main(base + ["--hist", "1000000000000"]) == 2
        assert "histogram bin count must lie in" in capsys.readouterr().err
        assert out.read_bytes() == plain
        assert not (tmp_path / "x.csv.hist.csv").exists()

    def test_histogram_without_violations_follows_the_main_output(self, tmp_path, capsys):
        # one haar sample at mu = 0.72 does not violate: the estimates are written,
        # then the histogram has no density to normalise
        out = tmp_path / "x.csv"
        argv = ["mc", "--m", "2", "--class", "rom", "--scheme", "haar", "--mu-grid", "0.72",
                "--samples", "1", "--seed", "0", "--out", str(out)]
        assert cli.main(argv) == 0
        plain = out.read_bytes()
        out.unlink()
        assert cli.main(argv + ["--hist", "5"]) == 2
        assert capsys.readouterr().err == "steerkit: no violating samples; cannot normalise a density\n"
        assert out.read_bytes() == plain
        assert not (tmp_path / "x.csv.hist.csv").exists()

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

    def test_tsallis_order_one_reports_shannon(self, capsys):
        base = ["threshold", "--mu", "0.9733", "--phi", "30"]
        assert cli.main([*base, "--criterion", "tsallis", "--q", "1"]) == 0
        tsallis_one = capsys.readouterr().out
        assert cli.main([*base, "--criterion", "shannon"]) == 0
        assert tsallis_one == capsys.readouterr().out
        payload = json.loads(tsallis_one)
        assert (payload["criterion"], payload["order"]) == ("shannon", "q=1")

    def test_nan_tsallis_order_is_usage_error(self):
        result = run_cli("threshold", "--criterion", "tsallis", "--q", "nan", "--mu", "0.9733")
        assert result.returncode == 2
        assert result.stdout == ""


class TestAnalyzeCommand:
    def make_counts(self, tmp_path, m=3, mu=0.963, total=10_000_000):
        alice, bob = qcore.nom_settings(m)
        data = synthesize_counts(mu, alice, bob, total)
        path = tmp_path / "counts.csv"
        write_counts(data, path)
        return path

    def test_blank_rows_are_skipped(self, tmp_path):
        path = self.make_counts(tmp_path, m=2, total=10_000)
        lines = path.read_text().splitlines(keepends=True)
        spaced = tmp_path / "spaced.csv"
        spaced.write_text("".join(line + ("\n", "  \n", " , ,,\t\n")[k % 3]
                                  for k, line in enumerate(lines)))
        data, spaced_data = load_counts(path), load_counts(spaced)
        for field in ("counts", "alice", "bob"):
            assert np.array_equal(getattr(spaced_data, field), getattr(data, field))
        outputs = []
        for source in (path, spaced):
            out = tmp_path / f"{source.stem}.json"
            assert cli.main(["analyze", "--input", str(source), "--criteria", "shannon,db",
                             "--bootstrap", "20", "--seed", "3", "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

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

    def test_oversized_bootstrap_is_usage_error(self, tmp_path, capsys):
        # 1e12 replicates ended in a MemoryError traceback
        path = self.make_counts(tmp_path, m=2, total=10_000)
        assert cli.main(["analyze", "--input", str(path), "--bootstrap", "1000000000000"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"must lie in [0, {MAX_BOOTSTRAP}]" in captured.err

    def test_nan_vector_component_is_data_error(self, tmp_path, capsys):
        path = self.make_counts(tmp_path, m=2, total=10_000)
        lines = path.read_text().split("\n")
        parts = lines[1].split(",")
        parts[7] = "nan"  # bx
        lines[1] = ",".join(parts)
        path.write_text("\n".join(lines))
        assert cli.main(["analyze", "--input", str(path), "--criteria", "db"]) == 3
        assert "line 2: vector component bx must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "counts, alice, message",
        [((0, 0, 0, 0), "0,0,1", "setting 1 has zero total counts"),
         ((0, 5, 5, 0), "0,0,2", "measurement direction must be unit norm, got |v| = 2.0")],
    )
    def test_dataset_rule_in_a_file_is_data_error(self, tmp_path, capsys, counts, alice, message):
        # every row parses; the dataset the rows make breaks a CountsData rule
        cells = [(a, b) for a in ("+1", "-1") for b in ("+1", "-1")]
        rows = [f"1,{a},{b},{n},{alice},0,0,1" for (a, b), n in zip(cells, counts)]
        rows += [f"2,{a},{b},5,1,0,0,1,0,0" for a, b in cells]
        path = tmp_path / "rule.csv"
        path.write_text("\n".join(["setting,a,b,counts,ax,ay,az,bx,by,bz", *rows]) + "\n")
        assert cli.main(["analyze", "--input", str(path), "--criteria", "shannon"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"steerkit: {path}: {message}\n"

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

    def test_jitter_without_replicates_needs_no_vectors(self, tmp_path, capsys):
        # --bootstrap 0 runs no jitter replicate, yet the default --jitter asked for vectors
        argv = ["analyze", "--input", str(bare_counts(tmp_path / "bare.csv")), "--criteria",
                "shannon"]
        assert cli.main(argv + ["--bootstrap", "0"]) == 0
        [record] = json.loads(capsys.readouterr().out)
        assert record["stat_err"] == record["sys_err"] == 0.0
        assert cli.main(argv + ["--bootstrap", "10"]) == 2
        assert capsys.readouterr().err == (
            "steerkit: systematic jitter and the determinant criterion need measurement vectors; "
            "attach them to the counts file or the dataset\n")

    def test_attach_mode_supplies_vectors(self, tmp_path):
        alice, bob = qcore.nom_settings(2)
        data = synthesize_counts(0.963, alice, bob, 1_000_000)
        path = tmp_path / "bare.csv"
        write_counts(CountsData(data.counts), path)
        result = run_cli(
            "analyze", "--input", str(path), "--criteria", "db",
            "--bootstrap", "0", "--jitter", "0", "--mode", "nom",
        )
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        assert abs(payload[0]["value"] - 0.0536) < 1e-3


def bare_counts(path, m=2):
    """A counts file without measurement vectors."""
    alice, bob = qcore.nom_settings(m)
    write_counts(CountsData(synthesize_counts(0.963, alice, bob, 10_000).counts), path)
    return path


def four_setting_counts(path):
    """A counts file with the three nom settings and the first repeated."""
    alice, bob = qcore.nom_settings(3)
    write_counts(synthesize_counts(0.963, [*alice, alice[0]], [*bob, bob[0]], 10_000), path)
    return path


@pytest.mark.parametrize(
    "argv, message",
    [
        (["threshold", "--criterion", "shannon", "--mu", "1.5"],
         "mixing probability must lie in [0, 1], got 1.5"),
        (["analyze", "--input", "M3_COUNTS", "--criteria", "renyi", "--bootstrap", "10"],
         "the Renyi criterion needs exactly two settings, got 3"),
        (["mc", "--m", "2", "--class", "crm", "--scheme", "dihedral", "--mu-grid", "1",
          "--samples", "10"],
         "scheme 'dihedral' belongs to class 'rom', not 'crm'"),
        (["sweep", "--m", "3", "--mu", "0.9", "--criteria", "renyi"],
         "the Renyi criterion needs exactly two settings, got 3"),
        (["analyze", "--input", "BARE_COUNTS", "--criteria", "db", "--bootstrap", "10"],
         "systematic jitter and the determinant criterion need measurement vectors"),
        # named a library-only override that the CLI has no flag for
        (["analyze", "--input", "M4_COUNTS", "--criteria", "shannon", "--bootstrap", "10"],
         "settings count must lie in [2, 3], got 4"),
        (["analyze", "--input", "M4_COUNTS", "--criteria", "tsallis2", "--bootstrap", "10"],
         "settings count must lie in [2, 3], got 4"),
        # these three printed an angle or null and exited 0
        (["threshold", "--criterion", "renyi", "--rs", "2,2", "--mu", "0.9733"],
         "Renyi orders must satisfy 1/r + 1/s = 2, got 1/r + 1/s = 1.0"),
        (["threshold", "--criterion", "renyi", "--rs", "0.3,inf", "--mu", "0.9733"],
         "Renyi order must lie in [0.5, inf), got 0.3"),
        (["threshold", "--criterion", "renyi", "--rs", "nan,1", "--mu", "0.9733"],
         "Renyi order must lie in [0.5, inf), got nan"),
        # raised OverflowError: int too large to convert to float, with exit code 1
        (["bound", "--criterion", "db", "--m", "1" + "0" * 400],
         "settings count must lie in [2, 9007199254740991], got 1000"),
        (["bound", "--criterion", "db", "--da", "1" + "0" * 400],
         "untrusted-side dimension must lie in [2, 9007199254740991], got 1000"),
        # warned in numpy, then named a NaN direction
        (["analyze", "--input", "BARE_COUNTS", "--mode", "mub", "--alpha", "inf"],
         "misalignment angle alpha must lie in (-inf, inf), got inf"),
        # these two exited 0: only --mode mub read the angles
        (["analyze", "--input", "BARE_COUNTS", "--mode", "nom", "--alpha", "nan"],
         "misalignment angle alpha must lie in (-inf, inf), got nan"),
        (["analyze", "--input", "M3_COUNTS", "--alpha", "nan", "--phi", "inf"],
         "misalignment angle alpha must lie in (-inf, inf), got nan"),
        # the angles are checked before the file is opened
        (["analyze", "--input", "MISSING_COUNTS", "--phi", "nan"],
         "misalignment angle phi must lie in (-inf, inf), got nan"),
        # printed "the Renyi criterion is only defined for two settings"
        (["threshold", "--criterion", "renyi", "--m", "3", "--mu", "0.9733"],
         "the Renyi criterion needs exactly two settings, got 3"),
        (["sweep", "--m", "2", "--mu", "0.9", "--alpha-grid", "0:90"],
         "grid must be START:STOP:STEP or a single value, got '0:90'"),
        (["sweep", "--m", "2", "--mu", "0.9", "--alpha-grid", "0:90:0"],
         "grid needs stop >= start and step > 0, got '0:90:0'"),
        (["sweep", "--m", "2", "--mu", "0.9", "--config"], "--config needs a file path"),
        (["--config", "SWEEP_CONFIG"], "--config requires a subcommand"),
        (["sweep", "--config", "MISSING_CONFIG"], "cannot read config file: "),
        (["sweep", "--config", "NO_EQUALS_CONFIG"],
         "NO_EQUALS_CONFIG:2: expected key = value, got 'm 2'"),
        (["sweep", "--config", "EMPTY_KEY_CONFIG"], "EMPTY_KEY_CONFIG:2: empty key"),
        # read the next flag as the path: "cannot read config file: ... '--out'"
        (["sweep", "--m", "2", "--mu", "0.9", "--config", "--out", "x.csv"],
         "--config needs a file path"),
        (["analyze", "--input", "M4_COUNTS", "--mode", "nom", "--bootstrap", "10"],
         "settings count must lie in [2, 3], got 4"),
        # printed float's "could not convert string to float: '.'" (or 'x')
        (["sweep", "--m", "2", "--mu", "0.9", "--criteria", "tsallis."],
         "cannot parse criterion 'tsallis.'; expected shannon, tsallisQ, renyi, renyi(R,S) or db"),
        (["sweep", "--m", "2", "--mu", "0.9", "--criteria", "renyi(x,1)"],
         "cannot parse criterion 'renyi(x,1)'; expected shannon, tsallisQ, renyi, renyi(R,S) "
         "or db"),
        # these two printed ln 2 and exited 0
        (["bound", "--criterion", "renyi2", "--m", "3"],
         "the Renyi criterion needs exactly two settings, got 3"),
        (["bound", "--criterion", "renyi2", "--m", "7"],
         "the Renyi criterion needs exactly two settings, got 7"),
    ],
)
def test_library_value_errors_exit_2_with_one_message(tmp_path, capsys, argv, message):
    files = {"M3_COUNTS": str(write_nom_counts(tmp_path / "m3.csv", m=3)),
             "BARE_COUNTS": str(bare_counts(tmp_path / "bare.csv")),
             "M4_COUNTS": str(four_setting_counts(tmp_path / "m4.csv")),
             "MISSING_COUNTS": str(tmp_path / "missing.csv"),
             "MISSING_CONFIG": str(tmp_path / "missing.cfg")}
    configs = {"SWEEP_CONFIG": "m = 2\nmu = 0.9\n", "NO_EQUALS_CONFIG": "mu = 0.9\nm 2\n",
               "EMPTY_KEY_CONFIG": "mu = 0.9\n= 1\n"}
    for name, text in configs.items():
        files[name] = str(tmp_path / f"{name.lower()}.cfg")
        with open(files[name], "w") as stream:
            stream.write(text)
    assert cli.main([files.get(token, token) for token in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    for token, path in files.items():
        message = message.replace(token, path)
    assert captured.err.startswith(f"steerkit: {message}")
    assert captured.err.endswith("\n") and captured.err.count("\n") == 1


#: Pieces spliced into a valid counts file: junk text, NULs, stray quotes,
#: separators, numbers out of range and a field past the csv module's limit.
FUZZ_PIECES = (
    st.text(max_size=6)
    | st.sampled_from(("\x00", '"', '"a,b', "\r", "\n", ",", ",,", "-1", "0", "4", "nan",
                       "inf", "1e400", "9" * 20, "0.5", "setting", "x" * 131_073))
)


def _valid_counts_texts():
    """The text of a valid counts file for m = 2 and 3, with and without vectors."""
    texts = []
    with tempfile.TemporaryDirectory() as tmp:
        for m in (2, 3):
            data = synthesize_counts(0.963, *qcore.nom_settings(m), 1000)
            for dataset in (data, CountsData(data.counts)):
                path = os.path.join(tmp, "counts.csv")
                write_counts(dataset, path)
                with open(path) as stream:
                    texts.append(stream.read())
    return texts


#: Values put in place of one field of one row: a vector that differs from the
#: other rows of its setting by a little or only in its spelling, and numerals
#: that int() and float() read but a counts file may not hold.
FIELD_EDITS = st.sampled_from(
    ("1.000009", "0.99999999999999989", "1e-300", "-0", "+1.", "1_0", "0_0", "1_000",
     "\u0661", "\u0661\u0660", "\uff11", "\u0661.\u0665", "\u00a01", "1e1_0")
)


@st.composite
def counts_files(draw, valid=_valid_counts_texts()):
    """Bytes of a counts file: a valid one with a few edits and splices, or any bytes."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.binary(max_size=64))
    lines = draw(st.sampled_from(valid)).split("\n")
    for _ in range(draw(st.integers(0, 2))):
        row = draw(st.integers(1, len(lines) - 2))
        fields = lines[row].split(",")
        fields[draw(st.integers(0, len(fields) - 1))] = draw(FIELD_EDITS)
        lines[row] = ",".join(fields)
    text = "\n".join(lines)
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(text)))
        cut = draw(st.integers(0, 4))
        text = text[:at] + draw(FUZZ_PIECES) + text[at + cut:]
    return text.encode("utf-8", "surrogatepass")


def test_oversized_counts_field_is_data_error(tmp_path, capsys):
    # ended in a _csv.Error traceback and exit code 1
    path = tmp_path / "counts.csv"
    path.write_text("setting,a,b,counts\n1,+1,+1," + "1" * 131_073 + "\n")
    assert cli.main(["analyze", "--input", str(path)]) == 3
    assert capsys.readouterr().err == (
        "steerkit: line 2: field larger than field limit (131072)\n")


@settings(max_examples=200)
@given(content=counts_files(), jitter=st.sampled_from(("0", "0.1")))
def test_fuzzed_counts_files_exit_0_2_or_3(content, jitter):
    # a field over 131,072 characters ended in a csv.Error traceback
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "counts.csv")
        with open(path, "wb") as stream:
            stream.write(content)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["analyze", "--input", path, "--bootstrap", "5", "--jitter", jitter])
    assert code in (0, 2, 3)
    assert (code == 0) == (err.getvalue() == "")


def test_counts_file_that_is_not_utf8_is_data_error(tmp_path, capsys):
    # exited 2 with the codec's message and no line number
    path = bare_counts(tmp_path / "counts.csv")
    path.write_bytes(path.read_bytes().replace(b"\n2,", b"\n2\xff,", 1))
    assert cli.main(["analyze", "--input", str(path), "--jitter", "0", "--criteria", "shannon"]) == 3
    assert capsys.readouterr().err == (
        "steerkit: line 6: 'utf-8' codec can't decode byte 0xff in position 1: invalid start byte\n")


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
    def test_version(self, tmp_path):
        # the exit codes reach the shell through __main__'s sys.exit(main())
        result = run_python_m_steerkit("--version")
        assert result.returncode == 0
        assert result.stdout.startswith("steerkit ")
        assert run_python_m_steerkit("sweep", "--m", "2").returncode == 2
        path = tmp_path / "bad.csv"
        path.write_text("setting,a,b,counts\n1,+1,+1,10\n1,+1,-1,x\n")
        result = run_python_m_steerkit("analyze", "--input", str(path), "--criteria", "shannon")
        assert result.returncode == 3
        assert result.stdout == ""

    def test_config_file_supplies_flags(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("mu = 0.9\nalpha-grid = 0:20:10\ncriteria = db\n")
        result = run_cli("sweep", "--m", "2", "--config", str(config))
        assert result.returncode == 0
        assert len(result.stdout.strip().split("\n")) == 4

    def test_config_skips_blank_and_comment_lines(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("# a sweep\nmu = 0.9\n\n   \n  # indented\ncriteria = db  # trailing\n")
        assert cli.main(["sweep", "--m", "2", "--alpha-grid", "0", "--config", str(config)]) == 0
        assert capsys.readouterr().out.splitlines()[1].startswith("0.9,")

    def test_cli_flags_override_config(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("mu = 0.9\ncriteria = db\nalpha-grid = 0:20:10\n")
        result = run_cli("sweep", "--m", "2", "--config", str(config), "--mu", "0.5")
        assert result.returncode == 0
        assert result.stdout.strip().split("\n")[1].startswith("0.5,")

    @pytest.mark.parametrize(
        "line, message",
        [
            # dropped: sweep ran with the default mode and exited 0
            ("mode = false", "argument --mode: invalid choice: 'false'"),
            # became a bare --format: "expected one argument"
            ("format = true", "argument --format: invalid choice: 'true'"),
        ],
    )
    def test_config_values_are_flag_values(self, tmp_path, capsys, line, message):
        config = tmp_path / "run.cfg"
        config.write_text(f"mu = 0.9\nalpha-grid = 0:20:10\n{line}\n")
        assert cli.main(["sweep", "--m", "2", "--config", str(config)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1].startswith("steerkit sweep: error: " + message)

    def test_outdir_env_var(self, tmp_path):
        result = run_cli(
            "bound", "--criterion", "renyi2", "--out", "bound.txt",
            env_extra={"STEERKIT_OUTDIR": str(tmp_path)},
        )
        assert result.returncode == 0
        assert (tmp_path / "bound.txt").exists()


def one_of_each(counts_path) -> dict:
    """A small, valid argv per subcommand."""
    return {
        "sweep": ["sweep", "--m", "2", "--mu", "0.9", "--alpha-grid", "0:30:10"],
        "mc": ["mc", "--m", "3", "--class", "crm", "--mu-grid", "0.9:1:0.05", "--samples", "3000",
               "--seed", "2", "--format", "json"],
        "threshold": ["threshold", "--criterion", "tsallis", "--q", "3", "--mu", "0.95",
                      "--phi", "20"],
        "analyze": ["analyze", "--input", str(counts_path), "--bootstrap", "20", "--seed", "4"],
        "bound": ["bound", "--criterion", "db", "--m", "3"],
    }


class TestParserReuse:
    """``main`` builds its parser once per process, and no call leaves state for the next."""

    PROBE = ["sweep", "--m", "2", "--mu", "0.9", "--alpha-grid", "0:20:10", "--criteria",
             "db,shannon"]

    def test_parser_built_once_over_many_calls(self, monkeypatch, capsys):
        built = []
        build = cli.build_parser

        def counting_build():
            built.append(1)
            return build()

        monkeypatch.setattr(cli, "_PARSER", None)
        monkeypatch.setattr(cli, "build_parser", counting_build)
        for _ in range(20):
            assert cli.main(["bound", "--criterion", "renyi2"]) == 0
            assert cli.main(["threshold", "--criterion", "db", "--mu", "0.9"]) == 0
            assert cli.main(["sweep", "--m", "7", "--mu", "0.9"]) == 2
        assert len(built) == 1
        assert build() is not build()  # build_parser itself stays a plain constructor

    def test_interleaved_calls_match_first_calls(self, tmp_path, capsys, monkeypatch):
        argvs = one_of_each(write_nom_counts(tmp_path / "counts.csv"))
        first = {}
        for name, argv in argvs.items():  # each one on a new parser, as a process's first call
            monkeypatch.setattr(cli, "_PARSER", None)
            result = run_cli(*argv)
            assert result.returncode == 0
            first[name] = result.stdout
        for name in [*argvs, *reversed(list(argvs)), *argvs]:
            assert cli.main(argvs[name]) == 0
            assert capsys.readouterr().out == first[name]

    @pytest.mark.parametrize(
        "disturbance, code",
        [
            (["sweep", "--mode", "nom", "--phi", "30", "--m", "7", "--mu", "0.9"], 2),
            (["sweep", "--mode", "nom", "--phi", "30", "--m", "3", "--mu", "0.5", "--criteria", "db"], 0),
            (["sweep", "--m", "2", "--mu", "0.9", "--alpha-grid", "nan"], 2),
            (["mc", "--bogus"], 2),
            (["sweep", "--help"], 0),
            (["--help"], 0),
            (["--version"], 0),
        ],
    )
    def test_call_leaves_next_output_unchanged(self, capsys, disturbance, code):
        assert cli.main(self.PROBE) == 0
        before = capsys.readouterr().out
        assert cli.main(disturbance) == code
        capsys.readouterr()
        assert cli.main(self.PROBE) == 0
        assert capsys.readouterr().out == before

    def test_config_values_do_not_leak(self, tmp_path, capsys):
        assert cli.main(self.PROBE) == 0
        plain = capsys.readouterr().out
        config = tmp_path / "run.cfg"
        config.write_text("mode = nom\nphi = 30\nalpha-grid = -10:10:10\n")
        assert cli.main(self.PROBE[:1] + ["--config", str(config)] + self.PROBE[1:]) == 0
        assert capsys.readouterr().out.count("\n") == 1 + 3 * 2  # the probe's own grid wins
        assert cli.main(["sweep", "--m", "2", "--mu", "0.9", "--criteria", "db",
                         "--config", str(config)]) == 0
        assert "\n0.9,-10,30,2,db," in capsys.readouterr().out
        assert cli.main(self.PROBE) == 0
        assert capsys.readouterr().out == plain

    def test_replaced_command_is_honoured_after_the_parser_exists(self, monkeypatch, capsys):
        assert cli.main(["bound", "--criterion", "renyi2"]) == 0
        assert cli._PARSER is not None
        seen = []

        def fake_sweep(args):
            seen.append(args.mu)
            return 0

        monkeypatch.setattr(cli, "_cmd_sweep", fake_sweep)
        assert cli.main(["sweep", "--m", "2", "--mu", "0.25"]) == 0
        assert seen == [0.25]
        assert capsys.readouterr().out == "0.6931471806\n"


# Fuzzed argv: real subcommands and flags with small valid values, edge values
# and junk, never a large valid size (each call stays a few milliseconds).
EDGE_VALUES = ("0", "-1", "nan", "inf", "-inf", "1e400", "junk", "", "1:2", "0:1e400:1")
ABOVE_CAP = {
    "--samples": (str(MAX_SAMPLES + 1),),
    "--bootstrap": (str(MAX_BOOTSTRAP + 1), "1000000000000"),
    "--hist": ("1000000000000",),
    "--alpha-grid": (f"0:{cli.MAX_GRID_POINTS}:1",),
    "--mu-grid": ("0:1:1e-6",),
}
GRID_VALUES = ("0:90:45", "-10:10:10", "0", "45")
CRITERIA_VALUES = ("db", "shannon,renyi", "tsallis2,db", "renyi(0.5,inf)", "tsallis0", ",")
FUZZ_FLAGS = {
    "sweep": {
        "--m": ("2", "3"), "--phi": ("0", "30", "-20"), "--mu": ("0.9", "1", "0.5"),
        "--alpha-grid": GRID_VALUES, "--criteria": CRITERIA_VALUES, "--mode": ("mub", "nom"),
        "--format": ("csv", "json"),
    },
    "mc": {
        "--m": ("2", "3"), "--class": ("rom", "crm"), "--scheme": ("dihedral", "haar", "isotropic"),
        "--mu-grid": ("1", "0.8:1:0.1", "-0.5:1:0.5"), "--samples": ("1", "100", "3000"),
        "--bound-factor": ("1", "1.1"), "--seed": ("0", "5", str(2 ** 64)),
        "--workers": ("1", "2"), "--hist": ("5",), "--hist-out": ("HIST_OUT",),
        "--format": ("csv", "json"),
    },
    "threshold": {
        "--criterion": ("shannon", "tsallis", "renyi", "db"), "--q": ("2", "1.5", "0.5"),
        "--rs": ("0.5,inf", "1,1", "oo", "0.5"), "--mu": ("0.9733", "0.5", "1"),
        "--phi": ("0", "30", "-30"), "--m": ("2", "3"),
    },
    "analyze": {
        "--input": ("COUNTS",), "--criteria": CRITERIA_VALUES, "--bootstrap": ("0", "3"),
        "--jitter": ("0", "0.1"), "--seed": ("0", "7"), "--mode": ("mub", "nom"),
        "--alpha": ("0", "30"), "--phi": ("0", "30"),
    },
    "bound": {
        "--criterion": ("db", "tsallis", "renyi2"), "--m": ("2", "3"), "--da": ("2", "3"),
        "--q": ("2", "0.5"),
    },
}


# the required flags, and --bootstrap, whose default of 1000 replicates is a large size
ALWAYS_GIVEN = {"--m", "--mu", "--class", "--mu-grid", "--samples", "--criterion", "--input",
                "--bootstrap"}


@st.composite
def fuzzed_argv(draw):
    command = draw(st.sampled_from(sorted(FUZZ_FLAGS)))
    flags = FUZZ_FLAGS[command]
    # about half the calls give one flag an edge value; the rest are valid or left out
    bad = draw(st.one_of(st.none(), st.sampled_from(sorted(flags))))
    argv = [command]
    for flag, valid in flags.items():
        if flag == bad:
            value = draw(st.sampled_from(EDGE_VALUES + ABOVE_CAP.get(flag, ())))
        else:
            value = draw(st.sampled_from(valid + ((None,) if flag not in ALWAYS_GIVEN else ())))
        if value is not None:
            argv += [flag, value]
    if draw(st.integers(0, 9)) == 0:
        argv.append(draw(st.sampled_from(("--bogus", "-h", "--version", "--config", "x"))))
    return argv


def test_fuzzed_argv_exit_cleanly_and_leave_no_state(tmp_path, capsys, monkeypatch):
    # an edge value given to --hist-out is a relative path, written where the test runs
    monkeypatch.chdir(tmp_path)
    counts = write_nom_counts(tmp_path / "counts.csv", m=2, total=1000)
    substitutes = {"COUNTS": str(counts), "HIST_OUT": str(tmp_path / "hist.csv")}
    probe = one_of_each(counts)
    before = {}
    for name, argv in probe.items():
        assert cli.main(argv) == 0
        before[name] = capsys.readouterr().out

    @settings(max_examples=300)
    @given(fuzzed_argv())
    def fuzz(argv):
        argv = [substitutes.get(token, token) for token in argv]
        assert cli.main(argv) in (0, 2, 3)
        capsys.readouterr()

    fuzz()
    for name, argv in probe.items():
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == before[name]


#: Numeric flag values past float range, non-finite, at the edges of float range.
EXTREME_VALUES = ("1" + "0" * 400, "-1" + "0" * 400, "inf", "-inf", "nan", "-1", "0", "5e-324",
                  "1e308")


def numeric(*ordinary):
    """A numeric flag value: one of ``ordinary``, or one time in six an extreme one."""
    return st.integers(0, 5).flatmap(
        lambda k: st.sampled_from(EXTREME_VALUES if k == 0 else ordinary))


@st.composite
def numeric_argv(draw):
    """argv of bound, threshold, sweep, mc or analyze with every numeric flag drawn."""
    command = draw(st.sampled_from(("bound", "threshold", "sweep", "mc", "analyze")))
    if command == "bound":
        return ["bound", "--criterion", draw(st.sampled_from(("db", "tsallis", "renyi2"))),
                "--m", draw(numeric("2", "3")), "--da", draw(numeric("2", "4")),
                "--q", draw(numeric("2", "1.5"))]
    if command == "threshold":
        return ["threshold", "--criterion",
                draw(st.sampled_from(("shannon", "tsallis", "renyi", "db"))),
                "--mu", draw(numeric("0.9", "0.97")), "--phi", draw(numeric("0", "20")),
                "--q", draw(numeric("2", "3")), "--m", draw(numeric("2", "3"))]
    if command == "sweep":
        return ["sweep", "--m", draw(numeric("2", "3")), "--mu", draw(numeric("0.9")),
                "--phi", draw(numeric("0", "30")), "--alpha-grid", draw(numeric("0:90:30", "10")),
                "--criteria", "shannon,tsallis2,db"]
    if command == "mc":  # at most 2,000 samples, whatever is drawn
        return ["mc", "--m", draw(numeric("2", "3")),
                "--class", draw(st.sampled_from(("rom", "crm"))),
                "--mu-grid", draw(numeric("0.9", "0.8:1:0.1")),
                "--samples", draw(numeric("1000", "2000")),
                "--bound-factor", draw(numeric("1", "0.5")), "--seed", draw(numeric("0", "7")),
                "--workers", draw(numeric("1", "2"))]
    return ["analyze", "--input", "COUNTS", "--mode", "mub", "--criteria", "shannon,tsallis2,db",
            "--alpha", draw(numeric("0", "10")), "--phi", draw(numeric("0", "20")),
            "--bootstrap", draw(numeric("0", "5")), "--jitter", draw(numeric("0", "0.1")),
            "--seed", draw(numeric("0", "3"))]


@settings(max_examples=300)
@given(argv=numeric_argv())
def test_numeric_flags_exit_0_2_or_3(argv):
    # bound --m 10**400 raised OverflowError, and analyze --mode mub --alpha inf
    # warned in numpy; a RuntimeWarning fails the test suite
    with tempfile.TemporaryDirectory() as tmp:
        path = bare_counts(os.path.join(tmp, "counts.csv"))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([str(path) if token == "COUNTS" else token for token in argv])
    assert code in (0, 2, 3)
    lines = err.getvalue().splitlines()
    if code == 0:
        assert lines == []
    else:  # one message: main's "steerkit: ..." or argparse's usage and "steerkit CMD: error: ..."
        assert [line for line in lines if line.startswith("steerkit")] == lines[-1:]
        assert lines[-1].startswith(("steerkit: ", f"steerkit {argv[0]}: error: "))
