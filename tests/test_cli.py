"""CLI contract tests: subcommands, exit codes, file outputs, config file."""

import csv
import dataclasses
import io
import json
import math
import subprocess
import sys
import time
import warnings

import pytest

from dlsec import cli
from dlsec.cli import (EXIT_INFEASIBLE, EXIT_OK, EXIT_USAGE, EXIT_VALIDATION,
                       main)
from dlsec.bounds import fixed_point_rate, key_rate
from dlsec.fading import inverse_min_moment, pair_rule, parse_distribution
from dlsec.policy import calibrate
from dlsec.protocol import SimConfig
from dlsec.rates import delay_floor, secrecy_gap

from child_env import child_env

BOUND_KEYS = ("upper_full", "lower_full", "upper_main", "lower_main")


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestBounds:
    def test_ordering_in_json(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--dist-m", "chisq:4",
                               "--dist-e", "chisq:4", "--pbar-db", "20")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["upper_full"]["value"] >= doc["lower_full"]["value"] - 1e-9
        assert doc["upper_main"]["value"] >= doc["lower_main"]["value"] - 1e-9
        assert doc["high_snr_limit"]["invertible"] is True

    def test_high_snr_limit_reports_quad_error(self, capsys):
        """The chisq:4 pair's limit is ln 2 - 1/4, and its error estimate
        (the gap to the rule of twice the step) is printed beside it."""
        code, out, _ = run_cli(capsys, "bounds", "--dist-m", "chisq:4", "--dist-e", "chisq:4")
        limit = json.loads(out)["high_snr_limit"]
        assert code == EXIT_OK
        assert sorted(limit) == ["invertible", "quad_error", "value"]
        assert abs(limit["value"] - (math.log(2.0) - 0.25)) < 1e-13
        assert 0.0 <= limit["quad_error"] < 1e-13

    def test_zero_power(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--pbar-db=-inf")
        assert code == EXIT_OK
        doc = json.loads(out)
        for key in ("upper_full", "lower_full", "upper_main", "lower_main"):
            assert doc[key]["value"] == 0.0

    def test_budget_whose_products_overflow(self, capsys):
        """At p_bar = 1e300, p h overflows on the grid; the rates are
        log-split there, so every bound is finite and at most the high-SNR
        limit, and nothing is written to stderr."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "bounds", "--pbar-db", "3000")
        assert code == EXIT_OK and err == ""
        doc = json.loads(out)
        limit = doc["high_snr_limit"]["value"]
        for key in ("upper_full", "lower_full", "upper_main", "lower_main"):
            value = doc[key]["value"]
            assert math.isfinite(value) and value <= limit + 1e-9, key

    def test_scale_that_overflows_is_skipped(self, capsys):
        """At 3000 dB over const:1e10, main-inv's scale p_bar / E[1/h_m]
        overflows: it is recorded as infeasible and the rest of the menu
        still runs."""
        code, out, err = run_cli(capsys, "bounds", "--dist-m", "const:1e10",
                                 "--dist-e", "const:1", "--pbar-db", "3000")
        assert code == EXIT_OK and err == ""
        doc = json.loads(out)
        for key in ("upper_full", "lower_full", "upper_main", "lower_main"):
            assert "overflows" in doc[key]["diagnostics"]["infeasible"]["main-inv"], key
            assert math.isfinite(doc[key]["value"]), key
            assert math.isfinite(doc[key]["diagnostics"].get("r_d_floor", 0.0)), key

    @pytest.mark.parametrize("argv", [("bounds",), ("sweep", "--snr-db-grid", "0:10:5")])
    def test_infinite_median_cutoff_is_skipped(self, capsys, argv):
        """The median of gamma:50:1e308 overflows, so a bare trunc-inv
        entry's cutoff is inf: it is recorded as infeasible, with no
        warning, and the rest of the menu still runs."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, *argv, "--dist-m", "gamma:50:1e308",
                                     "--dist-e", "chisq:4",
                                     "--policy", "const,full-inv,main-inv,trunc-inv")
        assert code == EXIT_OK and err == ""
        if argv[0] == "bounds":
            doc = json.loads(out)
            for key in ("upper_full", "lower_full", "upper_main", "lower_main"):
                assert "h_min=inf" in doc[key]["diagnostics"]["infeasible"]["trunc-inv"], key
        else:
            rows = list(csv.DictReader(io.StringIO(out)))
            assert len(rows) == 3
            assert all(math.isfinite(float(v)) for row in rows for v in row.values())

    def test_underflowing_median_cutoff_is_infeasible(self, capsys):
        """The mirror of an overflowing median: the median of
        gamma:0.3:5e-324 underflows to 0, so a bare trunc-inv has no
        positive cutoff.  It is recorded as infeasible, naming the median,
        and const still runs; an explicit zero cutoff stays a parse error."""
        code, out, err = run_cli(capsys, "bounds", "--dist-m", "gamma:0.3:5e-324",
                                 "--dist-e", "chisq:4", "--policy", "const,trunc-inv")
        assert code == EXIT_OK and err == ""
        doc = json.loads(out)
        for key in BOUND_KEYS:
            assert doc[key]["policy"]["family"] == "const", key
            assert doc[key]["diagnostics"]["infeasible"]["trunc-inv"] == (
                "trunc-inv: the median cutoff of gamma:0.3:4.94066e-324 underflows to 0"), key
        code, out, err = run_cli(capsys, "bounds", "--policy", "const,trunc-inv:0")
        assert code == EXIT_USAGE and "cutoff must be positive" in err

    def test_infinite_cutoff_menu_exits_3(self, capsys):
        code, out, err = run_cli(capsys, "bounds", "--policy", "trunc-inv:inf")
        assert code == EXIT_INFEASIBLE and out == ""
        assert "h_min=inf never transmits" in err

    def test_non_invertible_menu_exits_3(self, capsys):
        code, _, err = run_cli(capsys, "bounds", "--dist-m", "exp:1",
                               "--dist-e", "exp:1", "--policy", "full-inv")
        assert code == EXIT_INFEASIBLE
        assert "non-invertible channel" in err

    def test_law_far_below_unit_scale_calibrates_full_inv(self, capsys):
        """At scale 1e-10 E[1/min(h_m, h_e)] is the closed form, not 0 (as a
        fixed quadrature grid once read it), so full-inv calibrates and the
        run exits 0.  For shapes 2 the incomplete betas are polynomials:
        with u = theta_m / (theta_m + theta_e), E[1/min] =
        u (2 - u) / theta_e + (1 - u^2) / theta_m."""
        code, out, err = run_cli(capsys, "bounds", "--dist-m", "gamma:2:1e-10")
        assert code == EXIT_OK and err == ""
        u = 1e-10 / (1e-10 + 2.0)
        want = u * (2.0 - u) / 2.0 + (1.0 - u * u) / 1e-10
        got = inverse_min_moment(parse_distribution("gamma:2:1e-10"),
                                 parse_distribution("chisq:4"))
        assert math.isclose(got, want, rel_tol=1e-14)
        assert calibrate("full-inv", parse_distribution("gamma:2:1e-10"),
                         parse_distribution("chisq:4"), 100.0).c == 100.0 / got

    def test_trunc_cutoff_above_atom_is_infeasible(self, capsys):
        """A cutoff above a point-mass main gain never transmits: that entry
        is recorded as infeasible and the rest of the menu still runs."""
        code, out, _ = run_cli(capsys, "bounds", "--dist-m", "const:0.1",
                               "--dist-e", "const:1", "--policy", "trunc-inv:0.5",
                               "--policy", "const")
        assert code == EXIT_OK
        doc = json.loads(out)
        for key in ("upper_full", "lower_full", "upper_main", "lower_main"):
            diag = doc[key]["diagnostics"]
            assert "never transmits" in diag["infeasible"]["trunc-inv:0.5"]
            assert doc[key]["policy"]["family"] == "const"

    def test_only_trunc_cutoff_above_atom_exits_3(self, capsys):
        code, out, err = run_cli(capsys, "bounds", "--dist-m", "const:0.1",
                                 "--dist-e", "const:1", "--policy", "trunc-inv:0.5")
        assert code == EXIT_INFEASIBLE
        assert "never transmits" in err and out == ""

    def test_trunc_cutoff_above_underflowing_mass_is_infeasible(self, capsys):
        """Above 0.5, exp:1e-300 holds mass e^(-5e299), which is 0 in floating
        point: trunc-inv never transmits, as above a point mass, so that
        entry is recorded as infeasible and const still runs."""
        code, out, _ = run_cli(capsys, "bounds", "--dist-m", "exp:1e-300",
                               "--policy", "trunc-inv:0.5", "--policy", "const")
        assert code == EXIT_OK
        doc = json.loads(out)
        for key in ("upper_full", "lower_full", "upper_main", "lower_main"):
            diag = doc[key]["diagnostics"]
            assert "never transmits" in diag["infeasible"]["trunc-inv:0.5"]
            assert doc[key]["policy"]["family"] == "const"

    def test_bad_grammar_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "bounds", "--dist-m", "rayleigh:1")
        assert code == EXIT_USAGE
        assert "bad distribution spec" in err

    def test_bits_columns(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--pbar-db", "20", "--bits")
        doc = json.loads(out)
        uf = doc["upper_full"]
        assert abs(uf["value_bits"] - uf["value"] / math.log(2.0)) < 1e-12

    def test_too_many_nodes_names_the_bound(self, capsys):
        code, _, err = run_cli(capsys, "bounds", "--nodes", "100000")
        assert code == EXIT_USAGE
        assert err == "error: nodes must be in [8, 2000], got 100000\n"

    def test_nodes_checked_on_a_point_mass_pair(self, capsys):
        """A point-mass pair builds no half-line rule; the count is refused anyway."""
        code, out, err = run_cli(capsys, "bounds", "--dist-m", "const:2", "--dist-e", "const:1",
                                 "--nodes", "100000")
        assert (code, out) == (EXIT_USAGE, "")
        assert err == "error: nodes must be in [8, 2000], got 100000\n"

    @pytest.mark.parametrize("flags", [[], ["--policy", "main-inv"],
                                       ["--policy", "trunc-inv:1", "--q-kappa", "0.7"]])
    def test_overflowing_power_prints_no_numpy_warning(self, flags):
        """At 3 050 dB the inversion powers would overflow at the lowest
        main nodes (this once exited 2 naming that point).  No chisq:4 node
        exceeds h_e = 1e300, so r_s is 0 at every node pair and every bound
        is 0.  In a child process, with Python's default warning filters,
        stderr is empty: no numpy RuntimeWarning."""
        res = subprocess.run([sys.executable, "-m", "dlsec.cli", "bounds", "--dist-m", "chisq:4",
                              "--dist-e", "const:1e300", "--pbar-db", "3050", *flags],
                             capture_output=True, text=True, env=child_env())
        assert (res.returncode, res.stderr) == (EXIT_OK, "")
        doc = json.loads(res.stdout)
        assert [doc[key]["value"] for key in BOUND_KEYS] == [0.0] * 4


class TestSweep:
    def test_columns_and_ordering(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--dist-m", "chisq:4",
                               "--dist-e", "chisq:4", "--snr-db-grid", "0:40:10")
        assert code == EXIT_OK
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 5
        header = out.splitlines()[0]
        assert header == "snr_db,upper_full,lower_full,upper_main,lower_main,high_snr_limit"
        lf = [float(r["lower_full"]) for r in rows]
        assert all(b >= a - 1e-9 for a, b in zip(lf, lf[1:]))  # non-decreasing
        for r in rows:
            assert float(r["upper_full"]) >= float(r["lower_full"]) - 1e-9
            assert float(r["upper_main"]) >= float(r["lower_main"]) - 1e-9
        # the limit column is constant
        assert len({r["high_snr_limit"] for r in rows}) == 1

    def test_single_point_grid(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--snr-db-grid", "20")
        assert code == EXIT_OK
        assert len(out.strip().splitlines()) == 2  # header + one data row

    def test_descending_grid_rejected(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--snr-db-grid", "10,5")
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("grid", ["0:inf:1", "-inf:0:1", "0:1:inf", "nan:1:1",
                                      "0:1:nan", "0:nan:1"])
    def test_non_finite_range_rejected(self, capsys, grid):
        """0:inf:1 used to end in an OverflowError traceback."""
        code, out, err = run_cli(capsys, "sweep", f"--snr-db-grid={grid}")
        assert code == EXIT_USAGE
        assert "must be finite" in err and out == ""

    @pytest.mark.parametrize("grid", ["0:1:1e-300", "-1e308:1e308:1", "0:100000:1"])
    def test_oversized_range_rejected(self, capsys, grid):
        code, out, err = run_cli(capsys, "sweep", f"--snr-db-grid={grid}")
        assert code == EXIT_USAGE
        assert "more than 100000 points" in err and out == ""

    def test_non_invertible_menu_exits_3_with_nothing_written(self, capsys, tmp_path):
        out_path = tmp_path / "sweep.csv"
        code, out, err = run_cli(capsys, "sweep", "--dist-m", "exp:1", "--dist-e", "exp:1",
                                 "--policy", "full-inv", "--policy", "main-inv",
                                 "--snr-db-grid", "0:20:10", "--out", str(out_path))
        assert code == EXIT_INFEASIBLE
        assert err == ("error: non-invertible channel: E[1/min(h_m, h_e)] diverges "
                       "for exp:1 / exp:1\n")
        assert out == "" and not out_path.exists()

    def test_round_trip_through_reader(self, capsys, tmp_path):
        out_path = tmp_path / "sweep.csv"
        code, _, _ = run_cli(capsys, "sweep", "--snr-db-grid", "0:20:10",
                             "--out", str(out_path))
        assert code == EXIT_OK
        text = out_path.read_text()
        rows = list(csv.DictReader(io.StringIO(text)))
        rebuilt = "snr_db,upper_full,lower_full,upper_main,lower_main,high_snr_limit\n"
        rebuilt += "\n".join(
            ",".join(repr(float(r[k])) for k in ("snr_db", "upper_full",
                                                 "lower_full", "upper_main",
                                                 "lower_main", "high_snr_limit"))
            for r in rows) + "\n"
        assert rebuilt == text  # parse back losslessly


class TestSimulate:
    def test_writes_report_and_summary(self, capsys, tmp_path):
        prefix = str(tmp_path / "run")
        code, out, _ = run_cli(capsys, "simulate", "--scheme", "baseline",
                               "--dist-m", "chisq:4", "--dist-e", "chisq:4",
                               "-a", "100", "-b", "100", "--n1", "500",
                               "--seed", "7", "--out", prefix)
        assert code == EXIT_OK
        line = out.strip().splitlines()[-1]
        assert line.startswith("starvation=")
        fields = dict(kv.split("=") for kv in line.split())
        assert abs(float(fields["outage_frac"]) - 0.5) <= 3.0 * math.sqrt(0.25 / 1e4)
        assert fields["roundtrip"] == "true"
        doc = json.loads((tmp_path / "run.json").read_text())
        assert doc["config"]["scheme"] == "baseline"
        csv_lines = (tmp_path / "run.csv").read_text().splitlines()
        assert csv_lines[0].startswith("m,l,h_m,h_e,power")
        assert len(csv_lines) == 1 + 100 * 100

    def test_single_superblock_full_scheme(self, capsys, tmp_path):
        prefix = str(tmp_path / "sb1")
        code, _, _ = run_cli(capsys, "simulate", "--scheme", "full", "-b", "1",
                             "-a", "50", "--n1", "500", "--out", prefix)
        assert code == EXIT_OK
        doc = json.loads((tmp_path / "sb1.json").read_text())
        assert doc["otp_insecure_fraction"] == 1.0

    def test_byte_identical_reruns(self, tmp_path):
        """Same seed, two processes: byte-identical JSON and CSV."""
        args = [sys.executable, "-m", "dlsec.cli", "simulate", "--scheme",
                "main", "--dist-m", "chisq:4", "--dist-e", "chisq:4",
                "-a", "50", "-b", "4", "--n1", "500", "--seed", "7"]
        outs = []
        for tag in ("x", "y"):
            prefix = str(tmp_path / tag)
            res = subprocess.run(args + ["--out", prefix], capture_output=True,
                                 text=True, env=child_env(), check=True)
            outs.append((res.stdout,
                         (tmp_path / f"{tag}.json").read_bytes(),
                         (tmp_path / f"{tag}.csv").read_bytes()))
        assert outs[0] == outs[1]

    def test_bare_trunc_inv_takes_the_median_cutoff(self, capsys, tmp_path):
        """A bare trunc-inv resolves as in a bound's menu: the cutoff is the
        median main gain, and the power is 0 exactly below it."""
        prefix = str(tmp_path / "ti")
        code, _, _ = run_cli(capsys, "simulate", "--policy", "trunc-inv", "-a", "50",
                             "-b", "4", "--n1", "500", "--out", prefix)
        assert code == EXIT_OK
        doc = json.loads((tmp_path / "ti.json").read_text())
        assert doc["config"]["policy"] == "trunc-inv"
        h_min = parse_distribution(doc["config"]["dist_m"]).quantile(0.5)
        records = doc["records"]
        off = [p == 0.0 for p in records["power"]]
        assert off == [h < h_min for h in records["h_m"]]
        assert 0 < sum(off) < len(off)

    def test_underflowing_median_cutoff_exits_3(self, capsys, tmp_path):
        """A baseline run of a bare trunc-inv whose median cutoff underflows
        to 0 is infeasible (exit 3), not a usage error, and writes nothing."""
        prefix = tmp_path / "u"
        code, out, err = run_cli(capsys, "simulate", "--scheme", "baseline",
                                 "--policy", "trunc-inv", "--dist-m", "gamma:0.3:5e-324",
                                 "--out", str(prefix))
        assert code == EXIT_INFEASIBLE and out == ""
        assert "median cutoff of gamma:0.3:4.94066e-324 underflows to 0" in err
        assert list(tmp_path.iterdir()) == []

    def test_invalid_config_exits_2(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "simulate", "--scheme", "full",
                             "--delta", "1.5", "--out", str(tmp_path / "z"))
        assert code == EXIT_USAGE

    def test_defaults_are_simconfig_defaults(self, monkeypatch):
        """With no flags, simulate runs SimConfig's own default for every
        setting that has one (the seed comes from DST_SEED or 12345)."""
        class Ran(Exception):
            pass

        def capture(config):
            raise Ran(config)

        monkeypatch.setattr(cli, "simulate", capture)
        monkeypatch.delenv("DST_SEED", raising=False)
        with pytest.raises(Ran) as ran:
            main(["simulate"])
        config = ran.value.args[0]
        defaults = {f.name: f.default for f in dataclasses.fields(SimConfig)
                    if f.default is not dataclasses.MISSING and f.name != "seed"}
        assert set(defaults) == {"policy", "b", "a", "n1", "delta", "q_kappa", "init", "nodes"}
        assert {name: getattr(config, name) for name in defaults} == defaults


class TestValidate:
    def test_quick_run_passes_fast(self, capsys):
        start = time.time()
        code, out, _ = run_cli(capsys, "validate", "--quick")
        elapsed = time.time() - start
        assert code == EXIT_OK
        assert "all validation checks passed" in out
        assert elapsed < 10.0

    def test_high_snr_limit_against_exact_value_then_monte_carlo(self, capsys):
        _, out, _ = run_cli(capsys, "validate", "--quick")
        exact, mc = [l for l in out.splitlines() if "high-snr-limit[chisq:4]" in l]
        assert exact.startswith("ok   high-snr-limit[chisq:4] exact: 0.443147 vs 0.443147 (tol 1.00e-15, quad_error ")
        assert mc.startswith("ok   high-snr-limit[chisq:4] mc: ") and "quad_error" in mc

    def test_one_atom_high_snr_limit_against_exact_value(self, capsys):
        """const:2 against chisq:4: gamma + E1(1) - 1 + 1/e, at 1e-15."""
        _, out, _ = run_cli(capsys, "validate", "--quick")
        line = next(l for l in out.splitlines() if "high-snr-limit[const:2/chisq:4]" in l)
        assert line.startswith("ok   high-snr-limit[const:2/chisq:4] exact: 0.164479 vs 0.164479 "
                               "(tol 1.00e-15, quad_error ")

    def test_calibration_moment_holds_at_any_node_count(self, capsys):
        """E[P] reads the moment calibration used, whatever --nodes is."""
        _, out, _ = run_cli(capsys, "validate", "--quick", "--nodes", "16")
        line = next(l for l in out.splitlines() if "calibration[chisq:4/full-inv] moment" in l)
        assert line.startswith("ok ")

    def test_far_scale_calibration_meets_budget_by_monte_carlo(self, capsys):
        """gamma:8:1000 lies far from unit scale, where a fixed 200-node
        grid read E[1/min] 31 % high and the policy spent 76 % of p_bar."""
        _, out, _ = run_cli(capsys, "validate", "--quick")
        line = next(l for l in out.splitlines() if "calibration[gamma:8:1000/full-inv] mc" in l)
        assert line.startswith("ok ")

    def test_fixed_point_against_bisection(self, capsys):
        """Newton's R* and the bisection root of R - min{K(R), R_d} agree
        to 1e-12 R_d, with and without --quick; the bisection starts where
        its test is false, K(0) > 0 on chisq:4."""
        dist = parse_distribution("chisq:4")
        pol = calibrate("main-inv", dist, dist, 100.0)
        assert key_rate(secrecy_gap(pol, dist, dist)[0], pair_rule(dist, dist).w, 0.0) > 0.0
        r_d = delay_floor(pol, dist)
        for argv in (["--quick"], []):
            _, out, _ = run_cli(capsys, "validate", *argv)
            line = next(l for l in out.splitlines() if "fixed-point[" in l)
            assert line.startswith("ok   fixed-point[chisq:4/main-inv]: Newton vs bisection "
                                   "root gap ")
            assert line.endswith(f"(tol {cli.FIXED_POINT_TOL * r_d:.3e})")
            assert float(line.split("root gap ")[1].split()[0]) <= cli.FIXED_POINT_TOL * r_d

    def test_wrong_fixed_point_exits_4(self, capsys, monkeypatch):
        """A root off by 1e-9 relative, far inside the old 2 001-point
        scan's step, fails the check."""
        def off(*args):
            r_star, diag = fixed_point_rate(*args)
            return r_star * (1.0 + 1e-9), diag

        monkeypatch.setattr(cli, "fixed_point_rate", off)
        code, out, _ = run_cli(capsys, "validate", "--quick")
        assert code == EXIT_VALIDATION
        assert "FAIL fixed-point[chisq:4/main-inv]" in out
        assert out.splitlines()[-1] == "validation failed for: fixed-point[chisq:4/main-inv]"

    def test_injected_bad_tolerance_exits_4(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MAX_SIGMA", 1e-9)
        code, out, _ = run_cli(capsys, "validate", "--quick")
        assert code == EXIT_VALIDATION
        assert "FAIL" in out
        assert "validation failed for:" in out


class TestConfigFileAndEnv:
    def test_config_file_supplies_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("dist-m = gamma:2:1\ndist_e = gamma:2:1\npbar_db = 10\n")
        code, out, _ = run_cli(capsys, "bounds", "--config", str(cfg))
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["dist_m"] == "gamma:2:1"
        assert doc["p_bar_db"] == 10.0

    def test_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("pbar_db = 10\n")
        code, out, _ = run_cli(capsys, "bounds", "--config", str(cfg),
                               "--pbar-db", "20")
        doc = json.loads(out)
        assert doc["p_bar_db"] == 20.0

    def test_flag_policy_replaces_config_policy(self, capsys, tmp_path):
        """The flag's menu is the whole menu: const from the file would
        make the non-invertible full-inv menu usable."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text("dist_m = exp:1\ndist_e = exp:1\npolicy = const\n")
        code, out, _ = run_cli(capsys, "bounds", "--config", str(cfg))
        assert code == EXIT_OK
        assert json.loads(out)["upper_full"]["policy"]["family"] == "const"
        code, out, err = run_cli(capsys, "bounds", "--config", str(cfg),
                                 "--policy", "full-inv")
        assert code == EXIT_INFEASIBLE and out == ""
        assert "non-invertible channel" in err

    def test_config_policy_list(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("policy = full-inv, main-inv\n")
        code, out, _ = run_cli(capsys, "bounds", "--config", str(cfg))
        assert code == EXIT_OK
        families = {json.loads(out)[k]["policy"]["family"]
                    for k in ("upper_full", "lower_full", "upper_main", "lower_main")}
        assert families <= {"full-inv", "main-inv"}
        assert "skipped" in json.loads(out)["upper_main"]["diagnostics"]

    @pytest.mark.parametrize("command, extra", [
        ("bounds", ()), ("sweep", ("--snr-db-grid", "0:20:10")),
    ])
    def test_policy_list_forms_agree(self, capsys, tmp_path, command, extra):
        """A comma list after one flag, the flag repeated and a comma list
        in the config file make the same menu."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text("policy = full-inv, main-inv\n")
        outputs = []
        for argv in (["--policy", "full-inv,main-inv"],
                     ["--policy", "full-inv", "--policy", "main-inv"],
                     ["--config", str(cfg)]):
            code, out, err = run_cli(capsys, command, *extra, *argv)
            assert (code, err) == (EXIT_OK, "")
            outputs.append(out)
        assert outputs[0] == outputs[1] == outputs[2]
        if command == "bounds":
            assert json.loads(outputs[0])["upper_main"]["diagnostics"]["skipped"] == {
                "full-inv": "needs full CSI"}

    def test_config_values_are_cast(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bits = yes\nnodes = 64\nq_kappa = 0\n")
        code, out, _ = run_cli(capsys, "bounds", "--config", str(cfg))
        assert code == EXIT_OK
        assert "value_bits" in json.loads(out)["upper_full"]
        cfg.write_text("nodes = many\n")
        code, _, err = run_cli(capsys, "bounds", "--config", str(cfg))
        assert code == EXIT_USAGE

    def test_unknown_key_is_an_error(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("power_level = 9001\n")
        code, _, err = run_cli(capsys, "bounds", "--config", str(cfg))
        assert code == EXIT_USAGE
        assert "unknown key" in err

    def test_env_seed_default(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("DST_SEED", "99")
        p1 = str(tmp_path / "a")
        code, out1, _ = run_cli(capsys, "simulate", "--scheme", "baseline",
                                "-a", "20", "-b", "2", "--n1", "200",
                                "--out", p1)
        assert code == EXIT_OK
        doc = json.loads((tmp_path / "a.json").read_text())
        assert doc["config"]["seed"]["seed"] == 99

    @pytest.mark.parametrize("command, extra", [
        ("bounds", ()), ("sweep", ("--snr-db-grid", "0:20:10")),
    ])
    def test_seedless_commands_take_no_seed(self, capsys, tmp_path, monkeypatch, command,
                                            extra):
        """bounds and sweep draw no samples: a DST_SEED that is no integer
        does not stop them, and --seed or a seed line in their config file
        is a usage error."""
        monkeypatch.setenv("DST_SEED", "abc")
        code, _, err = run_cli(capsys, command, *extra, "--nodes", "16")
        assert (code, err) == (EXIT_OK, "")
        with pytest.raises(SystemExit) as stop:
            main([command, *extra, "--seed", "5"])
        assert stop.value.code == EXIT_USAGE
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 5\n")
        code, _, err = run_cli(capsys, command, *extra, "--config", str(cfg))
        assert code == EXIT_USAGE and "unknown key 'seed'" in err


class ReadRecorder:
    """A resolved namespace that records which options are read."""

    def __init__(self, args):
        self._values, self.read = vars(args), set()

    def __getattr__(self, name):
        if name not in self._values:
            raise AttributeError(name)
        self.read.add(name)
        return self._values[name]


@pytest.mark.parametrize("argv", [
    ["bounds", "--nodes", "16"],
    ["sweep", "--snr-db-grid", "0:10:10", "--nodes", "16"],
    ["simulate", "-a", "10", "-b", "2", "--n1", "100"],
    ["validate", "--quick"],
], ids=lambda argv: argv[0])
def test_every_declared_option_is_read(capsys, tmp_path, argv):
    """Each command's handler reads every option cli._COMMANDS declares for
    it, so no flag or config key is accepted and then ignored."""
    if argv[0] == "simulate":
        argv = argv + ["--out", str(tmp_path / "run")]
    args = cli._resolve_options(cli.build_parser().parse_args(argv))
    handler = {"bounds": cli.cmd_bounds, "sweep": cli.cmd_sweep,
               "simulate": cli.cmd_simulate, "validate": cli.cmd_validate}[argv[0]]
    recorder = ReadRecorder(args)
    assert handler(recorder) == EXIT_OK
    capsys.readouterr()
    assert set(cli._COMMANDS[argv[0]][1]) - recorder.read == set()
