"""CLI behavior: strict config parsing, exit codes, artifacts, determinism."""

import hashlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from scaling_lens import cli, threshold
from scaling_lens.degree import DegreeModel, PoissonLimit
from scaling_lens.peeling import mc_parent_graph_erasure
from scaling_lens.threshold import (
    SolverWarning,
    bit_erasure_rate,
    find_threshold,
    matching_upper_bound,
)


def write_config(tmp_path, text, name="run.txt"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def run_cli(argv):
    return cli.main(argv)


THRESHOLD_OK = "R = 1000\nT = 4500\nd_t = 6\nepsilon = 0.5\n"


class TestConfigValidation:
    def test_unknown_key_rejected_with_line(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "R = 10\nbogus = 3\nT = 20\nd_t = 2\n")
        assert run_cli(["threshold", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert "unknown key 'bogus'" in err
        assert ":2:" in err
        assert list(tmp_path.iterdir()) == [tmp_path / "run.txt"]

    def test_duplicate_key_cites_first_line(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "R = 10\nT = 20\nR = 11\nd_t = 2\n")
        assert run_cli(["threshold", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert "duplicate key 'R'" in err
        assert "first on line 1" in err

    def test_invalid_value_with_line(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "R = 10\nT = 20\nd_t = abc\n")
        assert run_cli(["threshold", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert "invalid value 'abc'" in err
        assert ":3:" in err

    def test_invalid_enum_value_with_line(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path, "R = 10\nT = 20\nd_t = 2\neval_mode = taylor\n")
        assert run_cli(["threshold", "--config", cfg]) == 1
        err = capsys.readouterr().err
        expected = "(expected enum:exact_log|poisson_limit)"
        assert "invalid value 'taylor' for key 'eval_mode' " + expected in err
        assert ":4:" in err
        assert list(tmp_path.iterdir()) == [tmp_path / "run.txt"]

    def test_missing_required_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "R = 10\nd_t = 2\n")
        assert run_cli(["threshold", "--config", cfg]) == 1
        assert "missing required key 'T'" in capsys.readouterr().err

    def test_malformed_line(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "R = 10\njust words\n")
        assert run_cli(["threshold", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert "expected 'key = value'" in err
        assert ":2:" in err

    def test_negative_degree_rejected_without_output(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path, "R = 10\nT = 20\nd_t = -1\n")
        assert run_cli(["threshold", "--config", cfg]) == 1
        assert "invalid configuration" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [tmp_path / "run.txt"]

    def test_comments_and_blank_lines(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(
            tmp_path,
            "# header comment\n\nR = 12\nT = 24  # inline comment\nd_t = 3\n"
            "out = t.csv\n",
        )
        assert run_cli(["threshold", "--config", cfg]) == 0
        assert (tmp_path / "t.csv").exists()

    def test_budget_sources_are_exclusive(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "budgets = 6e4, 6e5\nbudget_min = 6e4\nbudget_max = 6e5\n"
            "budget_count = 3\n",
        )
        assert run_cli(["frontier", "--config", cfg]) == 1
        assert "not both" in capsys.readouterr().err
        cfg2 = write_config(tmp_path, "d_t = 6\n", name="none.txt")
        assert run_cli(["frontier", "--config", cfg2]) == 1
        assert "budgets missing" in capsys.readouterr().err

    def test_unreadable_config(self, tmp_path, capsys):
        assert run_cli(["threshold", "--config", str(tmp_path / "gone.txt")]) == 1
        assert "cannot read config" in capsys.readouterr().err


class TestExitCodes:
    def test_numeric_failure_echoes_parameters(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(
            tmp_path, "R = 100000\nT = 100000\nd_t = 50000\nmode = learned\n"
        )
        assert run_cli(["peel-sim", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "numeric failure" in err
        assert "parameters" in err
        assert "100000" in err
        assert list(tmp_path.iterdir()) == [tmp_path / "run.txt"]

    def test_non_finite_output_echoes_parameters(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "matching_upper_bound", lambda model: math.nan)
        cfg = write_config(tmp_path, THRESHOLD_OK)
        assert run_cli(["threshold", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "numeric failure: non-finite value nan in output" in err
        assert "'R': 1000" in err and "'out'" not in err
        assert list(tmp_path.iterdir()) == [tmp_path / "run.txt"]

    def test_missing_output_directory_is_one_line_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path, THRESHOLD_OK)
        out = str(tmp_path / "missing" / "t.csv")
        assert run_cli(["threshold", "--config", cfg, "--out", out]) == 1
        err = capsys.readouterr().err
        assert "cannot write" in err and "Traceback" not in err
        assert err.count("\n") == 1
        assert list(tmp_path.iterdir()) == [tmp_path / "run.txt"]

    def test_bad_flag_exits_one(self, tmp_path):
        cfg = write_config(tmp_path, THRESHOLD_OK)
        with pytest.raises(SystemExit) as exc:
            run_cli(["threshold", "--config", cfg, "--bogus"])
        assert exc.value.code == 1

    def test_version_flag(self):
        with pytest.raises(SystemExit) as exc:
            run_cli(["--version"])
        assert exc.value.code == 0

    TASK = (
        "levels = 5\nskills_per_level = 50\ntask = homogeneous\n"
        "task_level = 1\ntask_m = 2\nslope_tol = 0.02\nmin_width_decades = 0.3\n"
    )
    # C = 30 gives C' = 5 < R_min = 7: no feasible R
    EMPTY = "budgets = 30, 60\n"
    FAILURES = {
        "isoflop_empty_grid": ("isoflop", EMPTY, 2, "no feasible R"),
        "frontier_empty_grid": ("frontier", EMPTY, 2, "no feasible R"),
        "loss_empty_grid": ("loss", EMPTY, 2, "no feasible R"),
        "emergence_empty_grid": ("emergence", EMPTY + TASK, 2, "no feasible R"),
        "plateaus_empty_grid": ("plateaus", EMPTY + TASK, 2, "no feasible R"),
        "plateaus_too_few_points": (
            "plateaus", "budgets = 6e4, 6e5, 6e6\n" + TASK, 2, "needs >= 8 points"
        ),
        "plateaus_descending": (
            "plateaus", "budgets = 6e6, 3e6, 1e6, 6e5, 3e5, 1e5, 8e4, 6e4\n" + TASK,
            1, "strictly increasing",
        ),
        "plateaus_repeated": (
            "plateaus", "budgets = 6e4, 8e4, 1e5, 1e5, 3e5, 6e5, 1e6, 3e6\n" + TASK,
            1, "strictly increasing",
        ),
        # an infinite or NaN parameter is a bad value, not an OverflowError
        "frontier_infinite_budget": (
            "frontier", "budget_min = 1e21\nbudget_max = inf\nbudget_count = 5\n",
            1, "C must be finite",
        ),
        "isoflop_infinite_budget": ("isoflop", "budgets = 1e21, inf\n", 1, "C must be finite"),
        "frontier_nan_d_t": ("frontier", "budgets = 1e6, 1e7\nd_t = nan\n", 1, "d_t must be finite"),
        "emergence_infinite_eta": (
            "emergence", "budgets = 1e6, 1e7\neta_scale = inf\n" + TASK, 1, "must be finite",
        ),
    }

    @pytest.mark.parametrize("name", FAILURES)
    def test_failure_is_one_line_and_writes_nothing(self, name, tmp_path, capsys, monkeypatch):
        """Every command maps a failure to its exit code, without a traceback or output."""
        monkeypatch.chdir(tmp_path)
        command, text, code, message = self.FAILURES[name]
        cfg = write_config(tmp_path, text)
        assert run_cli([command, "--config", cfg]) == code
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert message in err
        if code == 2:
            # the command's keys that were set, without the common ones
            assert "numeric failure" in err and "'budgets': [" in err
            assert "'seed'" not in err and "'out'" not in err
        else:
            assert "invalid configuration" in err
        assert list(tmp_path.iterdir()) == [tmp_path / "run.txt"]


class TestThresholdCommand:
    def test_solved_model_csv(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path, THRESHOLD_OK + "out = t.csv\n")
        assert run_cli(["threshold", "--config", cfg]) == 0
        raw = (tmp_path / "t.csv").read_bytes()
        lines = raw.split(b"\r\n")
        assert raw.endswith(b"\r\n")
        assert lines[0].decode() == (
            "R,T,d_t,epsilon,eps_star,x_star,nu_star,alpha,no_transition,"
            "matching_upper_bound,bit_erasure_rate"
        )
        cells = lines[1].decode().split(",")
        # the dense 4M-point minimum of x/g(x) for this model
        np.testing.assert_allclose(float(cells[4]), 0.498872999794601, rtol=1e-9)
        assert cells[8] == "0"

    def test_poisson_limit_mode_solves_the_poisson_ensemble(self, tmp_path, monkeypatch):
        """eval_mode = poisson_limit runs the solve on a PoissonLimit."""
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path, THRESHOLD_OK + "eval_mode = poisson_limit\nout = p.csv\n")
        assert run_cli(["threshold", "--config", cfg]) == 0
        cells = (tmp_path / "p.csv").read_bytes().split(b"\r\n")[1].decode().split(",")
        model = PoissonLimit(R=1000, T=4500, d_t=6.0, epsilon=0.5)
        sol = find_threshold(model)
        want = [sol.eps_star, sol.x_star, sol.nu_star, sol.alpha]
        assert [float(c) for c in cells[4:8]] == want
        assert float(cells[9]) == matching_upper_bound(model)
        assert float(cells[10]) == bit_erasure_rate(model, sol)

    def test_junk_cut_rate_matches_monte_carlo(self, tmp_path, monkeypatch):
        """A junk-dominated crossover reports the simulated stall, not a law's half of it."""
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path, "R = 206\nT = 48\nd_t = 6\nepsilon = 0.5\nout = j.csv\n")
        assert run_cli(["threshold", "--config", cfg]) == 0
        cells = (tmp_path / "j.csv").read_bytes().split(b"\r\n")[1].decode().split(",")
        mc = mc_parent_graph_erasure(
            DegreeModel(R=206, T=48, d_t=6.0, epsilon=0.5), trials=400, seed=1
        )
        assert abs(float(cells[10]) - mc.mean) <= 3.0 * mc.stderr

    def test_no_transition_uses_empty_cells(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path, "R = 1000\nT = 800\nd_t = 0.9\nout = s.csv\n")
        assert run_cli(["threshold", "--config", cfg]) == 0
        cells = (tmp_path / "s.csv").read_bytes().split(b"\r\n")[1].decode().split(",")
        assert cells[4] == "1"  # sentinel eps_star
        assert cells[5] == cells[6] == cells[7] == ""  # x_star, nu_star, alpha
        assert cells[8] == "1"
        # no transition, yet a third of the bits stay erased: the DE rate
        mc = mc_parent_graph_erasure(
            DegreeModel(R=1000, T=800, d_t=0.9, epsilon=0.5), trials=200, seed=5
        )
        assert float(cells[10]) > 0.0
        assert abs(float(cells[10]) - mc.mean) <= 3.0 * mc.stderr
        meta = json.loads((tmp_path / "s.csv.meta.json").read_text())
        # the command's note only: the solver's sentinel is no SolverWarning
        assert meta["warnings"] == ["NoTransition: no decoding transition for eps up to 1"]
        # a crossover with d_t > 1 leaves the same cells empty
        cfg = write_config(tmp_path, "R = 217\nT = 1978\nd_t = 2.112\nout = c.csv\n")
        assert run_cli(["threshold", "--config", cfg]) == 0
        cells = (tmp_path / "c.csv").read_bytes().split(b"\r\n")[1].decode().split(",")
        assert cells[4:9] == ["1", "", "", "", "1"]

    # event: ((R, T) at d_t = 6, the forcing patch, the start of the one warning)
    SOLVER_EVENTS = {
        # eps = 0.5 is above threshold, so the rate runs the DE orbit from x = 1
        "cap": ((1000, 4500), ("DE_MAX_ITER", 3), "DE iteration cap 3 hit at eps=0.5, x="),
    }

    @pytest.mark.parametrize("event", SOLVER_EVENTS)
    def test_solver_event_is_one_sidecar_warning(self, event, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (R, T), patch, start = self.SOLVER_EVENTS[event]
        monkeypatch.setattr(threshold, *patch)
        model = DegreeModel(R=R, T=T, d_t=6.0)
        # what the threshold command runs, outside the CLI
        with pytest.warns(SolverWarning) as record:
            bit_erasure_rate(model, find_threshold(model))
        assert [str(w.message)[: len(start)] for w in record] == [start]
        cfg = write_config(tmp_path, f"R = {R}\nT = {T}\nd_t = 6\n")
        assert run_cli(["threshold", "--config", cfg, "--out", "t.csv"]) == 0
        meta = json.loads((tmp_path / "t.csv.meta.json").read_text())
        assert meta["warnings"] == [str(record[0].message)]

    def test_json_format_matches_csv_values(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path, THRESHOLD_OK + "out = t.csv\n")
        assert run_cli(["threshold", "--config", cfg]) == 0
        assert run_cli(
            ["threshold", "--config", cfg, "--out", "t.json", "--format", "json"]
        ) == 0
        doc = json.loads((tmp_path / "t.json").read_text())
        assert set(doc) == {"columns", "rows"}
        row = doc["rows"][0]
        csv_cells = (tmp_path / "t.csv").read_bytes().split(b"\r\n")[1].decode().split(",")
        assert row["eps_star"] == float(csv_cells[4])
        assert row["no_transition"] is False


class TestPeelSimCommand:
    CFG = "R = 60\nT = 120\nd_t = 4\nmode = learned\ntrials = 40\nseed = 5\n"

    def test_default_output_name_and_meta(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path, self.CFG)
        assert run_cli(["peel-sim", "--config", cfg]) == 0
        assert (tmp_path / "peel_sim.csv").exists()
        meta = json.loads((tmp_path / "peel_sim.csv.meta.json").read_text())
        assert meta["command"] == "peel-sim"
        assert meta["seed"] == 5
        assert meta["trials"] == 40
        assert meta["rows"] == 40
        assert "mean" in meta and "stderr" in meta
        # defaults are recorded even when the config omits them
        assert meta["resolved_params"]["epsilon"] == 0.5
        assert meta["resolved_params"]["format"] == "csv"

    def test_flag_overrides(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path, self.CFG)
        assert run_cli(
            ["peel-sim", "--config", cfg, "--seed", "9", "--trials", "12",
             "--out", "o.csv"]
        ) == 0
        meta = json.loads((tmp_path / "o.csv.meta.json").read_text())
        assert meta["seed"] == 9
        assert meta["rows"] == 12

    @pytest.mark.parametrize(
        "key, raw, kind",
        [("seed", "1.5", "int"), ("trials", "many", "int"), ("threads", "abc", "int"),
         ("format", "xml", "enum:csv|json")],
    )
    def test_flag_is_checked_as_a_config_line(self, key, raw, kind, tmp_path, capsys):
        """A bad flag value and the same value on a config line fail with
        exit 1 and the same message, and nothing is written."""
        message = f"invalid value '{raw}' for key '{key}' (expected {kind})"
        cfg = write_config(tmp_path, self.CFG)
        assert run_cli(["peel-sim", "--config", cfg, f"--{key}", raw]) == 1
        err = capsys.readouterr().err
        assert message in err and "command line" in err and err.count("\n") == 1
        lines = [line for line in self.CFG.splitlines() if not line.startswith(key)]
        cfg = write_config(tmp_path, "\n".join(lines + [f"{key} = {raw}"]) + "\n")
        assert run_cli(["peel-sim", "--config", cfg]) == 1
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [tmp_path / "run.txt"]

    def test_seed_changes_data(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path, self.CFG)
        run_cli(["peel-sim", "--config", cfg, "--out", "a.csv"])
        run_cli(["peel-sim", "--config", cfg, "--out", "b.csv", "--seed", "6"])
        assert (tmp_path / "a.csv").read_bytes() != (tmp_path / "b.csv").read_bytes()

    def test_trials_validated(self, tmp_path, capsys):
        cfg = write_config(tmp_path, self.CFG.replace("trials = 40", "trials = 0"))
        assert run_cli(["peel-sim", "--config", cfg]) == 1
        assert "trials" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "change, message",
        [(("d_t = 4", "d_t = 80"), "edge probability must lie in [0, 1]"),
         (("seed = 5", "seed = -1"), "seed must fit in uint64")],
        ids=["degree_above_R", "negative_seed"],
    )
    def test_monte_carlo_input_is_one_line_error(
        self, change, message, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path, self.CFG.replace(*change))
        assert run_cli(["peel-sim", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert "invalid configuration" in err and message in err
        assert err.count("\n") == 1
        assert list(tmp_path.iterdir()) == [tmp_path / "run.txt"]

    def test_threads_zero_means_every_core(self, tmp_path, monkeypatch):
        """0 from the environment or the flag runs on every core, as recorded."""
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        cfg = write_config(tmp_path, self.CFG)
        monkeypatch.setenv("SCALING_LENS_THREADS", "0")
        assert run_cli(["peel-sim", "--config", cfg, "--out", "env.csv"]) == 0
        monkeypatch.setenv("SCALING_LENS_THREADS", "2")
        assert run_cli(["peel-sim", "--config", cfg, "--out", "flag.csv", "--threads", "0"]) == 0
        for out in ("env.csv", "flag.csv"):
            meta = json.loads((tmp_path / f"{out}.meta.json").read_text())
            assert meta["resolved_params"]["threads"] == 5
        assert (tmp_path / "env.csv").read_bytes() == (tmp_path / "flag.csv").read_bytes()

    def test_bad_threads_env_is_one_line_error(self, tmp_path, monkeypatch, capsys):
        cfg = write_config(tmp_path, self.CFG)
        monkeypatch.setenv("SCALING_LENS_THREADS", "many")
        assert run_cli(["peel-sim", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert "SCALING_LENS_THREADS must be an integer" in err
        assert err.count("\n") == 1
        assert list(tmp_path.iterdir()) == [tmp_path / "run.txt"]


class TestBudgetCommands:
    def test_isoflop_artifact(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(
            tmp_path,
            "budgets = 60000\npoints_per_decade = 16\nd_t = 6\nout = iso.csv\n",
        )
        assert run_cli(["isoflop", "--config", cfg]) == 0
        rows = (tmp_path / "iso.csv").read_bytes().decode().strip().split("\r\n")
        assert rows[0] == "C,R,T,objective,eps_star,no_transition"
        assert len(rows) > 20
        crossovers = 0
        for line in rows[1:]:
            c, r, t, obj, eps, none = line.split(",")
            assert int(r) * int(t) <= 10000
            assert math.isfinite(float(obj)) and math.isfinite(float(eps))
            # a crossover row carries the sentinel eps_star = 1
            assert none in ("0", "1") and (none == "0" or eps == "1")
            crossovers += none == "1"
        assert 0 < crossovers < len(rows) - 1
        meta = json.loads((tmp_path / "iso.csv.meta.json").read_text())
        assert meta["interior_maxima_after_smoothing"] == {"60000": 1}

    def test_frontier_fit_with_five_budgets(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(
            tmp_path,
            "budget_min = 6e4\nbudget_max = 6e6\nbudget_count = 5\nd_t = 6\n"
            "out = f.csv\n",
        )
        assert run_cli(["frontier", "--config", cfg]) == 0
        rows = (tmp_path / "f.csv").read_bytes().decode().strip().split("\r\n")
        assert len(rows) == 6
        meta = json.loads((tmp_path / "f.csv.meta.json").read_text())
        fit = meta["scaling_fit"]
        assert 0.3 < fit["a"] < 0.7 and 0.3 < fit["b"] < 0.7

    def test_frontier_without_fit_notes_it(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(
            tmp_path,
            "budgets = 6e4, 6e5, 6e6\nd_t = 6\nout = f3.csv\n",
        )
        assert run_cli(["frontier", "--config", cfg]) == 0
        meta = json.loads((tmp_path / "f3.csv.meta.json").read_text())
        assert "scaling_fit" not in meta
        assert any("fewer than 5 budgets" in w for w in meta["warnings"])
        # no Monte Carlo, so no seed or trial count
        assert not {"seed", "trials", "threads"} & (set(meta) | set(meta["resolved_params"]))

    @pytest.mark.parametrize("key", ["seed", "trials", "threads"])
    def test_monte_carlo_keys_are_peel_sim_only(self, key, tmp_path, capsys):
        """Of the commands only peel-sim reads them, so elsewhere the flag
        and the config key are errors, not settings that do nothing."""
        cfg = write_config(tmp_path, "budgets = 6e4, 6e5\n")
        with pytest.raises(SystemExit) as exc:
            run_cli(["frontier", "--config", cfg, f"--{key}", "3"])
        assert exc.value.code == 1
        capsys.readouterr()
        cfg = write_config(tmp_path, f"budgets = 6e4, 6e5\n{key} = 3\n")
        assert run_cli(["frontier", "--config", cfg]) == 1
        assert f"unknown key '{key}'" in capsys.readouterr().err

    def test_loss_flags_constant_discrepancy(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(
            tmp_path, "budgets = 6e4, 6e5, 6e6\nd_t = 6\nout = l.csv\n"
        )
        assert run_cli(["loss", "--config", cfg]) == 0
        rows = (tmp_path / "l.csv").read_bytes().decode().strip().split("\r\n")
        assert rows[0] == (
            "C,R_star,N_star,P_b,P_e_train_exact,P_e_train_approx,"
            "excess_entropy_lb"
        )
        meta = json.loads((tmp_path / "l.csv.meta.json").read_text())
        flag = meta["approx_constant_discrepancy"]
        assert flag["flag"] == "training-error-approx-constant-discrepancy"
        assert flag["approx_over_exact_ratio"] == 8.0


EMERGENCE_CFG = (
    "budget_min = 6e4\nbudget_max = 6e7\nbudget_count = 10\nd_t = 6\n"
    "levels = 5\nskills_per_level = 50\ntask = homogeneous\n"
    "task_level = 1\ntask_m = 2\n"
)


class TestEmergenceCommands:
    def test_curve_with_plateau_report(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(
            tmp_path,
            EMERGENCE_CFG + "slope_tol = 0.02\nmin_width_decades = 0.3\n"
            "out = e.csv\n",
        )
        assert run_cli(["emergence", "--config", cfg]) == 0
        rows = (tmp_path / "e.csv").read_bytes().decode().strip().split("\r\n")
        assert rows[0] == "C,N_star,accuracy_lower_bound"
        assert len(rows) == 11
        accs = [float(r.split(",")[2]) for r in rows[1:]]
        assert all(0.0 <= a <= 1.0 for a in accs)
        meta = json.loads((tmp_path / "e.csv.meta.json").read_text())
        report = meta["plateau_report"]
        assert {"segments", "interior_plateaus", "rises"} <= set(report)

    def test_curve_without_tols_has_no_report(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path, EMERGENCE_CFG + "out = e2.csv\n")
        assert run_cli(["emergence", "--config", cfg]) == 0
        meta = json.loads((tmp_path / "e2.csv.meta.json").read_text())
        assert "plateau_report" not in meta

    def test_per_level_table(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(
            tmp_path, EMERGENCE_CFG + "per_level = true\nout = pl.csv\n"
        )
        assert run_cli(["emergence", "--config", cfg]) == 0
        rows = (tmp_path / "pl.csv").read_bytes().decode().strip().split("\r\n")
        assert rows[0] == "C,l,p_rr,p_l,mean_degree,gamma_l"
        assert len(rows) == 1 + 10 * 5

    def test_plateaus_command_segments(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(
            tmp_path,
            EMERGENCE_CFG + "slope_tol = 0.02\nmin_width_decades = 0.3\n"
            "out = seg.csv\n",
        )
        assert run_cli(["plateaus", "--config", cfg]) == 0
        rows = (tmp_path / "seg.csv").read_bytes().decode().strip().split("\r\n")
        assert rows[0] == (
            "start_C,end_C,kind,width_decades,start_accuracy,end_accuracy"
        )
        kinds = {r.split(",")[2] for r in rows[1:]}
        assert kinds <= {"plateau", "rise"}

    def test_task_validation(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "budgets = 6e4, 6e5\nlevels = 5\nskills_per_level = 50\n"
            "task = homogeneous\n",
        )
        assert run_cli(["emergence", "--config", cfg]) == 1
        assert "task_level" in capsys.readouterr().err
        cfg2 = write_config(
            tmp_path,
            "budgets = 6e4, 6e5\nlevels = 5\nskills_per_level = 50\n"
            "task = homogeneous\ntask_level = 9\ntask_m = 1\n",
            name="deep.txt",
        )
        assert run_cli(["emergence", "--config", cfg2]) == 1
        assert "level 9" in capsys.readouterr().err


class TestShippedConfigs:
    CONFIG_COMMANDS = {
        "threshold_rate_half.txt": "threshold",
        "peel_sim_small.txt": "peel-sim",
        "isoflop_desk.txt": "isoflop",
        "frontier_paper_scale.txt": "frontier",
        "loss_frontier_sweep.txt": "loss",
        "emergence_single_level_step.txt": "emergence",
        "emergence_unimodal_scurve.txt": "emergence",
        "emergence_multimodal_plateaus.txt": "plateaus",
    }

    def test_every_shipped_config_parses(self):
        root = os.path.join(os.path.dirname(__file__), "..", "configs")
        names = sorted(os.listdir(root))
        assert names == sorted(self.CONFIG_COMMANDS)
        for name, command in self.CONFIG_COMMANDS.items():
            params = cli.parse_config(os.path.join(root, name), command)
            assert params["out"], name

    def test_plateau_config_also_valid_for_emergence(self):
        root = os.path.join(os.path.dirname(__file__), "..", "configs")
        cli.parse_config(
            os.path.join(root, "emergence_multimodal_plateaus.txt"), "emergence"
        )


class TestShippedOutputDigests:
    """The data file of every analytic shipped config, byte for byte.

    A change that moves a value updates the table and says why in
    CHANGES.md.  The digests were recorded with numpy 2.4 on x86-64; a
    platform whose exp or log1p rounds differently may move last bits.
    (peel-sim is left out: its Monte-Carlo bytes are checked by
    TestDeterminism and the benchmark's reference digests.)
    """

    DIGESTS = {
        ("threshold", "threshold_rate_half.txt"):
            "c54ac067376333eb83a0586db89738585bf110806717babd58444aeb357f3ed8",
        ("isoflop", "isoflop_desk.txt"):
            "62ffe1615d72c58e8b3175db61bdfbd8504094333854dfdccc20b6eb024e28da",
        ("frontier", "frontier_paper_scale.txt"):
            "9023b18235c971fa3bdcb1f4dfbf42a2e8662139b00c90b93f0c8fcef8303d04",
        ("loss", "loss_frontier_sweep.txt"):
            "e9a64e728e167e8af2bb151b88ca0be29582e1139141f58bb0fd5d724fc94c28",
        ("emergence", "emergence_single_level_step.txt"):
            "d68c0028026ea5fdbeca2b41ccc03915d9dd003cf4cf63f294afa5e3a4459d91",
        ("emergence", "emergence_unimodal_scurve.txt"):
            "c1844cfde794f1410f64b6d7d15ad053aab4018440395106054b4d19ea1749eb",
        ("emergence", "emergence_multimodal_plateaus.txt"):
            "fd6a31cdd923725ce0a652138622a7a55f9797bfa02d928f05585b57f5addc63",
        ("plateaus", "emergence_multimodal_plateaus.txt"):
            "d509826d9d14bb7adacb9a41dbe31edfbec57b235e88b33527d28c8c1bf3ea1c",
    }

    UNDERSAMPLED = [
        "R* = 155 below max level size S = 1000: "
        "uniform concept-to-skill mapping is undersampled"
    ]
    # each run's sidecar warnings: the isoflop desk's no-transition rows
    # and every clean solve warn nothing
    WARNINGS = {
        **{key: [] for key in DIGESTS},
        ("emergence", "emergence_multimodal_plateaus.txt"): UNDERSAMPLED,
        ("plateaus", "emergence_multimodal_plateaus.txt"): UNDERSAMPLED,
    }

    def test_data_files_match_recorded_digests(self, tmp_path):
        root = os.path.join(os.path.dirname(__file__), "..", "configs")
        got, warned = {}, {}
        for command, name in self.DIGESTS:
            out = tmp_path / f"{command}-{name}.csv"
            argv = [command, "--config", os.path.join(root, name), "--out", str(out)]
            assert run_cli(argv) == 0, (command, name)
            got[command, name] = hashlib.sha256(out.read_bytes()).hexdigest()
            meta = json.loads((tmp_path / f"{out.name}.meta.json").read_text())
            warned[command, name] = meta["warnings"]
        assert got == self.DIGESTS
        assert warned == self.WARNINGS


class TestDeterminism:
    CFG = (
        "R = 200\nT = 400\nd_t = 4\nmode = parent-erasure\ntrials = 50\n"
        "seed = 3\n"
    )

    def _run(self, tmp_path, out, extra=(), env_threads=None):
        cfg = tmp_path / "det.txt"
        if not cfg.exists():
            cfg.write_text(self.CFG, encoding="utf-8")
        env = dict(os.environ)
        # The child runs in tmp_path, where a relative PYTHONPATH (such as
        # the documented `src`) no longer resolves; put the directory that
        # holds the imported package first so the child runs the same code.
        pkg_root = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [pkg_root, env.get("PYTHONPATH")]))
        env.pop("SCALING_LENS_THREADS", None)
        if env_threads is not None:
            env["SCALING_LENS_THREADS"] = str(env_threads)
        proc = subprocess.run(
            [sys.executable, "-m", "scaling_lens", "peel-sim",
             "--config", str(cfg), "--out", out, *extra],
            cwd=tmp_path, env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        return (tmp_path / out).read_bytes()

    def test_data_bytes_stable_across_threads_and_reruns(self, tmp_path):
        one = self._run(tmp_path, "t1.csv", ["--threads", "1"])
        four = self._run(tmp_path, "t4.csv", ["--threads", "4"])
        rerun = self._run(tmp_path, "t1b.csv", ["--threads", "1"])
        via_env = self._run(tmp_path, "tenv.csv", env_threads=3)
        assert one == four == rerun == via_env

    def test_meta_sidecar_written_by_module_entry(self, tmp_path):
        self._run(tmp_path, "m.csv", ["--threads", "2"])
        meta = json.loads((tmp_path / "m.csv.meta.json").read_text())
        assert meta["command"] == "peel-sim"
        assert meta["rows"] == 50
