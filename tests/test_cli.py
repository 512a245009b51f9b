import configparser
import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from coneflow import acceptance, cli, experiments, flow
from coneflow.analysis import ScenarioReport
from coneflow.errors import CertificationError, NewtonError


def run_cli(args, cwd):
    old = os.getcwd()
    os.chdir(cwd)
    try:
        return cli.dispatch(args)
    finally:
        os.chdir(old)


def test_no_subcommand_is_usage_error(tmp_path, capsys):
    assert run_cli([], tmp_path) == 2


def test_unknown_subcommand_is_usage_error(tmp_path, capsys):
    assert run_cli(["frobnicate"], tmp_path) == 2


def test_unknown_flag_is_usage_error(tmp_path, capsys):
    assert run_cli(["expander", "--bogus"], tmp_path) == 2


def test_help_exits_zero(tmp_path, capsys):
    assert run_cli(["--help"], tmp_path) == 0


def test_print_config_roundtrips(tmp_path, capsys):
    assert run_cli(["--print-config"], tmp_path) == 0
    text = capsys.readouterr().out
    parser = configparser.ConfigParser()
    parser.read_string(text)
    assert parser.getint("expander", "n") == 2
    assert parser.getfloat("evolve", "dt_max") == pytest.approx(0.025)


def test_expander_artifacts(tmp_path, capsys):
    out = tmp_path / "art"
    assert run_cli(["--out", str(out), "expander"], tmp_path) == 0
    csv_path = out / "expander_profile.csv"
    raw = csv_path.read_bytes()
    assert b"\r" not in raw  # LF endings
    header = raw.decode("utf-8").splitlines()[0]
    assert header == "rho [1],phi [height],phi_prime [1],drift [height]"
    report = json.loads((out / "expander_report.json").read_text())
    assert report["a"] == pytest.approx(1.7090957539, abs=1e-8)
    # no temp droppings from the atomic writes
    assert not [p for p in out.iterdir() if p.name.startswith(".tmp-")]


def test_expander_deterministic_rerun(tmp_path, capsys):
    out = tmp_path / "art"
    assert run_cli(["--out", str(out), "expander"], tmp_path) == 0
    first = (out / "expander_profile.csv").read_bytes()
    assert run_cli(["--out", str(out), "expander"], tmp_path) == 0
    assert (out / "expander_profile.csv").read_bytes() == first


def test_evolve_artifacts(tmp_path, capsys):
    # evolve opts in to the flow's per-step diagnostics: every column of the
    # trace is a number, one row per accepted step
    out = tmp_path / "art"
    rc = run_cli(["--out", str(out), "evolve", "--set", "horizon=0.5",
                  "--set", "r_max=20.0", "--set", "nodes=201"], tmp_path)
    assert rc == 0
    with open(out / "flow_trace.csv", newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert [h.split(" ")[0] for h in header] == [
        "t", "dt", "sup_u_minus_k", "sup_u_minus_U", "min_H", "max_H"]
    values = np.array(rows, dtype=float)
    assert values.shape == (len(rows), 6)
    assert np.all(np.isfinite(values))
    report = json.loads((out / "flow_report.json").read_text())
    assert report["steps"] == len(rows) > 1
    assert values[-1, 0] == pytest.approx(report["final_time"])
    assert report["final_sup_u_minus_U"] == values[-1, 3]


def test_config_file_overrides(tmp_path, capsys):
    cfg = tmp_path / "scenario.ini"
    cfg.write_text("[expander]\nbeta = 2.0\n")
    out = tmp_path / "art"
    rc = run_cli(["--config", str(cfg), "--out", str(out), "expander"],
                 tmp_path)
    assert rc == 0
    report = json.loads((out / "expander_report.json").read_text())
    assert report["beta"] == 2.0


def test_config_unknown_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[expander]\nbogus = 1\n")
    assert run_cli(["--config", str(cfg), "expander"], tmp_path) == 2
    # the INI keys go through the same check as --set pairs
    assert "unknown key 'bogus' for [expander] (known: beta, n)" in capsys.readouterr().err


@pytest.mark.parametrize("word, quick", [("on", True), ("no", False), ("1", True)])
def test_config_booleans_are_read_like_configparser(tmp_path, capsys, word, quick):
    cfg = tmp_path / "quick.ini"
    cfg.write_text(f"[run]\nquick = {word}\n")
    assert run_cli(["--config", str(cfg), "--print-config"], tmp_path) == 0
    assert f"quick = {quick}\n" in capsys.readouterr().out


def test_config_non_boolean_word_rejected(tmp_path, capsys):
    cfg = tmp_path / "quick.ini"
    cfg.write_text("[run]\nquick = maybe\n")
    assert run_cli(["--config", str(cfg), "--print-config"], tmp_path) == 2
    assert "quick: expected a boolean, got 'maybe'" in capsys.readouterr().err


def test_threads_flag_and_key_rejected(tmp_path, capsys):
    assert run_cli(["--threads", "2", "expander"], tmp_path) == 2
    cfg = tmp_path / "threads.ini"
    cfg.write_text("[run]\nthreads = 2\n")
    assert run_cli(["--config", str(cfg), "expander"], tmp_path) == 2


@pytest.mark.parametrize("subcommand", ["expander", "evolve", "barrier"])
def test_quick_rejected_where_it_does_nothing(tmp_path, capsys, subcommand):
    out = tmp_path / "art"
    assert run_cli(["--quick", "--out", str(out), subcommand], tmp_path) == 2
    assert capsys.readouterr().err.endswith(
        f"no effect on {subcommand!r}; it applies to verify, experiment, suite\n")
    cfg = tmp_path / "quick.ini"
    cfg.write_text("[run]\nquick = true\n")
    assert run_cli(["--config", str(cfg), "--out", str(out), subcommand],
                   tmp_path) == 2
    assert not out.exists()  # rejected before any artifact


def test_verify_area_trials(tmp_path, capsys):
    out = tmp_path / "art"
    rc = run_cli(["--out", str(out), "verify", "--set", "which=area",
                  "--set", "trials=50"], tmp_path)
    assert rc == 0
    report = json.loads((out / "verify_report.json").read_text())
    assert report["area_bound"]["detail"].startswith("50/50 bound checks pass")
    # quick mode caps the count at 25
    assert run_cli(["--quick", "--out", str(out), "verify", "--set", "which=area",
                    "--set", "trials=50"], tmp_path) == 0
    report = json.loads((out / "verify_report.json").read_text())
    assert report["area_bound"]["detail"].startswith("25/25 bound checks pass")
    assert run_cli(["--out", str(out), "verify", "--set", "which=area",
                    "--set", "trials=0"], tmp_path) == 2


@pytest.mark.parametrize("which", ["psi", "evolution", "area", "all"])
def test_verify_rejects_trials_below_one_for_every_check(tmp_path, capsys,
                                                         monkeypatch, which):
    # trials is checked before any verification runs, not only by the area
    # check, and no report is written
    def no_check(*args, **kwargs):
        raise AssertionError("a verification ran")
    for name in ("psi_identity", "evolution_equations", "area_bv_bound"):
        monkeypatch.setattr(acceptance, name, no_check)
    out = tmp_path / "art"
    assert run_cli(["--out", str(out), "verify", "--set", f"which={which}",
                    "--set", "trials=-3"], tmp_path) == 2
    assert "trials" in capsys.readouterr().err
    assert not (out / "verify_report.json").exists()


def test_config_unknown_section_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[nonsense]\nx = 1\n")
    assert run_cli(["--config", str(cfg), "expander"], tmp_path) == 2


def test_missing_config_rejected(tmp_path, capsys):
    assert run_cli(["--config", str(tmp_path / "absent.ini"), "expander"],
                   tmp_path) == 2


def test_set_overrides_and_validation(tmp_path, capsys):
    out = tmp_path / "art"
    rc = run_cli(["--out", str(out), "expander", "--set", "beta=0.5"],
                 tmp_path)
    assert rc == 0
    report = json.loads((out / "expander_report.json").read_text())
    assert report["beta"] == 0.5
    assert run_cli(["expander", "--set", "beta"], tmp_path) == 2
    assert run_cli(["expander", "--set", "bogus=1"], tmp_path) == 2
    assert run_cli(["expander", "--set", "n=two"], tmp_path) == 2


def test_env_var_output_dir(tmp_path, capsys, monkeypatch):
    env_out = tmp_path / "from-env"
    monkeypatch.setenv(cli.ENV_OUT, str(env_out))
    assert run_cli(["expander"], tmp_path) == 0
    assert (env_out / "expander_profile.csv").exists()
    # explicit --out wins over the environment
    flag_out = tmp_path / "from-flag"
    assert run_cli(["--out", str(flag_out), "expander"], tmp_path) == 0
    assert (flag_out / "expander_profile.csv").exists()


def test_verdict_failure_exit_code(tmp_path, capsys):
    # half a unit of time is too short for the family to settle
    out = tmp_path / "art"
    rc = run_cli(["--quick", "--out", str(out), "experiment",
                  "--name", "family-uniform", "--set", "horizon=0.5"],
                 tmp_path)
    assert rc == 1
    report = json.loads((out / "experiment_family-uniform.json").read_text())
    assert report["passed"] is False


def test_experiment_unknown_scenario(tmp_path, capsys):
    assert run_cli(["experiment", "--name", "nope"], tmp_path) == 2


def test_experiment_unknown_override(tmp_path, capsys):
    assert run_cli(["--quick", "experiment", "--name", "family-uniform",
                    "--set", "bogus=1"], tmp_path) == 2


def test_experiment_settings_precedence(tmp_path, capsys, monkeypatch):
    # --set wins over --seed, which wins over the quick settings; a runner
    # without a seed parameter gets none
    calls = []

    def family(horizon: float = 50.0, nodes: int = 1001, seed: int = 0):
        calls.append({"horizon": horizon, "nodes": nodes, "seed": seed})
        return ScenarioReport(True, {}, None)

    def theorem(horizon: float = 50.0, nodes: int = 1001):
        calls.append({"horizon": horizon, "nodes": nodes})
        return ScenarioReport(True, {}, None)

    monkeypatch.setattr(experiments, "run_family_uniform", family)
    monkeypatch.setattr(experiments, "run_main_theorem", theorem)
    fam = ["--quick", "experiment", "--name", "family-uniform"]
    assert run_cli(["--seed", "5", *fam], tmp_path) == 0
    assert run_cli(["--seed", "5", *fam, "--set", "seed=9",
                    "--set", "nodes=33"], tmp_path) == 0
    assert run_cli(["--seed", "5", "experiment", "--name", "main-theorem",
                    "--set", "nodes=33"], tmp_path) == 0
    assert calls == [{"horizon": 8.0, "nodes": 401, "seed": 5},
                     {"horizon": 8.0, "nodes": 33, "seed": 9},
                     {"horizon": 50.0, "nodes": 33}]


@pytest.mark.parametrize("pair", ["fit_window=1,12", "profile=1.0",
                                  "mode=midway"])
def test_experiment_untypeable_override_rejected(tmp_path, capsys,
                                                 monkeypatch, pair):
    # the runner takes no fit window, no profile and no mode: usage error
    # before any flow runs
    calls = []
    monkeypatch.setattr(experiments, "evolve",
                        lambda *args, **kw: calls.append(args))
    assert run_cli(["--quick", "experiment", "--name", "main-theorem",
                    "--set", pair], tmp_path) == 2
    assert calls == []
    assert f"unknown key {pair.split('=')[0]!r}" in capsys.readouterr().err


@pytest.mark.parametrize("pair", ["horizon=nan", "dt_max=nan",
                                  "snapshot_dt=nan", "bump_radius=0", "horizon=1e-13",
                                  "nodes=-5"])
def test_evolve_rejects_nan_and_nonpositive_inputs(tmp_path, capsys, pair):
    # NaN slips through an `x <= 0` guard, a horizon inside the 1e-12
    # landing tolerance takes no step, and a negative node count reached
    # np.linspace; each value is a usage error raised before any artifact is
    # written
    out = tmp_path / "art"
    assert run_cli(["--out", str(out), "evolve", "--set", pair], tmp_path) == 2
    assert "usage error" in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["evolve", "--set", "horizon=inf"],
    ["--quick", "experiment", "--name", "main-theorem", "--set", "horizon=inf"],
    ["--quick", "experiment", "--name", "main-theorem", "--set", "snapshot_dt=inf"],
    ["--quick", "experiment", "--name", "main-theorem", "--set", "dt_max=inf"],
    ["evolve", "--set", "horizon=1", "--set", "dt_max=1e-300"],
    ["evolve", "--set", "horizon=1", "--set", "dt_max=1e-12"],
    ["--quick", "experiment", "--name", "main-theorem", "--set", "dt_max=1e-300"],
], ids=["evolve", "main-theorem", "main-theorem-snapshot-dt", "main-theorem-dt-max",
        "evolve-dt-max-1e-300", "evolve-dt-max-1e-12", "main-theorem-dt-max-1e-300"])
def test_infinite_horizon_is_usage_error_without_a_step(tmp_path, capsys,
                                                        monkeypatch, argv):
    # an infinite horizon never ends, an infinite step or snapshot interval
    # would check the run at its end points only, and a step so small that
    # the horizon takes more than 1,000,000 of them does not end in practice;
    # each is rejected before the first step
    def no_step(*args, **kwargs):
        raise AssertionError("the flow took a step")
    monkeypatch.setattr(flow, "step", no_step)
    out = tmp_path / "art"
    assert run_cli(["--out", str(out), *argv], tmp_path) == 2
    assert "usage error" in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["evolve", "--set", "snapshot_dt=1e-9"],
    ["evolve", "--set", "horizon=1e308"],
    ["--quick", "experiment", "--name", "family-uniform", "--set", "snapshot_dt=1e-12"],
], ids=["evolve-snapshot-dt", "evolve-horizon", "family-uniform-snapshot-dt"])
def test_snapshot_cadence_too_fine_for_the_horizon_is_usage_error(tmp_path, capsys,
                                                                  monkeypatch, argv):
    # the snapshot buffer is sized from horizon / snapshot_dt: 1e10 rows
    # (74.5 GiB), an overflow to infinity, and 8e12 rows (58.2 TiB) are
    # rejected before it is allocated and before the first step
    def no_step(*args, **kwargs):
        raise AssertionError("the flow took a step")
    monkeypatch.setattr(flow, "step", no_step)
    out = tmp_path / "art"
    assert run_cli(["--out", str(out), *argv], tmp_path) == 2
    assert "snapshots, more than the 100000 a run holds" in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["barrier", "--set", "m=nan"],
    ["barrier", "--set", "delta=nan"],
    ["barrier", "--set", "barrier_radius=nan"],
    ["barrier", "--set", "alpha=nan"],
    ["--quick", "experiment", "--name", "subsolution", "--set", "delta=nan"],
    ["barrier", "--set", "which=subsolution", "--set", "delta=inf"],
    ["barrier", "--set", "which=static", "--set", "alpha=inf"],
    ["--quick", "experiment", "--name", "subsolution", "--set", "delta=inf"],
    ["--quick", "experiment", "--name", "subsolution", "--set", "lam=inf"],
], ids=["barrier-m", "barrier-delta", "barrier-radius", "barrier-alpha",
        "subsolution-delta", "barrier-delta-inf", "barrier-alpha-inf",
        "subsolution-delta-inf", "subsolution-lam-inf"])
def test_nan_barrier_inputs_are_usage_errors_without_artifacts(tmp_path, capsys,
                                                               argv):
    # every barrier result is validated before the first artifact is written
    out = tmp_path / "art"
    assert run_cli(["--out", str(out), *argv], tmp_path) == 2
    assert "usage error" in capsys.readouterr().err
    assert list(out.iterdir()) == []


# the main theorem's threshold is a setting (quick mode sets 0.25); the
# family's threshold and the dominance slack are constants, unknown keys
_THRESHOLD_GUARD = "threshold must be positive and finite"


@pytest.mark.parametrize("argv, message", [
    (["--name", "main-theorem", "--set", "threshold=nan"], _THRESHOLD_GUARD),
    (["--name", "family-uniform", "--set", "threshold=nan"], "unknown key 'threshold'"),
    (["--name", "subsolution", "--set", "slack=nan"], "unknown key 'slack'"),
], ids=["main-theorem-threshold", "family-threshold", "subsolution-slack"])
def test_nan_scenario_tolerances_are_usage_errors_without_artifacts(
        tmp_path, capsys, monkeypatch, argv, message):
    # a NaN tolerance is rejected before any flow runs
    _assert_rejected_before_a_flow(tmp_path, capsys, monkeypatch, argv, message)


@pytest.mark.parametrize("argv, message", [
    (["--name", "main-theorem", "--set", "threshold=inf"], _THRESHOLD_GUARD),
    (["--name", "family-uniform", "--set", "threshold=inf"], "unknown key 'threshold'"),
    (["--name", "subsolution", "--set", "slack=inf"], "unknown key 'slack'"),
], ids=["main-theorem-threshold", "family-threshold", "subsolution-slack"])
def test_infinite_scenario_tolerances_are_usage_errors_without_artifacts(
        tmp_path, capsys, monkeypatch, argv, message):
    # an infinite threshold is met at the first snapshot, and an infinite
    # slack forgives any margin: both would pass vacuously
    _assert_rejected_before_a_flow(tmp_path, capsys, monkeypatch, argv, message)


@pytest.mark.parametrize("argv", [
    ["--name", "family-uniform", "--set", "threshold=1e300"],
    ["--name", "family-uniform", "--set", "tol=1e300"],
    ["--name", "family-uniform", "--set", "c_scheme=1e300"],
    ["--name", "subsolution", "--set", "slack=1e300"],
], ids=["family-threshold", "family-tol", "family-c-scheme", "subsolution-slack"])
def test_verdict_bounds_are_not_settings(tmp_path, capsys, monkeypatch, argv):
    # a huge finite bound would pass any run: the bounds are constants, and
    # their old keys are unknown
    key = argv[-1].split("=")[0]
    _assert_rejected_before_a_flow(tmp_path, capsys, monkeypatch, argv,
                                   f"unknown key {key!r}")


@pytest.mark.parametrize("pair, name", [("beta=0", "beta"), ("beta=-1", "beta"),
                                        ("delta=-0.1", "delta"), ("delta=nan", "delta"),
                                        ("delta=inf", "delta")])
def test_main_theorem_rejects_flat_cones_and_bad_deltas_before_a_solve(
        tmp_path, capsys, monkeypatch, pair, name):
    # a cone that is not strictly mean convex has no expander to settle on
    # (beta = 0 divided by its axis height a = 0), and a delta <= 0 was
    # reported as a violated initial ordering; both are rejected before the
    # expander is solved
    def no_solve(*args, **kwargs):
        raise AssertionError("the scenario solved an expander or ran a flow")
    monkeypatch.setattr(experiments, "solve_expander_profile", no_solve)
    monkeypatch.setattr(experiments, "evolve", no_solve)
    out = tmp_path / "art"
    assert run_cli(["--out", str(out), "--quick", "experiment", "--name",
                    "main-theorem", "--set", pair], tmp_path) == 2
    err = capsys.readouterr().err
    assert "usage error" in err and name in err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("pair", ["beta=0", "beta=-1", "n=1"])
def test_family_uniform_rejects_cones_that_are_not_mean_convex(
        tmp_path, capsys, monkeypatch, pair):
    # the family converges onto the expander of a strictly mean convex cone
    # only: beta = 0 passed and n = 1 failed its verdict, where main-theorem
    # refuses both, with the same message, before an expander is solved
    _assert_rejected_before_a_flow(tmp_path, capsys, monkeypatch,
                                   ["--name", "family-uniform", "--set", pair],
                                   "must be strictly mean convex")


def _assert_rejected_before_a_flow(tmp_path, capsys, monkeypatch, argv, message):
    calls = _count_solves_and_flows(monkeypatch)
    out = tmp_path / "art"
    assert run_cli(["--out", str(out), "--quick", "experiment", *argv],
                   tmp_path) == 2
    err = capsys.readouterr().err
    assert "usage error" in err and message in err
    assert list(out.iterdir()) == []
    assert calls == []


def _count_solves_and_flows(monkeypatch) -> list:
    """The names of the experiments' profile solves and flows, in call order."""
    calls = []
    for name in ("evolve", "solve_expander_profile"):
        real = getattr(experiments, name)
        monkeypatch.setattr(experiments, name, lambda *args, _real=real, _name=name,
                            **kwargs: calls.append(_name) or _real(*args, **kwargs))
    return calls


@pytest.mark.parametrize("pair", ["tol=inf", "c_scheme=inf", "tol=-1"])
def test_infinite_comparison_allowances_are_usage_errors_without_artifacts(
        tmp_path, capsys, monkeypatch, pair):
    # the comparison allowance is a constant: no value of its old keys, an
    # infinite one that would pass every sandwich or a negative one that
    # would fail them all, reaches the expander solve or the flows
    _assert_rejected_before_a_flow(
        tmp_path, capsys, monkeypatch, ["--name", "family-uniform", "--set", pair],
        f"unknown key {pair.split('=')[0]!r}")


@pytest.mark.parametrize("argv", [
    ["--seed", "-1", "--quick", "experiment", "--name", "family-uniform"],
    ["--quick", "experiment", "--name", "family-uniform", "--set", "seed=-2"],
], ids=["flag", "set"])
def test_negative_family_seed_is_usage_error_before_a_solve(tmp_path, capsys,
                                                            monkeypatch, argv):
    # np.random.default_rng raised ValueError on a negative seed after the
    # profile solve; only the family reads the seed
    calls = _count_solves_and_flows(monkeypatch)
    out = tmp_path / "art"
    assert run_cli(["--out", str(out), *argv], tmp_path) == 2
    assert "seed must be non-negative" in capsys.readouterr().err
    assert list(out.iterdir()) == []
    assert calls == []
    assert run_cli(["--seed", "-1", "--out", str(out), "expander"], tmp_path) == 0


@pytest.mark.parametrize("argv", [
    ["--quick", "experiment", "--name", "main-theorem", "--set", "nodes=-3"],
    ["--quick", "experiment", "--name", "subsolution", "--set", "nodes=-1"],
], ids=["main-theorem", "subsolution"])
def test_negative_node_count_is_usage_error(tmp_path, capsys, argv):
    # np.linspace raised ValueError on a negative count
    out = tmp_path / "art"
    assert run_cli(["--out", str(out), *argv], tmp_path) == 2
    count = argv[-1].split("=")[1]
    assert f"need at least 8 radial nodes, got {count}" in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["expander", "--set", "beta=1e200"],
    ["evolve", "--set", "beta=1e200"],
    ["--quick", "experiment", "--name", "main-theorem", "--set", "beta=1e200"],
    ["barrier", "--set", "beta=1e200"],
    ["barrier", "--set", "which=static", "--set", "beta=-1e200"],
], ids=["expander", "evolve", "main-theorem", "barrier", "barrier-static-negative"])
def test_cone_slope_with_overflowing_square_is_usage_error(tmp_path, capsys, argv):
    # 1 + beta^2 overflowed to an OverflowError in the cone's curvature and
    # in the expander's tail
    out = tmp_path / "art"
    assert run_cli(["--out", str(out), *argv], tmp_path) == 2
    assert "radial cone slope must be finite" in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("pair", ["boundary=pin-to-cone", "nodes=-5",
                                  "snapshot_dt=1e-9", "dt_max=1e-300", "horizon=nan"])
def test_evolve_settings_are_checked_before_the_profile_solve(tmp_path, capsys,
                                                              monkeypatch, pair):
    # the grid, the data, the solver settings and the run's horizon, cadence
    # and step bounds are checked first, so a bad one costs no expander solve
    solves = []
    real = cli.solve_expander_profile
    monkeypatch.setattr(cli, "solve_expander_profile",
                        lambda *args, **kw: solves.append(args) or real(*args, **kw))
    out = tmp_path / "art"
    assert run_cli(["--out", str(out), "evolve", "--set", pair], tmp_path) == 2
    assert "usage error" in capsys.readouterr().err
    assert list(out.iterdir()) == []
    assert solves == []


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("argv", [
    ["evolve", "--set", "bump_amp=1e300"],
    ["--quick", "experiment", "--name", "main-theorem", "--set", "amplitude=1e300"],
], ids=["evolve", "main-theorem"])
def test_data_slope_with_overflowing_square_is_usage_error(tmp_path, capsys,
                                                          monkeypatch, argv):
    # the squared slope overflowed in the speed and the Newton matrix: numpy
    # warned, and the run halved dt down to its floor before it failed
    def no_step(*args, **kwargs):
        raise AssertionError("the flow took a step")
    monkeypatch.setattr(flow, "step", no_step)
    out = tmp_path / "art"
    assert run_cli(["--out", str(out), *argv], tmp_path) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "usage error: the initial data's slope squared is not finite" in err
    assert list(out.iterdir()) == []


def test_stalled_shot_reports_its_istate_once(tmp_path):
    # the step bound's ShootingError states LSODA's istate; scipy's warning
    # of the same istate stays inside the shot
    root = Path(__file__).resolve().parents[1]
    path = [str(root / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    proc = subprocess.run(
        [sys.executable, "-m", "coneflow.cli", "--out", str(tmp_path / "art"),
         "expander", "--set", "n=30"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 3
    assert proc.stderr.count("\n") == 1
    assert proc.stderr.startswith("coneflow: numerical failure: ")
    assert "LSODA istate -1 (Excess work done" in proc.stderr


def test_numerical_failure_maps_to_exit_3(tmp_path, capsys, monkeypatch):
    def boom(cfg, out):
        raise NewtonError("synthetic divergence")
    monkeypatch.setattr(cli, "_cmd_expander", boom)
    assert run_cli(["expander"], tmp_path) == 3


def test_failed_profile_names_its_cone_and_bound(tmp_path, capsys):
    # at n = 12 the profile stays 1.6e-4 off the refined tail on [20, 40],
    # over its 1e-4 bound: a real failure, reported by the cone and the
    # bound it missed, not by a setting nobody can change
    assert run_cli(["--out", str(tmp_path / "art"), "expander", "--set", "n=12"],
                   tmp_path) == 3
    err = capsys.readouterr().err
    assert "far-field gap 1.60e-04 exceeds 1.0e-04 on [20, 40] (n=12, beta=1.0)" in err
    for knob in ("rho_max", "node_spacing", "ode_rtol", "ode_tol", "asym_tol",
                 "slope_cap", "increase", "reduce", "tighten"):
        assert knob not in err


def test_certification_failure_maps_to_exit_1(tmp_path, capsys, monkeypatch):
    def boom(cfg, out):
        raise CertificationError("synthetic refusal")
    monkeypatch.setattr(cli, "_cmd_expander", boom)
    assert run_cli(["expander"], tmp_path) == 1


def test_quick_experiment_runs(tmp_path, capsys):
    out = tmp_path / "art"
    rc = run_cli(["--quick", "--out", str(out), "experiment",
                  "--name", "family-uniform"], tmp_path)
    assert rc == 0
    trace = (out / "experiment_family-uniform_trace.csv").read_text()
    header = trace.splitlines()[0]
    assert header.split(",")[0] == "t [time]"


def _key_tree(obj):
    """The nested keys of a JSON object: each key maps to its value's tree,
    and a value that is not an object to None."""
    return ({key: _key_tree(value) for key, value in obj.items()}
            if isinstance(obj, dict) else None)


_SIDE = dict.fromkeys(["t_flat", "t_delta", "upper_ok", "lower_ok"])


@pytest.mark.parametrize("name,keys,header", [
    ("main-theorem", {"threshold": None, "sides": {"1": _SIDE, "-1": _SIDE}},
     "t [time],sup_above [height],sup_below [height]"),
    ("family-uniform", dict.fromkeys(["t_uniform", "sandwich_ok", "bound_ok"]),
     "t [time],family_sup [height],rail_sup [height]"),
    ("subsolution", dict.fromkeys(["dominance_margin", "t_delta"]), None),
])
def test_experiment_artifacts(tmp_path, capsys, name, keys, header):
    # each scenario's JSON carries its key tree and, where it has a trace,
    # a CSV whose header names the columns and units
    out = tmp_path / "art"
    assert run_cli(["--quick", "--out", str(out), "experiment", "--name", name],
                   tmp_path) == 0
    report = json.loads((out / f"experiment_{name}.json").read_text())
    assert _key_tree(report) == {"scenario": None, "passed": None,
                                 "claim": None, **keys}
    assert report["scenario"] == name and report["passed"] is True
    trace = out / f"experiment_{name}_trace.csv"
    if header is None:
        assert sorted(p.name for p in out.iterdir()) == [f"experiment_{name}.json"]
    else:
        lines = trace.read_text().splitlines()
        assert lines[0] == header
        assert len(lines) > 2


def test_csv_booleans_and_floats(tmp_path):
    path = tmp_path / "x.csv"
    cli.write_csv(str(path), [("flag", "0/1"), ("value", "m")],
                  [(True, 0.5), (False, 1.25)])
    lines = path.read_text().splitlines()
    assert lines[1] == "1,0.5"
    assert lines[2] == "0,1.25"
