import configparser
import json
import os

import pytest

from coneflow import cli
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


def test_threads_flag_and_key_rejected(tmp_path, capsys):
    assert run_cli(["--threads", "2", "expander"], tmp_path) == 2
    cfg = tmp_path / "threads.ini"
    cfg.write_text("[run]\nthreads = 2\n")
    assert run_cli(["--config", str(cfg), "expander"], tmp_path) == 2


@pytest.mark.parametrize("subcommand", ["expander", "evolve", "barrier"])
def test_quick_rejected_where_it_does_nothing(tmp_path, capsys, subcommand):
    out = tmp_path / "art"
    assert run_cli(["--quick", "--out", str(out), subcommand], tmp_path) == 2
    assert "no effect on" in capsys.readouterr().err
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
    assert run_cli(["--out", str(out), "verify", "--set", "which=area",
                    "--set", "trials=0"], tmp_path) == 2


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
    out = tmp_path / "art"
    rc = run_cli(["--quick", "--out", str(out), "experiment",
                  "--name", "family-uniform", "--set", "threshold=1e-9"],
                 tmp_path)
    assert rc == 1
    report = json.loads((out / "experiment_family-uniform.json").read_text())
    assert report["passed"] is False


def test_experiment_unknown_scenario(tmp_path, capsys):
    assert run_cli(["experiment", "--name", "nope"], tmp_path) == 2


def test_experiment_unknown_override(tmp_path, capsys):
    assert run_cli(["--quick", "experiment", "--name", "family-uniform",
                    "--set", "bogus=1"], tmp_path) == 2


def test_numerical_failure_maps_to_exit_3(tmp_path, capsys, monkeypatch):
    def boom(cfg, out):
        raise NewtonError("synthetic divergence")
    monkeypatch.setattr(cli, "_cmd_expander", boom)
    assert run_cli(["expander"], tmp_path) == 3


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


def test_csv_booleans_and_floats(tmp_path):
    path = tmp_path / "x.csv"
    cli.write_csv(str(path), [("flag", "0/1"), ("value", "m")],
                  [(True, 0.5), (False, 1.25)])
    lines = path.read_text().splitlines()
    assert lines[1] == "1,0.5"
    assert lines[2] == "0,1.25"
