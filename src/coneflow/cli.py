"""Command line front end: config parsing, dispatch, CSV/JSON artifacts.

Exit codes: 0 success, 1 a property verdict failed, 2 usage error, 3
numerical breakdown (shooting, Newton, or step-size failure).  Artifacts are
written atomically (temp file in the target directory, then rename), CSVs are
comma-separated UTF-8 with LF endings and a header row naming columns and
units.  Re-running with the same config and seed reproduces the artifacts
byte for byte, except for wall-clock timings: the ``seconds`` field of
``acceptance.csv`` and ``acceptance.json``, and the solve time that
criterion 1 reports in its ``detail`` (its 60 s cap is part of the verdict).
"""

from __future__ import annotations

import argparse
import configparser
import inspect
import json
import logging
import os
import sys
import tempfile

import numpy as np

from . import acceptance
from .analysis import bump
from .barriers import (Subsolution, lemma_barrier_flow, static_barrier_w,
                       wk_difference_fit)
from .cones import ConeProfile
from .errors import (CertificationError, DomainError, GridError, NewtonError,
                     ParameterError, ShootingError, StepFailureError)
from .expander import evaluate_U, solve_expander_profile
from .experiments import SCENARIOS
from .flow import SolverConfig, _check_run, evolve
from .geometry import GridFunction, GridSpec, mean_curvature

log = logging.getLogger("coneflow")

ENV_OUT = "CONEFLOW_OUT"

# defaults double as the config schema: keys and value types are checked
DEFAULTS = {
    "run": {"seed": 0, "quick": False},
    "expander": {"n": 2, "beta": 1.0},
    "evolve": {"n": 2, "beta": 1.0, "bump_amp": 1.0, "bump_radius": 5.0,
               "r_max": 75.0, "nodes": 1501, "horizon": 10.0,
               "dt_max": 0.025, "snapshot_dt": 0.5,
               "boundary": "pin-to-expander"},
    "barrier": {"which": "all", "n": 3, "beta": 1.0, "alpha": 0.5,
                "m": 0.2, "delta": 0.1, "barrier_radius": 5.0},
    "verify": {"which": "all", "trials": 100},
    "experiment": {"name": "main-theorem"},
    "suite": {},
}


# ---------------------------------------------------------------------------
# artifact plumbing


def _atomic_write(path: str, text: str) -> None:
    d = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path: str, columns, rows) -> None:
    """columns: (name, unit) pairs; rows: iterable of value tuples."""
    lines = [",".join(f"{name} [{unit}]" for name, unit in columns)]
    for row in rows:
        lines.append(",".join(_csv_cell(v) for v in row))
    _atomic_write(path, "\n".join(lines) + "\n")


def _csv_cell(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def write_json(path: str, obj) -> None:
    _atomic_write(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# configuration


def _coerce(key: str, default, raw: str):
    try:
        if isinstance(default, bool):
            return configparser.ConfigParser.BOOLEAN_STATES[raw.strip().lower()]
        if isinstance(default, int):
            return int(raw)
        if isinstance(default, float):
            return float(raw)
    except (KeyError, ValueError):
        kind = "a boolean" if isinstance(default, bool) else type(default).__name__
        raise ParameterError(f"{key}: expected {kind}, got {raw!r}") from None
    return raw


def load_config(path: str | None) -> dict:
    """Merge an INI file over the defaults; its keys go through
    ``_apply_sets`` like ``--set`` pairs, so unknown keys are usage errors."""
    cfg = {s: dict(v) for s, v in DEFAULTS.items()}
    if path is None:
        return cfg
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    read = parser.read(path)
    if not read:
        raise ParameterError(f"config file not found: {path}")
    for section in parser.sections():
        if section not in cfg:
            raise ParameterError(f"unknown config section [{section}]")
        _apply_sets(cfg[section], [f"{key}={raw}" for key, raw
                                   in parser[section].items()], f"[{section}]")
    return cfg


def print_config(cfg: dict) -> None:
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_dict(cfg)
    parser.write(sys.stdout)


def _apply_sets(section: dict, pairs, label: str) -> dict:
    """Coerce key=value pairs to the types of ``section``'s values, write
    them into it and return the pairs applied."""
    applied = {}
    for pair in pairs or ():
        if "=" not in pair:
            raise ParameterError(f"--set wants key=value, got {pair!r}")
        key, raw = pair.split("=", 1)
        key = key.strip()
        if key not in section:
            raise ParameterError(f"unknown key {key!r} for {label} "
                                 f"(known: {', '.join(sorted(section))})")
        applied[key] = section[key] = _coerce(key, section[key], raw)
    return applied


def _resolve_out(arg_out: str | None) -> str:
    out = arg_out or os.environ.get(ENV_OUT) or "results"
    os.makedirs(out, exist_ok=True)
    if not os.access(out, os.W_OK):
        raise ParameterError(f"output directory not writable: {out}")
    return out


# ---------------------------------------------------------------------------
# subcommand handlers (return the process exit code)


def _cmd_expander(cfg: dict, out: str) -> int:
    sec = cfg["expander"]
    k = ConeProfile.radial(sec["n"], sec["beta"])
    prof = solve_expander_profile(k)
    drift = 0.5 * (prof.phi - prof.rho * prof.phi_prime)
    write_csv(os.path.join(out, "expander_profile.csv"),
              [("rho", "1"), ("phi", "height"), ("phi_prime", "1"),
               ("drift", "height")],
              zip(prof.rho, prof.phi, prof.phi_prime, drift))
    report = {"n": prof.n, "beta": prof.beta, "a": prof.a,
              "nodes": int(prof.rho.size), "rho_max": prof.rho_max}
    report.update(prof.report)
    write_json(os.path.join(out, "expander_report.json"), report)
    log.info("expander profile: a = %.10f on %d nodes", prof.a, prof.rho.size)
    return 0


def _cmd_evolve(cfg: dict, out: str) -> int:
    sec = cfg["evolve"]
    k = ConeProfile.radial(sec["n"], sec["beta"])
    spec = GridSpec.uniform(sec["n"], 0.0, sec["r_max"], sec["nodes"])
    r = spec.nodes
    u0 = GridFunction(spec, k.beta * r
                      + sec["bump_amp"] * bump(r, 1.0, sec["bump_radius"]))
    solver = SolverConfig(dt_init=1e-3, dt_max=sec["dt_max"],
                          snapshot_dt=sec["snapshot_dt"],
                          boundary=sec["boundary"])
    # the grid, data, solver settings and run bounds are checked before the
    # profile solve
    _check_run(sec["horizon"], solver, 0.0)
    prof = solve_expander_profile(k)
    cone_vals = k.on_grid(spec).values
    diagnostics = []

    def diagnose(t, u):
        # sup|u - k|, sup|u - U|, min H and max H of each accepted step
        H = mean_curvature(u).values
        diagnostics.append((float(np.max(np.abs(u.values - cone_vals))),
                            float(np.max(np.abs(u.values - evaluate_U(prof, r, t)))),
                            float(np.min(H)), float(np.max(H))))

    run = evolve(u0, sec["horizon"], solver, profile=prof, on_step=diagnose)
    write_csv(os.path.join(out, "flow_trace.csv"),
              [("t", "time"), ("dt", "time"), ("sup_u_minus_k", "height"),
               ("sup_u_minus_U", "height"), ("min_H", "1/length"),
               ("max_H", "1/length")],
              ((t, dt, *d) for t, dt, d in zip(run.step_times, run.step_sizes, diagnostics)))
    t_end = float(run.times[-1])
    write_csv(os.path.join(out, "flow_final.csv"),
              [("r", "length"), ("u", "height"), ("U", "height")],
              zip(r, run.values[-1],
                  evaluate_U(prof, r, max(t_end, 1e-12))))
    write_json(os.path.join(out, "flow_report.json"),
               {"steps": len(run.step_times),
                "snapshots": len(run.times),
                "newton_iterations": int(np.sum(run.newton_iters)),
                "final_sup_u_minus_U": diagnostics[-1][1],
                "final_time": t_end})
    return 0


def _cmd_barrier(cfg: dict, out: str) -> int:
    sec = cfg["barrier"]
    which = sec["which"]
    if which not in ("static", "lemma", "subsolution", "all"):
        raise ParameterError(f"unknown barrier kind {which!r}")
    k = ConeProfile.radial(sec["n"], sec["beta"])
    report: dict = {"n": sec["n"], "beta": sec["beta"]}
    verdicts = []
    # every result is computed, and so validated, before the first write
    tables = []

    if which in ("static", "all"):
        sb = static_barrier_w(k, sec["alpha"])
        fit = wk_difference_fit(k, sec["alpha"])
        tables.append(("static_barrier.csv",
                       [("r", "length"), ("w", "height"), ("H", "1/length")],
                       zip(sb.r, sb.w, sb.H)))
        certified = sb.r0 is not None
        report["static"] = {"alpha": sec["alpha"], "r0": sb.r0,
                            "certified": certified,
                            "gap_exponent": fit["exponent"],
                            "predicted_exponent": fit["predicted_exponent"]}
        verdicts.append(certified)
    if which in ("lemma", "subsolution", "all"):
        lemma_res = lemma_barrier_flow(k)
        tables.append(("lemma_barrier.csv",
                       [("r", "length"), ("b", "height"), ("k_minus_b", "height")],
                       zip(lemma_res.r, lemma_res.b, k.beta * lemma_res.r - lemma_res.b)))
        report["lemma"] = {"min_gap": lemma_res.min_gap,
                           "H_min": lemma_res.H_min,
                           "r_cut": lemma_res.r_cut,
                           "deficit_exponent": lemma_res.deficit_exponent,
                           "m1": lemma_res.m1, "R1": lemma_res.certified[0],
                           "passed": lemma_res.passed}
        if which != "subsolution":
            verdicts.append(bool(lemma_res.passed))
    if which in ("subsolution", "all"):
        sub = Subsolution(solve_expander_profile(k), lemma_res, 1.0, sec["m"],
                          sec["delta"], sec["barrier_radius"])
        spec = GridSpec.uniform(sec["n"], 0.0, 0.8 * sub.domain[1], 1001)
        res = sub.residual_report(spec, np.linspace(0.05, 1.0, 8))
        report["subsolution"] = res
        verdicts.append(bool(res["subsolution_ok"]))

    report["passed"] = all(verdicts)
    for name, header, rows in tables:
        write_csv(os.path.join(out, name), header, rows)
    write_json(os.path.join(out, "barrier_report.json"), report)
    return 0 if report["passed"] else 1


def _cmd_verify(cfg: dict, out: str) -> int:
    sec, quick = cfg["verify"], cfg["run"]["quick"]
    checks = (("psi", "psi_identity", lambda: acceptance.psi_identity(quick)),
              ("evolution", "evolution_equations",
               lambda: acceptance.evolution_equations(quick)),
              ("area", "area_bound", lambda: acceptance.area_bv_bound(quick, sec["trials"])))
    which = sec["which"]
    if which not in ("all", *(key for key, _, _ in checks)):
        raise ParameterError(f"unknown verification {which!r}")
    if sec["trials"] < 1:
        raise ParameterError(f"trials must be at least 1, got {sec['trials']}")
    report = {}
    for key, name, check in checks:
        if which in (key, "all"):
            ok, detail = check()
            report[name] = {"passed": ok, "detail": detail}
    passed = all(entry["passed"] for entry in report.values())
    write_json(os.path.join(out, "verify_report.json"), {**report, "passed": passed})
    for name, entry in report.items():
        print(f"{name}: {'pass' if entry['passed'] else 'FAIL'} ({entry['detail']})")
    return 0 if passed else 1


def _cmd_experiment(cfg: dict, out: str, sets) -> int:
    name = cfg["experiment"]["name"]
    if name not in SCENARIOS:
        raise ParameterError(f"unknown scenario {name!r} "
                             f"(known: {', '.join(sorted(SCENARIOS))})")
    scenario = SCENARIOS[name]
    schema = {key: p.default for key, p in
              inspect.signature(scenario.function()).parameters.items()}
    settings = {"seed": cfg["run"]["seed"]} if "seed" in schema else {}
    settings.update(_apply_sets(schema, sets, f"scenario {name!r}"))
    rep = scenario.run(cfg["run"]["quick"], **settings)
    write_json(os.path.join(out, f"experiment_{name}.json"),
               {"scenario": name, "passed": rep.passed, "claim": scenario.claim,
                **rep.summary})
    if rep.trace is not None:
        write_csv(os.path.join(out, f"experiment_{name}_trace.csv"), *rep.trace)
    print(f"{name}: {'pass' if rep.passed else 'FAIL'} ({scenario.claim})")
    return 0 if rep.passed else 1


def _cmd_suite(cfg: dict, out: str) -> int:
    results = acceptance.run_acceptance(quick=cfg["run"]["quick"])
    passed = all(r.passed for r in results)
    write_csv(os.path.join(out, "acceptance.csv"),
              [("number", "index"), ("name", "text"), ("passed", "0/1"),
               ("seconds", "s"), ("detail", "text")],
              ((r.number, r.name, r.passed, round(r.seconds, 2),
                '"' + r.detail.replace('"', "'") + '"')
               for r in results))
    write_json(os.path.join(out, "acceptance.json"),
               {"passed": passed,
                "criteria": [{"number": r.number, "name": r.name,
                              "passed": r.passed, "detail": r.detail,
                              "seconds": round(r.seconds, 3)}
                             for r in results]})
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# dispatch

# subcommand -> (help line, whether it has quick settings); dispatch calls
# the handler _cmd_<subcommand>
_COMMANDS = {
    "expander": ("solve the self-similar profile", False),
    "evolve": ("run a single graphical flow", False),
    "barrier": ("certify static, flowing, and glued barriers", False),
    "verify": ("identity, evolution-equation, and BV checks", True),
    "experiment": ("run a named scenario", True),
    "suite": ("run the acceptance battery", True),
}
_QUICK = ", ".join(name for name, (_, quick) in _COMMANDS.items() if quick)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coneflow",
        description="graphical mean curvature flow out of cones: solvers, "
                    "barriers, and the acceptance battery")
    parser.add_argument("--config", metavar="PATH",
                        help="INI scenario file layered over the defaults")
    parser.add_argument("--out", metavar="DIR",
                        help=f"artifact directory (default $"
                             f"{ENV_OUT} or ./results)")
    parser.add_argument("--seed", type=int, metavar="N",
                        help="seed of the family-uniform scenario's "
                             "random family")
    parser.add_argument("--quick", action="store_true", default=None,
                        help="smaller grids and horizons for smoke runs "
                             f"({_QUICK} only)")
    parser.add_argument("--print-config", action="store_true",
                        help="print the merged configuration and exit")
    parser.add_argument("-v", "--verbose", action="count", default=0)
    sub = parser.add_subparsers(dest="subcommand")
    for name, (blurb, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=blurb)
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       dest="sets", help="override a config value")
        if name == "experiment":
            p.add_argument("--name", help="scenario name")
    return parser


def dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage, 0 on --help
        return exc.code if isinstance(exc.code, int) else 2

    level = (logging.WARNING, logging.INFO, logging.DEBUG)[min(args.verbose, 2)]
    logging.basicConfig(stream=sys.stderr, level=level,
                        format="%(name)s %(levelname)s: %(message)s")

    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg["run"]["seed"] = args.seed
        if args.quick is not None:
            cfg["run"]["quick"] = args.quick
        if getattr(args, "name", None):
            cfg["experiment"]["name"] = args.name

        if args.print_config:
            print_config(cfg)
            return 0
        if args.subcommand is None:
            parser.print_usage(sys.stderr)
            return 2

        command = args.subcommand
        if cfg["run"]["quick"] and not _COMMANDS[command][1]:
            raise ParameterError(
                f"--quick (or [run] quick) has no effect on "
                f"{command!r}; it applies to {_QUICK}")

        # looked up when called, so the handlers can be replaced
        handler = globals()[f"_cmd_{command}"]
        if command == "experiment":  # its pairs are typed by the scenario runner
            return handler(cfg, _resolve_out(args.out), args.sets)
        _apply_sets(cfg[command], args.sets, command)
        return handler(cfg, _resolve_out(args.out))
    except (ParameterError, DomainError, GridError) as exc:
        print(f"coneflow: usage error: {exc}", file=sys.stderr)
        return 2
    except CertificationError as exc:
        print(f"coneflow: verdict failure: {exc}", file=sys.stderr)
        return 1
    except (NewtonError, StepFailureError, ShootingError) as exc:
        print(f"coneflow: numerical failure: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    entry()
