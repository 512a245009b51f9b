"""The four benchmark workloads: seeded inputs, timed body, output checks.

Each workload object is built from ``(seed, tiny, workdir)`` and offers
``setup()`` (untimed by the body clock, counted in setup_s), ``run()`` (the
timed body), ``checks()`` (named pass/fail results for fail_ratio) and
``science`` (the measured numbers compared against ``reference.json`` at the
seed it was recorded with).  Inputs come only from the seed; seeds move the inputs inside
ranges where the amount of work stays the same, so run-to-run spread
measures the machine, not the draw.

The coneflow modules are looked up as module attributes at call time, so
the traced run sees the wrapped entry points.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

from coneflow import barriers, cli, cones, expander, flow, geometry

# Floors shared with acceptance criteria 2 and 3 and the shooting
# postconditions (ShootingConfig.ode_tol, asym_tol).
_ODE_TOL = 1e-8
_ASYM_TOL = 1e-4
_FLOOR = -1e-8


class RadialFixedDt:
    """Criterion-10 pattern: fixed dt = 1e-4 radial flow on N = 201 and 401.

    Thousands of one-Newton-iteration steps on small grids, so per-call
    overhead in flow.step, the geometry rhs, GridFunction construction and
    the per-step diagnostics dominates.  The expander profile that pins the
    boundary is solved in setup.
    """

    grids = (201, 401)

    def __init__(self, seed: int, tiny: bool, workdir: str):
        rng = np.random.default_rng(seed)
        self.beta = float(rng.uniform(0.85, 1.15))
        self.horizon = 0.01 if tiny else 0.25
        self.science: dict = {}

    def setup(self):
        self.cone = cones.ConeProfile.radial(2, self.beta)
        self.profile = expander.solve_expander_profile(self.cone)
        self.config = flow.SolverConfig(
            dt_init=1e-4, dt_max=1e-4, snapshot_dt=2.5e-4,
            boundary="pin-to-expander", newton_tol=1e-12, adaptive=False)
        self.initial = {}
        for nn in self.grids:
            spec = geometry.GridSpec.uniform(2, 0.0, 20.0, nn)
            self.initial[nn] = self.profile.on_grid(spec, 1.0)

    def run(self):
        self.science = {"a": self.profile.a}
        for nn in self.grids:
            run = flow.evolve(self.initial[nn], self.horizon, self.config,
                              cone=self.cone, profile=self.profile,
                              t_start=1.0)
            rep = barriers.psi_identity_residual(run)
            self.science[f"psi_sup.N{nn}"] = rep.sup_residual

    def checks(self):
        s = self.science
        order = math.log2(s["psi_sup.N201"] / s["psi_sup.N401"])
        return [(f"refinement order {order:.3f} >= 1.8", order >= 1.8)]


class ExpanderSweep:
    """Shooting from scratch for distinct (n, beta) pairs.

    LSODA shooting does nearly all the work and the flow none.  The keys are
    distinct, so a profile cache cannot help here.  For n = 2 and 3, beta is
    drawn within 0.1 of each of three centres spanning [0.4, 2.4]; the
    narrow draws keep the cost of a shot, and so the total, nearly
    seed-independent while no two seeds share a key.
    """

    centres = (0.5, 1.4, 2.3)

    def __init__(self, seed: int, tiny: bool, workdir: str):
        rng = np.random.default_rng(seed)
        centres = self.centres[1:2] if tiny else self.centres
        self.pairs = [(n, float(c + rng.uniform(-0.1, 0.1)))
                      for n in (2, 3) for c in centres]
        self.science: dict = {}

    def setup(self):
        self.cones = [cones.ConeProfile.radial(n, b) for n, b in self.pairs]

    def run(self):
        self.profiles = [expander.solve_expander_profile(k) for k in self.cones]
        self.science = {f"a.n{p.n}.beta{p.beta!r}": p.a for p in self.profiles}

    def checks(self):
        out = []
        for p in self.profiles:
            rep = p.report
            tag = f"n={p.n} beta={p.beta:.4f}"
            out += [
                (f"{tag} ode_residual {rep['ode_residual']:.2e} <= {_ODE_TOL:.0e}",
                 rep["ode_residual"] <= _ODE_TOL),
                (f"{tag} asym_gap {rep['asym_gap']:.2e} <= {_ASYM_TOL:.0e}",
                 rep["asym_gap"] <= _ASYM_TOL),
                (f"{tag} above_cone_min {rep['above_cone_min']:.2e} >= {_FLOOR:.0e}",
                 rep["above_cone_min"] >= _FLOOR),
                (f"{tag} udot_min {rep['udot_min']:.2e} >= {_FLOOR:.0e}",
                 rep["udot_min"] >= _FLOOR),
            ]
        return out


class PolarRelax:
    """relax_angular_expander on a small disk for gamma = 1 + a cos(m theta).

    The only path through the polar colored Jacobian and the sparse LU; no
    radial code runs.  a(m^2 - 1) < 1 keeps the cone strictly mean convex,
    and over the drawn range the relaxation takes the same number of steps.
    """

    def __init__(self, seed: int, tiny: bool, workdir: str):
        rng = np.random.default_rng(seed)
        self.m = int(rng.choice([2, 3]))
        self.a = float(rng.uniform(0.05, 0.1))
        self.nr, self.ntheta = (10, 8) if tiny else (24, 16)
        self.science: dict = {}

    def setup(self):
        a, m = self.a, self.m
        self.cone = cones.ConeProfile.angular(
            lambda th: 1.0 + a * np.cos(m * th), m=64)

    def run(self):
        self.result = expander.relax_angular_expander(
            self.cone, rho_max=12.0, nr=self.nr, ntheta=self.ntheta)
        self.science = {"center_height": self.result.center_height()}

    def checks(self):
        sol = self.result.solution
        above = float(np.min(sol.values - self.cone.on_grid(sol.spec).values))
        return [(f"converged after {self.result.steps} steps",
                 bool(self.result.converged)),
                (f"min(u - k) {above:.2e} >= {_FLOOR:.0e}", above >= _FLOOR)]


class SuiteQuick:
    """``coneflow --quick suite`` through cli.dispatch into a scratch directory.

    The user-facing verdict, and the only workload running barriers,
    analysis, experiments, acceptance and the CLI artifact writers.  The
    battery's inputs are fixed by the program; the seed is passed through the
    CLI's ``--seed`` flag, which the battery does not consume.  There is no
    smaller variant: the smoke test runs it as is.
    """

    def __init__(self, seed: int, tiny: bool, workdir: str):
        self.out = os.path.join(workdir, "suite-out")
        self.argv = ["--quick", "--seed", str(seed), "--out", self.out, "suite"]
        self.science: dict = {}

    def setup(self):
        os.makedirs(self.out, exist_ok=True)

    def run(self):
        self.exit_code = cli.dispatch(self.argv)

    def checks(self):
        out = [(f"exit code {self.exit_code} == 0", self.exit_code == 0)]
        try:
            with open(os.path.join(self.out, "acceptance.json"), encoding="utf-8") as fh:
                report = json.load(fh)
            criteria = report["criteria"]
            out.append(("acceptance.json parses with 14 criteria",
                        len(criteria) == 14 and report["passed"] is True))
            out += [(f"criterion {c['number']} {c['name']} passes",
                     c["passed"] is True) for c in criteria]
        except (OSError, ValueError, KeyError, TypeError) as exc:
            out.append((f"acceptance.json unreadable: {exc!r}", False))
        try:
            with open(os.path.join(self.out, "acceptance.csv"), encoding="utf-8",
                      newline="") as fh:
                rows = list(csv.reader(fh))
            out.append(("acceptance.csv parses with 14 passing rows",
                        len(rows) == 15 and all(r[2] == "1" for r in rows[1:])))
        except (OSError, csv.Error, IndexError) as exc:
            out.append((f"acceptance.csv unreadable: {exc!r}", False))
        return out


WORKLOADS = {
    "radial-fixed-dt": RadialFixedDt,
    "expander-sweep": ExpanderSweep,
    "polar-relax": PolarRelax,
    "suite-quick": SuiteQuick,
}


def reference_checks(name: str, seed: int, tiny: bool, science: dict,
                     reference: dict, rel_tol: float = 1e-12) -> list:
    """Compare the science numbers of the recorded seed with recorded ones.

    A speedup that moves a measured number by more than round-off counts as
    a failure, as a flipped verdict would.
    """
    if seed != reference.get("seed"):
        return []
    recorded = reference["tiny" if tiny else "full"].get(name, {})
    if not recorded:
        return [("no recorded reference", False)] if science else []
    out = []
    for key, want in recorded.items():
        got = science.get(key)
        ok = got is not None and abs(got - want) <= rel_tol * abs(want)
        out.append((f"{key} = {got!r} matches recorded {want!r}", ok))
    if set(science) != set(recorded):
        out.append((f"science keys {sorted(science)} match recorded", False))
    return out
