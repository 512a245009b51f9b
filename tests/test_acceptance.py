"""Acceptance gate: every shipped claim, one test per criterion.

Run with -v to get one PASS/FAIL line per criterion; the printed detail
carries the measured number against its tolerance.  These execute the full
(non-quick) settings, so this module is the slow part of the suite.
"""

from types import SimpleNamespace

import pytest

from coneflow import acceptance
from coneflow.acceptance import CRITERIA, run_acceptance
from coneflow.analysis import ScenarioReport

IDS = [f"{number:02d}-{name}" for number, name, _ in CRITERIA]


@pytest.mark.parametrize("number,name,fn", CRITERIA, ids=IDS)
def test_criterion(number, name, fn):
    ok, detail = fn(quick=False)
    line = f"[{number:2d}/14] {'PASS' if ok else 'FAIL'} {name}: {detail}"
    print(line)
    assert ok, line


def _only(monkeypatch, *numbers):
    """Let run_acceptance see only the criteria ``numbers``."""
    monkeypatch.setattr(acceptance, "CRITERIA",
                        tuple(c for c in CRITERIA if c[0] in numbers))


def test_run_acceptance_aggregates(monkeypatch, capsys):
    _only(monkeypatch, 3, 4)
    results = run_acceptance(quick=True)
    out = capsys.readouterr().out
    assert len(results) == 2
    assert all(r.passed for r in results)
    assert "[ 3/14] PASS profile-monotonicity" in out
    assert "[ 4/14] PASS sup-decay-rate" in out
    assert "acceptance PASS: 2/2" in out


def test_unflattened_side_fails_with_a_detail_line(monkeypatch, capsys):
    # a side that never drops under the threshold reports "none", as
    # criteria 6 and 14 do, instead of crashing on the format
    sides = {"1": {"t_flat": 30.0, "t_delta": 1.0, "upper_ok": True, "lower_ok": True},
             "-1": {"t_flat": None, "t_delta": 1.0, "upper_ok": True, "lower_ok": True}}
    fake = SimpleNamespace(run=lambda quick: ScenarioReport(
        False, {"threshold": 0.05, "sides": sides}, None))
    monkeypatch.setitem(acceptance.SCENARIOS, "main-theorem", fake)
    _only(monkeypatch, 5)
    results = run_acceptance(quick=True)
    line = capsys.readouterr().out.splitlines()[0]
    assert not all(r.passed for r in results)
    assert "error:" not in line
    assert line.startswith("[ 5/14] FAIL two-sided-convergence: sup|u-U| <= 0.05 "
                           "at t = 30.0 (+) / none (-), sandwich checks pass [")


@pytest.mark.parametrize("trials", [0, -3])
def test_area_bound_with_no_trials_fails(trials):
    # a count below 1 checks nothing, so "0/0 pass" is not a pass
    for quick in (False, True):
        assert acceptance.area_bv_bound(quick, trials) == (
            False, f"0/{trials} bound checks pass (0 with nonempty area set)")
