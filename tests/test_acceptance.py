"""Acceptance gate: every shipped claim, one test per criterion.

Run with -v to get one PASS/FAIL line per criterion; the printed detail
carries the measured number against its tolerance.  These execute the full
(non-quick) settings, so this module is the slow part of the suite.
"""

from types import SimpleNamespace

import pytest

from coneflow import acceptance
from coneflow.acceptance import CRITERIA, run_acceptance

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
    report = run_acceptance(quick=True)
    out = capsys.readouterr().out
    assert len(report.results) == 2
    assert report.passed
    assert "[ 3/14] PASS profile-monotonicity" in out
    assert "[ 4/14] PASS sup-decay-rate" in out
    assert "acceptance PASS: 2/2" in out


def test_unflattened_side_fails_with_a_detail_line(monkeypatch, capsys):
    # a side that never drops under the threshold reports "none", as
    # criteria 6 and 14 do, instead of crashing on the format
    sides = {+1: SimpleNamespace(t_flat=30.0, upper=True, lower=True),
             -1: SimpleNamespace(t_flat=None, upper=True, lower=True)}
    fake = SimpleNamespace(run=lambda quick: SimpleNamespace(
        passed=False, threshold=0.05, sides=sides))
    monkeypatch.setitem(acceptance.SCENARIOS, "main-theorem", fake)
    _only(monkeypatch, 5)
    report = run_acceptance(quick=True)
    line = capsys.readouterr().out.splitlines()[0]
    assert not report.passed
    assert "error:" not in line
    assert line.startswith("[ 5/14] FAIL two-sided-convergence: sup|u-U| <= 0.05 "
                           "at t = 30.0 (+) / none (-), sandwich checks pass [")
