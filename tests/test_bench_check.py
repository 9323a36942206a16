"""``scripts/bench.py --check``: the CI gate over a finished bench report."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]

spec = importlib.util.spec_from_file_location(
    "bench", REPO_ROOT / "scripts" / "bench.py"
)
bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench)


def clean_row():
    return {"throughput_rps": 100.0, "exit_code": 0, "failures": []}


def report(**rows):
    cluster = {name: clean_row() for name in bench.CLUSTER_ROWS}
    cluster.update(rows)
    return {
        "circuits": [{"circuit": "s953", "diagnose_speedup": 5.0}],
        "cluster": cluster,
    }


COMMITTED = {"circuits": [{"circuit": "s953", "diagnose_speedup": 5.0}]}


def test_clean_report_passes(capsys):
    assert bench.check_against(report(), COMMITTED, 0.25) == 0
    assert "check: PASS" in capsys.readouterr().out


@pytest.mark.parametrize("name", bench.CLUSTER_ROWS)
def test_loadgen_failures_fail_the_gate(name, capsys):
    row = dict(clean_row(), exit_code=1, failures=["malformed_metrics"])
    assert bench.check_against(report(**{name: row}), COMMITTED, 0.25) == 1
    out = capsys.readouterr().out
    assert f"cluster:{name}" in out and "malformed_metrics" in out


def test_nonzero_exit_without_reasons_fails(capsys):
    row = dict(clean_row(), exit_code=1)
    assert bench.check_against(report(cluster=row), COMMITTED, 0.25) == 1


def test_failures_fail_without_committed_baseline(capsys):
    row = dict(clean_row(), failures=["timeout"])
    assert bench.check_against(report(cluster_chaos=row), None, 0.25) == 1
    assert "FAIL" in capsys.readouterr().out


def test_speedup_regression_still_fails(capsys):
    slow = report()
    slow["circuits"][0]["diagnose_speedup"] = 2.0
    assert bench.check_against(slow, COMMITTED, 0.25) == 1
    assert "s953:diagnose_speedup" in capsys.readouterr().out
