"""Every demo script runs to completion against the package's exports."""

import runpy
from pathlib import Path

import pytest

_DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_are_found():
    assert _DEMOS


@pytest.mark.parametrize("script", _DEMOS, ids=lambda p: p.stem)
def test_demo_runs(script, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # demo 05 writes moment-pictures/ here
    runpy.run_path(str(script), run_name="__main__")
    assert capsys.readouterr().out
