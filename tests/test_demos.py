"""Every demo script runs to completion against the current public API."""

import pathlib
import runpy

import pytest

DEMOS = sorted((pathlib.Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=[path.name for path in DEMOS])
def test_demo_runs(path, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # the figure-data demo writes into the working directory
    runpy.run_path(str(path), run_name="__main__")
    if path.name == "04_figure_data.py":
        for name in ("tc_bounds_vs_coupling.csv", "tc_strong_coupling.csv"):
            assert (tmp_path / "figure_data" / name).is_file()
