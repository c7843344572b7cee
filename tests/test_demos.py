"""Every demo script runs to completion against the current public API."""

import math
import pathlib
import runpy

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=[path.name for path in DEMOS])
def test_demo_runs(path, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # the figure-data demo writes into the working directory
    runpy.run_path(str(path), run_name="__main__")
    if path.name == "04_figure_data.py":
        for name in ("tc_bounds_vs_coupling.csv", "tc_strong_coupling.csv"):
            assert (tmp_path / "figure_data" / name).is_file()


def _csv_rows(path: pathlib.Path) -> tuple[list[str], list[list[str]]]:
    """The comment and column lines of a sweep CSV, then its data rows as cells."""
    lines = path.read_text(encoding="utf-8").splitlines()
    return lines[:2], [line.split(",") for line in lines[2:]]


@pytest.mark.parametrize("name", ["tc_bounds_vs_coupling.csv", "tc_strong_coupling.csv"])
def test_figure_data_matches_committed(name, tmp_path, monkeypatch, capsys):
    # the committed figure data is what the demo regenerates: same header,
    # same rows, the same empty cells and every number within 1e-9
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(ROOT / "demos" / "04_figure_data.py"), run_name="__main__")
    header, rows = _csv_rows(tmp_path / "figure_data" / name)
    want_header, want_rows = _csv_rows(ROOT / "figure_data" / name)
    assert header == want_header
    assert len(rows) == len(want_rows) == 40
    for i, (row, want_row) in enumerate(zip(rows, want_rows)):
        assert len(row) == len(want_row), i
        for got, want in zip(row, want_row):
            assert (got == "") == (want == ""), (i, got, want)
            if want:
                assert math.isclose(float(got), float(want), rel_tol=1e-9, abs_tol=0.0), (i, got, want)
