import json

import numpy as np
import pytest

from eliashberg_tc import cli, gamma_model, measure, stability, tc_solver

NAN, INF = float("nan"), float("inf")


@pytest.fixture
def einstein_file(tmp_path):
    path = tmp_path / "einstein.json"
    path.write_text('{"type":"einstein","omega":1.0}', encoding="utf-8")
    return str(path)


@pytest.fixture
def varpi_one_file(tmp_path):
    # atom at 2 pi T for T = 0.25, so the dimensionless frequency is one
    path = tmp_path / "atom.json"
    path.write_text(json.dumps({"type": "einstein", "omega": float(2 * np.pi * 0.25)}),
                    encoding="utf-8")
    return str(path)


class TestBoundsCommand:
    def test_rank_one_row(self, varpi_one_file, capsys):
        code = cli.main(["bounds", varpi_one_file, "--temperature", "0.25", "--max-n", "8"])
        out = capsys.readouterr().out
        assert code == 0
        assert "k_1 (closed form)" in out
        row = next(line for line in out.splitlines() if line.startswith("k_1 "))
        assert float(row.split("[")[0].split()[-1]) == pytest.approx(0.5, abs=1e-12)

    def test_rank_two_row(self, varpi_one_file, capsys):
        cli.main(["bounds", varpi_one_file, "--temperature", "0.25"])
        out = capsys.readouterr().out
        row = next(line for line in out.splitlines() if line.startswith("k_2 "))
        assert float(row.split("[")[0].split()[-1]) == pytest.approx(0.668624070307733, rel=1e-10)

    def test_every_row_labeled(self, einstein_file, capsys):
        cli.main(["bounds", einstein_file, "--temperature", "0.2", "--max-n", "8"])
        out = capsys.readouterr().out
        for line in out.splitlines():
            if line.startswith("#"):
                continue
            assert "bound" in line and ("proven" in line or "conjectured" in line)

    def test_row_labels_are_unique(self, einstein_file, capsys):
        # at --max-n 4 rank four has a closed-form and an eigensolver row for
        # both k_4 and Lambda_4; each label names its route
        assert cli.main(["bounds", einstein_file, "--temperature", "0.2", "--max-n", "4"]) == 0
        labels = [line.split("  ")[0] for line in capsys.readouterr().out.splitlines()[1:]]
        assert len(labels) == 14 and len(set(labels)) == len(labels)
        assert "Lambda_4 = 1/k_4 (closed form)" in labels
        assert "Lambda_4 = 1/k_4 (eigensolver)" in labels

    def test_malformed_file_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{", encoding="utf-8")
        assert cli.main(["bounds", str(bad), "--temperature", "0.2"]) == 2
        assert "validation error" in capsys.readouterr().err

    def test_bad_temperature_exit_two(self, einstein_file, capsys):
        assert cli.main(["bounds", einstein_file, "--temperature", "-1"]) == 2

    @pytest.mark.parametrize(
        "description, named",
        [
            ({"type": "tabulated", "nodes": [[0.0, 0.0], [0.5, NAN], [1.0, 0.0]]}, "#1"),
            ({"type": "tabulated", "nodes": [[0.0, 0.0], [NAN, 2.0], [1.0, 0.0]]}, "#1"),
            ({"type": "discrete", "atoms": [{"weight": 0.5, "omega": 1.0},
                                            {"weight": NAN, "omega": 2.0}]}, "#1"),
            ({"type": "discrete", "atoms": [{"weight": 0.5, "omega": NAN},
                                            {"weight": 0.5, "omega": 2.0}]}, "#0"),
            ({"type": "discrete", "atoms": [{"weight": 0.5, "omega": 1.0},
                                            {"weight": 0.5, "omega": INF}]}, "#1"),
            ({"type": "einstein", "omega": "1.0"}, "omega"),
            ({"type": "einstein", "omega": None}, "omega"),
            ({"type": "discrete", "atoms": [{"weight": "abc", "omega": 1.0}]}, "atoms[0].weight"),
            ({"type": "einstein", "omega": [1.0]}, "omega"),
            ({"type": "discrete", "atoms": [{"weight": True, "omega": 1.0}]}, "atoms[0].weight"),
        ],
        ids=["nan-density", "nan-node", "nan-weight", "nan-omega", "inf-omega",
             "string-omega", "null-omega", "string-weight", "list-omega", "bool-weight"],
    )
    def test_non_finite_measure_exit_two(self, tmp_path, capsys, description, named):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(description), encoding="utf-8")  # NaN / Infinity literals
        assert cli.main(["bounds", str(path), "--temperature", "0.1"]) == 2
        err = capsys.readouterr().err
        assert "validation error: non-finite" in err and f"{named}=" in err

    def test_missing_file_exit_four(self, capsys):
        assert cli.main(["bounds", "/no/such/file.json", "--temperature", "0.2"]) == 4

    def test_memory_error_exit_three(self, einstein_file, capsys, monkeypatch):
        def exhausted(self, t, count):
            raise MemoryError

        monkeypatch.setattr(measure.SpectralMeasure, "kernel_values", exhausted)
        assert cli.main(["bounds", einstein_file, "--temperature", "0.2"]) == 3
        assert capsys.readouterr().err == "numerical error: out of memory\n"


class TestTcCommand:
    def test_rank_one_analytic(self, einstein_file, capsys):
        code = cli.main(["tc", einstein_file, "--coupling", "2", "--n", "1"])
        out = capsys.readouterr().out
        assert code == 0
        row = next(line for line in out.splitlines() if line.startswith("Tc_1"))
        assert float(row.split()[1]) == pytest.approx(0.159155, abs=1e-6)

    def test_undefined_entry_names_floor(self, einstein_file, capsys):
        cli.main(["tc", einstein_file, "--coupling", "0.5", "--n", "2"])
        out = capsys.readouterr().out
        row = next(line for line in out.splitlines() if line.startswith("Tc_2"))
        assert "undefined" in row and "0.6" in row

    def test_converged_bracketed_by_printed_bounds(self, einstein_file, capsys):
        cli.main(["tc", einstein_file, "--coupling", "10", "--converge", "1e-6"])
        out = capsys.readouterr().out

        def grab(prefix):
            row = next(line for line in out.splitlines() if line.startswith(prefix))
            return float(row.split()[1])

        converged = float(next(line for line in out.splitlines()
                               if line.startswith("Tc (converged")).split("=")[1].split()[0])
        assert grab("Tc_flat") < converged < grab("Tc_sharp")

    def test_tilde_never_proven(self, einstein_file, capsys):
        cli.main(["tc", einstein_file, "--coupling", "10"])
        out = capsys.readouterr().out
        tilde = next(line for line in out.splitlines() if line.startswith("Tc_tilde"))
        assert "conjectured" in tilde and "proven" not in tilde

    def test_json_mirror(self, einstein_file, capsys):
        code = cli.main(["tc", einstein_file, "--coupling", "10", "--json"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["coupling"] == 10.0
        assert data["tc_flat"] < data["converged_tc"] < data["tc_sharp"]
        assert data["tc_tilde_status"] == "conjectured"
        assert all(set(e) == {"n", "tc", "status"} for e in data["ladder"])

    @pytest.mark.parametrize("rank", ["0", "-3"])
    def test_nonpositive_rank_exit_two(self, einstein_file, rank, capsys):
        assert cli.main(["tc", einstein_file, "--coupling", "2", "--n", rank]) == 2
        assert capsys.readouterr().out == ""

    def test_single_rank_json_is_strict(self, einstein_file, capsys):
        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        assert cli.main(["tc", einstein_file, "--coupling", "10", "--n", "6", "--json"]) == 0
        data = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert data["tolerance"] is None
        assert data["converged_tc"] is None and data["converged_n"] is None
        assert [e["n"] for e in data["ladder"]] == [1, 2, 3, 4, 6]


class TestSweepCommand:
    def test_csv_schema_and_floor(self, einstein_file, tmp_path, capsys):
        out_path = tmp_path / "sweep.csv"
        code = cli.main([
            "sweep", einstein_file, "--lambda-min", "0.5", "--lambda-max", "50",
            "--points", "9", "--out", str(out_path),
        ])
        assert code == 0
        lines = out_path.read_text(encoding="utf-8").splitlines()
        assert lines[0].startswith("# eliashberg-tc v1, columns: lambda,")
        assert lines[1] == "lambda,tc_flat,tc_sharp,tc_tilde,tc_n4,tc_converged"
        for line in lines[2:]:
            lam, flat = line.split(",")[0:2]
            # support-edge threshold: the flat bound exists only above
            # coupling one for a unit atom
            assert (flat == "") == (float(lam) <= 1.0)

    def test_deterministic_bytes(self, einstein_file, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            cli.main([
                "sweep", einstein_file, "--lambda-min", "1", "--lambda-max", "100",
                "--points", "7", "--out", str(path), "--normalized", "--inverse-sqrt-x",
            ])
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_converged_sweep_solves_rank_four_once_per_row(self, einstein_file, tmp_path,
                                                          monkeypatch):
        ranks = []
        tc_n = tc_solver.tc_n

        def recorded(m, lam, n, **kwargs):
            ranks.append(n)
            return tc_n(m, lam, n, **kwargs)

        monkeypatch.setattr(tc_solver, "tc_n", recorded)
        code = cli.main([
            "sweep", einstein_file, "--lambda-min", "2", "--lambda-max", "20",
            "--points", "2", "--converge", "1e-6", "--out", str(tmp_path / "s.csv"),
        ])
        assert code == 0
        assert ranks.count(4) == 2 and ranks[0] == 4 and ranks.index(4, 1) > 1

    def test_unwritable_path_exit_four(self, einstein_file, capsys):
        code = cli.main([
            "sweep", einstein_file, "--lambda-min", "1", "--lambda-max", "10",
            "--points", "2", "--out", "/no/such/dir/out.csv",
        ])
        assert code == 4

    def test_bad_grid_exit_two(self, einstein_file, tmp_path):
        code = cli.main([
            "sweep", einstein_file, "--lambda-min", "10", "--lambda-max", "1",
            "--points", "5", "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 2


class TestGammaCommand:
    def test_reported_constant(self, capsys):
        code = cli.main(["gamma", "--gamma", "2", "--n", "256"])
        out = capsys.readouterr().out
        assert code == 0
        value = float(next(line for line in out.splitlines()
                           if line.startswith("(1/2pi)")).split("=")[1])
        assert value == pytest.approx(0.1827262477, abs=1e-9)
        assert "expectation" in out  # exponent-four companion value at gamma=2

    def test_rank_one_values(self, capsys):
        cli.main(["gamma", "--gamma", "2", "--n", "1"])
        out = capsys.readouterr().out
        assert float(out.splitlines()[0].split("=")[1]) == pytest.approx(1.0)
        assert float(out.splitlines()[1].split("=")[1]) == pytest.approx(
            1.0 / (2.0 * np.pi), rel=1e-10
        )

    def test_gamma_four(self, capsys):
        cli.main(["gamma", "--gamma", "4", "--n", "1"])
        out = capsys.readouterr().out
        assert float(out.splitlines()[0].split("=")[1]) == pytest.approx(1.0)
        assert "expectation" not in out

    def test_domain_error_exit_two(self, capsys):
        assert cli.main(["gamma", "--gamma", "-2", "--n", "4"]) == 2


class TestVerifyCommand:
    def test_fast_suite_passes(self, capsys):
        code = cli.main(["verify", "--fast"])
        out = capsys.readouterr().out
        assert code == 0
        assert "all" in out and "checks passed" in out
        assert "FAIL" not in out

    def test_injected_sign_flip_fails_sandwich(self, monkeypatch, capsys):
        # mutation probe: flip the sign of the summed-index kernel inside
        # the shared assembly and the suite must fail, naming the ordering
        # invariant
        original = stability.split_operator

        def flipped(kernel, n):
            idx = np.arange(n)
            inv_sqrt = 1.0 / np.sqrt(2.0 * idx + 1.0)
            diff = np.abs(idx[:, None] - idx[None, :])
            summ = idx[:, None] + idx[None, :] + 1
            exchange = (kernel[diff] - kernel[summ]) * np.outer(inv_sqrt, inv_sqrt)
            return exchange, original(kernel, n)[1]

        monkeypatch.setattr(stability, "split_operator", flipped)
        try:
            code = cli.main(["verify", "--fast"])
        finally:
            monkeypatch.setattr(stability, "split_operator", original)
            # the flip also reached the memoized gamma-family values
            gamma_model._top_pair.cache_clear()
            gamma_model.expected_gamma.cache_clear()
        out = capsys.readouterr().out
        assert code == 1
        failing = [line for line in out.splitlines() if line.startswith("FAIL")]
        # the flip is caught by every property that pins the kernel signs;
        # each failure line names the property and a witness sample
        assert failing
        assert any("zero-temperature limit" in line for line in failing)
        assert any("defining identity" in line for line in failing)
        assert all(":" in line for line in failing)
