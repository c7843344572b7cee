"""The invariant suite under pytest: every registry check runs in fast mode
under its own name, the zeta oracle and Dirichlet positivity checks run in
full mode too, and a check that crashes is reported under that name."""

import mpmath
import pytest

from eliashberg_tc import cli, verify


@pytest.mark.parametrize("check", [check for _, check in verify.ALL_CHECKS],
                         ids=[name.replace(" ", "-") for name, _ in verify.ALL_CHECKS])
def test_check_holds(check):
    check(True)


@pytest.mark.parametrize("check", [verify.check_zeta_oracle, verify.check_dirichlet_positivity],
                         ids=lambda check: check.__name__)
def test_full_mode_check_holds(check):
    check(False)


@pytest.mark.parametrize("fast", [True, False], ids=["fast", "full"])
def test_zeta_oracle_one_pass_matches_mpmath(fast, monkeypatch):
    passes = []
    one_pass = verify._zeta_direct

    def counted(points, terms):
        values = one_pass(points, terms)
        passes.append((list(points), values))
        return values

    monkeypatch.setattr(verify, "_zeta_direct", counted)
    verify.check_zeta_oracle(fast)
    assert len(passes) == 1
    points, values = passes[0]
    assert len(points) == (3 if fast else 6) and {1.65, 4.35} <= set(points)
    with mpmath.workdps(30):
        for s, got in zip(points, values):
            assert abs(got - float(mpmath.zeta(s))) <= 1e-13, s


def test_crashed_check_reported_under_its_registry_name(monkeypatch, capsys):
    name = "stability eigenvalue decreasing above threshold"

    def crash(fast):
        raise ZeroDivisionError("injected")

    registry = tuple((n, crash if n == name else check) for n, check in verify.ALL_CHECKS)
    monkeypatch.setattr(verify, "ALL_CHECKS", registry)
    assert cli.main(["verify", "--fast"]) == 1
    failing = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
    assert failing == [f"FAIL {name}: raised ZeroDivisionError: injected"]
