"""The invariant suite under pytest: every registry check runs in fast mode
under its own name, and a check that crashes is reported under that name."""

import pytest

from eliashberg_tc import cli, verify


@pytest.mark.parametrize("check", [check for _, check in verify.ALL_CHECKS],
                         ids=[name.replace(" ", "-") for name, _ in verify.ALL_CHECKS])
def test_check_holds(check):
    check(True)


def test_crashed_check_reported_under_its_registry_name(monkeypatch, capsys):
    name = "stability eigenvalue decreasing above threshold"

    def crash(fast):
        raise ZeroDivisionError("injected")

    registry = tuple((n, crash if n == name else check) for n, check in verify.ALL_CHECKS)
    monkeypatch.setattr(verify, "ALL_CHECKS", registry)
    assert cli.main(["verify", "--fast"]) == 1
    failing = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
    assert failing == [f"FAIL {name}: raised ZeroDivisionError: injected"]
