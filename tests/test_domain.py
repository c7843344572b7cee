"""The input domain: one validator for every temperature, frequency,
coupling, exponent, scale, tolerance, rank and order, regression cases for
inputs that escaped it, and a property over the public entry points."""

import contextlib
import dataclasses
import inspect
import io
import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eliashberg_tc import bounds, cli, gamma_model, measure, stability, tc_solver
from eliashberg_tc.errors import NumericalError, ValidationError
from eliashberg_tc.numerics import MAX_MAGNITUDE, MAX_RANK, MIN_MAGNITUDE, check_rank, check_scalar

NAN, INF = float("nan"), float("inf")

# Tc solves whose trial temperatures, and for the last one the answer too, lie
# outside the band, on measures and couplings inside it
OUT_OF_BAND_SOLVES = [(1e-25, 0.45, 4), (1e-29, 2.0, 4), (1e29, 1e3, 4), (1e29, 1e5, 64)]
OUT_OF_BAND_IDS = ["1e-25-weak", "1e-29", "1e29", "1e29-rank64"]


class TestValidator:
    @pytest.mark.parametrize("value", [MIN_MAGNITUDE, 1.0, MAX_MAGNITUDE, 3, np.float64(0.5)])
    def test_scalar_accepted(self, value):
        assert check_scalar("x", value) == float(value)

    @pytest.mark.parametrize(
        "value", [0.0, -1.0, NAN, INF, -INF, 1e300, 1e-300, 0.5 * MIN_MAGNITUDE,
                  2.0 * MAX_MAGNITUDE, True, "1.0", None],
    )
    def test_scalar_rejected(self, value):
        with pytest.raises(ValidationError, match="^x must be"):
            check_scalar("x", value)

    def test_unbanded_scalar(self):
        assert check_scalar("x", 1e-300, banded=False) == 1e-300
        assert check_scalar("x", 1e300, banded=False) == 1e300
        for value in (0.0, INF, NAN):
            with pytest.raises(ValidationError, match="finite and positive"):
                check_scalar("x", value, banded=False)

    @pytest.mark.parametrize("value", [1, 4, np.int64(7), MAX_RANK])
    def test_rank_accepted(self, value):
        assert check_rank("n", value) == int(value)
        assert type(check_rank("n", value)) is int

    @pytest.mark.parametrize("value", [0, -3, 2.5, 4.0, True, False, "4", None, MAX_RANK + 1])
    def test_rank_rejected(self, value):
        with pytest.raises(ValidationError, match="^n must be an integer in"):
            check_rank("n", value)

    def test_rank_bounds(self):
        assert check_rank("k", 0, 0) == 0
        with pytest.raises(ValidationError, match=r"in \[1, 4\], got 5"):
            check_rank("k", 5, 1, 4)

    def test_rank_cap_admits_the_default_n_cap(self):
        assert MAX_RANK >= inspect.signature(tc_solver.tc_converged).parameters["n_cap"].default


class TestLibraryCases:
    """Inputs that escaped as a raw error, a warning or a silent result."""

    def test_temperature_above_band(self, einstein_unit):
        with pytest.raises(ValidationError, match="temperature"):
            stability.k_numeric(einstein_unit, 1e154, 4)

    @pytest.mark.parametrize("omega", [1e-200, 1e160])
    def test_frequency_outside_band(self, omega):
        with pytest.raises(ValidationError, match="einstein frequency"):
            measure.einstein(omega)

    @pytest.mark.parametrize("atoms", [[(1.0, 1e-200)], [(0.5, 1.0), (0.5, 1e160)]])
    def test_atom_outside_band(self, atoms):
        with pytest.raises(ValidationError, match="frequency"):
            measure.discrete(atoms)

    def test_coupling_above_band(self, einstein_unit):
        with pytest.raises(ValidationError, match="coupling"):
            tc_solver.tc_n(einstein_unit, 1e160, 4)

    def test_infinite_coupling_asymptotic(self, einstein_unit):
        with pytest.raises(ValidationError, match="coupling"):
            bounds.tc_asymptotic(einstein_unit, INF, 4)

    @pytest.mark.parametrize("lam", [10.0, 1e4, 1e8, 1e13, 1e16, 1e17, 1e30])
    def test_asymptotic_inverse_matches_oracle(self, einstein_unit, lam):
        # the same closed form at 50 digits, with its cancelling 1 - sqrt(arg)
        g2 = gamma_model.g_top(2.0, 4).value
        g4 = gamma_model.expected_gamma(4.0, 2.0, 4)
        w2, w4 = einstein_unit.moment(2), einstein_unit.moment(4)
        with mpmath.workdps(50):
            g2, g4, w2, w4 = (mpmath.mpf(x) for x in (g2, g4, w2, w4))
            arg = 1 - 4 * g4 * w4 / (g2 * g2 * w2 * w2 * mpmath.mpf(lam))
            want = 1 / mpmath.sqrt(2 * mpmath.pi ** 2 * (g2 * w2 / (g4 * w4)) * (1 - mpmath.sqrt(arg)))
            got = bounds.tc_asymptotic(einstein_unit, lam, 4)
            assert abs(got - want) / want <= 1e-13

    @pytest.mark.parametrize("n", [2.5, 4.0, True])
    def test_non_integer_gamma_order(self, n):
        with pytest.raises(ValidationError, match="order"):
            gamma_model.g_top(2.0, n)

    def test_memoized_entry_points_check_types(self):
        gamma_model.expected_gamma(4.0, 2.0, 4)
        stability.k_limit_T0(1)
        with pytest.raises(ValidationError, match="order"):
            gamma_model.expected_gamma(4.0, 2.0, 4.0)
        with pytest.raises(ValidationError, match="order"):
            stability.k_limit_T0(True)

    def test_non_integer_assembly_order(self, einstein_unit):
        with pytest.raises(ValidationError, match="order"):
            stability.assemble_k(einstein_unit, 0.1, 2.5)

    def test_non_integer_matsubara_index(self, einstein_unit):
        with pytest.raises(ValidationError, match="Matsubara index"):
            einstein_unit.kernel_average(1.5, 0.1)

    def test_infinite_scale(self, einstein_unit):
        with pytest.raises(ValidationError, match="scale"):
            einstein_unit.scaled(INF)

    def test_scaled_measure_outside_band(self):
        with pytest.raises(ValidationError, match="highest frequency"):
            measure.einstein(1e20).scaled(1e20)

    def test_rank_cap(self, einstein_unit):
        with pytest.raises(ValidationError, match="order"):
            stability.k_numeric(einstein_unit, 0.1, MAX_RANK + 1)
        with pytest.raises(ValidationError, match="rank cap"):
            tc_solver.tc_converged(einstein_unit, 10.0, n_cap=MAX_RANK + 1)

    @pytest.mark.parametrize("omega, lam, n", OUT_OF_BAND_SOLVES, ids=OUT_OF_BAND_IDS)
    def test_tc_solve_outside_band(self, einstein_unit, omega, lam, n):
        entry = tc_solver.tc_n(measure.einstein(omega), lam, n)
        base = tc_solver.tc_n(einstein_unit, lam, n)
        assert entry.status == base.status
        assert entry.value == pytest.approx(omega * base.value, rel=1e-9)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("t", [1e200, 1.7e308])
    @pytest.mark.parametrize(
        "m", [measure.einstein(1.0), measure.tabulated([(0.0, 0.0), (0.5, 2.0), (1.0, 0.0)])],
        ids=["einstein", "tabulated"])
    def test_unbanded_temperature_far_above_band(self, m, t):
        # every kernel average underflows to zero without an overflow warning,
        # and the zero top eigenvalue is a named error, not a division by zero
        assert not np.any(m.kernel_values(t, 191))
        with pytest.raises(NumericalError, match="rank-96 top eigenvalue 0.0"):
            stability.k_numeric(m, t, 96, banded=False)

    @pytest.mark.parametrize("n", [3, 4])
    def test_closed_form_hot_end(self, einstein_unit, n):
        # entries near 1e-62 once under- and overflowed the traces and the
        # determinant; the closed form now scales them into range first
        closed = stability.k_closed_form(einstein_unit, MAX_MAGNITUDE, n).k_value
        eig = stability.k_numeric(einstein_unit, MAX_MAGNITUDE, n).k_value
        assert 0.0 < eig and closed == pytest.approx(eig, rel=1e-12, abs=0.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("t", [1e200, 1.7e308])
    @pytest.mark.parametrize(
        "m", [measure.einstein(1.0), measure.tabulated([(0.0, 0.0), (0.5, 2.0), (1.0, 0.0)])],
        ids=["einstein", "tabulated"])
    def test_kernel_slopes_far_above_band(self, m, t):
        # q * q overflowed at 1e200 and q = inf gave inf / inf at 1.7e308;
        # every slope is -(omega / (2 pi n T))^2 to leading order, so zero here
        slopes = m.kernel_slopes(t, 3)
        assert np.all(np.isfinite(slopes)) and not np.any(slopes)


@pytest.fixture
def atom_file(tmp_path):
    path = tmp_path / "m.json"
    path.write_text('{"type":"einstein","omega":1.0}', encoding="utf-8")
    return str(path)


class TestCommandCases:
    @pytest.mark.parametrize(
        "argv",
        [
            ["tc", "{m}", "--coupling", "inf", "--n", "4"],
            ["tc", "{m}", "--coupling", "1e200", "--n", "4"],
            ["sweep", "{m}", "--lambda-min", "2", "--lambda-max", "inf", "--points", "3",
             "--out", "{out}"],
            ["bounds", "{m}", "--temperature", "inf"],
            ["gamma", "--gamma", "inf", "--n", "4"],
            ["tc", "{m}", "--coupling", "10", "--converge", "inf"],
            ["bounds", "{m}", "--temperature", "0.1", "--max-n", str(MAX_RANK + 1)],
        ],
        ids=["tc-inf", "tc-1e200", "sweep-inf", "bounds-inf", "gamma-inf", "converge-inf",
             "bounds-rank-cap"],
    )
    def test_exit_two_with_one_line(self, atom_file, tmp_path, capsys, argv):
        out = str(tmp_path / "sweep.csv")
        argv = [arg.format(m=atom_file, out=out) for arg in argv]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("validation error: ")

    @pytest.mark.parametrize("omega, lam, n", OUT_OF_BAND_SOLVES, ids=OUT_OF_BAND_IDS)
    def test_tc_solve_outside_band_exits_zero(self, tmp_path, capsys, omega, lam, n):
        path = tmp_path / "m.json"
        path.write_text(f'{{"type":"einstein","omega":{omega!r}}}', encoding="utf-8")
        assert cli.main(["tc", str(path), "--coupling", repr(lam), "--n", str(n)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert f"Tc_{n:<4}" in captured.out

    def test_gamma_overflow_exits_three_with_one_named_line(self, capsys):
        # g^(1/gamma) overflows for a small exponent; nothing is printed first
        assert cli.main(["gamma", "--gamma", "1e-3", "--n", "4"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("numerical error: g^(1/gamma) overflows")
        assert "1/gamma = 1000" in lines[0]


# -- property over the public entry points ------------------------------------

MEASURES = [
    measure.einstein(1.0),
    measure.discrete([(0.5, 0.8), (0.5, 1.2)]),
    measure.tabulated([(0.0, 0.0), (0.5, 2.0), (1.0, 0.0)]),
    measure.einstein(MIN_MAGNITUDE),
    measure.einstein(MAX_MAGNITUDE),
]
SCALARS = st.sampled_from([
    0.05, 0.3, 2.0, 40.0, MIN_MAGNITUDE, MAX_MAGNITUDE,  # valid, band edges included
    0.0, -1.0, -MAX_MAGNITUDE, NAN, INF, -INF, 1e300, -1e300, 1e-300,
])
# Tolerances below machine precision are valid but make power iteration run to
# its iteration cap (seconds), so the lower band edge is left out here.
TOLERANCES = st.sampled_from([1e-6, 1e-3, MAX_MAGNITUDE, 0.0, -1e-6, NAN, INF, 1e300, 1e-300])
# Small valid ranks only: the property must not allocate a large matrix.
RANKS = st.sampled_from([1, 2, 3, 4, 7, np.int64(5), 0, -2, 2.5, 4.0, True, MAX_RANK + 1])

ENTRY_POINTS = {
    "kernel_average": (lambda m, n, t: m.kernel_average(n, t), (RANKS, SCALARS)),
    "assemble_k": (stability.assemble_k, (SCALARS, RANKS)),
    "k_numeric": (stability.k_numeric, (SCALARS, RANKS)),
    "k_closed_form": (stability.k_closed_form, (SCALARS, RANKS)),
    "c_spectral_radius": (stability.c_spectral_radius, (SCALARS, SCALARS, RANKS, TOLERANCES)),
    "k_star": (bounds.k_star, (SCALARS,)),
    "k_sharp": (bounds.k_sharp, (SCALARS,)),
    "tc_sharp": (bounds.tc_sharp, (SCALARS,)),
    "tc_flat": (bounds.tc_flat, (SCALARS,)),
    "tc_tilde": (bounds.tc_tilde, (SCALARS,)),
    "tc_asymptotic": (bounds.tc_asymptotic, (SCALARS, RANKS)),
    "tc_n": (tc_solver.tc_n, (SCALARS, RANKS)),
    "tc_converged": (tc_solver.tc_converged, (SCALARS, SCALARS, RANKS)),
    "g_top": (lambda m, gamma, n: gamma_model.g_top(gamma, n), (SCALARS, RANKS)),
    "expected_gamma": (lambda m, gp, gamma, n: gamma_model.expected_gamma(gp, gamma, n),
                       (SCALARS, SCALARS, RANKS)),
    "scaled": (lambda m, s: m.scaled(s), (SCALARS,)),
}


@st.composite
def calls(draw):
    name = draw(st.sampled_from(sorted(ENTRY_POINTS)))
    func, strategies = ENTRY_POINTS[name]
    return name, func, draw(st.sampled_from(MEASURES)), [draw(s) for s in strategies]


def _numbers(result):
    """Every number inside a result: floats, arrays, dataclass fields."""
    if result is None or isinstance(result, str):
        return []
    if dataclasses.is_dataclass(result):
        return [x for f in dataclasses.fields(result) for x in _numbers(getattr(result, f.name))]
    if isinstance(result, (tuple, list)):
        return [x for item in result for x in _numbers(item)]
    if isinstance(result, dict):
        return [x for item in result.values() for x in _numbers(item)]
    if isinstance(result, np.ndarray):
        return result.ravel().tolist()
    return [result]


@given(calls())
@settings(max_examples=300, deadline=None)
def test_entry_points_return_finite_or_raise_the_taxonomy(call):
    name, func, m, args = call
    try:
        result = func(m, *args)
    except (ValidationError, NumericalError):
        return
    values = _numbers(result)
    assert values or (name == "tc_flat" and result is None), name  # None: undefined
    assert all(math.isfinite(v) for v in values), (name, args, result)


# -- frequency-scaling covariance across the band ------------------------------

# s = 10**log_s with T, lam and the measure scales chosen so that every input
# stays inside the band
SCALED = st.sampled_from(MEASURES[:3])


@given(SCALED, st.floats(-25.0, 25.0), st.floats(-2.0, 2.0), st.integers(1, 39))
@settings(max_examples=200, deadline=None)
def test_k_numeric_scaling_covariance(m, log_s, log_t, n):
    s, t = 10.0 ** log_s, 10.0 ** log_t
    base = stability.k_numeric(m, t, n).k_value
    assert stability.k_numeric(m.scaled(s), s * t, n).k_value == pytest.approx(base, rel=1e-9)


@given(SCALED, st.floats(-25.0, 25.0), st.floats(-30.0, 30.0), st.integers(1, 4))
@settings(max_examples=200, deadline=None)
def test_closed_forms_match_eigensolver_across_the_band(m, log_s, log_t, n):
    m, t = m.scaled(10.0 ** log_s), min(max(10.0 ** log_t, MIN_MAGNITUDE), MAX_MAGNITUDE)
    eig = stability.k_numeric(m, t, n).k_value
    assert stability.k_closed_form(m, t, n).k_value == pytest.approx(eig, rel=1e-12, abs=0.0)


@given(SCALED, st.floats(-20.0, 20.0), st.floats(-0.3, 3.0), st.integers(1, 8))
@example(MEASURES[2], 0.5, math.log10(1.0 + 4.4e-16), 1)  # the two solves differ by 2%
@settings(max_examples=30, deadline=None)
def test_tc_n_scaling_covariance(m, log_s, log_lam, n):
    s, lam = 10.0 ** log_s, 10.0 ** log_lam
    base = tc_solver.tc_n(m, lam, n)
    moved = tc_solver.tc_n(m.scaled(s), lam, n)
    assert moved.status == base.status
    if base.value is None:
        assert moved.value is None
        return
    # the scaled solve, moved back, solves the unscaled equation
    back = stability.k_numeric(m, moved.value / s, n, banded=False).lambda_upper
    assert back == pytest.approx(lam, rel=1e-9)
    # within 1e-6 of the rank floor 1/k_N is too flat in T for Tc to be well
    # conditioned: there two solves with zero backward error can differ by 2%
    if lam >= stability.k_limit_T0(n).lambda_floor * (1.0 + 1e-6):
        assert moved.value == pytest.approx(s * base.value, rel=1e-9)


# -- the bounds table at every in-band temperature -----------------------------

MEASURE_FILES = {
    "einstein": '{"type":"einstein","omega":1.0}',
    "discrete": '{"type":"discrete","atoms":[{"weight":0.5,"omega":0.8},'
                '{"weight":0.5,"omega":1.2}]}',
    "tabulated": '{"type":"tabulated","nodes":[[0.0,0.0],[0.5,2.0],[1.0,0.0]]}',
}


@pytest.fixture(scope="module")
def measure_files(tmp_path_factory):
    directory = tmp_path_factory.mktemp("measures")
    paths = {}
    for kind, text in MEASURE_FILES.items():
        paths[kind] = directory / f"{kind}.json"
        paths[kind].write_text(text, encoding="utf-8")
    return paths


@given(st.sampled_from(sorted(MEASURE_FILES)), st.floats(-30.0, 30.0))
@settings(max_examples=60, deadline=None)
def test_bounds_answers_at_every_in_band_temperature(measure_files, kind, log_t):
    # the closed forms once raised at the cold end (omega/T above ~3e3) and
    # at the hot end; every row is printed now, and rank four agrees with
    # the eigensolver wherever both are printed
    t = min(max(10.0 ** log_t, MIN_MAGNITUDE), MAX_MAGNITUDE)
    argv = ["bounds", str(measure_files[kind]), "--temperature", repr(t), "--max-n", "4"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert cli.main(argv) == 0
    assert err.getvalue() == ""
    rows = [line.split("  [")[0].rsplit(None, 1) for line in out.getvalue().splitlines()[1:]]
    values = {name.strip(): float(value) for name, value in rows}
    assert len(rows) == 14
    closed, eig = values["k_4 (closed form)"], values["k_4 (eigensolver)"]
    assert closed == pytest.approx(eig, rel=2e-12, abs=0.0)
