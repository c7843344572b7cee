import json
import math
import os
import re
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eliashberg_tc import measure
from eliashberg_tc.errors import ValidationError

NAN, INF = float("nan"), float("inf")

# one non-finite entry per case, and the entry the error message must name
NON_FINITE = [
    ("tabulated", [(0.0, 0.0), (0.5, NAN), (1.0, 0.0)], "#1"),
    ("tabulated", [(0.0, 0.0), (NAN, 2.0), (1.0, 0.0)], "#1"),
    ("discrete", [(0.5, 1.0), (NAN, 2.0)], "#1"),
    ("discrete", [(0.5, NAN), (0.5, 2.0)], "#0"),
    ("discrete", [(0.5, 1.0), (0.5, INF)], "#1"),
]
NON_FINITE_IDS = ["nan-density", "nan-node", "nan-weight", "nan-omega", "inf-omega"]


def _unit_mass(xs, ys) -> measure.SpectralMeasure:
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # small-omega advisory
        return measure.tabulated(list(zip(xs, ys / np.trapezoid(ys, xs))))


def _bumps(nodes: int, seed: int) -> measure.SpectralMeasure:
    """Smooth mixture of Gaussian bumps times omega on [0, 1], zero at 1."""
    rng = np.random.default_rng(seed)
    xs = np.linspace(0.0, 1.0, nodes)
    ys = xs * sum(
        height * np.exp(-0.5 * ((xs - centre) / width) ** 2)
        for centre, width, height in rng.uniform([0.2, 0.05, 0.3], [0.9, 0.25, 1.0], size=(3, 3))
    )
    ys[-1] = 0.0
    return _unit_mass(xs, ys)


def _rough(nodes: int, seed: int) -> measure.SpectralMeasure:
    """Independent random densities at random nodes on [0, 1]: steep segments
    whose linear coefficients nearly cancel, the hardest case for the sums."""
    rng = np.random.default_rng(seed)
    xs = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 1.0, nodes - 2)), [1.0]])
    ys = np.concatenate([[0.0], rng.uniform(0.2, 1.0, nodes - 2), [0.0]])
    return _unit_mass(xs, ys)


def _atoms(count: int, seed: int) -> measure.SpectralMeasure:
    """Random mixture of ``count`` atoms at frequencies spread over [0.05, 1]."""
    rng = np.random.default_rng(seed)
    weights = rng.uniform(0.1, 1.0, count)
    return measure.discrete(list(zip(weights / weights.sum(), rng.uniform(0.05, 1.0, count))))


def _oracle(m: measure.SpectralMeasure):
    """<<n>> at T of a tabulated density, in 40 digits, from the textbook
    antiderivatives w - c atan(w/c) and w^2/2 - (c^2/2) log1p(w^2/c^2)."""
    with mpmath.workdps(40):
        w = [mpmath.mpf(float(x)) for x in m.omegas]
        p = [mpmath.mpf(float(x)) for x in m.weights]
        beta = [(p[i + 1] - p[i]) / (w[i + 1] - w[i]) for i in range(len(w) - 1)]
        alpha = [p[i] - beta[i] * w[i] for i in range(len(w) - 1)]

    def average(t: float, n: int) -> mpmath.mpf:
        with mpmath.workdps(40):
            c = 2 * mpmath.pi * mpmath.mpf(t) * n
            f0 = [x - c * mpmath.atan(x / c) for x in w]
            f1 = [x * x / 2 - c * c / 2 * mpmath.log1p((x / c) ** 2) for x in w]
            return mpmath.fsum(
                alpha[i] * (f0[i + 1] - f0[i]) + beta[i] * (f1[i + 1] - f1[i])
                for i in range(len(alpha))
            )

    return average


def _slope_oracle(m: measure.SpectralMeasure):
    """u d<<n>>/du, u = T^2, of a tabulated density, from the antiderivatives
    c/2 atan(w/c) - c^2 w/(2(w^2+c^2)) of w^2 c^2/(w^2+c^2)^2 and
    c^2/2 (log(w^2+c^2) + c^2/(w^2+c^2)) of w^3 c^2/(w^2+c^2)^2; the second
    cancels to 1e-28 of its terms at the largest offsets, hence 60 digits."""
    with mpmath.workdps(60):
        w = [mpmath.mpf(float(x)) for x in m.omegas]
        p = [mpmath.mpf(float(x)) for x in m.weights]
        beta = [(p[i + 1] - p[i]) / (w[i + 1] - w[i]) for i in range(len(w) - 1)]
        alpha = [p[i] - beta[i] * w[i] for i in range(len(w) - 1)]

    def slope(t: float, n: int) -> mpmath.mpf:
        with mpmath.workdps(60):
            c = 2 * mpmath.pi * mpmath.mpf(t) * n
            c2 = c * c
            f0 = [c / 2 * mpmath.atan(x / c) - c2 * x / (2 * (x * x + c2)) for x in w]
            f1 = [c2 / 2 * (mpmath.log(x * x + c2) + c2 / (x * x + c2)) for x in w]
            return -mpmath.fsum(
                alpha[i] * (f0[i + 1] - f0[i]) + beta[i] * (f1[i + 1] - f1[i])
                for i in range(len(alpha))
            )

    return slope


class TestValidation:
    def test_einstein_valid(self):
        m = measure.einstein(1.0)
        assert m.omega_max == 1.0
        assert m.moment(0) == 1.0

    def test_discrete_valid(self):
        m = measure.discrete([(0.5, 0.8), (0.5, 1.2)])
        assert m.omega_max == 1.2
        assert m.moment(0) == pytest.approx(1.0, abs=1e-15)

    def test_discrete_mass_rejected(self):
        with pytest.raises(ValidationError, match="mass"):
            measure.discrete([(0.7, 1.0), (0.7, 2.0)])

    def test_nonpositive_frequency_rejected(self):
        with pytest.raises(ValidationError):
            measure.einstein(0.0)
        with pytest.raises(ValidationError):
            measure.discrete([(1.0, -2.0)])

    def test_negative_weight_rejected(self):
        with pytest.raises(ValidationError):
            measure.discrete([(1.5, 1.0), (-0.5, 2.0)])

    def test_mass_rescaled_within_tolerance(self):
        m = measure.discrete([(0.5004, 1.0), (0.5, 2.0)])
        assert m.moment(0) == pytest.approx(1.0, abs=1e-15)

    def test_tabulated_mass_rule(self):
        with pytest.raises(ValidationError, match="mass"):
            measure.tabulated([(0.0, 0.0), (0.5, 1.6), (1.0, 0.0)])  # trapezoid mass 0.8

    def test_tabulated_nodes_must_increase(self):
        with pytest.raises(ValidationError):
            measure.tabulated([(0.0, 0.0), (0.5, 2.0), (0.5, 0.0)])

    def test_small_frequency_behavior_warns_only(self):
        with pytest.warns(UserWarning):
            m = measure.tabulated([(0.5, 1.0), (1.5, 1.0)])  # flat density, no ~w onset
        assert m.moment(0) == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("kind, entries, named", NON_FINITE, ids=NON_FINITE_IDS)
    def test_non_finite_rejected(self, kind, entries, named):
        build = measure.tabulated if kind == "tabulated" else measure.discrete
        with pytest.raises(ValidationError, match=f"non-finite .*{named}="):
            build(entries)

    def test_immutable_after_validate(self):
        m = measure.einstein(1.0)
        with pytest.raises(ValueError):
            m.omegas[0] = 2.0


NON_NUMERIC_FIELDS = [
    ('{"type":"einstein","omega":"1.0"}', "omega"),
    ('{"type":"einstein","omega":null}', "omega"),
    ('{"type":"discrete","atoms":[{"weight":"abc","omega":1.0}]}', "atoms[0].weight"),
    ('{"type":"einstein","omega":[1.0]}', "omega"),
    ('{"type":"discrete","atoms":[{"weight":true,"omega":1.0}]}', "atoms[0].weight"),
    ('{"type":"tabulated","nodes":[[0.0,0.0],["0.5",2.0],[1.0,0.0]]}', "nodes[1][0]"),
]


class TestFileFormat:
    def test_einstein_shape(self):
        m = measure.from_json('{"type":"einstein","omega":1.0}')
        assert m.kind == "einstein"
        assert m.omega_max == 1.0

    def test_discrete_shape(self):
        text = '{"type":"discrete","atoms":[{"weight":0.5,"omega":0.8},{"weight":0.5,"omega":1.2}]}'
        m = measure.from_json(text)
        assert m.kind == "discrete"
        assert m.omega_max == 1.2

    def test_tabulated_shape(self):
        m = measure.from_json('{"type":"tabulated","nodes":[[0.0,0.0],[0.5,2.0],[1.0,0.0]]}')
        assert m.kind == "tabulated"
        assert m.moment(0) == pytest.approx(1.0, abs=1e-14)

    def test_load_roundtrip(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"type": "einstein", "omega": 2.0}), encoding="utf-8")
        assert measure.load(path).omega_max == 2.0

    def test_malformed_rejected(self):
        with pytest.raises(ValidationError):
            measure.from_json("not json at all")
        with pytest.raises(ValidationError):
            measure.from_json('{"type":"unknown"}')
        with pytest.raises(ValidationError):
            measure.from_json('{"omega": 1.0}')
        # non-numeric fields, named in the message
        for text, field in NON_NUMERIC_FIELDS:
            with pytest.raises(ValidationError, match=re.escape(f"{field}=")):
                measure.from_json(text)


class TestMoments:
    def test_einstein_exact(self):
        assert measure.einstein(2.0).moment(2) == 4.0

    def test_discrete_weighted_sum(self):
        m = measure.discrete([(0.5, 1.0), (0.5, 3.0)])
        assert m.moment(2) == pytest.approx(5.0, abs=1e-14)

    def test_triangle_second_moment(self, triangle):
        # density 2w on [0, 1] has second moment 1/2, and the symmetric
        # triangle peaked at 1/2 has 1/16 + 11/48 = 7/24 (calculus oracles)
        ramp = measure.tabulated([(0.0, 0.0), (1.0, 2.0)])
        assert ramp.moment(2) == pytest.approx(0.5, rel=1e-12)
        assert triangle.moment(2) == pytest.approx(7.0 / 24.0, rel=1e-10)

    def test_tabulated_odd_and_high_orders(self):
        # density 2w on [0, 1]: <w^k> = 2 / (k + 2)
        ramp = measure.tabulated([(0.0, 0.0), (0.5, 1.0), (1.0, 2.0)])
        for k in (0, 1, 3, 5, 9, 30):
            assert ramp.moment(k) == pytest.approx(2.0 / (k + 2), rel=1e-14)

    def test_memoised_values_are_the_direct_ones_bitwise(self, two_atoms, triangle):
        # the memo returns exactly what the direct evaluation gives, on the
        # first request and every later one, whatever integer type asks
        for m in (measure.einstein(1.7), two_atoms, triangle):
            for k in (0, 1, 2, 4, 7):
                if m.kind == "tabulated":
                    direct = float(measure._moments(m.segments, k)[k])
                else:
                    direct = float(np.sum(m.weights * m.omegas ** k))
                assert m.moment(k) == direct
                assert m.moment(np.int64(k)) == direct
                assert m.moment(k) == direct
        assert sorted(triangle._moment_memo) == [0, 1, 2, 4, 7]
        assert triangle.scaled(2.0).moment(2) == pytest.approx(4.0 * triangle.moment(2), rel=1e-14)


class TestMatsubaraAverages:
    def test_varpi_one_values(self):
        t = 0.25
        m = measure.einstein(2.0 * math.pi * t)
        assert m.kernel_average(1, t) == pytest.approx(0.5, abs=1e-15)
        assert m.kernel_average(2, t) == pytest.approx(0.2, abs=1e-15)

    def test_decreasing_in_index(self, two_atoms, triangle):
        rng = np.random.default_rng(0)
        for m in (two_atoms, triangle, measure.einstein(1.7)):
            for _ in range(3):
                t = float(rng.uniform(0.02, 3.0))
                vals = m.kernel_values(t, 17)[1:]
                assert np.all(np.diff(vals) < 0.0)

    def test_decreasing_in_index_random_measures(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            k = int(rng.integers(1, 6))
            weights = rng.random(k)
            weights /= weights.sum()
            atoms = list(zip(weights, rng.uniform(0.1, 4.0, size=k)))
            m = measure.discrete(atoms)
            t = float(rng.uniform(0.02, 3.0))
            vals = m.kernel_values(t, 17)[1:]
            assert np.all(np.diff(vals) < 0.0)

    def test_decreasing_in_temperature(self, two_atoms):
        temps = np.geomspace(0.01, 10.0, 12)
        vals = [two_atoms.kernel_average(1, float(t)) for t in temps]
        assert np.all(np.diff(vals) < 0.0)

    def test_high_temperature_vanishes(self, two_atoms, triangle):
        for m in (two_atoms, triangle):
            t = 1e6 * m.omega_max
            assert m.kernel_average(1, t) <= 1e-10

    def test_high_temperature_normalization(self, two_atoms, triangle):
        for m in (two_atoms, triangle, measure.einstein(0.3)):
            t = 1e4 * m.omega_max
            v = m.kernel_average(3, t)
            assert v * (6.0 * math.pi * t) ** 2 / m.moment(2) == pytest.approx(1.0, abs=1e-6)

    def test_low_temperature_limit(self, two_atoms):
        t = 1e-6 * float(np.min(two_atoms.omegas))
        assert two_atoms.kernel_average(1, t) == pytest.approx(1.0, abs=1e-9)

    def test_discrete_exactness(self):
        m = measure.discrete([(0.25, 0.5), (0.75, 2.0)])
        for n in (1, 3):
            for t in (0.07, 0.9):
                want = 0.25 * 0.25 / (0.25 + (2 * n * math.pi * t) ** 2) + 0.75 * 4.0 / (
                    4.0 + (2 * n * math.pi * t) ** 2
                )
                assert m.kernel_average(n, t) == pytest.approx(want, abs=1e-14)

    def test_tabulated_against_quadrature(self, triangle):
        # against the 40-digit antiderivative oracle defined above
        want = float(_oracle(triangle)(0.2, 1))
        assert triangle.kernel_average(1, 0.2) == pytest.approx(want, rel=1e-9)

    def test_domain_errors(self, einstein_unit):
        with pytest.raises(ValidationError):
            einstein_unit.kernel_average(1, 0.0)
        with pytest.raises(ValidationError):
            einstein_unit.kernel_average(0, 1.0)


class TestSegmentTable:
    def test_rows_follow_nodes(self, triangle):
        a, b, pa, pb = triangle.segments
        assert a.tolist() == [0.0, 0.5]
        assert b.tolist() == [0.5, 1.0]
        assert pa.tolist() == [0.0, 2.0]
        assert pb.tolist() == [2.0, 0.0]

    def test_atoms_have_none(self, two_atoms):
        assert two_atoms.segments is None

    def test_scaling_that_merges_nodes(self):
        # adjacent doubles that round to one value when scaled
        lo, hi, s = 0.8184808436607272, 0.8184808436607273, 0.9046800706458055
        assert lo < hi and lo * s == hi * s
        m = _unit_mass([0.0, lo, hi, 1.0], [0.0, 1.0, 1.0, 0.0])
        scaled = m.scaled(s)
        assert scaled.segments.shape == (4, 2)
        got = scaled.kernel_values(0.1 * s, 7)
        assert got == pytest.approx(m.kernel_values(0.1, 7), rel=1e-12)
        assert scaled.moment(2) == pytest.approx(m.moment(2) * s * s, rel=1e-12)

    def test_scaling_that_merges_every_node(self):
        # no segment is left, so no mass: every average and slope is zero
        lo, hi, s = 0.8184808436607272, 0.8184808436607273, 0.9046800706458055
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # small-omega advisory
            scaled = measure.tabulated([(lo, 0.0), (hi, 2.0 / (hi - lo))]).scaled(s)
        assert scaled.segments.shape == (4, 0)
        values, slopes = scaled.kernel_values(0.01, 7, slopes=True)
        assert not values.any() and not slopes.any()


ORACLE_MEASURES = {
    "triangle": lambda: measure.tabulated([(0.0, 0.0), (0.5, 2.0), (1.0, 0.0)]),
    "bumps-50": lambda: _bumps(50, 1),
    "rough-200": lambda: _rough(200, 2),
    "rough-1000": lambda: _rough(1000, 3),
}


class TestTabulatedOracle:
    @pytest.mark.parametrize("name", list(ORACLE_MEASURES))
    def test_matches_mpmath(self, name):
        m = ORACLE_MEASURES[name]()
        oracle = _oracle(m)
        for t_over in (1e-4, 1e-2, 1.0, 1e2):
            t = t_over * m.omega_max
            values = m.kernel_values(t, 2047)
            for n in (1, 31, 2047):
                want = oracle(t, n)
                assert abs(values[n] - want) <= 1e-12 * want, (t_over, n)

    def test_moments_match_mpmath(self):
        m = ORACLE_MEASURES["rough-1000"]()
        with mpmath.workdps(40):
            w = [mpmath.mpf(float(x)) for x in m.omegas]
            p = [mpmath.mpf(float(x)) for x in m.weights]
            for k in (2, 4, 9):
                want = mpmath.mpf(0)
                for i in range(len(w) - 1):
                    # exact integral of (alpha + beta w) w^k over the segment
                    beta = (p[i + 1] - p[i]) / (w[i + 1] - w[i])
                    alpha = p[i] - beta * w[i]
                    want += alpha * (w[i + 1] ** (k + 1) - w[i] ** (k + 1)) / (k + 1)
                    want += beta * (w[i + 1] ** (k + 2) - w[i] ** (k + 2)) / (k + 2)
                assert abs(m.moment(k) - want) <= 1e-14 * want, k

    @pytest.mark.parametrize("name, count", [("triangle", 2047), ("rough-1000", 127)])
    def test_extreme_temperatures_stay_finite(self, name, count):
        m = ORACLE_MEASURES[name]()
        for ratio in np.geomspace(1e-100, 1e100, 21):
            with np.errstate(all="raise"):
                values = m.kernel_values(m.omega_max / ratio, count)[1:]
            assert np.all(np.isfinite(values))
            assert np.all((values >= 0.0) & (values <= 1.0))

    def test_vanishing_temperature(self, triangle):
        values = triangle.kernel_values(1e-160, 3)[1:]
        assert values.tolist() == [1.0, 1.0, 1.0]


class TestKernelSlopes:
    @pytest.mark.parametrize("name", list(ORACLE_MEASURES))
    def test_matches_mpmath(self, name):
        m = ORACLE_MEASURES[name]()
        oracle = _slope_oracle(m)
        for t_over in (1e-4, 1e-2, 1.0, 1e2):
            t = t_over * m.omega_max
            slopes = m.kernel_slopes(t, 2047)
            for n in (1, 31, 2047):
                want = oracle(t, n)
                assert abs(slopes[n] - want) <= 1e-11 * abs(want), (t_over, n)

    @pytest.mark.parametrize("atoms", [[(1.0, 1.0)], [(0.25, 0.5), (0.75, 2.0)],
                                       [(0.2, 0.3), (0.5, 1.0), (0.3, 4.0)]])
    def test_atoms_closed_form(self, atoms):
        m = measure.discrete(atoms)
        for t in (1e-3, 0.07, 0.9, 40.0):
            slopes = m.kernel_slopes(t, 9)
            assert slopes[0] == 0.0
            for n in range(1, 10):
                c2 = (2 * n * math.pi * t) ** 2
                want = -sum(p * w * w * c2 / (w * w + c2) ** 2 for p, w in atoms)
                assert slopes[n] == pytest.approx(want, rel=1e-14)

    def test_einstein_at_unit_ratio(self):
        # x = 1/2 at 2 pi T = omega, so the slope there is -1/4, the least one
        t = 0.25
        m = measure.einstein(2.0 * math.pi * t)
        assert m.kernel_slopes(t, 2)[1:].tolist() == pytest.approx([-0.25, -0.16], abs=1e-15)

    @pytest.mark.parametrize("name, count", [("triangle", 2047), ("rough-1000", 127),
                                             ("einstein", 2047), ("two-atoms", 2047)])
    def test_extreme_temperatures_stay_finite(self, name, count):
        m = {"einstein": lambda: measure.einstein(1.0),
             "two-atoms": lambda: measure.discrete([(0.5, 0.8), (0.5, 1.2)]),
             **ORACLE_MEASURES}[name]()
        for ratio in np.geomspace(1e-100, 1e100, 21):
            with np.errstate(all="raise"):
                slopes = m.kernel_slopes(m.omega_max / ratio, count)[1:]
            assert np.all(np.isfinite(slopes))
            assert np.all((slopes >= -0.25) & (slopes <= 0.0))


@st.composite
def densities(draw):
    """Unit-mass piecewise-linear densities with 3-60 nodes, support in
    [0, 10], vanishing at both ends."""
    count = draw(st.integers(min_value=3, max_value=60))
    gaps = draw(st.lists(st.floats(0.01, 1.0), min_size=count - 1, max_size=count - 1))
    inner = draw(st.lists(st.floats(0.05, 1.0), min_size=count - 2, max_size=count - 2))
    xs = np.concatenate([[0.0], np.cumsum(gaps)])
    xs *= draw(st.floats(0.1, 10.0)) / xs[-1]
    return _unit_mass(xs, [0.0] + inner + [0.0])


class TestTabulatedProperties:
    @given(densities(), st.floats(-3.0, 1.0), st.integers(2, 64))
    @settings(max_examples=40, deadline=None)
    def test_in_unit_interval_and_decreasing(self, m, log_t, count):
        values = m.kernel_values(10.0 ** log_t * m.omega_max, count)[1:]
        assert np.all((values >= 0.0) & (values < 1.0))
        assert np.all(np.diff(values) < 0.0)

    @given(densities(), st.floats(-3.0, 1.0), st.floats(-3.0, 3.0))
    @settings(max_examples=40, deadline=None)
    def test_scaling_covariance(self, m, log_t, log_s):
        t, s = 10.0 ** log_t * m.omega_max, 10.0 ** log_s
        want = m.kernel_values(t, 32)[1:]
        got = m.scaled(s).kernel_values(s * t, 32)[1:]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


# -- one pass for the averages and their slopes --------------------------------


def _reference_averages(unit, offsets):
    """Tabulated averages by the segment routine that once served the
    averages alone (``unit``: the segment table in units of omega_max)."""
    a, b, pa, pb = unit
    beta = (pb - pa) / (b - a)
    alpha = pa - beta * a
    h, ab, a2 = b - a, a * b, a * a
    sq_diff = h * (a + b)
    c = np.maximum(offsets, measure._OFFSET_FLOOR)[:, None]
    c2 = c * c
    d = c2 + ab
    u = c * h / d
    first = h * (ab / d)
    j0 = first + c * (u - np.arctan(u))
    series = (u < measure._SERIES_BELOW ** 0.5) & (c2 > ab)
    s = u[series] ** 2
    j0[series] = first[series] + (c * u)[series] * s * measure._horner(s, measure._ATAN_SERIES)
    d = c2 + a2
    v = sq_diff / d
    first = sq_diff * (a2 / d)
    j1 = first + c2 * (v - np.log1p(v))
    series = (v < measure._SERIES_BELOW) & (c2 > a2)
    s = v[series]
    j1[series] = first[series] + (c2 * v)[series] * s * measure._horner(s, measure._LOG_SERIES)
    return np.minimum(j0 @ alpha + 0.5 * (j1 @ beta), 1.0)


def _reference_slopes(unit, offsets):
    """Tabulated averages of x (1 - x) by the segment routine that once
    served the slopes alone, forming every operand again."""
    a, b, pa, pb = unit
    beta = (pb - pa) / (b - a)
    alpha = pa - beta * a
    c = np.maximum(offsets, measure._OFFSET_FLOOR)[:, None]
    a, b, c = np.broadcast_arrays(a, b, c)
    h, ab, a2, b2, c2 = b - a, a * b, a * a, b * b, c * c
    r = c2 / (c2 + a2)
    d = c2 + ab
    u = c * h / d
    i0 = 0.5 * c * np.arctan(u) + 0.5 * h * r * (ab - c2) / (b2 + c2)
    s = (c2 > ab) & (u < 1.0)
    us = u[s]
    diff = np.where(us < measure._SERIES_BELOW ** 0.5,
                    us ** 3 * measure._horner(us * us, measure._ATAN_SERIES), us - np.arctan(us))
    i0[s] = (0.5 * h[s] * r[s] * (2.0 * ab[s] ** 2 + c2[s] * (a2[s] + b2[s]))
             / (d[s] * (b2[s] + c2[s])) - 0.5 * c[s] * diff)
    v = h * (a + b) / (c2 + a2)
    i1 = 0.5 * c2 * (np.log1p(v) - r * v / (1.0 + v))
    s = (c2 > a2) & (v < 1.0)
    vs = v[s]
    diff = np.where(vs < measure._SERIES_BELOW, vs * vs * measure._horner(vs, measure._LOG_SERIES),
                    vs - np.log1p(vs))
    i1[s] = 0.5 * c2[s] * (vs * (1.0 - r[s] + vs) / (1.0 + vs) - diff)
    return np.clip(i0 @ alpha + i1 @ beta, 0.0, 0.25)


def _reference_pair(m, t, count):
    """``kernel_values(t, count)`` and ``kernel_slopes(t, count)`` as two
    separate routines computed them: the bits the one pass must keep."""
    values, slopes = np.zeros(count + 1), np.zeros(count + 1)
    with np.errstate(over="ignore"):
        c = 2.0 * np.pi * t * np.arange(1, count + 1, dtype=float)
        if m.kind != "tabulated":
            w2 = m.omegas ** 2
            values[1:] = np.sum(m.weights[None, :] * w2[None, :] / (w2[None, :] + c[:, None] ** 2),
                                axis=1)
            q = c[:, None] / m.omegas[None, :]
            p = np.minimum(q, 1.0 / q)
            root = p / (1.0 + p * p)
            slopes[1:] = -(root * root) @ m.weights
            return values, slopes
        scale = m.omega_max
        offsets = c / scale
    unit = m.segments * np.array([[1.0 / scale], [1.0 / scale], [scale], [scale]])
    moments = measure._moments(unit, 2 * measure._MOMENT_TERMS)[2::2]
    low = int(np.searchsorted(offsets, measure._MOMENT_OFFSET))
    if low:
        values[1:1 + low] = _reference_averages(unit, offsets[:low])
        slopes[1:1 + low] = -_reference_slopes(unit, offsets[:low])
    if low < count:
        x = np.reciprocal(offsets[low:]) ** 2
        values[1 + low:] = x * measure._horner(-x, moments)
        weighted = moments * np.arange(1, measure._MOMENT_TERMS + 1)
        slopes[1 + low:] = -x * measure._horner(-x, weighted)
    return values, slopes


def _assert_pass_is_reference(m, t, count):
    values, slopes = m.kernel_values(t, count, slopes=True)
    want_values, want_slopes = _reference_pair(m, t, count)
    assert values.tobytes() == want_values.tobytes(), (t, count)
    assert slopes.tobytes() == want_slopes.tobytes(), (t, count)
    assert m.kernel_values(t, count).tobytes() == want_values.tobytes(), (t, count)
    assert m.kernel_slopes(t, count).tobytes() == want_slopes.tobytes(), (t, count)


def _threshold_temperatures(m):
    """Temperatures at which the first offset c = 2 pi T / omega_max meets
    _MOMENT_OFFSET, or u = c h/(c^2+ab) (above c^2 = ab) meets 1/4 and 1, or
    v = (b^2-a^2)/(c^2+a^2) (above c^2 = a^2) meets 1/16 and 1, on the
    first, a middle and the last segment, each just below and just above."""
    offsets = [measure._MOMENT_OFFSET]
    a, b, _, _ = m.segments / m.omega_max
    for j in {0, len(a) // 2, len(a) - 1}:
        h, ab, span = b[j] - a[j], a[j] * b[j], b[j] ** 2 - a[j] ** 2
        for level in (measure._SERIES_BELOW ** 0.5, 1.0):
            if h * h > 4.0 * level * level * ab:
                offsets.append((h + math.sqrt(h * h - 4.0 * level * level * ab)) / (2.0 * level))
        for level in (measure._SERIES_BELOW, 1.0):
            if span > 2.0 * level * a[j] ** 2:
                offsets.append(math.sqrt(span / level - a[j] ** 2))
    return [c * m.omega_max / (2.0 * math.pi) * (1.0 + side)
            for c in offsets for side in (-1e-9, 1e-9)]


PASS_MEASURES = {
    **ORACLE_MEASURES,
    "gapped": lambda: measure.tabulated([(0.5, 0.0), (1.0, 1.0), (1.5, 1.0), (2.0, 0.0)]),
    "einstein": lambda: measure.einstein(1.3),
    "two-atoms": lambda: measure.discrete([(0.5, 0.8), (0.5, 1.2)]),
    "five-atoms": lambda: measure.discrete([(0.1, 0.2), (0.3, 0.5), (0.2, 1.0), (0.3, 1.7),
                                            (0.1, 2.0)]),
    "atoms-3000": lambda: _atoms(3000, 4),
}


class TestKernelPass:
    @pytest.mark.parametrize("name", list(PASS_MEASURES))
    def test_pass_keeps_the_bits_of_the_separate_routines(self, name):
        m = PASS_MEASURES[name]()
        for ratio in np.geomspace(1e-4, 3.0, 9):
            for count in (1, 7, 63):
                _assert_pass_is_reference(m, ratio * m.omega_max, count)

    @pytest.mark.parametrize("name", ["triangle", "bumps-50", "rough-200", "gapped"])
    def test_pass_at_the_route_and_series_thresholds(self, name):
        m = PASS_MEASURES[name]()
        temperatures = _threshold_temperatures(m)
        assert len(temperatures) >= 10
        for t in temperatures:
            for count in (1, 3, 31):
                _assert_pass_is_reference(m, t, count)

    @given(densities(), st.floats(-4.0, 1.0), st.integers(1, 80))
    @settings(max_examples=60, deadline=None)
    def test_pass_on_random_densities(self, m, log_t, count):
        _assert_pass_is_reference(m, 10.0 ** log_t * m.omega_max, count)

    @pytest.mark.parametrize("name, count", [("triangle", 2047), ("rough-1000", 127),
                                             ("einstein", 2047), ("two-atoms", 2047),
                                             ("atoms-3000", 2047)])
    def test_extreme_temperatures_stay_finite(self, name, count):
        m = PASS_MEASURES[name]()
        for ratio in np.geomspace(1e-100, 1e100, 21):
            with np.errstate(all="raise"):
                values, slopes = m.kernel_values(m.omega_max / ratio, count, slopes=True)
            assert np.all((values[1:] >= 0.0) & (values[1:] <= 1.0))
            assert np.all((slopes[1:] >= -0.25) & (slopes[1:] <= 0.0))

    def test_memory_stays_below_the_separate_routines(self):
        # 2000 nodes, T = 1e-3 omega_max, 511 averages: nearly every offset
        # lies on the segment route and inside a series.  The routines the
        # pass replaced peaked at 75 MiB (averages) and 127 MiB (slopes).
        m = _rough(2000, 5)
        t = 1e-3 * m.omega_max
        peaks = []
        for slopes in (False, True):
            tracemalloc.start()
            try:
                m.kernel_values(t, 511, slopes=slopes)
                peaks.append(tracemalloc.get_traced_memory()[1] / 2 ** 20)
            finally:
                tracemalloc.stop()
        assert peaks[0] <= 75.0 and peaks[1] <= 127.0, peaks

    @pytest.mark.parametrize("name", ["rough-1000", "atoms-3000"])
    def test_blocks_keep_the_bits(self, name, monkeypatch):
        # 16-row blocks (the fewest a block holds) and one block for the
        # whole grid give every average and slope the same bits.  Only with
        # one BLAS thread, as the benchmark runs: several may split a
        # whole-grid product between rows that are not 16 apart (at 2047
        # averages on rough-1000 at T = 1e-3, two threads move 2 averages)
        threads = [os.environ.get(key) for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")]
        blocks = (1, 500, 1 << 40) if "1" in threads or os.cpu_count() == 1 else (1, 500)
        m = PASS_MEASURES[name]()
        for count in (63, 511, 2047):
            for ratio in (1e-4, 1e-3, 1e-2, 0.1, 3.0):
                t = ratio * m.omega_max
                passes = set()
                for block in blocks:
                    monkeypatch.setattr(measure, "_BLOCK", block)
                    values, slopes = m.kernel_values(t, count, slopes=True)
                    passes.add(values.tobytes() + slopes.tobytes())
                assert len(passes) == 1, (count, ratio)

    @pytest.mark.parametrize("name", ["rough-5000", "atoms-5000"])
    def test_memory_is_bounded_at_the_rank_4096_kernel_length(self, name):
        # 8191 averages and slopes at T = 1e-3 omega_max, where the 5000-node
        # density has 636 rows on the segment route: a whole grid peaked at
        # 1200 MiB (density) and 1250 MiB (atoms)
        m = _rough(5000, 6) if name == "rough-5000" else _atoms(5000, 6)
        tracemalloc.start()
        try:
            m.kernel_values(1e-3 * m.omega_max, 8191, slopes=True)
            peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
        finally:
            tracemalloc.stop()
        assert peak < 64.0, peak
