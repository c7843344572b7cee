import json
import math
import re
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eliashberg_tc import measure
from eliashberg_tc.errors import ValidationError
from eliashberg_tc.numerics import integrate_adaptive

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

    def test_validate_passthrough_and_dict(self):
        m = measure.einstein(1.0)
        assert measure.validate(m) is m
        assert measure.validate({"type": "einstein", "omega": 3.0}).omega_max == 3.0
        with pytest.raises(ValidationError):
            measure.validate([1, 2, 3])


class TestMoments:
    def test_einstein_exact(self):
        assert measure.einstein(2.0).moment(2) == 4.0

    def test_discrete_weighted_sum(self):
        m = measure.discrete([(0.5, 1.0), (0.5, 3.0)])
        assert m.moment(2) == pytest.approx(5.0, abs=1e-14)

    def test_triangle_second_moment(self, triangle):
        # density 2w on [0, 1] has second moment 1/2 (calculus oracle);
        # the symmetric triangle peaked at 1/2 is checked by quadrature below
        ramp = measure.tabulated([(0.0, 0.0), (1.0, 2.0)])
        assert ramp.moment(2) == pytest.approx(0.5, rel=1e-12)
        want = integrate_adaptive(
            lambda w: (4 * w if w <= 0.5 else 4 * (1 - w)) * w * w, 0.0, 1.0, 1e-12
        )
        assert triangle.moment(2) == pytest.approx(want, rel=1e-10)

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
        t = 0.2
        c = 2.0 * math.pi * t

        def density(w):
            return 4.0 * w if w <= 0.5 else 4.0 * (1.0 - w)

        want = integrate_adaptive(lambda w: density(w) * w * w / (w * w + c * c), 0.0, 1.0, 1e-12)
        assert triangle.kernel_average(1, t) == pytest.approx(want, rel=1e-9)

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
