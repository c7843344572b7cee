import math

import numpy as np
import pytest

from eliashberg_tc.errors import BracketError, NumericalError, ValidationError
from eliashberg_tc.numerics import (
    bisect_monotone,
    integrate_adaptive,
    newton_bracketed,
    power_iteration_positive,
    riemann_zeta,
    sym_eig_top,
)

# zeta oracle: direct summation of 1e7 terms plus integral tail bound,
# computed once and frozen here
ZETA_ORACLE = {
    1.3: 3.931949211809544,
    1.65: 2.160882916306049,
    2.0: 1.6449340668482264,
    3.0: 1.202056903159594,
    4.35: 1.061725460440952,
    5.0: 1.036927755143370,
}


class TestSymEigTop:
    def test_identity_case(self):
        pair = sym_eig_top(np.array([[0.5]]))
        assert pair.value == 0.5
        assert pair.vector.tolist() == [1.0]

    def test_swap_matrix(self):
        pair = sym_eig_top(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert pair.value == pytest.approx(1.0, abs=1e-14)
        assert pair.vector == pytest.approx([1 / math.sqrt(2)] * 2, abs=1e-14)

    def test_rank_two_stability_block(self):
        # kernel averages at dimensionless frequency one: 1/2, 1/5, 1/10;
        # top eigenvalue frozen from trace/determinant hand arithmetic
        # (tr = 1/5, det = -47/150)
        k1, k2, k3 = 0.5, 0.2, 0.1
        mat = np.array(
            [[k1, (k1 + k2) / math.sqrt(3.0)],
             [(k1 + k2) / math.sqrt(3.0), (k3 - 2.0 * k1) / 3.0]]
        )
        assert sym_eig_top(mat).value == pytest.approx(0.668624070307733, rel=1e-13)

    def test_residual_contract(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(12, 12))
        mat = (a + a.T) / 2.0
        pair = sym_eig_top(mat)
        assert np.linalg.norm(mat @ pair.vector - pair.value * pair.vector) <= 1e-10 * (
            1.0 + abs(pair.value)
        )
        assert np.linalg.norm(pair.vector) == pytest.approx(1.0, abs=1e-14)

    def test_sign_normalization(self):
        pair = sym_eig_top(np.diag([2.0, 1.0]))
        assert pair.vector[0] > 0.0

    def test_shift_covariance(self):
        rng = np.random.default_rng(8)
        a = rng.normal(size=(7, 7))
        mat = (a + a.T) / 2.0
        for c in (-3.7, 0.25, 11.0):
            assert sym_eig_top(mat + c * np.eye(7)).value == pytest.approx(
                sym_eig_top(mat).value + c, abs=1e-10
            )

    def test_rejects_nonfinite(self):
        with pytest.raises(ValidationError):
            sym_eig_top(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValidationError):
            sym_eig_top(np.array([[1.0, 2.0], [2.0 + 1e-12, 1.0]]))


class TestPowerIteration:
    def test_identity_map(self):
        assert power_iteration_positive(lambda x: x, 5, tol=1e-12) == pytest.approx(1.0)

    def test_swap_map(self):
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert power_iteration_positive(lambda x: swap @ x, 2, tol=1e-12) == pytest.approx(1.0)

    def test_positive_matrix_radius(self):
        rng = np.random.default_rng(1)
        mat = rng.random((8, 8)) + 0.05
        want = np.max(np.abs(np.linalg.eigvals(mat)))
        got = power_iteration_positive(lambda x: mat @ x, 8, tol=1e-12)
        assert got == pytest.approx(want, rel=1e-10)

    def test_iteration_cap(self):
        # a rotation-like map mixes components forever; with a permutation
        # (period 3) the min/max ratios never contract
        perm = np.eye(3)[[1, 2, 0]]
        scale = np.diag([1.0, 2.0, 0.5]) @ perm
        with pytest.raises(NumericalError):
            power_iteration_positive(lambda x: scale @ x, 3, tol=1e-14, max_iter=50)

    def test_rejects_bad_tol(self):
        with pytest.raises(ValidationError):
            power_iteration_positive(lambda x: x, 3, tol=0.0)


class TestRiemannZeta:
    def test_known_closed_forms(self):
        assert riemann_zeta(2.0) == pytest.approx(math.pi ** 2 / 6.0, abs=1e-13)
        assert riemann_zeta(4.0) == pytest.approx(math.pi ** 4 / 90.0, abs=1e-13)

    @pytest.mark.parametrize("s", sorted(ZETA_ORACLE))
    def test_against_direct_summation_oracle(self, s):
        assert riemann_zeta(s) == pytest.approx(ZETA_ORACLE[s], abs=1e-10)

    def test_three_significant_figures_near_one(self):
        assert riemann_zeta(1.65) == pytest.approx(2.16, abs=5e-3)

    def test_domain_error(self):
        for s in (1.0, 0.5, -2.0):
            with pytest.raises(ValidationError):
                riemann_zeta(s)


class TestBisection:
    def test_linear(self):
        assert bisect_monotone(lambda x: x, 0.0, 1.0, 0.3, tol=1e-12) == pytest.approx(
            0.3, abs=1e-11
        )

    def test_square(self):
        assert bisect_monotone(lambda x: x * x, 0.0, 10.0, 4.0, tol=1e-12) == pytest.approx(
            2.0, abs=1e-10
        )

    def test_decreasing_direction_autodetected(self):
        got = bisect_monotone(lambda x: 1.0 - x, 0.0, 1.0, 0.25, tol=1e-12)
        assert got == pytest.approx(0.75, abs=1e-11)

    def test_coupling_bound_inverse(self):
        # reciprocal of the rank-one average for a single atom: the crossing
        # of 1/k_1 = 2 sits at T = 1/(2 pi) when the atom is at frequency 1
        def coupling(t):
            return (1.0 + (2.0 * math.pi * t) ** 2) / 1.0

        got = bisect_monotone(coupling, 1e-4, 1.0, 2.0, tol=1e-13)
        assert got == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-10)

    def test_bracket_error_reports_endpoints(self):
        with pytest.raises(BracketError) as err:
            bisect_monotone(lambda x: x, 0.0, 1.0, 5.0)
        assert err.value.f_lo == 0.0
        assert err.value.f_hi == 1.0


def _recorded(f):
    """``f`` with every abscissa it is called at appended to ``f.points``."""
    points = []

    def wrapped(x):
        points.append(x)
        return f(x)

    wrapped.points = points
    return wrapped


class TestNewtonBracketed:
    def test_open_above(self):
        # log x - 3 from x0 = 1: the bracket is (0, inf) until a positive value
        f = _recorded(lambda x: (math.log(x) - 3.0, 1.0 / x))
        assert newton_bracketed(f, 1.0) == pytest.approx(math.exp(3.0), rel=1e-15)
        assert len(set(f.points)) == len(f.points) <= 10

    def test_overshoot_below_zero_falls_back(self):
        # sqrt(x) - 1e-3 from x0 = 1: the Newton step leaves (0, inf) downward
        f = _recorded(lambda x: (math.sqrt(x) - 1e-3, 0.5 / math.sqrt(x)))
        assert newton_bracketed(f, 1.0) == pytest.approx(1e-6, rel=1e-15)
        assert len(set(f.points)) == len(f.points)

    def test_slope_not_positive_bisects(self):
        f = _recorded(lambda x: (x - 0.3, 0.0))
        assert newton_bracketed(f, 0.9, tol=1e-12) == pytest.approx(0.3, rel=1e-11)
        assert len(set(f.points)) == len(f.points)

    def test_oscillation_bisects(self):
        # a wrong slope of a fixed size makes Newton steps turn back and forth
        got = newton_bracketed(lambda x: (math.atan(x - 0.7), 0.4), 0.2)
        assert got == pytest.approx(0.7, rel=1e-8)

    def test_no_sign_change(self):
        with pytest.raises(NumericalError, match="in 100 evaluations"):
            newton_bracketed(lambda x: (-1.0, 0.0), 1.0)

    @pytest.mark.parametrize("x0", [0.0, -1.0, math.inf, math.nan])
    def test_start_not_positive(self, x0):
        with pytest.raises(ValidationError, match="start"):
            newton_bracketed(lambda x: (x, 1.0), x0)


class TestAdaptiveQuadrature:
    def test_constant(self):
        assert integrate_adaptive(lambda w: 1.0, 0.0, 1.0) == pytest.approx(1.0, rel=1e-12)

    def test_linear_density(self):
        assert integrate_adaptive(lambda w: 2.0 * w, 0.0, 1.0) == pytest.approx(1.0, rel=1e-12)

    def test_rational_kernel(self):
        # calculus oracle: 1 - ln 2
        got = integrate_adaptive(lambda w: 2.0 * w * w * w / (w * w + 1.0), 0.0, 1.0)
        assert got == pytest.approx(1.0 - math.log(2.0), rel=1e-9)
        assert got == pytest.approx(0.30685, abs=5e-6)

    def test_orientation(self):
        assert integrate_adaptive(lambda w: w, 1.0, 0.0) == pytest.approx(-0.5, rel=1e-10)

    def test_nonfinite_reports_abscissa(self):
        from eliashberg_tc.errors import QuadratureError

        with pytest.raises(QuadratureError) as err:
            integrate_adaptive(lambda w: 1.0 / w, 0.0, 1.0)
        assert err.value.abscissa == 0.0
