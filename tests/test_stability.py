import math

import mpmath
import numpy as np
import pytest

from eliashberg_tc import gamma_model, measure, stability
from eliashberg_tc.errors import NumericalError, ValidationError


def varpi_atom(varpi, t=1.0 / (2.0 * math.pi)):
    """Single atom with prescribed dimensionless frequency at temperature t."""
    return measure.einstein(varpi * 2.0 * math.pi * t), t


class TestAssembly:
    @pytest.mark.parametrize("case", ["einstein", "discrete", "tabulated", "ultracold", "gamma"])
    def test_split_operator_rebuilds_matrix(self, case, einstein_unit, two_atoms, triangle):
        # exchange - diag(drag) is the assembled truncation, bit for bit
        n = 7
        if case == "gamma":
            op = gamma_model.assemble_gamma(2.0, n)
            kernel = np.zeros(2 * n)
            kernel[1:] = np.arange(1, 2 * n, dtype=float) ** -2.0
        else:
            m = {"discrete": two_atoms, "tabulated": triangle}.get(case, einstein_unit)
            op = stability.assemble_k(m, 1e-10 if case == "ultracold" else 0.13, n)
            kernel = op.kernel
            assert np.all(kernel[1:] == 1.0) == (case == "ultracold")
        exchange, drag = stability.split_operator(kernel, n)
        assert np.array_equal(exchange - np.diag(drag), op.matrix)

    @pytest.mark.parametrize("n", [1, 2, 3, 64, 513])
    def test_strided_views_equal_gathers(self, n):
        # the index-array form the strided views replace, bit for bit
        kernel = np.random.default_rng(n).random(2 * n)
        kernel[0] = 0.0
        idx = np.arange(n)
        inv_sqrt = 1.0 / np.sqrt(2.0 * idx + 1.0)
        diff = np.abs(idx[:, None] - idx[None, :])
        summ = idx[:, None] + idx[None, :] + 1
        gathered = (kernel[diff] + kernel[summ]) * np.outer(inv_sqrt, inv_sqrt)
        exchange, _ = stability.split_operator(kernel, n)
        assert np.array_equal(exchange, gathered)

    def test_rank_one_entry(self):
        m, t = varpi_atom(1.0)
        op = stability.assemble_k(m, t, 1)
        assert op.matrix[0, 0] == pytest.approx(0.5, abs=1e-15)

    def test_rank_two_diagonal_drag(self):
        # hand evaluation at dimensionless frequency one:
        # (<<3>> - 2 <<1>>) / 3 = (0.1 - 1.0) / 3 = -0.3
        m, t = varpi_atom(1.0)
        op = stability.assemble_k(m, t, 2)
        assert op.matrix[1, 1] == pytest.approx(-0.3, abs=1e-15)

    def test_rank_four_off_diagonal(self):
        m, t = varpi_atom(1.0)
        op = stability.assemble_k(m, t, 4)
        kv = op.kernel
        assert op.matrix[0, 1] == pytest.approx((kv[1] + kv[2]) / math.sqrt(3.0), rel=1e-15)
        assert op.matrix[2, 3] == pytest.approx((kv[1] + kv[6]) / math.sqrt(35.0), rel=1e-15)

    def test_kernel_cache_is_all_that_enters(self):
        m, t = varpi_atom(0.7)
        op = stability.assemble_k(m, t, 4)
        assert len(op.kernel) == 8  # <<1>> .. <<7>> plus the zero slot
        assert op.kernel[0] == 0.0

    def test_rank_four_entrywise(self, two_atoms):
        # the full 4x4: difference and summed-index kernels off the
        # diagonal, summed-index minus drag on it
        op = stability.assemble_k(two_atoms, 0.23, 4)
        k = op.kernel
        s3, s5, s7, s15, s21, s35 = (math.sqrt(v) for v in (3, 5, 7, 15, 21, 35))
        want = np.array([
            [k[1], (k[2] + k[1]) / s3, (k[3] + k[2]) / s5, (k[4] + k[3]) / s7],
            [(k[2] + k[1]) / s3, (k[3] - 2 * k[1]) / 3, (k[4] + k[1]) / s15,
             (k[5] + k[2]) / s21],
            [(k[3] + k[2]) / s5, (k[4] + k[1]) / s15,
             (k[5] - 2 * (k[2] + k[1])) / 5, (k[6] + k[1]) / s35],
            [(k[4] + k[3]) / s7, (k[5] + k[2]) / s21, (k[6] + k[1]) / s35,
             (k[7] - 2 * (k[3] + k[2] + k[1])) / 7],
        ])
        assert op.matrix == pytest.approx(want, rel=1e-14, abs=1e-16)

    def test_exact_symmetry(self):
        m = measure.discrete([(0.5, 0.8), (0.5, 1.2)])
        op = stability.assemble_k(m, 0.17, 24)
        assert np.array_equal(op.matrix, op.matrix.T)

    def test_high_temperature_entries_vanish(self):
        m = measure.einstein(1.0)
        op = stability.assemble_k(m, 1e7, 4)
        assert np.max(np.abs(op.matrix)) < 1e-12

    def test_immutable(self):
        m, t = varpi_atom(1.0)
        op = stability.assemble_k(m, t, 2)
        with pytest.raises(ValueError):
            op.matrix[0, 0] = 7.0

    def test_domain_errors(self):
        m = measure.einstein(1.0)
        with pytest.raises(ValidationError):
            stability.assemble_k(m, -1.0, 2)
        with pytest.raises(ValidationError):
            stability.assemble_k(m, 1.0, 0)


class TestClosedForms:
    def test_rank_one(self):
        m, t = varpi_atom(1.0)
        assert stability.k_closed_form(m, t, 1).k_value == pytest.approx(0.5, abs=1e-15)

    def test_rank_two_hand_value(self):
        # trace 1/5, determinant -47/150 give 0.668624070307733
        m, t = varpi_atom(1.0)
        got = stability.k_closed_form(m, t, 2).k_value
        assert got == pytest.approx(0.668624070307733, rel=1e-13)

    @pytest.mark.parametrize("varpi", [0.05, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_eigensolver_atoms(self, varpi, n):
        m, t = varpi_atom(varpi)
        closed = stability.k_closed_form(m, t, n).k_value
        eig = stability.k_numeric(m, t, n).k_value
        assert closed == pytest.approx(eig, rel=1e-10)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_eigensolver_dispersive(self, n, two_atoms, triangle):
        for m in (two_atoms, triangle):
            for t in (0.08, 0.4):
                closed = stability.k_closed_form(m, t, n).k_value
                eig = stability.k_numeric(m, t, n).k_value
                assert closed == pytest.approx(eig, rel=1e-10)

    def test_rank_four_between_three_and_limit(self):
        m, t = varpi_atom(1.0)
        k3 = stability.k_closed_form(m, t, 3).k_value
        k4 = stability.k_closed_form(m, t, 4).k_value
        assert k3 < k4 < stability.k_limit_T0(4).k0

    def test_closed_form_rank_guard(self):
        m, t = varpi_atom(1.0)
        with pytest.raises(ValidationError):
            stability.k_closed_form(m, t, 5)

    def test_degenerate_regime_fails_loudly_while_eigensolver_survives(self):
        # near the zero-temperature limit the lower eigenvalues cluster and
        # the resolvent-based closed forms lose the arccos argument to
        # roundoff; the contract is a named numerical error, never a quiet
        # wrong number, and the dense route stays accurate
        from eliashberg_tc.errors import NumericalError

        m = measure.einstein(1.0)
        t = 1e-5
        with pytest.raises(NumericalError, match="arccos"):
            stability.k_closed_form(m, t, 4)
        got = stability.k_numeric(m, t, 4).k_value
        assert got == pytest.approx(stability.k_limit_T0(4).k0, abs=1e-6)


class TestNumericEigenvalue:
    def test_matches_closed_forms(self, two_atoms):
        for n in (1, 2, 3, 4):
            closed = stability.k_closed_form(two_atoms, 0.2, n).k_value
            assert stability.k_numeric(two_atoms, 0.2, n).k_value == pytest.approx(
                closed, rel=1e-10
            )

    def test_rank_one_atom(self):
        m, t = varpi_atom(1.0)
        kb = stability.k_numeric(m, t, 1)
        assert kb.k_value == pytest.approx(0.5, abs=1e-15)
        assert kb.lambda_upper == pytest.approx(2.0, abs=1e-14)

    def test_rank_monotone(self, two_atoms):
        vals = [stability.k_numeric(two_atoms, 0.15, n).k_value for n in (4, 32, 64)]
        assert vals[0] < vals[1] < vals[2]

    def test_eigvec_positive_and_profile_decreasing(self, two_atoms):
        kb = stability.k_numeric(two_atoms, 0.12, 64)
        assert np.all(kb.eigvec > 0.0)
        theta = gamma_model.theta_profile(kb.eigvec)
        assert np.all(np.diff(theta) <= 1e-12 * theta[0])


def _k_oracle(m: measure.SpectralMeasure, t: float, n: int) -> mpmath.mpf:
    """Top eigenvalue of the rank-N truncation in 50 digits: the matrix built
    entry by entry from the atom sums <<j>>, its spectrum by mp.eigsy."""
    with mpmath.workdps(50):
        atoms = [(mpmath.mpf(float(p)), mpmath.mpf(float(w))) for p, w in zip(m.weights, m.omegas)]
        t = mpmath.mpf(t)
        kv = [mpmath.mpf(0)] + [
            mpmath.fsum(p * w * w / (w * w + (2 * mpmath.pi * t * j) ** 2) for p, w in atoms)
            for j in range(1, 2 * n)
        ]
        k = mpmath.matrix(n, n)
        for i in range(n):
            for j in range(n):
                k[i, j] = (kv[abs(i - j)] + kv[i + j + 1]) / mpmath.sqrt((2 * i + 1) * (2 * j + 1))
            k[i, i] -= 2 * mpmath.fsum(kv[1:i + 1]) / (2 * i + 1)
        return max(mpmath.eigsy(k, eigvals_only=True))


class TestRankLadderOracle:
    @pytest.mark.parametrize("omega_over_t", [1e-3, 1e-2, 0.1, 1.0, 10.0, 1e2, 1e3, 1e4])
    @pytest.mark.parametrize("name", ["einstein", "two-atoms"])
    def test_k_n_matches_mpmath(self, name, omega_over_t):
        m = {"einstein": measure.einstein(1.0),
             "two-atoms": measure.discrete([(0.5, 0.8), (0.5, 1.2)])}[name]
        t = float(np.max(m.omegas)) / omega_over_t
        for n in range(1, 9):
            got = stability.k_numeric(m, t, n).k_value
            want = _k_oracle(m, t, n)
            assert abs(got - want) <= 1e-13 * abs(want), (n, got, want)

    def test_rank_four_closed_form_fails_at_the_cold_end(self):
        with pytest.raises(NumericalError):
            stability.k_closed_form(measure.einstein(1.0), 1e-4, 4)


class TestZeroTemperatureLimit:
    def test_small_ranks_exact(self):
        assert stability.k_limit_T0(1).k0 == pytest.approx(1.0, abs=1e-15)
        assert stability.k_limit_T0(2).k0 == pytest.approx(5.0 / 3.0, rel=1e-15)
        assert stability.k_limit_T0(2).lambda_floor == pytest.approx(3.0 / 5.0, rel=1e-15)
        assert stability.k_limit_T0(4).k0 == pytest.approx(247.0 / 105.0, rel=1e-15)

    def test_floor_decreases_with_rank(self):
        floors = [stability.k_limit_T0(n).lambda_floor for n in range(1, 20)]
        assert all(b < a for a, b in zip(floors, floors[1:]))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 8])
    def test_reached_at_low_temperature(self, n, two_atoms):
        for m in (measure.einstein(1.0), two_atoms):
            t = 1e-4 * float(np.min(m.omegas))
            got = stability.k_numeric(m, t, n).k_value
            assert abs(got - stability.k_limit_T0(n).k0) <= 1e-3

    def test_degenerate_temperature_uses_limit_matrix(self):
        m = measure.einstein(1.0)
        op = stability.assemble_k(m, 1e-10, 3)
        u = 1.0 / np.sqrt(2.0 * np.arange(3) + 1.0)
        assert op.matrix == pytest.approx(-np.eye(3) + 2.0 * np.outer(u, u), abs=1e-14)


class TestHighTemperature:
    def test_leading_coefficient(self, two_atoms):
        for m in (measure.einstein(1.0), two_atoms):
            t = 100.0 * m.omega_max
            for n in (1, 4, 16):
                got = stability.k_numeric(m, t, n).k_value
                scaled = got * (2.0 * math.pi * t) ** 2 / m.moment(2)
                want = gamma_model.g_top(2.0, n).value
                assert scaled == pytest.approx(want, rel=1e-5)

    def test_second_coefficient(self):
        m = measure.einstein(1.0)
        t = 100.0
        for n in (1, 4):
            got = stability.k_numeric(m, t, n).k_value
            leading = gamma_model.g_top(2.0, n).value * m.moment(2) / (2.0 * math.pi * t) ** 2
            residual = got - leading
            want = -gamma_model.expected_gamma(4.0, 2.0, n) * m.moment(4) / (
                16.0 * math.pi ** 4 * t ** 4
            )
            assert residual == pytest.approx(want, rel=0.05)


class TestRankTwoClosedCoupling:
    def test_matches_reciprocal(self, two_atoms):
        for m in (measure.einstein(1.0), two_atoms):
            for t in (0.1, 0.5, 2.0):
                want = 1.0 / stability.k_closed_form(m, t, 2).k_value
                assert stability.lambda2_closed(m, t) == pytest.approx(want, abs=1e-12)

    def test_varpi_one_value(self):
        m, t = varpi_atom(1.0)
        assert stability.lambda2_closed(m, t) == pytest.approx(1.495608735024679, rel=1e-12)

    def test_zero_temperature_floor(self):
        m = measure.einstein(1.0)
        assert stability.lambda2_closed(m, 1e-7) == pytest.approx(0.6, abs=1e-4)

    def test_high_temperature_rank_two_gamma_limit(self):
        # scaled by the squared first Matsubara offset the rank-two value
        # tends to the gamma-family eigenvalue at exponent two
        m = measure.einstein(1.0)
        t = 3e3
        k2 = stability.k_closed_form(m, t, 2).k_value
        scaled = k2 * (2.0 * math.pi * t) ** 2 / m.moment(2)
        assert scaled == pytest.approx(gamma_model.g_top(2.0, 2).value, rel=1e-6)


class TestFixedPointOperator:
    @pytest.mark.parametrize("n", [4, 32])
    def test_radius_one_at_threshold(self, n, two_atoms, triangle):
        for m in (measure.einstein(1.0), two_atoms, triangle):
            lam = stability.k_numeric(m, 0.3, n).lambda_upper
            rho = stability.c_spectral_radius(m, 0.3, lam, n, tol=1e-10)
            assert rho == pytest.approx(1.0, abs=1e-8)

    def test_stable_side_contracts(self, einstein_unit):
        lam = stability.k_numeric(einstein_unit, 0.3, 8).lambda_upper
        assert stability.c_spectral_radius(einstein_unit, 0.3, lam / 2.0, 8) < 1.0

    def test_unstable_side_expands(self, einstein_unit):
        lam = stability.k_numeric(einstein_unit, 0.3, 8).lambda_upper
        assert stability.c_spectral_radius(einstein_unit, 0.3, 2.0 * lam, 8) > 1.0

    def test_independent_of_start_scale(self, einstein_unit):
        # spectral radius of the rank-32 operator at a fixed coupling agrees
        # with a dense nonsymmetric eigensolve
        lam = 1.3
        n = 32
        op = stability.assemble_k(einstein_unit, 0.3, n)
        idx = np.arange(n)
        inv_sqrt = 1.0 / np.sqrt(2.0 * idx + 1.0)
        diff = np.abs(idx[:, None] - idx[None, :])
        summ = idx[:, None] + idx[None, :] + 1
        exchange = (op.kernel[diff] + op.kernel[summ]) * np.outer(inv_sqrt, inv_sqrt)
        prefix = np.concatenate(([0.0], np.cumsum(op.kernel[1:n])))
        resolvent = 1.0 / (1.0 / lam + 2.0 * prefix / (2.0 * idx + 1.0))
        dense = np.max(np.abs(np.linalg.eigvals(resolvent[:, None] * exchange)))
        got = stability.c_spectral_radius(einstein_unit, 0.3, lam, n, tol=1e-11)
        assert got == pytest.approx(float(dense), rel=1e-9)


class TestDerivativeIdentity:
    @pytest.mark.parametrize("t", [0.3, 1.0])
    def test_atom_residual(self, t, einstein_unit):
        chk = stability.dk_dT2_identity_check(einstein_unit, t)
        assert chk.residual < 1e-6
        assert chk.closed_form < 0.0

    def test_two_atom_residual(self):
        m = measure.discrete([(0.5, 1.0), (0.5, 2.0)])
        chk = stability.dk_dT2_identity_check(m, 0.5)
        assert chk.residual < 1e-6
        assert chk.closed_form < 0.0

    def test_tabulated_residual(self, triangle):
        chk = stability.dk_dT2_identity_check(triangle, 0.4)
        assert chk.residual < 1e-6
        assert chk.closed_form < 0.0


class TestScalingCovariance:
    def test_eigenvalue_invariant_under_joint_scaling(self, two_atoms, triangle):
        for m in (measure.einstein(1.0), two_atoms, triangle):
            for s in (0.5, 3.0):
                base = stability.k_numeric(m, 0.21, 8).k_value
                moved = stability.k_numeric(m.scaled(s), s * 0.21, 8).k_value
                assert moved == pytest.approx(base, rel=1e-9)
