import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eliashberg_tc import gamma_model
from eliashberg_tc.errors import ValidationError
from eliashberg_tc.numerics import sym_eig_top


class TestAssembly:
    def test_rank_one_is_unit(self):
        for gamma in (2.0, 4.0):
            mat = gamma_model.assemble_gamma(gamma, 1)
            assert mat.shape == (1, 1)
            assert mat[0, 0] == 1.0

    def test_rank_two_off_diagonal(self):
        # hand evaluation: (1/1^2 + 1/2^2) / (sqrt(1) sqrt(3)) = 5 / (4 sqrt(3))
        mat = gamma_model.assemble_gamma(2.0, 2)
        assert mat[0, 1] == pytest.approx(5.0 / (4.0 * math.sqrt(3.0)), rel=1e-15)
        assert mat[0, 1] == mat[1, 0]

    def test_rank_two_diagonal_drag(self):
        mat = gamma_model.assemble_gamma(2.0, 2)
        assert mat[1, 1] == pytest.approx(-2.0 / 3.0 + 1.0 / 27.0, rel=1e-15)

    def test_diagonal_convention_no_self_exchange(self):
        # the |n-m| kernel contributes nothing on the diagonal: entry (0,0)
        # is purely the summed-index kernel
        mat = gamma_model.assemble_gamma(3.0, 4)
        assert mat[0, 0] == 1.0

    def test_domain_error(self):
        with pytest.raises(ValidationError):
            gamma_model.assemble_gamma(0.0, 4)
        with pytest.raises(ValidationError):
            gamma_model.assemble_gamma(2.0, 0)


class TestTopEigenvalue:
    def test_rank_one_value(self):
        assert gamma_model.g_top(2.0, 1).value == pytest.approx(1.0, abs=1e-15)

    def test_rank_two_quadratic_oracle(self):
        # largest root of the 2x2 characteristic polynomial, frozen from the
        # explicit quadratic formula on the hand-assembled entries
        assert gamma_model.g_top(2.0, 2).value == pytest.approx(1.273650396285216, rel=1e-13)

    def test_limit_constant_ten_digits(self):
        got = math.sqrt(gamma_model.g_top(2.0, 256).value) / (2.0 * math.pi)
        assert got == pytest.approx(0.1827262477, abs=1e-9)

    def test_limit_constant_richardson(self):
        # the reported constant stabilizes beyond rank 200
        at_200 = math.sqrt(gamma_model.g_top(2.0, 200).value) / (2.0 * math.pi)
        at_256 = math.sqrt(gamma_model.g_top(2.0, 256).value) / (2.0 * math.pi)
        assert abs(at_256 - at_200) < 1e-10

    def test_grows_with_rank(self):
        for gamma in (1.0, 2.0, 4.0):
            vals = [gamma_model.g_top(gamma, n).value for n in range(1, 33)]
            assert all(b > a for a, b in zip(vals, vals[1:]))
            assert vals[0] == pytest.approx(1.0, abs=1e-15)
            assert all(v >= 1.0 - 1e-15 for v in vals)

    def test_eigenvector_positive_after_shift(self):
        for gamma, n in ((1.0, 16), (2.0, 64), (4.0, 32)):
            mat = gamma_model.assemble_gamma(gamma, n)
            shift = 1.0 + float(np.max(np.abs(np.diag(mat))))
            pair = sym_eig_top(mat + shift * np.eye(n))
            assert np.all(pair.vector > 0.0)

    def test_theta_profile_nonincreasing(self):
        for gamma in (1.0, 2.0, 4.0):
            for n in (2, 8, 64):
                theta = gamma_model.theta_profile(gamma_model.g_top(gamma, n).vector)
                assert np.all(np.diff(theta) <= 1e-12 * theta[0])
                assert np.all(theta > 0.0)


class TestCrossExpectation:
    def test_same_exponent_is_eigenvalue(self):
        for n in (2, 8, 32):
            assert gamma_model.expected_gamma(2.0, 2.0, n) == pytest.approx(
                gamma_model.g_top(2.0, n).value, rel=1e-14
            )

    def test_rank_one_is_unit(self):
        assert gamma_model.expected_gamma(4.0, 2.0, 1) == pytest.approx(1.0, abs=1e-15)

    def test_positive(self):
        for n in (2, 8, 64):
            assert gamma_model.expected_gamma(4.0, 2.0, n) > 0.0

    def test_converged_to_six_digits(self):
        at_64 = gamma_model.expected_gamma(4.0, 2.0, 64)
        at_128 = gamma_model.expected_gamma(4.0, 2.0, 128)
        assert at_64 == pytest.approx(at_128, rel=1e-6)


def dirichlet_reference(theta, n):
    """The coefficients term by term, one shift k at a time."""
    th = np.asarray(theta, dtype=float)
    coeffs = np.zeros(2 * n - 1, dtype=float)
    for k in range(1, 2 * n):
        c = 0.0
        if k <= n - 1:
            # difference-index kernel plus diagonal drag at shift k
            tail = th[k:]                      # theta_j for j = k .. N-1
            c += float(np.sum(2.0 * (th[: n - k] - tail) * tail))
        # summed-index kernel at j + j' + 1 = k: each unordered off-diagonal
        # pair once with weight 2, plus the diagonal square at odd k
        lo = max(0, k - n)
        if lo < k // 2:
            j = np.arange(lo, k // 2)
            c += float(np.sum(2.0 * th[k - 1 - j] * th[j]))
        if k % 2 == 1:
            c += float(th[(k - 1) // 2] ** 2)
        coeffs[k - 1] = c
    return coeffs


DIRICHLET_ORDERS = list(range(1, 65)) + [100, 257, 512]
RANDOM_PROFILES = {
    "nonnegative": lambda rng, n: rng.random(n),
    "signed": lambda rng, n: rng.normal(size=n),
    "sorted": lambda rng, n: np.sort(rng.random(n))[::-1],
}


class TestDirichletCoefficients:
    @pytest.mark.parametrize("draw", RANDOM_PROFILES.values(), ids=RANDOM_PROFILES.keys())
    def test_matches_term_by_term_reference(self, draw):
        rng = np.random.default_rng(19)
        for n in DIRICHLET_ORDERS:
            for _ in range(3):
                theta = draw(rng, n)
                got = gamma_model.dirichlet_coefficients(theta, n)
                want = dirichlet_reference(theta, n)
                assert got.shape == (2 * n - 1,)
                assert np.max(np.abs(got - want)) <= 1e-13 * (1.0 + np.max(np.abs(want)))

    def test_exactly_nonnegative_on_nonincreasing_profiles(self):
        rng = np.random.default_rng(23)
        profiles = [np.full(n, c) for n in (1, 2, 7, 64, 512) for c in (0.0, 1e-300, 0.3, 1.0)]
        for n in DIRICHLET_ORDERS:
            profiles.append(np.sort(rng.random(n))[::-1])
            # ties: a few distinct levels, each repeated
            profiles.append(np.sort(rng.choice(rng.random(3), size=n))[::-1])
            profiles.append(np.sort(rng.random(n) ** 8)[::-1])
        for theta in profiles:
            coeffs = gamma_model.dirichlet_coefficients(theta, theta.size)
            assert np.all(coeffs >= 0.0), (theta.size, np.min(coeffs))

    def test_single_entry(self):
        assert gamma_model.dirichlet_coefficients([1.0], 1).tolist() == [1.0]

    def test_pair_ones(self):
        # hand evaluation of the three contributions
        assert gamma_model.dirichlet_coefficients([1.0, 1.0], 2).tolist() == [1.0, 2.0, 1.0]

    def test_pair_step(self):
        assert gamma_model.dirichlet_coefficients([1.0, 0.0], 2).tolist() == [1.0, 0.0, 0.0]

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            gamma_model.dirichlet_coefficients([1.0, 2.0], 3)
        with pytest.raises(ValidationError, match="order"):
            gamma_model.dirichlet_coefficients([], 0)

    @given(
        st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=32),
    )
    @settings(max_examples=200, deadline=None)
    def test_nonnegative_on_decreasing_profiles(self, values):
        theta = np.sort(np.asarray(values))[::-1]
        coeffs = gamma_model.dirichlet_coefficients(theta, len(theta))
        assert np.all(coeffs >= 0.0)


class TestConstantProfileBound:
    def test_exploratory_lower_bound_holds(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(2, 17))
            gamma = float(rng.choice([1.5, 2.0, 4.0]))
            theta = np.sort(rng.random(n))[::-1]
            lhs = gamma_model.hat_quadratic_form(theta, gamma)
            lhs /= gamma_model.diagonal_weighted_norm(theta)
            assert lhs >= gamma_model.constant_profile_bound(n, gamma) - 1e-10

    def test_equality_on_constant_profile(self):
        for n in (2, 5, 11):
            theta = np.full(n, 1.0 / n)
            got = gamma_model.hat_quadratic_form(theta, 2.0)
            got /= gamma_model.diagonal_weighted_norm(theta)
            assert got == pytest.approx(gamma_model.constant_profile_bound(n, 2.0), rel=1e-12)
