import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from eliashberg_tc import gamma_model, measure, numerics, stability
from eliashberg_tc.errors import NumericalError, ValidationError


# density on [0.2, 1]: a gap below its lowest frequency
GAPPED = measure.tabulated([(0.2, 0.0), (0.6, 2.5), (1.0, 0.0)])


def varpi_atom(varpi, t=1.0 / (2.0 * math.pi)):
    """Single atom with prescribed dimensionless frequency at temperature t."""
    return measure.einstein(varpi * 2.0 * math.pi * t), t


class TestAssembly:
    @pytest.mark.parametrize("case", ["einstein", "discrete", "tabulated", "ultracold", "gamma"])
    def test_split_operator_rebuilds_matrix(self, case, einstein_unit, two_atoms, triangle):
        # exchange - diag(drag) is the assembled truncation, bit for bit
        n = 7
        if case == "gamma":
            matrix = gamma_model.assemble_gamma(2.0, n)
            kernel = np.zeros(2 * n)
            kernel[1:] = np.arange(1, 2 * n, dtype=float) ** -2.0
        else:
            m = {"discrete": two_atoms, "tabulated": triangle}.get(case, einstein_unit)
            op = stability.assemble_k(m, 1e-10 if case == "ultracold" else 0.13, n)
            matrix, kernel = op.dense(), op.kernel
            # at T = 1e-10 every average of the unit atom rounds to one
            assert np.all(kernel[1:] == 1.0) == (case == "ultracold")
        exchange, drag = stability.split_operator(kernel, n)
        assert np.array_equal(exchange - np.diag(drag), matrix)

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
        assert op.dense()[0, 0] == pytest.approx(0.5, abs=1e-15)

    def test_rank_two_diagonal_drag(self):
        # hand evaluation at dimensionless frequency one:
        # (<<3>> - 2 <<1>>) / 3 = (0.1 - 1.0) / 3 = -0.3
        m, t = varpi_atom(1.0)
        op = stability.assemble_k(m, t, 2)
        assert op.dense()[1, 1] == pytest.approx(-0.3, abs=1e-15)

    def test_rank_four_off_diagonal(self):
        m, t = varpi_atom(1.0)
        op = stability.assemble_k(m, t, 4)
        kv = op.kernel
        assert op.dense()[0, 1] == pytest.approx((kv[1] + kv[2]) / math.sqrt(3.0), rel=1e-15)
        assert op.dense()[2, 3] == pytest.approx((kv[1] + kv[6]) / math.sqrt(35.0), rel=1e-15)

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
        assert op.dense() == pytest.approx(want, rel=1e-14, abs=1e-16)

    def test_exact_symmetry(self):
        m = measure.discrete([(0.5, 0.8), (0.5, 1.2)])
        op = stability.assemble_k(m, 0.17, 24)
        assert np.array_equal(op.dense(), op.dense().T)

    def test_high_temperature_entries_vanish(self):
        m = measure.einstein(1.0)
        op = stability.assemble_k(m, 1e7, 4)
        assert np.max(np.abs(op.dense())) < 1e-12

    def test_immutable(self):
        m, t = varpi_atom(1.0)
        op = stability.assemble_k(m, t, 2)
        with pytest.raises(ValueError):
            op.dense()[0, 0] = 7.0

    def test_domain_errors(self):
        m = measure.einstein(1.0)
        with pytest.raises(ValidationError):
            stability.assemble_k(m, -1.0, 2)
        with pytest.raises(ValidationError):
            stability.assemble_k(m, 1.0, 0)


class TestNestedBlocks:
    # each rank-n truncation is the leading n x n block of every larger one
    @pytest.mark.parametrize("t", [1e-4, 0.013, 0.2, 1.0, 30.0, 1e3])
    def test_leading_blocks_are_the_smaller_truncations(self, t, two_atoms, triangle):
        atoms = (measure.einstein(1.0), two_atoms,
                 measure.discrete([(0.2, 0.5), (0.5, 1.0), (0.3, 2.0)]))
        for m in atoms + (triangle,):
            big = stability.assemble_k(m, t, 64).dense()
            for n in (1, 2, 3, 4, 5, 16, 33, 63):
                small = stability.assemble_k(m, t, n).dense()
                if m.kind == "tabulated":
                    # averages summed at another count agree to rounding
                    assert np.all(np.abs(big[:n, :n] - small) <= 4e-15 * np.abs(small)), n
                else:
                    assert np.array_equal(big[:n, :n], small), (m.describe(), n)


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

    def test_degenerate_regime_matches_oracle_and_eigensolver(self):
        # near the zero-temperature limit the lower eigenvalues cluster and
        # the arccos argument of the resolvent leaves [-1, 1] by rounding;
        # clamped and certified, the closed form still meets the oracle
        m = measure.einstein(1.0)
        t = 1e-5
        closed = stability.k_closed_form(m, t, 4).k_value
        assert abs(closed - _k_oracle(m, t, 4)) <= 1e-13 * closed
        got = stability.k_numeric(m, t, 4).k_value
        assert got == pytest.approx(stability.k_limit_T0(4).k0, abs=1e-6)
        assert closed == pytest.approx(got, rel=1e-13)

    def test_certificate_rejects_a_wrong_root(self, monkeypatch):
        # a formula root off by 1e-9 fails its Newton certificate
        m, t = varpi_atom(1.0)
        rank4 = stability._top_root_rank4

        def nudged(mat):
            root, coeffs = rank4(mat)
            return root * (1.0 + 1e-9), coeffs

        monkeypatch.setattr(stability, "_top_root_rank4", nudged)
        with pytest.raises(NumericalError, match="fails its certificate"):
            stability.k_closed_form(m, t, 4)


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


    def test_slope_refuses_a_subnormal_square(self, einstein_unit, triangle):
        # T^2 below the smallest normal float keeps too few digits: the
        # triangle's slope came out -3e43 here
        t = 1e-160
        for m in (einstein_unit, triangle):
            vector = stability.k_numeric(m, t, 4, banded=False).eigvec
            with pytest.raises(NumericalError):
                stability.k_slope(m, t, vector)

    @pytest.mark.parametrize("name", ["einstein", "two-atoms", "triangle", "gapped"])
    def test_arrays_from_one_pass_give_the_same_bits(self, name):
        # a Tc solve hands k_numeric and k_slope the two arrays of one pass
        m = SPLIT_MEASURES[name]
        for t in (0.003, 0.05, 0.4, 3.0):
            for n in (1, 4, 64, 300):
                values, slopes = m.kernel_values(t, 2 * n - 1, slopes=True)
                want = stability.k_numeric(m, t, n, banded=False)
                got = stability.k_numeric(m, t, n, banded=False, kernel=values)
                assert got.k_value == want.k_value and np.array_equal(got.eigvec, want.eigvec)
                assert (stability.k_slope(m, t, got.eigvec, slopes=slopes)
                        == stability.k_slope(m, t, got.eigvec))

    def test_short_kernel_is_refused(self, two_atoms):
        values, slopes = two_atoms.kernel_values(0.1, 5, slopes=True)
        with pytest.raises(ValidationError, match="rank 4 needs kernel entries 0 .. 7"):
            stability.k_numeric(two_atoms, 0.1, 4, kernel=values)
        vector = stability.k_numeric(two_atoms, 0.1, 4).eigvec
        with pytest.raises(ValidationError, match="rank 4 needs"):
            stability.k_slope(two_atoms, 0.1, vector, slopes=slopes)
        with pytest.raises(ValidationError, match="temperature"):
            stability.k_numeric(two_atoms, -0.1, 3, kernel=values)


SPLIT_MEASURES = {
    "einstein": measure.einstein(1.0),
    "two-atoms": measure.discrete([(0.5, 0.8), (0.5, 1.2)]),
    "triangle": measure.tabulated([(0.0, 0.0), (0.5, 2.0), (1.0, 0.0)]),
    "gapped": GAPPED,
}
CROSSOVER = stability._MATRIX_FREE_MIN_RANK
# (family, T / omega_max or gamma, rank); rank 4096 on fewer cases, since
# each assembles a 128 MiB reference matrix
SPLIT_CASES = [(name, x, n) for n in (CROSSOVER, 1024)
               for name in SPLIT_MEASURES for x in (0.005, 0.02, 0.1, 1.0)]
SPLIT_CASES += [("gamma", g, n) for n in (CROSSOVER, 1024) for g in (0.5, 1.0, 2.0, 4.0)]
SPLIT_CASES += [(name, 0.02, 4096) for name in SPLIT_MEASURES]
SPLIT_CASES += [("gamma", g, 4096) for g in (0.5, 2.0)]


def _split_kernels(family: str, x: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The kernel of a rank-n test operator, and the kernel of a quadratic
    form on its eigenvector: the slope kernel for phonons, gamma = 4 for
    the gamma family (the cross expectation)."""
    if family == "gamma":
        return gamma_model._gamma_kernel(x, n), gamma_model._gamma_kernel(4.0, n)
    m = SPLIT_MEASURES[family]
    t = x * m.omega_max
    return m.kernel_values(t, 2 * n - 1), m.kernel_slopes(t, 2 * n - 1)


@pytest.fixture
def lanczos_runs(monkeypatch):
    """For each Lanczos run from here on, the split truncation whose product
    it iterated, or None for a plain function."""
    runs = []
    lanczos = numerics._lanczos_top

    def recorded(matvec, n):
        runs.append(getattr(matvec, "__self__", None))
        return lanczos(matvec, n)

    monkeypatch.setattr(numerics, "_lanczos_top", recorded)
    return runs


@pytest.fixture
def assemblies(monkeypatch):
    """The orders of the truncations assembled from here on."""
    orders = []
    truncation = stability.truncation

    def recorded(kernel, n):
        orders.append(n)
        return truncation(kernel, n)

    monkeypatch.setattr(stability, "truncation", recorded)
    return orders


def _sin_angle_bound(mat: np.ndarray, value: float, vector: np.ndarray,
                     values: np.ndarray) -> float:
    """Davis-Kahan bound on the sine of the angle between the unit ``vector``
    and the top eigenvector of ``mat``, whose eigenvalues ``values`` are
    ascending: with r = mat v - value v expanded in eigenvectors,
    ||r||^2 >= min_j<top |lambda_j - value|^2 sin^2, so
    sin <= ||r|| / (value - values[-2]) when value lies above values[-2]."""
    assert value > values[-2]
    return float(np.linalg.norm(mat @ vector - value * vector)) / (value - values[-2])


class TestSplitTruncation:
    @pytest.mark.parametrize("family, x, n", SPLIT_CASES)
    def test_matrix_free_route_matches_assembled(self, family, x, n, lanczos_runs, assemblies):
        kernel, form_kernel = _split_kernels(family, x, n)
        split = stability.SplitTruncation(kernel, n)
        pair = numerics.sym_eig_top(split)
        assert lanczos_runs == [split] and assemblies == []  # certified without assembly
        mat = split.dense()
        values = np.linalg.eigvalsh(mat)
        assert abs(pair.value - values[-1]) <= 1e-13 * abs(values[-1])
        # for unit vectors on the same side, |v - u| <= sqrt(2) sin(angle)
        assert math.sqrt(2.0) * _sin_angle_bound(mat, pair.value, pair.vector, values) <= 1e-10
        if n <= 1024:  # the vector of a dense eigh as well, where it is cheap
            dense = numerics.sym_eig_top(mat)
            assert np.max(np.abs(pair.vector - dense.vector)) <= 1e-10
        product = split.matvec(pair.vector)
        assert np.max(np.abs(product - mat @ pair.vector)) <= 1e-13 * abs(values[-1])
        del mat
        got = stability.SplitTruncation(form_kernel, n).quadratic_form(pair.vector)
        want = float(pair.vector @ stability.truncation(form_kernel, n) @ pair.vector)
        assert abs(got - want) <= 1e-12 * abs(want)

    def test_sin_angle_bound_sees_a_perturbed_vector(self):
        # a Lanczos vector moved by 1e-9 in one entry fails the assertion
        # above; the vector itself passes it
        kernel, _ = _split_kernels("two-atoms", 0.02, CROSSOVER)
        split = stability.SplitTruncation(kernel, CROSSOVER)
        pair = numerics.sym_eig_top(split)
        mat = split.dense()
        values = np.linalg.eigvalsh(mat)
        assert math.sqrt(2.0) * _sin_angle_bound(mat, pair.value, pair.vector, values) <= 1e-10
        moved = pair.vector.copy()
        moved[CROSSOVER // 2] += 1e-9
        moved /= np.linalg.norm(moved)
        assert math.sqrt(2.0) * _sin_angle_bound(mat, pair.value, moved, values) > 1e-10

    @pytest.mark.parametrize("family, x", sorted({(family, x) for family, x, _ in SPLIT_CASES}))
    @pytest.mark.parametrize("n", [1, 2, 5, 16, 64, CROSSOVER - 1])
    def test_quadratic_form_below_crossover_matches_matrix(self, family, x, n):
        kernel, form_kernel = _split_kernels(family, x, n)
        vector = numerics.sym_eig_top(stability.SplitTruncation(kernel, n)).vector
        got = stability.SplitTruncation(form_kernel, n).quadratic_form(vector)
        want = float(vector @ stability.truncation(form_kernel, n) @ vector)
        assert abs(got - want) <= 1e-14 * abs(want)

    def test_k_numeric_and_slope_stay_matrix_free(self, lanczos_runs, monkeypatch):
        m, t, n = SPLIT_MEASURES["two-atoms"], 0.02, 1024
        monkeypatch.setattr(stability, "truncation", None)  # any assembly fails
        bound = stability.k_numeric(m, t, n)
        slope = stability.k_slope(m, t, bound.eigvec)
        assert len(lanczos_runs) == 1 and lanczos_runs[0] is not None
        monkeypatch.undo()
        mat = stability.assemble_k(m, t, n).dense()
        assert bound.k_value == pytest.approx(numerics.sym_eig_top(mat).value, rel=1e-13)
        slopes = stability.truncation(m.kernel_slopes(t, 2 * n - 1), n)
        assert slope == pytest.approx(bound.eigvec @ slopes @ bound.eigvec / (t * t), rel=1e-12)

    def test_below_crossover_product_is_the_assembled_matrix(self, lanczos_runs, assemblies):
        # Lanczos iterates the split's own product, the matrix assembled
        # once; the pair and product are the matrix's bits, and the quadratic
        # form, taken from the kernel without the matrix, agrees to rounding
        n = CROSSOVER - 1
        split = stability.SplitTruncation(gamma_model._gamma_kernel(2.0, n), n)
        pair = numerics.sym_eig_top(split)
        assert lanczos_runs == [split] and assemblies == [n]
        mat = split.dense()
        assert assemblies == [n] and not mat.flags.writeable
        ritz = numerics._certified(mat.__matmul__, *numerics._lanczos_top(mat.__matmul__, n))
        assert pair.value == ritz.value and np.array_equal(pair.vector, ritz.vector)
        vector = pair.vector
        assert np.array_equal(split.matvec(vector), mat @ vector)
        want = float(vector @ (mat @ vector))
        assert abs(split.quadratic_form(vector) - want) <= 1e-14 * abs(want)

    @pytest.mark.parametrize("fault", ["zero entry", "negative entry", "tiny scale", "huge scale"])
    def test_ineligible_kernel_is_assembled(self, fault, lanczos_runs):
        kernel = gamma_model._gamma_kernel(2.0, CROSSOVER)
        if fault == "zero entry":
            kernel[7] = 0.0
        elif fault == "negative entry":
            kernel[7] = -1e-3
        else:  # beyond the 2^+-300 gate, where squared vector norms leave the range
            kernel *= 2.0 ** (-1000 if fault == "tiny scale" else 310)
        split = stability.SplitTruncation(kernel, CROSSOVER)
        pair = numerics.sym_eig_top(split)
        assert lanczos_runs == []
        dense = numerics.sym_eig_top(split.dense())
        assert pair.value == dense.value and np.array_equal(pair.vector, dense.vector)

    def test_out_of_gate_temperature_is_assembled(self, lanczos_runs):
        # at omega/T = 1e-100 every kernel average is below 1e-200
        m = SPLIT_MEASURES["einstein"]
        bound = stability.k_numeric(m, 1e100, CROSSOVER, banded=False)
        assert lanczos_runs == []
        mat = stability.truncation(m.kernel_values(1e100, 2 * CROSSOVER - 1), CROSSOVER)
        assert bound.k_value == numerics.sym_eig_top(mat).value

    def test_exhausted_budget_is_assembled(self, lanczos_runs, assemblies, monkeypatch):
        kernel, _ = _split_kernels("two-atoms", 0.1, CROSSOVER)
        split = stability.SplitTruncation(kernel, CROSSOVER)
        monkeypatch.setattr(numerics, "_KRYLOV_MAX_STEPS", 1)
        pair = numerics.sym_eig_top(split)
        assert lanczos_runs == [split] and assemblies == [CROSSOVER]  # then the dense eigh
        dense = numerics.sym_eig_top(split.dense())
        assert pair.value == dense.value and np.array_equal(pair.vector, dense.vector)


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

    def test_rank_four_closed_form_matches_oracle_at_the_cold_end(self):
        m = measure.einstein(1.0)
        got = stability.k_closed_form(m, 1e-4, 4).k_value
        want = _k_oracle(m, 1e-4, 4)
        assert abs(got - want) <= 1e-13 * abs(want)

    # omega_max / T = 10**log_ratio across the band; the frequencies scale
    # with 10**(log_ratio/2) and T with its inverse, so both stay inside it
    @pytest.mark.parametrize("name, log_ratio",
                             [("einstein", k) for k in range(-60, 61, 10)]
                             + [("two-atoms", k) for k in range(-59, 60, 10)])
    def test_closed_forms_match_mpmath_across_the_band(self, name, log_ratio):
        s = 10.0 ** (log_ratio / 2.0)
        m = (measure.einstein(s) if name == "einstein"
             else measure.discrete([(0.5, 0.8 * s), (0.5, 1.2 * s)]))
        t = (1.0 if name == "einstein" else 1.2) * 10.0 ** (-log_ratio / 2.0)
        for n in (3, 4):
            got = stability.k_closed_form(m, t, n).k_value
            want = _k_oracle(m, t, n)
            assert abs(got - want) <= 1e-13 * abs(want), (n, got, want)


class TestZeroTemperatureLimit:
    def test_small_ranks_exact(self):
        assert stability.k_limit_T0(1).k0 == pytest.approx(1.0, abs=1e-15)
        assert stability.k_limit_T0(2).k0 == pytest.approx(5.0 / 3.0, rel=1e-15)
        assert stability.k_limit_T0(2).lambda_floor == pytest.approx(3.0 / 5.0, rel=1e-15)
        assert stability.k_limit_T0(4).k0 == pytest.approx(247.0 / 105.0, rel=1e-15)

    @pytest.mark.parametrize("n", list(range(1, 65)) + [1024])
    def test_equals_the_fraction_sum(self, n):
        # the binary-split ratio is the exact sum, and both floats are the
        # exact value rounded once
        k0 = Fraction(-1) + 2 * sum(Fraction(1, 2 * k + 1) for k in range(n))
        assert Fraction(*stability._odd_reciprocal_sum(0, n)) == (k0 + 1) / 2
        limit = stability.k_limit_T0(n)
        assert limit.k0 == float(k0) and limit.lambda_floor == float(1 / k0)

    def test_floor_decreases_with_rank(self):
        floors = [stability.k_limit_T0(n).lambda_floor for n in range(1, 20)]
        assert all(b < a for a, b in zip(floors, floors[1:]))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 8])
    def test_reached_at_low_temperature(self, n, two_atoms):
        for m in (measure.einstein(1.0), two_atoms):
            t = 1e-4 * float(np.min(m.omegas))
            got = stability.k_numeric(m, t, n).k_value
            assert abs(got - stability.k_limit_T0(n).k0) <= 1e-3

    @pytest.mark.parametrize("t", [1e-30, 1e-12, 1e-10])
    @pytest.mark.parametrize("n", [1, 4, 64, 1024])
    def test_gapped_measures_reach_the_limit_far_below_the_gap(self, n, t, two_atoms):
        # the plain kernel averages are within (2N * 2 pi T / omega_min)^2 of
        # one, and the eigenvalue and its slope follow them to the limit
        for m in (measure.einstein(1.0), two_atoms, GAPPED):
            bound = (2 * n) ** 2 * (2.0 * math.pi * t / float(m.omegas[0])) ** 2
            bound += 4.0 * np.finfo(float).eps
            assert np.max(1.0 - stability.assemble_k(m, t, n).kernel[1:]) <= bound
            k = stability.k_numeric(m, t, n)
            assert k.k_value == pytest.approx(stability.k_limit_T0(n).k0, rel=1e-12, abs=0.0)
            assert abs(stability.k_slope(m, t, k.eigvec) * t * t) <= bound

    def test_degenerate_temperature_uses_limit_matrix(self):
        m = measure.einstein(1.0)
        op = stability.assemble_k(m, 1e-10, 3)
        u = 1.0 / np.sqrt(2.0 * np.arange(3) + 1.0)
        assert op.dense() == pytest.approx(-np.eye(3) + 2.0 * np.outer(u, u), abs=1e-14)


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


def _lambda2_explicit(m: measure.SpectralMeasure, t: float) -> float:
    """Rank-two coupling bound 1/k_2 in its explicit average form
    6 / ( <<1>+<3>> + sqrt( <<1>+<3>>^2 + 12 (<<1>+<2>>^2 + <<1>>(2<<1>>-<<3>>)) ) )."""
    kv = m.kernel_values(t, 3)
    s13, s12 = kv[1] + kv[3], kv[1] + kv[2]
    return 6.0 / (s13 + math.sqrt(s13 * s13 + 12.0 * (s12 * s12 + kv[1] * (2.0 * kv[1] - kv[3]))))


class TestRankTwoClosedCoupling:
    def test_matches_reciprocal(self, two_atoms):
        for m in (measure.einstein(1.0), two_atoms):
            for t in (0.1, 0.5, 2.0):
                got = stability.k_closed_form(m, t, 2).lambda_upper
                assert got == pytest.approx(_lambda2_explicit(m, t), abs=1e-12)

    def test_varpi_one_value(self):
        m, t = varpi_atom(1.0)
        got = stability.k_closed_form(m, t, 2).lambda_upper
        assert got == pytest.approx(1.495608735024679, rel=1e-12)

    def test_zero_temperature_floor(self):
        m = measure.einstein(1.0)
        got = stability.k_closed_form(m, 1e-7, 2).lambda_upper
        assert got == pytest.approx(0.6, abs=1e-4)

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

    @staticmethod
    def _dense_radius(m: measure.SpectralMeasure, t: float, lam: float, n: int) -> float:
        """max |eigvals| of resolvent x exchange, by a dense nonsymmetric eigensolve."""
        op = stability.assemble_k(m, t, n)
        idx = np.arange(n)
        inv_sqrt = 1.0 / np.sqrt(2.0 * idx + 1.0)
        diff = np.abs(idx[:, None] - idx[None, :])
        summ = idx[:, None] + idx[None, :] + 1
        exchange = (op.kernel[diff] + op.kernel[summ]) * np.outer(inv_sqrt, inv_sqrt)
        prefix = np.concatenate(([0.0], np.cumsum(op.kernel[1:n])))
        resolvent = 1.0 / (1.0 / lam + 2.0 * prefix / (2.0 * idx + 1.0))
        return float(np.max(np.abs(np.linalg.eigvals(resolvent[:, None] * exchange))))

    def test_independent_of_start_scale(self, einstein_unit):
        # spectral radius of the rank-32 operator at a fixed coupling agrees
        # with a dense nonsymmetric eigensolve
        got = stability.c_spectral_radius(einstein_unit, 0.3, 1.3, 32, tol=1e-11)
        assert got == pytest.approx(self._dense_radius(einstein_unit, 0.3, 1.3, 32), rel=1e-9)

    def test_tolerance_below_rounding_returns(self, einstein_unit):
        # tol at the lower band edge stops at the rounding floor of the
        # bracket instead of running to the iteration cap
        got = stability.c_spectral_radius(einstein_unit, 0.05, 0.05, 2, tol=numerics.MIN_MAGNITUDE)
        assert got == pytest.approx(self._dense_radius(einstein_unit, 0.05, 0.05, 2), rel=1e-12)


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

    @staticmethod
    def _oracle(m: measure.SpectralMeasure, t: float) -> float:
        """d/d(T^2) of 3<<1>> + 2<<2>> - <<3>>, in 40 digits: the integer
        rational integrand summed over the atoms, or integrated segment by
        segment for a tabulated density."""
        with mpmath.workdps(40):
            s = 4 * mpmath.pi ** 2 * mpmath.mpf(t) ** 2

            def integrand(w):
                x = w * w
                numer = (4392 * x * s ** 4 + 3888 * x ** 2 * s ** 3 + 1370 * x ** 3 * s ** 2
                         + 148 * x ** 4 * s + 2 * x ** 5)
                return -numer / ((s + x) * (4 * s + x) * (9 * s + x)) ** 2

            if m.kind != "tabulated":
                total = sum(mpmath.mpf(weight) * integrand(mpmath.mpf(w))
                            for weight, w in zip(m.weights.tolist(), m.omegas.tolist()))
                return float(4 * mpmath.pi ** 2 * total)
            total = 0
            for a, b, pa, pb in m.segments.T.tolist():
                a, b, pa, pb = (mpmath.mpf(v) for v in (a, b, pa, pb))
                beta = (pb - pa) / (b - a)
                alpha = pa - beta * a
                total += mpmath.quad(lambda w: (alpha + beta * w) * integrand(w), [a, b])
            return float(4 * mpmath.pi ** 2 * total)

    @pytest.mark.parametrize("atoms", [[(1.0, 1.0)], [(0.5, 0.8), (0.5, 1.2)],
                                       [(0.2, 0.5), (0.5, 1.0), (0.3, 2.0)]])
    def test_atom_closed_form_against_oracle(self, atoms):
        m = measure.einstein(1.0) if len(atoms) == 1 else measure.discrete(atoms)
        for t in np.geomspace(0.05, 3.0, 7):
            got = stability.dk_dT2_identity_check(m, float(t)).closed_form
            want = self._oracle(m, float(t))
            assert abs(got - want) <= 1e-13 * abs(want), (atoms, t, got, want)

    @pytest.mark.parametrize("name", ["triangle", "gapped", "random-0", "random-1", "random-2"])
    def test_tabulated_closed_form_against_oracle(self, name, triangle):
        if name == "triangle":
            m = triangle
        elif name == "gapped":
            m = GAPPED
        else:  # 12 random nodes on [0, 1], random densities, unit trapezoid mass
            rng = np.random.default_rng(int(name[-1]))
            xs = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 1.0, 10)), [1.0]])
            ys = np.concatenate([[0.0], rng.uniform(0.2, 1.0, 10), [0.0]])
            m = measure.tabulated(list(zip(xs, ys / np.trapezoid(ys, xs))))
        for t in np.geomspace(0.01, 30.0, 7):
            got = stability.dk_dT2_identity_check(m, float(t)).closed_form
            want = self._oracle(m, float(t))
            assert abs(got - want) <= 1e-13 * abs(want), (name, t, got, want)


class TestScalingCovariance:
    def test_eigenvalue_invariant_under_joint_scaling(self, two_atoms, triangle):
        for m in (measure.einstein(1.0), two_atoms, triangle):
            for s in (0.5, 3.0):
                base = stability.k_numeric(m, 0.21, 8).k_value
                moved = stability.k_numeric(m.scaled(s), s * 0.21, 8).k_value
                assert moved == pytest.approx(base, rel=1e-9)
