import ast
import importlib
import math
from pathlib import Path

import numpy as np
import pytest

import eliashberg_tc
from eliashberg_tc import bounds, gamma_model, measure, numerics, stability, tc_solver
from eliashberg_tc.errors import NumericalError, ValidationError
from eliashberg_tc.numerics import newton_bracketed, riemann_zeta, sym_eig_top

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


@pytest.fixture
def eigh_sizes(monkeypatch):
    """Orders of the np.linalg.eigh calls made from here on: Lanczos solves
    tridiagonals of at most _KRYLOV_MAX_STEPS, the dense route the whole
    matrix."""
    sizes = []
    eigh = np.linalg.eigh

    def recorded(a, *args, **kwargs):
        sizes.append(len(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recorded)
    return sizes


KRYLOV_MEASURES = {
    "einstein": measure.einstein(1.0),
    "two-atoms": measure.discrete([(0.5, 0.8), (0.5, 1.2)]),
    "triangle": measure.tabulated([(0.0, 0.0), (0.5, 2.0), (1.0, 0.0)]),
}
# three ranks where a split truncation's product is its assembled matrix,
# and one where it is the FFT
KRYLOV_RANKS = [numerics._KRYLOV_MIN_RANK, 128, 256, 1024]
# (family, T / omega_max or gamma, rank)
KRYLOV_CASES = [(name, x, n) for n in KRYLOV_RANKS
                for name in KRYLOV_MEASURES for x in (0.005, 0.02, 0.1, 1.0)]
KRYLOV_CASES += [("gamma", x, n) for n in KRYLOV_RANKS for x in (0.5, 1.0, 2.0, 4.0)]


def _operator(family: str, x: float, n: int) -> stability.SplitTruncation:
    if family == "gamma":
        return stability.SplitTruncation(gamma_model._gamma_kernel(x, n), n)
    m = KRYLOV_MEASURES[family]
    return stability.assemble_k(m, x * float(np.max(m.omegas)), n)


@pytest.fixture
def lanczos_calls(monkeypatch):
    """The number of Lanczos runs from here on, as a one-element list."""
    calls = [0]
    lanczos = numerics._lanczos_top

    def counted(matvec, n):
        calls[0] += 1
        return lanczos(matvec, n)

    monkeypatch.setattr(numerics, "_lanczos_top", counted)
    return calls


class TestKrylovRoute:
    @pytest.mark.parametrize("family, x, n", KRYLOV_CASES)
    def test_matches_dense(self, family, x, n, eigh_sizes):
        split = _operator(family, x, n)
        pair = sym_eig_top(split)
        assert max(eigh_sizes) <= numerics._KRYLOV_MAX_STEPS  # no dense eigh was made
        mat = split.dense()
        top = np.linalg.eigvalsh(mat)[-1]
        assert abs(pair.value - top) <= 1e-13 * abs(top)
        vector = np.linalg.eigh(mat)[1][:, -1]
        assert np.max(np.abs(pair.vector - vector * np.sign(vector[0]))) <= 1e-10
        assert np.all(pair.vector > 0.0)
        theta = gamma_model.theta_profile(pair.vector)
        assert not np.any(np.diff(theta) > 1e-12 * theta[0])

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_dense_matrix_takes_eigh(self, sign, eigh_sizes, lanczos_calls):
        # an ndarray takes the validated eigh route whatever its entries,
        # and matches eigh bit for bit
        mat = gamma_model.assemble_gamma(2.0, 128).copy()
        mat[3, 40] = mat[40, 3] = sign * 0.01
        pair = sym_eig_top(mat)
        assert eigh_sizes == [128] and lanczos_calls == [0]
        values, vectors = np.linalg.eigh(mat)
        vector = vectors[:, -1] * np.sign(vectors[0, -1])
        vector /= np.linalg.norm(vector)
        assert pair.value == values[-1] and np.array_equal(pair.vector, vector)

    def test_exhausted_budget_falls_back_to_dense(self, eigh_sizes, lanczos_calls, monkeypatch):
        split = stability.assemble_k(KRYLOV_MEASURES["two-atoms"], 0.1, 200)
        monkeypatch.setattr(numerics, "_KRYLOV_MAX_STEPS", 1)
        pair = sym_eig_top(split)
        assert eigh_sizes == [1, 200] and lanczos_calls == [1]
        dense = sym_eig_top(split.dense())
        assert pair.value == dense.value and np.array_equal(pair.vector, dense.vector)

    @pytest.mark.parametrize("n", [128, 512])
    def test_uncertified_ritz_pair_falls_back_to_dense(self, n, eigh_sizes, lanczos_calls,
                                                       monkeypatch):
        # with its value moved by 1e-6 the Ritz pair stays positive but misses
        # the residual contract, on the assembled product at 128 and the FFT
        # product at 512
        lanczos = numerics._lanczos_top

        def faulty(matvec, n):
            value, vector = lanczos(matvec, n)
            assert np.all(vector * vector[0] > 0.0)
            return value + 1e-6, vector

        monkeypatch.setattr(numerics, "_lanczos_top", faulty)
        split = _operator("gamma", 2.0, n)
        pair = sym_eig_top(split)
        # one Lanczos run, then one dense eigh
        assert lanczos_calls == [1] and eigh_sizes[-1] == n
        assert [size for size in eigh_sizes if size > numerics._KRYLOV_MAX_STEPS] == [n]
        dense = sym_eig_top(split.dense())
        assert pair.value == dense.value and np.array_equal(pair.vector, dense.vector)

    def test_sign_fault_fails_the_positivity_certificate(self):
        # a last row and column coupled by 1e-12 give the Perron vector a
        # last component near 1e-16: with its sign flipped the pair still
        # meets the residual contract but is not positive
        base = gamma_model.assemble_gamma(2.0, 128)
        tol = numerics.DEFAULT_TOL.eig_residual
        ritz = numerics._lanczos_top(base.__matmul__, 128)
        certified = numerics._certified(base.__matmul__, *ritz)
        assert certified is not None and np.all(certified.vector > 0.0)
        mat = base.copy()
        mat[-1] *= 1e-12
        mat[:, -1] *= 1e-12
        mat[-1, -1] = -100.0
        value, vector = numerics._lanczos_top(mat.__matmul__, 128)
        vector[-1] = -math.copysign(vector[-1], vector[0])
        assert np.linalg.norm(mat @ vector - value * vector) <= tol * (1.0 + abs(value))
        assert numerics._certified(mat.__matmul__, value, vector) is None

    def test_tiny_entries_take_dense_route(self, eigh_sizes, lanczos_calls):
        # at omega/T = 1e-100 every entry is below 1e-200, where squared
        # vector norms underflow; the dense route scales the matrix itself
        kb = stability.k_numeric(KRYLOV_MEASURES["einstein"], 1e100, 128, banded=False)
        assert eigh_sizes == [128] and lanczos_calls == [0]
        split = stability.assemble_k(KRYLOV_MEASURES["einstein"], 1e100, 128, banded=False)
        assert kb.k_value == sym_eig_top(split.dense()).value

    def test_below_crossover_is_dense(self, eigh_sizes, lanczos_calls):
        n = numerics._KRYLOV_MIN_RANK - 1
        sym_eig_top(_operator("gamma", 2.0, n))
        assert eigh_sizes == [n] and lanczos_calls == [0]


# (family, T / omega_max or gamma, rank) below the Lanczos crossover
WARM_CASES = [(name, x, n) for n in (8, 16, 32, 64)
              for name in KRYLOV_MEASURES for x in (0.005, 0.02, 0.1, 1.0)]
WARM_CASES += [("gamma", x, n) for n in (8, 16, 32, 64) for x in (0.5, 1.0, 2.0, 4.0)]


class TestWarmRoute:
    @pytest.mark.parametrize("family, x, n", WARM_CASES)
    @pytest.mark.parametrize("neighbour", ["temperature", "rank"])
    def test_matches_cold_eigh(self, family, x, n, neighbour, eigh_sizes):
        # started from the eigenvector at 1.01 times the temperature (or
        # exponent), or from the rank-N/2 one padded with zeros
        near = _operator(family, 1.01 * x, n) if neighbour == "temperature" else _operator(
            family, x, n // 2)
        start = np.pad(sym_eig_top(near).vector, (0, n - len(near)))
        split = _operator(family, x, n)
        eigh_sizes.clear()
        pair = sym_eig_top(split, start=start)
        assert eigh_sizes == []  # certified without a dense eigh
        values, vectors = np.linalg.eigh(split.dense())
        assert abs(pair.value - values[-1]) <= 1e-13 * abs(values[-1])
        assert np.max(np.abs(pair.vector - vectors[:, -1] * np.sign(vectors[0, -1]))) <= 1e-13

    @pytest.mark.parametrize("n", [8, 64])
    def test_second_eigenvector_start_falls_back_to_eigh(self, n, eigh_sizes):
        # Rayleigh-quotient iteration stays at the second pair, whose vector
        # changes sign, so the positivity certificate sends it to eigh
        split = _operator("two-atoms", 0.02, n)
        second = np.linalg.eigh(split.dense())[1][:, -2]
        eigh_sizes.clear()
        pair = sym_eig_top(split, start=second)
        assert eigh_sizes == [n]
        cold = sym_eig_top(split)
        assert pair.value == cold.value and np.array_equal(pair.vector, cold.vector)

    def test_start_is_ignored_from_the_krylov_crossover(self, lanczos_calls):
        n = numerics._KRYLOV_MIN_RANK
        split = _operator("gamma", 2.0, n)
        pair = sym_eig_top(split, start=np.linalg.eigh(split.dense())[1][:, -2])
        cold = sym_eig_top(split)
        assert lanczos_calls == [2]
        assert pair.value == cold.value and np.array_equal(pair.vector, cold.vector)

    def test_converged_ladder_runs_eigh_at_its_first_evaluation_only(self, eigh_sizes):
        m = measure.discrete([(0.3, 0.5), (0.4, 1.0), (0.3, 2.0)])
        gamma_model.g_top(2.0, bounds.GAMMA_LIMIT_RANK)  # Tc_tilde's memo, by Lanczos
        eigh_sizes.clear()
        report = tc_solver.tc_converged(m, 30.0)
        assert [entry.n for entry in report.ladder] == [4, 8, 16, 32, 64]
        assert eigh_sizes == [4]


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

    @pytest.mark.parametrize("x0", [0.0, -1.0, math.nan, math.inf])
    def test_start_must_be_finite_and_positive(self, x0):
        with pytest.raises(ValidationError, match="start must be finite and positive"):
            newton_bracketed(lambda x: (x - 1.0, 1.0), x0)

    @pytest.mark.parametrize("r, evals", [(1e-3, 24), (1e-10, 24), (1e-50, 24), (1e-100, 24),
                                          (1e3, 32), (1e10, 32), (1e50, 32), (1e100, 32)])
    def test_no_creep_toward_a_far_root(self, r, evals):
        # 1 - r/x from x0 = 1: Newton steps from below only double x, each
        # longer than the last.  Below the start, once the bracket closes
        # around r, they count as failed and geometric bisection takes over;
        # above it, while the bracket is open, the expansion takes over (39
        # evaluations at 1e-10 and none within 100 at 1e-50 when they were
        # taken, below the start and above it alike)
        f = _recorded(lambda x: (1.0 - r / x, r / (x * x)))
        assert newton_bracketed(f, 1.0) == pytest.approx(r, rel=1e-15)
        assert len(set(f.points)) == len(f.points) <= evals

    def test_no_sign_change(self):
        with pytest.raises(NumericalError, match="in 100 evaluations"):
            newton_bracketed(lambda x: (-1.0, 0.0), 1.0)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_gallops_to_the_end_of_the_floats(self, sign):
        # the factor squares at each expansion, so x leaves the positive
        # finite floats, and the solve stops, after about ten evaluations
        # (a hundred at a fixed factor of four)
        f = _recorded(lambda x: (sign, 0.0))
        with pytest.raises(NumericalError, match="positive finite floats"):
            newton_bracketed(f, 1.0)
        assert len(f.points) <= 12

    @pytest.mark.parametrize("x0", [0.0, -1.0, math.inf, math.nan])
    def test_start_not_positive(self, x0):
        with pytest.raises(ValidationError, match="start"):
            newton_bracketed(lambda x: (x, 1.0), x0)


@pytest.mark.parametrize("name", ["power_iteration_positive", "bisect_monotone",
                                  "integrate_adaptive"])
def test_retired_routines_are_unreachable(name):
    # the benchmark's tracer still wraps these names in numerics; no other
    # module it searches may bind them, so no caller can reach them
    stub = getattr(numerics, name)
    with pytest.raises(NotImplementedError, match="retired"):
        stub()
    source = (Path(__file__).resolve().parents[1] / "perfbench" / "run.py").read_text()
    submodules = next(ast.literal_eval(node.value) for node in ast.parse(source).body
                      if isinstance(node, ast.Assign) and node.targets[0].id == "SUBMODULES")
    modules = [eliashberg_tc] + [importlib.import_module(f"eliashberg_tc.{sub}")
                                 for sub in submodules if sub != "numerics"]
    assert not [(mod.__name__, key) for mod in modules for key, obj in vars(mod).items()
                if obj is stub]
    assert name not in eliashberg_tc.__all__
