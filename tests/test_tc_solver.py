import math

import mpmath
import pytest
from test_measure import _oracle

from eliashberg_tc import bounds, measure, stability, tc_solver
from eliashberg_tc.errors import ValidationError


class TestThreshold:
    def test_atom(self):
        got = tc_solver.t_star(measure.einstein(1.0))
        assert got == pytest.approx(1.0 / (2.0 * math.sqrt(2.0) * math.pi), rel=1e-14)
        assert got == pytest.approx(0.11254, abs=5e-6)

    def test_two_atoms_uses_support_edge(self):
        m = measure.discrete([(0.5, 1.0), (0.5, 2.0)])
        assert tc_solver.t_star(m) == pytest.approx(0.22508, abs=5e-6)

    def test_scaling(self):
        base = tc_solver.t_star(measure.einstein(1.0))
        assert tc_solver.t_star(measure.einstein(3.0)) == pytest.approx(3.0 * base, rel=1e-14)


class TestLadderEntry:
    def test_rank_one_analytic(self, einstein_unit):
        entry = tc_solver.tc_n(einstein_unit, 2.0, 1)
        assert entry.value == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-14)
        assert entry.status == "proven"

    def test_rank_one_quadrature_path_matches_analytic(self, two_atoms):
        lam = 3.0
        entry = tc_solver.tc_n(two_atoms, lam, 1)
        # rank-one defining identity is directly checkable
        assert stability.k_numeric(two_atoms, entry.value, 1).k_value == pytest.approx(
            1.0 / lam, rel=1e-9
        )

    def test_undefined_below_rank_floor(self, two_atoms):
        for m in (measure.einstein(1.0), two_atoms):
            entry = tc_solver.tc_n(m, 0.5, 2)
            assert entry.status == "undefined"
            assert entry.value is None

    def test_floor_is_three_fifths_at_rank_two(self, einstein_unit):
        assert tc_solver.tc_n(einstein_unit, 0.600001, 2).value is not None
        assert tc_solver.tc_n(einstein_unit, 0.6, 2).status == "undefined"

    def test_ladder_increases_with_rank(self, einstein_unit):
        values = [tc_solver.tc_n(einstein_unit, 2.0, n).value for n in (1, 2, 3, 4)]
        assert all(a < b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("lam", [2.0, 10.0, 100.0])
    def test_defining_identity(self, lam, einstein_unit):
        for n in (1, 2, 4, 16):
            entry = tc_solver.tc_n(einstein_unit, lam, n)
            back = stability.k_numeric(einstein_unit, entry.value, n).lambda_upper
            assert back == pytest.approx(lam, rel=1e-9)

    def test_heuristic_status_below_threshold(self, einstein_unit):
        # rank three and up below the monotonicity threshold is computed but
        # flagged; a coupling just above the rank-four floor lands there
        entry = tc_solver.tc_n(einstein_unit, 0.45, 4)
        assert entry.value is not None
        assert entry.value < tc_solver.t_star(einstein_unit)
        assert entry.status == "heuristic"

    def test_rank_two_proven_everywhere(self, einstein_unit):
        entry = tc_solver.tc_n(einstein_unit, 0.65, 2)
        assert entry.value < tc_solver.t_star(einstein_unit)
        assert entry.status == "proven"

    def test_domain_errors(self, einstein_unit):
        with pytest.raises(ValidationError):
            tc_solver.tc_n(einstein_unit, -1.0, 2)
        with pytest.raises(ValidationError):
            tc_solver.tc_n(einstein_unit, 2.0, 0)


class TestConvergedReport:
    def test_bracketed_by_global_bounds(self, einstein_unit):
        report = tc_solver.tc_converged(einstein_unit, 10.0, tol=1e-6)
        assert report.converged_tc is not None
        assert report.tc_flat < report.converged_tc < report.tc_sharp
        assert report.converged_tc < report.tc_tilde

    def test_ladder_nondecreasing(self, einstein_unit):
        report = tc_solver.tc_converged(einstein_unit, 10.0, tol=1e-8)
        values = [e.value for e in report.ladder if e.value is not None]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_asymptotic_sharpness(self, einstein_unit):
        report = tc_solver.tc_converged(einstein_unit, 1e4, tol=1e-6)
        ratio = report.converged_tc / report.tc_tilde
        assert 0.99 <= ratio <= 1.0

    def test_low_coupling_ladder_start_undefined(self, einstein_unit):
        # between the rank-4 floor (105/247) and the rank-8 floor the first
        # doubling entry is undefined but later ones resolve
        lam = 0.4
        report = tc_solver.tc_converged(einstein_unit, lam, tol=1e-4)
        assert report.ladder[0].status == "undefined"
        assert any(e.value is not None for e in report.ladder[1:])

    def test_two_atom_report(self, two_atoms):
        report = tc_solver.tc_converged(two_atoms, 5.0, tol=1e-6)
        assert report.converged_tc is not None
        assert report.tc_flat < report.converged_tc < report.tc_sharp
        assert report.lambda_star_easy == pytest.approx(
            bounds.lambda_star_bounds(two_atoms).easy
        )

    def test_consistent_with_asymptotic_inverse(self, einstein_unit):
        entry = tc_solver.tc_n(einstein_unit, 1e4, 4)
        asym = bounds.tc_asymptotic(einstein_unit, 1e4, 4)
        assert abs(entry.value - asym) / entry.value <= 1e-3

    def test_rank_cap_reported_as_absent(self, einstein_unit):
        report = tc_solver.tc_converged(einstein_unit, 10.0, tol=1e-15, n_cap=8)
        assert report.converged_tc is None
        assert report.converged_n is None
        assert len(report.ladder) == 2


@pytest.fixture
def eigensolves(monkeypatch):
    """Counter of the dense eigensolves (k_numeric calls) made through it."""
    count = [0]
    original = stability.k_numeric

    def counted(*args, **kwargs):
        count[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(stability, "k_numeric", counted)
    return count


BUDGET_MEASURES = {
    "einstein": lambda: measure.einstein(1.0),
    "two-atoms": lambda: measure.discrete([(0.5, 0.8), (0.5, 1.2)]),
    "five-atoms": lambda: measure.discrete([(0.1, 0.3), (0.2, 0.7), (0.3, 1.0), (0.25, 1.9),
                                            (0.15, 3.0)]),
}


class TestEigensolveBudget:
    @pytest.mark.parametrize("name", list(BUDGET_MEASURES))
    def test_cold_solve(self, name, eigensolves):
        m = BUDGET_MEASURES[name]()
        for lam in (0.9, 2.0, 10.0, 1e4):
            for n in (4, 64):
                eigensolves[0] = 0
                assert tc_solver.tc_n(m, lam, n).value is not None
                assert eigensolves[0] <= 10, (lam, n, eigensolves[0])

    def test_wide_spectrum_cold_solve(self, eigensolves):
        # two atoms at 1e-20 and 1: from its start near Tc_sharp / 2 the solve
        # crosses some twenty decades to the root near 1e-22 (73 eigensolves
        # at a fixed widening factor of four)
        m = measure.discrete([(0.5, 1e-20), (0.5, 1.0)])
        assert tc_solver.tc_n(m, 0.43, 4).value == pytest.approx(9.6996418384e-23, rel=1e-10)
        assert eigensolves[0] <= 16

    def test_root_below_the_input_band_solves(self):
        # at 1e-30 the root lies near 9.7e-33, below the input band; Tc_4
        # scales with the lower atom as it does at 1e-20
        low, lower = (tc_solver.tc_n(measure.discrete([(0.5, w), (0.5, 1.0)]), 0.43, 4).value / w
                      for w in (1e-20, 1e-30))
        assert lower == pytest.approx(low, rel=1e-12)

    @pytest.mark.parametrize("name", list(BUDGET_MEASURES))
    def test_warm_started_ladder(self, name, eigensolves):
        m = BUDGET_MEASURES[name]()
        ranks = 0
        for lam in (0.9, 2.0, 10.0, 1e4):
            ranks += len(tc_solver.tc_converged(m, lam, tol=1e-6).ladder)
        assert eigensolves[0] <= 6 * ranks, (eigensolves[0], ranks)


def _kernel_oracle(m: measure.SpectralMeasure):
    """<<n>> at T in 40 digits: the atom sums, or the tabulated oracle."""
    if m.kind == "tabulated":
        return _oracle(m)
    atoms = [(mpmath.mpf(float(p)), mpmath.mpf(float(w))) for p, w in zip(m.weights, m.omegas)]

    def average(t, n: int) -> mpmath.mpf:
        c2 = (2 * mpmath.pi * t * n) ** 2
        return mpmath.fsum(p * w * w / (w * w + c2) for p, w in atoms)

    return average


def _tc_oracle(m: measure.SpectralMeasure, lam: float, n: int, start: float) -> mpmath.mpf:
    """Root T of 1/k_N(T) = lam in 40 digits: the rank-N truncation built
    entry by entry from the oracle averages, its top eigenvalue by mp.eigsy,
    and the root by mp.findroot from ``start``."""
    average = _kernel_oracle(m)
    with mpmath.workdps(40):
        target = mpmath.mpf(lam)

        def excess(t):
            kv = [mpmath.mpf(0)] + [average(t, j) for j in range(1, 2 * n)]
            k = mpmath.matrix(n, n)
            for i in range(n):
                for j in range(n):
                    norm = mpmath.sqrt((2 * i + 1) * (2 * j + 1))
                    k[i, j] = (kv[abs(i - j)] + kv[i + j + 1]) / norm
                k[i, i] -= 2 * mpmath.fsum(kv[1:i + 1]) / (2 * i + 1)
            return 1 / max(mpmath.eigsy(k, eigvals_only=True)) - target

        return mpmath.findroot(excess, mpmath.mpf(start))


ORACLE_MEASURES = {
    "einstein": lambda: measure.einstein(1.0),
    "two-atoms": lambda: measure.discrete([(0.5, 0.8), (0.5, 1.2)]),
    "triangle": lambda: measure.tabulated([(0.0, 0.0), (0.5, 2.0), (1.0, 0.0)]),
}


class TestLadderOracle:
    @pytest.mark.parametrize("lam", [0.6, 2.0, 10.0, 1e4])
    @pytest.mark.parametrize("name", list(ORACLE_MEASURES))
    def test_matches_mpmath(self, name, lam):
        m = ORACLE_MEASURES[name]()
        for n in (1, 2, 3, 4, 8):
            entry = tc_solver.tc_n(m, lam, n)
            if lam <= stability.k_limit_T0(n).lambda_floor:
                assert entry.status == "undefined" and entry.value is None
                continue
            want = _tc_oracle(m, lam, n, entry.value)
            assert abs(entry.value - want) <= 1e-10 * want, (n, entry.value, want)


class TestWarmStart:
    @pytest.mark.parametrize("lam", [0.62, 2.0, 10.0, 1e3])
    @pytest.mark.parametrize("name", ["einstein", "five-atoms", "triangle"])
    def test_ladder_matches_cold_solves(self, name, lam):
        m = {**BUDGET_MEASURES, **ORACLE_MEASURES}[name]()
        report = tc_solver.tc_converged(m, lam, tol=1e-6)
        assert len(report.ladder) >= 3
        for entry in report.ladder:
            cold = tc_solver.tc_n(m, lam, entry.n)
            assert cold.status == entry.status
            if entry.value is not None:
                assert abs(entry.value - cold.value) <= 1e-13 * cold.value, entry.n


def test_weak_coupling_ladder_converges_at_the_rank_cap():
    # the ladder converges like N^-4, so 1e-10 at coupling 0.45 needs rank
    # 4096, the default cap
    report = tc_solver.tc_converged(measure.einstein(1.0), 0.45, tol=1e-10)
    assert report.converged_n == 4096 == report.ladder[-1].n
    values = [entry.value for entry in report.ladder]
    assert all(b > a for a, b in zip(values, values[1:]))
