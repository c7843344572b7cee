import math

import numpy as np
import pytest

from eliashberg_tc import bounds, gamma_model, measure, stability
from eliashberg_tc.errors import ValidationError

# frozen from the direct-summation zeta oracle:
# 2 * sqrt((2^1.65 - 1) * 2.160882916306049 * 1.061725460440952)
B_ORACLE = 4.429857369384937


class TestConstants:
    def test_b_recomputed_matches_oracle(self):
        assert bounds.bound_constants().b == pytest.approx(B_ORACLE, abs=1e-10)

    def test_epsilon_exposed(self):
        assert bounds.bound_constants().epsilon == 0.65


class TestKStar:
    def test_atom_at_varpi_one(self):
        t = 1.0 / (2.0 * math.pi)
        got = bounds.k_star(measure.einstein(1.0), t)
        assert got == pytest.approx(0.5 + B_ORACLE, abs=1e-9)
        assert got == pytest.approx(4.93, abs=5e-3)

    def test_high_temperature_decay(self, einstein_unit):
        b = bounds.bound_constants().b
        t = 1e5
        want = (1.0 + b) * einstein_unit.moment(2) / (2.0 * math.pi * t) ** 2
        assert bounds.k_star(einstein_unit, t) == pytest.approx(want, rel=1e-8)

    def test_dominates_high_rank(self, einstein_unit, two_atoms, triangle):
        for m in (einstein_unit, two_atoms, triangle):
            for t in (0.07, 0.4, 2.0):
                assert bounds.k_star(m, t) >= stability.k_numeric(m, t, 64).k_value


class TestKSharp:
    def test_single_atom_ties_k_star(self, einstein_unit):
        for t in (0.1, 1.0):
            assert bounds.k_sharp(einstein_unit, t) == pytest.approx(
                bounds.k_star(einstein_unit, t), rel=1e-14
            )

    def test_strictly_weaker_for_two_atoms(self, two_atoms):
        for t in (0.1, 1.0):
            assert bounds.k_sharp(two_atoms, t) > bounds.k_star(two_atoms, t)

    def test_small_argument_expansion(self, einstein_unit):
        b = bounds.bound_constants().b
        t = 1e4
        v = einstein_unit.moment(2) / (2.0 * math.pi * t) ** 2
        assert bounds.k_sharp(einstein_unit, t) == pytest.approx((1.0 + b) * v, rel=1e-8)


class TestTcSharp:
    @pytest.mark.parametrize("lam", [0.5, 2.0, 100.0])
    def test_defining_identity(self, lam, einstein_unit):
        t = bounds.tc_sharp(einstein_unit, lam)
        assert lam * bounds.k_sharp(einstein_unit, t) == pytest.approx(1.0, abs=1e-10)

    def test_strong_coupling_prefactor(self, einstein_unit):
        b = bounds.bound_constants().b
        lam = 1e8
        got = bounds.tc_sharp(einstein_unit, lam)
        want = math.sqrt((1.0 + b) * lam) / (2.0 * math.pi)
        assert got == pytest.approx(want, rel=1e-6)

    def test_looseness_factor_at_strong_coupling(self, einstein_unit):
        ratio = bounds.tc_sharp(einstein_unit, 1e6) / bounds.tc_tilde(einstein_unit, 1e6)
        assert 2.0 <= ratio <= 2.07

    def test_rms_frequency_prefactor(self):
        # scaling all frequencies by s scales the bound by s, which pins the
        # prefactor to the root-mean-square frequency rather than its square
        lam = 7.0
        base = bounds.tc_sharp(measure.einstein(1.0), lam)
        assert bounds.tc_sharp(measure.einstein(3.0), lam) == pytest.approx(3.0 * base, rel=1e-12)


class TestTcFlat:
    def test_atom_value(self):
        m = measure.einstein(1.0)
        assert bounds.tc_flat(m, 2.0) == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-14)

    def test_absent_at_threshold(self):
        assert bounds.tc_flat(measure.einstein(1.0), 1.0) is None
        assert bounds.tc_flat(measure.einstein(1.0), 0.5) is None

    def test_below_conjectured_bound_at_strong_coupling(self, einstein_unit):
        lam = 1e6
        assert bounds.tc_flat(einstein_unit, lam) < bounds.tc_tilde(einstein_unit, lam)


class TestTcTilde:
    def test_reported_constant(self, einstein_unit):
        assert bounds.tc_tilde(einstein_unit, 1.0) == pytest.approx(0.1827262477, abs=1e-9)
        assert bounds.tc_tilde(einstein_unit, 1.0) == pytest.approx(
            0.1827262477 * math.sqrt(einstein_unit.moment(2) * 1.0), rel=1e-9
        )

    def test_frequency_scaling(self):
        assert bounds.tc_tilde(measure.einstein(2.0), 1.0) == pytest.approx(
            2.0 * bounds.tc_tilde(measure.einstein(1.0), 1.0), rel=1e-14
        )

    def test_coupling_scaling(self, einstein_unit):
        assert bounds.tc_tilde(einstein_unit, 4.0) == pytest.approx(
            2.0 * bounds.tc_tilde(einstein_unit, 1.0), rel=1e-14
        )


class TestLambdaStar:
    def test_atom_easy_value(self, einstein_unit):
        assert bounds.lambda_star_bounds(einstein_unit).easy == pytest.approx(1.5, rel=1e-14)

    def test_two_atom_easy_value(self):
        m = measure.discrete([(0.5, 1.0), (0.5, 2.0)])
        assert bounds.lambda_star_bounds(m).easy == pytest.approx(1.5 * 4.0 / 2.5, rel=1e-12)

    def test_atom_strong_value_from_hand_matrix(self, einstein_unit):
        # at the threshold temperature the atom's dimensionless frequency is
        # sqrt(2), so the kernel averages are 2/(n^2+2); assemble the
        # rank-four matrix from them directly and eigensolve
        kv = np.zeros(8)
        kv[1:] = 2.0 / (np.arange(1, 8) ** 2 + 2.0)
        idx = np.arange(4)
        inv_sqrt = 1.0 / np.sqrt(2.0 * idx + 1.0)
        mat = (kv[np.abs(idx[:, None] - idx[None, :])] + kv[idx[:, None] + idx[None, :] + 1])
        mat = mat * np.outer(inv_sqrt, inv_sqrt)
        prefix = np.concatenate(([0.0], np.cumsum(kv[1:4])))
        mat[idx, idx] -= 2.0 * prefix / (2.0 * idx + 1.0)
        want = 1.0 / np.linalg.eigvalsh(mat)[-1]
        assert bounds.lambda_star_bounds(einstein_unit).strong == pytest.approx(want, rel=1e-10)


class TestTcAsymptotic:
    def test_limit_ratio_one(self, einstein_unit):
        n = 4
        g2 = gamma_model.g_top(2.0, n).value
        lam = 1e10
        got = bounds.tc_asymptotic(einstein_unit, lam, n)
        want = math.sqrt(g2 * einstein_unit.moment(2) * lam) / (2.0 * math.pi)
        assert got / want == pytest.approx(1.0, abs=1e-6)

    def test_never_exceeds_leading_order(self, einstein_unit):
        n = 4
        g2 = gamma_model.g_top(2.0, n).value
        for lam in (10.0, 100.0, 1e4, 1e8):
            got = bounds.tc_asymptotic(einstein_unit, lam, n)
            ceiling = math.sqrt(g2 * einstein_unit.moment(2) * lam) / (2.0 * math.pi)
            assert got <= ceiling * (1.0 + 1e-14)

    def test_threshold_guard(self, einstein_unit):
        with pytest.raises(ValidationError, match="threshold"):
            bounds.tc_asymptotic(einstein_unit, 1e-6, 4)


class TestSandwich:
    def test_full_chain_ordered(self, einstein_unit, two_atoms, triangle):
        for m in (einstein_unit, two_atoms, triangle):
            for t in np.geomspace(0.05, 5.0, 6):
                t = float(t)
                chain = [stability.k_closed_form(m, t, n).k_value for n in (1, 2, 3, 4)]
                chain.append(stability.k_numeric(m, t, 64).k_value)
                assert all(a < b for a, b in zip(chain, chain[1:]))
                star = bounds.k_star(m, t)
                sharp = bounds.k_sharp(m, t)
                assert chain[-1] <= star <= sharp + 1e-15

    def test_coupling_side_of_the_sandwich(self, two_atoms):
        t = 0.3
        lower = 1.0 / bounds.k_sharp(two_atoms, t)
        mid = 1.0 / bounds.k_star(two_atoms, t)
        for n in (1, 2, 4, 16):
            upper = stability.k_numeric(two_atoms, t, n).lambda_upper
            assert lower <= mid <= upper


class TestThresholdTable:
    @pytest.mark.parametrize("t_over_edge", [1e-4, 1e-3, 0.01, 0.1, 0.5, 2.0, 30.0, 1e3])
    @pytest.mark.parametrize("n", [1, 4, 9, 64])
    def test_agrees_with_the_four_wrappers(self, einstein_unit, two_atoms, triangle,
                                           t_over_edge, n):
        for m in (einstein_unit, two_atoms, triangle):
            # bitwise for atoms; tabulated averages are summed in another grouping
            rel = 1e-14 if m.kind == "tabulated" else 0.0
            t = t_over_edge * m.omega_max
            table = bounds.threshold_table(m, t, n)
            for r, k in zip((1, 2, 3, 4), table.closed):
                want = stability.k_closed_form(m, t, r)
                assert k.n == r and k.eigvec is None
                assert k.k_value == pytest.approx(want.k_value, rel=rel, abs=0.0)
                assert k.lambda_upper == pytest.approx(want.lambda_upper, rel=rel, abs=0.0)
            want = stability.k_numeric(m, t, n)
            assert table.numeric.n == n
            assert table.numeric.k_value == pytest.approx(want.k_value, rel=rel, abs=0.0)
            assert np.allclose(table.numeric.eigvec, want.eigvec, rtol=0.0, atol=1e-12)
            assert table.k_star == pytest.approx(bounds.k_star(m, t), rel=rel, abs=0.0)
            assert table.k_sharp == pytest.approx(bounds.k_sharp(m, t), rel=rel, abs=0.0)

    def test_one_kernel_pass(self, triangle, monkeypatch):
        calls = []
        kernel_values = measure.SpectralMeasure.kernel_values

        def counted(self, t, count):
            calls.append(count)
            return kernel_values(self, t, count)

        monkeypatch.setattr(measure.SpectralMeasure, "kernel_values", counted)
        bounds.threshold_table(triangle, 0.2, 2)
        assert calls == [7]  # <<1>> .. <<7>> for the rank-four truncation

    @pytest.mark.parametrize("args, match", [((-1.0, 4), "temperature"), ((0.2, 0), "order"),
                                             ((0.2, 4.0), "order"), ((1e31, 0), "temperature")])
    def test_domain(self, einstein_unit, args, match):
        with pytest.raises(ValidationError, match=match):
            bounds.threshold_table(einstein_unit, *args)
