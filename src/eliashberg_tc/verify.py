"""Self-contained invariant suite.

Every mathematical property the package relies on is checked here against
independent evaluations: variational dominance and shift covariance of the
eigensolver, the zeta oracle by direct summation, kernel-average
monotonicity and limits, ladder monotonicity in rank and temperature, the
closed-form/eigensolver agreement, the bound sandwich, fixed-point
consistency, eigenvector structure, the Dirichlet-coefficient identity,
and byte-determinism of the sweep output.  ``fast=True`` shrinks grids and
draw counts; it changes coverage, never tolerances.

``ALL_CHECKS`` is the registry: ``(name, check)`` pairs in report order, each
property named there and nowhere else.  A check returns the detail of its
pass (say ``"20 matrices"``) and has one failure path: ``_require`` raises
``CheckFailed`` with a witness naming the offending sample.  ``run_checks``
alone turns an outcome into a ``CheckResult``, reporting a check that raises
anything else as failed with the exception as its witness.  A check whose
name ends in ``(exploratory)`` is non-blocking: a counterexample there would
be interesting, not a build bug.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import bounds, gamma_model, measure, stability, tc_solver
from .numerics import newton_bracketed, riemann_zeta, sym_eig_top


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str
    blocking: bool = True


class CheckFailed(Exception):
    """A property does not hold; the message is the witness."""


def _require(ok: bool, witness: str) -> None:
    if not ok:
        raise CheckFailed(witness)


class _Samples(NamedTuple):
    einstein: measure.SpectralMeasure
    two_atoms: measure.SpectralMeasure
    triangle: measure.SpectralMeasure
    all: tuple[measure.SpectralMeasure, ...]  # the five sample measures


@lru_cache(maxsize=1)
def _samples() -> _Samples:
    """The sample measures of the checks.  Measures memoize their moments,
    so they are built here and not at import: emptying this cache
    (``_samples.cache_clear()``) drops those memos with it."""
    einstein = measure.einstein(1.0)
    two_atoms = measure.discrete([(0.5, 0.8), (0.5, 1.2)])
    triangle = measure.tabulated([(0.0, 0.0), (0.5, 2.0), (1.0, 0.0)])
    every = (einstein, measure.einstein(2.5), two_atoms,
             measure.discrete([(0.2, 0.5), (0.5, 1.0), (0.3, 2.0)]), triangle)
    return _Samples(einstein, two_atoms, triangle, every)


def _zeta_direct(points, terms: int = 10**7) -> np.ndarray:
    """Direct summation plus Euler-Maclaurin tail, for every s in ``points``
    in one pass over k; the independent oracle.

    Blocks of 2^16 terms run from k = ``terms`` down to 1, smallest terms
    first; each block takes log k once and adds exp(-s log k) for every s.
    """
    s = np.asarray(points, dtype=float)
    total = np.zeros_like(s)
    block = 1 << 16
    for hi in range(terms, 0, -block):
        log_k = np.log(np.arange(hi, max(0, hi - block), -1, dtype=float))
        for i, si in enumerate(s):
            total[i] += np.exp(-si * log_k).sum()
    n = float(terms)
    return total + n ** (1.0 - s) / (s - 1.0) - 0.5 * n ** (-s) + s * n ** (-s - 1.0) / 12.0


# -- individual checks --------------------------------------------------------


def check_eig_variational(fast: bool) -> str:
    rng = np.random.default_rng(2024)
    rounds = 20 if fast else 100
    for trial in range(rounds):
        n = int(rng.integers(2, 24))
        a = rng.normal(size=(n, n))
        mat = (a + a.T) / 2.0
        top = sym_eig_top(mat).value
        for _ in range(5):
            x = rng.normal(size=n)
            x /= np.linalg.norm(x)
            quad = float(x @ mat @ x)
            _require(quad <= top + 1e-10,
                     f"trial {trial}: x^T M x = {quad:.15g} > top {top:.15g}")
    return f"{rounds} matrices"


def check_eig_shift(fast: bool) -> str:
    rng = np.random.default_rng(7)
    rounds = 10 if fast else 50
    for trial in range(rounds):
        n = int(rng.integers(2, 16))
        a = rng.normal(size=(n, n))
        mat = (a + a.T) / 2.0
        c = float(rng.normal() * 10.0)
        lhs = sym_eig_top(mat + c * np.eye(n)).value
        rhs = sym_eig_top(mat).value + c
        _require(abs(lhs - rhs) <= 1e-10 * (1.0 + abs(rhs)),
                 f"trial {trial}: |{lhs:.15g} - {rhs:.15g}| too large")
    return f"{rounds} matrices"


def check_zeta_oracle(fast: bool) -> str:
    points = (1.65, 2.0, 4.35) if fast else (1.3, 1.65, 2.0, 3.0, 4.35, 5.0)
    terms = 10**6 if fast else 10**7
    # one oracle pass for the test points and the two behind the constant
    needed = sorted({*points, 1.65, 4.35})
    oracle = dict(zip(needed, _zeta_direct(needed, terms).tolist()))
    for s in points:
        got = riemann_zeta(s)
        want = oracle[s]
        _require(abs(got - want) <= 1e-10, f"s={s}: {got!r} vs oracle {want!r}")
    # the spectral-estimate constant must come out of these evaluations too
    b = bounds.bound_constants().b
    b_oracle = 2.0 * math.sqrt((2.0 ** 1.65 - 1.0) * oracle[1.65] * oracle[4.35])
    _require(abs(b - b_oracle) <= 1e-10, f"estimate constant {b!r} vs oracle {b_oracle!r}")
    return f"{len(points)} points plus the estimate constant"


def _einstein_inverse_residual(t: float) -> tuple[float, float]:
    """1/<<1>> - 2 on the unit atom at temperature ``t``, and its slope in t
    from :meth:`SpectralMeasure.kernel_slopes` (t d<<1>>/dt = 2 slope)."""
    value = _samples().einstein.kernel_average(1, t)
    slope = _samples().einstein.kernel_slopes(t, 1)[1]
    return 1.0 / value - 2.0, -2.0 * slope / (t * value * value)


def check_newton_inverses(fast: bool) -> str:
    del fast
    cases = [
        (lambda x: (x - 0.3, 1.0), 0.5, 0.3),
        (lambda x: (x * x - 4.0, 2.0 * x), 5.0, 2.0),
        (_einstein_inverse_residual, 0.5, 1.0 / (2.0 * math.pi)),
    ]
    for i, (f, start, want) in enumerate(cases):
        got = newton_bracketed(f, start, tol=1e-12)
        _require(abs(got - want) <= 1e-9 * (1.0 + abs(want)), f"case {i}: {got!r} vs {want!r}")
    return "3 inverses"


def check_kernel_monotone_in_n(fast: bool) -> str:
    temps = (0.05, 0.3, 1.0) if fast else (0.02, 0.05, 0.3, 1.0, 5.0)
    for m in _samples().all:
        for t in temps:
            vals = m.kernel_values(t, 17)[1:]
            _require(np.all(np.diff(vals) < 0.0), f"{m.describe()} T={t}: {vals}")
    return f"{len(_samples().all)} measures x {len(temps)} temps, n<=16"


def check_kernel_high_low_T(fast: bool) -> str:
    del fast
    for m in _samples().all:
        t = 1e4 * m.omega_max
        for n in (1, 2, 5):
            v = m.kernel_average(n, t)
            scaled = v * (2.0 * n * math.pi * t) ** 2 / m.moment(2)
            _require(abs(scaled - 1.0) <= 1e-6, f"{m.describe()} n={n}: scaled {scaled!r}")
    for m in _samples().all:
        if m.kind == "tabulated":
            continue  # support reaches zero frequency, no atom gap
        t = 1e-6 * float(np.min(m.omegas))
        v = m.kernel_average(1, t)
        _require(abs(v - 1.0) <= 1e-9, f"{m.describe()} low-T value {v!r}")
    return "limits at both ends"


def check_discrete_exactness(fast: bool) -> str:
    del fast
    m = measure.discrete([(0.25, 0.5), (0.5, 1.0), (0.25, 3.0)])
    for k in (2, 4):
        want = sum(w * o ** k for w, o in zip(m.weights, m.omegas))
        _require(abs(m.moment(k) - want) <= 1e-14 * want, f"k={k}")
    for n in (1, 4):
        for t in (0.1, 0.7):
            want = sum(
                w * o * o / (o * o + (2 * n * math.pi * t) ** 2)
                for w, o in zip(m.weights, m.omegas)
            )
            got = m.kernel_average(n, t)
            _require(abs(got - want) <= 1e-14, f"n={n} t={t}")
    return "weighted sums reproduced"


def check_gamma_rank_monotone(fast: bool) -> str:
    n_max = 24 if fast else 64
    for gamma in (1.0, 2.0, 4.0):
        values = [gamma_model.g_top(gamma, n).value for n in range(1, n_max + 1)]
        diffs = np.diff(values)
        # increments die like the squared tail coupling; below ~N=40 at
        # gamma=4 they sink beneath double resolution, so strictness is
        # asserted only where representable
        strict_to = n_max if gamma < 4.0 else min(n_max, 32)
        grows = diffs[: strict_to - 1] > 0.0
        _require(np.all(grows),
                 f"gamma={gamma}: no strict growth at N={int(np.argmin(grows)) + 1}")
        tol = 4e-16 * max(values)
        _require(np.all(diffs >= -tol), f"gamma={gamma}: decrease beyond roundoff")
    return f"N=1..{n_max}, gamma in (1, 2, 4)"


def check_gamma_eigvec_structure(fast: bool) -> str:
    orders = (2, 8, 32) if fast else (2, 8, 64)
    for gamma in (1.0, 2.0, 4.0):
        for n in orders:
            pair = gamma_model.g_top(gamma, n)
            mat = gamma_model.assemble_gamma(gamma, n)
            shift = 1.0 + float(np.max(np.abs(np.diag(mat))))
            shifted_pair = sym_eig_top(mat + shift * np.eye(n))
            _require(np.all(shifted_pair.vector > 0.0),
                     f"gamma={gamma} N={n}: nonpositive component")
            theta = gamma_model.theta_profile(pair.vector)
            _require(not np.any(np.diff(theta) > 1e-12 * theta[0]),
                     f"gamma={gamma} N={n}: angle profile not nonincreasing")
    return f"gamma in (1, 2, 4), N in {orders}"


def check_dirichlet_identity(fast: bool) -> str:
    rng = np.random.default_rng(11)
    rounds = 60 if fast else 300
    for trial in range(rounds):
        n = int(rng.integers(1, 33))
        theta = rng.random(n)
        theta /= max(1.0, np.linalg.norm(theta))
        coeffs = gamma_model.dirichlet_coefficients(theta, n)
        for gamma in (1.5, 2.0, 4.0):
            series = gamma_model.dirichlet_series(coeffs, gamma)
            direct = gamma_model.hat_quadratic_form(theta, gamma)
            _require(abs(series - direct) <= 1e-12,
                     f"trial {trial} N={n} gamma={gamma}: {series!r} vs {direct!r}")
    return f"{rounds} random profiles"


def check_dirichlet_positivity(fast: bool) -> str:
    rng = np.random.default_rng(13)
    rounds = 200 if fast else 1000
    for trial in range(rounds):
        n = int(rng.integers(1, 33))
        theta = np.sort(rng.random(n))[::-1]
        low = np.min(gamma_model.dirichlet_coefficients(theta, n))
        _require(low >= 0.0, f"trial {trial} N={n}: min {low!r}")
    return f"{rounds} decreasing profiles, N<=32"


def check_constant_profile_conjecture(fast: bool) -> str:
    """Weighted quotient bounded below by the constant profile."""
    rng = np.random.default_rng(17)
    rounds = 100 if fast else 400
    for trial in range(rounds):
        n = int(rng.integers(2, 17))
        theta = np.sort(rng.random(n))[::-1]
        gamma = float(rng.choice([1.5, 2.0, 4.0]))
        lhs = gamma_model.hat_quadratic_form(theta, gamma) / gamma_model.diagonal_weighted_norm(theta)
        rhs = gamma_model.constant_profile_bound(n, gamma)
        _require(lhs >= rhs - 1e-10, f"trial {trial} N={n} gamma={gamma}: {lhs!r} < {rhs!r}")
    return f"{rounds} decreasing profiles"


def check_rank_monotonicity(fast: bool) -> str:
    n_max = 24 if fast else 64
    for m, t in ((_samples().einstein, 0.2), (_samples().two_atoms, 0.08)):
        values = [stability.k_numeric(m, t, n).k_value for n in range(1, n_max + 1)]
        grows = np.diff(values) > 0.0
        _require(np.all(grows),
                 f"{m.describe()} T={t}: no growth at N={int(np.argmin(grows)) + 1}")
    return f"N=1..{n_max}, 2 measures"


def check_zero_T_limit(fast: bool) -> str:
    orders = (1, 2, 4) if fast else (1, 2, 3, 4, 8)
    for m in (_samples().einstein, _samples().two_atoms):
        t = 1e-4 * float(np.min(m.omegas))
        for n in orders:
            got = stability.k_numeric(m, t, n).k_value
            want = stability.k_limit_T0(n).k0
            _require(abs(got - want) <= 1e-3, f"{m.describe()} N={n}: {got!r} vs {want!r}")
    return f"orders {orders}"


def check_high_T_asymptotics(fast: bool) -> str:
    orders = (1, 4) if fast else (1, 4, 16)
    for m in (_samples().einstein, _samples().two_atoms):
        t = 100.0 * m.omega_max
        for n in orders:
            got = stability.k_numeric(m, t, n).k_value * (2.0 * math.pi * t) ** 2 / m.moment(2)
            want = gamma_model.g_top(2.0, n).value
            _require(abs(got - want) / want <= 1e-5,
                     f"{m.describe()} N={n}: {got!r} vs {want!r}")
    return f"orders {orders}, T=100*edge"


def check_stability_eigvec_structure(fast: bool) -> str:
    orders = (4, 16) if fast else (4, 16, 64)
    samples = _samples()
    grids = ((samples.einstein, 0.15), (samples.two_atoms, 0.4), (samples.triangle, 0.1))
    for m, t in grids:
        for n in orders:
            vec = stability.k_numeric(m, t, n).eigvec
            _require(np.all(vec > 0.0), f"{m.describe()} T={t} N={n}: nonpositive component")
            theta = gamma_model.theta_profile(vec)
            _require(not np.any(np.diff(theta) > 1e-12 * theta[0]),
                     f"{m.describe()} T={t} N={n}: profile not nonincreasing")
    return f"{len(grids)} measures, N in {orders}"


def check_T_monotone_above_threshold(fast: bool) -> str:
    points = 6 if fast else 12
    for m in (_samples().einstein, _samples().two_atoms):
        t0 = tc_solver.t_star(m)
        temps = np.geomspace(t0, 50.0 * t0, points)
        for n in (2, 4, 16):
            vals = [stability.k_numeric(m, float(t), n).k_value for t in temps]
            _require(np.all(np.diff(vals) < 0.0), f"{m.describe()} N={n}")
    return f"{points}-point grids from the threshold upward"


def check_closed_vs_eig(fast: bool) -> str:
    varpis = (0.05, 0.5, 1.0, 5.0, 20.0) if fast else tuple(np.geomspace(0.05, 20.0, 20))
    t = 1.0 / (2.0 * math.pi)
    samples = [(measure.einstein(float(varpi)), t) for varpi in varpis]
    # temperatures across the band: the lower eigenvalues cluster at the cold
    # end, the unscaled resolvent quantities under- or overflow at the hot end
    measures = (_samples().einstein, _samples().two_atoms, _samples().triangle)
    if fast:
        samples += list(zip(measures, (1e-4, 1e-25, 1e25)))
    else:
        samples += [(m, 10.0 ** k) for m in measures for k in range(-30, 31)]
    for m, t in samples:
        # both routes on the leading blocks of one rank-four truncation
        mat = stability.assemble_k(m, t, 4).matrix
        for n in (1, 2, 3, 4):
            closed = stability.closed_form_bound(mat[:n, :n]).k_value
            eig = stability.eigensolver_bound(mat[:n, :n], t).k_value
            _require(abs(closed - eig) <= 1e-10 * abs(eig),
                     f"{m.describe()} T={t:.6g} N={n}: {closed!r} vs {eig!r}")
    return f"{len(samples)} measure-temperature pairs, ranks 1..4"


def check_sandwich(fast: bool) -> str:
    measures = _samples().all[: 3 if fast else 5]
    temps = np.geomspace(0.05, 5.0, 4 if fast else 10)
    big_n = 32 if fast else 64
    for m in measures:
        for t in temps:
            t = float(t)
            table = bounds.threshold_table(m, t, big_n)
            ks = [k.k_value for k in (*table.closed, table.numeric)]
            chain = ks + [table.k_star, table.k_sharp]
            for a, b in zip(chain, chain[1:]):
                _require(b >= a - 1e-12 * max(1.0, abs(a)), f"{m.describe()} T={t}: {a!r} > {b!r}")
            _require(all(x < y for x, y in zip(ks, ks[1:])),
                     f"{m.describe()} T={t}: rank chain not strict")
    return f"{len(measures)} measures x {len(temps)} temperatures, rank {big_n}"


def check_fixed_point(fast: bool) -> str:
    orders = (4, 16) if fast else (4, 32)
    for m in _samples().all[:3]:
        for n in orders:
            lam = stability.k_numeric(m, 0.3, n).lambda_upper
            rho = stability.c_spectral_radius(m, 0.3, lam, n, tol=1e-10)
            _require(abs(rho - 1.0) <= 1e-8, f"{m.describe()} N={n}: rho {rho!r}")
            _require(stability.c_spectral_radius(m, 0.3, lam / 2.0, n) < 1.0,
                     f"{m.describe()} N={n}: stable side not contracting")
            _require(stability.c_spectral_radius(m, 0.3, lam * 2.0, n) > 1.0,
                     f"{m.describe()} N={n}: unstable side not expanding")
    return f"3 measures, N in {orders}"


def check_derivative_identity(fast: bool) -> str:
    temps = (0.3, 1.0) if fast else (0.25, 0.3, 0.5, 1.0)
    sampled = 0
    samples = _samples()
    for m in (samples.einstein, measure.discrete([(0.5, 1.0), (0.5, 2.0)]), samples.triangle):
        for t in temps:
            chk = stability.dk_dT2_identity_check(m, t)
            sampled += 1
            _require(chk.residual <= 1e-6, f"{m.describe()} T={t}: residual {chk.residual!r}")
            _require(chk.closed_form < 0.0, f"{m.describe()} T={t}: integrand not negative")
    return f"{sampled} samples"


def check_scaling_covariance(fast: bool) -> str:
    del fast
    for m in (_samples().einstein, _samples().two_atoms, _samples().triangle):
        for s in (0.5, 3.0):
            for t in (0.12, 0.9):
                base = stability.k_numeric(m, t, 8).k_value
                moved = stability.k_numeric(m.scaled(s), s * t, 8).k_value
                _require(abs(base - moved) <= 1e-9 * abs(base),
                         f"{m.describe()} s={s} T={t}: {base!r} vs {moved!r}")
    return "3 measures x 2 scales"


def check_tc_defining_identity(fast: bool) -> str:
    lams = (2.0, 10.0) if fast else (2.0, 10.0, 100.0)
    for m in (_samples().einstein, _samples().two_atoms):
        for lam in lams:
            for n in (1, 2, 4, 8):
                entry = tc_solver.tc_n(m, lam, n)
                if entry.status == tc_solver.STATUS_UNDEFINED:
                    continue
                back = stability.k_numeric(m, entry.value, n).lambda_upper
                _require(abs(back - lam) <= 1e-8 * lam,
                         f"{m.describe()} lam={lam} N={n}: inverse {back!r}")
    return f"couplings {lams}, ranks 1..8"


def check_ladder_and_brackets(fast: bool) -> str:
    lams = (2.0, 10.0) if fast else (2.0, 10.0, 100.0)
    for lam in lams:
        values = [tc_solver.tc_n(_samples().einstein, lam, n).value for n in (1, 2, 3, 4)]
        _require(None not in values and all(a < b for a, b in zip(values, values[1:])),
                 f"lam={lam}: ladder {values}")
        report = tc_solver.tc_converged(_samples().einstein, lam, tol=1e-6)
        flat, tc, sharp = report.tc_flat, report.converged_tc, report.tc_sharp
        _require(tc is not None, f"lam={lam}: no convergence")
        _require(flat is None or flat < tc < sharp,
                 f"lam={lam}: bracket {flat!r} < {tc!r} < {sharp!r} fails")
        for entry in report.ladder:
            _require(entry.value is None or flat is None or flat < entry.value < sharp,
                     f"lam={lam}: rank {entry.n} outside the bracket")
    return f"couplings {lams}"


def check_asymptotic_consistency(fast: bool) -> str:
    del fast
    lam = 1e4
    entry = tc_solver.tc_n(_samples().einstein, lam, 4)
    asym = bounds.tc_asymptotic(_samples().einstein, lam, 4)
    rel = abs(entry.value - asym) / entry.value
    _require(rel <= 1e-3, f"rel {rel!r}")
    ceiling = bounds.tc_tilde(_samples().einstein, lam) / math.sqrt(
        gamma_model.g_top(2.0, bounds.GAMMA_LIMIT_RANK).value) * math.sqrt(
        gamma_model.g_top(2.0, 4).value)
    _require(asym <= ceiling + 1e-12,
             f"asymptotic {asym!r} above its leading-order ceiling {ceiling!r}")
    return f"rel {rel:.2e} at lam=1e4"


def check_sweep_determinism(fast: bool) -> str:
    from . import cli

    points = 8 if fast else 25
    first = io.StringIO()
    second = io.StringIO()
    for stream in (first, second):
        cli.write_sweep(stream, _samples().einstein, 0.5, 50.0, points, normalized=True,
                        inverse_sqrt_x=True)
    _require(first.getvalue() == second.getvalue(), "bytes differ between runs")
    return f"{points}-point sweep, twice"


ALL_CHECKS: tuple[tuple[str, Callable[[bool], str]], ...] = (
    ("eig top dominates Rayleigh quotients", check_eig_variational),
    ("eig shift covariance", check_eig_shift),
    ("zeta vs direct summation", check_zeta_oracle),
    ("Newton analytic inverses", check_newton_inverses),
    ("kernel average decreasing in index", check_kernel_monotone_in_n),
    ("kernel average high-T normalization", check_kernel_high_low_T),
    ("discrete moments exact", check_discrete_exactness),
    ("gamma-family eigenvalue grows with rank", check_gamma_rank_monotone),
    ("gamma-family eigenvector positive and ordered", check_gamma_eigvec_structure),
    ("Dirichlet expansion identity", check_dirichlet_identity),
    ("Dirichlet coefficients nonnegative on decreasing profiles", check_dirichlet_positivity),
    ("constant-profile lower bound (exploratory)", check_constant_profile_conjecture),
    ("stability eigenvalue grows with rank", check_rank_monotonicity),
    ("zero-temperature limit", check_zero_T_limit),
    ("high-temperature asymptotics", check_high_T_asymptotics),
    ("stability eigenvector positive and ordered", check_stability_eigvec_structure),
    ("stability eigenvalue decreasing above threshold", check_T_monotone_above_threshold),
    ("closed forms match eigensolver", check_closed_vs_eig),
    ("bound sandwich ordered", check_sandwich),
    ("fixed-point radius is one at threshold", check_fixed_point),
    ("temperature-derivative identity", check_derivative_identity),
    ("frequency-scaling covariance", check_scaling_covariance),
    ("ladder defining identity", check_tc_defining_identity),
    ("ladder increasing and bracketed", check_ladder_and_brackets),
    ("asymptotic inverse consistent", check_asymptotic_consistency),
    ("sweep output deterministic", check_sweep_determinism),
)


def run_checks(fast: bool = False, report: Optional[Callable[[str], None]] = None) -> list[CheckResult]:
    """Run the whole suite; returns all results in declaration order."""
    results = []
    for name, check in ALL_CHECKS:
        try:
            ok, detail = True, check(fast)
        except CheckFailed as exc:
            ok, detail = False, str(exc)
        except Exception as exc:  # a crashed check is a failed check
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        result = CheckResult(name, ok, detail, blocking=not name.endswith("(exploratory)"))
        results.append(result)
        if report is not None:
            flag = "PASS" if result.ok else "FAIL"
            note = "" if result.blocking else " [non-blocking]"
            report(f"{flag}{note} {result.name}: {result.detail}")
    return results
