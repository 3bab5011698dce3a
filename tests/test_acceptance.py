"""Acceptance gate: every criterion at its stated tolerance, one printed
PASS/FAIL line per criterion (run with -s to see them all).  Per
criterion: claim; regime where it holds; points sampled.  Criteria 01-04
and 08 run the divpart.checks function of the same claim.

    01 totient constant: zeta(2) C(1) = 2.20386 (Landau), in 5 s; r = 1; prime cutoff 1e6
    02 oracles: packed = naive = enumeration, in 30 s; every r, n; r = 2, 3, n <= 12
       (the naive oracle alone past the negative gap at r = 2, n = 10..12)
    03 shifted-sum identity: c_m(n + 1) through characters, in 10 s; every m, n;
       m <= 30, n <= 100
    04 double series: closed D1 = double sum, in 60 s; s > 1; (s, r) = (3, 2), (2, 1),
       m <= 2000, n <= 20000
    05 divisor sums: zeta(r+1) n^r sum_{m <= M} c_m(n) / m^(r+1) = sigma_r(n) to 1e-3;
       every n as M -> inf; r = 2, n <= 50, M = 1e5
    06 Mellin leading order: ratio -> 1 monotonically, within 0.05; gamma -> 0;
       gamma = 0.1, 0.05, 0.02, j = 0, 1, r = 2, 3, u = 1
    07 partials: exact = Richardson finite differences to 1e-5; gamma, u > 0;
       every partial but F, gamma = 0.05, 0.1, u = 0.5, 1, 1.5, r = 2, 3
    08 saddle residuals: residual < 1e-9 max(1, n); every n; n = 1, 10, 100, 1000,
       r = 2, 3, both modes
    09 growth exponent: saddle-mean log-log slope within 0.1 of (r+1)/(r+2); r = 2, 3
       from n = 100 on (the slope rises to r/(r+1), 1/((r+1)(r+2)) below the target);
       n = 100, 200, ..., 1600, r = 2, 3
    10 CLT trend: KS distance non-increasing within 10 %, MGF deviations shrinking;
       rows admitted as laws (r = 2, n <= 400: none past n = 15 strictly,
       2 <= n <= 231 under a 0.01 override); r = 2, n = 50, 100, 200, 400, theta = 0.25, 0.5
    11 tail bounds: tail <= 1.5 e^(-x^2/2) (x <= T), 1.5 e^(-T x/2) (x > T); rows
       admitted as laws; r = 2, n = 400 (refused, as a finding) and n = 200 (0.01
       override), x = 1, 2
    12 verify determinism: byte-identical stdout and JSON report; every run and
       worker count; 3 runs, --workers 1, 4, 1

Criteria 10 and 11 quantify over rows admissible as probability laws.
Exact computation shows no such row exists for r = 2 past n = 15 (the
weight-1 cell equals the sign-changing gap, and by n = 400 the signed
defect reaches bulk scale), so their trend clauses hold over the
admissible subset while the exclusion counts are reported, exactly as
stated.  To keep both tests non-vacuous they additionally assert the
diagnostic rerun under the documented signed-row override, which shows
the genuine trend through n = 200 and the bulk-scale breakdown at 400.
"""

import inspect
import math
import time

import numpy as np
import pytest
from _fd import fd_mixed_richardson
from divpart import arith, checks, cli, cltlab, dirichlet, partition, saddle


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_totient_summatory_constant():
    # every Euler product sieves its own primes, so the timing is cold
    t0 = time.perf_counter()
    ok, detail = checks.totient_summatory_constant()
    elapsed = time.perf_counter() - t0
    _report(1, ok and elapsed < 5.0, f"{detail}, {elapsed:.2f} s")


def test_criterion_02_oracle_equivalence():
    t0 = time.perf_counter()
    ok, detail = checks.oracle_equivalence()
    # the negative-gap regime (gap(10) = -8 at r = 2) must be covered by the naive oracle
    assert arith.GapSequence.build(2, 10).gaps[9] < 0
    for n_max in (10, 11, 12):
        assert partition.oracle_table(2, n_max).enumeration.n_max == 9
    elapsed = time.perf_counter() - t0
    _report(2, ok and elapsed < 30.0, f"{detail}, incl. negative-gap n = 10..12, {elapsed:.1f} s")


def test_criterion_03_shifted_sum_identity():
    t0 = time.perf_counter()
    ok, detail = checks.shifted_sum_identity()
    elapsed = time.perf_counter() - t0
    _report(3, ok and elapsed < 10.0, f"{detail}, {elapsed:.1f} s")


def test_criterion_04_double_series_identity():
    t0 = time.perf_counter()
    ok, detail = checks.double_series_closed_vs_direct()
    elapsed = time.perf_counter() - t0
    _report(4, ok and elapsed < 60.0, f"{detail}, m <= 2000, n <= 20000, {elapsed:.1f} s")


def test_criterion_05_divisor_sum_identity():
    r = 2
    z = dirichlet.zeta_real(r + 1.0)
    worst = 0.0
    ns = list(range(1, 51))
    for n, partial in zip(ns, arith.ramanujan_weighted_partial(ns, 10**5, r)):
        approx = z * n**r * partial
        exact = arith.sigma_r(n, r)
        worst = max(worst, abs(approx - exact) / exact)
    _report(5, worst < 1e-3,
            f"max relative defect {worst:.2e} over n <= 50, m <= 1e5")


def test_criterion_06_mellin_leading_order():
    grid = [0.1, 0.05, 0.02]
    worst_final = 0.0
    monotone = True
    for r in (2, 3):
        for j in (0, 1):
            ratios = saddle.mellin_ratio_check(j, grid, 1.0, r)
            worst_final = max(worst_final, abs(ratios[-1] - 1.0))
            for a, b in zip(ratios, ratios[1:]):
                if abs(b - 1.0) > abs(a - 1.0) + 1e-9:
                    monotone = False
    _report(6, worst_final < 0.05 and monotone,
            f"final |ratio - 1| = {worst_final:.2e} at gamma = 0.02, "
            f"monotone approach = {monotone}")


def test_criterion_07_partials_match_finite_differences():
    worst = 0.0
    worst_at = None
    for r in (2, 3):
        surface = lambda g, u, _r=r: saddle.F_partial(g, u, _r, (0, 0))
        for gamma in (0.05, 0.1):
            for u in (0.5, 1.0, 1.5):
                for jg, ju in saddle.SUPPORTED_PARTIALS:
                    if (jg, ju) == (0, 0):
                        continue
                    hg = gamma / 40 if jg <= 2 else gamma / 60
                    hu = u / 60 if ju <= 2 else u / 40
                    fd = fd_mixed_richardson(surface, gamma, u, jg, ju, hg, hu)
                    exact = saddle.F_partial(gamma, u, r, (jg, ju))
                    rel = abs(fd - exact) / abs(exact)
                    if rel > worst:
                        worst, worst_at = rel, (r, gamma, u, jg, ju)
    _report(7, worst < 1e-5,
            f"max FD relative error {worst:.2e} at {worst_at} "
            f"(14 partials x 12 grid points x r in {{2,3}})")


def test_criterion_08_saddle_residuals():
    ok, detail = checks.residual_tolerance()
    _report(8, ok, f"{detail}, both modes")


def test_criterion_09_growth_exponents():
    grid = [100, 200, 400, 800, 1600]
    details = []
    ok = True
    for r in (2, 3):
        target = (r + 1.0) / (r + 2.0)
        fit = cltlab.exponent_fit(r, grid)
        ok = ok and abs(fit.slope_mean - target) < 0.1
        details.append(f"r={r}: slope {fit.slope_mean:.3f} vs {target:.3f}")
    _report(9, ok, "; ".join(details))


def test_criterion_10_clt_trend(table_r2_400):
    n_list = [50, 100, 200, 400]
    strict = cltlab.clt_report(table_r2_400, n_list)
    # literal criterion: trend over admissible rows, exclusions reported
    strict_trend = cltlab.ks_trend_ok(strict)
    # diagnostic rerun under the documented signed-row override
    diag = cltlab.clt_report(table_r2_400, n_list, max_negative_mass=0.01)
    diag_ks = [row.ks_distance for row in diag.rows if row.included]
    diag_trend = all(b <= 1.10 * a for a, b in zip(diag_ks, diag_ks[1:]))
    mgf_moves = True
    usable = [row.n for row in diag.rows if row.included]
    profiles = {
        n: cltlab.mgf_profile(table_r2_400, n, [0.25, 0.5], max_negative_mass=0.01)
        for n in usable
    }
    for theta in (0.25, 0.5):
        devs = [abs(profiles[n][theta][0] - profiles[n][theta][1]) for n in usable]
        mgf_moves = mgf_moves and all(b <= a + 1e-12 for a, b in zip(devs, devs[1:]))
    ok = strict_trend and diag_trend and mgf_moves and strict.exclusion_count == 4
    _report(
        10, ok,
        f"admissible rows under strict positivity: {4 - strict.exclusion_count}/4 "
        f"(excluded {strict.excluded}); diagnostic override: KS "
        f"{['%.4f' % k for k in diag_ks]} over n = {usable} (non-increasing within "
        f"10%), MGF deviations shrink at theta in {{0.25, 0.5}}, n = 400 stays "
        f"excluded at bulk-scale signed defect",
    )


def test_criterion_11_tail_bounds(table_r2_400):
    def consistent(rep, n):
        # each record a probability, on the branch its x selects, under a bound >= 0
        # (every report here is at r = 2)
        t_split = cltlab.tail_split(n, 2)
        return all(
            0.0 <= rec.prob <= 1.0
            and rec.branch == ("gauss" if rec.x <= t_split else "linear")
            and rec.bound >= 0.0
            for rec in rep.records
        )

    report = cltlab.tail_report(table_r2_400, 400, [1.0, 2.0])
    produced = report is not None
    refusal_finding = report.refused and any("negative" in f for f in report.findings)
    # diagnostic: the same machinery end-to-end on the largest admissible row
    diag = cltlab.tail_report(table_r2_400, 200, [1.0, 2.0], max_negative_mass=0.01)
    diag_ok = (
        not diag.refused
        and consistent(diag, 200)
        and all(rec.ok for rec in diag.records)
    )
    ok = produced and consistent(report, 400) and refusal_finding and diag_ok
    _report(
        11, ok,
        f"n = 400 report produced, self-consistent, refusal recorded as a "
        f"structured finding ({report.findings[0][:60]}...); diagnostic n = 200 "
        f"passes both branches at x in {{1, 2}} with slack 0.5",
    )


def test_criterion_12_verify_determinism(capsys, tmp_path):
    outputs = []
    for workers, tag in ((1, "a"), (4, "b"), (1, "c")):
        path = tmp_path / f"verify_{tag}.json"
        code = cli.main(["verify", "--workers", str(workers),
                         "--output", str(path)])
        captured = capsys.readouterr().out
        outputs.append((code, captured, path.read_bytes()))
    codes = {c for c, _, _ in outputs}
    stdout_same = len({s for _, s, _ in outputs}) == 1
    files_same = len({b for _, _, b in outputs}) == 1
    ok = codes == {0} and stdout_same and files_same
    _report(12, ok,
            "verify byte-identical across reruns and worker counts 1/4")


# ---------------------------------------------------------------------------
# Each check fails when the layer it reads is corrupted
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("r", [2, 3])
@pytest.mark.parametrize("bad_n", range(1, 13))
def test_oracle_equivalence_sees_each_corrupt_size(monkeypatch, r, bad_n):
    # one wrong cell in the table of one size, which only that size's
    # comparison with the naive oracle can see
    real = partition.build_table

    def corrupt(rr, n, *args, **kwargs):
        table = real(rr, n, *args, **kwargs)
        if (rr, n) == (r, bad_n):
            table.coeff[n][-1] += 1
        return table

    monkeypatch.setattr(partition, "build_table", corrupt)
    assert checks.oracle_equivalence() == (False, f"naive oracle mismatch at r = {r}")


@pytest.mark.parametrize("r,bad_n", [(2, n) for n in range(1, 10)] + [(3, n) for n in range(1, 13)])
def test_oracle_equivalence_reads_the_enumeration_to_its_last_row(monkeypatch, r, bad_n):
    # the enumeration oracle reaches n = 9 at r = 2 (gap(10) < 0) and every
    # n <= 12 at r = 3; a wrong cell in any of its rows fails the check
    real = partition.oracle_table

    def corrupt(rr, n_max):
        oracles = real(rr, n_max)
        if rr == r:
            oracles.enumeration.coeff[bad_n][-1] += 1
        return oracles

    monkeypatch.setattr(partition, "oracle_table", corrupt)
    assert checks.oracle_equivalence() == (False, f"enumeration oracle mismatch at r = {r}")


def test_oracle_equivalence_builds_each_oracle_once_per_r(monkeypatch):
    calls = []
    for name in ("_naive_table", "_enumeration_table"):
        real = getattr(partition, name)

        def counted(r, n_max, gaps, real=real, name=name):
            calls.append((name, r, n_max))
            return real(r, n_max, gaps)

        monkeypatch.setattr(partition, name, counted)
    assert checks.oracle_equivalence() == (
        True, "entrywise equal at r = 2, 3, n <= 12; holds at every r, n")
    assert sorted(calls) == [("_enumeration_table", 2, 9), ("_enumeration_table", 3, 12),
                             ("_naive_table", 2, 12), ("_naive_table", 3, 12)]


@pytest.mark.parametrize("bad_order", range(1, 6))
def test_factor_permutation_invariance_reads_every_order(monkeypatch, bad_order):
    # one cell of row 40 differs in the build of one of the 5 shuffled orders
    real = partition.build_table
    orders = []

    def skewed(r, n_max, factor_order=None):
        table = real(r, n_max, factor_order)
        if factor_order is not None:
            orders.append(list(factor_order))
            if len(orders) == bad_order:
                table.coeff[n_max][-1] += 1
        return table

    monkeypatch.setattr(partition, "build_table", skewed)
    ok, detail = checks.factor_permutation_invariance()
    assert (ok, len(orders)) == (False, bad_order), detail
    assert detail == f"shuffled order {bad_order} of 5 changes the table at r = 2, n <= 40"
    assert all(sorted(order) == list(range(1, 41)) for order in orders)


def test_checks_take_no_argument():
    # every sample is a literal in its check's body
    assert len(checks.REGISTRY) == 14
    for name, check in checks.REGISTRY:
        assert inspect.signature(check).parameters == {}, name


@pytest.mark.parametrize("m,n", [(100, 1), (1, 100)])
def test_ramanujan_checks_read_the_last_modulus_and_weight(monkeypatch, m, n):
    # c_m(n) off by one at one coprime pair on the edge of the sweep
    real = arith.ramanujan_sum
    monkeypatch.setattr(arith, "ramanujan_sum", lambda mm, nn: real(mm, nn) + ((mm, nn) == (m, n)))
    assert checks.ramanujan_equals_mobius_on_coprimes() == (
        False, "1 coprime pairs violate c_m(n) = mu(m) at m, n <= 100; holds at every pair")
    assert checks.ramanujan_closed_vs_exponential() == (
        False, "max |closed - exponential| = 1.000e+00 at m, n <= 100; holds at every m, n")


def test_closed_vs_exponential_tolerance_is_strict(monkeypatch):
    monkeypatch.setattr(arith, "ramanujan_sum", lambda m, n: 0)
    for defect, ok in ((1e-10, False), (math.nextafter(1e-10, 0.0), True)):
        monkeypatch.setattr(arith, "ramanujan_sum_exponential",
                            lambda m, ns, d=defect: np.full(len(ns), d))
        assert checks.ramanujan_closed_vs_exponential()[0] is ok


def test_character_orthogonality_reads_the_last_modulus_strictly(monkeypatch):
    # a defect of exactly CHARACTER_TOL in residue 0 mod 50, the last modulus
    tol = arith.CHARACTER_TOL
    real = arith.characters_mod
    for defect, ok in ((tol, False), (math.nextafter(tol, 0.0), True)):
        def chars(m, d=defect):
            table = real(m).copy()
            if m == 50:
                table[0, 0] = d
            return table

        monkeypatch.setattr(arith, "characters_mod", chars)
        assert checks.character_orthogonality() == (
            ok, f"max orthogonality defect = {defect:.3e} at m <= 50; holds at every m")


def test_shifted_sum_identity_tolerance_is_strict(monkeypatch):
    tol = arith.CHARACTER_TOL
    for worst, ok in ((tol, False), (math.nextafter(tol, 0.0), True)):
        # the defect sits at the check's one sample, m <= 30 and n <= 100
        monkeypatch.setattr(arith, "shifted_identity_max_residual",
                            lambda m, n, w=worst: w if (m, n) == (30, 100) else 0.0)
        assert checks.shifted_sum_identity()[0] is ok


def test_totient_constant_needs_both_values(monkeypatch):
    # C(1) off by 1e-3 with zeta(2) C(1) exactly Landau's value, and back
    for c1, ok in ((1.339784 + 1e-3, False), (1.339784, True)):
        monkeypatch.setattr(dirichlet, "constant_C", lambda r, c=c1: dirichlet.SeriesValue(c, 0.0))
        monkeypatch.setattr(dirichlet, "zeta_real", lambda s, c=c1: 2.20386 / c)
        assert checks.totient_summatory_constant()[0] is ok
    monkeypatch.setattr(dirichlet, "zeta_real", lambda s: 2.20386 / 1.339784 + 1e-3)
    assert checks.totient_summatory_constant()[0] is False


@pytest.mark.parametrize("name", ["polylog", "double_series", "cutoff_stability"])
def test_float_check_tolerances_are_strict(monkeypatch, name):
    # each check's defect set to exactly its tolerance fails, and one ulp below passes
    tol = {"polylog": 1e-9, "double_series": 1e-3, "cutoff_stability": 2e-8}[name]
    for defect, ok in ((tol, False), (math.nextafter(tol, 0.0), True)):
        if name == "polylog":
            # rhs = -(1 - 2^(1-s)) * 0.0, so lhs - rhs is the defect itself
            monkeypatch.setattr(dirichlet, "zeta_real", lambda s: 0.0)
            monkeypatch.setattr(dirichlet, "polylog_neg", lambda s, u, d=defect: d)
            got = checks.polylog_special_values()
        elif name == "double_series":
            monkeypatch.setattr(dirichlet, "dirichlet_d1",
                                lambda s, r, d=defect: dirichlet.SeriesValue(d, 0.0))
            monkeypatch.setattr(dirichlet, "d1_direct",
                                lambda s, r: dirichlet.SeriesValue(0.0, 0.0))
            got = checks.double_series_closed_vs_direct()
        else:
            # only C(2) drifts, by the defect, when its cutoff doubles
            def value(cutoff, d=defect):
                return dirichlet.SeriesValue(d if cutoff == 10**5 else 0.0, 0.0)

            monkeypatch.setattr(dirichlet, "constant_C", lambda r, cutoff: value(cutoff))
            monkeypatch.setattr(dirichlet, "euler_K",
                                lambda s, r, cutoff: dirichlet.SeriesValue(0.0, 0.0))
            monkeypatch.setattr(dirichlet, "_E_r",
                                lambda sigma, r, cutoff: dirichlet.SeriesValue(0.0, 0.0))
            got = checks.euler_product_cutoff_stability()
        assert got[0] is ok, (defect, got)


def test_residual_check_tolerance_is_strict(monkeypatch):
    # at n = 1, the check's first point, the scaled residual is the residual itself
    for residual, ok in ((1e-9, False), (math.nextafter(1e-9, 0.0), True)):
        monkeypatch.setattr(saddle, "solve_saddle", lambda n, u, r, mode, res=residual:
                            saddle.SaddlePoint(tau=1.0, residual=res, F_val=0.0, F_g=0.0,
                                               F_gg=1.0, theta_n=0.0))
        assert checks.residual_tolerance()[0] is ok


def test_fd_check_tolerance_is_strict(monkeypatch):
    # F on the check's 3 x 3 stencil: the (0, 1) difference is 10001 and
    # the other two are 1/h^2 and 1/(4 h^2).  The exact (0, 1) partial
    # 10000 is off by exactly 1e-4 relative and fails; the next float up passes.
    gamma, u, h = 0.1, 1.0, 1e-4
    a = 10001.0 * (2 * h)
    while a / (2 * h) != 10001.0:
        a = math.nextafter(a, math.inf if a / (2 * h) < 10001.0 else 0.0)
    stencil = {(gamma, u + h): a, (gamma + h, u): 1.0, (gamma + h, u + h): 1.0}
    fds = {(2, 0): 1.0 / h**2, (1, 1): 1.0 / (4 * h * h)}
    for exact, ok in ((10000.0, False), (math.nextafter(10000.0, math.inf), True)):
        partials = {**fds, (0, 1): exact}
        monkeypatch.setattr(saddle, "F_partial", lambda g, v, r, order, p=partials:
                            stencil.get((g, v), 0.0) if order == (0, 0) else p[order])
        assert checks.partials_match_finite_differences()[0] is ok


@pytest.mark.parametrize("ratios,ok", [
    ([1.03, 1.03], True),                        # an equal step counts as monotone
    ([1.01, 1.02], False),                       # moving away from 1 fails, though near
    ([1.05], False),                             # |1.05 - 1| rounds above 0.05
    ([math.nextafter(1.05, 0.0)], True),         # the largest ratio that is near
])
def test_mellin_check_edges(monkeypatch, ratios, ok):
    monkeypatch.setattr(saddle, "mellin_ratio_check", lambda j, grid, u, r: ratios)
    assert checks.mellin_leading_order()[0] is ok


@pytest.mark.parametrize("zero,far,ok", [
    (0.0, -1.0, True), (1e-300, -1.0, False), (0.0, 1.0, False), (0.0, 0.0, False),
    (0.0, -math.inf, False), (0.0, math.nan, False),
])
def test_minor_arc_check_needs_every_clause(monkeypatch, zero, far, ok):
    monkeypatch.setattr(saddle, "minor_arc_log_ratio",
                        lambda gamma, theta, u, r: zero if theta == 0.0 else far)
    assert checks.minor_arc_decay()[0] is ok
