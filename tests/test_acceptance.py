"""Acceptance gate: every criterion at its stated tolerance, one printed
PASS/FAIL line per criterion (run with -s to see them all).

Criteria 10 and 11 quantify over rows admissible as probability laws.
Exact computation shows no such row exists for r = 2 past n = 15 (the
weight-1 cell equals the sign-changing gap, and by n = 400 the signed
defect reaches bulk scale), so their trend clauses hold over the
admissible subset while the exclusion counts are reported, exactly as
stated.  To keep both tests non-vacuous they additionally assert the
diagnostic rerun under the documented signed-row override, which shows
the genuine trend through n = 200 and the bulk-scale breakdown at 400.
"""

import time

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
    ok, detail = checks.oracle_equivalence(n_max=12)
    # the negative-gap regime (gap(10) = -8 at r = 2) must be covered by the naive oracle
    assert arith.GapSequence.build(2, 10).gaps[9] < 0
    for n_max in (10, 11, 12):
        assert partition.oracle_table(2, n_max).enumeration is None
    elapsed = time.perf_counter() - t0
    _report(2, ok and elapsed < 30.0,
            f"{detail} at every N and r in {{2,3}}, incl. negative-gap N=10..12, "
            f"{elapsed:.1f} s")


def test_criterion_03_shifted_sum_identity():
    t0 = time.perf_counter()
    ok, detail = checks.shifted_sum_identity(m_max=30, n_max=100)
    elapsed = time.perf_counter() - t0
    _report(3, ok and elapsed < 10.0, f"{detail}, {elapsed:.1f} s")


def test_criterion_04_double_series_identity():
    t0 = time.perf_counter()
    ok, detail = checks.double_series_closed_vs_direct(m_limit=2000, n_limit=20000, tol=1e-3)
    elapsed = time.perf_counter() - t0
    _report(4, ok and elapsed < 60.0,
            f"{detail} at (s,r) in {{(3,2),(2,1)}}, m <= 2000, n <= 20000, {elapsed:.1f} s")


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
    ok, detail = checks.residual_tolerance(ns=(1, 10, 100, 1000))
    _report(8, ok, f"{detail} over both modes, n in {{1,10,100,1000}}, r in {{2,3}}")


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
    strict = cltlab.clt_report(2, n_list, table=table_r2_400)
    # literal criterion: trend over admissible rows, exclusions reported
    strict_trend = cltlab.ks_trend_ok(strict)
    # diagnostic rerun under the documented signed-row override
    diag = cltlab.clt_report(2, n_list, table=table_r2_400, max_negative_mass=0.01)
    diag_ks = [row.ks_distance for row in diag.rows if row.included]
    diag_trend = all(b <= 1.10 * a for a, b in zip(diag_ks, diag_ks[1:]))
    mgf_moves = True
    usable = [row.n for row in diag.rows if row.included]
    profiles = {
        n: cltlab.mgf_profile(n, 2, [0.25, 0.5], table=table_r2_400,
                              max_negative_mass=0.01)
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
    def consistent(rep):
        # each record a probability, on the branch its x selects, under a bound >= 0
        # (every report here is at r = 2)
        t_split = cltlab.tail_split(rep.n, 2)
        return all(
            0.0 <= rec.prob <= 1.0
            and rec.branch == ("gauss" if rec.x <= t_split else "linear")
            and rec.bound >= 0.0
            for rec in rep.records
        )

    report = cltlab.tail_report(400, 2, [1.0, 2.0], table=table_r2_400)
    produced = report is not None
    refusal_finding = report.refused and any("negative" in f for f in report.findings)
    # diagnostic: the same machinery end-to-end on the largest admissible row
    diag = cltlab.tail_report(200, 2, [1.0, 2.0], table=table_r2_400,
                              max_negative_mass=0.01)
    diag_ok = (
        not diag.refused
        and consistent(diag)
        and all(rec.ok for rec in diag.records)
    )
    ok = produced and consistent(report) and refusal_finding and diag_ok
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
        code = cli.main(["verify", "--quick", "--workers", str(workers),
                         "--output", str(path)])
        captured = capsys.readouterr().out
        outputs.append((code, captured, path.read_bytes()))
    codes = {c for c, _, _ in outputs}
    stdout_same = len({s for _, s, _ in outputs}) == 1
    files_same = len({b for _, _, b in outputs}) == 1
    ok = codes == {0} and stdout_same and files_same
    _report(12, ok,
            "verify --quick byte-identical across reruns and worker counts 1/4")
