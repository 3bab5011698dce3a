import dataclasses
import inspect
import math
from fractions import Fraction

import pytest

import _scalar_oracle as oracle
from divpart import cltlab, partition


class TestNormalCdf:
    def test_symmetry_and_midpoint(self):
        assert cltlab.norm_cdf(0.0) == 0.5
        assert abs(cltlab.norm_cdf(1.0) + cltlab.norm_cdf(-1.0) - 1.0) < 1e-15

    def test_erf_accuracy_at_one(self):
        series = 2.0 / math.sqrt(math.pi) * math.fsum(
            (-1) ** k / (math.factorial(k) * (2 * k + 1)) for k in range(30)
        )
        assert abs(math.erf(1.0) - series) < 1e-10


class TestKs:
    def test_point_mass(self):
        assert abs(cltlab.ks_to_normal([1], 1, 0.0, 1.0) - 0.5) < 1e-12

    def test_binomial_converges(self):
        # standardized Binomial(n, 1/2) approaches the normal
        def binom_ks(n):
            cells = [math.comb(n, k) for k in range(n + 1)]
            return cltlab.ks_to_normal(cells, 2**n, n / 2, math.sqrt(n / 4))

        assert binom_ks(64) < binom_ks(16) < binom_ks(4)

    def test_needs_positive_std(self):
        for std in (0.0, math.nan):
            with pytest.raises(ValueError):
                cltlab.ks_to_normal([1], 1, 0.0, std)


class TestCltReport:
    def test_degenerate_single_point(self):
        # n = 1 is a point mass: excluded, its note names the variance
        report = cltlab.clt_report(partition.build_table(2, 1), [1])
        row = report.rows[0]
        assert not row.included and row.ks_distance is None
        assert row.note == "nonpositive variance (0.000e+00)"
        assert report.excluded == [1]

    def test_strict_rule_excludes_signed_rows(self, table_r2_400):
        report = cltlab.clt_report(table_r2_400, [50, 100, 200, 400])
        assert report.excluded == [50, 100, 200, 400]
        assert report.exclusion_count == 4
        for row in report.rows:
            assert not row.included
            assert row.negativity_count > 0
            assert row.mu_saddle["general"] > 0
            assert row.nu2_saddle["paper_literal"] > 0

    def test_diagnostic_override_keeps_mildly_signed_rows(self, table_r2_400):
        report = cltlab.clt_report(table_r2_400, [50, 100, 200, 400], max_negative_mass=0.01)
        # n = 400 is signed at bulk scale and stays out under any sane override
        assert report.excluded == [400]
        ks = [row.ks_distance for row in report.rows if row.included]
        assert len(ks) == 3
        assert all(b <= 1.10 * a for a, b in zip(ks, ks[1:]))
        assert cltlab.ks_trend_ok(report)

    def test_exact_mean_within_factor_three_of_weighted_saddle(self, table_r2_400):
        report = cltlab.clt_report(table_r2_400, [200, 400])
        for row in report.rows:
            ratio = row.mean_exact / row.mu_saddle["general"]
            assert 1.0 / 3.0 < ratio < 3.0

    def test_standardized_moments_exact(self, table_r2_400):
        # float conversion is the only loss
        dist = partition.exact_distribution(table_r2_400, 100)
        mean = float(dist.mean)
        std = math.sqrt(float(dist.variance))
        probs = [(k, c / dist.total) for k, c in enumerate(dist.cells)]
        zsum = math.fsum(p * (k - mean) / std for k, p in probs)
        z2sum = math.fsum(p * ((k - mean) / std) ** 2 for k, p in probs)
        assert abs(zsum) < 1e-12
        assert abs(z2sum - 1.0) < 1e-12

    def test_requires_increasing_list(self, table_r2_60):
        # strictly: 20,20,20,20 used to end in the slope fit's division by zero
        for n_list in ([100, 50], [20, 20], [20, 20, 20, 20], [10, 20, 20, 30]):
            with pytest.raises(ValueError, match="strictly increasing"):
                cltlab.clt_report(table_r2_60, n_list)

    @pytest.mark.parametrize("n_list", [[], [0, 10], [-5, 10]])
    def test_requires_nonempty_positive_list(self, table_r2_60, n_list):
        with pytest.raises(ValueError, match="non-empty, strictly increasing and positive"):
            cltlab.clt_report(table_r2_60, n_list)

    def test_exponent_fit_from_four_rows(self, table_r2_60):
        # the fit of the gap-weighted saddle slopes needs four rows
        four = cltlab.clt_report(table_r2_60, [20, 30, 40, 50])
        fit = cltlab.exponent_fit(2, [20, 30, 40, 50])
        assert (four.exponent_fit_mean, four.exponent_fit_var) == (fit.slope_mean, fit.slope_var)
        three = cltlab.clt_report(table_r2_60, [20, 30, 40])
        assert three.exponent_fit_mean is None and three.exponent_fit_var is None

    def test_negative_mass_limit_is_inclusive(self):
        # r = 1, n = 8: cells (0, -2, 29, 5, 2) over 34, signed defect 2/34
        table = partition.build_table(1, 8)
        at = cltlab.clt_report(table, [8], max_negative_mass=2 / 34)
        below = cltlab.clt_report(table, [8], max_negative_mass=math.nextafter(2 / 34, 0.0))
        assert (at.excluded, below.excluded) == ([], [8])

    def test_ks_trend_slack_is_inclusive(self):
        rows = [cltlab.CltRow(n=n, mean_exact=1.0, var_exact=1.0, mu_saddle={}, nu2_saddle={},
                              ks_distance=ks, negativity_count=0, included=True)
                for n, ks in ((10, 0.1), (20, 1.1 * 0.1), (30, 1.1 * (1.1 * 0.1)))]
        report = cltlab.CltReport(rows=rows, exponent_fit_mean=None, exponent_fit_var=None)
        assert cltlab.ks_trend_ok(report)
        worse = dataclasses.replace(rows[2], ks_distance=math.nextafter(rows[2].ks_distance, 1.0))
        assert not cltlab.ks_trend_ok(dataclasses.replace(report, rows=[*rows[:2], worse]))

    def test_gate_admits_any_override_only_at_positive_variance(self):
        # r = 1: rows 4 and 6 are signed with exact variance -1/9 and -22/75
        table = partition.build_table(1, 7)
        report = cltlab.clt_report(table, [4, 5, 6, 7], max_negative_mass=math.inf)
        assert report.excluded == [4, 6]
        assert [partition.exact_distribution(table, n).variance for n in (4, 6)] == [
            Fraction(-1, 9), Fraction(-22, 75)]
        for row in report.rows:
            assert row.included == (row.ks_distance is not None) == (row.var_exact > 0)
        assert cltlab.ks_trend_ok(report) is False  # 0.382 -> 0.492 over rows 5, 7


class TestMgfProfile:
    def test_unit_at_zero(self, table_r3_400):
        profile = cltlab.mgf_profile(table_r3_400, 400, [0.0], max_negative_mass=1e-9)
        assert profile[0.0][0] == 1.0
        assert profile[0.0][1] == 1.0

    def test_strict_rule_refuses_signed_rows(self, table_r2_400):
        with pytest.raises(ValueError, match="refused"):
            cltlab.mgf_profile(table_r2_400, 50, [0.5])

    def test_nan_limit_refuses_signed_rows(self, table_r2_400):
        with pytest.raises(ValueError, match="refused"):
            cltlab.mgf_profile(table_r2_400, 50, [0.5], max_negative_mass=math.nan)

    def test_negative_row_refused(self):
        # row -1 used to read row 12, the last one, labelled n = -1
        with pytest.raises(ValueError, match="outside table range"):
            cltlab.mgf_profile(partition.build_table(3, 12), -1, [0.5], max_negative_mass=1.0)

    def test_movement_toward_gaussian(self, table_r2_400):
        out = {}
        for n in (50, 100, 200):
            out[n] = cltlab.mgf_profile(table_r2_400, n, [0.25, 0.5], max_negative_mass=0.01)
        for theta in (0.25, 0.5):
            devs = [abs(out[n][theta][0] - out[n][theta][1]) for n in (50, 100, 200)]
            assert devs[2] < devs[1] < devs[0]

    def test_asymmetry_reported_not_asserted(self, table_r3_400):
        profile = cltlab.mgf_profile(table_r3_400, 400, [-0.5, 0.5], max_negative_mass=1e-9)
        assert profile[0.5][0] != profile[-0.5][0]

    def test_refuses_point_mass_row(self):
        with pytest.raises(ValueError, match=r"row 1 refused for MGF: nonpositive variance"):
            cltlab.mgf_profile(partition.build_table(2, 1), 1, [0.5])

    def test_theta_range_guard(self):
        for grid in ([3.0], [0.5, math.nan]):
            with pytest.raises(ValueError, match=r"\[-2, 2\]"):
                cltlab.mgf_profile(partition.build_table(2, 10), 10, grid)


class TestTail:
    def test_split_formula(self):
        n, r = 400, 2
        expected = n ** (3.0 / 24.0) / math.log(n)
        assert abs(cltlab.tail_split(n, r) - expected) < 1e-15

    @pytest.mark.parametrize("x, branch", [(0.25, "gauss"), (1.0, "linear"), (2.0, "linear")])
    def test_budget_against_formula(self, table_r3_400, x, branch):
        # n = 400, r = 3: T = 0.371, so x = 0.25 reads 1.5 e^(-x^2/2) and
        # x = 1, 2 read 1.5 e^(-T x/2)
        records = cltlab.tail_check(table_r3_400, 400, [x], max_negative_mass=1e-9)
        bound, want = oracle.tail_budget(400, 3, x)
        assert want == branch
        for rec in records:
            assert rec.branch == branch
            assert abs(rec.bound - bound) <= 1e-14 * bound

    def test_gauss_branch_at_the_split(self, table_r3_400):
        t_split = cltlab.tail_split(400, 3)
        for rec in cltlab.tail_check(table_r3_400, 400, [t_split], max_negative_mass=1e-9):
            assert rec.branch == "gauss"
            assert rec.bound == 1.5 * math.exp(-t_split * t_split / 2.0)

    def test_records_on_admissible_row(self, table_r3_400):
        records = cltlab.tail_check(table_r3_400, 400, [1.0, 2.0], max_negative_mass=1e-9)
        assert len(records) == 4
        for rec in records:
            assert 0.0 <= rec.prob <= 1.0
            assert rec.bound > 0.0
            assert rec.branch == ("gauss" if rec.x <= cltlab.tail_split(400, 3) else "linear")
            assert rec.ok

    def test_beyond_support_is_zero(self, table_r3_400):
        records = cltlab.tail_check(table_r3_400, 400, [50.0], max_negative_mass=1e-9)
        for rec in records:
            assert rec.prob == 0.0 and rec.ok

    def test_strict_rule_refuses(self, table_r2_400):
        with pytest.raises(ValueError, match="refused"):
            cltlab.tail_check(table_r2_400, 400, [1.0])

    def test_report_wraps_refusal_as_finding(self, table_r2_400):
        report = cltlab.tail_report(table_r2_400, 400, [1.0, 2.0])
        assert report.refused
        assert report.records == []
        assert any("negative cells" in f for f in report.findings)

    def test_report_refuses_point_mass_row(self):
        # n = 1 is a point mass; its budget split would divide by log 1 = 0
        report = cltlab.tail_report(partition.build_table(2, 1), 1, [1.0])
        assert report.refused and report.records == []
        assert report.findings == [
            "row 1 refused for tail check: nonpositive variance (0.000e+00)"]

    def test_report_on_clean_row(self, table_r3_400):
        report = cltlab.tail_report(table_r3_400, 400, [1.0, 2.0], max_negative_mass=1e-9)
        assert not report.refused
        t_split = cltlab.tail_split(400, 3)
        assert all(0.0 <= rec.prob <= 1.0 and rec.bound >= 0.0
                   and rec.branch == ("gauss" if rec.x <= t_split else "linear")
                   for rec in report.records)
        assert report.findings == []

    def test_report_finds_probability_outside_unit_interval(self):
        # r = 1, n = 8: cells (0, -2, 29, 5, 2) over 34, admitted only with
        # the widest override; its lower tail at x = 1 is -2/34
        report = cltlab.tail_report(partition.build_table(1, 8), 8, [1.0],
                                    max_negative_mass=math.inf)
        assert not report.refused
        assert report.findings == ["x = 1.0, lower: prob -5.882353e-02 outside [0, 1]"]

    def test_report_admits_probabilities_zero_and_one(self):
        # a hand-made signed row 1 - u + u^3: mean 2, variance 4, so at
        # x = 0.5 the upper tail (z = 0.5 exactly) is 1 and the lower one
        # (z = -1, -0.5) is 1 - 1 = 0
        table = partition.PartitionTable(
            r=2, n_max=3, coeff=[[1], [0, 1], [0, 0, 1], [1, -1, 0, 1]])
        report = cltlab.tail_report(table, 3, [0.5], max_negative_mass=math.inf)
        assert [rec.prob for rec in report.records] == [1.0, 0.0]
        assert report.findings == []

    def test_tail_equal_to_its_bound_is_within_budget(self):
        # a hand-made signed row 3 - 3u + u^3: mean 0, variance 6, so the
        # upper tail is 1 for x up to 1.22; at this x the gauss bound
        # 1.5 e^(-x^2/2) rounds to exactly 1.0
        table = partition.PartitionTable(
            r=2, n_max=3, coeff=[[1], [0, 1], [0, 0, 1], [3, -3, 0, 1]])
        upper = cltlab.tail_check(table, 3, [0.900516638500549], max_negative_mass=math.inf)[0]
        assert (upper.prob, upper.bound, upper.ok) == (1.0, 1.0, True)

    def test_report_refuses_rows_below_two(self):
        # no split is formed at n <= 1 (log 1 = 0, log 0 fails)
        for n in (0, 1):
            report = cltlab.tail_report(partition.build_table(2, n), n, [1.0])
            assert report.refused and report.records == []

    def test_positive_grid_guard(self):
        for grid in ([-1.0], [1.0, math.nan]):
            with pytest.raises(ValueError, match="x grid must be positive"):
                cltlab.tail_check(partition.build_table(2, 10), 10, grid)

    def test_grid_with_zero_refused(self):
        for grid in ([0.0], [1.0, 0.0]):
            with pytest.raises(ValueError, match="x grid must be positive"):
                cltlab.tail_check(partition.build_table(2, 10), 10, grid)

    @pytest.mark.parametrize("grid", [[1.0, math.nan], [-1.0]])
    def test_report_raises_on_bad_grid(self, grid):
        # a configuration error, not a refused row
        with pytest.raises(ValueError, match="x grid must be positive") as info:
            cltlab.tail_report(partition.build_table(2, 10), 10, grid)
        assert not isinstance(info.value, cltlab.RowRefused)

    def test_report_refuses_degenerate_row(self):
        table = partition.PartitionTable(r=2, n_max=1, coeff=[[1], [1, -1]])
        report = cltlab.tail_report(table, 1, [1.0])
        assert report.refused and report.records == []
        assert report.findings == ["degenerate row: row total vanishes at n = 1"]


class TestOneTable:
    """Each exact-law report reads r from its table, so a table and an r
    that disagree cannot be passed."""

    @pytest.mark.parametrize("report", [cltlab.clt_report, cltlab.mgf_profile,
                                        cltlab.tail_check, cltlab.tail_report])
    def test_table_is_the_only_source_of_r(self, report):
        params = list(inspect.signature(report).parameters)
        assert params[0] == "table" and "r" not in params

    def test_saddle_columns_and_tail_split_follow_the_table(self):
        from divpart import saddle

        table = partition.build_table(3, 60)
        report = cltlab.clt_report(table, [20, 40, 60], max_negative_mass=1.0)
        for row in report.rows:
            for mode in ("general", "paper_literal"):
                mu, nu2 = saddle.mean_variance_saddle(row.n, 3, mode=mode)
                assert (row.mu_saddle[mode], row.nu2_saddle[mode]) == (mu, nu2)
        # x between the r = 2 split (0.407) and the r = 3 split (0.422) of n = 60
        x = 0.415
        assert cltlab.tail_split(60, 2) < x <= cltlab.tail_split(60, 3)
        checked = cltlab.tail_check(table, 60, [x], max_negative_mass=1.0)
        reported = cltlab.tail_report(table, 60, [x], max_negative_mass=1.0).records
        assert [rec.branch for rec in checked + reported] == ["gauss"] * 4


class TestExponentFit:
    def test_needs_four_points(self):
        with pytest.raises(ValueError):
            cltlab.exponent_fit(2, [100, 200, 400])

    def test_slope_reasonable_small_grid(self):
        fit = cltlab.exponent_fit(2, [50, 100, 200, 400])
        assert 0.4 < fit.slope_mean < 1.0
        assert fit.residual_mean < 0.05

    def test_least_squares_on_exact_powers(self):
        xs = [math.log(n) for n in (10, 20, 40, 80)]
        ys = [0.75 * x + 1.0 for x in xs]
        slope, resid = cltlab._least_squares_slope(xs, ys)
        assert abs(slope - 0.75) < 1e-12 and resid < 1e-12

    @pytest.mark.parametrize("r", [2, 3])
    def test_wider_grid_moves_slope_toward_target(self, r):
        target = (r + 1.0) / (r + 2.0)
        near = cltlab.exponent_fit(r, [100, 200, 400, 800, 1600])
        wide = cltlab.exponent_fit(r, [100, 200, 400, 800, 1600, 3200, 6400])
        assert abs(wide.slope_mean - target) < abs(near.slope_mean - target)
