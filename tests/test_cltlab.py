import math
from fractions import Fraction

import pytest

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
        assert abs(cltlab.ks_to_normal({0: Fraction(1)}, 0.0, 1.0) - 0.5) < 1e-12

    def test_binomial_converges(self):
        # standardized Binomial(n, 1/2) approaches the normal
        def binom_ks(n):
            pmf = {k: Fraction(math.comb(n, k), 2**n) for k in range(n + 1)}
            return cltlab.ks_to_normal(pmf, n / 2, math.sqrt(n / 4))

        assert binom_ks(64) < binom_ks(16) < binom_ks(4)

    def test_needs_positive_std(self):
        for std in (0.0, math.nan):
            with pytest.raises(ValueError):
                cltlab.ks_to_normal({0: Fraction(1)}, 0.0, std)


class TestCltReport:
    def test_degenerate_single_point(self):
        # n = 1 is a point mass: excluded, its note names the variance
        report = cltlab.clt_report(2, [1])
        row = report.rows[0]
        assert not row.included and row.ks_distance is None
        assert row.note == "nonpositive variance (0.000e+00)"
        assert report.excluded == [1]

    def test_strict_rule_excludes_signed_rows(self, table_r2_400):
        report = cltlab.clt_report(2, [50, 100, 200, 400], table=table_r2_400)
        assert report.excluded == [50, 100, 200, 400]
        assert report.exclusion_count == 4
        for row in report.rows:
            assert not row.included
            assert row.negativity_count > 0
            assert row.mu_saddle["general"] > 0
            assert row.nu2_saddle["paper_literal"] > 0

    def test_diagnostic_override_keeps_mildly_signed_rows(self, table_r2_400):
        report = cltlab.clt_report(
            2, [50, 100, 200, 400], table=table_r2_400, max_negative_mass=0.01
        )
        # n = 400 is signed at bulk scale and stays out under any sane override
        assert report.excluded == [400]
        ks = [row.ks_distance for row in report.rows if row.included]
        assert len(ks) == 3
        assert all(b <= 1.10 * a for a, b in zip(ks, ks[1:]))
        assert cltlab.ks_trend_ok(report)

    def test_exact_mean_within_factor_three_of_weighted_saddle(self, table_r2_400):
        report = cltlab.clt_report(2, [200, 400], table=table_r2_400)
        for row in report.rows:
            ratio = row.mean_exact / row.mu_saddle["general"]
            assert 1.0 / 3.0 < ratio < 3.0

    def test_standardized_moments_exact(self, table_r2_400):
        # float conversion is the only loss
        dist = partition.exact_distribution(table_r2_400, 100)
        mean = float(dist.mean)
        std = math.sqrt(float(dist.variance))
        zsum = math.fsum(float(p) * (k - mean) / std for k, p in dist.pmf.items())
        z2sum = math.fsum(float(p) * ((k - mean) / std) ** 2 for k, p in dist.pmf.items())
        assert abs(zsum) < 1e-12
        assert abs(z2sum - 1.0) < 1e-12

    def test_requires_increasing_list(self):
        # strictly: 20,20,20,20 used to end in the slope fit's division by zero
        for n_list in ([100, 50], [20, 20], [20, 20, 20, 20], [10, 20, 20, 30]):
            with pytest.raises(ValueError, match="strictly increasing"):
                cltlab.clt_report(2, n_list)

    def test_gate_admits_any_override_only_at_positive_variance(self):
        # r = 1: rows 4 and 6 are signed with exact variance -1/9 and -22/75
        table = partition.build_table(1, 7)
        report = cltlab.clt_report(1, [4, 5, 6, 7], table=table, max_negative_mass=math.inf)
        assert report.excluded == [4, 6]
        assert [partition.exact_distribution(table, n).variance for n in (4, 6)] == [
            Fraction(-1, 9), Fraction(-22, 75)]
        for row in report.rows:
            assert row.included == (row.ks_distance is not None) == (row.var_exact > 0)
        assert cltlab.ks_trend_ok(report) is False  # 0.382 -> 0.492 over rows 5, 7


class TestMgfProfile:
    def test_unit_at_zero(self, table_r3_400):
        profile = cltlab.mgf_profile(
            400, 3, [0.0], table=table_r3_400, max_negative_mass=1e-9
        )
        assert profile[0.0][0] == 1.0
        assert profile[0.0][1] == 1.0

    def test_strict_rule_refuses_signed_rows(self, table_r2_400):
        with pytest.raises(ValueError, match="refused"):
            cltlab.mgf_profile(50, 2, [0.5], table=table_r2_400)

    def test_nan_limit_refuses_signed_rows(self, table_r2_400):
        with pytest.raises(ValueError, match="refused"):
            cltlab.mgf_profile(50, 2, [0.5], table=table_r2_400,
                               max_negative_mass=math.nan)

    def test_movement_toward_gaussian(self, table_r2_400):
        out = {}
        for n in (50, 100, 200):
            out[n] = cltlab.mgf_profile(
                n, 2, [0.25, 0.5], table=table_r2_400, max_negative_mass=0.01
            )
        for theta in (0.25, 0.5):
            devs = [abs(out[n][theta][0] - out[n][theta][1]) for n in (50, 100, 200)]
            assert devs[2] < devs[1] < devs[0]

    def test_asymmetry_reported_not_asserted(self, table_r3_400):
        profile = cltlab.mgf_profile(
            400, 3, [-0.5, 0.5], table=table_r3_400, max_negative_mass=1e-9
        )
        assert profile[0.5][0] != profile[-0.5][0]

    def test_refuses_point_mass_row(self):
        with pytest.raises(ValueError, match=r"row 1 refused for MGF: nonpositive variance"):
            cltlab.mgf_profile(1, 2, [0.5])

    def test_theta_range_guard(self):
        for grid in ([3.0], [0.5, math.nan]):
            with pytest.raises(ValueError, match=r"\[-2, 2\]"):
                cltlab.mgf_profile(10, 2, grid)


class TestTail:
    def test_split_formula(self):
        n, r = 400, 2
        expected = n ** (3.0 / 24.0) / math.log(n)
        assert abs(cltlab.tail_split(n, r) - expected) < 1e-15

    def test_records_on_admissible_row(self, table_r3_400):
        records = cltlab.tail_check(
            400, 3, [1.0, 2.0], table=table_r3_400, max_negative_mass=1e-9
        )
        assert len(records) == 4
        for rec in records:
            assert 0.0 <= rec.prob <= 1.0
            assert rec.bound > 0.0
            assert rec.branch == ("gauss" if rec.x <= cltlab.tail_split(400, 3) else "linear")
            assert rec.ok

    def test_beyond_support_is_zero(self, table_r3_400):
        records = cltlab.tail_check(
            400, 3, [50.0], table=table_r3_400, max_negative_mass=1e-9
        )
        for rec in records:
            assert rec.prob == 0.0 and rec.ok

    def test_strict_rule_refuses(self, table_r2_400):
        with pytest.raises(ValueError, match="refused"):
            cltlab.tail_check(400, 2, [1.0], table=table_r2_400)

    def test_report_wraps_refusal_as_finding(self, table_r2_400):
        report = cltlab.tail_report(400, 2, [1.0, 2.0], table=table_r2_400)
        assert report.refused
        assert report.records == []
        assert any("negative cells" in f for f in report.findings)
        assert report.self_consistent  # vacuous over zero records

    def test_report_refuses_point_mass_row(self):
        # n = 1 is a point mass; its budget split would divide by log 1 = 0
        report = cltlab.tail_report(1, 2, [1.0])
        assert report.refused and report.records == []
        assert report.findings == [
            "row 1 refused for tail check: nonpositive variance (0.000e+00)"]

    def test_report_on_clean_row(self, table_r3_400):
        report = cltlab.tail_report(
            400, 3, [1.0, 2.0], table=table_r3_400, max_negative_mass=1e-9
        )
        assert not report.refused
        assert report.self_consistent
        assert report.findings == []

    def test_positive_grid_guard(self):
        for grid in ([-1.0], [1.0, math.nan]):
            with pytest.raises(ValueError, match="x grid must be positive"):
                cltlab.tail_check(10, 2, grid)

    @pytest.mark.parametrize("grid", [[1.0, math.nan], [-1.0]])
    def test_report_raises_on_bad_grid(self, grid):
        # a configuration error, not a refused row
        with pytest.raises(ValueError, match="x grid must be positive") as info:
            cltlab.tail_report(10, 2, grid)
        assert not isinstance(info.value, cltlab.RowRefused)

    def test_report_refuses_degenerate_row(self):
        table = partition.PartitionTable(r=2, n_max=1, coeff=[[1], [1, -1]], row_totals=[1, 0])
        report = cltlab.tail_report(1, 2, [1.0], table=table)
        assert report.refused and report.records == []
        assert report.findings == ["degenerate row: row total vanishes at n = 1"]


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
