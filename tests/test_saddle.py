import cmath
import math
import tracemalloc

import numpy as np
import pytest

import _scalar_oracle as oracle
from _fd import fd_mixed_richardson
from divpart import arith
from divpart import dirichlet as dl
from divpart import saddle as sd


def _f_surface(r):
    return lambda g, u: sd.F_partial(g, u, r, (0, 0))


def _steps(jg, ju, gamma, u):
    hg = gamma / 40 if jg <= 2 else gamma / 60
    hu = u / 60 if ju <= 2 else u / 40
    return hg, hu


class TestPartials:
    def test_request_validation(self):
        with pytest.raises(ValueError, match="closed-form table"):
            sd.F_partial(0.1, 1.0, 2, (4, 1))
        with pytest.raises(ValueError, match="closed-form table"):
            sd.F_partial(0.1, 1.0, 2, (0, 4))
        sd.F_partial(0.1, 1.0, 2, (2, 2))  # in the table

    def test_vanishes_as_u_to_zero(self):
        assert abs(sd.F_partial(0.3, 1e-12, 2, (0, 0))) < 1e-9

    def test_domain(self):
        # NaN fails the guard too, before it reaches the kernel
        for gamma, u in ((-0.1, 1.0), (0.1, 0.0), (math.nan, 1.0), (0.1, math.nan)):
            with pytest.raises(ValueError, match="F_partial requires"):
                sd.F_partial(gamma, u, 2, (0, 0))

    def test_first_u_partial_example(self):
        gamma, u, r = 0.1, 1.0, 2
        fd = fd_mixed_richardson(_f_surface(r), gamma, u, 0, 1, *_steps(0, 1, gamma, u))
        exact = sd.F_partial(gamma, u, r, (0, 1))
        assert abs(fd - exact) / abs(exact) < 1e-6

    def test_second_gamma_partial_example(self):
        gamma, u, r = 0.1, 1.0, 2
        fd = fd_mixed_richardson(_f_surface(r), gamma, u, 2, 0, *_steps(2, 0, gamma, u))
        exact = sd.F_partial(gamma, u, r, (2, 0))
        assert abs(fd - exact) / abs(exact) < 1e-5

    @pytest.mark.parametrize("jg,ju", [p for p in sd.SUPPORTED_PARTIALS if p != (0, 0)])
    def test_all_partials_match_fd_spot(self, jg, ju):
        gamma, u, r = 0.1, 1.0, 2
        fd = fd_mixed_richardson(_f_surface(r), gamma, u, jg, ju, *_steps(jg, ju, gamma, u))
        exact = sd.F_partial(gamma, u, r, (jg, ju))
        assert abs(fd - exact) / abs(exact) < 1e-5


class TestSolveSaddle:
    def test_plain_equation_n1(self):
        sp = sd.solve_saddle(1, 1.0, 2, mode="paper_literal")
        assert sp.residual < 1e-12

    def test_weighted_equation_moderate(self):
        sp = sd.solve_saddle(100, 1.0, 2, mode="general")
        assert sp.residual < 1e-7
        assert sp.F_gg > 0.0
        assert sp.theta_n == sp.tau ** (1.0 + 3.0 * 2 / 7.0)

    def test_root_decreasing_in_n(self):
        taus = [sd.solve_saddle(n, 1.0, 2).tau for n in (50, 100, 200, 400)]
        assert all(b < a for a, b in zip(taus, taus[1:]))

    def test_bracket_perturbation_stable(self):
        base = sd.solve_saddle(100, 1.0, 2).tau
        moved = sd.solve_saddle(100, 1.0, 2, bracket_hint=1.7).tau
        assert abs(base - moved) < 1e-10

    @pytest.mark.parametrize("hint", [0.1, 30.0])
    def test_far_start_reaches_same_root(self, hint):
        base = sd.solve_saddle(100, 1.0, 2).tau
        moved = sd.solve_saddle(100, 1.0, 2, bracket_hint=hint).tau
        assert abs(base - moved) < 1e-10

    @pytest.mark.parametrize("mode", ["general", "paper_literal"])
    def test_newton_needs_few_kernel_passes(self, mode, monkeypatch):
        passes = []
        real = sd._ksum

        def counting(*args, **kwargs):
            passes.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(sd, "_ksum", counting)
        for n, r, u in ((1, 2, 1.0), (100, 3, 0.5), (10**4, 2, 2.0), (3 * 10**5, 2, 1.0)):
            passes.clear()
            sd.solve_saddle(n, u, r, mode=mode)
            assert len(passes) <= 10, (n, r, u, len(passes))

    def test_flat_profile_reports_samples(self, monkeypatch):
        # no slope and never reaching n: halving runs out of evaluations
        monkeypatch.setattr(sd, "_saddle_equation", lambda t, u, r, mode: (0.5, 0.0))
        with pytest.raises(sd.SaddleBracketError) as exc:
            sd.solve_saddle(1, 1.0, 2)
        assert len(exc.value.profile) == sd.MAX_SOLVE_STEPS
        assert all(f == 0.5 for _, f in exc.value.profile)

    def test_tiny_u_reads_an_int64_table(self, monkeypatch):
        # the k-sums run past 10^6 terms; r = 1 windows stay int64 at that size
        windows = []
        real = sd.sigma_window

        def recording(r, lo, hi):
            window = real(r, lo, hi)
            windows.append((hi, window.dtype))
            return window

        monkeypatch.setattr(sd, "sigma_window", recording)
        sp = sd.solve_saddle(1000, 1e-6, 1)
        assert sp.residual < 1e-9 * 1000
        assert max(windows)[0] > 10**6
        assert {dtype for _, dtype in windows} == {np.dtype(np.int64)}

    @pytest.mark.parametrize("mode,n,r,u", [
        # the centres of the benchmark catalog's six saddle slots
        ("general", 1000, 2, 0.5), ("general", 30000, 3, 2.0), ("general", 290000, 2, 1.0),
        ("paper_literal", 1000, 3, 0.75), ("paper_literal", 10000, 2, 1.5),
        ("paper_literal", 100000, 3, 1.0),
        ("general", 1, 1, 1e-3), ("paper_literal", 50, 5, 3.0),
    ])
    def test_closing_pass_equals_separate_partials(self, mode, n, r, u):
        # every sum of one kernel pass stops by its own rule, so the closing
        # pass gives each partial bit for bit as a pass of its own would
        sp = sd.solve_saddle(n, u, r, mode=mode)
        got = (sp.F_val, sp.F_g, sp.F_gg)
        orders = ((0, 0), (1, 0), (2, 0))
        assert got == tuple(sd.F_partial(sp.tau, u, r, order) for order in orders)

    def test_domain(self):
        with pytest.raises(ValueError):
            sd.solve_saddle(0, 1.0, 2)
        for u in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError, match="u > 0"):
                sd.solve_saddle(10, u, 2)
        with pytest.raises(ValueError):
            sd.solve_saddle(10, 1.0, 2, mode="bogus")


def _kernel_gaps(r, ks, k_cap):
    """The kernel's float64 gap weights at ks, read back through one-hot
    summands at a gamma so small that no sum stops before k_cap."""
    return sd._ksum(1e-12, r, lambda k, q: [(k == j).astype(np.float64) for j in ks],
                    k_cap=k_cap)


class TestGapWindows:
    def test_threaded_solves_match_a_serial_solve(self, run_in_threads):
        # each block sieves its own sigma window, so threads share nothing
        serial = sd.solve_saddle(2000, 0.5, 3)
        assert run_in_threads(lambda: sd.solve_saddle(2000, 0.5, 3)) == [serial] * 4

    def test_float_gaps_match_exact_gaps(self):
        # the kernel's gaps: int64 diffs past 2^53 (r = 4) and Python-int
        # diffs (r = 7), each rounded once to float64, in windows from 1
        # and from mid-range
        for r, limit, dtype in ((3, 2048, np.int64), (4, (1 << 15) - 1, np.int64), (7, 3000, object)):
            sig = arith.sigma_r_table(limit + 1, r)
            for lo in (1, limit // 2):
                window = arith.sigma_window(r, lo, limit + 1)
                assert window.dtype == dtype
                want = [float(b - a) for a, b in zip(sig[lo:], sig[lo + 1 :])]
                assert np.diff(window).astype(np.float64).tolist() == want, (r, lo)

    @pytest.mark.parametrize("r,edge", [(4, 46341), (5, 5405)])
    def test_gaps_across_the_dtype_switch(self, monkeypatch, r, edge):
        # edge is the first window top that sieves Python ints; windows that
        # end on either side of it, from k = 1 and from mid-range, give
        # each gap exactly, rounded once
        assert arith.sigma_window(r, edge - 1, edge - 1).dtype == np.int64
        assert arith.sigma_window(r, edge, edge).dtype == object
        sig = arith.sigma_r_table(edge + 1, r)
        for block in (sd._BLOCK_MAX, 1000):
            monkeypatch.setattr(sd, "_BLOCK_MAX", block)
            for k_cap in range(edge - 3, edge + 1):  # window tops edge - 2 .. edge + 1
                ks = range(k_cap - 5, k_cap + 1)
                want = [float(sig[k + 1] - sig[k]) for k in ks]
                assert _kernel_gaps(r, ks, k_cap) == want, (block, k_cap)

    def test_long_sum_memory_stays_flat(self):
        # 2*10^6 terms at r = 2, where one shared int64 sigma table would
        # take 16 MiB alone
        tracemalloc.start()
        try:
            total = sd._ksum(1e-6, 2, lambda k, q: [q], k_cap=2 * 10**6)[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert math.isfinite(total)
        assert peak < 16 * 2**20, peak


class TestMeanVariance:
    def test_mean_is_first_u_partial(self):
        for mode in ("general", "paper_literal"):
            sp = sd.solve_saddle(200, 1.0, 2, mode=mode)
            mu, _ = sd.mean_variance_saddle(200, 2, mode=mode)
            assert abs(mu - sd.F_partial(sp.tau, 1.0, 2, (0, 1))) < 1e-12 * max(1.0, mu)

    def test_positive_at_moderate_n(self):
        mu, nu2 = sd.mean_variance_saddle(200, 2, mode="general")
        assert mu > 0.0 and nu2 > 0.0

    def test_doubling_growth_trend(self):
        # mu(2n)/mu(n) should approach 2^((r+1)/(r+2)) within 15%
        target = 2.0 ** (3.0 / 4.0)
        ns = (100, 200, 400, 800, 1600)
        mus = [sd.mean_variance_saddle(n, 2, mode="general")[0] for n in ns]
        for a, b in zip(mus, mus[1:]):
            assert abs(b / a - target) / target < 0.15


class TestMellinLeadingOrder:
    @pytest.mark.parametrize("r", [2, 3])
    @pytest.mark.parametrize("j", [0, 1])
    def test_ratio_grid(self, r, j):
        ratios = sd.mellin_ratio_check(j, [0.1, 0.05, 0.02], 1.0, r)
        assert abs(ratios[-1] - 1.0) < 0.05
        # monotone approach, with a floor for ratios already at noise level
        for a, b in zip(ratios, ratios[1:]):
            assert abs(b - 1.0) <= abs(a - 1.0) + 1e-9

    def test_small_u_prefactor_finite(self):
        u = 1e-4
        ratios = sd.mellin_ratio_check(0, [0.05], u, 2)
        assert abs(ratios[0] - 1.0) < 0.05

    def test_grid_must_decrease(self):
        with pytest.raises(ValueError):
            sd.mellin_ratio_check(0, [0.05, 0.1], 1.0, 2)

    @pytest.mark.parametrize("r", [2, 3])
    def test_u_above_one(self, r):
        # the l-series of the double sum diverges for u e^(-gamma) > 1; the
        # closed-form partials do not
        ratios = sd.mellin_ratio_check(0, [0.1, 0.05, 0.02], 2.0, r)
        assert abs(ratios[-1] - 1.0) < 0.05

    def test_j_outside_the_partials_table(self):
        with pytest.raises(ValueError):
            sd.mellin_ratio_check(5, [0.1], 1.0, 2)
        with pytest.raises(ValueError):
            sd.h1_boundedness_probe(5, 0.1, 1.0, 2)


class TestShiftedSumProbe:
    @pytest.mark.parametrize("j", [0, 1])
    def test_inside_budget(self, j):
        value, bound, ok = sd.h1_boundedness_probe(j, 0.05, 1.0, 2)
        assert ok and abs(value) <= bound

    def test_gamma_halving_scale(self):
        v1, _, _ = sd.h1_boundedness_probe(0, 0.05, 1.0, 2)
        v2, _, _ = sd.h1_boundedness_probe(0, 0.025, 1.0, 2)
        # the gamma power is r + j + 1 = 3
        assert abs(v2 / v1 - 8.0) / 8.0 < 0.2

    @pytest.mark.parametrize("gamma,u", [(0.0, 1.0), (0.05, 0.0), (math.nan, 1.0),
                                         (0.05, math.nan)])
    def test_domain(self, gamma, u):
        # gamma = 0 would never meet the stop rule, u = 0 only at the hard cap
        with pytest.raises(ValueError, match="need gamma > 0 and u > 0"):
            sd.h1_boundedness_probe(0, gamma, u, 2)


class TestMinorArc:
    def test_unit_at_zero(self):
        assert sd.minor_arc_ratio(0.05, 0.0, 1.0, 2) == 1.0

    def test_below_one_on_far_arc(self):
        assert sd.minor_arc_ratio(0.05, math.pi, 1.0, 2) < 1.0
        # at tau = 0.05 the ratio underflows to 0.0; at tau = 0.5 it does not
        assert 0.0 < sd.minor_arc_ratio(0.5, math.pi, 1.0, 2) < 1.0

    def test_log_decay_as_tau_shrinks(self):
        logs = [sd.minor_arc_log_ratio(t, math.pi, 1.0, 2) for t in (0.1, 0.05, 0.02)]
        assert all(b < a for a, b in zip(logs, logs[1:]))
        assert all(v < 0.0 for v in logs)

    def test_nonnegative_gap_window_never_exceeds_one(self):
        # gaps for r=2 are nonnegative through k = 9
        for theta in (0.3, 1.0, 2.0, math.pi):
            assert sd.minor_arc_ratio(0.4, theta, 1.0, 2, k_cap=9) <= 1.0

    def test_domain(self):
        for tau, u in ((0.0, 1.0), (math.nan, 1.0), (0.1, math.nan)):
            with pytest.raises(ValueError, match="requires tau > 0 and u > 0"):
                sd.minor_arc_ratio(tau, 1.0, u, 2)


def _trig_kernel(k, xi, y):
    """(lhs, rhs_shape) of the trigonometric kernel lemma:
    lhs = sum_n n^(k-1) e^(-n xi) (1 - cos n y), by the scalar oracle loop;
    rhs_shape = e^-xi/(1-e^-xi)^k - e^-xi/|1-e^(-xi-iy)|^k.
    Whenever rhs_shape > 0 the lhs should be positive too; the hidden
    proportionality constant is not accessible numerically."""
    lhs = oracle.kahan_ksum(xi, None, lambda n, q: n ** (k - 1) * q * (1.0 - math.cos(n * y)),
                            stop_power=k + 3)
    e_xi = math.exp(-xi)
    rhs = e_xi / (1.0 - e_xi) ** k - e_xi / abs(1.0 - cmath.exp(-xi - 1j * y)) ** k
    return lhs, rhs


class TestTrigKernelProbe:
    def test_vanishes_at_zero(self):
        lhs, rhs = _trig_kernel(2, 0.1, 0.0)
        assert lhs == 0.0 and abs(rhs) < 1e-15

    def test_positive_pair(self):
        lhs, rhs = _trig_kernel(2, 0.1, math.pi)
        assert lhs > 0.0 and rhs > 0.0

    def test_grid_ratio_bounded_below(self):
        ratios = []
        for xi in (0.2, 0.1, 0.05):
            for y in (math.pi / 2, math.pi):
                lhs, rhs = _trig_kernel(2, xi, y)
                if rhs > 0:
                    assert lhs > 0.0
                    ratios.append(lhs / rhs)
        assert min(ratios) > 0.5  # empirical proportionality floor
