import cmath
import inspect
import math
import sys
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
        for gamma, u in ((-0.1, 1.0), (0.0, 1.0), (0.1, 0.0), (math.nan, 1.0), (0.1, math.nan)):
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


#: u from the smallest to the largest float magnitude, through the retired
#: 1e143 ceiling of saddle --u
_U_SPAN = (1e-300, 1e-3, 1.0, 1e3, 1e103, 1e143, 1e300, sys.float_info.max)
#: part sizes up to the kernel's hard cap; at gamma = 1e-12 even k = 10^7
#: has q = e^(-gamma k) within 1e-5 of 1, where the old w-forms overflowed
_KS = np.array([1.0, 7.0, 1e3, 1e7])
_GAMMAS = (1e-12, 1e-4, 0.3)


class TestBoundedPartials:
    """The summands in s = 1/(1 + u q) and t = u q s, both in [0, 1]."""

    @pytest.mark.parametrize("u", _U_SPAN)
    def test_every_partial_is_finite_at_any_finite_u(self, u):
        for gamma in _GAMMAS:
            q = np.exp(-gamma * _KS)
            for order in sd.SUPPORTED_PARTIALS:
                terms = sd._partial_terms(*order, _KS, q, u)
                assert np.isfinite(terms).all(), (order, gamma)

    @pytest.mark.parametrize("u", _U_SPAN)
    def test_partials_match_the_w_forms_in_mpmath(self, u):
        # the oracle's w = 1 + u q forms, evaluated at 60 digits
        mpmath = pytest.importorskip("mpmath")
        checked = 0
        with mpmath.workdps(60):
            for gamma in _GAMMAS:
                q = np.exp(-gamma * _KS)
                for order in sd.SUPPORTED_PARTIALS:
                    got = sd._partial_terms(*order, _KS, q, u)
                    for k, qk, value in zip(_KS, q, got):
                        k, qk, um = mpmath.mpf(float(k)), mpmath.mpf(float(qk)), mpmath.mpf(u)
                        uq = um * qk
                        # away from the roots, where both forms cancel alike
                        if min(abs(1 - uq), abs(2 - uq), abs(1 - 4 * uq + uq * uq)) < 0.01:
                            continue
                        want = (mpmath.log1p(uq) if order == (0, 0)
                                else oracle.term_value(*order, k, qk, um))
                        if abs(want) < sys.float_info.min:  # not a normal float
                            continue
                        assert abs(value - want) <= 1e-13 * abs(want), (order, gamma, float(k))
                        checked += 1
        assert checked > 0

    def test_huge_u_quartic_partial_is_finite(self):
        # its numerator k^4 (u q)^3 used to leave the float range here
        assert math.isfinite(sd.F_partial(0.5, 1e103, 2, (4, 0)))

    @pytest.mark.parametrize("u", [1e154, sys.float_info.max])
    def test_huge_u_sums_run_past_the_plateau(self, u):
        # while u q >> 1 the terms do not fall: they fall from k = ln(u)/gamma on,
        # 7,092 and 14,196 here, where a stop rule blind to u had long stopped.
        # The reference adds every k to 1.5 ln(u)/gamma + 2000 with no stop rule.
        gamma, r, theta = 0.05, 2, 3.0
        top = int(1.5 * math.log(u) / gamma) + 2000
        sig = arith.sigma_r_table(top + 2, r)
        ks = range(1, top + 1)

        def reference(weight, summand):
            return math.fsum(weight(k) * summand(k, math.exp(-gamma * k)) for k in ks)

        def gap(k):
            return sig[k + 1] - sig[k]

        # the w = 1 + u q forms, grouped so that nothing overflows at the largest u
        w_forms = {(0, 0): lambda k, q: math.log1p(u * q),
                   (1, 0): lambda k, q: -k * (u * q / (1.0 + u * q)),
                   (2, 0): lambda k, q: k * k * (u * q / (1.0 + u * q)) / (1.0 + u * q),
                   (0, 1): lambda k, q: q / (1.0 + u * q)}
        for order, summand in w_forms.items():
            want = reference(gap, summand)
            assert abs(sd.F_partial(gamma, u, r, order) - want) <= 1e-10 * abs(want), order
        for shifted in (False, True):
            want = -reference(lambda k: sig[k + shifted], lambda k, q: math.log1p(u * q))
            got = sd._sigma_double_sum(0, gamma, u, r, shifted)
            assert abs(got - want) <= 1e-10 * abs(want), shifted

        def arc(k, q):
            w = 1.0 + u * q
            return math.log(1.0 - 2.0 * (u * q / w) * (1.0 - math.cos(k * theta)) / w)

        want = 0.5 * reference(gap, arc)
        assert abs(sd.minor_arc_log_ratio(gamma, theta, u, r) - want) <= 1e-10 * abs(want)


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

    @pytest.mark.parametrize("start", [1.7, 0.1, 30.0])
    def test_far_start_reaches_same_root(self, start, monkeypatch):
        # the equation in tau / c has its root c times further out, so the
        # asymptotic start sits 1/c = start times the root's own scale
        base = sd.solve_saddle(100, 1.0, 2).tau
        real = sd._saddle_equation
        c = 1.0 / start

        def rescaled(t, u, r, mode):
            f, df = real(t / c, u, r, mode)
            return f, df / c

        monkeypatch.setattr(sd, "_saddle_equation", rescaled)
        moved = sd.solve_saddle(100, 1.0, 2).tau
        assert abs(base - moved / c) < 1e-10

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

    def test_flat_profile_exhausts_the_evaluations(self, monkeypatch):
        # no slope and never reaching n: halving runs out of evaluations
        calls = []
        monkeypatch.setattr(sd, "_saddle_equation",
                            lambda t, u, r, mode: calls.append(t) or (0.5, 0.0))
        with pytest.raises(sd.SaddleBracketError, match="did not converge"):
            sd.solve_saddle(1, 1.0, 2)
        assert len(calls) == sd.MAX_SOLVE_STEPS

    # At n = 16, r = 2 the general solve starts at tau = 16^(-1/4) = 0.5
    # exactly, so scripted profiles can put a Newton step on a chosen float.

    @staticmethod
    def _scripted(monkeypatch, points, fallback):
        """Replace the saddle equation by (lhs, slope) = points[t], or
        fallback(t) elsewhere; return the list of t the solve samples."""
        seen = []

        def equation(t, u, r, mode):
            seen.append(t)
            return points[t] if t in points else fallback(t)

        monkeypatch.setattr(sd, "_saddle_equation", equation)
        return seen

    @pytest.mark.parametrize("t0,first", [
        # no slope: halving while lo = 0, then bisection
        (0.15, [0.5, 0.25, 0.125, 0.1875]),
        # no slope: doubling while hi is open; lhs = n at 1.5 is a lower end
        (1.5, [0.5, 1.0, 2.0, 1.5, 1.75]),
    ])
    def test_bracket_without_a_slope(self, monkeypatch, t0, first):
        seen = self._scripted(monkeypatch, {}, lambda t: (16.0 * (t0 / t), 0.0))
        sp = sd.solve_saddle(16, 1.0, 2)
        assert seen[: len(first)] == first
        assert abs(sp.tau - t0) <= 1e-15 and sp.residual <= 1e-14

    def test_lhs_of_zero_halves_tau(self, monkeypatch):
        # an lhs that underflowed to 0 has no log, so no Newton step
        seen = self._scripted(monkeypatch, {0.5: (0.0, -1.0)},
                              lambda t: (16.0 * (0.3 / t), -16.0 * 0.3 / t**2))
        sp = sd.solve_saddle(16, 1.0, 2)
        assert seen[:2] == [0.5, 0.25]
        assert abs(sp.tau - 0.3) <= 1e-15

    @pytest.mark.parametrize("points,first", [
        # from lo = 0.5 to 1.0, whose Newton step lands back on lo exactly
        ({0.5: (32.0, -64.0), 1.0: (8.0, -8.0)}, [0.5, 1.0, 0.75]),
        # from hi = 0.5 to 0.25, whose Newton step lands back on hi exactly
        ({0.5: (8.0, -16.0), 0.25: (32.0, -128.0)}, [0.5, 0.25, 0.375]),
    ])
    def test_newton_step_onto_a_bracket_end_bisects(self, monkeypatch, points, first):
        # the bracket is open at both ends: a step onto an end is refused
        seen = self._scripted(monkeypatch, points, lambda t: (16.0 * (first[-1] / t), 0.0))
        sd.solve_saddle(16, 1.0, 2)
        assert seen[:3] == first

    def test_newton_stops_at_a_step_of_1e_12(self, monkeypatch):
        # a step of exactly 1e-12 ends the solve at its first sample; one of
        # the next float up takes another Newton step
        f = 16.00000000001

        def step(df):
            return math.log(f / 16) * f / (-0.5 * df)

        df = -math.log(f / 16) * f / (0.5 * 1e-12)
        for _ in range(3):
            df = math.nextafter(df, 0.0)
        for _ in range(7):
            if step(df) == 1e-12:
                break
            df = math.nextafter(df, -math.inf)
        assert step(df) == 1e-12
        seen = self._scripted(monkeypatch, {0.5: (f, df)}, lambda t: (16.0 * (0.5 / t), -16.0))
        assert sd.solve_saddle(16, 1.0, 2).tau == 0.5
        assert seen == [0.5]
        while step(df) <= 1e-12:
            df = math.nextafter(df, 0.0)
        seen = self._scripted(monkeypatch, {0.5: (f, df)}, lambda t: (16.0 * (0.5 / t), -16.0))
        sd.solve_saddle(16, 1.0, 2)
        assert seen[0] == 0.5 and len(seen) > 1

    def test_residual_equal_to_the_tolerance_passes(self, monkeypatch):
        # at n = 10^9 the tolerance 1e-9 n is 1.0 exactly, as is |lhs - n|
        # at lhs = n + 1; a slope this steep ends the solve there
        n = 10**9
        seen = self._scripted(monkeypatch, {}, lambda t: (n + 1.0, -1e30))
        sp = sd.solve_saddle(n, 1.0, 2)
        assert len(seen) == 1 and sp.residual == 1e-9 * n == 1.0
        self._scripted(monkeypatch, {}, lambda t: (n + 2.0, -1e30))
        with pytest.raises(sd.SaddleBracketError, match="residual"):
            sd.solve_saddle(n, 1.0, 2)

    def test_flat_curvature_at_the_root_is_refused(self, monkeypatch):
        self._scripted(monkeypatch, {}, lambda t: (16.0, -1.0))
        monkeypatch.setattr(sd, "_partials", lambda gamma, u, r, pairs: [1.0, -16.0, 0.0])
        with pytest.raises(sd.SaddleBracketError, match="second derivative"):
            sd.solve_saddle(16, 1.0, 2)

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

    def test_a_solve_sieves_one_window_per_pass(self, monkeypatch):
        # a block reaches where max(|w|, 1) k^4 e^(-gamma k) falls to 1e-18,
        # so each weighted pass of a catalog solve sieves one window
        passes, windows = [], []
        real_ksum, real_window = sd._ksum, sd.sigma_window

        def counting_ksum(*args, **kwargs):
            passes.append(args[0])
            return real_ksum(*args, **kwargs)

        def counting_window(*args):
            windows.append(args)
            return real_window(*args)

        monkeypatch.setattr(sd, "_ksum", counting_ksum)
        monkeypatch.setattr(sd, "sigma_window", counting_window)
        for n, r, u in ((1000, 2, 0.5), (30000, 3, 2.0)):
            passes.clear()
            windows.clear()
            sd.solve_saddle(n, u, r)
            assert len(windows) == len(passes), (n, r, u)

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



def _edge_gamma(k_stop):
    """The gamma at which a sum of ones stops at exactly k_stop: its running
    total is k, so the rule k^4 e^(-gamma k) < 1e-18 k first holds where
    k^3 e^(-gamma k) crosses 1e-18, put here half a term before k_stop."""
    k = k_stop - 0.5
    return (3.0 * math.log(k) + sd._LOG_RATIO) / k


def _ones(k, q):
    return [np.ones_like(k)]


def _close(got, want):
    return abs(got - want) <= 1e-13 * abs(want)


class TestChunkEdges:
    """The kernel forms its terms over chunks of _CHUNK k inside each sigma
    window and carries every running total across; nothing of that may
    show in a sum."""

    @pytest.mark.parametrize("k_stop", [sd._CHUNK - 1, sd._CHUNK, sd._CHUNK + 1, 2 * sd._CHUNK])
    def test_stop_on_either_side_of_a_chunk_edge(self, k_stop):
        gamma = _edge_gamma(k_stop)
        want = oracle.kahan_ksum(gamma, None, lambda k, q: 1.0)
        assert want == k_stop  # the scalar loop stops where the rule says
        got = sd._ksum(gamma, None, _ones)[0]
        assert _close(got, want) and got == k_stop

    def test_sums_of_one_call_close_in_different_chunks(self):
        # a sum 2^40 times smaller runs about 1,800 terms longer
        gamma = _edge_gamma(sd._CHUNK)
        small = 2.0**-40
        got = sd._ksum(gamma, None, lambda k, q: [np.ones_like(k), np.full_like(k, small), q])
        want = [oracle.kahan_ksum(gamma, None, summand)
                for summand in (lambda k, q: 1.0, lambda k, q: small, lambda k, q: q)]
        assert got[0] == sd._CHUNK and 1.2 * sd._CHUNK < got[1] / small < 2 * sd._CHUNK
        assert all(_close(g, w) for g, w in zip(got, want)), (got, want)
        # each sum stops by its own rule, as in a call of its own
        assert got[1] == sd._ksum(gamma, None, lambda k, q: [np.full_like(k, small)])[0]

    def test_sum_over_several_chunks_and_windows(self, monkeypatch):
        # r = 3 at gamma = 5e-4 runs past 2^16 terms: each sigma window of
        # 2^16 k is sieved once, and its chunks carry the totals across
        gamma, u, r = 5e-4, 1.0, 3
        windows = []
        real = sd.sigma_window

        def recording(r, lo, hi):
            windows.append((lo, hi))
            return real(r, lo, hi)

        monkeypatch.setattr(sd, "sigma_window", recording)
        orders = ((0, 0), (1, 0), (2, 0))
        got = sd._partials(gamma, u, r, orders)
        size = sd._block_length(gamma, 4 + r)
        assert size == sd._BLOCK_MAX and len(windows) >= 3
        assert windows == [(1 + i * size, 1 + (i + 1) * size) for i in range(len(windows))]
        head = sd._ksum(gamma, r, lambda k, q: [sd._partial_terms(2, 0, k, q, u)], k_cap=size)
        assert not _close(head[0], got[2])  # the first window does not hold the sum
        for order, value in zip(orders, got):
            want = oracle.F_partial(gamma, u, r, *order)
            assert _close(value, want), (order, value, want)

    @pytest.mark.parametrize("k_cap", [
        sd._CHUNK - 1, sd._CHUNK + 1, sd._BLOCK_MAX + sd._CHUNK // 2, sd._BLOCK_MAX + 1,
    ])
    def test_cap_inside_a_chunk(self, k_cap):
        got = sd._ksum(1e-6, 2, lambda k, q: [q], k_cap=k_cap)[0]
        want = oracle.kahan_ksum(1e-6, 2, lambda k, q: q, k_cap=k_cap)
        assert _close(got, want), (got, want)

    @pytest.mark.parametrize("r,shift", [(2, None), (2, 0), (2, 1), (5, 1)])
    def test_weights_at_chunk_and_window_edges(self, r, shift):
        # one-hot summands read the kernel's weights back at the k next to
        # every chunk and window edge up to a cap inside the third window
        top = 2 * sd._BLOCK_MAX + 2
        ks = sorted({1, 2, top} | {e + d for e in (sd._CHUNK, 2 * sd._CHUNK, sd._BLOCK_MAX,
                                                   sd._BLOCK_MAX + sd._CHUNK, 2 * sd._BLOCK_MAX)
                                   for d in (-1, 0, 1)})
        got = sd._ksum(1e-12, r, lambda k, q: [(k == j).astype(np.float64) for j in ks],
                       k_cap=top, shift=shift)
        sig = arith.sigma_r_table(top + 2, r)
        if shift is None:
            want = [float(sig[k + 1] - sig[k]) for k in ks]
        else:
            want = [float(sig[k + shift]) for k in ks]
        assert got == want

    @pytest.mark.parametrize("r", [None, 2])
    @pytest.mark.parametrize("bad", [sd._CHUNK + 5, sd._BLOCK_MAX + sd._CHUNK + 3])
    def test_non_finite_term_in_a_later_chunk(self, r, bad):
        with pytest.raises(ArithmeticError, match=f"at k = {bad} "):
            sd._ksum(1e-6, r, lambda k, q: [q / (k - bad)])

    def test_chunks_tile_each_window(self, monkeypatch):
        # summands see consecutive chunks of at most _CHUNK k that restart at
        # each window's first k, and a one-k chunk at a window's end opens
        # no window of its own
        chunks, windows = [], []
        real = sd.sigma_window

        def recording(r, lo, hi):
            windows.append(hi - 1)
            return real(r, lo, hi)

        def summands(k, q):
            chunks.append((int(k[0]), int(k[-1])))
            return [q]

        monkeypatch.setattr(sd, "sigma_window", recording)
        for k_cap, ends in ((2 * sd._CHUNK + 1, [2 * sd._CHUNK + 1]),
                            (sd._BLOCK_MAX + sd._CHUNK + 3,
                             [sd._BLOCK_MAX, sd._BLOCK_MAX + sd._CHUNK + 3])):
            chunks.clear()
            windows.clear()
            sd._ksum(1e-12, 2, summands, k_cap=k_cap)
            want, start = [], 1
            for end in ends:
                for lo in range(start, end + 1, sd._CHUNK):
                    want.append((lo, min(lo + sd._CHUNK - 1, end)))
                start = end + 1
            assert windows == ends
            assert chunks == want

    def test_stop_rule_is_strict(self):
        # a first term whose 1e-18 share rounds to e^-gamma exactly, the
        # bound at k = 1: the rule needs the bound below it, so the sum goes
        # on to k = 2 (not every e^-gamma is such a share; try a few gammas)
        ties = []
        for gamma in (5.0 + 0.001 * i for i in range(20)):
            q = math.exp(-gamma)
            first = q / sd.TRUNCATION_RATIO
            for _ in range(4):
                first = math.nextafter(first, 0.0)
            for _ in range(8):
                if sd.TRUNCATION_RATIO * first == q:
                    ties.append((gamma, first))
                first = math.nextafter(first, math.inf)
        assert ties
        for gamma, first in ties[:3]:
            got = sd._ksum(gamma, None, lambda k, q: [np.where(k == 1.0, first, 1.0)])[0]
            want = oracle.kahan_ksum(gamma, None, lambda k, q: first if k == 1 else 1.0)
            assert got == want == first + 1.0

    def test_block_length_is_where_the_bound_meets_the_ratio(self):
        # between the clamps, scale k^p e^(-gamma k) has fallen to about 1e-18 there
        for gamma, power, scale in ((0.01, 4, 1.0), (0.003, 7, 1.0), (0.05, 9, 1.0),
                                    (0.05, 6, 1e154)):
            k = sd._block_length(gamma, power, scale)
            assert sd._BLOCK_MIN < k < sd._BLOCK_MAX
            ratio = scale * math.exp(power * math.log(k) - gamma * k) / sd.TRUNCATION_RATIO
            assert 0.5 < ratio < 2.0, (gamma, power, k, ratio)
        assert sd._block_length(10.0, 4) == sd._BLOCK_MIN
        assert sd._block_length(1e-9, 4) == sd._BLOCK_MAX

    def test_one_term_cap(self):
        assert sd._ksum(0.1, None, lambda k, q: [q], k_cap=1) == [math.exp(-0.1)]


class TestMeanVariance:
    def test_mean_is_first_u_partial(self):
        for mode in ("general", "paper_literal"):
            sp = sd.solve_saddle(200, 1.0, 2, mode=mode)
            mu, _ = sd.mean_variance_saddle(200, 2, mode=mode)
            assert abs(mu - sd.F_partial(sp.tau, 1.0, 2, (0, 1))) < 1e-12 * max(1.0, mu)

    def test_positive_at_moderate_n(self):
        mu, nu2 = sd.mean_variance_saddle(200, 2, mode="general")
        assert mu > 0.0 and nu2 > 0.0

    @pytest.mark.parametrize("sums,message", [
        # (F_u, F_uu, F_gamma_u, F_gamma_gamma)
        ([1.0, 0.0, 0.0, 0.0], "curvature sum"),
        ([1.0, -0.5, 1.0, 2.0], "degenerate variance 0"),
    ])
    def test_zero_curvature_or_variance_is_refused(self, monkeypatch, sums, message):
        monkeypatch.setattr(sd, "_partials", lambda gamma, u, r, pairs: sums)
        with pytest.raises(ValueError, match=message):
            sd.mean_variance_at(0.1, 2)

    def test_doubling_growth_trend(self):
        # mu(2n)/mu(n) should approach 2^((r+1)/(r+2)) within 15%
        target = 2.0 ** (3.0 / 4.0)
        ns = (100, 200, 400, 800, 1600)
        mus = [sd.mean_variance_saddle(n, 2, mode="general")[0] for n in ns]
        for a, b in zip(mus, mus[1:]):
            assert abs(b / a - target) / target < 0.15

    @pytest.mark.parametrize("r,last", [(2, 3e-4), (3, 2e-3)])
    def test_mean_tends_to_its_closed_form_from_above(self, r, last):
        """mu_n / (A Gamma(r) eta(r) S) -> 1 from above, with A = r zeta(r+1)
        and S = (n / (r A Gamma(r) eta(r+1)))^(r/(r+1)): at r = 2 the ratio
        is 1.01932, 1.00434, 1.00094, 1.00020 at n = 10^4, ..., 10^10, and
        at r = 3 1.04748, 1.01457, 1.00455, 1.00143.  The ratio reads the
        one-saddle mean: past n*(2) ~ 1.7e4 (the one saddle describes q_n
        up to n = 13,960, and q_n is first negative at 17,047) the formula
        describes that mean, not the exact law."""
        a = r * dl.zeta_real(r + 1.0)
        scale = a * math.gamma(r)
        ratios = []
        for n in (10**4, 10**6, 10**8, 10**10):
            s = (n / (r * scale * dl.eta_alternating(r + 1.0))) ** (r / (r + 1.0))
            mu, _ = sd.mean_variance_saddle(n, r, "general")
            ratios.append(mu / (scale * dl.eta_alternating(float(r)) * s))
        assert all(x > y > 1.0 for x, y in zip(ratios, ratios[1:])), ratios
        assert ratios[-1] < 1.0 + last, ratios


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
        for grid in ([0.05, 0.1], [0.1, 0.1]):
            with pytest.raises(ValueError, match="strictly decreasing"):
                sd.mellin_ratio_check(0, grid, 1.0, 2)

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

    @pytest.mark.parametrize("j,gamma,u,r", [(0, 0.05, 1.0, 2), (1, 0.1, 0.5, 3)])
    def test_budget_formula(self, j, gamma, u, r):
        # 1.5 N(r) |Li_{r+2}(-u)| (r+j)! gamma^-(r+j+1), from the dirichlet layer
        _, bound, _ = sd.h1_boundedness_probe(j, gamma, u, r)
        want = (1.5 * dl.growth_constants(r).N * abs(dl.polylog_neg(r + 2.0, u))
                * math.factorial(r + j) * gamma ** -(r + j + 1.0))
        assert abs(bound - want) <= 1e-14 * want

    def test_value_equal_to_its_budget_is_inside(self, monkeypatch):
        _, bound, _ = sd.h1_boundedness_probe(0, 0.05, 1.0, 2)
        monkeypatch.setattr(sd, "_sigma_double_sum", lambda j, gamma, u, r, shifted: -bound)
        assert sd.h1_boundedness_probe(0, 0.05, 1.0, 2) == (-bound, bound, True)
        monkeypatch.setattr(sd, "_sigma_double_sum",
                            lambda j, gamma, u, r, shifted: math.nextafter(bound, math.inf))
        assert not sd.h1_boundedness_probe(0, 0.05, 1.0, 2)[2]

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

    def test_domain(self):
        for tau, u in ((0.0, 1.0), (math.nan, 1.0), (0.1, 0.0), (0.1, math.nan)):
            with pytest.raises(ValueError, match="requires tau > 0 and u > 0"):
                sd.minor_arc_ratio(tau, 1.0, u, 2)

    @pytest.mark.parametrize("r,tau,theta,want", [
        (2, 0.05, 3.082, 252.41770129),
        (2, 0.02, 3.112, 7809.48696),
        (3, 0.02, 3.127, 1007295.950),
    ])
    def test_log_ratio_matches_an_mpmath_product(self, r, tau, theta, want):
        # sum_k gap(k) log(|1 + x^k| / (1 + |x|^k)), x = e^(-tau - i theta), at 40 digits
        mpmath = pytest.importorskip("mpmath")
        top = int(90.0 / tau)  # k^4 e^(-k tau) is below 1e-25 of the total past here
        sigma = arith.sigma_r_table(top + 1, r)
        with mpmath.workdps(40):
            x = mpmath.exp(-mpmath.mpf(tau) - 1j * mpmath.mpf(theta))
            ref = mpmath.fsum((sigma[k + 1] - sigma[k])
                              * (mpmath.log(abs(1 + x**k)) - mpmath.log1p(abs(x) ** k))
                              for k in range(1, top + 1))
        assert abs(float(ref) - want) <= 1e-8 * want
        assert abs(sd.minor_arc_log_ratio(tau, theta, 1.0, r) - float(ref)) <= 1e-10 * float(ref)


class TestMinorArcSup:
    def test_takes_tau_u_and_r_only(self):
        assert list(inspect.signature(sd.minor_arc_sup).parameters) == ["tau", "u", "r"]

    def test_verify_point(self):
        # the point saddle.minor_arc_decay samples: r = 2, u = 1, tau = 0.05
        theta, sup = sd.minor_arc_sup(0.05, 1.0, 2)
        assert abs(sup - 331.417) < 1e-3
        assert abs((math.pi - theta) - 0.0509) < 1e-4
        assert sup == sd.minor_arc_log_ratio(0.05, theta, 1.0, 2)
        assert sup > sd.minor_arc_log_ratio(0.05, math.pi, 1.0, 2)

    def test_r1_turn(self):
        # at the u = 1 saddle of n the supremum turns positive between 204 and 205
        sups = [sd.minor_arc_sup(sd.solve_saddle(n, 1.0, 1).tau, 1.0, 1)[1] for n in (204, 205)]
        assert abs(sups[0] - -0.0205) < 1e-4
        assert abs(sups[1] - 0.0189) < 1e-4

    def test_r2_turn(self):
        # through the float layer: positive from n = 13,961 on
        sups = [sd.minor_arc_sup(sd.solve_saddle(n, 1.0, 2).tau, 1.0, 2)[1]
                for n in (13960, 13961)]
        assert abs(sups[0] - -0.00256) < 1e-4
        assert abs(sups[1] - 0.00942) < 1e-4

    @pytest.mark.parametrize("slope", [1.0, -1.0])
    def test_never_leaves_the_arc(self, monkeypatch, slope):
        # a monotone profile puts the supremum on an end of the arc, exactly
        seen = []
        monkeypatch.setattr(sd, "minor_arc_log_ratio",
                            lambda tau, theta, u, r: seen.append(theta) or slope * theta)
        tau, r = 0.1, 2
        lo = tau ** (1.0 + 3.0 * r / 7.0)
        theta, sup = sd.minor_arc_sup(tau, 1.0, r)
        assert theta == (math.pi if slope > 0 else lo) and sup == slope * theta
        assert all(lo <= t <= math.pi for t in seen)
        assert len(seen) == len(set(seen)) < 60

    @pytest.mark.parametrize("tau,r", [(0.05, 2), (0.02, 3), (0.3, 1), (1.5, 1),
                                       (2.2284603479616742, 1)])
    def test_grid_is_the_stated_one(self, monkeypatch, tau, r):
        # pi - theta by tau/4 up to 3 tau, then by a factor 1.5, then the lower end;
        # then 22 golden-section points.  At the last tau the arc is the point pi.
        # The flat profile ties at every step, and a tie keeps the half toward pi.
        seen = []
        monkeypatch.setattr(sd, "minor_arc_log_ratio",
                            lambda tau, theta, u, r: seen.append(theta) or 0.0)
        sd.minor_arc_sup(tau, 1.0, r)
        lo = tau ** (1.0 + 3.0 * r / 7.0)
        deltas = [j * tau / 4.0 for j in range(13)]
        while deltas[-1] < math.pi - lo:
            deltas.append(deltas[-1] * 1.5)
        grid = [math.pi - d for d in deltas if d < math.pi - lo] + [lo]
        assert seen[:len(grid)] == pytest.approx(grid, rel=1e-15, abs=0.0)
        g = (math.sqrt(5.0) - 1.0) / 2.0
        a, b = grid[min(1, len(grid) - 1)], grid[0]  # the bracket of the first point, pi
        golden = [b - g * (b - a), a + g * (b - a)]
        for _ in range(20):  # the lower end moves up to the previous inner point
            golden.append(golden[-2] + g * (b - golden[-2]))
        assert seen[len(grid):] == pytest.approx(golden, rel=1e-15, abs=0.0)

    def test_ties_keep_the_first_point(self, monkeypatch):
        # a flat profile has its supremum at the first point of the grid, theta = pi
        for value in (0.0, -math.inf, math.nan):
            monkeypatch.setattr(sd, "minor_arc_log_ratio", lambda tau, theta, u, r: value)
            theta, sup = sd.minor_arc_sup(0.05, 1.0, 2)
            assert theta == math.pi and (sup == value or math.isnan(sup))

    def test_one_point_arc(self):
        # tau^(10/7) is pi exactly here, so the arc is the point theta = pi
        tau = 2.2284603479616742
        assert tau ** (1.0 + 3.0 / 7.0) == math.pi
        assert sd.minor_arc_sup(tau, 1.0, 1) == (math.pi,
                                                 sd.minor_arc_log_ratio(tau, math.pi, 1.0, 1))

    def test_empty_arc(self):
        # tau^(1 + 3/7) passes pi once tau > pi^(7/10) = 2.23
        with pytest.raises(ValueError, match="empty"):
            sd.minor_arc_sup(math.nextafter(2.2284603479616742, 3.0), 1.0, 1)
        with pytest.raises(ValueError, match="empty"):
            sd.minor_arc_sup(math.nan, 1.0, 1)


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
