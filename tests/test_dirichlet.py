import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import _scalar_oracle as oracle
from divpart import arith
from divpart import dirichlet as dl


# ---------------------------------------------------------------------------
# zeta / polylog / beta
# ---------------------------------------------------------------------------

class TestZeta:
    def test_classical_values(self):
        assert abs(dl.zeta_real(2.0) - math.pi**2 / 6) < 1e-12
        assert abs(dl.zeta_real(4.0) - math.pi**4 / 90) < 1e-12

    def test_against_direct_summation(self):
        n0 = 10**6
        direct = math.fsum(n**-3.0 for n in range(1, n0 + 1))
        tail = (n0 + 1) ** -2.0 / 2.0 + 0.5 * (n0 + 1) ** -3.0
        assert abs(dl.zeta_real(3.0) - (direct + tail)) < 1e-10

    @pytest.mark.parametrize("s", [1e24, 1e100, 1e300])
    def test_huge_argument_is_one(self, s):
        # the Euler-Maclaurin corrections stop before 0 * inf makes nan
        assert dl.zeta_real(s) == 1.0
        assert dl.eta_alternating(s) == 1.0

    def test_domain(self):
        with pytest.raises(ValueError):
            dl.zeta_real(1.0)
        with pytest.raises(ValueError):
            dl.zeta_real(0.5)
        with pytest.raises(ValueError, match="zeta_real requires s > 1"):
            dl.zeta_real(math.nan)

    @pytest.mark.parametrize("s", [0.5, 0.0, math.nan])
    def test_eta_domain(self, s):
        with pytest.raises(ValueError, match="eta_alternating requires s >= 1"):
            dl.eta_alternating(s)


class TestPolylog:
    def test_log_two(self):
        assert abs(dl.polylog_neg(1.0, 1.0) + math.log(2.0)) < 1e-10

    @pytest.mark.parametrize("s", [2.0, 3.0, 4.0, 5.0])
    def test_eta_identity(self, s):
        lhs = dl.polylog_neg(s, 1.0)
        assert abs(lhs + (1.0 - 2.0 ** (1.0 - s)) * dl.zeta_real(s)) < 1e-9

    def test_small_argument_linear(self):
        u = 1e-6
        assert abs(dl.polylog_neg(2.0, u) / (-u) - 1.0) < 1e-5

    @pytest.mark.parametrize("s,u", [(1, 0.5), (2, 0.5), (3, 0.3), (4, 0.25), (7, 1e-3)])
    def test_matches_direct_partial_sum(self, s, u):
        assert abs(dl.polylog_neg(s, u) - oracle.polylog_neg_partial_sum(s, u)) < 1e-15

    @pytest.mark.parametrize("s", [1, 2, 3, 4, 7, 8])
    def test_continuous_across_one(self, s):
        # the series below u = 1 meets the inversion formula above it
        below = dl.polylog_neg(s, 1.0 - 1e-9)
        at = dl.polylog_neg(s, 1.0)
        above = dl.polylog_neg(s, 1.0 + 1e-9)
        assert below > at > above
        assert abs(above - below) < 2e-9

    @pytest.mark.parametrize("s", [1, 2, 3, 4, 5, 6])
    def test_series_at_one(self, s):
        # u = 1 belongs to the series, whose value the inversion formula
        # (exact in exact arithmetic there too) misses by an ulp at s = 4, 6
        series = -dl._alternating_sum(lambda k: (k + 1.0) ** -s)
        assert dl.polylog_neg(s, 1.0) == series

    def test_reaches_u_above_one(self):
        # monotone decreasing in u, and finite
        a = dl.polylog_neg(3.0, 1.0)
        b = dl.polylog_neg(3.0, 2.0)
        assert b < a < 0.0

    @pytest.mark.parametrize("s,u", [(2.5, 0.5), (1.0 + 1e-12, 1.0), (0.0, 1.0), (-1.0, 0.5),
                                     (math.nan, 1.0), (math.inf, 1.0), (2.0, 0.0),
                                     (2.0, -1.0), (2.0, math.nan), (2.0, math.inf)])
    def test_domain(self, s, u):
        with pytest.raises(ValueError):
            dl.polylog_neg(s, u)

    def test_oracle_domain(self):
        with pytest.raises(ValueError):
            oracle.polylog_neg_partial_sum(2, 0.6)


class TestBeta:
    def test_leibniz(self):
        assert abs(dl.beta_dirichlet(1.0) - math.pi / 4) < 1e-9

    def test_catalan(self):
        assert abs(dl.beta_dirichlet(2.0) - 0.9159655941772190) < 1e-9

    def test_erf_one_against_taylor(self):
        # classical value via the entire series 2/sqrt(pi) sum (-1)^k/(k!(2k+1))
        series = 2.0 / math.sqrt(math.pi) * math.fsum(
            (-1) ** k / (math.factorial(k) * (2 * k + 1)) for k in range(30)
        )
        assert abs(series - 0.8427007929497149) < 1e-12
        assert abs(math.erf(1.0) - series) < 1e-10

    @pytest.mark.parametrize("s", [0.0, -1.0, math.nan])
    def test_domain(self, s):
        with pytest.raises(ValueError, match="beta_dirichlet requires s > 0"):
            dl.beta_dirichlet(s)


class TestMpmathOracles:
    """Independent high-precision values at the stated 1e-12 relative
    tolerance (skipped where mpmath is not installed)."""

    @pytest.fixture
    def mp(self):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            yield mpmath

    @staticmethod
    def rel(got, want):
        return abs(got - want) / abs(want)

    @pytest.mark.parametrize("s", [1.01, 1.1, 1.5, 2.0, 2.5, 3.0, 4.7, 10.0, 25.0, 60.0])
    def test_zeta(self, mp, s):
        assert self.rel(dl.zeta_real(s), float(mp.zeta(s))) < 1e-12

    @pytest.mark.parametrize("s,u", [(1, 0.3), (6, 1.0), (3, 0.05), (2, 1.0),
                                     (1, 5.0), (2, 3.0), (3, 1.5), (4, 20.0),
                                     (5, 100.0)])
    def test_polylog(self, mp, s, u):
        want = complex(mp.polylog(s, -u))
        assert abs(want.imag) < 1e-20
        assert self.rel(dl.polylog_neg(s, u), want.real) < 1e-12

    def test_polylog_sweep(self, mp):
        # orders 1-8 from u = 1e-8 to 1e30, both sides of u = 1 included
        us = (1e-8, 1e-3, 0.05, 0.25, 0.5, 0.9, 0.999, 1.0, 1.001, 1.5, 2.0, 3.0, 5.0,
              20.0, 100.0, 1e4, 1e8, 1e30)
        worst = max(self.rel(dl.polylog_neg(s, u), float(mp.polylog(s, -u)))
                    for s in range(1, 9) for u in us)
        assert worst < 2e-15

    @pytest.mark.parametrize("s", [0.2, 0.5, 1.0, 2.0, 3.3, 7.0])
    def test_beta(self, mp, s):
        assert self.rel(dl.beta_dirichlet(s), float(mp.dirichlet(s, [0, 1, 0, -1]))) < 1e-12

    def test_beta_sweep(self, mp):
        # the accelerated series to a few ulps; a weight d formed with
        # 3 - sqrt(8) in place of 3 + sqrt(8) was off by up to 3e-14
        worst = max(self.rel(dl.beta_dirichlet(s), float(mp.dirichlet(s, [0, 1, 0, -1])))
                    for s in (0.1, 0.2, 0.5, 1.0, 2.0, 3.3, 7.0))
        assert worst < 4e-15

    @pytest.mark.parametrize("s", [1.0, 1.0 + 1e-6, 2.0, 5.0])
    def test_eta(self, mp, s):
        # eta(1) = log 2 is the removable point; just above it zeta(s) ~ 1/(s-1)
        assert self.rel(dl.eta_alternating(s), float(mp.altzeta(s))) < 1e-9

    @pytest.mark.parametrize("s", [1.0 + 1e-8, 1.0 + 1e-10])
    def test_eta_near_one(self, mp, s):
        # 1 - 2^(1-s) would lose about 1e-9 and 1e-6 here to cancellation
        assert self.rel(dl.eta_alternating(s), float(mp.altzeta(s))) < 1e-12

    @pytest.mark.parametrize("r", range(1, 7))
    def test_K_at_one_is_zeta_r_plus_2(self, mp, r):
        # the factor at s = 1 collapses to (1 - p^-(r+2))^(-1); measured
        # errors are 7.2e-13 at r = 1, 3.0e-14 at r = 2 and below 4e-15 on
        got = dl.euler_K(1.0, r).value
        assert self.rel(got, dl.zeta_real(r + 2.0)) < 1e-12
        assert self.rel(got, float(mp.zeta(r + 2))) < 1e-12

    @pytest.mark.parametrize("r", [2, 3, 4, 6])
    def test_eta_integer_prefactor_exact(self, r):
        assert dl.eta_alternating(float(r)) == (1.0 - 0.5 ** (r - 1)) * dl.zeta_real(float(r))


# ---------------------------------------------------------------------------
# Euler products
# ---------------------------------------------------------------------------

class TestTotientSummatoryConstant:
    def test_r1_value(self):
        c = dl.constant_C(1)
        assert abs(c.value - 1.339784) < 1e-5
        assert c.bound < 1e-8

    def test_landau_constant(self):
        c = dl.constant_C(1)
        assert abs(dl.zeta_real(2.0) * c.value - 2.20386) < 1e-4

    def test_monotone_to_one(self):
        values = [dl.constant_C(r, cutoff=10**5).value for r in (1, 2, 3, 6, 10)]
        assert all(b < a for a, b in zip(values, values[1:]))
        assert values[-1] - 1.0 < 1e-3


class TestEulerK:
    def test_large_s_limit_is_C(self):
        for r in (1, 2):
            assert abs(dl.euler_K(50.0, r).value - dl.constant_C(r).value) < 1e-8

    def test_at_zero_is_one(self):
        assert dl.euler_K(0.0, 2).value == 1.0

    def test_r1_s1_telescopes_to_zeta3(self):
        # the factor collapses to (1 - p^-3)^(-1)
        assert abs(dl.euler_K(1.0, 1).value - dl.zeta_real(3.0)) < 1e-10

    def test_cutoff_stability(self):
        a = dl.euler_K(2.0, 1, cutoff=10**5).value
        b = dl.euler_K(2.0, 1, cutoff=2 * 10**5).value
        assert abs(a - b) < 1e-8

    def test_domain(self):
        with pytest.raises(ValueError):
            dl.euler_K(-3.0, 1)
        with pytest.raises(ValueError, match="euler_K requires s"):
            dl.euler_K(math.nan, 2)
        # the edge s = -r itself, where the tail exponent is still 2
        with pytest.raises(ValueError, match="euler_K requires s"):
            dl.euler_K(-2.0, 2)


class TestEulerProductContracts:
    def test_tail_monotone_in_cutoff(self):
        tails = [dl.constant_C(2, cutoff=c).bound for c in (10**4, 10**5, 10**6)]
        assert tails[0] > tails[1] > tails[2] >= 0.0

    def test_converged_self_consistency(self):
        val = dl.constant_C(2, cutoff=10**5)
        assert val.bound < 1e-8
        doubled = dl.constant_C(2, cutoff=2 * 10**5)
        assert abs(val.value - doubled.value) <= 2e-8

    def test_nonpositive_factor_names_prime(self):
        with pytest.raises(ValueError, match="p = 3"):
            dl._euler_product(lambda p: 3.0 - p, 1.0, 2.0, 100)
        # a factor that first fails in a later chunk names its prime too
        with pytest.raises(ValueError, match="p = 100003"):
            dl._euler_product(lambda p: np.where(p > 10**5, -1.0, 1.0), 1.0, 2.0, 10**6)

    @pytest.mark.parametrize("name,make,const,alpha", [
        ("C(2)", lambda c: dl.constant_C(2, cutoff=c), 2.0, 4.0),
        ("K_1(2)", lambda c: dl.euler_K(2.0, 1, cutoff=c), 4.0 / (1.0 - 2.0**-4), 3.0),
        ("K_2(-0.5)", lambda c: dl.euler_K(-0.5, 2, cutoff=c), 4.0 / (1.0 - 2.0**-2.5), 3.5),
        ("E_2(1)", lambda c: dl._E_r(1.0, 2, c), 1.0 / (1.0 - 2.0**-4), 11.0),
        ("C'(3)", lambda c: dl.E_r_and_Cprime(1.0, 3, cutoff=c)[1], 1.0, 4.0),
        ("quartic(3, 2)", lambda c: dl.d2_quartic_character(3.0, 2, cutoff=c), 4.0, 3.0),
    ])
    def test_tail_bound_is_the_documented_one(self, name, make, const, alpha):
        # |value| (exp(c P^(1-alpha)/(alpha-1)) - 1) with each family's own c and alpha
        for cutoff in (100, 1000):
            got = make(cutoff)
            log_tail = const * cutoff ** (1.0 - alpha) / (alpha - 1.0)
            assert got.bound == pytest.approx(abs(got.value) * math.expm1(log_tail), rel=1e-12), name

    @pytest.mark.parametrize("alpha", [1.0, 0.5, math.nan])
    def test_tail_exponent_domain(self, alpha):
        with pytest.raises(ValueError, match="tail exponent <= 1"):
            dl._euler_product(lambda p: 1.0 + 0.0 * p, 1.0, alpha, 100)

    @pytest.mark.parametrize("name,make", [
        ("C(1)", lambda: dl.constant_C(1)),
        ("C(3)", lambda: dl.constant_C(3)),
        ("K_1(2)", lambda: dl.euler_K(2.0, 1)),
        ("K_2(-0.5)", lambda: dl.euler_K(-0.5, 2)),
        ("E_2(1)", lambda: dl.E_r_and_Cprime(1.0, 2)[0]),
        ("E_3(-1)", lambda: dl.E_r_and_Cprime(-1.0, 3)[0]),
        ("C'(2)", lambda: dl.E_r_and_Cprime(1.0, 2)[1]),
        ("quartic", lambda: dl.d2_quartic_character(3.0, 2)),
    ])
    def test_chunked_equals_one_shot(self, monkeypatch, name, make):
        # every factor is elementwise and fsum exactly rounded, so the chunk
        # size cannot move a bit; a chunk of 2^30 primes is one shot
        chunked = make()
        for chunk in (1000, 1 << 30):
            monkeypatch.setattr(dl, "_EULER_CHUNK", chunk)
            assert make() == chunked, (name, chunk)

    def test_memory_stays_within_chunks(self, monkeypatch):
        # K_2(-1.9) has tail exponent 2.1 and stops past 10^6, so it walks
        # all 78,498 primes <= 10^6, in 31 spans of 2^14 odd numbers
        def peak(run):
            tracemalloc.start()
            try:
                run()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        primes = peak(lambda: arith.sieve_primes(arith.odd_sieve(10**6)).astype(np.float64))
        chunked = peak(lambda: dl.euler_K(-1.9, 2))
        monkeypatch.setattr(dl, "_EULER_CHUNK", 1 << 30)
        one_shot = peak(lambda: dl.euler_K(-1.9, 2))
        # beside its sieve, the chunked product holds a few temporaries of at
        # most 27 KiB; one shot holds several of 0.6 MiB each
        whole = 8 * 78498
        assert chunked - primes < 2**20
        assert one_shot - chunked > 4 * whole

    def test_holds_no_full_prime_array(self, monkeypatch):
        # K_1(2) stops near 6.8*10^5, past 54,000 primes: reading its sieve a
        # span at a time stays under the sieve plus one float64 array of all
        # its primes, which holding an int and a float64 prime array at once
        # would pass
        limits = []
        real_sieve = arith.odd_sieve
        monkeypatch.setattr(arith, "odd_sieve", lambda limit: limits.append(limit) or real_sieve(limit))
        want = dl.euler_K(2.0, 1)
        monkeypatch.undo()
        odd = arith.odd_sieve(limits[0])
        whole = odd.nbytes + 8 * arith.sieve_primes(odd).size
        tracemalloc.start()
        try:
            got = dl.euler_K(2.0, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == want
        assert peak < whole


# (name, the product at a given cutoff); the factors at s < 0 and at sigma
# near -2r/3 decay slowest and stop latest
_FAMILIES = [
    ("C(1)", lambda c: dl.constant_C(1, cutoff=c)),
    ("C(3)", lambda c: dl.constant_C(3, cutoff=c)),
    ("K_1(2)", lambda c: dl.euler_K(2.0, 1, cutoff=c)),
    ("K_3(1)", lambda c: dl.euler_K(1.0, 3, cutoff=c)),
    ("K_2(-0.5)", lambda c: dl.euler_K(-0.5, 2, cutoff=c)),
    ("K_3(-1.5)", lambda c: dl.euler_K(-1.5, 3, cutoff=c)),
    ("K_2(-1.9)", lambda c: dl.euler_K(-1.9, 2, cutoff=c)),
    ("E_2(1)", lambda c: dl._E_r(1.0, 2, c)),
    ("E_2(-1.3)", lambda c: dl._E_r(-1.3, 2, c)),
    ("E_3(-1.99)", lambda c: dl._E_r(-1.99, 3, c)),
    ("C'(2)", lambda c: dl.E_r_and_Cprime(1.0, 2, cutoff=c)[1]),
    ("C'(4)", lambda c: dl.E_r_and_Cprime(1.0, 4, cutoff=c)[1]),
    ("quartic(3, 2)", lambda c: dl.d2_quartic_character(3.0, 2, cutoff=c)),
    ("quartic(1.01, 2)", lambda c: dl.d2_quartic_character(1.01, 2, cutoff=c)),
]


class TestEulerProductStop:
    @pytest.mark.parametrize("cutoff", [1000, 30011, 10**6])
    @pytest.mark.parametrize("name,make", _FAMILIES)
    def test_equals_the_product_over_every_prime(self, monkeypatch, name, make, cutoff):
        # each product sieves only up to its stop, yet must equal the same
        # factor over every prime <= cutoff bit for bit, and every factor
        # past the stop (up to 10^6) must be exactly 1.0
        seen, limits = [], []
        real_product, real_sieve = dl._euler_product, arith.odd_sieve

        def recording(factor, tail_const, tail_alpha, cutoff):
            before = len(limits)
            value = real_product(factor, tail_const, tail_alpha, cutoff)
            seen.append((factor, value.value, limits[before]))
            return value

        monkeypatch.setattr(dl, "_euler_product", recording)
        monkeypatch.setattr(arith, "odd_sieve", lambda limit: limits.append(limit) or real_sieve(limit))
        make(cutoff)
        factor, got, stop = seen[-1]
        assert stop <= cutoff
        primes = arith.sieve_primes(real_sieve(10**6)).astype(np.float64)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            f = factor(primes)
        assert got == math.exp(math.fsum(np.log(f[primes <= cutoff]).tolist())), (name, cutoff, stop)
        if stop < cutoff:
            assert (f[primes > stop] == 1.0).all(), (name, stop)
        if cutoff == 10**6:  # only K_2(-1.9), tail exponent 2.1, stops past 10^6
            assert (stop < cutoff) == (name != "K_2(-1.9)"), (name, stop)


class TestPrimeCache:
    def test_smaller_limit_is_a_prefix(self):
        big = arith.primes_up_to(10**4)
        assert arith.primes_up_to(100) == big[:25]
        # the limit itself is included
        assert arith.primes_up_to(97)[-1] == 97 and arith.primes_up_to(96)[-1] == 89
        assert arith.primes_up_to(1) == []
        # Python ints from arith, a new list per call
        assert all(type(p) is int for p in big) and big is not arith.primes_up_to(10**4)


def _d1_direct(monkeypatch, s, r, m_limit, n_limit):
    """d1_direct(s, r) truncated at m <= m_limit, n <= n_limit."""
    monkeypatch.setattr(dl, "D1_M_LIMIT", m_limit)
    monkeypatch.setattr(dl, "D1_N_LIMIT", n_limit)
    return dl.d1_direct(s, r)


class TestDoubleSeries:
    def test_closed_vs_direct_moderate(self, monkeypatch):
        for s, r in ((3.0, 2), (2.0, 1), (4.0, 3)):
            closed = dl.dirichlet_d1(s, r).value
            direct = _d1_direct(monkeypatch, s, r, 500, 5000).value
            assert abs(closed - direct) < 1e-3

    @pytest.mark.parametrize("s,r", [(3.0, 2), (1.5, 1), (5.0, 4)])
    def test_closed_form_scales_K_and_its_bound(self, s, r):
        # zeta(s) K_r(s) / zeta(s+r+1), and K_r's tail bound times the same scale
        scale = dl.zeta_real(s) / dl.zeta_real(s + r + 1.0)
        k_val = dl.euler_K(s, r, cutoff=1000)
        d1 = dl.dirichlet_d1(s, r, cutoff=1000)
        assert d1.value == scale * k_val.value
        assert d1.bound == pytest.approx(scale * k_val.bound, rel=1e-15) and d1.bound > 0.0

    def test_first_term_is_zeta(self, monkeypatch):
        sv = _d1_direct(monkeypatch, 3.0, 2, 1, 20000)
        head = math.fsum(n**-3.0 for n in range(1, 20001))
        assert abs(sv.value - head) < 1e-14

    @pytest.mark.parametrize("s,r,want", [(3.0, 2, 1.3397841522824694),
                                          (2.0, 1, 1.9435463125816441),
                                          (4.0, 2, 1.2253060971325747)])
    def test_direct_values_pinned(self, s, r, want):
        # the default budget (m <= 2000, n <= 20000); the floats were taken
        # from the divisor-lookup loop the sieve replaced.  They match to the
        # last bit on glibc, but t ** -s goes through the platform's pow,
        # which need not round correctly, so allow a few ulps.
        assert abs(dl.d1_direct(s, r).value - want) < 1e-15 * want

    def test_grouped_matches_naive_loop(self, monkeypatch):
        # Kluyver's divisor form against von Sterneck's closed form
        for r in (1, 2, 3, 5):
            for s in (1.01, 1.5, 2.0, 3.0, 4.5, 6.0):
                fast = _d1_direct(monkeypatch, s, r, 60, 500).value
                slow = dl.d1_direct_naive(s, r, 60, 500)
                assert abs(fast - slow) < 1e-12, (s, r)

    def test_direct_reports_unconverged_rather_than_failing(self, monkeypatch):
        sv = _d1_direct(monkeypatch, 2.0, 1, 50, 200)
        assert sv.bound > 1e-3

    @pytest.mark.parametrize("s,r,m_limit,n_limit", [(3.0, 2, 30, 100), (1.5, 1, 12, 7),
                                                     (4.0, 3, 1, 1)])
    def test_direct_bound_is_the_documented_one(self, monkeypatch, s, r, m_limit, n_limit):
        # the inner tails |mu(m)/(phi(m) m^(r+1))| m (1 + log m) N^(1-s)/(s-1)
        # over squarefree m, plus the outer tail through phi(m) >= m/6
        inner = math.fsum(
            m * (1.0 + math.log(m)) / (arith.euler_phi(m) * m ** (r + 1))
            for m in range(1, m_limit + 1) if arith.mobius(m)
        ) * n_limit ** (1.0 - s) / (s - 1.0)
        outer = (dl.zeta_real(s) * 6.0 * ((1.0 + math.log(m_limit)) / r + 1.0 / r**2)
                 * m_limit ** float(-r))
        got = _d1_direct(monkeypatch, s, r, m_limit, n_limit)
        assert got.bound == pytest.approx(inner + outer, rel=1e-12)

    def test_direct_at_one_term(self, monkeypatch):
        # m = n = 1: the single term 1
        assert _d1_direct(monkeypatch, 3.0, 2, 1, 1).value == 1.0

    def test_outer_bound_premise_holds_through_the_budget(self):
        # the outer tail bound takes phi(m) >= m/6 for every m <= D1_M_LIMIT
        _, phi = arith.mu_phi_tables(dl.D1_M_LIMIT)
        assert dl.D1_M_LIMIT <= 500_000
        assert all(6 * phi[m] >= m for m in range(1, dl.D1_M_LIMIT + 1))

    @pytest.mark.parametrize("s", [1.0, 0.5, math.nan])
    def test_closed_domain(self, s):
        with pytest.raises(ValueError, match="dirichlet_d1 requires s > 1"):
            dl.dirichlet_d1(s, 2)

    @pytest.mark.parametrize("s,r", [(1.0, 2), (0.5, 2), (math.nan, 2), (3.0, 0), (3.0, -1)])
    def test_direct_domain(self, s, r):
        with pytest.raises(ValueError, match="d1_direct requires s > 1 and r >= 1"):
            dl.d1_direct(s, r)


class TestBoundSideProducts:
    def test_cprime_to_one(self):
        values = [dl.E_r_and_Cprime(1.0, r, cutoff=10**5)[1].value for r in (2, 4, 8)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_e_at_least_one_for_nonnegative_sigma(self):
        for sigma in (0.0, 1.0, 3.0):
            e_val, _ = dl.E_r_and_Cprime(sigma, 2, cutoff=10**5)
            assert e_val.value >= 1.0

    def test_cutoff_stability(self):
        a = dl.E_r_and_Cprime(1.0, 2, cutoff=10**5)[0].value
        b = dl.E_r_and_Cprime(1.0, 2, cutoff=2 * 10**5)[0].value
        assert abs(a - b) < 1e-8

    def test_domain(self):
        with pytest.raises(ValueError):
            dl.E_r_and_Cprime(-2.0, 2)
        with pytest.raises(ValueError, match="E_r requires sigma"):
            dl.E_r_and_Cprime(math.nan, 2)
        # the edge sigma = -2r/3 itself, where the tail exponent is still r + 2
        with pytest.raises(ValueError, match="E_r requires sigma"):
            dl.E_r_and_Cprime(-2.0, 3)


class TestSecondSeriesBound:
    def test_monotone_decreasing_in_sigma(self):
        values = [dl.d2_bound(s, 2) for s in (2.0, 3.0, 4.0)]
        assert values[0] > values[1] > values[2] > 0.0

    def test_one_sided_probe(self):
        probe = dl.d2_direct_probe(3.0, 2)
        assert abs(probe) <= dl.d2_bound(3.0, 2)

    def test_large_sigma_limit(self):
        # every zeta factor and E_r tend to 1, leaving zeta(r)
        assert abs(dl.d2_bound(40.0, 2) - dl.zeta_real(2.0)) < 1e-9

    @pytest.mark.parametrize("sigma,r", [(2.0, 2), (1.5, 3), (3.0, 5)])
    def test_defining_form(self, sigma, r):
        z = dl.zeta_real
        want = (z(sigma) * z(sigma + r) * z(sigma + r + 1.0) / z(2.0 * (sigma + r))
                * z(float(r)) * dl._E_r(sigma, r, 1000).value)
        assert dl.d2_bound(sigma, r, cutoff=1000) == pytest.approx(want, rel=1e-15)

    def test_domain(self):
        # its own messages at the edges sigma = 1 and r = 1, not zeta's
        with pytest.raises(ValueError, match="d2_bound requires sigma > 1"):
            dl.d2_bound(1.0, 2)
        with pytest.raises(ValueError, match="d2_bound requires r > 1"):
            dl.d2_bound(3.0, 1)
        with pytest.raises(ValueError, match="d2_bound requires sigma > 1"):
            dl.d2_bound(math.nan, 2)


class TestQuarticCharacterSeries:
    def test_cutoff_stability(self):
        a = dl.d2_quartic_character(3.0, 2, cutoff=5 * 10**5)
        b = dl.d2_quartic_character(3.0, 2, cutoff=10**6)
        assert abs(a.value - b.value) < 1e-6
        assert a.bound < 1e-6

    def test_domain(self):
        with pytest.raises(ValueError):
            dl.d2_quartic_character(0.5, 2)
        with pytest.raises(ValueError, match="d2_quartic_character requires"):
            dl.d2_quartic_character(math.nan, 2)
        # the edges s = 1 and r = 1 themselves
        with pytest.raises(ValueError, match="d2_quartic_character requires"):
            dl.d2_quartic_character(1.0, 2)
        with pytest.raises(ValueError, match="d2_quartic_character requires"):
            dl.d2_quartic_character(3.0, 1)


class TestShiftedSeries:
    @pytest.mark.parametrize("s", [5.0, 6.0, 7.0])
    @pytest.mark.parametrize("r", [2, 3])
    def test_residual_inside_budget(self, s, r):
        chk = dl.shifted_series_residual(s, r)
        assert chk.residual_bound_ok
        assert abs(chk.direct - chk.d1_part) <= chk.d2_budget + chk.truncation

    @pytest.mark.parametrize("s,r", [(5.0, 2), (6.5, 3)])
    def test_parts_are_the_documented_ones(self, s, r):
        # the Mobius-side part zeta(r+1) sum_i C(r,i) D1(s-i, r), its budget
        # from d2_bound(s-i, r), and the slack: the 10^6-term truncation
        # zeta(r) 2^r N^(r+1-s)/(s-r-1) plus the closed forms' own tails
        chk = dl.shifted_series_residual(s, r, cutoff=1000)
        zr1 = dl.zeta_real(r + 1.0)
        closed = [dl.dirichlet_d1(s - i, r, cutoff=1000) for i in range(r + 1)]
        part = zr1 * math.fsum(math.comb(r, i) * sv.value for i, sv in enumerate(closed))
        tails = zr1 * math.fsum(math.comb(r, i) * sv.bound for i, sv in enumerate(closed))
        budget = zr1 * math.fsum(math.comb(r, i) * dl.d2_bound(s - i, r, cutoff=1000)
                                 for i in range(r + 1))
        trunc = dl.zeta_real(float(r)) * 2.0**r * 1e6 ** (r + 1.0 - s) / (s - r - 1.0)
        assert chk.d1_part == pytest.approx(part, rel=1e-14)
        assert chk.d2_budget == pytest.approx(budget, rel=1e-14)
        assert chk.truncation == pytest.approx(trunc + tails, rel=1e-12)
        assert chk.d1_closed == closed[0]

    def test_bound_check_is_inclusive(self, monkeypatch):
        # with D1 set to 0, a direct sum exactly at budget + slack passes and
        # one ulp more fails
        monkeypatch.setattr(dl, "dirichlet_d1", lambda s, r, cutoff: dl.SeriesValue(0.0, 0.0))

        def check(direct):
            monkeypatch.setattr(dl, "_divisor_series", lambda r, s, n_cutoff: (1.0, direct))
            return dl.shifted_series_residual(5.0, 2)

        first = check(0.0)
        edge = first.d2_budget + first.truncation
        assert first.truncation > 0.0
        assert check(edge).residual_bound_ok
        assert not check(math.nextafter(edge, math.inf)).residual_bound_ok

    @pytest.mark.parametrize("s,r", [(5.0, 2), (6.0, 2), (6.0, 3)])
    def test_dsigma_identity(self, s, r):
        assert dl.dsigma_residual(s, r) < 1e-6

    def test_domain(self):
        with pytest.raises(ValueError, match="need s - r > 1 so every"):
            dl.shifted_series_residual(2.5, 2)
        # the edge s - r = 1 itself
        with pytest.raises(ValueError, match="need s - r > 1 so every"):
            dl.shifted_series_residual(3.0, 2)
        with pytest.raises(ValueError, match="r >= 2"):
            dl.shifted_series_residual(3.5, 1)
        with pytest.raises(ValueError, match="need s - r > 1 so every"):
            dl.shifted_series_residual(math.nan, 2)
        with pytest.raises(ValueError, match="need s - r > 1"):
            dl.dsigma_residual(math.nan, 2)
        # its own message below and at the edge s - r = 1, not zeta's
        for s in (2.5, 3.0):
            with pytest.raises(ValueError, match="need s - r > 1"):
                dl.dsigma_residual(s, 2)

    def test_dsigma_identity_at_r1(self):
        assert dl.dsigma_residual(3.5, 1) < 1e-6


def _unblocked_series(r, s, n_cutoff, shift):
    """_divisor_series as one full array of terms and one np.sum."""
    sig = arith.divisor_sum_sieve(r, n_cutoff + 1, np.float64)
    terms = np.arange(1, n_cutoff + 1, dtype=np.float64) ** -s
    return float(np.sum(terms * sig[1 + shift : n_cutoff + 1 + shift]))


class TestBlockedDivisorSeries:
    @pytest.mark.parametrize("n_cutoff", [1, 8, 2**16 - 1, 2**16, 2**16 + 1, 2**17 + 8,
                                          2**18, 2**18 + 1, 10**6])
    @pytest.mark.parametrize("r", [2, 3, 4, 5])
    def test_bit_identical_to_one_full_sum(self, r, n_cutoff):
        # the blocks follow numpy's pairwise tree and the sigma windows are
        # slices of the full table, so not even the last bit moves
        for s in (r + 2.5, r + 4.0):
            sums = dl._divisor_series(r, s, n_cutoff)
            for shift in (0, 1):
                assert sums[shift] == _unblocked_series(r, s, n_cutoff, shift)

    @pytest.mark.parametrize("window", [2**16, 2**17, 2**18])
    @pytest.mark.parametrize("leaf", [2**10, 2**14, 2**16])
    @pytest.mark.parametrize("n_cutoff", [2**16 + 1, 2**17 + 8, 10**6])
    def test_leaf_and_window_sizes_move_no_bit(self, monkeypatch, leaf, window, n_cutoff):
        monkeypatch.setattr(dl, "_SERIES_BLOCK", leaf)
        monkeypatch.setattr(dl, "_SIEVE_WINDOW", window)
        for r, s in ((2, 5.0), (5, 7.5)):
            sums = dl._divisor_series(r, s, n_cutoff)
            for shift in (0, 1):
                assert sums[shift] == _unblocked_series(r, s, n_cutoff, shift), (r, shift)

    @pytest.mark.parametrize("shift", [0, 1])
    def test_one_block_beside_the_sigma_table(self, shift):
        # the sigma table is now sieved one window at a time, so nothing is
        # warmed beforehand: the whole call, both shifts, is counted
        tracemalloc.start()
        try:
            sums = dl._divisor_series(2, 4.0, 10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a 2^17-entry sigma window is 1 MiB and a leaf's two arrays of 2^14
        # terms 128 KiB each; the full sigma table alone would be 7.6 MiB
        assert peak < 2**17 * 8 + 2 * 2**14 * 8
        assert sums[shift] == _unblocked_series(2, 4.0, 10**6, shift)

    @pytest.mark.parametrize("r", [52, 60])
    def test_overflowing_sigma_is_refused(self, r):
        # sigma_52(10^6) ~ 10^312 is past float64, where the terms were inf * 0
        with pytest.raises(ValueError, match="supports r <= 51"):
            dl.shifted_series_residual(r + 2.0, r)
        with pytest.raises(ValueError, match="supports r <= 51"):
            dl.dsigma_residual(r + 2.0, r)

    def test_overflow_rule_at_its_edge(self):
        # 1 + r log2(n_cutoff + 1) = 1024 exactly at r = 341, n_cutoff = 7:
        # sigma_341(8) might reach 2^1024, so it is refused, and r = 340 is not
        with pytest.raises(ValueError, match=r"sigma_341\(n\) for n <= 8 overflows float64: "
                                             r"the direct divisor series supports r <= 340"):
            dl._divisor_series(341, 343.0, 7)
        assert all(math.isfinite(v) for v in dl._divisor_series(340, 342.0, 7))

    @pytest.mark.parametrize("case", ["w-1", "w", "w+1", "2w", "10^6"])
    def test_each_window_sieved_once(self, monkeypatch, case):
        # the first tree node of at most _SIEVE_WINDOW = w terms, a window
        # itself included, sieves sigma_r over lo .. limit (both ends
        # included); consecutive windows share one end and cover
        # 1 .. n_cutoff + 1.  The tree halves 10^6 terms until a node fits.
        w = dl._SIEVE_WINDOW
        n_cutoff, windows = {"w-1": (w - 1, 1), "w": (w, 1), "w+1": (w + 1, 2), "2w": (2 * w, 2),
                             "10^6": (10**6, 2 ** math.ceil(math.log2(10**6 / w)))}[case]
        ranges = []
        real_sieve = arith.divisor_sum_sieve

        def spy(r, limit, dtype, lo):
            ranges.append((lo, limit))
            return real_sieve(r, limit, dtype, lo=lo)

        monkeypatch.setattr(arith, "divisor_sum_sieve", spy)
        dl._divisor_series(2, 4.0, n_cutoff)
        assert len(ranges) == windows
        assert ranges[0][0] == 1 and ranges[-1][1] == n_cutoff + 1
        assert all(b[0] == a[1] for a, b in zip(ranges, ranges[1:]))
        assert all(hi - lo <= dl._SIEVE_WINDOW for lo, hi in ranges)

    def test_largest_supported_r_stays_finite(self):
        chk = dl.shifted_series_residual(53.0, 51)
        assert math.isfinite(chk.direct) and math.isfinite(chk.dsigma_residual)
        assert chk.residual_bound_ok

    @pytest.mark.parametrize("s,r", [(5.0, 2), (6.5, 3)])
    def test_check_carries_its_closed_d1_and_dsigma(self, s, r):
        chk = dl.shifted_series_residual(s, r)
        assert chk.d1_closed == dl.dirichlet_d1(s, r)
        assert chk.dsigma_residual == dl.dsigma_residual(s, r)


class TestGrowthConstants:
    @pytest.mark.parametrize("r", [2, 3, 7])
    def test_aggregate_constant_against_its_defining_form(self, r):
        # N(r) = |zeta(r+1) K_r(1)/zeta(r+2)
        #         + zeta(r+1)^2 zeta(r+2) zeta(r) E_r(1)/zeta(2(r+1)) - zeta(r+1)|
        z = dl.zeta_real
        gc = dl.growth_constants(r, cutoff=1000)
        assert gc.K1 == dl.euler_K(1.0, r, cutoff=1000).value
        assert gc.E1 == dl._E_r(1.0, r, 1000).value
        want = abs(z(r + 1.0) * gc.K1 / z(r + 2.0)
                   + z(r + 1.0) ** 2 * z(r + 2.0) * z(float(r)) * gc.E1 / z(2.0 * (r + 1))
                   - z(r + 1.0))
        assert gc.N == pytest.approx(want, rel=1e-14)

    def test_nonnegative_by_construction(self):
        for r in (2, 3, 4):
            assert dl.growth_constants(r).N >= 0.0

    @pytest.mark.parametrize("r", [2, 3, 4])
    def test_mean_prefactor_positive_standard(self, r):
        assert dl.growth_constants(r).C_mu["standard"] > 0.0

    @pytest.mark.parametrize("r", [2, 3, 4])
    def test_conventions_same_order(self, r):
        gc = dl.growth_constants(r)
        ratio = gc.C_mu["standard"] / gc.C_mu["shifted-zeta"]
        assert 0.5 < ratio < 2.0
        ratio_s = gc.C_sigma["standard"] / gc.C_sigma["shifted-zeta"]
        assert 0.5 < ratio_s < 2.0

    @pytest.mark.parametrize("r", [2, 3, 4, 40, 97])
    def test_prefactors_against_their_defining_form(self, r):
        # C_mu = N eta_{r+1} r! and C_sigma = N (eta_r r! - eta_r^2 (r+1)!^2 / (eta_{r+1} (r+2)!)),
        # the latter in exact rationals at the same float eta values
        gc = dl.growth_constants(r)
        for conv, shift in (("standard", 0.0), ("shifted-zeta", 1.0)):
            e0 = Fraction(dl.eta_alternating(r + shift))
            e1 = Fraction(dl.eta_alternating(r + shift + 1.0))
            assert gc.C_mu[conv] == gc.N * float(e1) * float(math.factorial(r))
            want = Fraction(gc.N) * (e0 * math.factorial(r) - e0**2 * math.factorial(r + 1) ** 2
                                     / (e1 * math.factorial(r + 2)))
            assert abs(Fraction(gc.C_sigma[conv]) / want - 1) < 1e-15

    def test_each_call_owns_its_dicts(self):
        first = dl.growth_constants(2, cutoff=1000)
        first.C_mu["standard"] = 0.0
        first.C_sigma["shifted-zeta"] = 0.0
        again = dl.growth_constants(2, cutoff=1000)
        assert again.C_mu["standard"] > 0.0 and again.C_sigma["shifted-zeta"] > 0.0

    def test_domain(self):
        with pytest.raises(ValueError):
            dl.growth_constants(1)
        with pytest.raises(ValueError, match="r <= 170"):
            dl.growth_constants(171, cutoff=1000)
