"""The vectorised float layers against the scalar loops they replaced
(tests/_scalar_oracle.py): the k-sum kernel, the Mellin double sums, the
pair divisor sieve, the array Euler products and the numpy prime sieve;
and the exact-law statistics against per-cell Fractions."""

import math

import numpy as np

import pytest

import _scalar_oracle as oracle
from divpart import arith, cltlab, partition
from divpart import dirichlet as dl
from divpart import saddle as sd

GAMMAS = (0.5, 0.1, 0.01, 0.003)
# r = 5 sieves Python-int sigma_r windows once a top passes 5,404 (sigma_window)
CASES = [(gamma, r) for r in (2, 3) for gamma in GAMMAS] + [(0.01, 5), (0.003, 5)]
US = (0.5, 1.0, 2.0)
REL = 1e-13


def _close(got, want):
    return abs(got - want) <= REL * abs(want)


@pytest.mark.parametrize("gamma,r", CASES)
class TestKernelAgainstScalarLoops:
    def test_partials(self, r, gamma):
        for u in US:
            for jg, ju in sd.SUPPORTED_PARTIALS:
                want = oracle.F_partial(gamma, u, r, jg, ju)
                got = sd.F_partial(gamma, u, r, (jg, ju))
                assert _close(got, want), (u, jg, ju, got, want)

    def test_saddle_equation_and_slope(self, r, gamma):
        lhs, slope = sd._saddle_equation(gamma, 1.0, r, "paper_literal")
        assert _close(lhs, oracle.plain_equation(gamma))
        assert _close(slope, oracle.plain_equation_slope(gamma))
        for u in US:
            lhs, slope = sd._saddle_equation(gamma, u, r, "general")
            assert _close(lhs, -oracle.F_partial(gamma, u, r, 1, 0))
            assert _close(slope, -oracle.F_partial(gamma, u, r, 2, 0))

    def test_mean_variance_sums(self, r, gamma):
        _check_mean_variance(gamma, r)

    @pytest.mark.parametrize("k_cap", [None, 9, 300])
    def test_minor_arc_log_ratio(self, r, gamma, k_cap):
        for u in US:
            for theta in (0.3, math.pi):
                want = oracle.minor_arc_log_ratio(gamma, theta, u, r, k_cap)
                got = sd.minor_arc_log_ratio(gamma, theta, u, r, k_cap)
                assert _close(got, want), (u, theta, got, want)


def _check_mean_variance(gamma, r):
    """mean_variance_at, read from the partials, against mu and
    a - b^2/c from the oracle's four hand-written sums."""
    mu, a, b, c = oracle.mean_variance_sums(gamma, r)
    got_mu, got_nu2 = sd.mean_variance_at(gamma, r)
    assert _close(got_mu, mu), (got_mu, mu)
    assert _close(got_nu2, a - b * b / c), (got_nu2, a - b * b / c)


@pytest.mark.parametrize("gamma,r", [(gamma, r) for r in (1, 5) for gamma in GAMMAS
                                     if (gamma, r) not in CASES])
def test_mean_variance_at_r1_r5(r, gamma):
    _check_mean_variance(gamma, r)


def test_one_pass_equals_single_requests():
    pairs = sd.SUPPORTED_PARTIALS
    together = sd._partials(0.01, 1.5, 2, pairs)
    assert together == [sd.F_partial(0.01, 1.5, 2, p) for p in pairs]


def test_kernel_caps(monkeypatch):
    # k_cap 0 sums nothing; a sum of zeros never meets the rule before q
    # underflows, so a small gamma runs into the hard cap
    assert sd.minor_arc_log_ratio(0.1, 1.0, 1.0, 2, k_cap=0) == 0.0
    monkeypatch.setattr(sd, "HARD_TERM_CAP", 5000)
    assert sd._ksum(1e-5, None, lambda k, q: [0.0 * k], k_cap=5000) == [0.0]
    with pytest.raises(RuntimeError, match="budget exhausted"):
        sd._ksum(1e-5, None, lambda k, q: [0.0 * k])


def test_non_finite_term_raises():
    with pytest.raises(ArithmeticError, match="k = 3"):
        sd._ksum(0.1, None, lambda k, q: [1.0 / (k - 3.0)])


def test_zero_gap_drops_its_term():
    # gap_1(14) = sigma(15) - sigma(14) = 0, as the scalar loop skipped it
    assert arith.sigma_window(1, 14, 15).tolist() == arith.sigma_r_table(15, 1)[14:] == [24, 24]
    got = sd._ksum(0.1, 1, lambda k, q: [q / (k - 14.0)])[0]
    want = oracle.kahan_ksum(0.1, 1, lambda k, q: q / (k - 14.0))  # never called at k = 14
    assert _close(got, want)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_pair_sieve_is_exact(r):
    limit = 2 * 10**4
    sieve = arith.divisor_sum_sieve(r, limit, np.float64)
    assert [int(v) for v in sieve] == arith.sigma_r_table(limit, r)


@pytest.mark.parametrize("name,make,factor", [
    ("C(1)", lambda c: dl.constant_C(1, cutoff=c), oracle.constant_C_factor(1)),
    ("C(3)", lambda c: dl.constant_C(3, cutoff=c), oracle.constant_C_factor(3)),
    ("K_1(2)", lambda c: dl.euler_K(2.0, 1, cutoff=c), oracle.euler_K_factor(2.0, 1)),
    ("K_2(-0.5)", lambda c: dl.euler_K(-0.5, 2, cutoff=c), oracle.euler_K_factor(-0.5, 2)),
    ("E_2(1)", lambda c: dl.E_r_and_Cprime(1.0, 2, cutoff=c)[0], oracle.E_r_factor(1.0, 2)),
    ("E_3(-1)", lambda c: dl.E_r_and_Cprime(-1.0, 3, cutoff=c)[0], oracle.E_r_factor(-1.0, 3)),
    ("C'(2)", lambda c: dl.E_r_and_Cprime(1.0, 2, cutoff=c)[1], oracle.Cprime_factor(2)),
])
def test_euler_products(name, make, factor):
    cutoff = 10**5
    want = oracle.euler_product(factor, arith.primes_up_to(cutoff))
    assert _close(make(cutoff).value, want), name


@pytest.mark.parametrize("shifted", [False, True])
@pytest.mark.parametrize("r", [2, 3, 4])
def test_mellin_double_sums(r, shifted):
    for gamma in (0.1, 0.05, 0.02, 0.01):
        for u in (1.0, 0.5, 1e-4):
            for j in range(5):
                want = oracle.sigma_double_sum(j, gamma, u, r, shifted)
                got = sd._sigma_double_sum(j, gamma, u, r, shifted)
                assert _close(got, want), (gamma, u, j, got, want)


@pytest.mark.parametrize("s,r", [(3.0, 2), (1.5, 2), (2.0, 3), (1.1, 4), (5.0, 3)])
@pytest.mark.parametrize("cutoff", [10**3, 10**4, 10**5])
def test_quartic_character_product(s, r, cutoff):
    value, bound = oracle.d2_quartic_character(s, r, cutoff)
    got = dl.d2_quartic_character(s, r, cutoff=cutoff)
    assert abs(got.value - value) <= 1e-14 * abs(value)
    assert abs(got.bound - bound) <= 1e-14 * bound


def _sieve_agrees(limit):
    got = arith.primes_up_to(limit)
    assert got == oracle.primes_up_to(limit), limit
    # Python ints, not numpy scalars: p ** (r + 1) must not wrap in int64
    assert all(type(p) is int for p in got), limit


def test_prime_sieve_small_limits():
    for limit in range(401):
        _sieve_agrees(limit)


@pytest.mark.parametrize("limit", [
    10**5, 10**6,
    99991, 99990, 999983, 999982,       # a prime and the number below it
    316**2, 317**2, 997**2, 1009**2,    # perfect squares, of primes and not
])
def test_prime_sieve_large_limits(limit):
    _sieve_agrees(limit)


# ---------------------------------------------------------------------------
# The integer-phase number-theory kernels of divpart.arith
# ---------------------------------------------------------------------------

def test_characters_match_scalar_construction():
    for m in range(2, arith.CHARACTER_MODULUS_LIMIT + 1):
        chars = arith.characters_mod(m)
        want = oracle.characters(m)
        assert len(chars) == len(want) == arith.euler_phi(m)
        for chi, (values, principal) in zip(chars, want):
            assert chi.is_principal == principal, m
            assert max(abs(a - b) for a, b in zip(chi.values, values)) <= 1e-15, m


def test_shifted_identity_matches_scalar_loop():
    got = arith.shifted_identity_max_residual(30, 100)
    want = oracle.shifted_identity_max_residual(30, 100)
    assert abs(got - want) <= 1e-13 and got < 1e-9, (got, want)


@pytest.mark.parametrize("m", [1, 2, 7, 12, 30, 97, 120])
def test_ramanujan_exponential_array_matches_scalar_loop(m):
    ns = list(range(1, 150)) + [10**18, 10**30 + 7]
    got = arith.ramanujan_sum_exponential(m, ns)
    assert got.shape == (len(ns),)
    for n, value in zip(ns, got):
        want = oracle.ramanujan_sum_exponential(m, n)
        assert abs(value - want) <= 1e-12, (m, n)
        assert abs(arith.ramanujan_sum_exponential(m, n) - want) <= 1e-12, (m, n)


# ---------------------------------------------------------------------------
# The exact-law statistics of divpart.partition and divpart.cltlab
# ---------------------------------------------------------------------------

TAIL_XS = (0.1, 0.5, 1.0, 1.7, 2.5, 4.0)
MGF_THETAS = (-2.0, -0.5, 0.0, 0.25, 1.0, 2.0)


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_exact_law_statistics_match_per_cell_fractions(r):
    # every figure bit for bit: one division per figure equals the
    # correctly rounded float of the rational sum
    n_max = 100
    table = partition.build_table(r, n_max)
    admitted = 0
    for n in range(n_max + 1):
        dist = partition.exact_distribution(table, n)
        pmf = oracle.exact_pmf(table.coeff[n], table.row_totals[n])
        assert (dist.mean, dist.variance) == oracle.pmf_moments(pmf), n
        assert dist.negative_mass == oracle.pmf_negative_mass(pmf), n
        if cltlab._row_gate(dist, math.inf) is not None:
            continue
        admitted += 1
        mean, std = float(dist.mean), math.sqrt(float(dist.variance))
        assert cltlab.ks_to_normal(dist.cells, dist.total, mean, std) == (
            oracle.pmf_ks_to_normal(pmf, mean, std)), n
        records = cltlab.tail_check(table, n, TAIL_XS, max_negative_mass=math.inf)
        assert [rec.prob for rec in records] == [
            p for x in TAIL_XS for p in oracle.pmf_tails(pmf, mean, std, x)], n
        profile = cltlab.mgf_profile(table, n, MGF_THETAS, max_negative_mass=math.inf)
        assert [profile[t][0] for t in MGF_THETAS] == [
            oracle.pmf_mgf(pmf, mean, std, t) for t in MGF_THETAS], n
    assert admitted > n_max // 2  # r = 1 refuses 37 rows of variance <= 0
