import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _scalar_oracle as oracle
from divpart import arith, checks


# ---------------------------------------------------------------------------
# multiplicative basics and divisor sums
# ---------------------------------------------------------------------------

def brute_phi(n):
    return sum(1 for a in range(1, n + 1) if math.gcd(a, n) == 1)


def brute_sigma(n, r):
    return sum(d**r for d in range(1, n + 1) if n % d == 0)


def test_multiplicative_basics_examples():
    assert arith.multiplicative_basics(1) == (1, 1)
    assert arith.multiplicative_basics(12) == (0, 4)
    assert arith.multiplicative_basics(30) == (-1, 8)


@given(st.integers(min_value=1, max_value=3000))
def test_phi_matches_brute_force(n):
    assert arith.euler_phi(n) == brute_phi(n)


@given(st.integers(min_value=1, max_value=500), st.integers(min_value=1, max_value=3))
def test_sigma_matches_divisor_enumeration(n, r):
    assert arith.sigma_r(n, r) == brute_sigma(n, r)


def test_sigma_examples():
    assert arith.sigma_r(1, 2) == 1
    assert arith.sigma_r(6, 2) == 50  # 1 + 4 + 9 + 36
    # the sign-changing gap at 10
    assert arith.sigma_r(11, 2) == 122
    assert arith.sigma_r(10, 2) == 130
    assert arith.sigma_r(11, 2) - arith.sigma_r(10, 2) == -8


def test_factorize_guard():
    with pytest.raises(ValueError):
        arith.factorize(0)
    for n in (arith.FACTORIZATION_LIMIT + 1, arith.FACTORIZATION_LIMIT * 10):
        with pytest.raises(ValueError):
            arith.factorize(n)
    assert arith.factorize(arith.FACTORIZATION_LIMIT) == [(2, 14), (5, 14)]  # the limit itself


@pytest.mark.parametrize("call", [
    lambda: arith.sigma_r(0, 2), lambda: arith.sigma_r(2, 0),
    lambda: arith.GapSequence.build(0, 10), lambda: arith.GapSequence.build(2, 0),
    lambda: arith.ramanujan_sum(0, 5), lambda: arith.ramanujan_sum(5, 0),
])
def test_one_bad_argument_is_refused(call):
    with pytest.raises(ValueError):
        call()


def test_mu_phi_tables_match_pointwise():
    mu, phi = arith.mu_phi_tables(2000)
    for n in range(1, 2001):
        assert (mu[n], phi[n]) == arith.multiplicative_basics(n)
    assert arith.mu_phi_tables(1) == ((0, 1), (0, 1))
    assert arith.mu_phi_tables(0) == ((0,), (0,))


def test_mu_phi_tables_sieve_per_call():
    # no cache: each call owns its tables, freed with the caller's
    first, again = arith.mu_phi_tables(2000), arith.mu_phi_tables(2000)
    assert first == again
    assert first is not again and first[0] is not again[0] and first[1] is not again[1]


class TestGapSequence:
    """The gaps and their sigma source, sigma_r_table."""

    def test_prime_values_and_one(self):
        sig = arith.sigma_r_table(200, 2)
        assert sig[:2] == [0, 1]
        for p in arith.primes_up_to(200):
            assert sig[p] == 1 + p**2

    def test_multiplicativity_on_coprime_pairs(self):
        sig = arith.sigma_r_table(120, 3)
        for m in range(2, 60):
            for n in range(2, 120 // m + 1):
                if math.gcd(m, n) == 1:
                    assert sig[m * n] == sig[m] * sig[n]

    def test_gap_definition(self):
        seq = arith.GapSequence.build(2, 150)
        sig = arith.sigma_r_table(151, 2)
        assert len(seq.gaps) == 150
        for k in range(1, 151):
            assert seq.gaps[k - 1] == sig[k + 1] - sig[k]

    @pytest.mark.parametrize("r", [1, 2, 3, 5, 7])
    def test_against_factorization_and_numpy_table(self, r):
        # sigma by one factorization per n, gaps by differencing the exact
        # window the float kernels read (r = 7 reaches its object path)
        limit = 2000
        sig = arith.sigma_r_table(limit + 1, r)
        assert sig[1:] == [arith.sigma_r(n, r) for n in range(1, limit + 2)]
        seq = arith.GapSequence.build(r, limit)
        window = arith.sigma_window(r, 1, limit + 1)
        assert seq.gaps == tuple(np.diff(window).tolist())
        assert all(type(v) is int for v in sig + list(seq.gaps))

    @pytest.mark.parametrize("r", [2, 3])
    def test_power_sandwich(self, r):
        # n^r < sigma_r(n) < n^r zeta(r) for n >= 2
        from divpart.dirichlet import zeta_real
        z = zeta_real(float(r))
        sig = arith.sigma_r_table(400, r)
        for n in range(2, 401):
            assert n**r < sig[n] < n**r * z


class TestDivisorSums:
    @pytest.mark.parametrize("r,limit,dtype", [(1, 5000, np.int64), (3, 5000, np.int64),
                                               (7, 3000, object)])
    def test_exact_against_divisor_add_sieve(self, r, limit, dtype):
        # exact windows from 1, across a square and of the last entry alone
        exact = arith.sigma_r_table(limit, r)
        for lo in (1, 2, 47**2 - 3, limit):
            window = arith.sigma_window(r, lo, limit)
            assert window.dtype == dtype and not window.flags.writeable
            assert window.tolist() == exact[lo:], lo

    @pytest.mark.parametrize("dtype", [np.int64, object])
    def test_chunk_boundaries_are_exact(self, monkeypatch, dtype):
        monkeypatch.setattr(arith, "_SIEVE_CHUNK", 7)
        sums = arith.divisor_sum_sieve(3, 2000, dtype)
        assert sums.tolist() == [0] + arith.sigma_r_table(2000, 3)[1:]

    @pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
    def test_windows_are_slices_of_the_full_sieve(self, r):
        # float64 rounds past 2^53 (from n ~ 10^3 at r = 5), and a window
        # must round every entry exactly as the full table does
        limit = 2 * 10**5
        full = arith.divisor_sum_sieve(r, limit, np.float64)
        # windows from 0, from 1, from the square 441^2, around the square
        # 300^2 = 90000, just past it, and of the last entry alone
        for lo, hi in [(0, 1000), (1, 65537), (441**2, limit), (80000, 90001),
                       (90001, 150000), (limit, limit)]:
            window = arith.divisor_sum_sieve(r, hi, np.float64, lo=lo)
            assert not window.flags.writeable
            assert window.tobytes() == full[lo : hi + 1].tobytes(), (lo, hi)

    @pytest.mark.parametrize("dtype", [np.int64, object])
    def test_exact_windows(self, dtype):
        exact = [0] + arith.sigma_r_table(3000, 4)[1:]
        for lo in (0, 1, 2, 49, 50, 1000, 2999, 3000):
            assert arith.divisor_sum_sieve(4, 3000, dtype, lo=lo).tolist() == exact[lo:]

    def test_sieve_peak_memory_stays_near_the_table(self):
        limit = 1 << 22
        tracemalloc.start()
        try:
            table = arith.divisor_sum_sieve(1, limit, np.int64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * table.nbytes, (peak, table.nbytes)


# ---------------------------------------------------------------------------
# Ramanujan sums
# ---------------------------------------------------------------------------

def test_ramanujan_examples():
    assert arith.ramanujan_sum(1, 7) == 1
    assert arith.ramanujan_sum(4, 2) == -2   # e(2/4) + e(6/4) = -1 - 1
    assert arith.ramanujan_sum(5, 5) == 4    # phi(5)


def test_ramanujan_huge_argument():
    # c_12(n) depends on gcd(12, n) = 4 only; n is reduced before any phase
    assert arith.ramanujan_sum(12, 10**30) == arith.ramanujan_sum(12, 4) == -2
    assert abs(arith.ramanujan_sum_exponential(12, 10**30) - (-2)) < 1e-12
    sums = arith.ramanujan_sum_exponential(12, [10**30, 10**30 + 1, 6])
    assert np.abs(sums - np.array([-2, 0, -4])).max() < 1e-12


def test_ramanujan_closed_matches_exponential_sum():
    # the check's own sweep and bound: m, n <= 100, 1e-10
    ok, detail = checks.ramanujan_closed_vs_exponential()
    assert ok, detail


def test_ramanujan_is_mobius_on_coprimes_exhaustive():
    for m in range(1, 101):
        mu = arith.mobius(m)
        for n in range(1, 101):
            if math.gcd(m, n) == 1:
                assert arith.ramanujan_sum(m, n) == mu


@given(st.integers(min_value=1, max_value=300), st.integers(min_value=1, max_value=300))
def test_divisor_form_agrees(m, n):
    assert arith.ramanujan_sum(m, n) == oracle.ramanujan_sum_divisor_form(m, n)


def test_weighted_partial_regrouping_matches_naive():
    # (12, 10) and (36, 20) reach divisors d with m_limit // d = 1
    for ns, m_limit in (([1, 7, 12, 36, 50], 2000), ([12], 10), ([36], 20)):
        fast = arith.ramanujan_weighted_partial(ns, m_limit, 2)
        assert len(fast) == len(ns)
        for n, value in zip(ns, fast):
            assert abs(value - oracle.ramanujan_weighted_partial(n, m_limit, 2)) < 1e-12


def test_weighted_partial_one_value_per_n_in_order():
    ns = [50, 1, 12, 12, 7]
    together = arith.ramanujan_weighted_partial(ns, 500, 3)
    assert together == [arith.ramanujan_weighted_partial([n], 500, 3)[0] for n in ns]
    assert arith.ramanujan_weighted_partial([], 500, 3) == []


# ---------------------------------------------------------------------------
# Dirichlet characters
# ---------------------------------------------------------------------------

class TestCharacters:
    def test_modulus_one(self):
        chars = arith.characters_mod(1)
        assert chars.shape == (1, 1) and chars[0, 0] == complex(1.0)

    def test_modulus_four(self):
        chars = arith.characters_mod(4)
        assert chars.shape == (2, 4)
        assert chars[0].tolist() == [0, 1, 0, 1]
        chi = chars[1]
        assert abs(chi[1] - 1) < 1e-12
        assert abs(chi[3] + 1) < 1e-12
        assert chi[0] == 0 and chi[2] == 0

    def test_modulus_five(self):
        chars = arith.characters_mod(5)
        assert len(chars) == 4
        real_nonprincipal = [chi for chi in chars[1:] if np.abs(chi.imag).max() < 1e-12]
        assert len(real_nonprincipal) == 1

    @pytest.mark.parametrize("m", list(range(1, 51)))
    def test_group_size_and_unit_modulus(self, m):
        chars = arith.characters_mod(m)
        assert chars.shape == (arith.euler_phi(m), m)
        for chi in chars:
            for a in range(m):
                if math.gcd(a, m) == 1:
                    assert abs(abs(chi[a]) - 1.0) < 1e-12
                else:
                    assert chi[a] == 0

    @pytest.mark.parametrize("m", [3, 4, 5, 8, 9, 12, 15, 16, 24, 35, 40])
    def test_complete_multiplicativity(self, m):
        for chi in arith.characters_mod(m):
            for a in range(m):
                for b in range(m):
                    lhs = chi[(a * b) % m]
                    rhs = chi[a] * chi[b]
                    assert abs(lhs - rhs) < 1e-9

    @pytest.mark.parametrize("m", list(range(1, 51)))
    def test_orthogonality(self, m):
        chars = arith.characters_mod(m)
        phi = arith.euler_phi(m)
        # sum over characters at fixed a
        for a in range(m):
            total = sum(chi[a] for chi in chars)
            target = phi if (math.gcd(a, m) == 1 and a % m == 1 % m) else 0.0
            assert abs(total - target) < 1e-9
        # pairwise over residues
        for i, chi in enumerate(chars):
            for j in range(i, len(chars)):
                inner = sum(chi[a] * chars[j, a].conjugate() for a in range(m))
                target = phi if i == j else 0.0
                assert abs(inner - target) < 1e-9

    def test_enumeration_limit(self):
        with pytest.raises(ValueError):
            arith.characters_mod(201)


class TestCharacterSums:
    def test_trivial_modulus(self):
        chi = arith.characters_mod(1)[0]
        for n in (1, 5, 9, 10**30):
            assert arith.gauss_sum(chi, n) == 1

    def test_primitive_gauss_magnitude(self):
        for m in range(2, 51):
            for chi in arith.characters_mod(m):
                if oracle.conductor(m, chi) == m:
                    tau = arith.gauss_sum(chi, 1)
                    assert abs(abs(tau) - math.sqrt(m)) < 1e-9

    def test_quadratic_mod_five(self):
        chars = arith.characters_mod(5)
        quad = next(chi for chi in chars[1:] if np.abs(chi.imag).max() < 1e-12)
        tau = arith.gauss_sum(quad, 1)
        assert abs(abs(tau) - math.sqrt(5)) < 1e-12

    @pytest.mark.parametrize("m", [2, 6, 9, 12, 30])
    def test_principal_restriction_is_ramanujan(self, m):
        chi0 = arith.characters_mod(m)[0]
        for n in range(1, 40):
            cp = arith.gauss_sum(chi0, n)
            assert abs(cp - arith.ramanujan_sum(m, n)) < 1e-9

    @pytest.mark.parametrize("m", [1, 5, 8, 12, 30, 97])
    def test_huge_n_reduced_exactly(self, m):
        # 10**30 * b overflows int64; n is reduced mod m before any phase
        for chi in arith.characters_mod(m):
            for k in range(3):
                n = 10**30 + k
                want = oracle.gauss_sum(chi, m, n % m)
                assert abs(arith.gauss_sum(chi, n) - want) < 1e-9

    @pytest.mark.parametrize("m", list(range(1, 51)) + [97, 120, 200])
    def test_table_equals_its_rows_and_the_scalar_sum(self, m):
        # one call over the whole table: one value per row, each the row's
        # own Gauss sum up to summation order, and the scalar loop's
        chars = arith.characters_mod(m)
        for n in (1, 2, 7, 10**30):
            table = arith.gauss_sum(chars, n)
            assert table.shape == (len(chars),)
            for chi, value in zip(chars, table):
                assert abs(value - arith.gauss_sum(chi, n)) < 1e-12
                assert abs(value - oracle.gauss_sum(chi, m, n % m)) < 1e-12


class TestShiftedIdentity:
    def test_trivial_modulus_exact(self):
        assert arith.shifted_identity_max_residual(1, 10) == 0.0

    def test_example(self):
        assert arith.shifted_identity_max_residual(6, 7) < 1e-9

    def test_every_modulus_is_checked(self, monkeypatch):
        seen = []
        build = arith.characters_mod
        monkeypatch.setattr(arith, "characters_mod", lambda m: seen.append(m) or build(m))
        arith.shifted_identity_max_residual(6, 7)
        assert seen == [1, 2, 3, 4, 5, 6]

    def test_taus_come_from_gauss_sum(self, monkeypatch):
        # tau(chi) + delta for every non-principal chi adds
        # delta (phi e(n/m) - c_m(n)) / phi to the right-hand side, whose
        # largest size over m <= 30, n <= 100 lies between delta / 2 and
        # 2 delta (m = 3, n = 1 gives |e(1/3) + 1/2| = sqrt(3)/2)
        delta = 1e-6
        real = arith.gauss_sum
        monkeypatch.setattr(arith, "gauss_sum", lambda chars, n: real(chars, n) + delta)
        assert 0.5 * delta < arith.shifted_identity_max_residual(30, 100) < 2.0 * delta


def primitive_inducer(chi):
    """The character chi* mod f, for the smallest f | m, that agrees with chi
    on the units mod m (chi itself when nothing smaller does); m is the
    length of the row chi."""
    m = len(chi)
    units = [a for a in range(m) if math.gcd(a, m) == 1]
    for f in arith.divisors(m):
        for star in arith.characters_mod(f):
            if all(abs(star[a % f] - chi[a]) < arith.CHARACTER_TOL for a in units):
                return star
    raise AssertionError(f"no character mod a divisor of {m} matches, not even chi")


def scale_identity_residual(chi, star):
    """max |c_chi((m/f) t) - (phi(m)/phi(f)) c_star(t)| over t <= min(2f, 24).

    Regrouping the residues mod f rescales the frequency: the textbook
    display with the same argument n on both sides fails (modulus 8 induced
    from 4 at n = 6).
    """
    m, f = len(chi), len(star)
    ratio = arith.euler_phi(m) / arith.euler_phi(f)
    return max(
        abs(arith.gauss_sum(chi, m // f * t) - ratio * arith.gauss_sum(star, t))
        for t in range(1, min(2 * f, 24) + 1)
    )


class TestInducePrimitive:
    def test_primitive_fixed_point(self):
        for chi in arith.characters_mod(5)[1:]:
            star = primitive_inducer(chi)
            assert len(star) == 5 and np.array_equal(star, chi)

    def test_mod8_induced_from_mod4(self):
        chars = arith.characters_mod(8)[1:]
        assert sorted(len(primitive_inducer(c)) for c in chars) == [4, 8, 8]

    def test_wrong_inducer_fails_the_scale_identity(self):
        # a primitive character mod 8 set against the one mod 4: the
        # identity must not hold, or the test below could not fail
        prim = next(c for c in arith.characters_mod(8)[1:] if len(primitive_inducer(c)) == 8)
        quartic = arith.characters_mod(4)[1]
        assert scale_identity_residual(prim, quartic) > 1.0

    @pytest.mark.parametrize("m", [8, 9, 12, 15, 16, 18, 20, 21, 24, 36, 45])
    def test_scale_identity_holds_everywhere(self, m):
        for chi in arith.characters_mod(m)[1:]:
            star = primitive_inducer(chi)
            assert len(star) == oracle.conductor(m, chi)
            assert scale_identity_residual(chi, star) < arith.CHARACTER_TOL
