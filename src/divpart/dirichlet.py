"""Numeric evaluation layer: Riemann zeta (Euler-Maclaurin), the
polylogarithm Li_n(-u) at the integer orders n the paper uses (its
accelerated alternating series, and the inversion formula for u > 1), the
Dirichlet beta function, and the Euler products / double Dirichlet series
built on Ramanujan sums, together with the derived growth constants, whose
Gamma values at integers are factorials.

Every truncated sum or product returns one SeriesValue: the value and a
valid bound on what the truncation left out.  Each Euler product (default
cutoff 10^6) sieves, per call, only up to the prime past which its factors
round to 1.0, reads that odd-number sieve in spans, so no array of every
prime is formed, and bounds its tail by integral comparison,
sum_{n > P} n^(-a) <= P^(1-a)/(a-1).  dirichlet_d1 is the
closed form of the double series and d1_direct its truncated sum, the
oracle.  The directly summed divisor series sieve sigma_r window by
window.  Nothing is cached, so memory stays bounded whatever the length.
Every value is a plain float; complex arguments are out of scope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import arith
from .arith import DEFAULT_PRIME_CUTOFF, characters_mod, gauss_sum, mu_phi_tables


# ---------------------------------------------------------------------------
# Classical special functions
# ---------------------------------------------------------------------------

# B_{2k}/(2k)! for k = 1..7, exact rationals evaluated once
_EM_COEFF = (
    1.0 / 12,
    -1.0 / 720,
    1.0 / 30240,
    -1.0 / 1209600,
    1.0 / 47900160,
    -691.0 / 1307674368000,
    1.0 / 74724249600,
)


def zeta_real(s: float) -> float:
    """zeta(s) for real s > 1 by Euler-Maclaurin, relative error < 1e-12."""
    if not s > 1.0:  # false for NaN too
        raise ValueError("zeta_real requires s > 1")
    n0 = 24
    head = math.fsum(n ** -s for n in range(1, n0))
    tail = n0 ** (1.0 - s) / (s - 1.0) + 0.5 * n0 ** -s
    rising = s
    power = n0 ** (-s - 1.0)
    for k, coeff in enumerate(_EM_COEFF, start=1):
        if power == 0.0:
            # every later correction is zero too, while rising may reach inf
            # (from s ~ 5e23 on), so 0 * inf would make the sum nan
            break
        tail += coeff * rising * power
        rising *= (s + 2 * k - 1) * (s + 2 * k)
        power /= n0 * n0
    return head + tail


def _alternating_sum(term: Callable[[int], float]) -> float:
    """sum_{k>=0} (-1)^k term(k) with Chebyshev-style acceleration (H. Cohen,
    F. Rodriguez Villegas and D. Zagier, Experiment. Math. 9, 2000).

    The error bound, 2 (3 + sqrt 8)^-n (about 5.8^-n) times the sum itself,
    needs term(k) to be the k-th moment of a positive measure on [0, 1]: (2k+1)^-s for
    beta, and u^(k+1)/(k+1)^s for Li_s(-u), 0 < u <= 1 (a positive measure
    on [0, u]).  Then it holds even for terms decaying only polynomially."""
    n = 48
    d = (3.0 + math.sqrt(8.0)) ** n
    d = (d + 1.0 / d) / 2.0
    b = -1.0
    c = -d
    acc = 0.0
    for k in range(n):
        c = b - c
        acc += c * term(k)
        b *= (k + n) * (k - n) / ((k + 0.5) * (k + 1.0))
    return acc / d


def beta_dirichlet(s: float) -> float:
    """Dirichlet beta(s) = sum (-1)^k / (2k+1)^s, accelerated."""
    if not s > 0.0:  # false for NaN too
        raise ValueError("beta_dirichlet requires s > 0")
    return _alternating_sum(lambda k: (2 * k + 1) ** -s)


def polylog_neg(s: float, u: float) -> float:
    """Li_s(-u) for integer s >= 1 (an integral float is accepted) and
    0 < u < inf.

    For u <= 1 it is the series -sum_{k>=1} (-u)^k/k^s, accelerated by
    _alternating_sum.  For u > 1 the inversion formula (L. Lewin,
    Polylogarithms and Associated Functions, 1981, 7.1)
        Li_s(-u) = -(-1)^s Li_s(-1/u) - (ln u)^s/s!
                   - 2 sum_{1 <= k <= s/2} eta(2k) (ln u)^(s-2k)/(s-2k)!
    brings it back to the series at 1/u < 1.
    """
    if not (float(s).is_integer() and s >= 1 and 0.0 < u < math.inf):
        raise ValueError("polylog_neg requires an integer s >= 1 and 0 < u < inf")
    n = int(s)

    def series(x: float) -> float:
        return -_alternating_sum(lambda k: x ** (k + 1) * (k + 1.0) ** -n)

    if u <= 1.0:
        return series(u)
    log_u = math.log(u)
    powers = [1.0]  # (ln u)^m / m! for m = 0..n
    for m in range(1, n + 1):
        powers.append(powers[-1] * log_u / m)
    evens = math.fsum(eta_alternating(2.0 * k) * powers[n - 2 * k] for k in range(1, n // 2 + 1))
    return -(-1) ** n * series(1.0 / u) - powers[n] - 2.0 * evens


def eta_alternating(s: float) -> float:
    """eta(s) = -Li_s(-1) = (1 - 2^(1-s)) zeta(s), for s >= 1; eta(1) =
    log 2, the removable point of the product.

    Below s = 2 the prefactor is -expm1((1 - s) log 2), which keeps full
    relative precision as s comes down to 1 while zeta(s) grows like
    1/(s - 1).  From s = 2 on it is 1 - 2^(1-s), exact at the integers.
    """
    if not s >= 1.0:  # false for NaN too
        raise ValueError("eta_alternating requires s >= 1")
    if s == 1.0:
        return math.log(2.0)
    if s < 2.0:
        return -math.expm1((1.0 - s) * math.log(2.0)) * zeta_real(s)
    return (1.0 - 2.0 ** (1.0 - s)) * zeta_real(s)


# ---------------------------------------------------------------------------
# Euler products
# ---------------------------------------------------------------------------

# odd numbers per span of the prime sieve that _euler_product reads at once
# (the first span holds the most primes, 3,512: 27 KiB of float64)
_EULER_CHUNK = 1 << 14


@dataclass(frozen=True)
class SeriesValue:
    """A truncated sum or product and a bound on |value - limit|."""

    value: float
    bound: float


def _euler_product(
    factor: Callable[[np.ndarray], np.ndarray],
    tail_const: float,
    tail_alpha: float,
    cutoff: int,
) -> SeriesValue:
    """prod over p <= cutoff of factor(p).  The sieve (arith.odd_sieve) is
    read in spans of _EULER_CHUNK odd numbers, and factor is evaluated on
    one span's primes at a time, as float64, so no array of every prime is
    ever formed; the logs are added by math.fsum.

    Each family bounds |factor(p) - 1| <= tail_const p^-tail_alpha for all
    p >= 2, so past stop = (tail_const 2^56)^(1/tail_alpha) a factor is 1.0
    plus at most 2^-56 (give or take a few ulps), under the half ulp 2^-54
    below 1.0: exactly 1.0.  Only the primes <= min(cutoff, stop) are
    sieved, and only their nonzero logs go to the exactly rounded fsum, so
    the value is the product over every p <= cutoff bit for bit, whatever
    the span."""
    if not tail_alpha > 1.0:  # false for NaN too
        raise ValueError("divergent parameter region (tail exponent <= 1)")
    stop = min(cutoff, math.ceil((tail_const * 2.0**56) ** (1.0 / tail_alpha)))
    odd = arith.odd_sieve(stop)

    def nonzero_logs():
        for lo in range(0, odd.size, _EULER_CHUNK):
            p = arith.sieve_primes(odd, lo, lo + _EULER_CHUNK).astype(np.float64)
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                f = factor(p)
            bad = np.flatnonzero(~(f > 0.0))
            if bad.size:
                raise ValueError(f"nonpositive Euler factor at p = {int(p[bad[0]])}")
            logs = np.log(f)
            yield from logs[logs != 0.0].tolist()

    value = math.exp(math.fsum(nonzero_logs()))
    log_tail = tail_const * cutoff ** (1.0 - tail_alpha) / (tail_alpha - 1.0)
    return SeriesValue(value, abs(value) * math.expm1(log_tail))


def constant_C(r: int, cutoff: int = DEFAULT_PRIME_CUTOFF) -> SeriesValue:
    """prod over p of (1 + 1/(p^(r+1)(p-1)))  (totient-summatory family;
    r = 1 gives 1.339784..., and zeta(2) times it the Landau constant).
    Tail bound: p - 1 >= p/2, so 0 < f(p) - 1 <= 2 p^-(r+2)."""
    if r < 1:
        raise ValueError("constant_C requires r >= 1")
    return _euler_product(
        lambda p: 1.0 + 1.0 / (p ** (r + 1) * (p - 1.0)),
        tail_const=2.0, tail_alpha=r + 2.0, cutoff=cutoff,
    )


def euler_K(s: float, r: int, cutoff: int = DEFAULT_PRIME_CUTOFF) -> SeriesValue:
    """prod over p of (1 + [1/(p^(r+1)(p-1))] (1-p^-s)/(1-p^-(s+r+1))).

    Tends to constant_C(r) as s -> +inf and equals 1 at s = 0.
    Tail bound: 1 - p^-(s+r+1) >= D = 1 - 2^-(s+r+1) > 0, 1/(p-1) <= 2/p
    and |1 - p^-s| <= p^max(0,-s) (for s >= 0 and s < 0 alike), so
    |f(p) - 1| <= (2/D) p^-(r+2-max(0,-s)), within the 4/D passed.
    """
    if not s + r + 1 > 1:  # false for NaN too
        raise ValueError("euler_K requires s + r + 1 > 1")

    def factor(p: np.ndarray) -> np.ndarray:
        h = 1.0 / (p ** (r + 1) * (p - 1.0))
        return 1.0 + h * (1.0 - p ** -s) / (1.0 - p ** (-(s + r + 1.0)))

    alpha = r + 2.0 - max(0.0, -s)
    const = 4.0 / (1.0 - 2.0 ** (-(s + r + 1.0)))
    return _euler_product(factor, tail_const=const, tail_alpha=alpha, cutoff=cutoff)


def _E_r(sigma: float, r: int, cutoff: int) -> SeriesValue:
    """The bound-side Euler product E_r(sigma) from its defining form
        1 + [(1-p^-r)/p^(r+1)] / (2 p^(3 sigma + 2r + 1) (1 - 2^-(sigma+r+1))).
    Tail bound: sigma > -2r/3 gives D = 1 - 2^-(sigma+r+1) > 1/2, and
    1 - p^-r < 1, so 0 <= f(p) - 1 < p^-(3 sigma + 3r + 2) / D."""
    if not sigma > -2.0 * r / 3.0:  # false for NaN too
        raise ValueError("E_r requires sigma > -2r/3")
    denom_const = 1.0 - 2.0 ** (-(sigma + r + 1.0))

    def factor_e(p: np.ndarray) -> np.ndarray:
        lead = (1.0 - p ** float(-r)) / p ** (r + 1)
        # negative-exponent form: underflows to 0 instead of overflowing
        decay = np.exp(-(3.0 * sigma + 2 * r + 1.0) * np.log(p))
        return 1.0 + lead * decay / (2.0 * denom_const)

    return _euler_product(
        factor_e,
        tail_const=1.0 / denom_const,
        tail_alpha=3.0 * sigma + 3 * r + 2.0,
        cutoff=cutoff,
    )


def E_r_and_Cprime(
    sigma: float, r: int, cutoff: int = DEFAULT_PRIME_CUTOFF
) -> tuple[SeriesValue, SeriesValue]:
    """E_r(sigma) (see _E_r) together with C'(r) = prod (1 + (1-p^-r)/p^(r+1)),
    whose tail bound is 0 <= f(p) - 1 < p^-(r+1), as 1 - p^-r < 1."""
    e_val = _E_r(sigma, r, cutoff)
    cp_val = _euler_product(
        lambda p: 1.0 + (1.0 - p ** float(-r)) / p ** (r + 1),
        tail_const=1.0, tail_alpha=r + 1.0, cutoff=cutoff,
    )
    return e_val, cp_val


# ---------------------------------------------------------------------------
# The double Dirichlet series and its bound
# ---------------------------------------------------------------------------

def dirichlet_d1(s: float, r: int, cutoff: int = DEFAULT_PRIME_CUTOFF) -> SeriesValue:
    """The Mobius-weighted double series over Ramanujan sums,
    D1(s, r) = sum_m mu(m)/(phi(m) m^(r+1)) sum_n c_m(n)/n^s, in closed
    form: zeta(s) K_r(s) / zeta(s+r+1), bounded by K_r's tail."""
    if not s > 1.0:  # false for NaN too
        raise ValueError("dirichlet_d1 requires s > 1")
    k_val = euler_K(s, r, cutoff=cutoff)
    scale = zeta_real(s) / zeta_real(s + r + 1.0)
    return SeriesValue(scale * k_val.value, abs(scale) * k_val.bound)


def d1_direct(s: float, r: int, m_limit: int = 2000, n_limit: int = 20000) -> SeriesValue:
    """D1(s, r) as the truncated double sum over m <= m_limit, n <= n_limit,
    the independent oracle of dirichlet_d1.  Kluyver's identity c_m(n) =
    sum_{d | (m, n)} d mu(m/d) turns each inner sum into
    sum_{d | m} mu(m/d) d^(1-s) Z(n_limit // d), Z the prefix sums of t^-s,
    so the budget is feasible.  Its outer tail bound divides by r."""
    if not (s > 1.0 and r >= 1 and m_limit >= 1 and n_limit >= 1):  # false for NaN too
        raise ValueError("d1_direct requires s > 1, r >= 1, m_limit >= 1 and n_limit >= 1")
    if m_limit > 500_000:
        # the phi(m) >= m/6 step in the tail bound stops holding past here
        raise ValueError("d1_direct is documented for m_limit <= 500000")
    mu, phi = mu_phi_tables(m_limit)
    # Z(t) is kept only at the t = n_limit // d that the sum reads
    acc, done, zpre = 0.0, 0, {0: 0.0}
    for stop in sorted({n_limit // d for d in range(1, m_limit + 1)}):
        for t in range(done + 1, stop + 1):
            acc += t ** -s
        zpre[stop], done = acc, stop
    # the divisors of every squarefree k <= m_limit, increasing, from one
    # sieve; only squarefree m are looked up
    divs: list[list[int]] = [[] for _ in range(m_limit + 1)]
    for d in range(1, m_limit + 1):
        if mu[d]:
            for k in range(d, m_limit + 1, d):
                if mu[k]:
                    divs[k].append(d)

    total = 0.0
    inner_tail = 0.0
    for m in range(1, m_limit + 1):
        if mu[m] == 0:
            continue
        weight = mu[m] / (phi[m] * m ** (r + 1))
        # Kluyver: c_m(n) = sum_{d | (m, n)} d mu(m/d), so the n-sum of
        # c_m(n) n^-s is sum_{d | m} mu(m/d) d^(1-s) Z(n_limit // d)
        total += weight * sum(mu[m // d] * d ** (1.0 - s) * zpre[n_limit // d] for d in divs[m])
        # |c_m(n)| <= sigma_1(gcd(m,n)) <= sigma_1(m) <= m (1 + log m)
        inner_tail += abs(weight) * m * (1.0 + math.log(m)) * n_limit ** (1.0 - s) / (s - 1.0)
    # outer tail: phi(m) >= m/6 holds through m ~ 5*10^5 (largest primorial
    # below that is 510510 with phi/m ~ 0.171); document, don't push past it
    zs = zeta_real(s)
    outer_tail = zs * 6.0 * ((1.0 + math.log(m_limit)) / r + 1.0 / r**2) * m_limit ** float(-r)
    return SeriesValue(total, inner_tail + outer_tail)


def d1_direct_naive(s: float, r: int, m_limit: int, n_limit: int) -> float:
    """Literal double loop over von Sterneck's closed form of c_m(n)
    (arith.ramanujan_sum): the oracle of the direct evaluator, which sums
    Kluyver's divisor form instead."""
    total = 0.0
    for m in range(1, m_limit + 1):
        mu_m = arith.mobius(m)
        if mu_m == 0:
            continue
        w = mu_m / (arith.euler_phi(m) * m ** (r + 1))
        total += w * math.fsum(
            arith.ramanujan_sum(m, n) / n**s for n in range(1, n_limit + 1)
        )
    return total


def d2_bound(sigma: float, r: int, cutoff: int = DEFAULT_PRIME_CUTOFF) -> float:
    """Upper bound for the character-twisted companion series:
    zeta(sigma) zeta(sigma+r) zeta(sigma+r+1) / zeta(2(sigma+r))
    * zeta(r) * E_r(sigma), valid for sigma > 1, r > 1."""
    if not sigma > 1.0:  # false for NaN too
        raise ValueError("d2_bound requires sigma > 1")
    if r <= 1:
        raise ValueError("d2_bound requires r > 1")
    return (
        zeta_real(sigma) * zeta_real(sigma + r) * zeta_real(sigma + r + 1.0)
        / zeta_real(2.0 * (sigma + r))
        * zeta_real(float(r))
        * _E_r(sigma, r, cutoff).value
    )


def d2_direct_probe(s: float, r: int) -> complex:
    """Truncated direct evaluation of the character-twisted series
    sum_{m <= 60} 1/(phi(m) m^(r+1)) sum_{chi != chi0} tau(chi)
    sum_{n <= 4000} c'_{conj chi}(n)/n^s
    (one-sided consistency probe against d2_bound)."""
    n_arr = np.arange(1, 4001)
    ns = n_arr.astype(np.float64) ** (-s)
    total = complex(0.0)
    for m in range(1, 61):
        units = arith._units(m)
        # W[b] = sum_n e(bn/m)/n^s over the units b
        roots = arith._unit_roots(units[:, None] * (n_arr % m) % m, m)
        roots *= ns  # in place: this units x 4000 matrix is the probe's largest array
        w_units = roots.sum(axis=1)
        inner = complex(0.0)
        for chi in characters_mod(m):
            if not chi.is_principal:
                series = complex((np.array(chi.values)[units].conj() * w_units).sum())
                inner += gauss_sum(chi, 1) * series
        total += inner / (arith.euler_phi(m) * m ** (r + 1))
    return total


def d2_quartic_character(s: float, r: int, cutoff: int = DEFAULT_PRIME_CUTOFF) -> SeriesValue:
    """The companion series specialized to the nontrivial character mod 4:
    beta(s) beta(s+r+1) / beta(s+r) times Euler products over p = 1 (mod 4)
    and p = 3 (mod 4).

    With x = chi(p) p^-(s+r), y = chi(p) p^-(s+r+1) and d = 1 + y - x,
    the factor of an odd prime is 1 + (1 + chi(p) p^-s) / (p^(r+1) d)
    (1 - b), where b = N / (d - N) and N is the geometric series
    sum_{k>=2} chi^k (p^-(k(s+r)+1) - p^-(k(s+r+1))) =
    x^2/((1-x) p) - y^2/(1-y).  The factor at p = 2 is 1.  Tail bound: for
    p >= 3, s > 1 and r >= 2, |x| < 1/27 and |y| < 1/81, so d > 77/81,
    |N| < 1/1500, |1 - b| < 1.001 and |1 + chi(p) p^-s| < 4/3; so
    |f(p) - 1| < 1.41 p^-(r+1), within the 4 p^-(r+1) passed (and 0 at
    p = 2)."""
    if not (s > 1.0 and r > 1):  # false for NaN too
        raise ValueError("d2_quartic_character requires s > 1 and r > 1")

    def factor(p: np.ndarray) -> np.ndarray:
        chi = np.where(p % 4.0 == 1.0, 1.0, -1.0)
        x = chi * p ** -(s + r)
        y = chi * p ** -(s + r + 1.0)
        d = 1.0 + y - x
        num = x * x / ((1.0 - x) * p) - y * y / (1.0 - y)
        lead = (1.0 + chi * p**-s) / p ** (r + 1)
        return np.where(p == 2.0, 1.0, 1.0 + lead / d * (1.0 - num / (d - num)))

    prod = _euler_product(factor, tail_const=4.0, tail_alpha=r + 1.0, cutoff=cutoff)
    scale = beta_dirichlet(s) * beta_dirichlet(s + r + 1.0) / beta_dirichlet(s + r)
    return SeriesValue(scale * prod.value, abs(scale) * prod.bound)


# ---------------------------------------------------------------------------
# The shifted divisor series
# ---------------------------------------------------------------------------

# terms formed at a time by _divisor_series (128 KiB of float64)
_SERIES_BLOCK = 1 << 14
# largest range of n whose sigma window _divisor_series sieves at once (1 MiB)
_SIEVE_WINDOW = 1 << 17
_SERIES_TERMS = 10**6  # of the directly summed divisor series


def _divisor_series(r: int, s: float, n_cutoff: int) -> tuple[float, float]:
    """(sum sigma_r(n) n^-s, sum sigma_r(n + 1) n^-s) over n <= n_cutoff.

    Both sums run over one pass of numpy's own pairwise-summation tree (a
    range longer than a block splits at half its length, rounded down to a
    multiple of 8), so each equals np.sum over its full array of terms bit
    for bit.  The first node of at most _SIEVE_WINDOW terms sieves
    sigma_r over its range (arith.divisor_sum_sieve, in float64) and its
    leaves form both shifts' terms from one n^-s block of at most
    _SERIES_BLOCK entries, so memory stays bounded whatever n_cutoff is.

    sigma_r(n) up to n = n_cutoff + 1 must stay finite in float64, or the
    sums would be inf or nan; it is below zeta(2) n^r < 2^(1 + r log2 n),
    and past the r where that passes 2^1024 they raise ValueError."""
    bits = math.log2(n_cutoff + 1)
    if 1.0 + r * bits >= 1024.0:
        raise ValueError(
            f"sigma_{r}(n) for n <= {n_cutoff + 1} overflows float64: the direct "
            f"divisor series supports r <= {math.ceil(1023.0 / bits) - 1}")

    def tree(lo: int, hi: int, sig: np.ndarray | None) -> tuple[float, float]:
        # the sums of the terms for n = lo + 1 .. hi; sig[0] is sigma_r(lo + 1)
        if sig is None and hi - lo <= _SIEVE_WINDOW:
            sig = arith.divisor_sum_sieve(r, hi + 1, np.float64, lo=lo + 1)
        if hi - lo > _SERIES_BLOCK:
            half = (hi - lo) // 2
            half -= half % 8
            left = tree(lo, lo + half, sig)
            right = tree(lo + half, hi, None if sig is None else sig[half:])
            return left[0] + right[0], left[1] + right[1]
        terms = np.arange(lo + 1, hi + 1, dtype=np.float64)
        np.power(terms, -s, out=terms)
        unshifted = terms * sig[: hi - lo]
        terms *= sig[1 : hi - lo + 1]
        return float(np.sum(unshifted)), float(np.sum(terms))

    return tree(0, n_cutoff, None)


@dataclass(frozen=True)
class ShiftedSeriesCheck:
    direct: float
    d1_part: float
    d2_budget: float
    truncation: float
    residual_bound_ok: bool
    d1_closed: SeriesValue  # D1(s, r), the i = 0 term of d1_part
    dsigma_residual: float  # dsigma_residual(s, r), from the same sigma windows


def shifted_series_residual(
    s: float, r: int, cutoff: int = DEFAULT_PRIME_CUTOFF
) -> ShiftedSeriesCheck:
    """Compare the directly summed shifted series sum_{n <= 10^6} sigma_r(n+1)/n^s
    against its Mobius-side part zeta(r+1) sum_i C(r,i) D1(s-i, r); the
    difference must sit inside the bound-side budget.  The unshifted series
    of dsigma_residual comes from the same pass.

    Needs r >= 2: the truncation bound uses zeta(r) and the budget d2_bound,
    both of which diverge at r = 1."""
    if r < 2:
        raise ValueError("shifted_series_residual requires r >= 2")
    if not s - r > 1.0:  # false for NaN too
        raise ValueError("need s - r > 1 so every shifted argument stays in range")
    unshifted, direct = _divisor_series(r, s, _SERIES_TERMS)
    # sigma_r(n+1) <= zeta(r) (n+1)^r <= zeta(r) 2^r n^r
    trunc = zeta_real(float(r)) * 2.0**r * _SERIES_TERMS ** (r + 1.0 - s) / (s - r - 1.0)

    zr1 = zeta_real(r + 1.0)
    closed = [dirichlet_d1(s - i, r, cutoff=cutoff) for i in range(r + 1)]
    d1_part = 0.0
    closed_tails = 0.0
    for i, sv in enumerate(closed):
        d1_part += math.comb(r, i) * sv.value
        closed_tails += math.comb(r, i) * sv.bound
    d1_part *= zr1
    budget = zr1 * math.fsum(
        math.comb(r, i) * d2_bound(s - i, r, cutoff=cutoff) for i in range(r + 1)
    )
    slack = trunc + zr1 * closed_tails
    return ShiftedSeriesCheck(
        direct=direct,
        d1_part=d1_part,
        d2_budget=budget,
        truncation=slack,
        residual_bound_ok=abs(direct - d1_part) <= budget + slack,
        d1_closed=closed[0],
        dsigma_residual=_dsigma_gap(unshifted, s, r),
    )


def _dsigma_gap(direct: float, s: float, r: int) -> float:
    return abs(direct - zeta_real(s) * zeta_real(s - r))


def dsigma_residual(s: float, r: int) -> float:
    """|sum_{n <= 10^6} sigma_r(n)/n^s - zeta(s) zeta(s-r)|."""
    if not s - r > 1.0:  # false for NaN too
        raise ValueError("need s - r > 1")
    return _dsigma_gap(_divisor_series(r, s, _SERIES_TERMS)[0], s, r)


# ---------------------------------------------------------------------------
# Derived growth constants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GrowthConstants:
    """The aggregate constant driving the leading derivative bounds, the
    Euler products it is built from (K_r(1), E_r(1) and C'(r)), and the
    mean/variance prefactors under both conventions.  Each call builds its
    own dicts."""

    r: int
    K1: float
    E1: float
    Cprime: float
    N: float
    C_mu: dict[str, float]
    C_sigma: dict[str, float]


def growth_constants(r: int, cutoff: int = DEFAULT_PRIME_CUTOFF) -> GrowthConstants:
    """N(r) = |zeta(r+1) K_r(1)/zeta(r+2)
               + zeta(r+1)^2 zeta(r+2) zeta(r) E_r(1) / zeta(2(r+1))
               - zeta(r+1)|, plus C_mu(r), C_sigma(r) in both conventions.

    With eta_r = -Li_r(-1) = eta(r), C_mu = N eta_{r+1} Gamma(r+1) and
        C_sigma = N (eta_r Gamma(r+1) - eta_r^2 Gamma(r+2)^2 / (eta_{r+1} Gamma(r+3)))
                = N eta_r r! (eta_{r+1} + (r+1)(eta_{r+1} - eta_r)) / (eta_{r+1} (r+2)).
    The second form needs no factorial beyond r!, a float up to r = 170,
    and does not cancel.  In the first, two terms near r! leave a
    difference near r!/(r+2), which costs about r ulps at large r.  The
    shifted-zeta convention takes eta_{r+1}, eta_{r+2} in place of eta_r,
    eta_{r+1} in the same formulas: eta(r+1) = (1 - 2^-r) zeta(r+1)."""
    if r < 2:
        raise ValueError("growth_constants requires r >= 2")
    if r > 170:
        raise ValueError(f"growth_constants requires r <= 170: {r}! exceeds the float range")
    zr = zeta_real(float(r))
    zr1 = zeta_real(r + 1.0)
    zr2 = zeta_real(r + 2.0)
    k1 = euler_K(1.0, r, cutoff=cutoff).value
    e1, cprime = (v.value for v in E_r_and_Cprime(1.0, r, cutoff=cutoff))
    n_val = abs(zr1 * k1 / zr2 + zr1**2 * zr2 * zr * e1 / zeta_real(2.0 * (r + 1)) - zr1)

    def prefactors(eta_r: float, eta_r1: float) -> tuple[float, float]:
        fact = math.factorial(r)
        c_sig = n_val * eta_r * fact * (eta_r1 + (r + 1) * (eta_r1 - eta_r)) / (eta_r1 * (r + 2))
        return n_val * eta_r1 * fact, c_sig

    eta = [eta_alternating(r + i) for i in (0.0, 1.0, 2.0)]
    mu_std, sig_std = prefactors(eta[0], eta[1])
    mu_alt, sig_alt = prefactors(eta[1], eta[2])
    return GrowthConstants(
        r=r, K1=k1, E1=e1, Cprime=cprime, N=n_val,
        C_mu={"standard": mu_std, "shifted-zeta": mu_alt},
        C_sigma={"standard": sig_std, "shifted-zeta": sig_alt},
    )
