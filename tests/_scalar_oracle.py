"""Scalar reference loops for the vectorised layers.

These are the per-term Python loops the numpy kernels replaced: every
k-sum adds one term at a time with compensated (Kahan) accumulation under
the shared truncation rule, and every Euler product takes one factor per
prime.  The Mellin double sums add their inner l-series term by term under
their own stop rule, and the quartic-character product sums each prime's
nested correction series term by term.  Gaps and sigma values come from
the slow divisor-add sieve arith.sigma_r_table, so nothing here shares
code with the kernels or the pair sieve under test.

The number-theory loops below are the same kind of reference for the
integer-phase kernels of divpart.arith: characters evaluated one value at
a time from exact rational angles, a tolerance-based conductor search
(divpart computes no conductor; the primitive inducer the tests find by
matching values must have it as its modulus), and Ramanujan and Gauss sums added one residue at a time with
cmath.exp.  They share only the unit-group structure
(arith._component_structure) with the code under test.  The von Sterneck
form of c_m(n), the per-m weighted partial and the plain partial sum of
Li_s(-u) are the oracles of arith.ramanujan_sum,
arith.ramanujan_weighted_partial and dirichlet.polylog_neg, and the
bytearray sieve over every integer is the oracle of the odd-only numpy
sieve arith.primes_up_to.

The exact-law statistics at the end are the per-cell rational route:
every cell becomes its own Fraction over the row total, and moments, the
KS distance, tails, the MGF and the negative mass are added cell by cell
in rationals and converted to float at the last step.  divpart keeps the
row as integer cells over one total and divides once per figure; only the
Gaussian target cltlab.norm_cdf is shared.
"""

import cmath
import math
from fractions import Fraction
from functools import lru_cache
from itertools import compress, product

from divpart import arith, cltlab, dirichlet
from divpart.arith import sigma_r_table

TRUNCATION_RATIO = 1e-18
TERM_CAP = 10**7


@lru_cache(maxsize=None)
def _float_gaps(r, limit):
    """gap(1..limit) as correctly rounded floats."""
    sig = sigma_r_table(limit + 1, r)
    return [float(sig[k + 1] - sig[k]) for k in range(1, limit + 1)]


def _gap_source(r):
    """gap(k) as a float, from exact tables grown to powers of two on demand."""
    state = {"gaps": _float_gaps(r, 1024)}

    def gap(k):
        gaps = state["gaps"]
        if k > len(gaps):
            gaps = state["gaps"] = _float_gaps(r, 1 << k.bit_length())
        return gaps[k - 1]

    return gap


def term_value(jg, ju, k, q, u):
    """Summand of the (jg, ju) partial at part size k, with q = e^(-gamma k)."""
    w = 1.0 + u * q
    if ju == 0:
        if jg == 0:
            return math.log1p(u * q)
        if jg == 1:
            return -k * u * q / w
        if jg == 2:
            return k * k * u * q / (w * w)
        if jg == 3:
            return -(k**3) * u * q * (1.0 - u * q) / w**3
        return k**4 * u * q * (1.0 - 4.0 * u * q + (u * q) ** 2) / w**4
    if jg == 0:
        if ju == 1:
            return q / w
        if ju == 2:
            return -(q * q) / (w * w)
        return 2.0 * q**3 / w**3
    if ju == 1:
        if jg == 1:
            return -k * q / (w * w)
        if jg == 2:
            return k * k * q * (1.0 - u * q) / w**3
        return -(k**3) * q * (1.0 - 4.0 * u * q + (u * q) ** 2) / w**4
    if ju == 2:
        if jg == 1:
            return 2.0 * k * q * q / w**3
        return -2.0 * k * k * q * q * (2.0 - u * q) / w**4
    return -6.0 * k * q**3 / w**4


def kahan_ksum(gamma, r, summand, k_cap=None, stop_power=4):
    """sum_k w(k) summand(k, q) with w = gap_r (or 1 when r is None),
    stopping at the first k with max(|w|, 1) k^stop_power q below
    TRUNCATION_RATIO times the running total, or after k_cap."""
    gap = _gap_source(r) if r is not None else (lambda k: 1.0)
    total = 0.0
    comp = 0.0
    k = 0
    while True:
        k += 1
        if k_cap is not None and k > k_cap:
            return total
        if k > TERM_CAP:
            raise RuntimeError("oracle k-sum budget exhausted")
        g = gap(k)
        q = math.exp(-gamma * k)
        if g:
            y = g * summand(k, q) - comp
            t = total + y
            comp = (t - total) - y
            total = t
        bound = max(abs(g), 1.0) * float(k) ** stop_power * q
        if bound < TRUNCATION_RATIO * max(abs(total), 1e-300):
            return total


def F_partial(gamma, u, r, jg, ju):
    return kahan_ksum(gamma, r, lambda k, q: term_value(jg, ju, k, q, u))


def plain_equation(eta):
    """sum_k k / (e^(eta k) + 1)."""
    return kahan_ksum(eta, None, lambda k, q: k * q / (1.0 + q))


def plain_equation_slope(eta):
    return kahan_ksum(eta, None, lambda k, q: -k * k * q / (1.0 + q) ** 2)


def mean_variance_sums(eta, r):
    """(mu, a, b, c): sum gap q/(1+q) and sum gap k^j q/(1+q)^2, j = 0, 1, 2,
    all four stopped where the rule fires on mu."""
    gap = _gap_source(r)
    sums = [0.0] * 4
    comps = [0.0] * 4
    k = 0
    while True:
        k += 1
        g = gap(k)
        q = math.exp(-eta * k)
        if g:
            w2 = q / (1.0 + q) ** 2
            for i, term in enumerate((q / (1.0 + q), w2, k * w2, k * k * w2)):
                y = g * term - comps[i]
                t = sums[i] + y
                comps[i] = (t - sums[i]) - y
                sums[i] = t
        if max(abs(g), 1.0) * float(k) ** 4 * q < TRUNCATION_RATIO * max(abs(sums[0]), 1e-300):
            return tuple(sums)


def minor_arc_log_ratio(tau, theta, u, r):
    def summand(k, q):
        arg = 1.0 - 2.0 * u * q * (1.0 - math.cos(k * theta)) / (1.0 + u * q) ** 2
        return math.log(arg)

    return 0.5 * kahan_ksum(tau, r, summand)


def euler_product(factor, primes):
    """prod factor(p) as exp(fsum(log factor(p))), one prime at a time."""
    return math.exp(math.fsum(math.log(factor(p)) for p in primes))


def constant_C_factor(r):
    return lambda p: 1.0 + 1.0 / (p ** (r + 1) * (p - 1))


def euler_K_factor(s, r):
    def factor(p):
        h = 1.0 / (p ** (r + 1) * (p - 1))
        return 1.0 + h * (1.0 - p ** -s) / (1.0 - float(p) ** (-(s + r + 1.0)))

    return factor


def E_r_factor(sigma, r):
    denom_const = 1.0 - 2.0 ** (-(sigma + r + 1.0))

    def factor(p):
        lead = (1.0 - p ** float(-r)) / p ** (r + 1)
        decay = math.exp(-(3.0 * sigma + 2 * r + 1.0) * math.log(p))
        return 1.0 + lead * decay / (2.0 * denom_const)

    return factor


def Cprime_factor(r):
    return lambda p: 1.0 + (1.0 - p ** float(-r)) / p ** (r + 1)


@lru_cache(maxsize=None)
def _float_sigmas(r, limit):
    """sigma_r(0..limit) as correctly rounded floats."""
    return [float(v) for v in sigma_r_table(limit, r)]


def sigma_double_sum(j, gamma, u, r, shifted):
    """sum_n sigma_r(n + shifted) n^j sum_l (-u)^l l^(j-1) e^(-n l gamma):
    the l-series added term by term (so only for u e^(-gamma) < 1), the
    n-sum compensated and stopped by its own bound."""
    sums = _float_sigmas(r, 1024)
    total = 0.0
    comp = 0.0
    n = 0
    while True:
        n += 1
        if n + 1 == len(sums):
            sums = _float_sigmas(r, 2 * (len(sums) - 1))
        sig = sums[n + 1] if shifted else sums[n]
        inner = 0.0
        sign_u = -u
        l = 1
        while True:
            e_term = math.exp(-n * l * gamma)
            term = sign_u * float(l) ** (j - 1) * e_term
            inner += term
            if abs(term) < 1e-18 * max(abs(inner), 1e-300) or n * l * gamma > 60.0:
                break
            sign_u *= -u
            l += 1
        term = sig * float(n) ** j * inner
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        # sigma_r(n+1) < zeta(r) (n+1)^r keeps this stop bound valid
        if sig * float(n) ** j * math.exp(-n * gamma) * 2.0 * u < 1e-18 * max(abs(total), 1e-300):
            return total


def _b_factor_chi(p, s, r, chi_p):
    """The nested correction series of one odd prime in the quartic-character
    product, summed term by term."""
    num = 0.0
    den_series = 0.0
    k = 2
    while True:
        term = chi_p**k * (p ** -(k * (s + r) + 1.0) - p ** (-k * (s + r + 1.0)))
        num += term
        den_series += term
        if abs(term) < 1e-18 * (abs(num) + 1e-300):
            break
        k += 1
        if k > 200:
            break
    den = 1.0 + chi_p * (p ** (-(s + r + 1.0)) - p ** (-(s + r))) - den_series
    return num / den


def d2_quartic_character(s, r, cutoff):
    """(value, truncation bound) of dirichlet.d2_quartic_character, one odd
    prime at a time."""
    logs = []
    for p in arith.primes_up_to(cutoff):
        if p == 2:
            continue
        chi_p = 1 if p % 4 == 1 else -1
        b = _b_factor_chi(p, s, r, chi_p)
        lead = (1.0 + chi_p * p**-s) / p ** (r + 1)
        inner = 1.0 / (1.0 + chi_p * (p ** (-(s + r + 1.0)) - p ** (-(s + r))))
        logs.append(math.log(1.0 + lead * inner * (1.0 - b)))
    scale = (dirichlet.beta_dirichlet(s) * dirichlet.beta_dirichlet(s + r + 1.0)
             / dirichlet.beta_dirichlet(s + r))
    value = scale * math.exp(math.fsum(logs))
    return value, abs(value) * math.expm1(4.0 * cutoff ** float(-r) / r)


# ---------------------------------------------------------------------------
# Number theory
# ---------------------------------------------------------------------------

def primes_up_to(limit):
    """All primes <= limit, by a bytearray Eratosthenes sieve over every
    integer."""
    if limit < 2:
        return []
    sieve = bytearray(b"\x01") * (limit + 1)
    sieve[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            start = p * p
            sieve[start:limit + 1:p] = b"\x00" * ((limit - start) // p + 1)
    return list(compress(range(limit + 1), sieve))


def unit_root(num, den):
    return cmath.exp(arith.TWO_PI * 1j * ((num % den) / den))


def conductor(m, values):
    """Smallest f | m with chi within CHARACTER_TOL of 1 on every unit
    congruent to 1 mod f."""
    for f in arith.divisors(m):
        if all(
            abs(values[a] - 1.0) < arith.CHARACTER_TOL
            for a in range(1, m)
            if a % f == 1 % f and math.gcd(a, m) == 1
        ):
            return f
    return m


def characters(m):
    """[(values, is_principal)] for every character mod m >= 2, in the order
    of arith.characters_mod.

    Character k sends the unit with discrete logs t to e(sum_c k_c t_c / d_c),
    the angle taken over the product P of the orders d_c and reduced mod 1 in
    exact integers; int true division rounds correctly, so each angle is
    float(Fraction(sum_c k_c t_c (P / d_c), P) % 1) at a fraction of the cost.
    """
    comps = arith.factorize(m)
    structures = [arith._component_structure(p, e) for p, e in comps]
    orders = [d for comp_orders, _ in structures for d in comp_orders]
    total = math.prod(orders)
    unit_logs = {}
    for a in range(m):
        if math.gcd(a, m) == 1:
            vec = [t for (p, e), (_, logs) in zip(comps, structures) for t in logs[a % p**e]]
            unit_logs[a] = [t * (total // d) for t, d in zip(vec, orders)]
    out = []
    for ks in product(*(range(d) for d in orders)):
        values = [complex(0.0)] * m
        for a, vec in unit_logs.items():
            num = sum(k * t for k, t in zip(ks, vec))
            values[a] = cmath.exp(arith.TWO_PI * 1j * ((num % total) / total))
        out.append((tuple(values), all(k == 0 for k in ks)))
    return out


def ramanujan_sum_exponential(m, n):
    """c_m(n) = sum of e(b n / m) over the units b, one residue at a time."""
    return sum((unit_root(b * n, m) for b in range(m) if math.gcd(b, m) == 1), complex(0.0))


def gauss_sum(values, m, n):
    """sum of chi(b) e(b n / m) over the units b, one residue at a time, for
    the character with values[b] = chi(b) mod m."""
    return sum((values[b] * unit_root(b * n, m) for b in range(m) if math.gcd(b, m) == 1),
               complex(0.0))


def ramanujan_sum_divisor_form(m, n):
    """c_m(n) = sum over d | gcd(m, n) of d * mu(m/d)  (von Sterneck form)."""
    return sum(d * arith.mobius(m // d) for d in arith.divisors(math.gcd(m, n)))


def ramanujan_weighted_partial(n, m_limit, r):
    """sum over m <= m_limit of c_m(n) / m^(r+1), one m at a time."""
    return math.fsum(arith.ramanujan_sum(m, n) / m ** (r + 1) for m in range(1, m_limit + 1))


def shifted_identity_max_residual(m_max, n_max):
    """The shifted-sum identity residual, one (m, n) and one unit at a time,
    with tau(chi) from the scalar gauss_sum."""
    worst = 0.0
    for m in range(1, m_max + 1):
        phi = arith.euler_phi(m)
        mu_m = arith.mobius(m)
        units = [b for b in range(m) if math.gcd(b, m) == 1]
        g_vec = {b: complex(0.0) for b in units}
        for chi in arith.characters_mod(m)[1:]:  # row 0 is the principal character
            tau = gauss_sum(chi, m, 1)
            for b in units:
                g_vec[b] += tau * chi[b].conjugate()
        for n in range(1, n_max + 1):
            lhs = complex(arith.ramanujan_sum(m, n + 1))
            rhs = mu_m / phi * arith.ramanujan_sum(m, n)
            rhs += sum(g_vec[b] * unit_root(b * n, m) for b in units) / phi
            worst = max(worst, abs(lhs - rhs))
    return worst


def polylog_neg_partial_sum(s, u):
    """Li_s(-u) for 0 < u <= 1/2 by the plain partial sum over k <= 80 of
    (-u)^k / k^s; the first term left out is below 2^-81."""
    if not 0.0 < u <= 0.5:
        raise ValueError("the partial sum needs 0 < u <= 1/2")
    return math.fsum((-u) ** k / k**s for k in range(1, 81))


def exact_pmf(cells, total):
    """{k: cells[k] / total} over the nonzero cells, as Fractions."""
    return {k: Fraction(c, total) for k, c in enumerate(cells) if c != 0}


def pmf_moments(pmf):
    """(mean, variance) of a rational pmf, each term added as a Fraction."""
    mean = sum((k * p for k, p in pmf.items()), Fraction(0))
    second = sum((k * k * p for k, p in pmf.items()), Fraction(0))
    return mean, second - mean * mean


def pmf_negative_mass(pmf):
    """Sum of |pmf[k]| over the negative cells."""
    return -sum((p for p in pmf.values() if p < 0), Fraction(0))


def pmf_ks_to_normal(pmf, mean, std):
    """Sup distance between the standardized rational CDF and the normal CDF,
    at both one-sided limits of every jump."""
    worst = 0.0
    cdf = Fraction(0)
    for k in sorted(pmf):
        target = cltlab.norm_cdf((k - mean) / std)
        worst = max(worst, abs(float(cdf) - target))
        cdf += pmf[k]
        worst = max(worst, abs(float(cdf) - target))
    return worst


def pmf_tails(pmf, mean, std, x):
    """(P(Z >= x), P(Z <= -x)) for the standardized law, summed as Fractions."""
    zs = [((k - mean) / std, p) for k, p in pmf.items()]
    upper = sum((p for z, p in zs if z >= x), Fraction(0))
    lower = sum((p for z, p in zs if z <= -x), Fraction(0))
    return float(upper), float(lower)


def tail_budget(n, r, x):
    """(bound, branch) of the paper's sub-Gaussian tail budget at x > 0, with
    the split T = n^((r+1)/(6(r+2))) / log n formed through exp and log:
    1.5 e^(-x^2/2) ("gauss") for x <= T, 1.5 e^(-T x/2) ("linear") above."""
    log_n = math.log(n)
    split = math.exp(log_n * (r + 1) / (6 * (r + 2))) / log_n
    if x <= split:
        return 1.5 * math.exp(-0.5 * x**2), "gauss"
    return 1.5 * math.exp(-0.5 * split * x), "linear"


def pmf_mgf(pmf, mean, std, theta):
    """sum_k pmf[k] exp((k - mean) theta / std), each pmf[k] rounded once."""
    return math.fsum(float(p) * math.exp((k - mean) * theta / std) for k, p in pmf.items())
