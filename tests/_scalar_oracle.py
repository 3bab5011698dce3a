"""Scalar reference loops for the vectorised float layers.

These are the per-term Python loops the numpy kernels replaced: every
k-sum adds one term at a time with compensated (Kahan) accumulation under
the shared truncation rule, and every Euler product takes one factor per
prime.  Gaps come from the slow divisor-add sieve arith.sigma_r_table, so
nothing here shares code with the kernels or the pair sieve under test.
"""

import math
from functools import lru_cache

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


def minor_arc_log_ratio(tau, theta, u, r, k_cap=None):
    def summand(k, q):
        arg = 1.0 - 2.0 * u * q * (1.0 - math.cos(k * theta)) / (1.0 + u * q) ** 2
        return math.log(arg)

    return 0.5 * kahan_ksum(tau, r, summand, k_cap=k_cap)


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
