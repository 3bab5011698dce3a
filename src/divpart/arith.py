"""Exact multiplicative arithmetic: divisor power sums and their gaps,
Möbius/totient, Ramanujan sums, Dirichlet characters and their Gauss
sums.

Everything here is exact integer arithmetic except for character values,
which are tabulated complex roots of unity (CHARACTER_TOL = 1e-9 on the
character identities that verify checks).  A character is its modulus,
its values and whether it is principal; its primitive inducer, which no
production path reads, is found and held to the scale identity in
tests/test_arith.py.  Nothing is cached: every table is built by the call
that reads it, so concurrent callers share no state.  sigma_r has two
exact sources: the exact layers (GapSequence, hence the partition tables)
read the pure-Python divisor-add sieve sigma_r_table, and the numpy
layers read windows lo..limit of one pair sieve (divisor_sum_sieve):
exact ones (sigma_window) in the k-sum kernel, float64 ones in the
shifted divisor series of dirichlet.  No window is kept.

numpy is imported inside the functions that use it, so the exact layers
(GapSequence, factorization, Ramanujan sums) load without it.  Every sum
over characters or units is an elementwise product summed along one axis,
never a matrix product: the tables are tiny, and the buffers of a first
BLAS call take more memory than all of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product as _iproduct
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

TWO_PI = 2.0 * math.pi

#: Largest modulus for which the full character group is enumerated.
CHARACTER_MODULUS_LIMIT = 200

#: Trial-division workspace guard: inputs above this raise instead of stalling.
FACTORIZATION_LIMIT = 10**14

#: Numeric tolerance for identities between tabulated character values.
CHARACTER_TOL = 1e-9

#: Default prime cutoff of the Euler products (and of the CLI's --prime-cutoff).
DEFAULT_PRIME_CUTOFF = 10**6

#: Largest --prime-cutoff the CLI takes.  No product sieves past the prime
#: where its factors round to 1.0 (6.9*10^5 at most, over every CLI input),
#: so a cutoff above that only shrinks the tail bounds it prints.
PRIME_CUTOFF_LIMIT = 10**8


# ---------------------------------------------------------------------------
# Primes and factorization
# ---------------------------------------------------------------------------

def odd_sieve(limit: int) -> np.ndarray:
    """The Eratosthenes sieve of the primes <= limit over the odd numbers: a
    numpy boolean array whose entry i stands for 2i + 1, except entry 0,
    which stands for 2; an entry is set when its number is prime.
    sieve_primes reads the numbers back."""
    import numpy as np

    if limit < 2:
        return np.zeros(0, dtype=bool)
    odd = np.ones((limit + 1) // 2, dtype=bool)
    for i in range(1, (math.isqrt(limit) - 1) // 2 + 1):
        if odd[i]:
            p = 2 * i + 1
            odd[p * p // 2 :: p] = False
    return odd


def sieve_primes(odd: np.ndarray, lo: int = 0, hi: int | None = None) -> np.ndarray:
    """The primes that entries lo..hi-1 of an odd_sieve array stand for, in
    increasing order, as an integer array."""
    import numpy as np

    # one index array, made odd in place, with no copy
    primes = np.flatnonzero(odd[lo:hi])
    primes += lo
    primes *= 2
    primes += 1
    if primes.size and primes[0] == 1:  # entry 0, which stands for 2
        primes[0] = 2
    return primes


def prime_sieve(limit: int) -> np.ndarray:
    """All primes <= limit as an integer array (odd_sieve read whole)."""
    return sieve_primes(odd_sieve(limit))


def primes_up_to(limit: int) -> list[int]:
    """All primes <= limit, as Python ints (prime_sieve as a list)."""
    return prime_sieve(limit).tolist()


def factorize(n: int) -> list[tuple[int, int]]:
    """(prime, exponent) pairs of n >= 1 in increasing prime order."""
    if n < 1:
        raise ValueError("factorize requires n >= 1")
    if n > FACTORIZATION_LIMIT:
        raise ValueError(f"input {n} exceeds factorization workspace limit")
    out = []
    m = n
    for p in (2, 3):
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e))
    # remaining factors are coprime to 6; step the 6k +/- 1 wheel
    d = 5
    while d * d <= m:
        for q in (d, d + 2):
            if m % q == 0:
                e = 0
                while m % q == 0:
                    m //= q
                    e += 1
                out.append((q, e))
        d += 6
    if m > 1:
        out.append((m, 1))
    return out


def multiplicative_basics(n: int) -> tuple[int, int]:
    """(mu(n), phi(n)) from the factorization of n."""
    fac = factorize(n)
    mu = 0 if any(e > 1 for _, e in fac) else (-1) ** len(fac)
    phi = 1
    for p, e in fac:
        phi *= p ** (e - 1) * (p - 1)
    return mu, phi


def mobius(n: int) -> int:
    return multiplicative_basics(n)[0]


def euler_phi(n: int) -> int:
    return multiplicative_basics(n)[1]


def divisors(n: int) -> list[int]:
    """All divisors of n, sorted increasing."""
    divs = [1]
    for p, e in factorize(n):
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


def mu_phi_tables(limit: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """mu[0..limit] and phi[0..limit] by a linear sieve (bulk workloads);
    each call sieves afresh, so its tables are freed with the caller's."""
    mu = [0] * (limit + 1)
    phi = [0] * (limit + 1)
    smallest = [0] * (limit + 1)
    primes: list[int] = []
    if limit >= 1:
        mu[1] = 1
        phi[1] = 1
    for i in range(2, limit + 1):
        if smallest[i] == 0:
            smallest[i] = i
            primes.append(i)
            mu[i] = -1
            phi[i] = i - 1
        for p in primes:
            ip = i * p
            if p > smallest[i] or ip > limit:
                break
            smallest[ip] = p
            if i % p == 0:
                mu[ip] = 0
                phi[ip] = phi[i] * p
                break
            mu[ip] = -mu[i]
            phi[ip] = phi[i] * (p - 1)
    return tuple(mu), tuple(phi)


# ---------------------------------------------------------------------------
# Divisor power sums and the gap sequence
# ---------------------------------------------------------------------------

def sigma_r(n: int, r: int) -> int:
    """Sum of the r-th powers of the divisors of n, exactly."""
    if n < 1 or r < 1:
        raise ValueError("sigma_r requires n >= 1 and r >= 1")
    total = 1
    for p, e in factorize(n):
        pr = p**r
        total *= (pr ** (e + 1) - 1) // (pr - 1)
    return total


def sigma_r_table(limit: int, r: int) -> list[int]:
    """sigma_r(0..limit) (entry 0 is 0) as exact Python ints via the
    divisor-add sieve; the sigma source of GapSequence, so the exact
    layers never load numpy."""
    table = [0] * (limit + 1)
    for d in range(1, limit + 1):
        dr = d**r
        for m in range(d, limit + 1, d):
            table[m] += dr
    return table


_SIEVE_CHUNK = 1 << 14


def divisor_sum_sieve(r: int, limit: int, dtype, lo: int = 0) -> np.ndarray:
    """sigma_r(lo..limit) as a read-only dtype array whose entry i is
    sigma_r(lo + i) (sigma_r(0) is 0); lo = 0 gives the full table.

    Every n = d e with d <= e is reached once from d <= sqrt(limit), which
    adds d^r + e^r over its cofactors e in the window through strided
    views, at most _SIEVE_CHUNK cofactors at a time so the temporaries stay
    small beside the table; at n = d^2 the pair sum 2 d^r is added and d^r
    taken off again.  Each entry sees the same operations in the same
    (d-ascending) order whatever the window, so a window equals that slice
    of the full table bit for bit, in float dtypes too, which round once a
    power or sum passes 2^53.
    """
    import numpy as np

    arr = np.zeros(limit + 1 - lo, dtype=dtype)
    root = math.isqrt(limit)
    powers = np.arange(root + 1, dtype=dtype)
    powers **= r
    for d in range(1, root + 1):
        dr = powers[d]
        first = max(d, -(-lo // d))  # the smallest cofactor e with d e >= lo
        top = limit // d
        for e in range(first, top + 1, _SIEVE_CHUNK):
            pair = np.arange(e, min(e + _SIEVE_CHUNK, top + 1), dtype=dtype)
            pair **= r
            pair += dr
            arr[d * e - lo : d * (e + len(pair)) - lo : d] += pair
        if d * d >= lo:
            arr[d * d - lo] -= dr
    arr.flags.writeable = False
    return arr


def sigma_window(r: int, lo: int, hi: int) -> np.ndarray:
    """Exact sigma_r(lo..hi) from divisor_sum_sieve, read-only: int64 where
    every entry and partial sum provably fits (below 2 hi^r for r >= 2, as
    sigma_r(n) < zeta(2) n^r; below hi (1 + ln hi) for r = 1), else object
    (Python ints)."""
    import numpy as np

    fits = hi * (1.0 + math.log(hi)) < 2.0**63 if r == 1 else 2 * hi**r < 2**63
    return divisor_sum_sieve(r, hi, np.int64 if fits else object, lo=lo)


@dataclass(frozen=True)
class GapSequence:
    """The signed first differences of sigma_r on 1..limit+1.

    gaps[k-1] = sigma_r(k+1) - sigma_r(k); the sequence changes sign
    (first negative entry for r=2 is at k=10).
    """

    r: int
    limit: int
    gaps: tuple[int, ...]    # gaps[i] = sigma_r(i+2) - sigma_r(i+1), i = 0..limit-1

    @classmethod
    def build(cls, r: int, limit: int) -> "GapSequence":
        if r < 1 or limit < 1:
            raise ValueError("GapSequence requires r >= 1 and limit >= 1")
        sig = sigma_r_table(limit + 1, r)[1:]
        return cls(r=r, limit=limit, gaps=tuple(b - a for a, b in zip(sig, sig[1:])))


# ---------------------------------------------------------------------------
# Ramanujan sums
# ---------------------------------------------------------------------------

def ramanujan_sum(m: int, n: int) -> int:
    """c_m(n) by the closed form mu(q) * phi(m) / phi(q), q = m / gcd(m, n).

    One factorization of m gives both: c_m(n) = 0 unless q is squarefree,
    and then phi(m) / phi(q) is the product of p^(e-1) over p^e || m, times
    p - 1 for each p that does not divide q.  Always an integer; the
    exponential sum is kept only as an oracle (see
    ramanujan_sum_exponential).
    """
    if m < 1 or n < 1:
        raise ValueError("ramanujan_sum requires m >= 1 and n >= 1")
    q = m // math.gcd(m, n)
    mu_q = 1
    ratio = 1
    for p, e in factorize(m):
        if q % p:
            ratio *= p ** (e - 1) * (p - 1)
        elif q % (p * p):
            ratio *= p ** (e - 1)
            mu_q = -mu_q
        else:
            return 0
    return mu_q * ratio


def ramanujan_sum_exponential(m: int, n):
    """c_m(n) as the direct exponential sum of e(b n / m) over the units b
    mod m.  n is an int (returns a complex) or an array of ints (returns a
    complex array, one sum per entry, from one units x n phase matrix).

    n is reduced mod m in exact integers first, so no size of n can
    overflow the phases.
    """
    import numpy as np

    reduced = (np.atleast_1d(np.asarray(n)) % m).astype(np.int64)
    units = _units(m)
    sums = _unit_roots(units[:, None] * reduced % m, m).sum(axis=0)
    return complex(sums[0]) if np.ndim(n) == 0 else sums


def ramanujan_weighted_partial(ns: list[int], m_limit: int, r: int) -> list[float]:
    """Truncated sums over m <= m_limit of c_m(n) / m^(r+1), one per n in ns.

    Regrouped exactly through the divisor form of c_m(n):
    sum_{d | n} d^(-r) * sum_{t <= m_limit/d} mu(t)/t^(r+1),
    which is the same finite sum evaluated in O(d(n)) lookups into one
    table of prefix sums of mu(t)/t^(r+1), built once per call.
    """
    mu, _ = mu_phi_tables(m_limit)
    prefix = [0.0] * (m_limit + 1)
    acc = 0.0
    for t in range(1, m_limit + 1):
        if mu[t]:
            acc += mu[t] / t ** (r + 1)
        prefix[t] = acc
    return [
        math.fsum(prefix[m_limit // d] / d**r for d in divisors(n) if m_limit // d >= 1)
        for n in ns
    ]


# ---------------------------------------------------------------------------
# Dirichlet characters
# ---------------------------------------------------------------------------

def _unit_roots(phase: np.ndarray, den: int) -> np.ndarray:
    """e(phase/den) entrywise for an integer array of reduced phases: the
    one evaluation of e(x) = exp(2 pi i x) in the package."""
    import numpy as np

    return np.exp(TWO_PI * 1j * (phase / den))


def _units(m: int) -> np.ndarray:
    """The residues 0 <= b < m coprime to m (just 0 for m = 1)."""
    import numpy as np

    return np.flatnonzero(np.gcd(np.arange(m), m) == 1)


def _order_mod(g: int, q: int, bound: int) -> int:
    acc = g % q
    for t in range(1, bound + 1):
        if acc == 1:
            return t
        acc = acc * g % q
    return 0


def _component_structure(p: int, e: int) -> tuple[list[int], dict[int, tuple[int, ...]]]:
    """Cyclic-factor orders of (Z/p^e)* and discrete logs of every unit."""
    q = p**e
    if q <= 2:
        return [], {1 % q: ()}
    if p == 2 and e == 2:
        return [2], {1: (0,), 3: (1,)}
    if p == 2:
        # (Z/2^e)* = <-1> x <3> for e >= 3
        orders = [2, 2 ** (e - 2)]
        logs: dict[int, tuple[int, ...]] = {}
        for sgn in (0, 1):
            base = q - 1 if sgn else 1
            acc = base % q
            for t in range(2 ** (e - 2)):
                logs[acc] = (sgn, t)
                acc = acc * 3 % q
        return orders, logs
    phi = q // p * (p - 1)
    g = 0
    for cand in range(2, q):
        if cand % p == 0:
            continue
        if _order_mod(cand, q, phi) == phi:
            g = cand
            break
    logs = {}
    acc = 1
    for t in range(phi):
        logs[acc] = (t,)
        acc = acc * g % q
    return [phi], logs


@dataclass(frozen=True)
class DirichletCharacter:
    """Tabulated Dirichlet character: values[a] = chi(a), zero off units."""

    modulus: int
    values: tuple[complex, ...]
    is_principal: bool


def characters_mod(m: int) -> tuple[DirichletCharacter, ...]:
    """All phi(m) Dirichlet characters mod m, principal first.

    Built from the unit-group decomposition into cyclic factors of orders
    d_c with brute-force generator search (fine for the limit
    m <= 200).  Character k sends the unit with discrete logs t to
    e(phase / E), E = lcm(d_c), where phase = sum_c k_c t_c (E / d_c) mod E
    is an exact integer; one exp call evaluates the whole phase matrix.
    """
    import numpy as np

    if m < 1:
        raise ValueError("characters_mod requires m >= 1")
    if m > CHARACTER_MODULUS_LIMIT:
        raise ValueError(
            f"modulus {m} exceeds character enumeration limit {CHARACTER_MODULUS_LIMIT}"
        )
    if m == 1:
        return (DirichletCharacter(1, (complex(1.0),), True),)

    comps = factorize(m)
    structures = [_component_structure(p, e) for p, e in comps]
    orders = [d for comp_orders, _ in structures for d in comp_orders]
    units = _units(m)
    # discrete-log vector of every unit mod m, via CRT components
    logs = np.array(
        [[t for (p, e), (_, comp_logs) in zip(comps, structures) for t in comp_logs[a % p**e]]
         for a in units.tolist()],
        dtype=np.int64,
    ).reshape(len(units), len(orders))
    index = np.array(
        list(_iproduct(*(range(d) for d in orders))), dtype=np.int64
    ).reshape(math.prod(orders), len(orders))
    exponent = math.lcm(*orders)
    phase = np.zeros((len(index), len(units)), dtype=np.int64)
    for c, d in enumerate(orders):  # at most three cyclic components
        phase += np.multiply.outer(index[:, c] * (exponent // d), logs[:, c])
    phase %= exponent

    values = np.zeros((len(index), m), dtype=complex)
    values[:, units] = _unit_roots(phase, exponent)
    return tuple(
        DirichletCharacter(m, tuple(vals), not ks.any())
        for vals, ks in zip(values.tolist(), index)
    )


def gauss_sum(chi: DirichletCharacter, n: int) -> complex:
    """c_chi(n) = sum of chi(b) e(bn/m) over the units b mod m; tau(chi) =
    c_chi(1).

    A character vanishes off the units, so the sum over all residues and
    the one restricted to gcd(b, m) = 1 (c'_chi) drop only zero terms:
    c'_chi = c_chi, term for term.  n is reduced mod m in exact integers
    first, so no size of n can overflow the phases.
    """
    import numpy as np

    m = chi.modulus
    units = _units(m)
    return complex((np.array(chi.values)[units] * _unit_roots(units * (n % m) % m, m)).sum())


def shifted_identity_max_residual(m_max: int, n_max: int) -> float:
    """Max residual of the shifted-sum identity over 1 <= m <= m_max,
    1 <= n <= n_max.

    Per modulus, with V the non-principal character values on the units b:
    tau = V e(b/m), G(b) = sum over chi of tau(chi) conj(chi(b)) = tau
    conj(V), and every n at once as the rows of the phase matrix
    e(b n / m) times G, each summed over b.
    """
    import numpy as np

    worst = 0.0
    for m in range(1, m_max + 1):
        phi = euler_phi(m)
        units = _units(m)
        closed = np.array([ramanujan_sum(m, n) for n in range(1, n_max + 2)], dtype=float)
        rhs = mobius(m) / phi * closed[:-1]
        nonprincipal = [chi.values for chi in characters_mod(m) if not chi.is_principal]
        if nonprincipal:
            v = np.array(nonprincipal)[:, units]
            tau = (v * _unit_roots(units, m)).sum(axis=1)
            g_vec = (tau[:, None] * v.conj()).sum(axis=0)
            n_mod = np.arange(1, n_max + 1) % m
            rhs = rhs + (_unit_roots(n_mod[:, None] * units % m, m) * g_vec).sum(axis=1) / phi
        worst = max(worst, float(np.abs(closed[1:] - rhs).max(initial=0.0)))
    return worst
