"""Product-form reference for the u = 1 row sums of the partition tables.

An unpacked big-integer knapsack: it multiplies the truncated series by
(1 + z^j)^gap(j) one factor at a time, expanding each factor by generalized
binomials.  It shares no step with the log-derivative recurrence of
partition._univariate_totals, so the two agreeing is an independent check
of the row sums.  With absolute=True it takes |c| for every binomial, so it
gives the coefficients of the majorant prod_j (1 + z^j)^gap or (1 - z^j)^gap
(gap < 0) that bounds the digit width.
"""

from divpart.partition import _expansion_terms


def knapsack_totals(gaps, n_max, absolute=False):
    """z^n coefficients, n = 0..n_max, of prod_j (1 + z^j)^gaps[j-1], or
    with absolute of the majorant."""
    tot = [0] * (n_max + 1)
    tot[0] = 1
    for j in range(1, n_max + 1):
        d = gaps[j - 1]
        if d == 0:
            continue
        terms = [(abs(c) if absolute else c, m) for c, m in _expansion_terms(d, j, n_max)]
        for n in range(n_max, j - 1, -1):
            acc = tot[n]
            for c, m in terms:
                if j * m > n:
                    break
                acc += c * tot[n - j * m]
            tot[n] = acc
    return tot
