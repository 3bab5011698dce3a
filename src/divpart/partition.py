"""Exact bivariate coefficient tables for the weighted-part product

    prod over k >= 1 of (1 + u z^k)^(gap(k)),   gap(k) = sigma_r(k+1) - sigma_r(k),

truncated to z-degree <= n_max, together with the exact distribution of the
part count and two independent brute-force oracles.

Negative gaps are handled by the generalized binomial expansion of
(1 + u z^k)^d for d < 0; all coefficients stay integers.  The fast builder
packs each z-row's u-polynomial into a single big integer with balanced
base-2^L digits (Kronecker substitution).  It applies the commuting
factors largest part first: while factor j is applied, every part present
is >= j, so row n holds at most n/j digits and rows 1..j-1 are still zero.
Rows keep their digits in reversed order, highest u-power lowest, aligned
so that each expansion term is one shift-free multiply-add, until the
padding that this alignment needs outgrows the row; then every row is
flipped once to the standard order.  Terms never read the rows known to
be zero, and a factor whose |gap| is small is applied as single-term
sweeps (an add per row).  The digit width comes from the exact
coefficients of an absolute-value majorant, and every row sum is checked
against the u = 1 series; one log-derivative recurrence computes both
series, so no digit can overflow unnoticed.

The module is arithmetic only: it formats no text (the table export is
divpart.cli's) and changes no interpreter setting.  Only the exact
statistics (exact_distribution, ExactDistribution.negative_mass) import
fractions, so a process that builds no law, verify among them, loads
neither it nor the decimal module it pulls in.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from operator import mul
from typing import TYPE_CHECKING

from .arith import GapSequence

if TYPE_CHECKING:
    from fractions import Fraction


def general_binomial(d: int, m: int) -> int:
    """Binomial coefficient C(d, m) for any integer d and m >= 0."""
    if m < 0:
        raise ValueError("lower index must be >= 0")
    if m == 0:
        return 1
    if d >= 0:
        return math.comb(d, m) if m <= d else 0
    sign = -1 if m & 1 else 1
    return sign * math.comb(-d + m - 1, m)


def _expansion_terms(d: int, j: int, n_max: int) -> list[tuple[int, int]]:
    """Nonconstant terms (coefficient, u- and z^j-multiplicity) of
    (1 + u z^j)^d truncated to z-degree n_max."""
    m_cap = n_max // j
    if d > 0:
        m_cap = min(m_cap, d)
    return [(general_binomial(d, m), m) for m in range(1, m_cap + 1)]


@dataclass
class PartitionTable:
    """Triangular table coeff[n][k] of exact signed big-integer coefficients.

    row_totals[n] is the full row sum (the z^n coefficient at u = 1),
    cross-checked against an independent univariate build.
    """

    r: int
    n_max: int
    coeff: list[list[int]]
    row_totals: list[int]


def _digit_bits(gaps: tuple[int, ...], n_max: int) -> int:
    """Bit width L such that every intermediate coefficient fits a balanced
    base-2^L digit.

    Every partial product's |coefficient of z^n u^k|, in any factor order,
    sweep by sweep, is at most the z^n coefficient G_n of the majorant
        G = prod_{gap>0} (1+z^j)^gap * prod_{gap<0} (1-z^j)^gap,
    whose coefficients are nonnegative and dominate those of every partial
    product of its factors.  G_n is computed exactly, so L is the bit length
    of max G_n plus a sign bit, rounded up to whole bytes, at least 32.
    """
    bits = max(_log_derivative_series(gaps, n_max, majorant=True)).bit_length() + 1
    # whole bytes, so _unpack_row and _flip read the digits straight from to_bytes
    return -(-max(32, bits) // 8) * 8


def _offset_bytes(packed: int, bits: int, slots: int) -> tuple[bytes, int]:
    """packed plus an offset of half = 2^(bits-1) in each of `slots`
    balanced base-2^bits digit slots, as little-endian bytes, and that
    offset; bits is a whole number of bytes.

    The offset turns each digit d in [-half, half) into d + half in
    [0, 2^bits), so one to_bytes call lays out every digit in linear time.
    What does not fit the slots, which only a too-narrow width leaves, is
    cut off, and the build's row-sum check then fails.
    """
    size = bits * slots
    offset = int.from_bytes((1 << (bits - 1)).to_bytes(bits // 8, "little") * slots, "little")
    return ((packed + offset) & ((1 << size) - 1)).to_bytes(size // 8, "little"), offset


def _unpack_row(packed: int, bits: int) -> list[int]:
    """Balanced base-2^bits digits of packed (signed coefficients), lowest
    first, without trailing zeros; bits is a whole number of bytes.  The
    slots cover packed's bit length plus two bits, so nothing is cut off."""
    width, half = bits // 8, 1 << (bits - 1)
    raw, _ = _offset_bytes(packed, bits, (packed.bit_length() + 2 + bits - 1) // bits)
    out = [int.from_bytes(raw[i : i + width], "little") - half for i in range(0, len(raw), width)]
    while out and out[-1] == 0:
        out.pop()
    return out if out else [0]


def _flip(packed: int, bits: int, top: int) -> int:
    """packed with its top + 1 balanced base-2^bits digits in reverse order
    (the digit in slot k moves to slot top - k); bits is a whole number of
    bytes.  Its own inverse."""
    width = bits // 8
    raw, offset = _offset_bytes(packed, bits, top + 1)
    slots = [raw[i - width : i] for i in range(len(raw), 0, -width)]
    return int.from_bytes(b"".join(slots), "little") - offset


def _log_derivative_series(gaps: tuple[int, ...], n_max: int, majorant: bool = False) -> list[int]:
    """z^n coefficients c_n, n <= n_max, of prod_j (1 + z^j)^gap(j), or with
    majorant of G (see _digit_bits), by the log-derivative recurrence
    n c_n = sum_{N <= n} B_N c_{n-N}.  Here B_N = sum_{j | N} j gap(j) s with
    s = (-1)^(N/j + 1), except s = -1 for the majorant's (1 - z^j)^gap,
    gap < 0.  No binomials, no factor-by-factor product; every division is
    checked to be exact."""
    b = [0] * (n_max + 1)
    for j in range(1, n_max + 1):
        jd = j * gaps[j - 1]
        odd = abs(jd) if majorant else jd
        for m, N in enumerate(range(j, n_max + 1, j), start=1):
            b[N] += odd if m & 1 else -jd
    c = [1] + [0] * n_max
    for n in range(1, n_max + 1):
        q, rem = divmod(sum(map(mul, b[1 : n + 1], reversed(c[:n]))), n)
        if rem:
            raise RuntimeError(f"log-derivative recurrence: inexact division at n = {n}")
        c[n] = q
    return c


def build_table(
    r: int,
    n_max: int,
    factor_order: list[int] | None = None,
) -> PartitionTable:
    """Exact coefficients of the truncated product, factors in any order.

    The default order is n_max, ..., 1.  The product commutes, so any order
    gives the same table, but largest-first keeps the rows short: when
    factor j is applied, row n has u-degree <= n/j.  Memory is one packed
    integer per z-degree.

    Layouts.  While the factors descend, row n keeps its u^k digit in slot
    top(n) - k with top(n) = n // j, j the factor being applied.  Then
    top(n) - top(n - mj) = m, so the expansion term c u^m z^(mj) is the
    shift-free multiply-add rows[n] += c * rows[n - mj]; between factors
    only the rows whose n // j grew are shifted up.  Every row is flipped
    once to the standard layout (u^k digit in slot k, term shifted by m
    digits) at the first factor larger than the one before it, or when on
    row n_max the new top would exceed its u-degree by more than half its
    digit count (padding that the multiplies would carry).

    Work skipped.  Rows 1..lo-1 are zero, lo the smallest factor applied so
    far, so a term reads only sources n - mj >= lo, and row 0's term (the
    bare coefficient) is added once per factor.  When |gap(j)| <= n_max // j,
    that is, at most the number of expansion terms, the factor is |gap(j)|
    single-term sweeps instead: multiply by 1 + u z^j with n descending,
    or divide by it with n ascending, each an add per row and no
    multiplication.

    The arithmetic is exact integer linear algebra, so only the final
    digits must fit the width of _digit_bits (its exact majorant also bounds
    every partial product that _flip reads); every row sum must equal the
    u = 1 coefficient from _log_derivative_series, an independent recurrence.
    """
    if r < 1 or n_max < 0:
        raise ValueError("build_table requires r >= 1 and n_max >= 0")
    gaps = GapSequence.build(r, max(n_max, 1)).gaps
    order = list(factor_order) if factor_order is not None else list(range(n_max, 0, -1))
    if sorted(order) != list(range(1, n_max + 1)):
        raise ValueError("factor_order must be a permutation of 1..n_max")

    bits = _digit_bits(gaps, n_max)
    rows = [0] * (n_max + 1)
    rows[0] = 1
    standard = False
    lo = n_max + 1  # rows 1..lo-1 are zero; reversed, factors descend: top(n) = n // lo
    for j in order:
        d = gaps[j - 1]
        if d == 0:
            continue
        if not standard:
            # flip at an ascent, or when row n_max would pad more than it holds
            last = rows[n_max]
            deg = n_max // lo - ((last & -last).bit_length() - 1) // bits
            standard = j > lo or (last != 0 and 2 * (n_max // j - deg) > deg + 1)
            for n in range(lo, n_max + 1):
                if standard:
                    rows[n] = _flip(rows[n], bits, n // lo)
                elif lift := n // j - n // lo:
                    rows[n] <<= bits * lift
        step = bits if standard else 0  # one u digit; x << 0 would copy x
        if abs(d) <= n_max // j:
            first = min(lo, j)
            for _ in range(d):
                for n in range(n_max, first + j - 1, -1):
                    rows[n] += rows[n - j] << step if step else rows[n - j]
                rows[j] += 1 << step
            for _ in range(-d):
                rows[j] -= 1 << step
                for n in range(first + j, n_max + 1):
                    rows[n] -= rows[n - j] << step if step else rows[n - j]
        else:
            shifted = [(c, step * m, j * m) for c, m in _expansion_terms(d, j, n_max)]
            for n in range(n_max, lo + j - 1, -1):
                acc, reach = rows[n], n - lo
                for c, shift, dz in shifted:
                    if dz > reach:
                        break
                    acc += (c * rows[n - dz]) << shift if shift else c * rows[n - dz]
                rows[n] = acc
            for c, shift, dz in shifted:
                rows[dz] += c << shift
        lo = min(lo, j)
    if not standard:
        rows = [_flip(row, bits, n // lo) for n, row in enumerate(rows)]

    coeff = [_unpack_row(rows[n], bits) for n in range(n_max + 1)]
    row_totals = _log_derivative_series(gaps, n_max)
    if [sum(row) for row in coeff] != row_totals:
        raise RuntimeError(
            "packed rows disagree with the univariate specialization; "
            "digit-width bound violated"
        )
    return PartitionTable(r=r, n_max=n_max, coeff=coeff, row_totals=row_totals)


def permuted_build_matches(r: int, n_max: int) -> bool:
    """Factor-permutation invariance: 5 shuffled factor orders, from
    random.Random(0), give the same table."""
    base = build_table(r, n_max)
    rng = random.Random(0)
    order = list(range(1, n_max + 1))
    for _ in range(5):
        rng.shuffle(order)
        if build_table(r, n_max, factor_order=order).coeff != base.coeff:
            return False
    return True


# ---------------------------------------------------------------------------
# Brute-force oracles
# ---------------------------------------------------------------------------

@dataclass
class OracleTables:
    """Results of the two independent oracle builds.

    naive reaches n_max; enumeration reaches the last n <= n_max whose gaps
    are all >= 0 (the distinguishable-copy reading requires nonnegative
    multiplicities), which is its own n_max.
    """

    enumeration: PartitionTable
    naive: PartitionTable


def _enumeration_table(r: int, n_max: int, gaps: tuple[int, ...]) -> PartitionTable:
    # one 0/1 item per distinguishable copy of each part size
    items = [j for j in range(1, n_max + 1) for _ in range(gaps[j - 1])]
    dp = [[0] * (n_max + 1) for _ in range(n_max + 1)]
    dp[0][0] = 1
    for w in items:
        for n in range(n_max, w - 1, -1):
            prev = dp[n - w]
            row = dp[n]
            for k in range(n_max, 0, -1):
                if prev[k - 1]:
                    row[k] += prev[k - 1]
    coeff = [list(_trim(dp[n])) for n in range(n_max + 1)]
    return PartitionTable(r=r, n_max=n_max, coeff=coeff, row_totals=[sum(row) for row in coeff])


def _trim(row: list[int]) -> list[int]:
    last = 0
    for i, v in enumerate(row):
        if v:
            last = i
    return row[: last + 1]


def _poly_mul_linear(poly: dict[tuple[int, int], int], j: int, n_max: int) -> dict:
    out = dict(poly)
    for (n, k), c in poly.items():
        if n + j <= n_max:
            key = (n + j, k + 1)
            out[key] = out.get(key, 0) + c
    return out


def _poly_mul_inverse(poly: dict[tuple[int, int], int], j: int, n_max: int) -> dict:
    # multiply by the truncated series (1 + u z^j)^(-1) = sum (-u)^m z^(jm)
    out: dict[tuple[int, int], int] = {}
    for (n, k), c in poly.items():
        m = 0
        while n + j * m <= n_max:
            key = (n + j * m, k + m)
            sign = -c if m & 1 else c
            out[key] = out.get(key, 0) + sign
            m += 1
    return {key: c for key, c in out.items() if c}


def _naive_table(r: int, n_max: int, gaps: tuple[int, ...]) -> PartitionTable:
    poly: dict[tuple[int, int], int] = {(0, 0): 1}
    for j in range(n_max, 0, -1):  # reversed factor order on purpose
        d = gaps[j - 1]
        if d > 0:
            for _ in range(d):
                poly = _poly_mul_linear(poly, j, n_max)
        elif d < 0:
            for _ in range(-d):
                poly = _poly_mul_inverse(poly, j, n_max)
    coeff: list[list[int]] = [[0] for _ in range(n_max + 1)]
    for (n, k), c in poly.items():
        row = coeff[n]
        if len(row) <= k:
            row.extend([0] * (k + 1 - len(row)))
        row[k] = c
    coeff = [_trim(row) for row in coeff]
    return PartitionTable(r=r, n_max=n_max, coeff=coeff, row_totals=[sum(row) for row in coeff])


def oracle_table(r: int, n_max: int) -> OracleTables:
    """Two independent slow builds for equality testing against build_table.

    (a) 0/1 take-or-skip counting over distinguishable part copies, which
    never touches binomial coefficients; (b) naive polynomial multiplication
    in reversed factor order, one linear (or truncated inverse-series)
    factor at a time.
    """
    if n_max > 14:
        raise ValueError("oracle_table is exponential-cost; n_max <= 14")
    gaps = GapSequence.build(r, max(n_max, 1)).gaps
    reach = next((n for n, g in enumerate(gaps) if g < 0), n_max)
    return OracleTables(
        enumeration=_enumeration_table(r, reach, gaps),
        naive=_naive_table(r, n_max, gaps),
    )


def tables_equal(a: PartitionTable, b: PartitionTable) -> bool:
    """Exact equality of two tables, cell by cell: every builder and oracle
    trims trailing zeros from its rows (a zero row is [0])."""
    return a.n_max == b.n_max and a.coeff == b.coeff


# ---------------------------------------------------------------------------
# Exact distribution of the part count
# ---------------------------------------------------------------------------

class RowRefused(ValueError):
    """A row that cannot be read as a probability law (a vanishing row
    total here; cltlab's gate raises it for the rows it refuses)."""


@dataclass(frozen=True)
class ExactDistribution:
    """Exact law of the part count on the weight-n row: P(X = k) is
    cells[k] / total, whatever the signs, so every statistic is an integer
    sum over the cells divided by the total once.  Rows with negative cells
    are flagged and excluded from probabilistic downstream checks rather
    than rejected here.
    """

    n: int
    cells: tuple[int, ...]
    total: int
    mean: Fraction
    variance: Fraction

    @property
    def negativity_flags(self) -> list[int]:
        return [k for k, c in enumerate(self.cells) if c < 0]

    @property
    def negative_mass(self) -> Fraction:
        """Total signed defect: sum of |cells[k]| / |total| where cells[k] * total < 0."""
        from fractions import Fraction

        return Fraction(sum(abs(c) for c in self.cells if c * self.total < 0), abs(self.total))


def exact_distribution(table: PartitionTable, n: int) -> ExactDistribution:
    if not 0 <= n <= table.n_max:
        raise ValueError(f"n = {n} outside table range 0..{table.n_max}")
    total = table.row_totals[n]
    if total == 0:
        raise RowRefused(f"degenerate row: row total vanishes at n = {n}")
    cells = tuple(table.coeff[n])
    if sum(cells) != total:
        raise ValueError(
            "row is k-truncated (its cells do not sum to the row total); "
            "exact distribution needs the uncapped table"
        )
    from fractions import Fraction  # only the exact statistics need it

    first = sum(k * c for k, c in enumerate(cells))
    second = sum(k * k * c for k, c in enumerate(cells))
    return ExactDistribution(
        n=n,
        cells=cells,
        total=total,
        mean=Fraction(first, total),
        variance=Fraction(second * total - first * first, total * total),
    )
