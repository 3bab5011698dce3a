import json
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _knapsack_oracle import knapsack_totals
from divpart import partition
from divpart.arith import GapSequence
from divpart.partition import (
    build_table,
    exact_distribution,
    general_binomial,
    oracle_table,
    tables_equal,
)


def test_general_binomial():
    assert general_binomial(4, 2) == 6
    assert general_binomial(4, 5) == 0
    assert general_binomial(0, 0) == 1
    # (1+x)^(-8): alternating with rising magnitudes
    assert general_binomial(-8, 1) == -8
    assert general_binomial(-8, 2) == 36
    assert general_binomial(-8, 3) == -120
    with pytest.raises(ValueError):
        general_binomial(3, -1)


def test_hand_expansion_examples():
    # (1+uz)^4 (1+uz^2)^5 (1+uz^3)^11 truncated at z^3
    t = build_table(2, 3)
    assert t.value(0, 0) == 1
    assert t.value(1, 1) == 4
    assert t.value(2, 1) == 5
    assert t.value(2, 2) == 6       # C(4,2)
    assert t.value(3, 2) == 20      # 4*5
    assert t.value(3, 3) == 4       # C(4,3)
    assert t.value(3, 1) == 11


@pytest.mark.parametrize("r", [2, 3, 5])
def test_empty_product_cell(r):
    assert build_table(r, 1).value(0, 0) == 1


# r = 1 has gap(4) = -1, applied as one divide-by-(1 + u z^4) sweep
@pytest.mark.parametrize("r,n_max", [(2, 9), (2, 10), (2, 12), (3, 8), (3, 12),
                                     *((1, n) for n in range(13))])
def test_oracle_equivalence(r, n_max):
    built = build_table(r, n_max)
    oracles = oracle_table(r, n_max)
    assert tables_equal(built, oracles.naive)
    if oracles.enumeration is not None:
        assert tables_equal(built, oracles.enumeration)
    else:
        assert oracles.enumeration_refused is not None
        assert "< 0" in oracles.enumeration_refused


def test_enumeration_refusal_is_negative_gap_regime():
    oracles = oracle_table(2, 12)
    assert oracles.enumeration is None      # gap(10) = -8
    assert oracle_table(2, 9).enumeration is not None


def test_oracle_budget_guard():
    with pytest.raises(ValueError):
        oracle_table(2, 15)


def test_row_totals_match_bivariate_sums(table_r2_60):
    for n in range(61):
        assert sum(table_r2_60.coeff[n]) == table_r2_60.row_totals[n]


def test_factor_permutation_invariance():
    assert partition.permuted_build_matches(2, 40, trials=5, seed=20240817)


@pytest.mark.parametrize("r,n_max", [(2, 300), (3, 200)])
def test_largest_first_default_equals_ascending_order(r, n_max):
    default = build_table(r, n_max)
    ascending = build_table(r, n_max, factor_order=list(range(1, n_max + 1)))
    assert default.coeff == ascending.coeff
    assert default.row_totals == ascending.row_totals


@pytest.mark.parametrize("r", [2, 3])
def test_univariate_totals_match_naive_oracle_row_sums(r):
    for n_max in range(13):
        naive = oracle_table(r, n_max).naive
        gaps = GapSequence.build(r, max(n_max, 1)).gaps
        assert partition._log_derivative_series(gaps, n_max) == [sum(row) for row in naive.coeff]


@pytest.mark.parametrize("r", [2, 3, 5])
def test_univariate_totals_match_product_form_knapsack(r):
    gaps = GapSequence.build(r, 300).gaps
    assert partition._log_derivative_series(gaps, 300) == knapsack_totals(gaps, 300)


def test_univariate_totals_check_every_division():
    # (1 + z)^(1/2) has the non-integral coefficient 1/2 at z^1
    with pytest.raises(RuntimeError, match="inexact division at n = 1"):
        partition._log_derivative_series((Fraction(1, 2),), 1)


def test_doubling_cost_guard():
    def best_time(n_max):
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            build_table(2, n_max)
            best = min(best, time.perf_counter() - t0)
        return max(best, 1e-4)  # clock floor

    assert best_time(128) / best_time(64) <= 8.0


@pytest.mark.parametrize("r,n_max", [(12, 60), (16, 60), (24, 40), (40, 30), (200, 30),
                                     (300, 30), (400, 30), (1000, 20), (2000, 5), (5000, 10)])
def test_digit_width_stays_tight_for_large_r(r, n_max):
    # huge gaps make wide digits; the width must stay rigorous (the build's
    # row-sum check passes) and near the widest cell
    table = build_table(r, n_max)
    widest = max(abs(c).bit_length() for row in table.coeff for c in row)
    bits = partition._digit_bits(GapSequence.build(r, n_max).gaps, n_max)
    assert widest < bits <= 2 * widest + 64


@pytest.mark.parametrize("r,n_max,bits", [(2, 600, 288), (3, 350, 344), (40, 30, 1096)])
def test_digit_width_unchanged_at_small_r(r, n_max, bits):
    assert partition._digit_bits(GapSequence.build(r, n_max).gaps, n_max) == bits


@pytest.mark.parametrize("r", [2, 3, 5])
def test_majorant_matches_product_form_knapsack(r):
    gaps = GapSequence.build(r, 300).gaps
    majorant = partition._log_derivative_series(gaps, 300, majorant=True)
    assert majorant == knapsack_totals(gaps, 300, absolute=True)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_majorant_bounds_every_partial_product(r):
    # the naive oracle's steps, one linear or inverse factor at a time, in
    # shuffled orders: every row's sum of |c| stays within the majorant
    for n_max in (5, 12):
        gaps = GapSequence.build(r, n_max).gaps
        majorant = partition._log_derivative_series(gaps, n_max, majorant=True)
        rng = random.Random(r * 100 + n_max)
        for _ in range(3):
            order = list(range(1, n_max + 1))
            rng.shuffle(order)
            poly = {(0, 0): 1}
            for j in order:
                d = gaps[j - 1]
                step = partition._poly_mul_linear if d > 0 else partition._poly_mul_inverse
                for _ in range(abs(d)):
                    poly = step(poly, j, n_max)
                    mass = [0] * (n_max + 1)
                    for (n, _k), c in poly.items():
                        mass[n] += abs(c)
                    assert all(m <= g for m, g in zip(mass, majorant)), (order, j)


@pytest.mark.parametrize("r", [1, 2, 3, 4])
@pytest.mark.parametrize("n_max", [0, 1, 2, 5, 13, 40])
def test_any_factor_order_equals_default(r, n_max):
    default = build_table(r, n_max)
    shuffled = list(range(1, n_max + 1))
    random.Random(r * 100 + n_max).shuffle(shuffled)
    half = n_max // 2
    orders = {
        "ascending": list(range(1, n_max + 1)),
        "shuffled": shuffled,
        "late ascent": list(range(n_max, 2, -1)) + [1, 2][:n_max],  # 1, then 2 last
        "descend then ascend": list(range(n_max, half, -1)) + list(range(1, half + 1)),
    }
    for name, order in orders.items():
        built = build_table(r, n_max, factor_order=order)
        assert built.coeff == default.coeff, name
        assert built.row_totals == default.row_totals, name


@pytest.mark.parametrize("bits", [8, 16, 64, 200, 312, 360])
def test_flip_reverses_balanced_digits(bits):
    rng = random.Random(bits)
    half = 1 << (bits - 1)

    def pack(digits):
        return sum(d << (bits * i) for i, d in enumerate(digits))

    rows = [[0], [0] * 5, [-half], [half - 1, 0, -half], [0, 0, -1]]
    for _ in range(40):
        k = rng.randint(1, 30)
        digits = [rng.randrange(-half, half) for _ in range(k)]
        digits[-1] = -rng.randint(1, half)  # negative top digit
        zeros = rng.randint(0, k - 1) if rng.random() < 0.3 else 0
        rows.append([0] * zeros + digits[zeros:])
    for digits in rows:
        top = len(digits) - 1
        packed = pack(digits)
        flipped = partition._flip(packed, bits, top)
        assert flipped == pack(digits[::-1])
        assert partition._flip(flipped, bits, top) == packed


@pytest.mark.parametrize("order", ["default", "ascending"])
def test_too_narrow_width_fails_the_row_sum_check(monkeypatch, order):
    # the default order starts in the reversed layout; the ascending one
    # flips to the standard layout at its second factor
    monkeypatch.setattr(partition, "_digit_bits", lambda gaps, n_max: 8)
    factor_order = None if order == "default" else list(range(1, 41))
    with pytest.raises(RuntimeError, match="digit-width bound violated"):
        build_table(3, 40, factor_order=factor_order)


class TestExactDistribution:
    def test_single_cell_row(self):
        t = build_table(2, 1)
        d = exact_distribution(t, 1)
        assert d.pmf == {1: Fraction(1)}
        assert d.mean == 1 and d.variance == 0
        assert d.negativity_flags == [] and d.total_positive

    def test_two_cell_row(self):
        t = build_table(2, 2)
        d = exact_distribution(t, 2)
        assert d.pmf == {1: Fraction(5, 11), 2: Fraction(6, 11)}

    @given(st.integers(min_value=1, max_value=60))
    @settings(max_examples=30, deadline=None)
    def test_pmf_sums_to_one_exactly(self, n):
        t = _cached_table()
        d = exact_distribution(t, n)
        assert sum(d.pmf.values(), Fraction(0)) == 1

    def test_negativity_flags(self):
        t = build_table(2, 12)
        d = exact_distribution(t, 10)
        assert d.negativity_flags == [1]        # the weight-1 cell is gap(10) = -8
        assert d.pmf[1] == Fraction(-8, 12455)
        assert float(d.negative_mass) > 0

    def test_degenerate_row_rejected(self):
        t = partition.PartitionTable(
            r=2, n_max=1, coeff=[[1], [0]], row_totals=[1, 0],
        )
        with pytest.raises(ValueError, match="degenerate"):
            exact_distribution(t, 1)

    def test_capped_table_rejected(self):
        full = build_table(2, 12)
        t = partition.PartitionTable(
            r=2, n_max=12, coeff=[row[:3] for row in full.coeff],
            row_totals=full.row_totals,
        )
        with pytest.raises(ValueError, match="truncated"):
            exact_distribution(t, 12)

    def test_out_of_range(self):
        t = build_table(2, 5)
        with pytest.raises(ValueError):
            exact_distribution(t, 6)


_TABLE_CACHE = {}


def _cached_table():
    if "t" not in _TABLE_CACHE:
        _TABLE_CACHE["t"] = build_table(2, 60)
    return _TABLE_CACHE["t"]


class TestExport:
    def test_csv_shape(self):
        t = build_table(2, 3)
        text = t.to_csv()
        lines = text.splitlines()
        assert lines[0] == "n,k,coefficient"
        assert "3,2,20" in lines
        assert text.endswith("\n") and "\r" not in text

    def test_json_roundtrip(self):
        t = build_table(2, 10)
        doc = json.loads(t.to_json())
        assert doc["r"] == 2 and doc["n_max"] == 10 and doc["k_max"] == 10
        cells = {(n, k): int(c) for n, k, c in doc["entries"]}
        for (n, k), c in cells.items():
            assert t.value(n, k) == c
        assert [int(x) for x in doc["row_totals"]] == t.row_totals

    def test_export_deterministic(self):
        a = build_table(2, 15)
        b = build_table(2, 15)
        assert a.to_csv() == b.to_csv()
        assert a.to_json() == b.to_json()


def test_build_rejects_bad_order():
    with pytest.raises(ValueError):
        build_table(2, 5, factor_order=[1, 2, 3])
    with pytest.raises(ValueError):
        build_table(0, 5)
