"""The cross-module invariant checks behind ``divpart verify`` and the
acceptance gate, defined once.  A check takes no argument: the points it
samples are literals in its body, and its ``(ok, detail)`` names them after
"at" and the regime where its claim holds after "; holds at".  Layer
functions are looked up on their modules at call time, so a rebinding (a
tracer, a test) is seen here.  Per check: claim; regime; points sampled.

    character_orthogonality: sum_chi chi(a) = phi(m) [a = 1]; every m; m <= 50
    ramanujan_closed_vs_exponential: closed c_m(n) = exponential sum; every m, n; m, n <= 100
    ramanujan_equals_mobius_on_coprimes: c_m(n) = mu(m); coprime m, n; m, n <= 100
    shifted_sum_identity: c_m(n + 1) through characters; every m, n; m <= 30, n <= 100
    double_series_closed_vs_direct: closed D1 = double sum; s > 1; (s, r) = (3, 2), (2, 1)
    euler_product_cutoff_stability: converged by 1e5; r >= 1; C(2), K(2, 1), E_2(1)
    polylog_special_values: Li_s(-1) = -eta(s); integer s >= 2; s = 2, 3, 4, 5
    totient_summatory_constant: zeta(2) C(1) = 2.20386 (Landau); r = 1; prime cutoff 1e6
    factor_permutation_invariance: factor order is irrelevant; every r, n; r = 2, n <= 40
    oracle_equivalence: packed = naive = enumeration; every r, n; r = 2, 3, n <= 12
    mellin_leading_order: ratio -> 1; gamma -> 0; gamma = 0.1, 0.05, 0.02 at r = 2
    minor_arc_decay: arc sup <= 0; n <= 13,960 at r = 2; tau = 0.05 (n ~ 35,074)
    partials_match_finite_differences: exact = FD; gamma, u > 0; gamma = 0.1, u = 1, r = 2
    residual_tolerance: residual < 1e-9 max(1, n); every n; n = 1, 10, 100, 1000 at r = 2, 3
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from . import arith, dirichlet, partition, saddle

Outcome = tuple[bool, str]


def ramanujan_closed_vs_exponential() -> Outcome:
    top = 100
    ns = np.arange(1, top + 1)
    worst = 0.0
    for m in range(1, top + 1):
        closed = np.array([arith.ramanujan_sum(m, n) for n in range(1, top + 1)])
        worst = max(worst, float(np.abs(closed - arith.ramanujan_sum_exponential(m, ns)).max()))
    detail = f"max |closed - exponential| = {worst:.3e} at m, n <= {top}; holds at every m, n"
    return worst < 1e-10, detail


def ramanujan_equals_mobius_on_coprimes() -> Outcome:
    top = 100
    bad = 0
    for m in range(1, top + 1):
        mu = arith.mobius(m)
        bad += sum(1 for n in range(1, top + 1)
                   if math.gcd(m, n) == 1 and arith.ramanujan_sum(m, n) != mu)
    detail = f"{bad} coprime pairs violate c_m(n) = mu(m) at m, n <= {top}; holds at every pair"
    return bad == 0, detail


def character_orthogonality() -> Outcome:
    top = 50
    worst = 0.0
    for m in range(1, top + 1):
        totals = np.array([chi.values for chi in arith.characters_mod(m)]).sum(axis=0)
        target = np.zeros(m)
        target[1 % m] = arith.euler_phi(m)
        worst = max(worst, float(np.abs(totals - target).max()))
    detail = f"max orthogonality defect = {worst:.3e} at m <= {top}; holds at every m"
    return worst < arith.CHARACTER_TOL, detail


def shifted_sum_identity() -> Outcome:
    m_max, n_max = 30, 100
    worst = arith.shifted_identity_max_residual(m_max, n_max)
    detail = f"max residual = {worst:.3e} at m <= {m_max}, n <= {n_max}; holds at every m, n"
    return worst < arith.CHARACTER_TOL, detail


def oracle_equivalence() -> Outcome:
    """Each oracle is built once per r, and row z^n of a truncated product
    does not depend on where it is truncated, so build_table(r, n) is
    compared with rows 0..n of each oracle that reaches n."""
    n_max = 12
    for r in (2, 3):
        oracles = partition.oracle_table(r, n_max)
        reach = oracles.enumeration.n_max
        for n in range(1, n_max + 1):
            built = partition.build_table(r, n).coeff
            if built != oracles.naive.coeff[: n + 1]:
                return False, f"naive oracle mismatch at r = {r}"
            if n <= reach and built != oracles.enumeration.coeff[: n + 1]:
                return False, f"enumeration oracle mismatch at r = {r}"
    return True, f"entrywise equal at r = 2, 3, n <= {n_max}; holds at every r, n"


def factor_permutation_invariance() -> Outcome:
    n_max = 40
    ok = partition.permuted_build_matches(2, n_max)
    return ok, f"factor order irrelevant at r = 2, n <= {n_max}, 5 orders; holds at every r, n"


def totient_summatory_constant() -> Outcome:
    c1 = dirichlet.constant_C(1).value
    landau = dirichlet.zeta_real(2.0) * c1
    ok = abs(c1 - 1.339784) < 1e-5 and abs(landau - 2.20386) < 1e-4
    return ok, (f"C(1) = {c1:.8f}, zeta(2) C(1) = {landau:.7f} at prime cutoff "
                f"{arith.DEFAULT_PRIME_CUTOFF:.0e}; holds at r = 1")


def polylog_special_values() -> Outcome:
    worst = 0.0
    for s in (2.0, 3.0, 4.0, 5.0):
        lhs = dirichlet.polylog_neg(s, 1.0)
        rhs = -(1.0 - 2.0 ** (1.0 - s)) * dirichlet.zeta_real(s)
        worst = max(worst, abs(lhs - rhs))
    detail = f"max |Li_s(-1) defect| = {worst:.3e} at s = 2, 3, 4, 5; holds at integer s >= 2"
    return worst < 1e-9, detail


def double_series_closed_vs_direct() -> Outcome:
    worst = 0.0
    for s, r in ((3.0, 2), (2.0, 1)):
        closed = dirichlet.dirichlet_d1(s, r).value
        direct = dirichlet.d1_direct(s, r).value
        worst = max(worst, abs(closed - direct))
    detail = f"max |closed - direct| = {worst:.3e} at (s, r) = (3, 2), (2, 1); holds at s > 1"
    return worst < 1e-3, detail


def euler_product_cutoff_stability() -> Outcome:
    cut = 10**5
    worst = 0.0
    for make in (
        lambda c: dirichlet.constant_C(2, cutoff=c).value,
        lambda c: dirichlet.euler_K(2.0, 1, cutoff=c).value,
        lambda c: dirichlet._E_r(1.0, 2, c).value,
    ):
        worst = max(worst, abs(make(cut) - make(2 * cut)))
    return worst < 2e-8, (f"max cutoff-doubling drift = {worst:.3e} at C(2), K(2, 1), E_2(1), "
                          f"cutoff {cut:.0e}; holds at r >= 1")


def residual_tolerance() -> Outcome:
    ns = (1, 10, 100, 1000)
    worst = 0.0
    for r in (2, 3):
        for mode in ("general", "paper_literal"):
            for n in ns:
                sp = saddle.solve_saddle(n, 1.0, r, mode=mode)
                worst = max(worst, sp.residual / max(1.0, n))
    detail = f"max scaled residual = {worst:.3e} at n in {ns}, r = 2, 3; holds at every n"
    return worst < 1e-9, detail


def partials_match_finite_differences() -> Outcome:
    # spot FD checks; the full grid lives in the test suite
    def f(gamma: float, u: float) -> float:
        return saddle.F_partial(gamma, u, 2, (0, 0))

    gamma, u, h = 0.1, 1.0, 1e-4
    fds = {
        (0, 1): (f(gamma, u + h) - f(gamma, u - h)) / (2 * h),
        (2, 0): (f(gamma + h, u) - 2 * f(gamma, u) + f(gamma - h, u)) / h**2,
        (1, 1): (f(gamma + h, u + h) - f(gamma + h, u - h)
                 - f(gamma - h, u + h) + f(gamma - h, u - h)) / (4 * h * h),
    }
    worst = 0.0
    for order, fd in fds.items():
        exact = saddle.F_partial(gamma, u, 2, order)
        worst = max(worst, abs(fd - exact) / abs(exact))
    return worst < 1e-4, (f"max FD relative error = {worst:.3e} at gamma = {gamma}, u = {u}, "
                          "r = 2; holds at gamma, u > 0")


def mellin_leading_order() -> Outcome:
    grid = [0.1, 0.05, 0.02]
    ratios = saddle.mellin_ratio_check(0, grid, 1.0, 2)
    monotone = all(abs(b - 1.0) <= abs(a - 1.0) for a, b in zip(ratios, ratios[1:]))
    near = abs(ratios[-1] - 1.0) < 0.05
    return monotone and near, (f"ratios = {[f'{x:.4f}' for x in ratios]} at gamma in {grid}, "
                               "r = 2, u = 1; holds as gamma -> 0")


def minor_arc_decay() -> Outcome:
    # on the log scale: the ratio itself underflows to 0 at theta = pi
    zero = saddle.minor_arc_log_ratio(0.05, 0.0, 1.0, 2)
    far = saddle.minor_arc_log_ratio(0.05, math.pi, 1.0, 2)
    ok = zero == 0.0 and math.isfinite(far) and far < 0.0
    # reported, not judged: past n*(2) the arc's supremum is positive near pi
    theta, sup = saddle.minor_arc_sup(0.05, 1.0, 2)
    return ok, (f"log ratio(0) = {zero}, log ratio(pi) = {far:.3e}, "
                f"sup log ratio = {sup:.3e} at pi - theta = {math.pi - theta:.3e}; "
                "all at tau = 0.05, r = 2, u = 1 (n ~ 35,074); sup <= 0 holds at n <= 13,960")


# (name, check), sorted by name
REGISTRY: tuple[tuple[str, Callable[[], Outcome]], ...] = (
    ("arith.character_orthogonality", character_orthogonality),
    ("arith.ramanujan_closed_vs_exponential", ramanujan_closed_vs_exponential),
    ("arith.ramanujan_equals_mobius_on_coprimes", ramanujan_equals_mobius_on_coprimes),
    ("arith.shifted_sum_identity", shifted_sum_identity),
    ("dirichlet.double_series_closed_vs_direct", double_series_closed_vs_direct),
    ("dirichlet.euler_product_cutoff_stability", euler_product_cutoff_stability),
    ("dirichlet.polylog_special_values", polylog_special_values),
    ("dirichlet.totient_summatory_constant", totient_summatory_constant),
    ("partition.factor_permutation_invariance", factor_permutation_invariance),
    ("partition.oracle_equivalence", oracle_equivalence),
    ("saddle.mellin_leading_order", mellin_leading_order),
    ("saddle.minor_arc_decay", minor_arc_decay),
    ("saddle.partials_match_finite_differences", partials_match_finite_differences),
    ("saddle.residual_tolerance", residual_tolerance),
)


def run() -> list[tuple[str, bool, str]]:
    """(name, ok, detail) for every check; a check that raises fails with
    the exception as its detail."""
    results = []
    for name, check in REGISTRY:
        try:
            ok, detail = check()
        except Exception as exc:  # a crash is a failure with its message
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append((name, ok, detail))
    return results
