"""The cross-module invariant checks behind ``divpart verify`` and the
acceptance gate, defined once.  Each returns ``(ok, detail)``; its size
keywords default to the full sweep, and ``REGISTRY`` holds the reduced
``--quick`` sizes.  Layer functions are looked up on their modules at call
time, so a rebinding (a tracer, a test) is seen here.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from . import arith, dirichlet, partition, saddle

Outcome = tuple[bool, str]


def ramanujan_closed_vs_exponential(top: int = 100) -> Outcome:
    ns = np.arange(1, top + 1)
    worst = 0.0
    for m in range(1, top + 1):
        closed = np.array([arith.ramanujan_sum(m, n) for n in range(1, top + 1)])
        worst = max(worst, float(np.abs(closed - arith.ramanujan_sum_exponential(m, ns)).max()))
    return worst < 1e-10, f"max |closed - exponential| = {worst:.3e}"


def ramanujan_equals_mobius_on_coprimes(top: int = 100) -> Outcome:
    bad = sum(
        1
        for m in range(1, top + 1)
        for n in range(1, top + 1)
        if math.gcd(m, n) == 1 and arith.ramanujan_sum(m, n) != arith.mobius(m)
    )
    return bad == 0, f"{bad} coprime pairs violate c_m(n) = mu(m)"


def character_orthogonality(top: int = 50) -> Outcome:
    worst = 0.0
    for m in range(1, top + 1):
        totals = np.array([chi.values for chi in arith.characters_mod(m)]).sum(axis=0)
        target = np.zeros(m)
        target[1 % m] = arith.euler_phi(m)
        worst = max(worst, float(np.abs(totals - target).max()))
    return worst < 1e-9, f"max orthogonality defect = {worst:.3e}"


def shifted_sum_identity(m_max: int = 30, n_max: int = 100) -> Outcome:
    worst = arith.shifted_identity_max_residual(m_max, n_max)
    return worst < 1e-9, f"max residual = {worst:.3e} over m <= {m_max}, n <= {n_max}"


def oracle_equivalence(n_max: int = 12) -> Outcome:
    """The packed builder against both oracles at every size 1..n_max."""
    for r in (2, 3):
        for n in range(1, n_max + 1):
            built = partition.build_table(r, n)
            oracles = partition.oracle_table(r, n)
            if not partition.tables_equal(built, oracles.naive):
                return False, f"naive oracle mismatch at r = {r}"
            if oracles.enumeration and not partition.tables_equal(built, oracles.enumeration):
                return False, f"enumeration oracle mismatch at r = {r}"
    return True, f"entrywise equal through n = {n_max}"


def factor_permutation_invariance(n_max: int = 40, trials: int = 5) -> Outcome:
    ok = partition.permuted_build_matches(2, n_max, trials=trials)
    return ok, "factor order irrelevant"


def totient_summatory_constant() -> Outcome:
    c1 = dirichlet.constant_C(1).value
    landau = dirichlet.zeta_real(2.0) * c1
    ok = abs(c1 - 1.339784) < 1e-5 and abs(landau - 2.20386) < 1e-4
    return ok, f"C(1) = {c1:.8f}, zeta(2) C(1) = {landau:.7f}"


def polylog_special_values() -> Outcome:
    worst = 0.0
    for s in (2.0, 3.0, 4.0, 5.0):
        lhs = dirichlet.polylog_neg(s, 1.0)
        rhs = -(1.0 - 2.0 ** (1.0 - s)) * dirichlet.zeta_real(s)
        worst = max(worst, abs(lhs - rhs))
    return worst < 1e-9, f"max |Li_s(-1) defect| = {worst:.3e}"


def double_series_closed_vs_direct(m_limit: int = 2000, n_limit: int = 20000,
                                   tol: float = 1e-3) -> Outcome:
    worst = 0.0
    for s, r in ((3.0, 2), (2.0, 1)):
        closed = dirichlet.dirichlet_d1(s, r).value
        direct = dirichlet.d1_direct(s, r, m_limit=m_limit, n_limit=n_limit).value
        worst = max(worst, abs(closed - direct))
    return worst < tol, f"max |closed - direct| = {worst:.3e}"


def euler_product_cutoff_stability() -> Outcome:
    cut = 10**5
    worst = 0.0
    for make in (
        lambda c: dirichlet.constant_C(2, cutoff=c).value,
        lambda c: dirichlet.euler_K(2.0, 1, cutoff=c).value,
        lambda c: dirichlet.E_r_and_Cprime(1.0, 2, cutoff=c)[0].value,
    ):
        worst = max(worst, abs(make(cut) - make(2 * cut)))
    return worst < 2e-8, f"max cutoff-doubling drift = {worst:.3e}"


def residual_tolerance(ns: tuple[int, ...] = (1, 10, 100, 1000)) -> Outcome:
    worst = 0.0
    for r in (2, 3):
        for mode in ("general", "paper_literal"):
            for n in ns:
                sp = saddle.solve_saddle(n, 1.0, r, mode=mode)
                worst = max(worst, sp.residual / max(1.0, n))
    return worst < 1e-9, f"max scaled residual = {worst:.3e}"


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
    return worst < 1e-4, f"max FD relative error = {worst:.3e}"


def mellin_leading_order(grid: tuple[float, ...] = (0.1, 0.05, 0.02),
                         tol: float = 0.05) -> Outcome:
    ratios = saddle.mellin_ratio_check(0, list(grid), 1.0, 2)
    monotone = all(abs(b - 1.0) <= abs(a - 1.0) for a, b in zip(ratios, ratios[1:]))
    near = abs(ratios[-1] - 1.0) < tol
    return monotone and near, f"ratios = {[f'{x:.4f}' for x in ratios]}"


def minor_arc_decay() -> Outcome:
    # on the log scale: the ratio itself underflows to 0 at theta = pi
    zero = saddle.minor_arc_log_ratio(0.05, 0.0, 1.0, 2)
    far = saddle.minor_arc_log_ratio(0.05, math.pi, 1.0, 2)
    ok = zero == 0.0 and math.isfinite(far) and far < 0.0
    return ok, f"log ratio(0) = {zero}, log ratio(pi) = {far:.3e}"


# (name, check, keyword arguments of the --quick sweep), sorted by name
REGISTRY: tuple[tuple[str, Callable[..., Outcome], dict], ...] = (
    ("arith.character_orthogonality", character_orthogonality, {"top": 20}),
    ("arith.ramanujan_closed_vs_exponential", ramanujan_closed_vs_exponential, {"top": 40}),
    ("arith.ramanujan_equals_mobius_on_coprimes", ramanujan_equals_mobius_on_coprimes,
     {"top": 40}),
    ("arith.shifted_sum_identity", shifted_sum_identity, {"m_max": 12, "n_max": 40}),
    ("dirichlet.double_series_closed_vs_direct", double_series_closed_vs_direct,
     {"m_limit": 300, "n_limit": 3000, "tol": 5e-3}),
    ("dirichlet.euler_product_cutoff_stability", euler_product_cutoff_stability, {}),
    ("dirichlet.polylog_special_values", polylog_special_values, {}),
    ("dirichlet.totient_summatory_constant", totient_summatory_constant, {}),
    ("partition.factor_permutation_invariance", factor_permutation_invariance,
     {"n_max": 24, "trials": 3}),
    ("partition.oracle_equivalence", oracle_equivalence, {"n_max": 9}),
    ("saddle.mellin_leading_order", mellin_leading_order, {"grid": (0.1, 0.05), "tol": 0.1}),
    ("saddle.minor_arc_decay", minor_arc_decay, {}),
    ("saddle.partials_match_finite_differences", partials_match_finite_differences, {}),
    ("saddle.residual_tolerance", residual_tolerance, {"ns": (1, 100)}),
)


def run(quick: bool) -> list[tuple[str, bool, str]]:
    """(name, ok, detail) for every check, full or quick sizes; a check
    that raises fails with the exception as its detail."""
    results = []
    for name, check, quick_kwargs in REGISTRY:
        try:
            ok, detail = check(**quick_kwargs) if quick else check()
        except Exception as exc:  # a crash is a failure with its message
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append((name, ok, detail))
    return results
