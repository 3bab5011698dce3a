"""The log-product

    F(gamma, u) = sum_{k>=1} gap(k) log(1 + u e^(-gamma k))

for the divisor-gap weights, its closed-form partial derivatives (finite
for every finite u > 0), the saddle-point equation in gap-weighted and
plain forms, the saddle mean and variance read from those partials, and
numeric probes of the leading-order Mellin asymptotics and of the minor
arc: its log ratio and that ratio's supremum over the arc.

Every k-sum, the Mellin double sums included, runs through one numpy
kernel, _ksum, under the shared truncation rule: stop once
max(u, 1) max(|w(k)|, 1) k^4 e^(-gamma k) falls below 1e-18 of the
running total, hard-capped at 10^7 terms (while u e^(-gamma k) > 1 the
terms do not fall, and the factor max(u, 1) keeps the sum running past
k = ln(u)/gamma).  The kernel adds the terms of each chunk of k
by numpy's pairwise summation and the chunk sums by math.fsum, so a sum
is good to a few ulps of sum |term| rather than of |sum|; the tests hold
it to 1e-13 relative against a compensated scalar loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .arith import sigma_window

TRUNCATION_RATIO = 1e-18
HARD_TERM_CAP = 10**7

#: supported (d/dgamma order, d/du order) pairs
SUPPORTED_PARTIALS = (
    (0, 0), (1, 0), (2, 0), (3, 0), (4, 0),
    (0, 1), (0, 2), (0, 3),
    (1, 1), (2, 1), (3, 1),
    (1, 2), (2, 2),
    (1, 3),
)


@dataclass(frozen=True)
class SaddlePoint:
    tau: float
    F_val: float
    F_g: float
    F_gg: float
    theta_n: float
    residual: float


class SaddleBracketError(RuntimeError):
    """Raised when the saddle solve finds no root it can certify."""


# ---------------------------------------------------------------------------
# The k-sum kernel
# ---------------------------------------------------------------------------

_BLOCK_MIN = 64
_BLOCK_MAX = 1 << 16
_CHUNK = 1 << 12
_LOG_RATIO = -math.log(TRUNCATION_RATIO)


def _block_length(gamma: float, power: float, scale: float = 1.0) -> int:
    """Where scale k^power e^(-gamma k) falls to TRUNCATION_RATIO, so that
    one block usually holds the whole sum (power counts the growth of the
    gap weights, gap_r(k) = O(k^r), too)."""
    k = float(_BLOCK_MIN)
    for _ in range(4):
        k = (_LOG_RATIO + math.log(scale) + power * math.log(max(k, 1.0))) / gamma
    return int(min(max(k, _BLOCK_MIN), _BLOCK_MAX))


def _ksum(
    gamma: float,
    r: int | None,
    summands: Callable[[np.ndarray, np.ndarray], list[np.ndarray]],
    k_cap: int | None = None,
    shift: int | None = None,
    scale: float = 1.0,
) -> list[float]:
    """sum_{k>=1} w(k) s_i(k, e^(-gamma k)) for every array s_i that
    summands(k, q) returns, with w = gap_r (r given), w = sigma_r(k + shift)
    (r and shift 0 or 1 given) or w = 1 (r None).  scale is max(u, 1) for
    the terms of log(1 + u q), its partials and the arc's log factors:
    each is O(scale k^4 q) once u q < 1 and does not fall before.

    Each sum stops at the first k where
    scale max(|w(k)|, 1) k^4 e^(-gamma k) < TRUNCATION_RATIO * |its running
    total|, or after k = k_cap.  The k run over equal blocks of at most
    2^16 entries, and each block sieves its own exact sigma_r window
    (arith.sigma_window) for its weights; inside a block the weights,
    terms, stop-rule bounds and partial sums are formed over chunks of at
    most 2^12 k, each sum's running total carried from chunk to chunk.  So
    memory follows one window and one chunk, not the longest sum, and
    nothing is shared between calls or threads.  A sum still open after
    HARD_TERM_CAP terms raises RuntimeError; a non-finite term raises
    ArithmeticError.
    """
    cap = HARD_TERM_CAP if k_cap is None else min(k_cap, HARD_TERM_CAP)
    if cap < 1:
        empty = np.empty(0)
        return [0.0] * len(summands(empty, empty))
    running: list[float] = []   # cumulative total, for the stop rule
    pieces: list[list[float]] = []  # per-sum chunk sums, added by fsum
    open_sums: list[int] = []
    start = 1
    base = end = 0  # the current block, base..end
    size = _block_length(gamma, 4 + (r or 0), scale)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        while start <= cap:
            if start > end:  # a new block: sieve its exact sigma window once
                base, end = start, min(start + size - 1, cap)
                if r is not None:  # sigma_r(base..end + 1): the gaps and either shift
                    window = sigma_window(r, base, end + 1)
            last = min(start + _CHUNK - 1, end)
            k = np.arange(start, last + 1, dtype=np.float64)
            q = np.exp(-gamma * k)
            bound = k**4 * (scale * q)  # scale q <= scale: no inf * 0 where q underflows
            terms = summands(k, q)
            if r is not None:
                # exact weights, correctly rounded (r = 3 passes 2^53 near k = 2*10^5)
                block = window[start - base : last - base + 2]
                w = (np.diff(block) if shift is None
                     else block[shift : shift + last - start + 1]).astype(np.float64)
                bound *= np.maximum(np.abs(w), 1.0)
                terms = [w * t for t in terms]
                zero = w == 0.0
                if zero.any():  # a zero weight drops its term, finite or not
                    for t in terms:
                        t[zero] = 0.0
            if start == 1:
                running = [0.0] * len(terms)
                pieces = [[] for _ in terms]
                open_sums = list(range(len(terms)))
            for i in list(open_sums):
                run = np.cumsum(terms[i])
                run += running[i]
                hit = np.flatnonzero(bound < TRUNCATION_RATIO * np.maximum(np.abs(run), 1e-300))
                used = int(hit[0]) + 1 if hit.size else run.size
                if not math.isfinite(run[used - 1]):
                    bad = start + int(np.argmin(np.isfinite(terms[i])))
                    raise ArithmeticError(
                        f"k-sum term not finite at k = {bad} (gamma = {gamma})"
                    )
                pieces[i].append(float(np.sum(terms[i][:used])))
                running[i] = float(run[used - 1])
                if hit.size:
                    open_sums.remove(i)
            if not open_sums:
                break
            start = last + 1
    if open_sums and (k_cap is None or k_cap > HARD_TERM_CAP):
        raise RuntimeError(
            f"k-sum budget exhausted at gamma = {gamma}: over {HARD_TERM_CAP} terms"
        )
    return [math.fsum(p) for p in pieces]


# ---------------------------------------------------------------------------
# Closed-form partials
# ---------------------------------------------------------------------------

def _partial_terms(jg: int, ju: int, k: np.ndarray, q: np.ndarray, u: float) -> np.ndarray:
    """Summands of the (jg, ju) partial, without the gap weight, over arrays
    of part sizes k and q = e^(-gamma k).

    The literal derivatives of log(1 + u q), written in s = 1/(1 + u q) and
    t = u q s, both in [0, 1]: (1 - u q)/w = (1 - u q) s, (2 - u q)/w =
    (2 - u q) s and (1 - 4 u q + u^2 q^2)/w^2 = s^2 - 4 t s + t^2, w = 1 + u q.
    So no summand overflows for any finite u > 0 (q <= 1, k <= HARD_TERM_CAP).
    """
    uq = u * q
    s = 1.0 / (1.0 + uq)
    t = uq * s
    qs = q * s
    if ju == 0:
        if jg == 0:
            return np.log1p(uq)
        if jg == 1:
            return -k * t
        if jg == 2:
            return k * k * t * s
        if jg == 3:
            return -(k**3) * t * s * ((1.0 - uq) * s)
        return k**4 * t * s * (s * s - 4.0 * t * s + t * t)  # jg == 4
    if jg == 0:
        if ju == 1:
            return qs
        if ju == 2:
            return -(qs * qs)
        return 2.0 * qs**3  # ju == 3
    if ju == 1:
        if jg == 1:
            return -k * qs * s
        if jg == 2:
            return k * k * qs * s * ((1.0 - uq) * s)
        return -(k**3) * qs * s * (s * s - 4.0 * t * s + t * t)  # jg == 3
    if ju == 2:
        if jg == 1:
            return 2.0 * k * qs * qs * s
        return -2.0 * k * k * qs * qs * s * ((2.0 - uq) * s)  # jg == 2
    return -6.0 * k * qs**3 * s  # (jg, ju) == (1, 3)


def _partials(
    gamma: float, u: float, r: int | None, pairs: tuple[tuple[int, int], ...]
) -> list[float]:
    """The (jg, ju) partials of F in one kernel pass; r None drops the gap
    weights (the plain product)."""
    return _ksum(gamma, r, lambda k, q: [_partial_terms(jg, ju, k, q, u) for jg, ju in pairs],
                 scale=max(u, 1.0))


def F_partial(gamma: float, u: float, r: int, order: tuple[int, int]) -> float:
    """The exact truncated k-sum of the (d/dgamma, d/du) partial of the
    given order, one of SUPPORTED_PARTIALS."""
    jg, ju = order
    if (jg, ju) not in SUPPORTED_PARTIALS:
        raise ValueError(f"partial (gamma^{jg}, u^{ju}) not in the closed-form table")
    if not (gamma > 0.0 and u > 0.0):
        raise ValueError("F_partial requires gamma > 0 and u > 0")
    return _partials(gamma, u, r, ((jg, ju),))[0]


# ---------------------------------------------------------------------------
# Saddle-point equations
# ---------------------------------------------------------------------------

#: evaluations a solve may spend before it reports no convergence
MAX_SOLVE_STEPS = 200


def _saddle_equation(t: float, u: float, r: int, mode: str) -> tuple[float, float]:
    """(lhs, d lhs / dt) of the saddle equation, in one kernel pass.

    general: lhs = -F_gamma(t, u), slope -F_gammagamma;
    paper_literal: lhs = sum_k k / (e^(t k) + 1), the same pair of sums
    without gap weights at u = 1.
    """
    if mode == "general":
        g1, g2 = _partials(t, u, r, ((1, 0), (2, 0)))
    else:
        g1, g2 = _partials(t, 1.0, None, ((1, 0), (2, 0)))
    return -g1, -g2


def solve_saddle(n: int, u: float, r: int, mode: str = "general") -> SaddlePoint:
    """Positive root of the saddle equation, to residual < 1e-9 max(1, n).

    general: solve -F_gamma(tau, u) = n (gap weights inside);
    paper_literal: solve sum_k k/(e^(eta k) + 1) = n (no weights).
    Newton steps on log lhs against log tau, where the left-hand side is
    close to a power of tau, start from the asymptotic scale and use the
    closed-form slope.  Each evaluation narrows a bracket; a step that
    leaves it, or a point where the profile does not decrease, falls back
    to bisection, or to doubling/halving while one side is still open.
    """
    if not (n >= 1 and u > 0.0):
        raise ValueError("solve_saddle requires n >= 1 and u > 0")
    if mode == "general":
        root = float(n) ** (-1.0 / (r + 2))
    elif mode == "paper_literal":
        root = math.sqrt(math.pi**2 / 12.0 / n)
    else:
        raise ValueError("mode must be 'general' or 'paper_literal'")

    # lhs decreases in tau: lo has lhs >= n, hi has lhs < n
    lo, hi = 0.0, math.inf
    for _ in range(MAX_SOLVE_STEPS):
        f, df = _saddle_equation(root, u, r, mode)
        if f >= n:
            lo = root
        else:
            hi = root
        cand = math.nan
        if f > 0.0 and df < 0.0:
            # Newton on log lhs against log tau; a step moves tau at most e^2-fold
            step = math.log(f / n) * f / (-root * df)
            # the kernel's sums hold to about 1e-13, so a smaller step is rounding noise
            if abs(step) <= 1e-12:
                break
            cand = root * math.exp(max(-2.0, min(2.0, step)))
        if not lo < cand < hi:
            if hi == math.inf:
                cand = 2.0 * root
            elif lo == 0.0:
                cand = 0.5 * root
            else:
                cand = 0.5 * (lo + hi)
        if not lo < cand < hi:  # the bracket has shrunk to adjacent floats
            break
        root = cand
    else:
        raise SaddleBracketError(f"saddle solve did not converge in {MAX_SOLVE_STEPS} evaluations")

    residual = abs(f - n)
    if residual > 1e-9 * max(1.0, float(n)):
        raise SaddleBracketError(
            f"saddle solve residual {residual:.3e} exceeds tolerance "
            f"(possible non-monotone profile)"
        )
    f_val, f_g, f_gg = _partials(root, u, r, ((0, 0), (1, 0), (2, 0)))
    if f_gg <= 0.0:
        raise SaddleBracketError(f"second derivative {f_gg:.3e} not positive at the root")
    return SaddlePoint(
        tau=root, F_val=f_val, F_g=f_g, F_gg=f_gg,
        theta_n=root ** (1.0 + 3.0 * r / 7.0), residual=residual,
    )


def mean_variance_at(eta: float, r: int) -> tuple[float, float]:
    """Mean and variance of the part count at a u = 1 saddle root eta,
    from one kernel pass over the partials of F at (eta, 1):

    mu   = F_u = sum gap(k) / (e^(eta k) + 1)
    nu^2 = a - b^2 / c,  a = F_u + F_uu,  b = -F_gamma_u,  c = F_gamma_gamma,

    where a, b, c = sum gap(k) k^j e^(eta k) / (e^(eta k) + 1)^2, j = 0, 1, 2.
    c > 0 is what solve_saddle at u = 1 requires of its root.
    """
    f_u, f_uu, f_gu, f_gg = _partials(eta, 1.0, r, ((0, 1), (0, 2), (1, 1), (2, 0)))
    if not f_gg > 0.0:
        raise ValueError(f"degenerate variance: curvature sum {f_gg:.3e} is not positive")
    nu2 = f_u + f_uu - f_gu * f_gu / f_gg
    if not nu2 > 0.0:
        raise ValueError(f"degenerate variance {nu2:.3e} <= 0 blocks standardization")
    return f_u, nu2


def mean_variance_saddle(n: int, r: int, mode: str) -> tuple[float, float]:
    """mean_variance_at the u = 1 root of the saddle equation at n."""
    return mean_variance_at(solve_saddle(n, 1.0, r, mode=mode).tau, r)


# ---------------------------------------------------------------------------
# Leading-order asymptotics probes
# ---------------------------------------------------------------------------

def _sigma_double_sum(j: int, gamma: float, u: float, r: int, shifted: bool) -> float:
    """sum_n sigma_r(n + shifted) n^j sum_l (-u)^l l^(j-1) e^(-n l gamma).

    n^j times the l-sum is (-1)^(j+1) times the j-th gamma-derivative of
    log(1 + u e^(-gamma n)), so the double sum is one kernel pass over
    the closed-form partials, j = 0..4; unlike the l-series it holds for
    u > 1 too.
    """
    if not 0 <= j <= 4:
        raise ValueError(f"the Mellin double sums need 0 <= j <= 4, got j = {j}")
    if not (gamma > 0.0 and u > 0.0):
        raise ValueError("the Mellin double sums need gamma > 0 and u > 0")
    sign = (-1.0) ** (j + 1)
    return _ksum(
        gamma, r, lambda k, q: [sign * _partial_terms(j, 0, k, q, u)], shift=int(shifted),
        scale=max(u, 1.0),
    )[0]


def mellin_ratio_check(
    j: int, gamma_list: list[float], u: float, r: int
) -> list[float]:
    """For each gamma, the unshifted double sum over the closed leading term
    zeta(r+1) Li_{r+2}(-u) Gamma(j+r+1) gamma^-(j+r+1); the ratios should
    approach 1 monotonically as gamma decreases."""
    from . import dirichlet  # only the Mellin probes need the special functions

    if any(b >= a for a, b in zip(gamma_list, gamma_list[1:])):
        raise ValueError("gamma_list must be strictly decreasing")
    lead = (
        dirichlet.zeta_real(r + 1.0)
        * dirichlet.polylog_neg(r + 2.0, u)
        * math.factorial(j + r)
    )
    out = []
    for gamma in gamma_list:
        direct = _sigma_double_sum(j, gamma, u, r, shifted=False)
        out.append(direct / (lead * gamma ** (-(j + r + 1.0))))
    return out


def h1_boundedness_probe(j: int, gamma: float, u: float, r: int) -> tuple[float, float, bool]:
    """Shifted double sum against its constant-side budget
    1.5 N(r) |Li_{r+2}(-u)| Gamma(r+j+1) gamma^-(r+j+1) (a slack of 0.5).

    A violation is a reportable finding about the constants, not a crash.
    """
    from . import dirichlet

    value = _sigma_double_sum(j, gamma, u, r, shifted=True)
    n_const = dirichlet.growth_constants(r).N
    bound = (
        n_const
        * abs(dirichlet.polylog_neg(r + 2.0, u))
        * math.factorial(r + j)
        * gamma ** (-(r + j + 1.0))
        * 1.5
    )
    return value, bound, abs(value) <= bound


def minor_arc_ratio(tau: float, theta: float, u: float, r: int) -> float:
    """|Q(e^(-tau - i theta), u)| / Q(e^(-tau), u).

    Equals 1 exactly at theta = 0.  The gap weights take both signs, so
    the ratio need not stay below 1: past the turn n*(r) it exceeds 1
    near theta = pi (see minor_arc_sup).  Where it decays it underflows to
    0.0 already at moderate tau, so trend comparisons should use
    minor_arc_log_ratio.
    """
    return math.exp(minor_arc_log_ratio(tau, theta, u, r))


def minor_arc_log_ratio(tau: float, theta: float, u: float, r: int) -> float:
    """log of the arc ratio:
    0.5 sum_k gap(k) log[1 - 2 u e^(-k tau)(1 - cos k theta)/(1 + u e^(-k tau))^2].

    A log factor whose argument is not positive raises ArithmeticError."""
    if not (tau > 0.0 and u > 0.0):
        raise ValueError("minor_arc_ratio requires tau > 0 and u > 0")

    def summands(k: np.ndarray, q: np.ndarray) -> list[np.ndarray]:
        uq = np.minimum(u * q, 1e300)  # 2 u q stays finite; past 1e154 the log is 0
        return [np.log(1.0 - 2.0 * uq * (1.0 - np.cos(k * theta)) / (1.0 + uq) ** 2)]

    return 0.5 * _ksum(tau, r, summands, scale=max(u, 1.0))[0]


def minor_arc_sup(tau: float, u: float, r: int) -> tuple[float, float]:
    """(theta, log ratio) at the largest minor_arc_log_ratio over the arc
    tau^(1 + 3r/7) <= theta <= pi.

    The peak sits at pi - theta of about 0.6 tau to 1.7 tau, so the grid
    steps pi - theta by tau/4 up to 3 tau and by a factor 1.5 from there,
    ending on the arc's lower end; a peak narrower than its steps farther
    from pi can fall between them.  Twenty golden-section steps then narrow
    the bracket of the best grid point, between its grid neighbours, by
    0.618^20 = 6.6e-5 (to 3.3e-5 tau near pi).  Each theta costs one
    minor_arc_log_ratio call, so memory does not grow with the grid.
    """
    lo = tau ** (1.0 + 3.0 * r / 7.0)
    width = math.pi - lo
    if not width >= 0.0:
        raise ValueError(f"the minor arc [tau^(1 + 3r/7), pi] is empty at tau = {tau}")
    deltas = [j * tau / 4.0 for j in range(13)]
    while deltas[-1] < width:
        deltas.append(1.5 * deltas[-1])
    grid = [math.pi - d for d in deltas if d < width] + [lo]
    best = (grid[0], minor_arc_log_ratio(tau, grid[0], u, r))

    def f(theta: float) -> float:
        nonlocal best
        value = minor_arc_log_ratio(tau, theta, u, r)
        if value > best[1]:
            best = (theta, value)
        return value

    for theta in grid[1:]:
        f(theta)
    i = grid.index(best[0])
    a, b = grid[min(i + 1, len(grid) - 1)], grid[max(i - 1, 0)]
    g = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = b - g * (b - a), a + g * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(20):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - g * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + g * (b - a)
            fd = f(d)
    return best
