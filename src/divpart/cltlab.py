"""End-to-end distributional checks: exact part-count laws against the
Gaussian limit, saddle-point mean/variance in both equation forms,
moment-generating-function profiles, sub-Gaussian tail budgets, and the
growth-exponent fits.

One gate, _row_gate, admits a row as a law: positive total, signed defect
within max_negative_mass, positive exact variance.  Refused rows are
excluded from every probabilistic check and counted.  Negativity is the
rule, not the exception (the weight-1 cell equals the gap, which changes
sign), hence the max_negative_mass override for rows whose signed defect
is negligible; the default stays strict.  No override admits a variance
<= 0 (n = 1 is a point mass; the signed row r = 1, n = 4 has -1/9).
Standardization uses the exact rational mean and variance converted to
float at the last step.

saddle (and with it numpy) is imported only by clt_report and
exponent_fit, so the MGF and tail checks run on the exact layers alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .partition import ExactDistribution, PartitionTable, RowRefused, build_table, exact_distribution


def norm_cdf(x: float) -> float:
    """Standard normal CDF via the C-library erf (rational/continued-
    fraction implementation, relative error well under 1e-10)."""
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def ks_to_normal(pmf: dict[int, Fraction], mean: float, std: float) -> float:
    """Sup distance between the standardized exact CDF and the normal CDF.

    The exact CDF is a step function; the sup over each jump is attained
    by comparing the normal CDF with both one-sided limits.
    """
    if not std > 0.0:
        raise ValueError("ks_to_normal needs a positive standard deviation")
    worst = 0.0
    cdf = Fraction(0)
    for k in sorted(pmf):
        x = (k - mean) / std
        target = norm_cdf(x)
        worst = max(worst, abs(float(cdf) - target))
        cdf += pmf[k]
        worst = max(worst, abs(float(cdf) - target))
    return worst


def _row_gate(dist: ExactDistribution, max_negative_mass: float) -> str | None:
    """None when the row may be read as a probability law, else a note that
    names the first failed condition and its value.  The conditions, in
    order: a positive row total, a signed defect within max_negative_mass,
    a positive exact variance."""
    if not dist.total_positive:
        return "nonpositive row total"
    # written so that a NaN limit refuses the row instead of admitting it
    if dist.negativity_flags and not float(dist.negative_mass) <= max_negative_mass:
        return (
            f"negative cells at k = {dist.negativity_flags[:8]} "
            f"(signed defect {float(dist.negative_mass):.3e})"
        )
    if dist.variance <= 0:
        return f"nonpositive variance ({float(dist.variance):.3e})"
    return None


def _read_row(
    n: int, r: int, table: PartitionTable | None, max_negative_mass: float, use: str,
) -> tuple[ExactDistribution, float, float]:
    """The exact law of row n, its float mean and its float standard
    deviation; the table is built when none is given.  A row the gate
    refuses raises RowRefused("row n refused for <use>: <note>"), as does
    exact_distribution on a vanishing row total."""
    if table is None:
        table = build_table(r, n)
    dist = exact_distribution(table, n)
    reason = _row_gate(dist, max_negative_mass)
    if reason is not None:
        raise RowRefused(f"row {n} refused for {use}: {reason}")
    return dist, float(dist.mean), math.sqrt(float(dist.variance))


@dataclass
class CltRow:
    n: int
    mean_exact: float
    var_exact: float
    mu_saddle: dict[str, float]
    nu2_saddle: dict[str, float]
    ks_distance: float | None
    negativity_count: int
    included: bool
    note: str = ""


@dataclass
class CltReport:
    r: int
    n_list: list[int]
    rows: list[CltRow]
    exponent_fit_mean: float | None = None
    exponent_fit_var: float | None = None

    @property
    def excluded(self) -> list[int]:
        return [row.n for row in self.rows if not row.included]

    @property
    def exclusion_count(self) -> int:
        return len(self.excluded)


@dataclass(frozen=True)
class ExponentFit:
    slope_mean: float
    slope_var: float
    residual_mean: float
    residual_var: float


def _least_squares_slope(xs: list[float], ys: list[float]) -> tuple[float, float]:
    """(slope, rms residual) of the ordinary least-squares line."""
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    slope = sxy / sxx
    intercept = my - slope * mx
    resid = math.sqrt(
        sum((y - slope * x - intercept) ** 2 for x, y in zip(xs, ys)) / n
    )
    return slope, resid


def _loglog_fit(ns: list[int], saddles: list[tuple[float, float]]) -> ExponentFit:
    """Least-squares slopes of log mu and log nu^2 against log n, from the
    (mu, nu2) saddle pair of each n."""
    logs_n = [math.log(n) for n in ns]
    slope_mu, res_mu = _least_squares_slope(logs_n, [math.log(mu) for mu, _ in saddles])
    slope_nu, res_nu = _least_squares_slope(logs_n, [math.log(nu2) for _, nu2 in saddles])
    return ExponentFit(slope_mean=slope_mu, slope_var=slope_nu,
                       residual_mean=res_mu, residual_var=res_nu)


def clt_report(
    r: int,
    n_list: list[int],
    table: PartitionTable | None = None,
    max_negative_mass: float = 0.0,
) -> CltReport:
    """Per-n exact mean/variance, KS distance to the standard normal on
    admissible rows, saddle mean/variance in both equation forms, and
    log-log exponent fits of the gap-weighted saddle mean/variance."""
    from . import saddle

    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ValueError("n_list must be strictly increasing")
    if table is None:
        table = build_table(r, max(n_list))
    rows: list[CltRow] = []
    for n in n_list:
        dist = exact_distribution(table, n)
        mu_saddle, nu2_saddle = {}, {}
        for mode in ("general", "paper_literal"):
            mu_saddle[mode], nu2_saddle[mode] = saddle.mean_variance_saddle(n, r, mode=mode)
        mean_f, var_f = float(dist.mean), float(dist.variance)
        note = _row_gate(dist, max_negative_mass)
        rows.append(CltRow(
            n=n, mean_exact=mean_f, var_exact=var_f,
            mu_saddle=mu_saddle, nu2_saddle=nu2_saddle,
            ks_distance=None if note else ks_to_normal(dist.pmf, mean_f, math.sqrt(var_f)),
            negativity_count=len(dist.negativity_flags), included=not note, note=note or "",
        ))

    report = CltReport(r=r, n_list=list(n_list), rows=rows)
    if len(n_list) >= 4:
        # exponents only make sense for the gap-weighted equation form
        fit = _loglog_fit(n_list, [(row.mu_saddle["general"], row.nu2_saddle["general"])
                                   for row in rows])
        report.exponent_fit_mean = fit.slope_mean
        report.exponent_fit_var = fit.slope_var
    return report


def ks_trend_ok(report: CltReport) -> bool:
    """Non-increasing KS distances over the admitted rows, pairwise, up to
    a multiplicative slack of 10 %; true when fewer than two are admitted."""
    values = [row.ks_distance for row in report.rows if row.included]
    return all(b <= 1.1 * a for a, b in zip(values, values[1:]))


def mgf_profile(
    n: int,
    r: int,
    theta_grid: list[float],
    table: PartitionTable | None = None,
    max_negative_mass: float = 0.0,
) -> dict[float, tuple[float, float]]:
    """theta -> (exact standardized MGF, Gaussian target e^(theta^2/2)).

    M(theta) = sum_k pmf[k] exp((k - mean) theta / std) from the exact law;
    no symmetry in theta is asserted, only reported.  Rows the gate
    refuses raise ValueError.
    """
    if not all(abs(t) <= 2.0 for t in theta_grid):  # false for NaN too
        raise ValueError("theta grid restricted to [-2, 2]")
    dist, mean, std = _read_row(n, r, table, max_negative_mass, "MGF")
    out = {}
    for theta in theta_grid:
        m_exact = math.fsum(
            float(p) * math.exp((k - mean) * theta / std) for k, p in dist.pmf.items()
        )
        out[theta] = (m_exact, math.exp(theta * theta / 2.0))
    return out


@dataclass(frozen=True)
class TailRecord:
    x: float
    side: str          # "upper" or "lower"
    prob: float
    bound: float
    branch: str        # "gauss" or "linear"
    ok: bool


def tail_split(n: int, r: int) -> float:
    """The branch point T = n^((r+1)/(6(r+2))) / log n of the tail budget."""
    return float(n) ** ((r + 1.0) / (6.0 * (r + 2.0))) / math.log(n)


def tail_check(
    n: int,
    r: int,
    x_grid: list[float],
    table: PartitionTable | None = None,
    max_negative_mass: float = 0.0,
) -> list[TailRecord]:
    """Exact standardized tail probabilities against the two-branch budget

        1.5 e^(-x^2/2)          for x <= T,
        1.5 e^(-T x/2)          for x >  T,

    (a slack of 0.5) with T from tail_split.  Pure report on admissible
    rows: a violated budget is recorded, never raised.
    """
    if not all(x > 0.0 for x in x_grid):  # false for NaN too
        raise ValueError("x grid must be positive")
    dist, mean, std = _read_row(n, r, table, max_negative_mass, "tail check")
    zs = [((k - mean) / std, p) for k, p in dist.pmf.items()]
    t_split = tail_split(n, r)
    records = []
    for x in x_grid:
        if x <= t_split:
            bound = 1.5 * math.exp(-x * x / 2.0)
            branch = "gauss"
        else:
            bound = 1.5 * math.exp(-t_split * x / 2.0)
            branch = "linear"
        upper = float(sum((p for z, p in zs if z >= x), Fraction(0)))
        lower = float(sum((p for z, p in zs if z <= -x), Fraction(0)))
        for side, prob in (("upper", upper), ("lower", lower)):
            records.append(TailRecord(x=x, side=side, prob=prob, bound=bound,
                                      branch=branch, ok=prob <= bound))
    return records


@dataclass
class TailReport:
    """tail_check wrapped so a refused row (RowRefused) and violated budgets
    become structured findings instead of exceptions; a bad x grid still
    raises ValueError."""

    n: int
    r: int
    records: list[TailRecord]
    findings: list[str]
    refused: bool

    @property
    def self_consistent(self) -> bool:
        t_split = tail_split(self.n, self.r)
        for rec in self.records:
            if not 0.0 <= rec.prob <= 1.0:
                return False
            want = "gauss" if rec.x <= t_split else "linear"
            if rec.branch != want or rec.bound < 0.0:
                return False
        return True


def tail_report(
    n: int,
    r: int,
    x_grid: list[float],
    table: PartitionTable | None = None,
    max_negative_mass: float = 0.0,
) -> TailReport:
    findings: list[str] = []
    try:
        records = tail_check(n, r, x_grid, table=table, max_negative_mass=max_negative_mass)
    except RowRefused as exc:
        return TailReport(n=n, r=r, records=[], findings=[str(exc)], refused=True)
    for rec in records:
        if not rec.ok:
            findings.append(
                f"x = {rec.x}, {rec.side}: prob {rec.prob:.6e} exceeds "
                f"{rec.branch} bound {rec.bound:.6e}"
            )
        if not 0.0 <= rec.prob <= 1.0:
            findings.append(
                f"x = {rec.x}, {rec.side}: prob {rec.prob:.6e} outside [0, 1]"
            )
    return TailReport(n=n, r=r, records=records, findings=findings, refused=False)


def exponent_fit(r: int, n_grid: list[int]) -> ExponentFit:
    """Least-squares slopes of log mu and log nu^2 against log n over the
    grid.  Both tend to r/(r+1), where the gap series' pole at s = r puts
    them (local slopes per 100x step at r = 2: mean 0.6604, 0.6651, 0.6663
    up to n = 10^9); acceptance criterion 09 still tests the band
    (r+1)/(r+2) +- 0.1, which the n = 100..1600 fits sit inside.

    The saddle runs in the gap-weighted equation form: the plain form
    scales the root like n^(-1/2) and cannot reproduce that growth.
    """
    from . import saddle

    if len(n_grid) < 4:
        raise ValueError("exponent fit needs at least 4 grid points")
    return _loglog_fit(n_grid, [saddle.mean_variance_saddle(n, r, mode="general")
                                for n in n_grid])
