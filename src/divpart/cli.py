"""Command-line front door.

Every subcommand is deterministic: identical flags produce byte-identical
artifacts.  Floats are therefore always emitted as decimal strings with 17
significant digits, JSON keys are sorted, CSV uses LF line endings, and
verify's worker-count flag changes nothing.

Each handler imports the library modules it runs, so a subcommand loads
only what it uses: ``table`` never compiles ``dirichlet`` or ``saddle``.

Exit codes: 0 success, 1 invariant failure (verify), 2 configuration error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field
from typing import Any

from .arith import DEFAULT_PRIME_CUTOFF, PRIME_CUTOFF_LIMIT


def fmt(x: Any) -> Any:
    """Floats to 17-significant-digit strings; containers recursively."""
    if isinstance(x, bool) or isinstance(x, int) or isinstance(x, str) or x is None:
        return x
    if isinstance(x, float):
        return f"{x:.17g}"
    if isinstance(x, dict):
        return {k: fmt(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [fmt(v) for v in x]
    return str(x)


def emit_json(doc: dict, path: str | None) -> None:
    text = json.dumps(fmt(doc), sort_keys=True, indent=2) + "\n"
    if path:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def emit_text(text: str, path: str | None) -> None:
    if path:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


@dataclass
class RunConfig:
    subcommand: str
    r: int = 2
    n: int = 100
    n_list: list[int] = field(default_factory=lambda: [50, 100, 200, 400])
    table_limit: int = 40
    u: float = 1.0
    mode: str = "general"
    prime_cutoff: int = DEFAULT_PRIME_CUTOFF
    s: float = 3.0
    x_grid: list[float] = field(default_factory=lambda: [0.5, 1.0, 2.0])
    theta_grid: list[float] = field(default_factory=lambda: [0.25, 0.5, 1.0])
    output: str | None = None
    csv_output: str | None = None
    format: str = "csv"
    quick: bool = False
    workers: int = 1
    convention: str = "standard"
    max_negative_mass: float = 0.0

    def validate(self) -> None:
        if self.r < 1:
            raise ValueError("--r must be >= 1")
        if self.workers < 1:
            raise ValueError("--workers must be >= 1")
        if self.format not in ("csv", "json"):
            raise ValueError("--format must be csv or json")
        if self.mode not in ("general", "paper_literal"):
            raise ValueError("--mode must be general or paper_literal")
        if self.convention not in ("standard", "shifted-zeta"):
            raise ValueError("--convention must be standard or shifted-zeta")
        if not 100 <= self.prime_cutoff <= PRIME_CUTOFF_LIMIT:
            raise ValueError("--prime-cutoff must be in [100, 10^8]")
        if not 0.0 < self.u < math.inf:
            raise ValueError("--u must be positive and finite")
        if self.subcommand == "saddle":
            from .saddle import U_MAX
            if self.u > U_MAX:
                raise ValueError(f"--u must be in (0, {U_MAX:g}], where the "
                                 f"closed-form partials stay finite")
        if self.subcommand == "dirichlet-check" and not 1.0 < self.s < math.inf:
            raise ValueError("--s must be finite and > 1")
        if self.subcommand == "table" and self.table_limit < 0:
            raise ValueError("--N must be >= 0")
        if self.subcommand in ("saddle", "mgf") and self.n < 1:
            raise ValueError(f"{self.subcommand} needs --n >= 1")
        if self.subcommand == "tail" and self.n < 2:
            raise ValueError("tail needs --n >= 2 (its budget divides by log n)")
        if not self.theta_grid or not all(abs(t) <= 2.0 for t in self.theta_grid):
            raise ValueError("--theta-grid must be non-empty, with values in [-2, 2]")
        if not self.x_grid or not all(x > 0.0 for x in self.x_grid):
            raise ValueError("--x-grid must be non-empty, with positive values")
        # written so that NaN fails too; inf admits every row
        if not self.max_negative_mass >= 0.0:
            raise ValueError("--max-negative-mass must be >= 0 (inf admits every row)")
        if not self.n_list or sorted(self.n_list) != self.n_list or self.n_list[0] < 1:
            raise ValueError("--n-list must be non-empty, increasing and positive")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_table(cfg: RunConfig) -> int:
    from . import partition
    tab = partition.build_table(cfg.r, cfg.table_limit)
    if cfg.format == "csv":
        emit_text(tab.to_csv(), cfg.output)
    else:
        emit_text(tab.to_json(), cfg.output)
    return 0


def _cmd_constants(cfg: RunConfig) -> int:
    from . import dirichlet
    c_val = dirichlet.constant_C(cfg.r, cutoff=cfg.prime_cutoff)
    k1 = dirichlet.euler_K(1.0, cfg.r, cutoff=cfg.prime_cutoff)
    if cfg.r >= 2:
        e1, cp = dirichlet.E_r_and_Cprime(1.0, cfg.r, cutoff=cfg.prime_cutoff)
        gc = dirichlet.growth_constants(cfg.r, cutoff=cfg.prime_cutoff)
        alt = "shifted-zeta" if cfg.convention == "standard" else "standard"
        doc = {
            "r": cfg.r,
            "C": c_val.value,
            "C_tail": c_val.tail_estimate,
            "Cprime": cp.value,
            "E1": e1.value,
            "K1": k1.value,
            "N": gc.N,
            "C_mu": gc.C_mu[cfg.convention],
            "C_sigma": gc.C_sigma[cfg.convention],
            "convention": cfg.convention,
            "C_mu_alt": gc.C_mu[alt],
            "C_sigma_alt": gc.C_sigma[alt],
            "alt_convention": alt,
            "prime_cutoff": cfg.prime_cutoff,
        }
    else:
        doc = {
            "r": cfg.r,
            "C": c_val.value,
            "C_tail": c_val.tail_estimate,
            "K1": k1.value,
            "zeta2_times_C": dirichlet.zeta_real(2.0) * c_val.value,
            "prime_cutoff": cfg.prime_cutoff,
        }
    emit_json(doc, cfg.output)
    return 0


def _cmd_dirichlet_check(cfg: RunConfig) -> int:
    from . import dirichlet
    closed = dirichlet.dirichlet_d1(cfg.s, cfg.r, mode="closed", cutoff=cfg.prime_cutoff)
    direct = dirichlet.dirichlet_d1(cfg.s, cfg.r, mode="direct")
    doc = {
        "r": cfg.r,
        "s": cfg.s,
        "d1_closed": closed.value,
        "d1_direct": direct.value,
        "d1_difference": abs(closed.value - direct.value),
        "d1_direct_truncation": direct.truncation_bound,
    }
    if cfg.s - cfg.r > 1.0:
        # the shifted series' budget involves zeta(r), so r = 1 omits it
        if cfg.r >= 2:
            check = dirichlet.shifted_series_residual(cfg.s, cfg.r, cutoff=cfg.prime_cutoff)
            doc.update({
                "shifted_direct": check.direct,
                "shifted_series_part": check.d1_part,
                "shifted_budget": check.d2_budget,
                "shifted_ok": check.residual_bound_ok,
            })
        doc["dsigma_residual"] = dirichlet.dsigma_residual(cfg.s, cfg.r)
    emit_json(doc, cfg.output)
    return 0


def _cmd_saddle(cfg: RunConfig) -> int:
    from . import saddle
    sp = saddle.solve_saddle(cfg.n, cfg.u, cfg.r, mode=cfg.mode)
    mu, nu2 = saddle.mean_variance_saddle(cfg.n, cfg.r, mode=cfg.mode)
    emit_json({
        "n": sp.n, "r": sp.r, "u": sp.u, "mode": sp.mode,
        "tau": sp.tau, "residual": sp.residual,
        "F": sp.F_val, "F_g": sp.F_g, "F_gg": sp.F_gg, "B2": sp.F_gg,
        "theta_n": sp.theta_n, "mu": mu, "nu2": nu2,
    }, cfg.output)
    return 0


def _cmd_clt_report(cfg: RunConfig) -> int:
    from . import cltlab
    report = cltlab.clt_report(cfg.r, cfg.n_list,
                               max_negative_mass=cfg.max_negative_mass)
    lines = ["n,mean_exact,var_exact,mu_general,nu2_general,mu_literal,"
             "nu2_literal,ks_distance,negativity_count,included,note"]
    for row in report.rows:
        ks = f"{row.ks_distance:.17g}" if row.ks_distance is not None else ""
        lines.append(
            f"{row.n},{row.mean_exact:.17g},{row.var_exact:.17g},"
            f"{row.mu_saddle['general']:.17g},{row.nu2_saddle['general']:.17g},"
            f"{row.mu_saddle['paper_literal']:.17g},"
            f"{row.nu2_saddle['paper_literal']:.17g},"
            f"{ks},{row.negativity_count},{int(row.included)},{row.note}"
        )
    emit_text("\n".join(lines) + "\n", cfg.csv_output)
    emit_json({
        "r": report.r,
        "n_list": report.n_list,
        "excluded": report.excluded,
        "exclusion_count": report.exclusion_count,
        "exponent_fit_mean": report.exponent_fit_mean,
        "exponent_fit_var": report.exponent_fit_var,
        "ks_trend_ok": cltlab.ks_trend_ok(report),
    }, cfg.output)
    return 0


def _cmd_tail(cfg: RunConfig) -> int:
    from . import cltlab
    report = cltlab.tail_report(cfg.n, cfg.r, cfg.x_grid,
                                max_negative_mass=cfg.max_negative_mass)
    lines = ["x,side,prob,bound,branch,ok"]
    for rec in report.records:
        lines.append(
            f"{rec.x:.17g},{rec.side},{rec.prob:.17g},{rec.bound:.17g},"
            f"{rec.branch},{int(rec.ok)}"
        )
    for finding in report.findings:
        lines.append(f"# finding: {finding}")
    emit_text("\n".join(lines) + "\n", cfg.output)
    return 0


def _cmd_mgf(cfg: RunConfig) -> int:
    from . import cltlab
    profile = cltlab.mgf_profile(cfg.n, cfg.r, cfg.theta_grid,
                                 max_negative_mass=cfg.max_negative_mass)
    lines = ["theta,mgf_exact,gauss_target,rel_deviation"]
    for theta in cfg.theta_grid:
        m_est, target = profile[theta]
        lines.append(
            f"{theta:.17g},{m_est:.17g},{target:.17g},"
            f"{abs(m_est - target) / target:.17g}"
        )
    emit_text("\n".join(lines) + "\n", cfg.output)
    return 0


# ---------------------------------------------------------------------------
# verify: the cross-module invariant suite (defined in divpart.checks)
# ---------------------------------------------------------------------------

def _cmd_verify(cfg: RunConfig) -> int:
    from . import checks
    results = checks.run(cfg.quick)
    lines = []
    failures = 0
    for name, ok, detail in results:
        lines.append(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        failures += 0 if ok else 1
    lines.append(f"{'OK' if failures == 0 else 'FAILED'} "
                 f"({len(results) - failures}/{len(results)} checks passed)")
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if cfg.output:
        emit_json({
            "quick": cfg.quick,
            "checks": [
                {"name": name, "ok": ok, "detail": detail}
                for name, ok, detail in results
            ],
            "failures": failures,
        }, cfg.output)
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip()]


def _float_list(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip()]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="divpart",
        description="Exact and asymptotic statistics of divisor-gap "
                    "restricted partitions",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("table", help="export an exact coefficient table")
    p.add_argument("--r", type=int, default=2, help="divisor power (default 2)")
    p.add_argument("--N", dest="table_limit", type=int, default=40,
                   help="max weight (default 40)")
    p.add_argument("--format", choices=("csv", "json"), default="csv",
                   help="output format (default csv)")
    p.add_argument("--output", default=None, help="path (default stdout)")

    p = sub.add_parser("constants", help="emit the derived constants as JSON")
    p.add_argument("--r", type=int, default=1, help="divisor power (default 1)")
    p.add_argument("--prime-cutoff", dest="prime_cutoff", type=int,
                   default=DEFAULT_PRIME_CUTOFF,
                   help="Euler-product prime cutoff (default 1000000)")
    p.add_argument("--convention", choices=("standard", "shifted-zeta"),
                   default="standard",
                   help="-Li_s(-1) convention for C_mu/C_sigma (default standard)")
    p.add_argument("--output", default=None)

    p = sub.add_parser("dirichlet-check", help="closed-vs-direct series checks")
    p.add_argument("--r", type=int, default=2)
    p.add_argument("--s", type=float, default=5.0)
    p.add_argument("--prime-cutoff", dest="prime_cutoff", type=int,
                   default=DEFAULT_PRIME_CUTOFF)
    p.add_argument("--output", default=None)

    p = sub.add_parser("saddle", help="solve the saddle equation at one n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, default=2)
    p.add_argument("--u", type=float, default=1.0)
    p.add_argument("--mode", choices=("general", "paper_literal"), default="general")
    p.add_argument("--output", default=None)

    neg_help = ("admit rows whose total negative-cell mass is at most this "
                "value (default 0: strict positivity)")

    p = sub.add_parser("clt-report", help="exact-vs-normal distribution report")
    p.add_argument("--r", type=int, default=2)
    p.add_argument("--n-list", dest="n_list", type=_int_list, default=[50, 100, 200, 400],
                   help="comma-separated weights (default 50,100,200,400)")
    p.add_argument("--max-negative-mass", dest="max_negative_mass", type=float,
                   default=0.0, help=neg_help)
    p.add_argument("--csv", dest="csv_output", default=None, help="CSV path (default stdout)")
    p.add_argument("--output", default=None, help="JSON summary path (default stdout)")

    p = sub.add_parser("tail", help="exact tail probabilities vs the budget")
    p.add_argument("--n", type=int, default=400)
    p.add_argument("--r", type=int, default=2)
    p.add_argument("--x-grid", dest="x_grid", type=_float_list, default=[0.5, 1.0, 2.0],
                   help="comma-separated positive x values (default 0.5,1,2)")
    p.add_argument("--max-negative-mass", dest="max_negative_mass", type=float,
                   default=0.0, help=neg_help)
    p.add_argument("--output", default=None)

    p = sub.add_parser("mgf", help="exact standardized MGF vs Gaussian target")
    p.add_argument("--n", type=int, default=200)
    p.add_argument("--r", type=int, default=2)
    p.add_argument("--theta-grid", dest="theta_grid", type=_float_list,
                   default=[0.25, 0.5, 1.0],
                   help="comma-separated theta in [-2,2] (default 0.25,0.5,1); "
                        "write a leading negative value as --theta-grid=-1,0.5")
    p.add_argument("--max-negative-mass", dest="max_negative_mass", type=float,
                   default=0.0, help=neg_help)
    p.add_argument("--output", default=None)

    p = sub.add_parser("verify", help="run the cross-module invariant suite")
    p.add_argument("--quick", action="store_true", help="reduced sweep ranges")
    p.add_argument("--workers", type=int, default=1,
                   help="accepted for compatibility; the checks always run "
                        "one after another")
    p.add_argument("--output", default=None, help="JSON report path")

    return parser


_DISPATCH = {
    "table": _cmd_table,
    "constants": _cmd_constants,
    "dirichlet-check": _cmd_dirichlet_check,
    "saddle": _cmd_saddle,
    "clt-report": _cmd_clt_report,
    "tail": _cmd_tail,
    "mgf": _cmd_mgf,
    "verify": _cmd_verify,
}


def run(config: RunConfig) -> int:
    try:
        config.validate()
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    try:
        return _DISPATCH[config.subcommand](config)
    except (ValueError, RuntimeError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main(argv: list[str] | None = None) -> int:
    # BLAS here is a few tiny products; a second OpenBLAS thread only costs start-up CPU
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    parser = build_parser()
    args = parser.parse_args(argv)
    fields = {f for f in RunConfig.__dataclass_fields__}
    kwargs = {k: v for k, v in vars(args).items() if k in fields and v is not None}
    config = RunConfig(**kwargs)
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
