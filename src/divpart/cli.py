"""Command-line front door.

Every subcommand is deterministic: identical flags produce byte-identical
artifacts.  Floats are therefore always emitted as decimal strings with 17
significant digits, JSON keys are sorted, CSV uses LF line endings, and
verify's worker-count flag changes nothing.

Each handler imports the library modules it runs, so a subcommand loads
only what it uses: ``table`` never compiles ``dirichlet`` or ``saddle``.

Exit codes: 0 success; 1 a runtime failure: a failed verify check, or
``error: <message>`` on stderr for a computation that raises or an --output
or --csv path that cannot be written; 2 a configuration error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
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
    emit_text(json.dumps(fmt(doc), sort_keys=True, indent=2) + "\n", path)


def emit_text(text: str, path: str | None) -> None:
    if path:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_table(cfg: argparse.Namespace) -> int:
    from . import partition
    tab = partition.build_table(cfg.r, cfg.table_limit)
    if cfg.format == "csv":
        emit_text(tab.to_csv(), cfg.output)
    else:
        emit_text(tab.to_json(), cfg.output)
    return 0


def _cmd_constants(cfg: argparse.Namespace) -> int:
    from . import dirichlet
    c_val = dirichlet.constant_C(cfg.r, cutoff=cfg.prime_cutoff)
    doc = {"r": cfg.r, "C": c_val.value, "C_tail": c_val.bound,
           "prime_cutoff": cfg.prime_cutoff}
    if cfg.r >= 2:
        gc = dirichlet.growth_constants(cfg.r, cutoff=cfg.prime_cutoff)
        alt = "shifted-zeta" if cfg.convention == "standard" else "standard"
        doc.update({
            "Cprime": gc.Cprime,
            "E1": gc.E1,
            "K1": gc.K1,
            "N": gc.N,
            "C_mu": gc.C_mu[cfg.convention],
            "C_sigma": gc.C_sigma[cfg.convention],
            "convention": cfg.convention,
            "C_mu_alt": gc.C_mu[alt],
            "C_sigma_alt": gc.C_sigma[alt],
            "alt_convention": alt,
        })
    else:
        doc["K1"] = dirichlet.euler_K(1.0, cfg.r, cutoff=cfg.prime_cutoff).value
        doc["zeta2_times_C"] = dirichlet.zeta_real(2.0) * c_val.value
    emit_json(doc, cfg.output)
    return 0


def _cmd_dirichlet_check(cfg: argparse.Namespace) -> int:
    from . import dirichlet
    series = cfg.s - cfg.r > 1.0
    # the shifted series' budget involves zeta(r), so r = 1 omits it
    check = (dirichlet.shifted_series_residual(cfg.s, cfg.r, cutoff=cfg.prime_cutoff)
             if series and cfg.r >= 2 else None)
    closed = (check.d1_closed if check else
              dirichlet.dirichlet_d1(cfg.s, cfg.r, cutoff=cfg.prime_cutoff))
    direct = dirichlet.d1_direct(cfg.s, cfg.r)
    doc = {
        "r": cfg.r,
        "s": cfg.s,
        "d1_closed": closed.value,
        "d1_direct": direct.value,
        "d1_difference": abs(closed.value - direct.value),
        "d1_direct_truncation": direct.bound,
    }
    if check:
        doc.update({
            "shifted_direct": check.direct,
            "shifted_series_part": check.d1_part,
            "shifted_budget": check.d2_budget,
            "shifted_ok": check.residual_bound_ok,
            "dsigma_residual": check.dsigma_residual,
        })
    elif series:
        doc["dsigma_residual"] = dirichlet.dsigma_residual(cfg.s, cfg.r)
    emit_json(doc, cfg.output)
    return 0


def _cmd_saddle(cfg: argparse.Namespace) -> int:
    from . import saddle
    sp = saddle.solve_saddle(cfg.n, cfg.u, cfg.r, mode=cfg.mode)
    # mu and nu2 need the u = 1 root: sp's when u = 1, or in paper_literal, which has no u
    if cfg.u == 1.0 or cfg.mode == "paper_literal":
        mu, nu2 = saddle.mean_variance_at(sp.tau, cfg.r)
    else:
        mu, nu2 = saddle.mean_variance_saddle(cfg.n, cfg.r, mode=cfg.mode)
    emit_json({
        "n": sp.n, "r": sp.r, "u": sp.u, "mode": sp.mode,
        "tau": sp.tau, "residual": sp.residual,
        "F": sp.F_val, "F_g": sp.F_g, "F_gg": sp.F_gg, "B2": sp.F_gg,
        "theta_n": sp.theta_n, "mu": mu, "nu2": nu2,
    }, cfg.output)
    return 0


def _cmd_clt_report(cfg: argparse.Namespace) -> int:
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


def _cmd_tail(cfg: argparse.Namespace) -> int:
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


def _cmd_mgf(cfg: argparse.Namespace) -> int:
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

def _cmd_verify(cfg: argparse.Namespace) -> int:
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


class ConfigError(Exception):
    """A flag value outside its domain (exit 2).  Not a ValueError, so that
    argparse lets it out of a type= converter."""


def _checked(parse, ok, message):
    """The type= converter of one flag: parse the text, then raise
    ConfigError(message), or ConfigError(message()) for a callable, unless
    ok(value).  ok stays on the converter for the defaults, which argparse
    never runs through type=."""
    def convert(text):
        value = parse(text)
        if not ok(value):
            raise ConfigError(message() if callable(message) else message)
        return value

    convert.__name__, convert.ok = parse.__name__, ok  # argparse: "invalid int value"
    return convert


def _u_max() -> float:
    from .saddle import U_MAX  # saddle loads numpy, which only saddle's --u needs
    return U_MAX


def _add_r(p: argparse.ArgumentParser, default: int = 2) -> None:
    p.add_argument("--r", type=_checked(int, lambda r: r >= 1, "--r must be >= 1"),
                   default=default, help="divisor power (default %(default)s)")


def _add_prime_cutoff(p: argparse.ArgumentParser) -> None:
    p.add_argument("--prime-cutoff", type=_checked(int, lambda c: 100 <= c <= PRIME_CUTOFF_LIMIT,
                                                   "--prime-cutoff must be in [100, 10^8]"),
                   default=DEFAULT_PRIME_CUTOFF,
                   help="Euler-product prime cutoff (default %(default)s)")


def _add_max_negative_mass(p: argparse.ArgumentParser) -> None:
    # m >= 0 is false for NaN too; inf admits every row
    p.add_argument("--max-negative-mass", type=_checked(
                       float, lambda m: m >= 0.0,
                       "--max-negative-mass must be >= 0 (inf admits every row)"),
                   default=0.0, help="admit rows whose total negative-cell mass is at most this "
                                     "value (default %(default)s: strict positivity)")


def _theta_list(flag: str):
    """The type= converter of a theta grid flag: non-empty, every value in
    [-2, 2] (false for NaN)."""
    return _checked(_float_list, lambda ts: ts and all(abs(t) <= 2.0 for t in ts),
                    f"{flag} must be non-empty, with values in [-2, 2]")


def _add_n_list(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n-list",
                   type=_checked(_int_list,
                                 lambda ns: ns and ns[0] >= 1
                                 and all(a < b for a, b in zip(ns, ns[1:])),
                                 "--n-list must be non-empty, strictly increasing and positive"),
                   default=[50, 100, 200, 400],
                   help="comma-separated weights (default %(default)s)")


def build_parser() -> argparse.ArgumentParser:
    """The eight subcommands.  Each flag declares its default and domain
    once, here; a value outside the domain raises ConfigError as it parses."""
    parser = argparse.ArgumentParser(
        prog="divpart",
        description="Exact and asymptotic statistics of divisor-gap "
                    "restricted partitions",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("table", help="export an exact coefficient table")
    _add_r(p)
    p.add_argument("--N", dest="table_limit",
                   type=_checked(int, lambda n: n >= 0, "--N must be >= 0"),
                   default=40, help="max weight (default %(default)s)")
    p.add_argument("--format", choices=("csv", "json"), default="csv",
                   help="output format (default %(default)s)")
    p.add_argument("--output", default=None, help="path (default stdout)")

    p = sub.add_parser("constants", help="emit the derived constants as JSON")
    _add_r(p, default=1)
    _add_prime_cutoff(p)
    p.add_argument("--convention", choices=("standard", "shifted-zeta"),
                   default="standard",
                   help="-Li_s(-1) convention for C_mu/C_sigma (default %(default)s)")
    p.add_argument("--output", default=None)

    p = sub.add_parser("dirichlet-check", help="closed-vs-direct series checks")
    _add_r(p)
    p.add_argument("--s", type=_checked(float, lambda s: 1.0 < s < math.inf,
                                        "--s must be finite and > 1"),
                   default=5.0, help="Dirichlet-series argument (default %(default)s)")
    _add_prime_cutoff(p)
    p.add_argument("--output", default=None)

    p = sub.add_parser("saddle", help="solve the saddle equation at one n")
    p.add_argument("--n", type=_checked(int, lambda n: n >= 1, "saddle needs --n >= 1"),
                   required=True, help="weight")
    _add_r(p)
    p.add_argument("--u", type=_checked(
                       float, lambda u: 0.0 < u <= _u_max(),
                       lambda: f"--u must be in (0, {_u_max():g}], where the "
                               f"closed-form partials stay finite"),
                   default=1.0, help="part-count variable (default %(default)s)")
    p.add_argument("--mode", choices=("general", "paper_literal"), default="general",
                   help="saddle equation (default %(default)s)")
    p.add_argument("--output", default=None)

    p = sub.add_parser("clt-report", help="exact-vs-normal distribution report")
    _add_r(p)
    _add_n_list(p)
    _add_max_negative_mass(p)
    p.add_argument("--csv", dest="csv_output", default=None, help="CSV path (default stdout)")
    p.add_argument("--output", default=None, help="JSON summary path (default stdout)")

    p = sub.add_parser("tail", help="exact tail probabilities vs the budget")
    p.add_argument("--n", type=_checked(int, lambda n: n >= 2,
                                        "tail needs --n >= 2 (its budget divides by log n)"),
                   default=400, help="weight (default %(default)s)")
    _add_r(p)
    p.add_argument("--x-grid",
                   type=_checked(_float_list, lambda xs: xs and all(x > 0.0 for x in xs),
                                 "--x-grid must be non-empty, with positive values"),
                   default=[0.5, 1.0, 2.0],
                   help="comma-separated positive x values (default %(default)s)")
    _add_max_negative_mass(p)
    p.add_argument("--output", default=None)

    p = sub.add_parser("mgf", help="exact standardized MGF vs Gaussian target")
    p.add_argument("--n", type=_checked(int, lambda n: n >= 1, "mgf needs --n >= 1"),
                   default=200, help="weight (default %(default)s)")
    _add_r(p)
    p.add_argument("--theta-grid", type=_theta_list("--theta-grid"),
                   default=[0.25, 0.5, 1.0],
                   help="comma-separated theta in [-2,2] (default %(default)s); "
                        "write a leading negative value as --theta-grid=-1,0.5")
    _add_max_negative_mass(p)
    p.add_argument("--output", default=None)

    p = sub.add_parser("verify", help="run the cross-module invariant suite")
    p.add_argument("--quick", action="store_true", help="reduced sweep ranges")
    p.add_argument("--workers", type=_checked(int, lambda w: w >= 1, "--workers must be >= 1"),
                   default=1,
                   help="accepted for compatibility; the checks always run "
                        "one after another (default %(default)s)")
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


def main(argv: list[str] | None = None) -> int:
    # BLAS here is a few tiny products; a second OpenBLAS thread only costs start-up CPU
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    try:
        args = build_parser().parse_args(argv)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    try:
        return _DISPATCH[args.subcommand](args)
    except (ValueError, RuntimeError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
