"""Command-line front door.

Every subcommand is deterministic: identical flags produce byte-identical
artifacts.  Floats are therefore always emitted as decimal strings with 17
significant digits (fmt, the one float format), JSON keys are sorted, CSV
uses LF line endings, and verify's worker-count flag changes nothing.
verify has one sweep: every check of divpart.checks at its one sample.
The table export is _cmd_table's; every other report goes out through
emit_json or emit_csv.

Each handler imports the library modules it runs, so a subcommand loads
only what it uses: ``table`` never compiles ``dirichlet`` or ``saddle``,
and the parse loads neither (``saddle --u`` takes any positive finite u).

Exit codes: 0 success; 1 a runtime failure: a failed verify check, or
``error: <message>`` on stderr for a computation that raises or an --output
or --csv path that cannot be written; 2 a configuration error: a value that
its flag's type= converter refuses during the one parse, or then a table
weight past SIZE_LIMIT without --no-size-limit.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Any

from .arith import DEFAULT_PRIME_CUTOFF, PRIME_CUTOFF_LIMIT

#: Largest table weight (table --N, tail and mgf --n, the last --n-list
#: entry) taken without --no-size-limit.  At fixed r the exact table costs
#: about n^4: build_table(3, 1000) takes about 6 s, and r = 4 about 4x that.
SIZE_LIMIT = 1000


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


def emit_csv(header: list[str], rows, path: str | None, notes=()) -> None:
    """The header, a line per row, then a ``# note`` line per note; each
    cell goes through fmt, a bool as 0/1 and None as an empty cell."""
    lines = [",".join(header)]
    lines += [",".join("" if v is None else str(int(v) if isinstance(v, bool) else fmt(v))
                       for v in row) for row in rows]
    lines += [f"# {note}" for note in notes]
    emit_text("\n".join(lines) + "\n", path)


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
    # a generator: a list of the cells would raise the export's peak memory
    cells = ((n, k, c) for n, row in enumerate(tab.coeff) for k, c in enumerate(row) if c)
    # cells at large r pass Python's int-to-str limit (4,300 digits since
    # 3.11); one process runs one export, so it lifts the limit until done
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        if cfg.format == "csv":  # integer cells need no fmt call
            text = "\n".join(["n,k,coefficient", *(f"{n},{k},{c}" for n, k, c in cells)]) + "\n"
        else:  # rows are never capped in k, so "k_max" is always n_max
            text = json.dumps({"r": tab.r, "n_max": tab.n_max, "k_max": tab.n_max,
                               "entries": [[n, k, str(c)] for n, k, c in cells],
                               "row_totals": [str(t) for t in tab.row_totals]},
                              sort_keys=True, separators=(",", ":")) + "\n"
        emit_text(text, cfg.output)
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)
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
    from . import cltlab, partition
    report = cltlab.clt_report(partition.build_table(cfg.r, max(cfg.n_list)), cfg.n_list,
                               cfg.max_negative_mass)
    emit_csv(["n", "mean_exact", "var_exact", "mu_general", "nu2_general", "mu_literal",
              "nu2_literal", "ks_distance", "negativity_count", "included", "note"],
             [(row.n, row.mean_exact, row.var_exact,
               row.mu_saddle["general"], row.nu2_saddle["general"],
               row.mu_saddle["paper_literal"], row.nu2_saddle["paper_literal"],
               row.ks_distance, row.negativity_count, row.included, row.note)
              for row in report.rows], cfg.csv_output)
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
    from . import cltlab, partition
    report = cltlab.tail_report(partition.build_table(cfg.r, cfg.n), cfg.n, cfg.x_grid,
                                cfg.max_negative_mass)
    emit_csv(["x", "side", "prob", "bound", "branch", "ok"],
             [(rec.x, rec.side, rec.prob, rec.bound, rec.branch, rec.ok)
              for rec in report.records],
             cfg.output, notes=[f"finding: {finding}" for finding in report.findings])
    return 0


def _cmd_mgf(cfg: argparse.Namespace) -> int:
    from . import cltlab, partition
    profile = cltlab.mgf_profile(partition.build_table(cfg.r, cfg.n), cfg.n, cfg.theta_grid,
                                 cfg.max_negative_mass)
    rows = []
    for theta in cfg.theta_grid:
        m_est, target = profile[theta]
        rows.append((theta, m_est, target, abs(m_est - target) / target))
    emit_csv(["theta", "mgf_exact", "gauss_target", "rel_deviation"], rows, cfg.output)
    return 0


# ---------------------------------------------------------------------------
# verify: the cross-module invariant suite (defined in divpart.checks)
# ---------------------------------------------------------------------------

def _cmd_verify(cfg: argparse.Namespace) -> int:
    from . import checks
    results = checks.run()
    failures = sum(not ok for _, ok, _ in results)
    lines = [f"{'PASS' if ok else 'FAIL'} {name}: {detail}" for name, ok, detail in results]
    lines.append(f"{'OK' if failures == 0 else 'FAILED'} "
                 f"({len(results) - failures}/{len(results)} checks passed)")
    sys.stdout.write("\n".join(lines) + "\n")
    if cfg.output:
        emit_json({"checks": [{"name": name, "ok": ok, "detail": detail}
                              for name, ok, detail in results],
                   "failures": failures}, cfg.output)
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip()]


def _float_list(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip()]


class ConfigError(Exception):
    """A flag value outside its domain, or a table weight past SIZE_LIMIT
    (exit 2).  Not a ValueError, so that argparse lets it out of a type=
    converter."""


def _checked(parse, ok, message):
    """The type= converter of one flag: parse the text, then raise
    ConfigError(message) unless ok(value)."""
    def convert(text):
        value = parse(text)
        if not ok(value):
            raise ConfigError(message)
        return value

    convert.__name__ = parse.__name__  # argparse: "invalid int value"
    return convert


#: subcommand -> (the flag that sets its table weight, that weight in the
#: parsed arguments)
_SIZED = {
    "table": ("--N", lambda cfg: cfg.table_limit),
    "tail": ("--n", lambda cfg: cfg.n),
    "mgf": ("--n", lambda cfg: cfg.n),
    "clt-report": ("--n-list", lambda cfg: cfg.n_list[-1]),
}


def _check_size(cfg: argparse.Namespace) -> None:
    """ConfigError when cfg asks for a table past SIZE_LIMIT without
    --no-size-limit.  It reads what argparse kept, so the last of a
    repeated flag counts and the override may come anywhere."""
    if cfg.subcommand in _SIZED and not cfg.no_size_limit:
        flag, weight = _SIZED[cfg.subcommand]
        if weight(cfg) > SIZE_LIMIT:
            raise ConfigError(f"{flag} asks for a table of weight {weight(cfg)}, past the "
                              f"size limit {SIZE_LIMIT}; pass --no-size-limit to build it anyway")


def _add_size_override(p: argparse.ArgumentParser) -> None:
    p.add_argument("--no-size-limit", action="store_true",
                   help=f"build tables past weight {SIZE_LIMIT}, which can take minutes")


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
    once, here; a value outside the domain raises ConfigError as it parses.
    SIZE_LIMIT is not a domain: main checks it once the parse is done."""
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
    _add_size_override(p)
    p.add_argument("--format", choices=("csv", "json"), default="csv",
                   help="output format (default %(default)s)")
    p.add_argument("--output", default=None, help="path (default stdout)")

    p = sub.add_parser("constants", help="emit the derived constants as JSON")
    # growth_constants forms r!, which is a float up to r = 170
    p.add_argument("--r", type=_checked(int, lambda r: 1 <= r <= 170, "--r must be in [1, 170]"),
                   default=1, help="divisor power (default %(default)s)")
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
    p.add_argument("--u", type=_checked(float, lambda u: 0.0 < u < math.inf,
                                        "--u must be positive and finite"),
                   default=1.0, help="part-count variable (default %(default)s)")
    p.add_argument("--mode", choices=("general", "paper_literal"), default="general",
                   help="saddle equation (default %(default)s)")
    p.add_argument("--output", default=None)

    p = sub.add_parser("clt-report", help="exact-vs-normal distribution report")
    _add_r(p)
    _add_n_list(p)
    _add_size_override(p)
    _add_max_negative_mass(p)
    p.add_argument("--csv", dest="csv_output", default=None, help="CSV path (default stdout)")
    p.add_argument("--output", default=None, help="JSON summary path (default stdout)")

    p = sub.add_parser("tail", help="exact tail probabilities vs the budget")
    p.add_argument("--n", type=_checked(int, lambda n: n >= 2,
                                        "tail needs --n >= 2 (its budget divides by log n)"),
                   default=400, help="weight (default %(default)s)")
    _add_size_override(p)
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
    _add_size_override(p)
    _add_r(p)
    p.add_argument("--theta-grid", type=_theta_list("--theta-grid"),
                   default=[0.25, 0.5, 1.0],
                   help="comma-separated theta in [-2,2] (default %(default)s); "
                        "write a leading negative value as --theta-grid=-1,0.5")
    _add_max_negative_mass(p)
    p.add_argument("--output", default=None)

    p = sub.add_parser("verify", help="run the cross-module invariant suite")
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
    # divpart makes no BLAS call; a second OpenBLAS thread only costs numpy's start-up CPU
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    try:
        args = build_parser().parse_args(argv)
        _check_size(args)
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
