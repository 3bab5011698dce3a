#!/usr/bin/env python3
"""End-to-end distribution experiment: build the exact table once, then
report per-weight mean/variance (exact and both saddle forms), KS
distances, MGF deviations, negativity diagnostics, and the growth-
exponent fits.

The signed-row override is what makes the r = 2 runs informative: the
strict positivity rule excludes every weight past 15 there, while the
override keeps rows whose signed defect is provably negligible.

Example:
    python scripts/clt_experiment.py --r 2 --n-list 50,100,200,400 \
        --max-negative-mass 0.01
"""

import argparse
import math

from divpart import cli, cltlab, partition


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    cli._add_r(ap)
    cli._add_n_list(ap)  # an experiment asks for its own sizes: no size guard
    cli._add_max_negative_mass(ap)
    ap.add_argument("--theta", type=cli._theta_list("--theta"), default=[0.25, 0.5])
    try:
        args = ap.parse_args()
    except cli.ConfigError as exc:  # a flag outside its domain
        ap.error(str(exc))

    table = partition.build_table(args.r, max(args.n_list))
    report = cltlab.clt_report(table, args.n_list, args.max_negative_mass)

    print("n,mean_exact,var_exact,mu_general,nu2_general,mu_literal,nu2_literal,"
          "ks,neg_cells,included,note")
    for row in report.rows:
        ks = f"{row.ks_distance:.6f}" if row.ks_distance is not None else ""
        print(f"{row.n},{row.mean_exact:.6f},{row.var_exact:.6f},"
              f"{row.mu_saddle['general']:.6f},{row.nu2_saddle['general']:.6f},"
              f"{row.mu_saddle['paper_literal']:.6g},"
              f"{row.nu2_saddle['paper_literal']:.6g},"
              f"{ks},{row.negativity_count},{int(row.included)},{row.note}")

    print(f"# excluded: {report.excluded} (count {report.exclusion_count})")
    if report.exponent_fit_mean is not None:
        limit = args.r / (args.r + 1)
        band = (args.r + 1) / (args.r + 2)
        print(f"# exponent fits: mean {report.exponent_fit_mean:.4f}, "
              f"var {report.exponent_fit_var:.4f} (limit r/(r+1) = {limit:.4f}; "
              f"tested band (r+1)/(r+2) +- 0.1 = {band:.4f} +- 0.1)")

    for n in args.n_list:
        try:
            profile = cltlab.mgf_profile(table, n, args.theta, args.max_negative_mass)
        except ValueError as exc:
            print(f"# mgf n={n}: {exc}")
            continue
        devs = ", ".join(
            f"theta={t}: |M - target| = {abs(m - g):.3e}"
            for t, (m, g) in sorted(profile.items())
        )
        print(f"# mgf n={n}: {devs}")

    tails = cltlab.tail_report(table, max(args.n_list), [1.0, 2.0], args.max_negative_mass)
    if tails.refused:
        print(f"# tail n={tails.n}: refused ({tails.findings[0]})")
    else:
        for rec in tails.records:
            print(f"# tail n={tails.n} x={rec.x} {rec.side}: prob={rec.prob:.4e} "
                  f"bound={rec.bound:.4e} [{rec.branch}] ok={rec.ok}")


if __name__ == "__main__":
    main()
