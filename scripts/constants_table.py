#!/usr/bin/env python3
"""Sweep the derived constants over a range of divisor powers and print
a plot-ready CSV: the Euler products, the aggregate derivative constant,
and the mean/variance prefactors under both alternating-sum conventions.

Example:
    python scripts/constants_table.py --r-max 6 --prime-cutoff 1000000
"""

import argparse

from divpart import cli
from divpart import dirichlet as dl


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    # growth_constants needs 2 <= r <= 170
    ap.add_argument("--r-min", type=cli._checked(int, lambda r: r >= 2, "--r-min must be >= 2"),
                    default=2)
    ap.add_argument("--r-max", type=cli._checked(int, lambda r: r <= 170, "--r-max must be <= 170"),
                    default=6)
    cli._add_prime_cutoff(ap)
    try:
        args = ap.parse_args()
    except cli.ConfigError as exc:  # a flag outside its domain
        ap.error(str(exc))

    print("r,C,Cprime,K1,E1,N,C_mu_standard,C_mu_shifted,C_sigma_standard,C_sigma_shifted")
    for r in range(args.r_min, args.r_max + 1):
        c = dl.constant_C(r, cutoff=args.prime_cutoff).value
        gc = dl.growth_constants(r, cutoff=args.prime_cutoff)
        print(
            f"{r},{c:.12g},{gc.Cprime:.12g},{gc.K1:.12g},{gc.E1:.12g},"
            f"{gc.N:.12g},{gc.C_mu['standard']:.12g},{gc.C_mu['shifted-zeta']:.12g},"
            f"{gc.C_sigma['standard']:.12g},{gc.C_sigma['shifted-zeta']:.12g}"
        )


if __name__ == "__main__":
    main()
