#!/usr/bin/env python3
"""Scan the far-arc suppression of the weighted product: log of
|Q(e^(-tau - i theta), u)| / Q(e^(-tau), u) over a (tau, theta) grid,
plot-ready CSV.  The log collapses like -c tau^(-r/7) at theta = pi.
A closing ``# tau = ...`` line per tau gives the supremum of the log over
the arc tau^(1 + 3r/7) <= theta <= pi (saddle.minor_arc_sup), which turns
positive near pi past n*(r).

Example:
    python scripts/minor_arc_scan.py --r 2 --u 1.0
"""

import argparse
import math

from divpart import cli, saddle


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    cli._add_r(ap)
    ap.add_argument("--u", type=cli._checked(float, lambda u: 0.0 < u < math.inf,
                                             "--u must be positive and finite"),
                    default=1.0)
    ap.add_argument("--tau", type=cli._checked(cli._float_list,
                                               lambda ts: ts and all(0.0 < t < math.inf for t in ts),
                                               "--tau must be non-empty, with positive finite values"),
                    default=[0.2, 0.1, 0.05, 0.02])
    ap.add_argument("--theta-steps", type=cli._checked(int, lambda n: n >= 1,
                                                       "--theta-steps must be >= 1"),
                    default=8)
    try:
        args = ap.parse_args()
    except cli.ConfigError as exc:  # a flag outside its domain
        ap.error(str(exc))

    print("tau,theta,log_ratio,scaled_by_tau_pow")
    notes = []
    for tau in args.tau:
        theta_lo = tau ** (1.0 + 3.0 * args.r / 7.0)
        for i in range(1, args.theta_steps + 1):
            theta = theta_lo + (math.pi - theta_lo) * i / args.theta_steps
            log_ratio = saddle.minor_arc_log_ratio(tau, theta, args.u, args.r)
            scaled = log_ratio * tau ** (args.r / 7.0)
            print(f"{tau},{theta:.6f},{log_ratio:.6e},{scaled:.6e}")
        try:
            theta, sup = saddle.minor_arc_sup(tau, args.u, args.r)
            notes.append(f"tau = {tau}: sup log_ratio = {sup:.6e} at theta = {theta:.6f}")
        except ValueError as exc:  # tau so large that the arc is empty
            notes.append(f"tau = {tau}: {exc}")
    for note in notes:
        print(f"# {note}")


if __name__ == "__main__":
    main()
