#!/usr/bin/env python3
"""Probe the empirical stabilization depth of the one-variable recursion.

The solver iterates until the window-truncated update stops moving; the
depth at which that happens is an observation about the window, not part
of any reported result.  This sweep records it across cases, primes, and
window radii so the iteration cap (`windows._MAX_DEPTH`) can be
sanity-checked.  At --prec 0 the solver raises PrecisionExhausted: no digit
is left to certify a fixed point.
"""

import argparse

from endolift.series import SeriesContext
from endolift.windows import CaseDescriptor, solve_vertical_recursion


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--primes", default="3,5", help="comma-separated odd primes")
    ap.add_argument("--radius-powers", default="2,3,4", help="x1 window radii, as powers of p")
    ap.add_argument("--prec", type=int, default=8)
    args = ap.parse_args()
    primes = [int(x) for x in args.primes.split(",")]
    powers = [int(x) for x in args.radius_powers.split(",")]

    print(f"{'case':<5} {'p':>3} {'radius':>8} {'depth':>6} stabilized")
    for label in ("unr", "ram"):
        for p in primes:
            case = CaseDescriptor.from_label(label, p)
            for e in powers:
                r = p**e  # the one-variable box of `one_variable_context`, at radius r
                ctx = SeriesContext(p, args.prec, -r, r, 1)
                sol = solve_vertical_recursion(case, ctx)
                print(f"{label:<5} {p:>3} {p**e:>8} {sol.depth:>6} {sol.stabilized}")


if __name__ == "__main__":
    main()
