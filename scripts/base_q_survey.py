#!/usr/bin/env python3
"""Survey of base-q vs base-p period counts.

For extension fields F_{q^m} with q = p^d, the inverted exponent can be
split along base-q digits (when the stricter side conditions hold) or
along base-p digits of the flattened field F_{p^{dm}}.  The number of
periodic blocks n drives the product count of the doubling chain, and
the base-p count n' is never smaller.  This script scans a grid and
prints every instance where both splits exist, flagging the strict ones.
"""

import argparse
import sys

from rootfield.periodic import (ConditionsUnmet, NotCoprime, PeriodTooLong,
                                decompose_base_q)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--q", default="4,8,9,16,25,27,32,49",
                    help="comma list of prime powers (default: %(default)s)")
    ap.add_argument("--max-m", type=int, default=12)
    ap.add_argument("--r", default="2,3,5,7,11,13",
                    help="comma list of root degrees (default: %(default)s)")
    args = ap.parse_args()

    qs = [int(tok) for tok in args.q.split(",")]
    rs = [int(tok) for tok in args.r.split(",")]

    print(f"{'q':>4} {'m':>3} {'r':>3} {'case':>9} {'k':>3} {'k_p':>4} "
          f"{'n':>3} {'n_p':>4}")
    strict = total = 0
    for q in qs:
        for m in range(2, args.max_m + 1):
            for r in rs:
                try:
                    bq = decompose_base_q(q, m, r)
                except (ConditionsUnmet, PeriodTooLong, NotCoprime,
                        ValueError):
                    continue
                total += 1
                mark = ""
                if bq.n_prime > bq.n:
                    strict += 1
                    mark = "  <- strict"
                case = "ramified" if (q - 1) % r == 0 else "coprime"
                print(f"{q:>4} {m:>3} {r:>3} {case:>9} "
                      f"{bq.k_base:>3} {bq.k_prime:>4} {bq.n:>3} "
                      f"{bq.n_prime:>4}{mark}")
    print(f"\n{total} instances, {strict} with n' strictly larger")
    return 0


if __name__ == "__main__":
    sys.exit(main())
