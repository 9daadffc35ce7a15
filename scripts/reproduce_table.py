#!/usr/bin/env python3
"""Re-run the base-range certification table and report wall-clock times.

Each row certifies every base in [b0, b1] with the listed segment count K
and prints whether all passed, the seconds taken and the row's thinnest
margin, the least threshold / max_bound - 1 over its bases.
The full sweep covers 26000 <= b <= 31698 and takes about 3.4 s on one
worker (rows 1.8 / 1.3 / 0.2 / 0.1 s, on a 2-core VM with Python 3.11
and numpy 2.4); pass --quick to spot-check the first and last 3 bases of
each row instead, which takes under a second.
"""

import argparse
import time

from revpal.verifier import certify_range

ROWS = [
    (28500, 31698, 8),
    (26500, 28499, 34),
    (26100, 26499, 122),
    (26000, 26099, 367),
]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--quick", action="store_true",
                    help="certify only the first and last 3 bases of each row")
    ap.add_argument("--workers", type=int, default=1)
    args = ap.parse_args()

    print(f"{'b0':>6} {'b1':>6} {'K':>4} {'all_passed':>10} {'seconds':>8} {'min_margin':>10}")
    for b0, b1, K in ROWS:
        t0 = time.monotonic()
        if args.quick:
            certs = (certify_range(b0, min(b0 + 2, b1), K, workers=args.workers)
                     + certify_range(max(b1 - 2, b0), b1, K, workers=args.workers))
        else:
            certs = certify_range(b0, b1, K, workers=args.workers)
        dt = time.monotonic() - t0
        margin = min(c.threshold / c.max_bound - 1 for c in certs)
        print(f"{b0:>6} {b1:>6} {K:>4} {str(all(c.passed for c in certs)):>10} {dt:>8.1f} "
              f"{margin:>10.2e}")


if __name__ == "__main__":
    main()
