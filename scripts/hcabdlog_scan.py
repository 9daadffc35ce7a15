#!/usr/bin/env python3
"""Scan for targets not representable as reverse(p1) + p2 and print the
representation-count histogram shape near the bottom of the range."""

import argparse
import json

from revpal import sieve
from revpal.digits import base_context
from revpal.revgoldbach import estermann_count, representations, scan_exceptions, table_limit


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--base", type=int, default=10)
    ap.add_argument("--limit", type=int, default=10 ** 6)
    ap.add_argument("--show-counts", type=int, default=20,
                    help="print representation counts for the first few targets")
    args = ap.parse_args()

    ctx = base_context(args.base)
    # estermann_count(M) reads reverses up to M - 1 for targets M <= limit;
    # 2 is the least limit build accepts
    table = sieve.build(max(2, table_limit(ctx, args.limit, args.limit - 1)))
    res = scan_exceptions(ctx, args.limit, table)
    print(json.dumps(res.to_dict()))
    for M in range(4, 4 + args.show_counts):
        if M > args.limit:
            break
        r = representations(ctx, M, table)
        h = estermann_count(ctx, M, table)
        print(f"M={M}: representations={r} prime+squarefree={h}")


if __name__ == "__main__":
    main()
