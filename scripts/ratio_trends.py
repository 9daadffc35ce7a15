#!/usr/bin/env python3
"""Empirical counts vs theoretical main terms.

Prints CountReport rows (CSV) for reversed k-free primes across digit lengths
and for k-free palindromes across x, so the convergence of the ratios toward 1
can be plotted.
"""

import argparse

from revpal import sieve
from revpal.cli import render
from revpal.digits import base_context
from revpal.experiments import count_kfree_palindromes, count_rev_kfree_primes


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--base", type=int, default=10)
    ap.add_argument("--k", type=int, default=2)
    ap.add_argument("--max-N", type=int, default=6)
    ap.add_argument("--palin-base", type=int, default=2)
    ap.add_argument("--palin-k", type=int, default=3)
    ap.add_argument("--palin-x", type=int, default=10 ** 6)
    args = ap.parse_args()

    ctx = base_context(args.base)
    limit = max(args.base ** args.max_N, args.palin_x)
    table = sieve.build(limit)

    reports = [count_rev_kfree_primes(ctx, args.k, N, table)
               for N in range(1, args.max_N + 1)]
    pctx = base_context(args.palin_base)
    x = 100
    while x <= args.palin_x:
        reports.append(count_kfree_palindromes(pctx, args.palin_k, x, table))
        x *= 10
    print(render(reports, "csv"), end="")


if __name__ == "__main__":
    main()
