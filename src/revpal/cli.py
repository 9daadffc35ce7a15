"""Command-line front end.  One subcommand per library operation; output is
JSON, CSV, or human-readable text with 12-significant-digit floats.

Exit codes: 0 success, 1 computational failure (e.g. certification failed),
2 usage error.
"""

import argparse
import json
import os
import sys
import time
from pathlib import Path

from . import densities, experiments, revgoldbach, sieve, verifier
from .digits import base_context, reverse
from .experiments import CountReport, reports_to_csv, reports_to_json
from .verifier import Certificate

CACHE_ENV = "REVPAL_SIEVE_CACHE"


class UsageError(Exception):
    pass


def _fmt(x: float) -> str:
    return format(x, ".12g")


def _get_table(limit: int) -> sieve.FactorTable:
    cache_dir = os.environ.get(CACHE_ENV)
    if cache_dir:
        path = Path(cache_dir) / f"sieve_{limit}.bin"
        if path.exists():
            table = sieve.load_cache(path)
            if table.limit != limit:
                raise ValueError(f"{path} holds a table to {table.limit}, not {limit}")
            return table
        table = sieve.build(limit)
        path.parent.mkdir(parents=True, exist_ok=True)
        sieve.save_cache(table, path)
        return table
    return sieve.build(limit)


def _write(text: str, path: str | None, out=None):
    """The one place command results leave the program: the file at path if
    given, else out, which defaults to sys.stdout as it is at call time."""
    if path:
        Path(path).write_text(text)
    else:
        (sys.stdout if out is None else out).write(text)


def _format_records(records: list, fmt: str) -> str:
    """Serialize CountReports or Certificates with a fixed field order."""
    if not records:
        raise UsageError("nothing to emit: empty record list")
    if isinstance(records[0], CountReport):
        if fmt == "csv":
            return reports_to_csv(records)
        if fmt == "json":
            return reports_to_json(records) + "\n"
        lines = [
            f"{d['label']}: b={d['b']} k={d['k']} N_or_x={d['N_or_x']} d={d['d']} "
            f"empirical={d['empirical']} main_term={_fmt(d['main_term'])} "
            f"ratio={'-' if d['ratio'] is None else _fmt(d['ratio'])}"
            for d in (r.to_dict() for r in records)
        ]
    elif isinstance(records[0], Certificate):
        if fmt == "csv":
            lines = [",".join(Certificate.KEYS)] + [",".join(
                _fmt(v) if isinstance(v, float) else str(v) for v in c.to_dict().values())
                for c in records]
        elif fmt == "json":
            lines = [c.to_json() for c in records]
        else:
            lines = [
                f"b={c.b} K={c.K} max_bound={_fmt(c.max_bound)} "
                f"threshold={_fmt(c.threshold)} passed={c.passed} "
                f"alpha={_fmt(c.alpha_estimate)}"
                for c in records
            ]
    else:
        raise UsageError(f"cannot emit records of type {type(records[0]).__name__}")
    return "\n".join(lines) + "\n"


def emit_report(records: list, fmt: str, path: str | None, out=None):
    """Serialize CountReports or Certificates and write them with _write."""
    _write(_format_records(records, fmt), path, out)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="revpal", description=__doc__)
    sub = p.add_subparsers(dest="cmd", required=True)

    def common(sp, base=True):
        if base:
            sp.add_argument("--base", type=int, default=10)
        sp.add_argument("--format", choices=["json", "csv", "human"], default="json")
        sp.add_argument("--output", default=None)

    sp = sub.add_parser("reverse", help="digital reverse of n")
    sp.add_argument("--base", type=int, default=10)
    sp.add_argument("--n", type=int, required=True)

    sp = sub.add_parser("palindromes", help="enumerate P_b(x) or P*_b(x)")
    common(sp)
    sp.add_argument("--x", type=int, required=True)
    sp.add_argument("--star", action="store_true")

    sp = sub.add_parser("count-rev-kfree", help="r_{b,k}(N) with main term")
    common(sp)
    sp.add_argument("--k", type=int, default=2)
    sp.add_argument("--N", type=int, required=True)

    sp = sub.add_parser("rev-pi-star", help="primes with d | reverse, with main term")
    common(sp)
    sp.add_argument("--N", type=int, required=True)
    sp.add_argument("--d", type=int, required=True)

    sp = sub.add_parser("count-palin-kfree", help="k-free members of P*_b(x)")
    common(sp)
    sp.add_argument("--k", type=int, default=3)
    sp.add_argument("--x", type=int, required=True)

    sp = sub.add_parser("palin-div", help="palindromes <= x divisible by d")
    common(sp)
    sp.add_argument("--x", type=int, required=True)
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--star", action="store_true")

    sp = sub.add_parser("almost-prime", help="palindromes with few prime factors")
    common(sp)
    sp.add_argument("--x", type=int, required=True)
    sp.add_argument("--omega-max", type=int, required=True)
    sp.add_argument("--kfree-k", type=int, default=None)
    sp.add_argument("--rough-exponent", type=float, default=None)

    sp = sub.add_parser("sqrt-law", help="palindrome counts normalized by sqrt(x)")
    common(sp)
    sp.add_argument("--x", type=int, nargs="+", required=True)
    sp.add_argument("--star", action="store_true")

    sp = sub.add_parser("certify", help="certify one base")
    common(sp, base=False)
    sp.add_argument("--b", type=int, required=True)
    sp.add_argument("--K", type=int, required=True)
    sp.add_argument("--slack", type=float, default=verifier.DEFAULT_SLACK)

    sp = sub.add_parser("certify-range", help="certify every base in [b0, b1]")
    common(sp, base=False)
    sp.add_argument("--b0", type=int, required=True)
    sp.add_argument("--b1", type=int, required=True)
    sp.add_argument("--K", type=int, required=True)
    sp.add_argument("--slack", type=float, default=verifier.DEFAULT_SLACK)
    sp.add_argument("--workers", type=int, default=1)
    sp.add_argument("--timing", action="store_true",
                    help="append wall-clock seconds to stderr")

    sp = sub.add_parser("find-min-k", help="smallest passing K for one base")
    sp.add_argument("--b", type=int, required=True)
    sp.add_argument("--k-max", type=int, required=True)
    sp.add_argument("--slack", type=float, default=verifier.DEFAULT_SLACK)

    sp = sub.add_parser("f-eval", help="evaluate the capped reciprocal-sine sum")
    sp.add_argument("--b", type=int, required=True)
    sp.add_argument("--theta", type=float, required=True)

    sp = sub.add_parser("hcabdlog", help="scan for unrepresentable targets")
    common(sp)
    sp.add_argument("--limit", type=int, required=True)

    sp = sub.add_parser("estermann", help="prime + squarefree representation count")
    common(sp)
    sp.add_argument("--M", type=int, required=True)

    sp = sub.add_parser("main-term", help="theoretical main terms")
    sp.add_argument("--base", type=int, default=10)
    sp.add_argument("--which", choices=["rev-kfree", "rev-pi", "kfree-density", "zeta"],
                    required=True)
    sp.add_argument("--k", type=int, default=2)
    sp.add_argument("--N", type=int, default=None)
    sp.add_argument("--d", type=int, default=None)
    return p


def dispatch(args: argparse.Namespace, out=None) -> int:
    """Run the subcommand in args, write its output with _write, return the exit code."""
    # certify, find-min-k and f-eval take the base as --b; certify-range takes none
    b = getattr(args, "base", getattr(args, "b", None))
    ctx = base_context(b) if b is not None else None
    cmd, code = args.cmd, 0
    if cmd == "reverse":
        text = f"{reverse(args.n, ctx)}\n"
    elif cmd == "palindromes":
        pal = experiments.enumerate_palindromes(ctx, args.x, star=args.star).tolist()
        text = (json.dumps(pal) if args.format != "human" else " ".join(map(str, pal))) + "\n"
    elif cmd == "count-rev-kfree":
        rep = experiments.count_rev_kfree_primes(ctx, args.k, args.N, _get_table(ctx.b ** args.N))
        text = _format_records([rep], args.format)
    elif cmd == "rev-pi-star":
        rep = experiments.rev_pi_star(ctx, args.N, args.d, _get_table(ctx.b ** args.N))
        text = _format_records([rep], args.format)
    elif cmd == "count-palin-kfree":
        rep = experiments.count_kfree_palindromes(ctx, args.k, args.x, _get_table(args.x))
        text = _format_records([rep], args.format)
    elif cmd == "palin-div":
        text = f"{experiments.count_palindromes_div_by(ctx, args.x, args.d, star=args.star)}\n"
    elif cmd == "almost-prime":
        c = experiments.count_almost_prime_palindromes(
            ctx, args.x, args.omega_max, kfree_k=args.kfree_k,
            rough_exponent=args.rough_exponent, table=_get_table(args.x))
        text = f"{c}\n"
    elif cmd == "sqrt-law":
        rows = experiments.sqrt_law_check(ctx, args.x, star=args.star)
        if args.format == "csv":
            text = "x,count,count_over_sqrt_x\n" + "\n".join(
                f"{x},{c},{_fmt(r)}" for x, c, r in rows) + "\n"
        else:
            text = json.dumps([{"x": x, "count": c, "normalized": r} for x, c, r in rows]) + "\n"
    elif cmd == "certify":
        cert = verifier.certify_base(ctx, args.K, args.slack)
        text, code = _format_records([cert], args.format), 0 if cert.passed else 1
    elif cmd == "certify-range":
        t0 = time.monotonic()
        certs = verifier.certify_range(args.b0, args.b1, args.K,
                                       slack=args.slack, workers=args.workers)
        elapsed = time.monotonic() - t0
        passed = all(c.passed for c in certs)
        code = 0 if passed else 1
        if args.format == "csv":
            # summary row in the shape of the published table
            text = ("b0,b1,K,all_passed,wall_clock_seconds\n"
                    f"{args.b0},{args.b1},{args.K},{passed},{elapsed:.3f}\n")
        else:
            text = _format_records(certs, args.format)
        if args.timing:
            print(f"wall_clock_seconds={elapsed:.3f}", file=sys.stderr)
    elif cmd == "find-min-k":
        k = verifier.find_min_K(ctx, args.k_max, args.slack)
        text = json.dumps({"b": args.b, "K_max": args.k_max, "min_K": k}) + "\n"
        code = 0 if k is not None else 1
    elif cmd == "f-eval":
        text = _fmt(verifier.f_eval(ctx, args.theta)) + "\n"
    elif cmd == "hcabdlog":
        table = _get_table(max(args.limit, revgoldbach.prime_bound(ctx, args.limit - 2)))
        text = revgoldbach.scan_exceptions(ctx, args.limit, table).to_json() + "\n"
    elif cmd == "estermann":
        table = _get_table(max(args.M, revgoldbach.prime_bound(ctx, args.M - 1)))
        text = f"{revgoldbach.estermann_count(ctx, args.M, table)}\n"
    elif cmd == "main-term":
        if args.which == "zeta":
            v = densities.zeta(args.k)
        elif args.which == "kfree-density":
            v = densities.kfree_density(ctx, args.k)
        elif args.which == "rev-kfree":
            if args.N is None:
                raise UsageError("--N is required for rev-kfree")
            v = densities.rev_kfree_main_term(ctx, args.k, args.N)
        else:
            if args.N is None or args.d is None:
                raise UsageError("--N and --d are required for rev-pi")
            v = densities.rev_pi_main_term(ctx, args.d, args.N)
        text = _fmt(v) + "\n"
    else:
        raise UsageError(f"unknown subcommand {cmd}")
    _write(text, getattr(args, "output", None), out)
    return code


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return dispatch(args)
    except (UsageError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
