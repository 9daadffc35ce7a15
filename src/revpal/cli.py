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
from .experiments import CountReport
from .verifier import Certificate

CACHE_ENV = "REVPAL_SIEVE_CACHE"


def _fmt(x: float) -> str:
    return format(x, ".12g")


def _get_table(limit: int, *_checked) -> sieve.FactorTable:
    # _checked: the values of the library's argument checks for the call the
    # table feeds, passed so that they run, and raise, before it is built
    limit = max(2, limit)  # the least limit build accepts
    cache_dir = os.environ.get(CACHE_ENV)
    if not cache_dir:
        return sieve.build(limit)
    path = Path(cache_dir) / f"sieve_{limit}.bin"
    try:
        table = sieve.load_cache(path)
    except (FileNotFoundError, sieve.CacheVersionError):
        pass  # no file yet, or one of another format version: build and replace it
    else:
        if table.limit != limit:
            raise ValueError(f"{path} holds a table to {table.limit}, not {limit}")
        return table
    table = sieve.build(limit)
    path.parent.mkdir(parents=True, exist_ok=True)
    sieve.save_cache(table, path)
    return table


def _cell(v) -> str:
    return "" if v is None else _fmt(v) if isinstance(v, float) else str(v)


_HUMAN = {
    CountReport: lambda d: (
        f"{d['label']}: b={d['b']} k={d['k']} N_or_x={d['N_or_x']} d={d['d']} "
        f"empirical={d['empirical']} main_term={_fmt(d['main_term'])} "
        f"ratio={'-' if d['ratio'] is None else _fmt(d['ratio'])}"),
    Certificate: lambda d: (
        f"b={d['b']} K={d['K']} max_bound={_fmt(d['max_bound'])} "
        f"threshold={_fmt(d['threshold'])} passed={d['passed']} "
        f"alpha={_fmt(d['alpha_estimate'])}"),
}


def render(records: list, fmt: str) -> str:
    """The text of CountReports, Certificates, or dicts with the same keys.

    csv: the keys, then one line per record, in which None is empty, a float
    has 12 significant digits and anything else is str().  json: one array,
    except certificates, one object per line.  human: one line per record.
    """
    rows = [r if isinstance(r, dict) else r.to_dict() for r in records]
    if fmt == "csv":
        return "".join(",".join(map(_cell, r)) + "\n" for r in [rows[0], *map(dict.values, rows)])
    if fmt == "json":
        if isinstance(records[0], Certificate):
            return "".join(json.dumps(r) + "\n" for r in rows)
        return json.dumps(rows) + "\n"
    return "".join(_HUMAN[type(records[0])](r) + "\n" for r in rows)


def _palindromes(a, ctx) -> str:
    pal = experiments.enumerate_palindromes(ctx, a.x, star=a.star).tolist()
    return (json.dumps(pal) if a.format == "json" else " ".join(map(str, pal))) + "\n"


def _sqrt_law(a, ctx) -> str:
    keys = ("x", "count", "normalized" if a.format == "json" else "count_over_sqrt_x")
    rows = experiments.sqrt_law_check(ctx, a.x, star=a.star)
    return render([dict(zip(keys, row)) for row in rows], a.format)


def _certify(a, ctx) -> tuple[str, int]:
    cert = verifier.certify_base(ctx, a.K)
    return render([cert], a.format), int(not cert.passed)


def _certify_range(a, ctx) -> tuple[str, int]:
    t0 = time.monotonic()
    certs = verifier.certify_range(a.b0, a.b1, a.K, workers=a.workers)
    passed = all(c.passed for c in certs)
    if a.format == "csv":  # one summary row in the shape of the published table
        certs = [{"b0": a.b0, "b1": a.b1, "K": a.K, "all_passed": passed,
                  "wall_clock_seconds": f"{time.monotonic() - t0:.3f}"}]
    return render(certs, a.format), int(not passed)


def _find_min_k(a, ctx) -> tuple[str, int]:
    k = verifier.find_min_K(ctx, a.k_max)
    return json.dumps({"b": a.b, "K_max": a.k_max, "min_K": k}) + "\n", int(k is None)


def _main_term(a, ctx) -> str:
    if a.which == "zeta":
        v = densities.zeta(a.k)
    elif a.which == "kfree-density":
        v = densities.kfree_density(ctx, a.k)
    elif a.which == "rev-kfree":
        if a.N is None:
            raise ValueError("--N is required for rev-kfree")
        v = densities.rev_kfree_main_term(ctx, a.k, a.N)
    else:
        if a.N is None or a.d is None:
            raise ValueError("--N and --d are required for rev-pi")
        v = densities.rev_pi_main_term(ctx, a.d, a.N)
    return _fmt(v) + "\n"


def _num(flag: str, type=int, **kw) -> tuple[str, dict]:
    """A numeric option, required unless it has a default."""
    return flag, {"type": type, "required": "default" not in kw, **kw}


def _forms(*choices: str) -> tuple[str, dict]:
    return "--format", {"choices": choices, "default": "json"}


BASE = _num("--base", default=10)
OUTPUT = "--output", {}
STAR = "--star", {"action": "store_true"}
RECORD_FORMS = _forms("json", "csv", "human")

# every subcommand, declared once: name: (help, options, handler).  A handler
# takes the parsed arguments and the base context, and returns its text, or
# its text and an exit code
COMMANDS = {
    "reverse": ("digital reverse of n", [BASE, _num("--n")],
                lambda a, ctx: f"{reverse(a.n, ctx)}\n"),
    "palindromes": ("enumerate P_b(x) or P*_b(x)",
                    [BASE, _forms("json", "human"), OUTPUT, _num("--x"), STAR], _palindromes),
    "count-rev-kfree": (
        "r_{b,k}(N) with main term",
        [BASE, RECORD_FORMS, OUTPUT, _num("--k", default=2), _num("--N")],
        lambda a, ctx: render([experiments.count_rev_kfree_primes(ctx, a.k, a.N, _get_table(
            ctx.b ** a.N, densities.rev_kfree_main_term(ctx, a.k, a.N)))], a.format)),
    "rev-pi-star": (
        "primes with d | reverse, with main term",
        [BASE, RECORD_FORMS, OUTPUT, _num("--N"), _num("--d")],
        lambda a, ctx: render([experiments.rev_pi_star(ctx, a.N, a.d, _get_table(
            ctx.b ** a.N, densities.rev_pi_main_term(ctx, a.d, a.N)))], a.format)),
    "count-palin-kfree": (
        "k-free members of P*_b(x)",
        [BASE, RECORD_FORMS, OUTPUT, _num("--k", default=3), _num("--x")],
        lambda a, ctx: render([experiments.count_kfree_palindromes(ctx, a.k, a.x, _get_table(
            a.x, densities.palin_kfree_main_term(ctx, a.k, 0)))], a.format)),
    "palin-div": (
        "palindromes <= x divisible by d", [BASE, OUTPUT, _num("--x"), _num("--d"), STAR],
        lambda a, ctx: f"{experiments.count_palindromes_div_by(ctx, a.x, a.d, star=a.star)}\n"),
    "almost-prime": (
        "palindromes with few prime factors",
        [BASE, OUTPUT, _num("--x"), _num("--omega-max"), _num("--kfree-k", default=None),
         _num("--rough-exponent", float, default=None)],
        lambda a, ctx: str(experiments.count_almost_prime_palindromes(
            ctx, a.x, a.omega_max, a.kfree_k, a.rough_exponent, table=_get_table(
                a.x, experiments._check_almost_prime(a.omega_max, a.kfree_k, a.rough_exponent)))) + "\n"),
    "sqrt-law": ("palindrome counts normalized by sqrt(x)",
                 [BASE, _forms("json", "csv"), OUTPUT, _num("--x", nargs="+"), STAR], _sqrt_law),
    "certify": ("certify one base", [RECORD_FORMS, OUTPUT, _num("--b"), _num("--K")], _certify),
    "certify-range": (
        "certify every base in [b0, b1]",
        [RECORD_FORMS, OUTPUT, _num("--b0"), _num("--b1"), _num("--K"),
         _num("--workers", default=1)],
        _certify_range),
    "find-min-k": ("smallest passing K for one base", [_num("--b"), _num("--k-max")],
                   _find_min_k),
    "f-eval": ("evaluate the capped reciprocal-sine sum", [_num("--b"), _num("--theta", float)],
               lambda a, ctx: _fmt(verifier.f_eval(ctx, a.theta)) + "\n"),
    "hcabdlog": (
        "scan for unrepresentable targets", [BASE, OUTPUT, _num("--limit")],
        lambda a, ctx: json.dumps(revgoldbach.scan_exceptions(ctx, a.limit, _get_table(
            revgoldbach.table_limit(ctx, a.limit, a.limit - 2))).to_dict()) + "\n"),
    "estermann": (
        "prime + squarefree representation count", [BASE, OUTPUT, _num("--M")],
        lambda a, ctx: str(revgoldbach.estermann_count(ctx, a.M, _get_table(
            revgoldbach.table_limit(ctx, a.M, a.M - 1)))) + "\n"),
    "main-term": (
        "theoretical main terms",
        [BASE, ("--which", {"choices": ["rev-kfree", "rev-pi", "kfree-density", "zeta"],
                            "required": True}),
         _num("--k", default=2), _num("--N", default=None), _num("--d", default=None)],
        _main_term),
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="revpal", description=__doc__)
    sub = p.add_subparsers(dest="cmd", required=True)
    for name, (help_text, options, _) in COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        for flag, kw in options:
            sp.add_argument(flag, **kw)
    return p


def dispatch(args: argparse.Namespace) -> int:
    """Run the subcommand in args and return its exit code.  Its text goes to
    the file --output names, if any, else to sys.stdout as it is at call time."""
    # the base is --base, or --b where a command works on one base only
    b = getattr(args, "base", getattr(args, "b", None))
    result = COMMANDS[args.cmd][2](args, base_context(b) if b is not None else None)
    text, code = result if isinstance(result, tuple) else (result, 0)
    if getattr(args, "output", None):
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)
    return code


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return dispatch(args)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
