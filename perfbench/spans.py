"""In-memory span tracer for the benchmark's traced run.

Spans are recorded around calls into revpal's modules by swapping each traced
function, and every alias of it inside the ``revpal`` package, for a timing
wrapper while the traced passes run; nothing under ``src/`` changes. A span
keeps its name, start, end, the span that caused it, and the work counted at
that boundary. Spans stay in memory and are reduced to per-layer metrics when
the run ends.
"""

import statistics
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np


@dataclass(eq=False)
class Span:
    name: str
    parent: "Span | None"
    start: float = 0.0
    end: float = 0.0
    count: int = 0    # elements handled at this boundary
    nbytes: int = 0   # bytes computed from the array sizes crossing it

    @property
    def duration(self) -> float:
        return self.end - self.start

    def under(self, name: str) -> bool:
        s = self.parent
        while s is not None:
            if s.name == name:
                return True
            s = s.parent
        return False


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    def _open(self, name: str) -> Span:
        span = Span(name, self._stack[-1] if self._stack else None)
        self._stack.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span):
        span.end = time.perf_counter()
        self._stack.pop()
        self.spans.append(span)

    @contextmanager
    def span(self, name: str):
        s = self._open(name)
        try:
            yield s
        finally:
            self._close(s)

    def wrap(self, fn, name, measure=None):
        def traced(*args, **kwargs):
            s = self._open(name(args, kwargs) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(s)
            if measure is not None:
                s.count, s.nbytes = measure(args, result)
            return result

        traced.__wrapped__ = fn
        return traced


def _table_bytes(args, table):
    return 1, sum(v.nbytes for v in vars(table).values() if isinstance(v, np.ndarray))


def _length(args, result):
    return len(result), 0


def _grid_io(args, result):
    x = np.asarray(args[0])
    return x.size, x.nbytes + np.asarray(result).nbytes


def _certify_name(args, kwargs):
    return f"verifier.certify_base.K{kwargs['K'] if 'K' in kwargs else args[1]}"


# (module, attribute, span name, measure). The grid kernel is private; its
# inputs are counted at the call so a smaller grid shows as fewer evaluations.
TARGETS = [
    ("revpal.sieve", "build", "sieve.build", _table_bytes),
    ("revpal.sieve", "load_cache", "sieve.load_cache", _table_bytes),
    ("revpal.sieve", "FactorTable.prime_flags", "sieve.prime_flags", None),
    ("revpal.sieve", "is_k_free", "sieve.is_k_free", None),
    ("revpal.densities", "rev_kfree_main_term", "densities.main_term", None),
    ("revpal.densities", "rev_pi_main_term", "densities.main_term", None),
    ("revpal.densities", "palin_kfree_main_term", "densities.main_term", None),
    ("revpal.experiments", "enumerate_palindromes", "experiments.enumerate_palindromes", _length),
    ("revpal.experiments", "count_rev_kfree_primes", "experiments.count_rev_kfree_primes", None),
    ("revpal.experiments", "rev_pi_star", "experiments.rev_pi_star", None),
    ("revpal.experiments", "count_kfree_palindromes", "experiments.count_kfree_palindromes", None),
    ("revpal.experiments", "count_almost_prime_palindromes",
     "experiments.count_almost_prime_palindromes", None),
    ("revpal.verifier", "certify_base", _certify_name, None),
    ("revpal.verifier", "_capped_inv_sin", "verifier.grid", _grid_io),
    ("revpal.revgoldbach", "reversed_prime_values", "revgoldbach.reversed_prime_values", _length),
    ("revpal.revgoldbach", "scan_exceptions", "revgoldbach.scan_exceptions", None),
    ("revpal.revgoldbach", "representations", "revgoldbach.representations", None),
    ("revpal.revgoldbach", "estermann_count", "revgoldbach.estermann_count", None),
    ("revpal.cli", "main", "cli.main", None),
]


@contextmanager
def instrument(tracer: Tracer):
    """Swap every target and its aliases in loaded revpal modules for a traced
    wrapper; restore the originals on exit."""
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "revpal" or n.startswith("revpal."))]
    swapped = []
    try:
        for mod_name, attr, name, measure in TARGETS:
            owner = sys.modules[mod_name]
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf, None)
            if original is None:
                print(f"perfbench: {mod_name}.{attr} not found; not traced", file=sys.stderr)
                continue
            traced = tracer.wrap(original, name, measure)
            holders = [owner] + [m for m in modules if m is not owner]
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, traced)
                        swapped.append((holder, key, original))
        yield tracer
    finally:
        for holder, key, original in reversed(swapped):
            setattr(holder, key, original)


# Per-layer metric -> unit; every workload reports all of them, 0 where the
# workload never enters that layer.
LAYER_UNITS = {
    "sieve.build_s": "s",
    "sieve.table_bytes": "B",
    "sieve.load_cache_s": "s",
    "sieve.prime_flags_calls": "count",
    "sieve.prime_flags_s": "s",
    "sieve.is_k_free_calls": "count",
    "sieve.is_k_free_s": "s",
    "experiments.count_rev_kfree_primes_s": "s",
    "experiments.rev_pi_star_s": "s",
    "experiments.count_kfree_palindromes_s": "s",
    "experiments.count_almost_prime_palindromes_s": "s",
    "experiments.enumerate_palindromes_s": "s",
    "experiments.palindromes_per_s": "1/s",
    "densities.main_term_s": "s",
    "verifier.certify_base_s.K8": "s",
    "verifier.certify_base_s.K34": "s",
    "verifier.certify_base_s.K122": "s",
    "verifier.certify_base_s.K367": "s",
    "verifier.grid_evals": "count",
    "verifier.grid_evals_per_s": "1/s",
    "verifier.grid_bytes": "B",
    "verifier.pool_s": "s",
    "verifier.pool_efficiency": "ratio",
    "verifier.cert_margin_min": "ratio",
    "revgoldbach.reversed_prime_values_s": "s",
    "revgoldbach.reversed_prime_values_calls": "count",
    "revgoldbach.reversed_values": "count",
    "revgoldbach.scan_exceptions_s": "s",
    "revgoldbach.representations_s": "s",
    "revgoldbach.estermann_count_s": "s",
    "cli.self_s": "s",
    "cli.cache_hits": "count",
    "cli.cache_misses": "count",
    "trace.overhead_ratio": "ratio",
}


def _rate(n, seconds):
    return n / seconds if seconds > 0 else 0.0


def pass_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer numbers of one traced pass: seconds inside each boundary,
    calls and counted work."""
    busy = defaultdict(float)
    calls = Counter()
    work = Counter()
    nbytes = Counter()
    child_busy = defaultdict(float)
    for s in spans:
        busy[s.name] += s.duration
        calls[s.name] += 1
        work[s.name] += s.count
        nbytes[s.name] += s.nbytes
        if s.parent is not None:
            child_busy[id(s.parent)] += s.duration
    tables = [s.nbytes for s in spans if s.name in ("sieve.build", "sieve.load_cache")]
    cli_self = sum(s.duration - child_busy[id(s)] for s in spans if s.name == "cli.main")
    in_cli = [s for s in spans if s.under("cli.main")]
    m = {
        "sieve.build_s": busy["sieve.build"],
        "sieve.table_bytes": max(tables, default=0),
        "sieve.load_cache_s": busy["sieve.load_cache"],
        "sieve.prime_flags_calls": calls["sieve.prime_flags"],
        "sieve.prime_flags_s": busy["sieve.prime_flags"],
        "sieve.is_k_free_calls": calls["sieve.is_k_free"],
        "sieve.is_k_free_s": busy["sieve.is_k_free"],
        "experiments.enumerate_palindromes_s": busy["experiments.enumerate_palindromes"],
        "experiments.palindromes_per_s": _rate(work["experiments.enumerate_palindromes"],
                                               busy["experiments.enumerate_palindromes"]),
        "densities.main_term_s": busy["densities.main_term"],
        "verifier.grid_evals": work["verifier.grid"],
        "verifier.grid_evals_per_s": _rate(work["verifier.grid"], busy["verifier.grid"]),
        "verifier.grid_bytes": nbytes["verifier.grid"],
        "revgoldbach.reversed_prime_values_s": busy["revgoldbach.reversed_prime_values"],
        "revgoldbach.reversed_prime_values_calls": calls["revgoldbach.reversed_prime_values"],
        "revgoldbach.reversed_values": work["revgoldbach.reversed_prime_values"],
        "cli.self_s": cli_self,
        "cli.cache_hits": sum(s.name == "sieve.load_cache" for s in in_cli),
        "cli.cache_misses": sum(s.name == "sieve.build" for s in in_cli),
    }
    for fn in ("count_rev_kfree_primes", "rev_pi_star", "count_kfree_palindromes",
               "count_almost_prime_palindromes"):
        m[f"experiments.{fn}_s"] = busy[f"experiments.{fn}"]
    for fn in ("scan_exceptions", "representations", "estermann_count"):
        m[f"revgoldbach.{fn}_s"] = busy[f"revgoldbach.{fn}"]
    for K in (8, 34, 122, 367):
        m[f"verifier.certify_base_s.K{K}"] = busy[f"verifier.certify_base.K{K}"]
    return m


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
