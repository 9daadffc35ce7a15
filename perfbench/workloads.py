"""The three benchmark workloads. Each drives revpal from outside through
public functions, the way the scripts and the CLI do, and checks every result
it produces against ``reference`` outside the timed region.

A workload object provides:
  setup_once()       one set-up; the runner repeats and times it
  prepare_pass()     untimed reset before each pass
  run_pass()         one timed pass -> {key: result or raised exception}
  check(results)     (results attempted, failure descriptions)
  margins(results)   certificate margins threshold/max_bound - 1
"""

import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import reference as ref
from revpal import cli, experiments, revgoldbach, sieve, verifier
from revpal.digits import base_context

SUBPROCESS_TIMEOUT_S = 170


def _attempt(results: dict, key, fn, *args, **kwargs):
    """Record fn's result, or the exception it raised, under key."""
    try:
        results[key] = fn(*args, **kwargs)
    except Exception as e:  # a raised result is a failed result, not a crash
        print(f"perfbench: {key} raised {type(e).__name__}: {e}", file=sys.stderr)
        results[key] = e


def _python(args: list[str], env: dict, cwd: Path):
    """Run a fresh interpreter, as a user's shell would, and require exit 0."""
    proc = subprocess.run([sys.executable, *args], env=env, cwd=cwd, capture_output=True,
                          timeout=SUBPROCESS_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{args} exited {proc.returncode}: {proc.stderr.decode()[-500:]}")


class Workload:
    def __init__(self, rng: np.random.Generator, env: dict, tmp: Path):
        self.env = env
        self.tmp = tmp

    def setup_once(self):
        """Cold start of the library in a fresh interpreter: what every CLI run pays."""
        _python(["-c", "import revpal"], self.env, self.tmp)

    def prepare_pass(self):
        pass

    def margins(self, results: dict) -> list[float]:
        return []


class CertifySweep(Workload):
    """certify_range(workers=1) over a seeded window of bases from each published
    row, plus each row's first base, where the margin is thinnest."""

    # the rows of scripts/reproduce_table.py: (b0, b1, K)
    ROWS = ((28500, 31698, 8), (26500, 28499, 34), (26100, 26499, 122), (26000, 26099, 367))
    WINDOW = 2

    def __init__(self, rng, env, tmp):
        super().__init__(rng, env, tmp)
        self.ranges = []
        for b0, b1, K in self.ROWS:
            start = int(rng.integers(b0 + 1, b1 - self.WINDOW + 2))
            self.ranges += [(b0, b0, K), (start, start + self.WINDOW - 1, K)]
        self._naive = {}

    def run_pass(self, workers: int = 1) -> dict:
        results = {}
        for lo, hi, K in self.ranges:
            _attempt(results, (lo, hi, K), verifier.certify_range, lo, hi, K, workers=workers)
        return results

    def _naive_max(self, b: int, K: int) -> float:
        if (b, K) not in self._naive:
            self._naive[b, K] = float(verifier.segment_bounds_naive(base_context(b), K).max())
        return self._naive[b, K]

    def check(self, results: dict) -> tuple[int, list[str]]:
        attempted, failures = 0, []
        for (lo, hi, K), certs in results.items():
            bases = list(range(lo, hi + 1))
            attempted += len(bases)
            if isinstance(certs, Exception):
                failures += [f"certify b={b} K={K}: raised {certs!r}" for b in bases]
                continue
            for b, c in zip(bases, certs):
                ok = (c.b == b and c.K == K and c.passed
                      and ref.close(c.max_bound, self._naive_max(b, K))
                      and ref.close(c.threshold, b ** 1.2))
                if not ok:
                    failures.append(f"certify b={b} K={K}: {c}")
            if len(certs) != len(bases):
                failures.append(f"certify [{lo}, {hi}] K={K}: {len(certs)} certificates")
        return attempted, failures

    def margins(self, results):
        return [c.threshold / c.max_bound - 1 for certs in results.values()
                if not isinstance(certs, Exception) for c in certs]


class CountCold(Workload):
    """One fresh sieve.build(10^7), then the counting batch of
    scripts/ratio_trends.py and the README CLI, with nothing warm."""

    LIMIT = 10 ** 7
    N = 7
    SQRT_LAW_POWERS = (2, 4, 6, 8, 10)

    def __init__(self, rng, env, tmp):
        super().__init__(rng, env, tmp)
        divisors = [d for d in range(7, 1000) if math.gcd(d, ref.B3MB) == 1]
        self.d = int(rng.choice(divisors))
        self._rev_pi_ref = None

    def prepare_pass(self):
        # Every pass starts as cold as a new CLI run: drop every functools cache
        # in revpal (experiments._palindromes_upto would otherwise skip
        # enumeration on the second pass).
        for mod in [m for n, m in list(sys.modules.items()) if n.startswith("revpal")]:
            for value in list(vars(mod).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()

    def run_pass(self) -> dict:
        results = {}
        ctx = base_context(ref.BASE)
        _attempt(results, "table", sieve.build, self.LIMIT)
        table = results.pop("table")
        if isinstance(table, Exception):
            results.update(dict.fromkeys(("rev_kfree", "rev_pi_star", "kfree_pal", "almost_prime"), table))
        else:
            _attempt(results, "rev_kfree", experiments.count_rev_kfree_primes, ctx, 2, self.N, table)
            _attempt(results, "rev_pi_star", experiments.rev_pi_star, ctx, self.N, self.d, table)
            _attempt(results, "kfree_pal", experiments.count_kfree_palindromes, ctx, 3, self.LIMIT,
                     table)
            _attempt(results, "almost_prime", experiments.count_almost_prime_palindromes, ctx,
                     self.LIMIT, 6, kfree_k=3, rough_exponent=0.0476, table=table)
        _attempt(results, "sqrt_law", experiments.sqrt_law_check, ctx,
                 [10 ** j for j in self.SQRT_LAW_POWERS])
        return results

    def _rev_pi_star_ref(self) -> int:
        if self._rev_pi_ref is None:
            flags = ref.prime_flags(self.LIMIT)
            revs = ref.reversed_primes(flags, 10 ** (self.N - 1), 10 ** self.N)
            revs = revs[np.gcd(revs, ref.B3MB) == 1]
            self._rev_pi_ref = int(np.count_nonzero(revs % self.d == 0))
        return self._rev_pi_ref

    def check(self, results: dict) -> tuple[int, list[str]]:
        expected = {
            "rev_kfree": (ref.REV_KFREE_10_2_7, ref.rev_kfree_main_term_2(self.N)),
            "rev_pi_star": (self._rev_pi_star_ref(), ref.rev_pi_main_term(self.N, self.d)),
            "kfree_pal": (ref.KFREE_PALINDROMES_10_3_1E7,
                          ref.palin_kfree_main_term_3(ref.PSTAR_COUNT_1E7)),
        }
        failures = []
        for key, value in results.items():
            if isinstance(value, Exception):
                ok = False
            elif key in expected:
                count, main_term = expected[key]
                ok = value.empirical == count and ref.close(value.main_term, main_term)
            elif key == "almost_prime":
                ok = value == ref.ALMOST_PRIME_PALINDROMES_1E7
            else:  # sqrt_law rows (x, |P_10(x)|, |P_10(x)| / sqrt(x))
                ok = [(x, c) for x, c, _ in value] == [
                    (10 ** j, ref.palindrome_count_pow10(j)) for j in self.SQRT_LAW_POWERS
                ] and all(ref.close(r, c / math.sqrt(x)) for x, c, r in value)
            if not ok:
                failures.append(f"count_cold {key} (d={self.d}): {value!r}")
        return len(results), failures


class GoldbachWarm(Workload):
    """A repeat user: REVPAL_SIEVE_CACHE filled during set-up, then
    `revpal hcabdlog --limit 10^7` in-process and seeded batches of
    representations(M) and estermann_count(M) on the loaded table."""

    LIMIT = 10 ** 7
    BATCH = 6

    def __init__(self, rng, env, tmp):
        super().__init__(rng, env, tmp)
        self.targets = [int(M) for M in rng.integers(10 ** 6, self.LIMIT + 1, size=self.BATCH)]
        self.cache_dir = tmp / "sieve_cache"
        self.env = dict(env, **{cli.CACHE_ENV: str(self.cache_dir)})
        self.output = tmp / "hcabdlog.json"
        self.cache_file = None
        self._refs = None

    def setup_once(self):
        """Fill a private, empty sieve cache the way a user's first CLI run does."""
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        self.cache_dir.mkdir()
        _python(["-m", "revpal.cli", "estermann", "--base", "10", "--M", str(self.LIMIT)],
                self.env, self.tmp)
        files = list(self.cache_dir.iterdir())
        if len(files) != 1:
            raise RuntimeError(f"expected one sieve cache file, found {files}")
        self.cache_file = files[0]

    def prepare_pass(self):
        self.output.unlink(missing_ok=True)

    def _hcabdlog(self):
        argv = ["hcabdlog", "--base", "10", "--limit", str(self.LIMIT), "--output", str(self.output)]
        code = cli.main(argv)
        return code, self.output.read_bytes()

    def run_pass(self) -> dict:
        results = {}
        os.environ[cli.CACHE_ENV] = str(self.cache_dir)
        try:
            _attempt(results, "hcabdlog", self._hcabdlog)
        finally:
            del os.environ[cli.CACHE_ENV]
        ctx = base_context(ref.BASE)
        _attempt(results, "table", sieve.load_cache, self.cache_file)
        table = results.pop("table")
        for M in self.targets:
            for name, fn in (("representations", revgoldbach.representations),
                             ("estermann_count", revgoldbach.estermann_count)):
                if isinstance(table, Exception):
                    results[name, M] = table
                else:
                    _attempt(results, (name, M), fn, ctx, M, table)
        return results

    def _expected(self) -> dict:
        if self._refs is None:
            flags = ref.prime_flags(self.LIMIT)
            squarefree = ref.squarefree_flags(self.LIMIT)
            revs = ref.reversed_primes(flags, 2, self.LIMIT + 1)
            self._refs = {"hcabdlog": (0, ref.HCABDLOG_1E7)}
            for M in self.targets:
                self._refs["representations", M] = int(np.count_nonzero(flags[M - revs[revs <= M - 2]]))
                self._refs["estermann_count", M] = int(np.count_nonzero(squarefree[M - revs[revs <= M - 1]]))
        return self._refs

    def check(self, results: dict) -> tuple[int, list[str]]:
        expected = self._expected()
        failures = [f"goldbach_warm {key}: {value!r}, expected {expected[key]!r}"
                    for key, value in results.items()
                    if isinstance(value, Exception) or value != expected[key]]
        return len(results), failures


WORKLOADS = {"certify_sweep": CertifySweep, "count_cold": CountCold, "goldbach_warm": GoldbachWarm}
