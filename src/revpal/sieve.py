"""Bulk arithmetic oracles on [1, limit]: square-free flags, Omega (prime
factors with multiplicity), primality and k-free tests.

Memory layout: the flags and omega are one byte per entry each, so a table of
limit L costs about 2L bytes; build keeps no scratch row, and DEFAULT_LIMIT_BUDGET
guards memory alone.  A table from load_cache is a read-only map of its file,
not anonymous memory: only the pages a call reads become resident.
"""

import mmap
import os
import struct
from dataclasses import dataclass, field
from math import isqrt
from pathlib import Path

import numpy as np

DEFAULT_LIMIT_BUDGET = 2 ** 31

_CACHE_MAGIC = b"RPFT"
_CACHE_VERSION = 3

# entries per chunk of build's sieve pass
_CHUNK = 2 ** 20


class CacheVersionError(ValueError):
    """A cache file of another format version: stale, not corrupt."""


@dataclass(frozen=True)
class FactorTable:
    """Immutable sieve output over [0, limit]; index 0 is padding.

    _memo holds arrays its owners derive from the table (see
    revgoldbach.reversed_prime_block); it lives and dies with the table and
    is never saved, compared or shown.
    """

    limit: int
    squarefree: np.ndarray  # bool, n >= 1 with no p^2 | n
    omega_total: np.ndarray  # int8, Omega(n)
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def kfree_at(self, ns: np.ndarray, k: int) -> np.ndarray:
        """Boolean array over the int64 array ns of values in [0, limit], True
        at n >= 1 with no d^k | n, d >= 2; for k = 2 the squarefree flags.
        A square-free n is k-free for every k, so for k >= 3 only the other
        values are tried, against p^k for the primes p with p^k <= their max;
        there are none once 2^k > max, and p^k is never formed then."""
        if k < 2:
            raise ValueError(f"k must be >= 2, got {k}")
        flags = self.squarefree[ns]
        if k == 2:
            return flags
        at = np.flatnonzero(~flags)
        rest = ns[at]
        top = int(rest.max(initial=0))
        keep = rest >= 1
        root = isqrt(top) if k < top.bit_length() else 0  # else 2^k > top
        for p in np.flatnonzero(self.omega_total[: root + 1] == 1).tolist():
            if p ** k > top:
                break
            keep &= rest % p ** k != 0
        flags[at] = keep
        return flags


def build(limit: int) -> FactorTable:
    """Omega for 1 <= n <= limit, in one pass over chunks [a, e), then the flags.

    Omega(n) = Omega(n / p) + 1 for every prime p dividing n, not only the
    smallest, so each chunk is a few strided adds, in any order of p.  The
    chunks run in increasing order with e <= 2a, so every n / p <= n / 2 < a
    read lies in an earlier chunk and is final.
    - Even n take p = 2: Omega(n) = Omega(n / 2) + 1.
    - Odd n start at 1; then each odd prime p < a, p <= isqrt(limit), read
      from the final entries Omega(p) = 1, writes Omega(m) + 1 at its odd
      multiples n = pm.  An odd composite n has such a p, as p^2 <= n < 2a
      for its smallest; the entries no p writes are primes, and keep their 1.

    The flags are cleared at 0 and at the multiples of p^2 for the primes
    p <= isqrt(limit); no larger p^2 fits in the table.  DEFAULT_LIMIT_BUDGET
    caps limit, since the table costs 2(limit + 1) bytes.
    """
    if limit < 2:
        raise ValueError(f"limit must be >= 2, got {limit}")
    if limit > DEFAULT_LIMIT_BUDGET:
        raise ValueError(f"limit {limit} exceeds memory budget {DEFAULT_LIMIT_BUDGET}")

    root = isqrt(limit)
    omega = np.empty(limit + 1, dtype=np.int8)
    omega[:2] = 0
    a = 2
    while a <= limit:
        e = min(2 * a, a + _CHUNK, limit + 1)
        even, first_odd = a + (a & 1), a | 1
        np.add(omega[even // 2 : (e + 1) // 2], 1, out=omega[even:e:2])
        odd = omega[first_odd:e:2]
        odd.fill(1)
        for p in np.flatnonzero(omega[: min(a, root + 1)] == 1)[1:].tolist():  # odd, < a
            m = -(-a // p) | 1  # the smallest odd m with pm >= a
            out = odd[(p * m - first_odd) // 2 :: p]
            np.add(omega[m : m + 2 * out.size : 2], 1, out=out)
        a = e

    squarefree = np.ones(limit + 1, dtype=bool)
    squarefree[0] = False
    for p in np.flatnonzero(omega[: root + 1] == 1).tolist():
        squarefree[p * p :: p * p] = False

    for arr in (squarefree, omega):
        arr.setflags(write=False)
    return FactorTable(limit=limit, squarefree=squarefree, omega_total=omega)


def save_cache(table: FactorTable, path: str | Path):
    """Binary cache: magic + version + limit header, then the flags and Omega, a
    byte each; written to a temporary file beside path, renamed over it atomically."""
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(struct.pack("<4sIQ", _CACHE_MAGIC, _CACHE_VERSION, table.limit))
            fh.write(memoryview(table.squarefree.view(np.uint8)))
            fh.write(memoryview(np.asarray(table.omega_total, dtype="<i1")))
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def load_cache(path: str | Path) -> FactorTable:
    """Table of a save_cache file, its arrays read-only views of a map of it.

    The file must be version 3 (another version raises CacheVersionError),
    exactly the header plus 2(limit + 1) array bytes, flags then Omega.  The map
    outlives the file's name: save_cache replaces a file by renaming a new one
    over it, so a loaded table keeps reading the old contents.  A cache file
    must therefore never be rewritten in place.
    """
    path = Path(path)
    with open(path, "rb") as fh:
        header = fh.read(16)
        if len(header) < 16:
            raise ValueError(f"{path} is truncated: no complete cache header")
        magic, version, limit = struct.unpack("<4sIQ", header)
        if magic != _CACHE_MAGIC:
            raise ValueError(f"{path} is not a sieve cache file")
        if version != _CACHE_VERSION:
            raise CacheVersionError(f"{path} has unsupported cache version {version}")
        n = limit + 1
        got = os.fstat(fh.fileno()).st_size - 16
        if got != 2 * n:
            problem = "truncated" if got < 2 * n else "too long"
            raise ValueError(f"{path} is {problem}: limit {limit} needs {2 * n} array bytes, got {got}")
        data = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
    flags, omega = np.frombuffer(data, dtype="<i1", count=2 * n, offset=16).reshape(2, n)
    return FactorTable(limit=int(limit), squarefree=flags.view(bool), omega_total=omega)
