"""Certification that f(theta) = sum_h min(b, 1/|sin pi(h/b + theta)|) stays
below b^(6/5) uniformly: segment i = [theta_i, theta_{i+1}], theta_j = j/(Kb),
of the period 1/b has the bound B_i = sum_h max(g_h(theta_i), g_h(theta_{i+1}))
with g_h = min(b, 1/|sin pi(h/b + theta)|), and B_{K-1-i} = B_i as f is even.

Lemma: max_i B_i is attained at segment 0, i_a or i_a + 1, where segment i_a
holds alpha = arcsin(1/b)/pi.  Only g_0 (at theta <= alpha) and g_{b-1} (at
theta >= 1/b - alpha) reach the cap; every other g_h value is a csc of an
argument in (0, pi), convex in theta.  The larger of two convex sequences is
convex, so B_i is convex on 0..i_a, where the h = 0 term is b, and on
i_a + 1..K - 2 - i_a, whose columns lie in (alpha, 1/b - alpha) and whose ends
are mirrors; each peaks at an end.  candidate_bounds evaluates the segments
{0} and i_a - 2..i_a + 2 in 0..ceil(K/2) - 1; the smallest argmax among them
is the certificate's worst_segment.  The spares absorb two shifts of the
kink from the computed i_a.  Rounding: i_a = floor(alpha K b), alpha K b <= K/3,
and a few ulp of it are under 1e-3 segment for K <= 10^12.  The guard:
_CAP_GUARD caps g_0 up to sin pi theta = (1 + 1e-12)/b, which moves the kink
past alpha by about 1e-12 / (pi b cos pi alpha), or 1e-12 K / (pi cos pi alpha)
< 0.4e-12 K segments, as alpha <= 1/6.  So for K <= _K_MAX = 10^12 the kink
lies in segment i_a or i_a + 1, and the peaks on either side of it lie in
i_a - 2..i_a + 2; candidate_bounds refuses a larger K.

Float error, per grid point: sin pi x is formed by angle addition as
S_h c_j + C_h s_j, with m = min(h, b-h), S_h = sin(pi m/b), C_h = cos(pi m/b)
negated for h > m, c_j = cos(pi j/(Kb)) and s_j = sin(pi j/(Kb)).  Every
argument is reduced to [0, pi/2], so each factor is good to a few ulp.
For h > b/2 the two products cancel by at most a factor of 5 (K = 3), about
3 for large K, as j <= ceil(K/2).  A value within _CAP_GUARD of the cap takes
the cap, which bounds the true term from above.  Summation: a block holds
the rows h0 <= h < h0 + step, step = _BLOCK_POINTS // (columns, at most 8);
within it each segment's terms are summed pairwise along h (numpy's
reduction over a contiguous axis), and the ceil(b / step) block sums (at
most 8 for b <= 31698) are added one after another.
"""

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import repeat

import numpy as np

from .digits import BaseContext, base_context

SLACK = 1e-9  # relative margin: a base passes iff max_bound * (1 + SLACK) < b^(6/5)

# widen the cap decision slightly so rounding at arch boundaries cannot flip it
_CAP_GUARD = 1.0 + 1e-12
# the largest K whose guarded cap kink stays within one segment of i_a
_K_MAX = 10 ** 12

# grid points per block of candidate_bounds; its two 256 kB buffers serve every
# block and are its only block-sized float arrays (_cap_reciprocal compares with
# a scalar): a fresh block-sized array per block is a fresh mmap and page faults
_BLOCK_POINTS = 1 << 15


def _cap_reciprocal(s: np.ndarray, b: int) -> np.ndarray:
    """min(b, 1/s) in place, with the cap taken whenever s <= (1/b) * (1 + 1e-12)."""
    capped = s <= _CAP_GUARD / b
    np.reciprocal(s, out=s, where=~capped)
    s[capped] = b
    return s


def _capped_inv_sin(x: np.ndarray, b: int) -> np.ndarray:
    """g(x) = min(b, 1/|sin pi x|), capped as in _cap_reciprocal."""
    return _cap_reciprocal(np.abs(np.sin(np.pi * np.asarray(x, dtype=np.float64))), b)


def f_eval(ctx: BaseContext, theta: float) -> float:
    """f(theta) = sum over 0 <= h < b of min(b, 1/|sin pi(h/b + theta)|)."""
    if not math.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta}")
    b = ctx.b
    xs = theta + np.arange(b, dtype=np.float64) / b
    return float(_capped_inv_sin(xs, b).sum())


@dataclass(frozen=True, slots=True)
class Certificate:
    b: int
    K: int
    max_bound: float
    slack: float
    passed: bool
    worst_segment: int

    KEYS = ("b", "K", "max_bound", "threshold", "slack", "passed", "cb_estimate",
            "alpha_estimate", "worst_segment")

    @property
    def threshold(self) -> float:
        return float(self.b) ** 1.2

    @property
    def cb_estimate(self) -> float:
        return self.max_bound / self.b

    @property
    def alpha_estimate(self) -> float:
        return math.log(self.cb_estimate) / math.log(self.b)

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.KEYS}


@lru_cache(maxsize=1)
def _row_factors(b: int) -> tuple[np.ndarray, np.ndarray]:
    """S_h and the signed C_h of the module docstring for 0 <= h < b; they do
    not depend on K, so find_min_K computes them once per base."""
    m = np.pi * np.arange(b // 2 + 1) / b
    s, c, tail = np.sin(m), np.cos(m), slice(b - b // 2 - 1, 0, -1)
    return np.concatenate((s, s[tail])), np.concatenate((c, -c[tail]))


def candidate_bounds(ctx: BaseContext, K: int) -> tuple[list[int], np.ndarray]:
    """Upper bounds B_i of f on the candidate segments [i/(Kb), (i+1)/(Kb)]
    of the module docstring, and their indices i, ascending; see there for
    the summation order and the error sources."""
    if K < 2:
        raise ValueError(f"K must be >= 2, got {K}")
    if K > _K_MAX:
        raise ValueError(f"K must be <= {_K_MAX}, got {K}")
    b = ctx.b
    i_a = int(math.asin(1.0 / b) / math.pi * K * b)
    # Python ints: the first np.unique or np.sort call pages in numpy's sort code
    cols = sorted({0, 1}.union(range(max(i_a - 2, 0), min(i_a + 3, (K + 1) // 2) + 1)))
    sin_h, cos_h = _row_factors(b)
    t = np.pi * np.array(cols) / (K * b)
    cos_i, sin_i = np.cos(t), np.sin(t)
    sums = np.zeros(len(cols) - 1)
    step = _BLOCK_POINTS // len(cols)
    x, y = np.empty((2, len(cols), min(step, b)))
    for h0 in range(0, b, step):
        w = min(step, b - h0)
        xs, ys = x[:, :w], y[:, :w]
        # xs[k, h - h0] = sin pi(h/b + cols[k]/(Kb)); h runs along the
        # contiguous axis, so the sum over it is pairwise
        np.multiply.outer(cos_i, sin_h[h0:h0 + w], out=xs)
        xs += np.multiply.outer(sin_i, cos_h[h0:h0 + w], out=ys)
        g = _cap_reciprocal(xs, b)
        sums += np.maximum(g[:-1], g[1:], out=ys[:-1]).sum(axis=1)
    pairs = [k for k in range(len(cols) - 1) if cols[k + 1] == cols[k] + 1]
    return [cols[k] for k in pairs], sums[pairs]


def certify_base(ctx: BaseContext, K: int) -> Certificate:
    """One base: pass iff max_bound * (1 + SLACK) < b^(6/5), decided exactly
    as (max_bound * (1 + SLACK))^5 < b^6 over the rationals."""
    segments, bounds = candidate_bounds(ctx, K)
    k = int(np.argmax(bounds))
    max_bound = float(bounds[k])
    return Certificate(b=ctx.b, K=K, max_bound=max_bound, slack=SLACK, worst_segment=segments[k],
                       passed=(Fraction(max_bound) * (1 + Fraction(SLACK))) ** 5 < ctx.b ** 6)


def segment_bounds_naive(ctx: BaseContext, K: int) -> np.ndarray:
    """Reference kernel: evaluate both endpoints of every segment directly,
    without sharing grid values between adjacent segments."""
    if K < 2:
        raise ValueError(f"K must be >= 2, got {K}")
    b = ctx.b
    out = np.empty(K)
    hs = np.arange(b, dtype=np.float64) / b
    for i in range(K):
        left = _capped_inv_sin(hs + i / (K * b), b)
        right = _capped_inv_sin(hs + (i + 1) / (K * b), b)
        out[i] = np.maximum(left, right).sum()
    return out


def certify_range(b0: int, b1: int, K: int, workers: int = 1) -> list[Certificate]:
    """Independent certificates for every base in [b0, b1], ascending."""
    if not 2 <= b0 <= b1:
        raise ValueError(f"need 2 <= b0 <= b1, got ({b0}, {b1})")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    ctxs = [base_context(b) for b in range(b0, b1 + 1)]
    # a fork pool starts all its processes at once, however few the jobs
    workers = min(workers, len(ctxs), os.cpu_count() or 1)
    if workers <= 1:
        return list(map(certify_base, ctxs, repeat(K)))
    # not at module level: it costs every import of revpal about 2 MB and 16 ms
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) as pool:
        # map yields results in job order, which is ascending b
        return list(pool.map(certify_base, ctxs, repeat(K), chunksize=4))


def find_min_K(ctx: BaseContext, K_max: int) -> int | None:
    """Smallest K in [2, K_max] whose certificate passes, testing each K in
    increasing order (no monotonicity assumed)."""
    if K_max < 2:
        raise ValueError(f"K_max must be >= 2, got {K_max}")
    if K_max > _K_MAX:  # refused before the first certificate, not after 10^12 of them
        raise ValueError(f"K_max must be <= {_K_MAX}, got {K_max}")
    for K in range(2, K_max + 1):
        if certify_base(ctx, K).passed:
            return K
    return None
