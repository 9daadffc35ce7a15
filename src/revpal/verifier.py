"""Certification that f(theta) = sum_h min(b, 1/|sin pi(h/b + theta)|) stays
below b^(6/5) uniformly, via endpoint maximization on K segments per 1/b
window.

All segment endpoints live on the shared grid x = h/b + i/(Kb), h = 0..b-1,
i = 0..K, and the bound for segment i is sum_h max(g(h, i), g(h, i+1)) with
g = min(b, 1/|sin pi x|).  f is even and has period 1/b, so segment K-1-i has
the same bound as segment i, and only the columns i = 0..ceil(K/2) are
evaluated.

Float error of segment_bounds, per grid point: sin pi x is formed by angle
addition as S_h c_i + C_h s_i, with S_h = sin(pi m/b), m = min(h, b-h),
C_h = cos(pi h/b), c_i = cos(pi i/(Kb)) and s_i = sin(pi i/(Kb)).  Every
sine argument is reduced to [0, pi/2], where sin is well conditioned, so
each factor is good to a few ulp (C_h to a few ulp absolute).  For h <= b/2
both products are >= 0; for h > b/2 they cancel by at most a factor of 5
(K = 3), about 3 for large K, because i <= ceil(K/2).  A value within
_CAP_GUARD of the cap takes the cap, which bounds the true term from above.
Summation: a block holds the rows h0 <= h < h0 + step with
step = _BLOCK_POINTS // (ceil(K/2) + 1); within it the terms of each segment
are summed pairwise along h (numpy's reduction over a contiguous axis), and
the ceil(b / step) block sums (5 at b = 31698, K = 8; 147 at b = 26000,
K = 367) are added one after another.
"""

import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .digits import BaseContext, base_context

DEFAULT_SLACK = 1e-9

# widen the cap decision slightly so rounding at arch boundaries cannot flip it
_CAP_GUARD = 1.0 + 1e-12

# grid points per block of segment_bounds; each of its two buffers is 256 kB
_BLOCK_POINTS = 1 << 15


def _cap_reciprocal(s: np.ndarray, b: int) -> np.ndarray:
    """min(b, 1/s) in place, with the cap taken whenever s <= (1/b) * (1 + 1e-12)."""
    capped = s * b <= _CAP_GUARD
    np.reciprocal(s, out=s, where=~capped)
    s[capped] = b
    return s


def _capped_inv_sin(x: np.ndarray, b: int) -> np.ndarray:
    """g(x) = min(b, 1/|sin pi x|), capped as in _cap_reciprocal."""
    return _cap_reciprocal(np.abs(np.sin(np.pi * np.asarray(x, dtype=np.float64))), b)


def f_eval(ctx: BaseContext, theta: float) -> float:
    """f(theta) = sum over 0 <= h < b of min(b, 1/|sin pi(h/b + theta)|)."""
    b = ctx.b
    xs = theta + np.arange(b, dtype=np.float64) / b
    return float(_capped_inv_sin(xs, b).sum())


def arch_length(ctx: BaseContext) -> float:
    """Width (2/pi) arcsin(1/b) of each capped arch of f_h."""
    return (2.0 / math.pi) * math.asin(1.0 / ctx.b)


@dataclass(frozen=True)
class Certificate:
    b: int
    K: int
    max_bound: float
    threshold: float
    slack: float
    passed: bool
    cb_estimate: float
    alpha_estimate: float
    worst_segment: int

    def to_dict(self) -> dict:
        return {
            "b": self.b, "K": self.K, "max_bound": self.max_bound,
            "threshold": self.threshold, "slack": self.slack,
            "passed": self.passed, "cb_estimate": self.cb_estimate,
            "alpha_estimate": self.alpha_estimate,
            "worst_segment": self.worst_segment,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Certificate":
        return cls(**d)

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


def segment_bounds(ctx: BaseContext, K: int) -> np.ndarray:
    """Certified upper bound of f on each segment [i/(Kb), (i+1)/(Kb)],
    i = 0..K-1, by summing per-term endpoint maxima on the shared grid.

    Evaluates the left ceil(K/2) segments, _BLOCK_POINTS grid points at a
    time, and mirrors them (bounds[K-1-i] == bounds[i]); see the module
    docstring for the summation order and the error sources.
    """
    if K < 2:
        raise ValueError(f"K must be >= 2, got {K}")
    b = ctx.b
    N = (K + 1) // 2
    h = np.arange(b)
    sin_h = np.sin(np.pi * np.minimum(h, b - h) / b)
    cos_h = np.cos(np.pi * h / b)
    t = np.pi * np.arange(N + 1) / (K * b)
    cos_i, sin_i = np.cos(t), np.sin(t)
    left = np.zeros(N)
    step = max(1, _BLOCK_POINTS // (N + 1))
    # two buffers for every block: a fresh block-sized array per block is a
    # fresh mmap and page faults each time
    x = np.empty((N + 1, min(step, b)))
    y = np.empty_like(x)
    for h0 in range(0, b, step):
        w = min(step, b - h0)
        xs, ys = x[:, :w], y[:, :w]
        # xs[i, h - h0] = sin pi(h/b + i/(Kb)); h runs along the contiguous
        # axis, so the sum over it is pairwise
        np.multiply.outer(cos_i, sin_h[h0:h0 + w], out=xs)
        xs += np.multiply.outer(sin_i, cos_h[h0:h0 + w], out=ys)
        g = _cap_reciprocal(xs, b)
        left += np.maximum(g[:-1], g[1:], out=ys[:-1]).sum(axis=1)
    return np.concatenate((left, left[:K - N][::-1]))


def certify_base(ctx: BaseContext, K: int, slack: float = DEFAULT_SLACK) -> Certificate:
    """One base: pass iff max_bound * (1 + slack) < b^(6/5), decided exactly
    as (max_bound * (1 + slack))^5 < b^6 over the rationals."""
    if not math.isfinite(slack):
        raise ValueError(f"slack must be finite, got {slack}")
    bounds = segment_bounds(ctx, K)
    worst = int(np.argmax(bounds))
    max_bound = float(bounds[worst])
    threshold = float(ctx.b) ** 1.2
    cb = max_bound / ctx.b
    return Certificate(
        b=ctx.b, K=K, max_bound=max_bound, threshold=threshold, slack=slack,
        passed=(Fraction(max_bound) * (1 + Fraction(slack))) ** 5 < ctx.b ** 6,
        cb_estimate=cb, alpha_estimate=math.log(cb) / math.log(ctx.b),
        worst_segment=worst,
    )


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


def _certify_one(args: tuple[int, int, float]) -> Certificate:
    b, K, slack = args
    return certify_base(base_context(b), K, slack)


def certify_range(
    b0: int, b1: int, K: int, slack: float = DEFAULT_SLACK, workers: int = 1
) -> list[Certificate]:
    """Independent certificates for every base in [b0, b1], ascending."""
    if not 2 <= b0 <= b1:
        raise ValueError(f"need 2 <= b0 <= b1, got ({b0}, {b1})")
    jobs = [(b, K, slack) for b in range(b0, b1 + 1)]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            certs = list(pool.map(_certify_one, jobs, chunksize=4))
    else:
        certs = [_certify_one(j) for j in jobs]
    return sorted(certs, key=lambda c: c.b)


def find_min_K(ctx: BaseContext, K_max: int, slack: float = DEFAULT_SLACK) -> int | None:
    """Smallest K in [2, K_max] whose certificate passes, testing each K in
    increasing order (no monotonicity assumed)."""
    for K in range(2, K_max + 1):
        if certify_base(ctx, K, slack).passed:
            return K
    return None
