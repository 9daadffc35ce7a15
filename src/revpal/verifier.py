"""Certification that f(theta) = sum_h min(b, 1/|sin pi(h/b + theta)|) stays
below b^(6/5) uniformly, via endpoint maximization on K segments per 1/b
window.

All segment endpoints live on the shared grid j/(Kb), j = 0..Kb, and the
integrand g(x) = min(b, 1/|sin pi x|) is evaluated once per grid point; the
bound for segment i is then sum_h max(G[hK+i], G[hK+i+1]).
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


def _capped_inv_sin(x: np.ndarray, b: int) -> np.ndarray:
    """g(x) = min(b, 1/|sin pi x|), with the cap taken whenever
    |sin pi x| <= (1/b) * (1 + 1e-12)."""
    s = np.abs(np.sin(np.pi * np.asarray(x, dtype=np.float64)))
    capped = s * b <= _CAP_GUARD
    safe = np.where(capped, 1.0, s)
    return np.where(capped, float(b), 1.0 / safe)


def f_eval(ctx: BaseContext, theta: float) -> float:
    """f(theta) = sum over 0 <= h < b of min(b, 1/|sin pi(h/b + theta)|)."""
    b = ctx.b
    xs = theta + np.arange(b, dtype=np.float64) / b
    return float(_capped_inv_sin(xs, b).sum())


def f_h_eval(ctx: BaseContext, h: int, theta: float) -> float:
    """Single term f_h(theta)."""
    return float(_capped_inv_sin(np.array([h / ctx.b + theta]), ctx.b)[0])


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
    i = 0..K-1, by summing per-term endpoint maxima on the shared grid."""
    if K < 2:
        raise ValueError(f"K must be >= 2, got {K}")
    b = ctx.b
    M = K * b
    grid = np.arange(M + 1, dtype=np.float64) / M
    G = _capped_inv_sin(grid, b)
    pair_max = np.maximum(G[:-1], G[1:])  # index j corresponds to (h, i) = divmod(j, K)
    return pair_max.reshape(b, K).sum(axis=0)


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
