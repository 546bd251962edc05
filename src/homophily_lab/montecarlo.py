"""Replicated Monte Carlo estimation of group-degree statistics.

Every estimator here reads only the two group degree sums s0 = 2*X00 + Xc
and s1 = 2*X11 + Xc, where X00, X11 and Xc are the edge counts of the
intra-minority, intra-majority and cross pair classes. Those classes are
disjoint sets of independent Bernoulli pairs, so the counts are independent
binomials, and a replicate draws the three counts instead of sampling a
graph; ``generate`` gives the same distribution and is the reference the
tests compare against.

Replicate r of a run draws from its own generator seeded with
``mix_seed(master_seed, r)``, a fixed avalanche mix, so any replicate can be
recomputed in isolation and results never depend on execution order.
Estimates are plain sample means with standard errors; no variance
reduction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphgen import check_capacity
# unused here, but perfbench/spans.py traces calls through these bindings by name
from .graphgen import empirical_group_degrees, generate  # noqa: F401
from .model import ModelParams, ValidationError

_MASK64 = (1 << 64) - 1
# splitmix64: golden-ratio increment plus the two finalizer multipliers
_MIX_GAMMA = 0x9E3779B97F4A7C15
_MIX_MUL1 = 0xBF58476D1CE4E5B9
_MIX_MUL2 = 0x94D049BB133111EB


def mix_seed(master_seed: int, index: int) -> int:
    """Derive a child seed from (master_seed, index).

    splitmix64 finalizer applied to master_seed + (index + 1) * golden
    gamma, all mod 2^64. The constants are part of the reproducibility
    contract and are pinned by tests.
    """
    if not 0 <= master_seed < 1 << 64:
        raise ValidationError(f"master_seed out of range [0, 2^64): {master_seed}")
    if index < 0:
        raise ValidationError(f"index must be nonnegative, got {index}")
    z = (master_seed + (index + 1) * _MIX_GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * _MIX_MUL1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX_MUL2) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


@dataclass(frozen=True)
class McConfig:
    """Replicate count and master seed for one Monte Carlo run."""

    replicates: int
    master_seed: int

    def __post_init__(self) -> None:
        for name in ("replicates", "master_seed"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValidationError(f"{name} must be an integer, got {value!r}")
        if self.replicates < 1:
            raise ValidationError(f"replicates must be >= 1, got {self.replicates}")
        if not 0 <= self.master_seed < 1 << 64:
            raise ValidationError(f"master_seed out of range [0, 2^64): {self.master_seed}")


@dataclass(frozen=True)
class McEstimate:
    """Sample mean of a statistic with its standard error over replicates."""

    mean: float
    std_error: float
    replicates: int


def _estimate(values: np.ndarray) -> McEstimate:
    n = values.size
    # ddof=1 sample standard deviation; replicates >= 2 enforced by callers
    return McEstimate(
        mean=float(values.mean()),
        std_error=float(values.std(ddof=1) / np.sqrt(n)),
        replicates=n,
    )


def _replicate_degrees(params: ModelParams, cfg: McConfig) -> np.ndarray:
    """(replicates, 2) array of per-replicate group mean degrees, in
    replicate order (a fixed-order reduction keeps results deterministic).

    Replicate r draws X00, X11 and Xc, in that order, from a generator
    seeded with ``mix_seed(cfg.master_seed, r)``; its row is the exact
    group degree sums divided by the group sizes, as in
    :func:`~homophily_lab.graphgen.empirical_group_degrees`.
    """
    if cfg.replicates < 2:
        raise ValidationError(f"need at least 2 replicates, got {cfg.replicates}")
    # generate's admission, so Monte Carlo accepts the sizes of the sampler
    # it stands in for
    check_capacity(params.n_total)
    n0 = params.n_minority
    n1 = params.n_majority
    pair_counts = (n0 * (n0 - 1) // 2, n1 * (n1 - 1) // 2, n0 * n1)
    probs = (params.h_intra_minority, params.h_intra_majority, params.p_cross)
    out = np.empty((cfg.replicates, 2), dtype=np.float64)
    for r in range(cfg.replicates):
        rng = np.random.Generator(np.random.PCG64(mix_seed(cfg.master_seed, r)))
        x00, x11, xc = (int(rng.binomial(m, p)) for m, p in zip(pair_counts, probs))
        out[r] = ((2 * x00 + xc) / n0, (2 * x11 + xc) / n1)
    return out


def mc_degree_summary(
    params: ModelParams, cfg: McConfig
) -> tuple[McEstimate, McEstimate, McEstimate]:
    """Estimates of (k0, k1, gap) from one shared set of replicates."""
    degrees = _replicate_degrees(params, cfg)
    return (
        _estimate(degrees[:, 0]),
        _estimate(degrees[:, 1]),
        _estimate(degrees[:, 0] - degrees[:, 1]),
    )


def mc_group_degrees(params: ModelParams, cfg: McConfig) -> tuple[McEstimate, McEstimate]:
    """Monte Carlo estimates of the two group mean degrees."""
    k0, k1, _ = mc_degree_summary(params, cfg)
    return k0, k1


def mc_gap(params: ModelParams, cfg: McConfig) -> McEstimate:
    """Monte Carlo estimate of the degree gap k0 - k1."""
    return mc_degree_summary(params, cfg)[2]


def mc_gap_slope(
    n_total: int,
    f_minority: float,
    h_majority: float,
    h_grid: list[float],
    cfg: McConfig,
) -> McEstimate:
    """Slope of the degree gap in minority homophily, estimated by ordinary
    least squares over gap estimates on a grid of h00 values.

    Grid point j runs ``cfg.replicates`` independent replicates under the
    derived master seed ``mix_seed(cfg.master_seed, j)``; the reported
    standard error propagates the per-point errors through the OLS weights.
    A two-point grid reduces to plain finite differencing. The reported
    ``replicates`` is the per-point count.
    """
    grid = [float(h) for h in h_grid]
    if len(set(grid)) < 2:
        raise ValidationError(f"h_grid needs >= 2 distinct points, got {h_grid!r}")
    for h in grid:
        if not 0.0 <= h <= 1.0:
            raise ValidationError(f"h_grid value out of range [0, 1]: {h!r}")

    means = np.empty(len(grid))
    errors = np.empty(len(grid))
    for j, h00 in enumerate(grid):
        params = ModelParams(n_total, f_minority, h00, h_majority)
        point_cfg = McConfig(cfg.replicates, mix_seed(cfg.master_seed, j))
        est = mc_gap(params, point_cfg)
        means[j] = est.mean
        errors[j] = est.std_error

    x = np.asarray(grid)
    weights = (x - x.mean()) / ((x - x.mean()) ** 2).sum()
    slope = float(weights @ means)
    slope_se = float(np.sqrt((weights**2) @ (errors**2)))
    return McEstimate(mean=slope, std_error=slope_se, replicates=cfg.replicates)
