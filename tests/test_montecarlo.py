"""Monte Carlo engine: seed derivation, reproducibility, estimator quality."""

import math

import numpy as np
import pytest
from scipy import stats

from homophily_lab import (
    GenSpec,
    McConfig,
    ModelParams,
    ValidationError,
    empirical_group_degrees,
    gap_slope_integer,
    generate,
    mc_degree_summary,
    mc_gap,
    mc_gap_slope,
    mc_group_degrees,
    mix_seed,
)
from homophily_lab.montecarlo import _replicate_degrees


def joint_se(a, b):
    return math.sqrt(a.std_error**2 + b.std_error**2)


# ------------------------------------------------------------ seed mixing


def test_mix_seed_pinned_values():
    # part of the reproducibility contract; do not change without a version bump
    assert mix_seed(0, 0) == 16294208416658607535
    assert mix_seed(0, 1) == 7960286522194355700
    assert mix_seed(0, 2) == 487617019471545679
    assert mix_seed(2**64 - 1, 0) == 16490336266968443936
    assert mix_seed(12345, 67890) == 11312026456099399403


def test_mix_seed_range_and_spread():
    seeds = {mix_seed(42, i) for i in range(1000)}
    assert len(seeds) == 1000
    assert all(0 <= s < 2**64 for s in seeds)
    with pytest.raises(ValidationError):
        mix_seed(-1, 0)
    with pytest.raises(ValidationError):
        mix_seed(0, -1)


# --------------------------------------------------------- reproducibility


def test_estimates_are_deterministic():
    params = ModelParams(150, 0.3, 0.6, 0.4)
    cfg = McConfig(25, 999)
    first = mc_degree_summary(params, cfg)
    second = mc_degree_summary(params, cfg)
    assert first == second


def test_config_validation():
    with pytest.raises(ValidationError):
        McConfig(0, 0)
    with pytest.raises(ValidationError):
        McConfig(10, -1)
    for replicates, master_seed in ((2.5, 0), (True, 0), (10, 1.0), (10, False)):
        with pytest.raises(ValidationError):
            McConfig(replicates, master_seed)
    with pytest.raises(ValidationError):
        mc_gap(ModelParams(10, 0.5, 0.5, 0.5), McConfig(1, 0))


def test_replicate_prefix_is_reproducible():
    # replicate r depends on (master_seed, r) only, never on the run length
    params = ModelParams(300, 0.2, 0.7, 0.4)
    full = _replicate_degrees(params, McConfig(40, 123))
    prefix = _replicate_degrees(params, McConfig(10, 123))
    assert np.array_equal(full[:10], prefix)


# ------------------------------------------ equivalence with sampled graphs


def degree_sum_moments(params):
    """Exact mean and variance of the group degree sums (s0, s1).

    An edge of a pair class adds c endpoints to a group's sum (c = 2 for its
    own intra class, 1 for the cross class), so over the independent
    binomial class counts E[s] = sum c*m*p and Var(s) = sum c^2*m*p*(1-p).
    """
    n0, n1 = params.n_minority, params.n_majority
    classes = (
        (n0 * (n0 - 1) // 2, params.h_intra_minority, (2, 0)),
        (n1 * (n1 - 1) // 2, params.h_intra_majority, (0, 2)),
        (n0 * n1, params.p_cross, (1, 1)),
    )
    mean = [sum(c[g] * m * p for m, p, c in classes) for g in (0, 1)]
    var = [sum(c[g] ** 2 * m * p * (1.0 - p) for m, p, c in classes) for g in (0, 1)]
    return mean, var


@pytest.mark.parametrize(
    "params",
    [
        ModelParams(60, 0.3, 1.0, 0.0),  # deterministic intra blocks
        ModelParams(80, 0.6, 0.3, 0.7),  # f0 >= 0.5
        ModelParams(40, 0.025, 0.5, 0.6),  # n0 = 1: no intra-minority pairs
        ModelParams(200, 0.2, 0.8, 0.8),
    ],
)
def test_replicates_match_sampled_graphs_in_distribution(params):
    replicates = 400
    counted = _replicate_degrees(params, McConfig(replicates, 2024))
    # the oracle samples whole graphs under an unrelated master seed
    sampled = np.array(
        [
            empirical_group_degrees(generate(GenSpec(params, mix_seed(4202, r))))
            for r in range(replicates)
        ]
    )
    sizes = np.array([params.n_minority, params.n_majority])
    mean, var = degree_sum_moments(params)
    for degrees in (counted, sampled):
        sums = np.rint(degrees * sizes)
        assert np.array_equal(sums / sizes, degrees)  # sums are exact integers
        for g in (0, 1):
            se = math.sqrt(var[g] / replicates)
            assert abs(sums[:, g].mean() - mean[g]) <= 4.0 * se
    gap_test = stats.ks_2samp(counted[:, 0] - counted[:, 1], sampled[:, 0] - sampled[:, 1])
    assert gap_test.pvalue > 1e-3


# ------------------------------------------------------------- estimators


def test_deterministic_graph_has_zero_error():
    k0, k1 = mc_group_degrees(ModelParams(4, 0.5, 1.0, 1.0), McConfig(10, 0))
    assert (k0.mean, k0.std_error, k0.replicates) == (1.0, 0.0, 10)
    assert (k1.mean, k1.std_error) == (1.0, 0.0)


def test_group_degree_estimates_near_closed_form():
    params = ModelParams(200, 0.2, 0.8, 0.8)
    k0, k1 = mc_group_degrees(params, McConfig(300, 31))
    assert abs(k0.mean - 63.2) <= 4.0 * k0.std_error
    assert abs(k1.mean - 135.2) <= 4.0 * k1.std_error
    gap = mc_gap(params, McConfig(300, 31))
    assert abs(gap.mean - (-72.0)) <= 4.0 * gap.std_error


def test_uniform_mixing_gap_near_zero():
    est = mc_gap(ModelParams(1000, 0.2, 0.5, 0.5), McConfig(100, 77))
    assert abs(est.mean) <= 4.0 * est.std_error


def test_gap_and_degrees_share_replicates():
    params = ModelParams(120, 0.25, 0.9, 0.1)
    cfg = McConfig(40, 4)
    k0, k1, gap = mc_degree_summary(params, cfg)
    assert gap.mean == pytest.approx(k0.mean - k1.mean, rel=1e-12)


def test_affine_response_of_gap_to_h00():
    # raising h00 from 0 to 1 moves the mean gap by the integer-form slope
    hi = mc_gap(ModelParams(1000, 0.3, 1.0, 0.8), McConfig(100, 5))
    lo = mc_gap(ModelParams(1000, 0.3, 0.0, 0.8), McConfig(100, 6))
    want = gap_slope_integer(1000, 300)
    assert abs((hi.mean - lo.mean) - want) <= 4.0 * joint_se(hi, lo)


def test_error_shrinks_like_inverse_sqrt_replicates():
    params = ModelParams(200, 0.2, 0.8, 0.8)
    small = mc_gap(params, McConfig(50, 1))
    large = mc_gap(params, McConfig(200, 1001))
    ratio = large.std_error / small.std_error
    assert 0.4 <= ratio <= 0.6


def test_coverage_calibration():
    # analytic gap inside mean +- 3 se in >= 95 of 100 independent runs
    params = ModelParams(200, 0.2, 0.8, 0.8)
    inside = 0
    for s in range(100):
        est = mc_gap(params, McConfig(30, 10_000 + s))
        if abs(est.mean + 72.0) <= 3.0 * est.std_error:
            inside += 1
    assert inside >= 95


# ------------------------------------------------------------ slope fitting


def test_slope_estimate_matches_integer_convention():
    est = mc_gap_slope(300, 0.2, 0.5, [0.0, 0.5, 1.0], McConfig(100, 42))
    assert abs(est.mean - gap_slope_integer(300, 60)) <= 4.0 * est.std_error
    assert est.replicates == 100


def test_two_point_grid_is_plain_differencing():
    est = mc_gap_slope(100, 0.3, 0.4, [0.0, 1.0], McConfig(30, 8))
    # reproduce by hand from the same derived seeds
    lo = mc_gap(ModelParams(100, 0.3, 0.0, 0.4), McConfig(30, mix_seed(8, 0)))
    hi = mc_gap(ModelParams(100, 0.3, 1.0, 0.4), McConfig(30, mix_seed(8, 1)))
    assert est.mean == pytest.approx(hi.mean - lo.mean, rel=1e-12)
    assert est.std_error == pytest.approx(joint_se(hi, lo), rel=1e-12)


def test_slope_reflects_integer_rounding_near_critical_size():
    # f0 = 0.2505 rounds to 251 minority nodes, so concrete instances have
    # slope +1 even though the continuous form gives exactly zero there
    est = mc_gap_slope(1000, 0.2505, 0.5, [0.0, 0.25, 0.5, 0.75, 1.0], McConfig(100, 25))
    assert abs(est.mean - 1.0) <= 4.0 * est.std_error
    assert abs(est.mean) > 4.0 * est.std_error


def test_slope_grid_validation():
    cfg = McConfig(10, 0)
    with pytest.raises(ValidationError):
        mc_gap_slope(100, 0.3, 0.5, [0.5], cfg)
    with pytest.raises(ValidationError):
        mc_gap_slope(100, 0.3, 0.5, [0.5, 0.5], cfg)
    with pytest.raises(ValidationError):
        mc_gap_slope(100, 0.3, 0.5, [0.0, 1.5], cfg)
