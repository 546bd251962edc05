"""Closed forms and exact binomial bounds for the benchmark's output checks.

Everything here follows from the model definition alone, not from the
package under test: the minority has n0 = floor(f0 * N + 0.5) nodes, and
every unordered pair is an independent Bernoulli edge with probability h00
inside the minority, h11 inside the majority and 1 - (h00 + h11) / 2 across.

Every statistic the program reports (a group mean degree, a gap, a gap
slope, a pair-class count, or a mean of these over replicates) is a linear
combination of independent Bernoulli edges. Such a statistic is written as
a list of ``(coefficient, pairs, p)`` terms, and Bernstein's inequality
bounds its deviation from the mean exactly, from the binomial variances
m * p * (1 - p), without a normal approximation and without sample standard
errors. No random stream is stored, so a change that draws edges
differently but from the same distribution still passes.
"""

from __future__ import annotations

import math

# Probability that a correct program fails any statistical check of one run.
FALSE_ALARM_PER_RUN = 1e-6

# Relative slack for floating-point rounding in the program's arithmetic.
_FLOAT_SLACK = 1e-9


def group_sizes(n: int, f0: float) -> tuple[int, int]:
    n0 = math.floor(f0 * n + 0.5)
    return n0, n - n0


def pair_classes(n: int, f0: float, h00: float, h11: float):
    """(pairs, edge probability) of the intra-minority, intra-majority and
    cross pair classes."""
    n0, n1 = group_sizes(n, f0)
    p_cross = ((1.0 - h00) + (1.0 - h11)) / 2.0
    return (n0 * (n0 - 1) // 2, h00), (n1 * (n1 - 1) // 2, h11), (n0 * n1, p_cross)


def degree_terms(n: int, f0: float, h00: float, h11: float):
    """Terms of one graph's k0 = s0 / n0, k1 = s1 / n1 and gap = k0 - k1,
    where s0 = 2 X00 + Xc and s1 = 2 X11 + Xc are the group degree sums."""
    n0, n1 = group_sizes(n, f0)
    c00, c11, cx = pair_classes(n, f0, h00, h11)
    k0 = [(2.0 / n0, *c00), (1.0 / n0, *cx)]
    k1 = [(2.0 / n1, *c11), (1.0 / n1, *cx)]
    gap = [(2.0 / n0, *c00), (1.0 / n0 - 1.0 / n1, *cx), (-2.0 / n1, *c11)]
    return k0, k1, gap


def mean_over(terms, replicates: int):
    """The same statistic averaged over independent replicates."""
    return [(c / replicates, m * replicates, p) for c, m, p in terms]


def scaled(terms, weight: float):
    return [(c * weight, m, p) for c, m, p in terms]


def expectation(terms) -> float:
    return math.fsum(c * m * p for c, m, p in terms)


def bernstein_halfwidth(terms, delta: float) -> float:
    """t with P(|S - E S| >= t) <= delta for S = sum of the terms' edges.

    Bernstein: P(|S - E S| >= t) <= 2 exp(-t^2 / (2 (V + b t / 3))), where V
    is the exact variance and b bounds each centred summand.
    """
    variance = math.fsum(c * c * m * p * (1.0 - p) for c, m, p in terms)
    b = max((abs(c) for c, m, p in terms if m and 0.0 < p < 1.0), default=0.0)
    log_term = math.log(2.0 / delta)
    a = b * log_term / 3.0
    return a + math.sqrt(a * a + 2.0 * variance * log_term)


def close(observed: float, expected: float) -> bool:
    return abs(observed - expected) <= _FLOAT_SLACK * max(1.0, abs(expected))


def critical_size(n: int) -> float:
    return (2 + n) / (4 * n)


def slope_integer(n: int, f0: float) -> float:
    n0, _ = group_sizes(n, f0)
    return (4 * n0 - n - 2) / 2


def ols_weights(grid) -> list[float]:
    """Weights w with slope = sum_j w_j * y_j for an OLS line over ``grid``."""
    mean = math.fsum(grid) / len(grid)
    sxx = math.fsum((x - mean) ** 2 for x in grid)
    return [(x - mean) / sxx for x in grid]


def bisection_midpoints(lo: float, hi: float, tol: float, center: float):
    """Midpoints a bisection over (lo, hi) visits to end at ``center``, and
    the center it actually ends at. Bisection is a binary search, so the
    final bracket fixes every step's direction."""
    mids = []
    while hi - lo > tol:
        mid = (lo + hi) / 2.0
        mids.append(mid)
        if center > mid:
            lo = mid
        else:
            hi = mid
    return mids, (lo + hi) / 2.0


class StatChecks:
    """Two-sided Bernstein checks of one run, evaluated together so that the
    run's false-alarm budget is split evenly over them (Bonferroni)."""

    def __init__(self) -> None:
        self._items: list[tuple[str, str, float, list]] = []

    def add(self, op: str, label: str, observed: float, terms) -> None:
        self._items.append((op, label, observed, terms))

    def evaluate(self) -> list[tuple[str, str]]:
        """(op, message) for every check outside its bound."""
        if not self._items:
            return []
        delta = FALSE_ALARM_PER_RUN / len(self._items)
        failures = []
        for op, label, observed, terms in self._items:
            expected = expectation(terms)
            bound = bernstein_halfwidth(terms, delta)
            slack = _FLOAT_SLACK * max(1.0, abs(expected))
            if not abs(observed - expected) <= bound + slack:
                failures.append(
                    (op, f"{label}: {observed!r} deviates from {expected!r} by more "
                         f"than the exact bound {bound:.6g}")
                )
        return failures
