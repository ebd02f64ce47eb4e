"""Discrete mutual information and its Gamma-null significance test.

Returns are reduced to small alphabets by equal-frequency discretization,
dependence is measured with the plug-in mutual information estimator (in
bits), and estimated values are tested against the Gamma approximation of
the null distribution of plug-in MI between independent discrete variables:

    MI_null ~ Gamma(alpha=(Sx - 1)(Sy - 1) / 2, beta=1 / (N ln 2))
            = chi2(nu=(Sx - 1)(Sy - 1)) / (2 N ln 2)

with N the sample size. Multiple testing is handled with a Bonferroni
correction: each link is tested at level p / m.

The degrees of freedom nu are a whole number, so the chi-square tail is a
finite sum in closed form, and the threshold is its upper p / m point,
found by bisection. ``gamma_cdf`` and ``gamma_quantile`` read the same two
functions and accept the shapes that form: positive multiples of 1/2.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DiscreteSeries",
    "MiTestConfig",
    "discretize_equal_frequency",
    "mutual_information_bits",
    "gamma_cdf",
    "gamma_quantile",
    "significance_threshold",
]


# A tail term below this share of the largest one ends the sum: the terms left out add up to far
# less than a unit in the sum's last place.
_NEGLIGIBLE_TERM = 2.0**-80


def _chi2_sf(x: float, dof: int) -> float:
    """P(X > x) for X ~ chi-square with an integer number ``dof`` >= 1 of degrees of freedom.

    With t = x / 2 the tail is a finite sum (Abramowitz & Stegun 26.4.4-5):
    e^-t * sum_{j < dof/2} t^j / j! for even ``dof``, and erfc(sqrt(t)) plus
    e^-t * sum of t^j / Gamma(j + 1) over j = 1/2, 3/2, ..., (dof - 2)/2 for
    odd ``dof``. Each term is formed in log space, so none underflows where
    e^-t alone would.

    The terms rise while j < t and fall after, each falling faster than the
    one before, so the sum starts at the largest term and walks out on both
    sides until a term drops below ``_NEGLIGIBLE_TERM`` of it. At dof =
    9,801 (S = 100) near the threshold that is 475 of the 4,900 terms; at
    the pipeline's dof = 9 it is all of them.
    """
    t = 0.5 * x
    if t <= 0.0:
        return 1.0
    if t == math.inf:
        return 0.0
    log_t, half, count = math.log(t), 0.5 * (dof % 2), dof // 2
    tail = math.erfc(math.sqrt(t)) if half else 0.0
    if count == 0:
        return tail
    peak = min(max(int(t - half), 0), count - 1)
    terms = []
    for indices in (range(peak, -1, -1), range(peak + 1, count)):
        for i in indices:
            term = math.exp((half + i) * log_t - math.lgamma(half + i + 1.0) - t)
            terms.append(term)
            if term < _NEGLIGIBLE_TERM * terms[0]:
                break
    return tail + math.fsum(terms)


def _chi2_isf(q: float, dof: int) -> float:
    """The smallest float x with ``_chi2_sf(x, dof) <= q``, for a tail ``q`` in (0, 1), by bisection.

    The bracket doubles up from ``dof`` until it holds the root, then halves
    until its ends are adjacent floats.
    """
    lo, hi = 0.0, float(dof)
    while _chi2_sf(hi, dof) > q:
        lo, hi = hi, 2.0 * hi
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if _chi2_sf(mid, dof) > q:
            lo = mid
        else:
            hi = mid
    return hi


def _gamma_dof(alpha: float, beta: float) -> int:
    """2 * alpha: Gamma(alpha, beta) is beta / 2 times a chi-square with that many degrees of freedom."""
    dof = 2.0 * alpha
    if not (dof >= 1.0 and dof.is_integer() and beta > 0.0):
        raise ValueError(f"Gamma shape must be a positive multiple of 1/2 and scale positive, got ({alpha}, {beta})")
    return int(dof)


def gamma_cdf(x: float, alpha: float, beta: float) -> float:
    """CDF of Gamma(shape=alpha, scale=beta) at x, for a shape that is a positive multiple of 1/2."""
    if x < 0.0:
        raise ValueError(f"gamma_cdf requires x >= 0, got {x}")
    return 1.0 - _chi2_sf(2.0 * x / beta, _gamma_dof(alpha, beta))


def gamma_quantile(q: float, alpha: float, beta: float) -> float:
    """The q-quantile of Gamma(alpha, beta), solved on the tail 1 - q: a q below ~1e-16 reads as 0."""
    if not 0.0 < q < 1.0:
        raise ValueError(f"gamma_quantile requires q in (0, 1), got {q}")
    return 0.5 * beta * _chi2_isf(1.0 - q, _gamma_dof(alpha, beta))


@dataclass(frozen=True)
class DiscreteSeries:
    """Integer-valued series over the alphabet {0, ..., cardinality - 1}.

    ``states`` is one series, or a (rows, columns) block holding one series
    per column; the length is the number of rows.
    """

    states: np.ndarray
    cardinality: int

    def __post_init__(self) -> None:
        states = np.asarray(self.states, dtype=np.int64)
        object.__setattr__(self, "states", states)
        if self.cardinality < 1:
            raise ValueError(f"cardinality must be positive, got {self.cardinality}")
        if states.ndim not in (1, 2):
            raise ValueError("states must be a series or a (rows, columns) block")
        if states.size and (states.min() < 0 or states.max() >= self.cardinality):
            raise ValueError("states must lie in [0, cardinality)")

    def __len__(self) -> int:
        return int(self.states.shape[0])


def discretize_equal_frequency(values, states: int = 4) -> DiscreteSeries:
    """Map reals to ``states`` equal-frequency bins by rank.

    ``values`` is one series, or a (rows, columns) block whose columns are
    binned independently. A value goes to state floor(r * states / n), where
    r is its min-rank: the number of values in its column strictly below it.
    Tied values therefore share one state, and the state of a value does not
    depend on the row it sits in. Where the values of a column are distinct,
    each state receives either floor(n / states) or ceil(n / states) points;
    ties make the counts uneven, and a constant column has one state.
    Rank-based binning makes the result invariant under any strictly
    increasing transform. Non-finite values are rejected.

    No ranking is formed. A min-rank r reaches state k exactly when r >= p_k =
    ceil(k * n / states), that is when the value lies strictly above the
    value of rank p_k - 1, read from one sorted copy of the block. So a
    value's state is the number of those edges that it lies strictly above.
    """
    v = np.asarray(values, dtype=float)
    if v.ndim not in (1, 2):
        raise ValueError("values must be a series or a (rows, columns) block")
    if states < 1:
        raise ValueError(f"states must be positive, got {states}")
    n = v.shape[0]
    if n < states:
        raise ValueError(f"need at least {states} values to form {states} states, got {n}")
    block = v.reshape(n, -1)
    ordered = np.sort(block, axis=0)  # NaN sorts last and -inf first: the end rows show any non-finite value
    if not (np.isfinite(ordered[0]).all() and np.isfinite(ordered[-1]).all()):
        raise ValueError(f"cannot bin {v.size - np.count_nonzero(np.isfinite(v))} non-finite values")
    codes = np.zeros(block.shape, dtype=np.int64)
    for k in range(1, states):
        codes += block > ordered[-(-k * n // states) - 1]
    return DiscreteSeries(states=codes.reshape(v.shape), cardinality=states)


def _sum_first_axis(values: np.ndarray) -> np.ndarray:
    """Sum over the first axis, adding in the order ``np.add.reduce`` uses on a contiguous axis of that length.

    That order is numpy's pairwise summation: fewer than 8 values are added
    left to right; up to 128 go into eight running sums over strides of 8,
    combined pairwise, and the rest are added left to right; more than 128
    are split into two halves, the first a multiple of 8 long, and each half
    is summed so. Summing planes of a stacked array in this order gives, for
    every element, bitwise the sum that ``np.add.reduce`` gives over the
    same values laid out contiguously.
    """
    n = len(values)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _sum_first_axis(values[:half]) + _sum_first_axis(values[half:])
    if n < 8:
        total, rest = values[0].copy(), values[1:]
    else:
        tail = n - n % 8
        lanes = values[:8].copy()
        for lo in range(8, tail, 8):
            lanes += values[lo : lo + 8]
        while len(lanes) > 1:
            lanes = lanes[0::2] + lanes[1::2]
        total, rest = lanes[0], values[tail:]
    for value in rest:
        total += value
    return total


def _mi_bits_from_counts(cells: np.ndarray, total: float | np.ndarray) -> np.ndarray:
    """Plug-in MI in bits from cell-major contingency counts: ``cells[i, j, ...]`` is cell (i, j) of every table.

    ``total`` is each table's count, the sum of its cells, given rather than
    reduced; it broadcasts against the table axes ``cells.shape[2:]``. Every
    operation runs over whole cell planes. The row marginals and the final
    sum over each table's cells add the planes in the order
    ``_sum_first_axis`` mirrors, numpy's own for a table's contiguous cells;
    the column marginals are left-to-right sums over source states; the log
    ratios and terms are elementwise. So every value is bitwise that of the
    direct formula on table-major counts.
    """
    joint = np.divide(cells, total, dtype=float)
    px = _sum_first_axis(np.moveaxis(joint, 1, 0))
    py = joint[0].copy()
    for row in joint[1:]:
        py += row
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.log2(joint)
        terms -= np.log2(px)[:, np.newaxis]
        terms -= np.log2(py)
        terms *= joint
    np.copyto(terms, 0.0, where=cells == 0)
    return _sum_first_axis(terms.reshape(-1, *terms.shape[2:]))


def mutual_information_bits(x: DiscreteSeries, y: DiscreteSeries) -> float:
    """Plug-in mutual information between two discrete series, in bits."""
    if x.states.ndim != 1 or y.states.ndim != 1:
        raise ValueError("mutual_information_bits takes two series, not blocks")
    if len(x) != len(y):
        raise ValueError(f"length mismatch: {len(x)} vs {len(y)}")
    if len(x) == 0:
        raise ValueError("series must be non-empty")
    codes = x.states * y.cardinality + y.states
    counts = np.bincount(codes, minlength=x.cardinality * y.cardinality)
    counts = counts.reshape(x.cardinality, y.cardinality)
    return float(max(_mi_bits_from_counts(counts, len(x)), 0.0))


@dataclass(frozen=True)
class MiTestConfig:
    """Parameters of one MI significance test under Bonferroni correction."""

    states_x: int
    states_y: int
    sample_size: int
    uncorrected_p: float
    num_tests: int = 1

    def __post_init__(self) -> None:
        if self.states_x < 2 or self.states_y < 2:
            raise ValueError("states_x and states_y must be at least 2")
        if self.sample_size < 1:
            raise ValueError(f"sample_size must be positive, got {self.sample_size}")
        if not 0.0 < self.uncorrected_p < 1.0:
            raise ValueError(f"uncorrected_p must lie in (0, 1), got {self.uncorrected_p}")
        if self.num_tests < 1:
            raise ValueError(f"num_tests must be positive, got {self.num_tests}")
        if not 0.0 < self.corrected_p < 1.0:
            raise ValueError("corrected significance level must lie in (0, 1)")

    @property
    def corrected_p(self) -> float:
        return self.uncorrected_p / self.num_tests


@functools.lru_cache(maxsize=256)
def significance_threshold(cfg: MiTestConfig) -> float:
    """MI acceptance threshold in bits: the upper ``corrected_p`` point of the null.

    That is the chi-square point over 2 N ln 2, solved on the tail
    ``corrected_p`` itself: 1 - corrected_p would round away the level's last
    digits. Cached per config: every graph of one spec shares its threshold,
    and the bisection is the costly part.
    """
    dof = (cfg.states_x - 1) * (cfg.states_y - 1)
    return _chi2_isf(cfg.corrected_p, dof) / (2.0 * cfg.sample_size * math.log(2.0))
