"""Discrete mutual information and its Gamma-null significance test.

Returns are reduced to small alphabets by equal-frequency discretization,
dependence is measured with the plug-in mutual information estimator (in
bits), and estimated values are tested against the Gamma approximation of
the null distribution of plug-in MI between independent discrete variables:

    MI_null ~ Gamma(alpha=(Sx - 1)(Sy - 1) / 2, beta=1 / (N ln 2))

with N the sample size. Multiple testing is handled with a Bonferroni
correction: each link is tested at level p / m.
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
    "log_gamma",
    "gamma_cdf",
    "gamma_quantile",
    "significance_threshold",
]

# Lanczos approximation, g=7, 9 coefficients.
_LANCZOS_G = 7.0
_LANCZOS_COEFFS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)
_LN_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def log_gamma(x: float) -> float:
    """Natural log of the gamma function for x > 0 (Lanczos, g=7)."""
    if x <= 0.0:
        raise ValueError(f"log_gamma requires x > 0, got {x}")
    if x < 0.5:
        # Reflection keeps the Lanczos series in its accurate range.
        return math.log(math.pi / math.sin(math.pi * x)) - log_gamma(1.0 - x)
    z = x - 1.0
    acc = _LANCZOS_COEFFS[0]
    for i, c in enumerate(_LANCZOS_COEFFS[1:], start=1):
        acc += c / (z + i)
    t = z + _LANCZOS_G + 0.5
    return _LN_SQRT_2PI + (z + 0.5) * math.log(t) - t + math.log(acc)


def _lower_series(a: float, s: float, eps: float = 1e-16, itmax: int = 1000) -> float:
    # Power series for the regularized lower incomplete gamma, s < a + 1.
    term = 1.0 / a
    total = term
    ap = a
    for _ in range(itmax):
        ap += 1.0
        term *= s / ap
        total += term
        if abs(term) < abs(total) * eps:
            return total * math.exp(-s + a * math.log(s) - log_gamma(a))
    raise RuntimeError(f"incomplete gamma series failed to converge (a={a}, s={s})")


def _upper_continued_fraction(a: float, s: float, eps: float = 1e-16, itmax: int = 1000) -> float:
    # Modified Lentz continued fraction for the regularized upper tail, s >= a + 1.
    tiny = 1e-300
    b = s + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, itmax + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < eps:
            return h * math.exp(-s + a * math.log(s) - log_gamma(a))
    raise RuntimeError(f"incomplete gamma continued fraction failed to converge (a={a}, s={s})")


def gamma_cdf(x: float, alpha: float, beta: float) -> float:
    """CDF of Gamma(shape=alpha, scale=beta) at x, i.e. P(alpha, x / beta).

    Series expansion below the x/beta = alpha + 1 split, continued fraction
    above it; absolute error well under 1e-10 across the tested range.
    """
    if alpha <= 0.0 or beta <= 0.0:
        raise ValueError(f"gamma_cdf requires alpha > 0 and beta > 0, got ({alpha}, {beta})")
    if x < 0.0:
        raise ValueError(f"gamma_cdf requires x >= 0, got {x}")
    s = x / beta
    if s == 0.0:
        return 0.0
    if s < alpha + 1.0:
        return _lower_series(alpha, s)
    return 1.0 - _upper_continued_fraction(alpha, s)


def _gamma_pdf(x: float, alpha: float, beta: float) -> float:
    if x <= 0.0:
        return 0.0
    log_pdf = (alpha - 1.0) * math.log(x) - x / beta - log_gamma(alpha) - alpha * math.log(beta)
    return math.exp(log_pdf) if log_pdf > -700.0 else 0.0


def gamma_quantile(q: float, alpha: float, beta: float, max_iter: int = 300) -> float:
    """Inverse of ``gamma_cdf`` in x: the q-quantile of Gamma(alpha, beta).

    Brackets the root, then iterates safeguarded Newton steps with bisection
    whenever a Newton candidate leaves the bracket, until the bracket narrows
    to a relative width of 1e-15. The returned x satisfies gamma_cdf(x) = q
    far inside the 1e-10 tolerance wherever q is representable.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"gamma_quantile requires q in (0, 1), got {q}")
    if alpha <= 0.0 or beta <= 0.0:
        raise ValueError(f"gamma_quantile requires alpha > 0 and beta > 0, got ({alpha}, {beta})")

    lo = 0.0
    hi = alpha * beta  # start at the mean, expand upward
    f_hi = gamma_cdf(hi, alpha, beta)
    expansions = 0
    while f_hi < q:
        lo = hi
        hi *= 2.0
        f_hi = gamma_cdf(hi, alpha, beta)
        expansions += 1
        if expansions > 400:
            raise RuntimeError(f"gamma_quantile bracket expansion failed (q={q}, alpha={alpha}, beta={beta})")

    x = 0.5 * (lo + hi)
    f = f_hi
    for _ in range(max_iter):
        f = gamma_cdf(x, alpha, beta)
        if f == q:
            return x
        if f < q:
            lo = x
        else:
            hi = x
        if hi - lo <= 1e-15 * hi:
            return 0.5 * (lo + hi)
        pdf = _gamma_pdf(x, alpha, beta)
        if pdf > 0.0:
            candidate = x - (f - q) / pdf
            if lo < candidate < hi:
                x = candidate
                continue
        x = 0.5 * (lo + hi)
    raise RuntimeError(
        "gamma_quantile did not converge: "
        f"q={q}, alpha={alpha}, beta={beta}, bracket=({lo}, {hi}), last cdf={f}"
    )


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


def _mi_bits_from_counts(counts: np.ndarray) -> np.ndarray:
    """Plug-in MI in bits from contingency counts over the last two axes.

    The row marginals and the final sum over each table reduce the table's
    contiguous trailing axes, in numpy's order for them (pairwise from 8
    values on). The remaining steps work on a cell-major copy, where each
    operation runs over one long contiguous row per cell: the column
    marginals are the same left-to-right sums as ``joint.sum(axis=-2)``, and
    the log ratios and terms are elementwise, so every value is bitwise that
    of the direct formula.
    """
    counts = np.asarray(counts, dtype=float)
    total = counts.sum(axis=(-2, -1), keepdims=True)
    joint = counts / total
    px = joint.sum(axis=-1)
    cells = np.moveaxis(joint, (-2, -1), (0, 1)).copy()
    py = cells[0].copy()
    for row in cells[1:]:
        py += row
    with np.errstate(divide="ignore", invalid="ignore"):
        log_px = np.moveaxis(np.log2(px), -1, 0)
        terms = np.log2(cells)
        terms -= log_px[:, np.newaxis]
        terms -= np.log2(py)
        terms *= cells
    terms = np.where(cells > 0.0, terms, 0.0)
    return np.ascontiguousarray(np.moveaxis(terms, (0, 1), (-2, -1))).sum(axis=(-2, -1))


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
    return float(max(_mi_bits_from_counts(counts), 0.0))


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
    """MI acceptance threshold in bits for the Gamma null at the corrected level.

    Cached per config: every graph of one spec shares its threshold, and the
    Gamma-quantile solve is the costly part.
    """
    alpha = (cfg.states_x - 1) * (cfg.states_y - 1) / 2.0
    beta = 1.0 / (cfg.sample_size * math.log(2.0))
    return gamma_quantile(1.0 - cfg.corrected_p, alpha, beta)
