"""Friedman test and Nemenyi post-hoc analysis over paired experiment runs."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Nemenyi critical values q_alpha (studentized range / sqrt(2)) for k = 2..10.
Q_ALPHA = {
    0.05: {2: 1.960, 3: 2.343, 4: 2.569, 5: 2.728, 6: 2.850,
           7: 2.949, 8: 3.031, 9: 3.102, 10: 3.164},
    0.10: {2: 1.645, 3: 2.052, 4: 2.291, 5: 2.459, 6: 2.589,
           7: 2.693, 8: 2.780, 9: 2.855, 10: 2.920},
}


@dataclass(frozen=True)
class ComparisonResult:
    """Outcome of a Friedman/Nemenyi comparison of k algorithms over n blocks."""

    names: tuple[str, ...]
    n: int
    k: int
    mean_ranks: np.ndarray
    statistic: float
    p_value: float
    alpha: float
    critical_difference: float
    significant: bool
    pairwise: np.ndarray  # (k, k) bool: rank gap >= CD

    def better(self, i: int, j: int) -> bool:
        """True iff algorithm i is significantly better (lower-rank) than j."""
        return bool(self.significant and self.pairwise[i, j]
                    and self.mean_ranks[i] < self.mean_ranks[j])


def rank_rows(values: np.ndarray) -> np.ndarray:
    """Ascending fractional ranks within each row; ties share the mean rank."""
    v = np.asarray(values, dtype=float)
    if v.ndim != 2:
        raise ValueError("values must be 2-D (blocks x algorithms)")
    if not np.all(np.isfinite(v)):
        raise ValueError("values contain non-finite entries")
    below = (v[:, None, :] < v[:, :, None]).sum(axis=2)
    tied = (v[:, None, :] == v[:, :, None]).sum(axis=2)
    return below + (tied + 1) / 2


def _gamma_p_series(a: float, x: float, eps: float = 1e-14, itmax: int = 500) -> float:
    ap = a
    s = 1.0 / a
    delta = s
    for _ in range(itmax):
        ap += 1.0
        delta *= x / ap
        s += delta
        if abs(delta) < abs(s) * eps:
            break
    return s * math.exp(-x + a * math.log(x) - math.lgamma(a))


def _gamma_q_contfrac(a: float, x: float, eps: float = 1e-14, itmax: int = 500) -> float:
    tiny = 1e-300
    b = x + 1.0 - a
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
        de = d * c
        h *= de
        if abs(de - 1.0) < eps:
            break
    return math.exp(-x + a * math.log(x) - math.lgamma(a)) * h


def chi2_sf(x: float, df: float) -> float:
    """Survival function of the chi-square distribution (upper tail)."""
    if df <= 0:
        raise ValueError(f"df must be positive, got {df}")
    if x < 0:
        raise ValueError(f"x must be >= 0, got {x}")
    if x == 0.0:
        return 1.0
    a = df / 2.0
    xx = x / 2.0
    if xx < a + 1.0:
        return 1.0 - _gamma_p_series(a, xx)
    return _gamma_q_contfrac(a, xx)


def friedman_nemenyi(values: np.ndarray, alpha: float = 0.05,
                     names: tuple[str, ...] | None = None) -> ComparisonResult:
    """Friedman omnibus test plus Nemenyi pairwise critical differences.

    Args:
        values: (n, k) matrix; rows are paired blocks (e.g. runs), columns
            are algorithms, entries a metric where lower is better.
        alpha: 0.05 or 0.10 (tabulated Nemenyi constants).
        names: optional column names.

    The omnibus statistic is chi2_F = 12n/(k(k+1)) * (sum_j Rbar_j^2 -
    k(k+1)^2/4) on k-1 degrees of freedom; the critical difference is
    CD = q_alpha * sqrt(k(k+1)/(6n)).
    """
    ranks = rank_rows(values)
    n, k = ranks.shape
    if n < 2:
        raise ValueError(f"need at least 2 blocks, got {n}")
    if alpha not in Q_ALPHA:
        raise ValueError(f"alpha must be one of {sorted(Q_ALPHA)}, got {alpha}")
    if k not in Q_ALPHA[alpha]:
        raise ValueError(f"tabulated Nemenyi constants cover k = 2..10, got k = {k}")
    if names is None:
        names = tuple(f"alg{j}" for j in range(k))
    if len(names) != k:
        raise ValueError(f"got {len(names)} names for {k} columns")

    mean_ranks = ranks.mean(axis=0)
    stat = 12.0 * n / (k * (k + 1)) * (float((mean_ranks ** 2).sum()) - k * (k + 1) ** 2 / 4.0)
    stat = max(stat, 0.0)
    p = chi2_sf(stat, k - 1)
    cd = Q_ALPHA[alpha][k] * math.sqrt(k * (k + 1) / (6.0 * n))
    gaps = np.abs(mean_ranks[:, None] - mean_ranks[None, :])
    pairwise = gaps >= cd
    np.fill_diagonal(pairwise, False)
    return ComparisonResult(names=tuple(names), n=n, k=k, mean_ranks=mean_ranks,
                            statistic=float(stat), p_value=float(p), alpha=float(alpha),
                            critical_difference=float(cd),
                            significant=bool(p < alpha), pairwise=pairwise)
