"""Evaluation metrics: 4-parameter logistic mapping then PLCC/SROCC/KROCC/RMSE.

Predicted scores are first fitted to the ground-truth scale with a
monotone four-parameter logistic (Nelder-Mead least squares), after
which Pearson correlation and RMSE are computed on the mapped values.
Rank metrics use average ranks for ties (Spearman) and tau-b (Kendall)
and are computed on the raw predictions, which the monotone mapping
cannot reorder.

Everything here is NumPy and the standard library, and it reproduces the
SciPy routines it is checked against bit for bit:

* the fit minimises with ``_nelder_mead``, a port of the non-adaptive,
  unbounded Nelder-Mead branch of SciPy's ``optimize.minimize`` (Nelder &
  Mead, Comput. J. 1965): the same initial simplex (each entry times 1.05, or
  0.00025 where it is zero), reflection/expansion/contraction/shrink
  coefficients rho = 1, chi = 2, psi = 0.5, sigma = 0.5, a re-sort of the
  simplex after every step, and the same evaluation count and
  ``xatol``/``fatol`` stopping tests;
* the logistic takes its exponential from ``math.exp`` (the C library's
  ``exp``, which SciPy's ``special.expit`` also calls); NumPy's vectorised
  ``exp`` can differ in the last bit, which moves the fitted parameters;
* Spearman correlates average ranks with ``np.corrcoef`` on the stacked
  columns, as SciPy's ``stats.spearmanr`` does;
* Kendall's tau-b comes from exact integer pair counts, the discordant
  pairs from a merge count (Knight, JASA 1966) in O(n log n) time and
  O(n) memory, and is combined and clipped to [-1, 1] as
  SciPy's ``stats.kendalltau`` does.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .manifest import write_csv_table

#: Results reported for the original model of this architecture on its
#: source dataset (300 sequences, proprietary, with large pretrained
#: backbones). Neither that dataset nor those weights are public, so
#: these numbers are NOT reproducible with this toolkit; they are kept
#: only as documented reference constants.
REFERENCE_RESULTS = {
    "srocc": 0.8245,
    "plcc": 0.8590,
    "krocc": 0.6436,
    "rmse": 0.5772,
}


@dataclass
class LogisticFit:
    beta: tuple[float, float, float, float]
    mapped: np.ndarray
    sse: float
    degenerate: bool = False


@dataclass
class MetricReport:
    """The four criteria, the logistic parameters and the sample count;
    ``degenerate`` is the fit's flag (see ``logistic_fit``), which
    ``write_report_csv`` does not write and the caller reports."""

    plcc: float
    srocc: float
    krocc: float
    rmse: float
    beta: tuple[float, float, float, float]
    n: int
    degenerate: bool = False


def logistic4(x, b1, b2, b3, b4):
    """(b1-b2)/(1+exp(-(x-b3)/|b4|)) + b2; |b4| keeps the curve monotone."""
    scale = max(abs(b4), 1e-12)
    return (b1 - b2) * _expit((np.asarray(x, dtype=np.float64) - b3) / scale) + b2


#: Largest argument whose exp is finite; above it ``math.exp`` raises
#: where the C function returns inf.
_EXP_ARG_MAX = math.log(sys.float_info.max)


def _expit(z: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-z)) elementwise, with the C library's exp."""
    v = -z.ravel()
    v[v > _EXP_ARG_MAX] = math.inf
    e = np.fromiter(map(math.exp, v.tolist()), np.float64, v.size)
    return (1.0 / (1.0 + e)).reshape(z.shape)


#: Fewest (prediction, MOS) pairs the 4-parameter logistic fit takes.
LOGISTIC_FIT_MIN_N = 5


def logistic_fit(pred, mos) -> LogisticFit:
    """Least-squares 4-parameter logistic fit of pred onto the mos scale.

    Nelder-Mead from b1=max(mos), b2=min(mos), b3=median(pred),
    b4=std(pred)/4; at most 2000 iterations or 4000 evaluations, stopping
    once the simplex spans at most 1e-10 in every parameter and 1e-12 in
    the sum of squares.
    Two cases are degenerate and return the identity mapping with
    ``degenerate`` set: a constant mos, and a fit that collapses to a
    constant curve (scores only weakly related to the mos can drive b3 out
    of range).
    """
    pred = _finite("pred", pred)
    mos = _finite("mos", mos)
    if pred.shape != mos.shape or pred.ndim != 1:
        raise ValidationError("pred and mos must be equal-length 1-D arrays")
    if len(pred) < LOGISTIC_FIT_MIN_N:
        raise ValidationError(f"logistic fit needs n >= {LOGISTIC_FIT_MIN_N}, got {len(pred)}")
    if np.ptp(mos) == 0:
        c = float(mos[0])
        return _identity_fit(pred, mos, (c, c, float(np.median(pred)), 1.0))

    x0 = np.array([
        mos.max(),
        mos.min(),
        float(np.median(pred)),
        max(float(pred.std()) / 4.0, 1e-6),
    ])

    def sse(beta):
        r = logistic4(pred, *beta) - mos
        return float(r @ r)

    x, fun = _nelder_mead(sse, x0, maxiter=2000, maxfev=4000, xatol=1e-10, fatol=1e-12)
    beta = tuple(float(b) for b in x)
    mapped = logistic4(pred, *x)
    if np.ptp(mapped) == 0:
        return _identity_fit(pred, mos, beta)
    return LogisticFit(beta=beta, mapped=mapped, sse=float(fun))


class _Exhausted(Exception):
    """The evaluation budget of a Nelder-Mead run is spent."""


def _nelder_mead(f, x0, maxiter: int, maxfev: int, xatol: float, fatol: float):
    """Minimises f from x0; returns (best vertex, least value seen).

    An evaluation that would exceed ``maxfev`` abandons the rest of its
    step, keeping the vertices that step already moved, as SciPy does.
    """
    rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    n = len(x0)
    sim = np.tile(x0, (n + 1, 1))
    for k in range(n):
        sim[k + 1, k] = (1 + 0.05) * x0[k] if x0[k] != 0 else 0.00025
    fsim = np.full(n + 1, np.inf)
    calls = 0

    def func(x):
        nonlocal calls
        if calls >= maxfev:
            raise _Exhausted
        calls += 1
        return f(x)

    def by_value(sim, fsim):
        ind = np.argsort(fsim)
        return np.take(sim, ind, 0), np.take(fsim, ind, 0)

    try:
        for k in range(n + 1):
            fsim[k] = func(sim[k])
    except _Exhausted:
        pass
    sim, fsim = by_value(*by_value(sim, fsim))  # twice, as SciPy does: ties may move

    iterations = 1
    while calls < maxfev and iterations < maxiter:
        try:
            if (np.max(np.abs(sim[1:] - sim[0])) <= xatol
                    and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol):
                break
            xbar = np.add.reduce(sim[:-1], 0) / n
            xr = (1 + rho) * xbar - rho * sim[-1]
            fxr = func(xr)
            if fxr < fsim[0]:
                xe = (1 + rho * chi) * xbar - rho * chi * sim[-1]
                fxe = func(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                if fxr < fsim[-1]:      # outside contraction
                    xc = (1 + psi * rho) * xbar - psi * rho * sim[-1]
                    fxc = func(xc)
                    accepted = fxc <= fxr
                else:                   # inside contraction
                    xc = (1 - psi) * xbar + psi * sim[-1]
                    fxc = func(xc)
                    accepted = fxc < fsim[-1]
                if accepted:
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    for j in range(1, n + 1):
                        sim[j] = sim[0] + sigma * (sim[j] - sim[0])
                        fsim[j] = func(sim[j])
            iterations += 1
        except _Exhausted:
            pass
        sim, fsim = by_value(sim, fsim)
    return sim[0], np.min(fsim)


def _identity_fit(pred, mos, beta) -> LogisticFit:
    return LogisticFit(beta=beta, mapped=pred.copy(),
                       sse=float(((pred - mos) ** 2).sum()), degenerate=True)


def _finite(name: str, values) -> np.ndarray:
    values = np.asarray(values, dtype=np.float64)
    if not np.isfinite(values).all():
        raise ValidationError(f"{name} holds NaN or infinite values")
    return values


def _validated_pair(x, y, min_n: int = 2):
    x = _finite("x", x)
    y = _finite("y", y)
    if x.shape != y.shape or x.ndim != 1:
        raise ValidationError("inputs must be equal-length 1-D arrays")
    if len(x) < min_n:
        raise ValidationError(f"need at least {min_n} points, got {len(x)}")
    return x, y


def plcc(x, y) -> float:
    """Pearson linear correlation; constant input is an explicit error."""
    x, y = _validated_pair(x, y)
    if np.ptp(x) == 0 or np.ptp(y) == 0:
        raise ValidationError("correlation undefined for constant input")
    return float(np.corrcoef(x, y)[0, 1])


def srocc(x, y) -> float:
    """Spearman rank correlation, ties get average ranks."""
    x, y = _validated_pair(x, y)
    if np.ptp(x) == 0 or np.ptp(y) == 0:
        raise ValidationError("rank correlation undefined for constant input")
    ranks = np.column_stack([_average_ranks(x), _average_ranks(y)])
    return float(np.corrcoef(ranks, rowvar=False)[1, 0])


def _average_ranks(a: np.ndarray) -> np.ndarray:
    """1-based ranks; each run of equal values shares its mean rank."""
    order = np.argsort(a, kind="stable")
    s = a[order]
    first = np.flatnonzero(np.r_[True, s[1:] != s[:-1]])
    counts = np.diff(np.r_[first, len(a)])
    ranks = np.empty(len(a))
    ranks[order] = np.repeat(first + 1 + (counts - 1) / 2, counts)
    return ranks


def krocc(x, y) -> float:
    """Kendall rank correlation, tau-b tie correction."""
    x, y = _validated_pair(x, y)
    if np.ptp(x) == 0 or np.ptp(y) == 0:
        raise ValidationError("rank correlation undefined for constant input")
    order = np.lexsort((y, x))      # by x, ties in x by y
    x, y = x[order], y[order]
    tot = len(x) * (len(x) - 1) // 2
    _, y_rank, y_counts = np.unique(y, return_inverse=True, return_counts=True)
    xtie = _pairs(np.unique(x, return_counts=True)[1])
    ytie = _pairs(y_counts)
    joint = np.r_[True, (x[1:] != x[:-1]) | (y[1:] != y[:-1]), True]
    ntie = _pairs(np.diff(np.flatnonzero(joint)))
    dis = _inversions(y_rank)
    con_minus_dis = tot - xtie - ytie + ntie - 2 * dis
    tau = con_minus_dis / np.sqrt(tot - xtie) / np.sqrt(tot - ytie)
    return float(min(1.0, max(-1.0, tau)))


def _pairs(counts: np.ndarray) -> int:
    """Pairs within groups of the given sizes."""
    counts = counts.astype(np.int64)
    return int((counts * (counts - 1) // 2).sum())


def _inversions(r: np.ndarray) -> int:
    """Pairs i < j with r[i] > r[j], for integer ranks r >= 0.

    Bottom-up merge count: at width w every run of w is sorted, and each
    element of a right run counts the elements of its left neighbour that
    exceed it. Offsetting each run pair by ``pair * span`` lays all left
    runs out as one sorted array, so one ``searchsorted`` counts a level.
    """
    r = r.astype(np.int64)
    n, span = len(r), int(r.max()) + 1
    pos = np.arange(n)
    count, w = 0, 1
    while w < n:
        pair = pos // (2 * w)
        key = r + pair * span
        left = (pos // w) % 2 == 0
        not_greater = np.searchsorted(key[left], key[~left], side="right") - pair[~left] * w
        count += int((w - not_greater).sum())
        r = np.sort(key) - pair * span
        w *= 2
    return count


def rmse(x, y) -> float:
    x, y = _validated_pair(x, y, min_n=1)
    return float(np.sqrt(np.mean((x - y) ** 2)))


def evaluate_predictions(pred, mos) -> MetricReport:
    """Full metric suite: logistic mapping, then the four criteria."""
    pred = np.asarray(pred, dtype=np.float64)
    mos = np.asarray(mos, dtype=np.float64)
    fit = logistic_fit(pred, mos)
    return MetricReport(
        plcc=plcc(fit.mapped, mos),
        srocc=srocc(pred, mos),
        krocc=krocc(pred, mos),
        rmse=rmse(fit.mapped, mos),
        beta=fit.beta,
        n=len(pred),
        degenerate=fit.degenerate,
    )


_REPORT_HEADER = ["plcc", "srocc", "krocc", "rmse", "n", "b1", "b2", "b3", "b4"]


def write_report_csv(report: MetricReport, path) -> None:
    write_csv_table(path, _REPORT_HEADER, [
        [f"{report.plcc:.6f}", f"{report.srocc:.6f}", f"{report.krocc:.6f}",
         f"{report.rmse:.6f}", report.n]
        + [f"{b:.6f}" for b in report.beta]
    ])
