"""Evaluation metrics: 4-parameter logistic mapping then PLCC/SROCC/KROCC/RMSE.

Predicted scores are first fitted to the ground-truth scale with a
monotone four-parameter logistic (Nelder-Mead least squares), after
which Pearson correlation and RMSE are computed on the mapped values.
Rank metrics use average ranks for ties (Spearman) and tau-b (Kendall)
and are computed on the raw predictions, which the monotone mapping
cannot reorder.
"""

from __future__ import annotations

import warnings
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
    plcc: float
    srocc: float
    krocc: float
    rmse: float
    beta: tuple[float, float, float, float]
    n: int


def logistic4(x, b1, b2, b3, b4):
    """(b1-b2)/(1+exp(-(x-b3)/|b4|)) + b2; |b4| keeps the curve monotone."""
    from scipy.special import expit

    scale = max(abs(b4), 1e-12)
    return (b1 - b2) * expit((np.asarray(x, dtype=np.float64) - b3) / scale) + b2


def logistic_fit(pred, mos) -> LogisticFit:
    """Least-squares 4-parameter logistic fit of pred onto the mos scale.

    Nelder-Mead from b1=max(mos), b2=min(mos), b3=median(pred),
    b4=std(pred)/4; at most 2000 iterations or simplex size below 1e-10.
    Two cases are degenerate and return the identity mapping with a
    warning: a constant mos, and a fit that collapses to a constant curve
    (scores only weakly related to the mos can drive b3 out of range).
    """
    pred = np.asarray(pred, dtype=np.float64)
    mos = np.asarray(mos, dtype=np.float64)
    if pred.shape != mos.shape or pred.ndim != 1:
        raise ValidationError("pred and mos must be equal-length 1-D arrays")
    if len(pred) < 5:
        raise ValidationError(f"logistic fit needs n >= 5, got {len(pred)}")
    if np.ptp(mos) == 0:
        c = float(mos[0])
        return _identity_fit(pred, mos, (c, c, float(np.median(pred)), 1.0),
                             "constant ground truth")

    x0 = np.array([
        mos.max(),
        mos.min(),
        float(np.median(pred)),
        max(float(pred.std()) / 4.0, 1e-6),
    ])

    from scipy.optimize import minimize

    def sse(beta):
        r = logistic4(pred, *beta) - mos
        return float(r @ r)

    res = minimize(
        sse, x0, method="Nelder-Mead",
        options={"maxiter": 2000, "maxfev": 4000, "xatol": 1e-10, "fatol": 1e-12},
    )
    beta = tuple(float(b) for b in res.x)
    mapped = logistic4(pred, *res.x)
    if np.ptp(mapped) == 0:
        return _identity_fit(pred, mos, beta, "fitted curve is constant")
    return LogisticFit(beta=beta, mapped=mapped, sse=float(res.fun))


def _identity_fit(pred, mos, beta, reason: str) -> LogisticFit:
    warnings.warn(f"{reason}: logistic fit degenerates to identity")
    return LogisticFit(beta=beta, mapped=pred.copy(),
                       sse=float(((pred - mos) ** 2).sum()), degenerate=True)


def _validated_pair(x, y, min_n: int = 2):
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
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
    from scipy.stats import spearmanr

    return float(spearmanr(x, y).correlation)


def krocc(x, y) -> float:
    """Kendall rank correlation, tau-b tie correction."""
    x, y = _validated_pair(x, y)
    if np.ptp(x) == 0 or np.ptp(y) == 0:
        raise ValidationError("rank correlation undefined for constant input")
    from scipy.stats import kendalltau

    return float(kendalltau(x, y, variant="b").correlation)


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
    )


_REPORT_HEADER = ["plcc", "srocc", "krocc", "rmse", "n", "b1", "b2", "b3", "b4"]


def write_report_csv(report: MetricReport, path) -> None:
    write_csv_table(path, _REPORT_HEADER, [
        [f"{report.plcc:.6f}", f"{report.srocc:.6f}", f"{report.krocc:.6f}",
         f"{report.rmse:.6f}", report.n]
        + [f"{b:.6f}" for b in report.beta]
    ])
