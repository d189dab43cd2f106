"""Evaluation metrics: calibration error, OOD AUROC, histograms.

ECE uses equal-width bins over [0, 1] with right-inclusive upper edges
(bin count configurable, default 20; recorded in every report). AUROC
is the Mann-Whitney statistic, ties counted half, computed exactly from
the ROC curve's integer counts with no threshold grid. The command line
writes the reports as CSV.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import energy as en

__all__ = [
    "EceReport", "RocResult", "Histogram",
    "ece", "auroc", "histogram", "score_dataset",
]

DEFAULT_ECE_BINS = 20


@dataclass(frozen=True)
class EceBin:
    lower: float
    upper: float
    count: int
    mean_confidence: float     # 0.0 for empty bins
    accuracy: float            # 0.0 for empty bins


@dataclass(frozen=True)
class EceReport:
    n_bins: int
    bins: tuple
    value: float


@dataclass(frozen=True)
class RocResult:
    """The AUROC, from every threshold's counts, and the ROC curve's corners:
    ``curve`` holds (fpr, tpr) points from (0, 0) to (1, 1), each one where
    the curve turns; a point on the line between its neighbours is left out."""
    auroc: float
    curve: tuple


@dataclass(frozen=True)
class Histogram:
    edges: np.ndarray
    density: np.ndarray        # integrates to 1 over the edges


def ece(confidences, correct, n_bins: int = DEFAULT_ECE_BINS) -> EceReport:
    """Expected calibration error with reliability-diagram bin data."""
    conf = np.asarray(confidences, dtype=np.float64).reshape(-1)
    hit = np.asarray(correct, dtype=bool).reshape(-1)
    if conf.size == 0:
        raise ValueError("ece: empty input")
    if conf.size != hit.size:
        raise ValueError("ece: confidences and correctness lengths differ")
    if conf.min() < 0.0 or conf.max() > 1.0:
        raise ValueError("ece: confidences must lie in [0, 1]")

    # right-inclusive upper edges: bin i covers (i/n, (i+1)/n], bin 0 includes 0
    idx = np.ceil(conf * n_bins).astype(np.int64) - 1
    idx = np.clip(idx, 0, n_bins - 1)
    bins = []
    value = 0.0
    total = conf.size
    for b in range(n_bins):
        mask = idx == b
        count = int(mask.sum())
        if count:
            mean_conf = float(conf[mask].mean())
            acc = float(hit[mask].mean())
            value += (count / total) * abs(acc - mean_conf)
        else:
            mean_conf = 0.0
            acc = 0.0
        bins.append(EceBin(b / n_bins, (b + 1) / n_bins, count, mean_conf, acc))
    return EceReport(n_bins=n_bins, bins=tuple(bins), value=value)


def auroc(scores_in: Sequence[float], scores_out: Sequence[float]) -> RocResult:
    """P(in-distribution score > out score), ties counted half."""
    s_in = np.asarray(scores_in, dtype=np.float64).reshape(-1)
    s_out = np.asarray(scores_out, dtype=np.float64).reshape(-1)
    if s_in.size == 0 or s_out.size == 0:
        raise ValueError("auroc: both score lists must be non-empty")
    if np.isnan(s_in).any() or np.isnan(s_out).any():
        raise ValueError("auroc: NaN scores")

    # threshold sweep, predicting "in" when score >= t: counts of each set
    # at or above every distinct score, from (0, 0) to (n_out, n_in)
    thresholds = np.unique(np.concatenate([s_in, s_out]))[::-1]
    tp = np.concatenate([[0], s_in.size - np.searchsorted(np.sort(s_in), thresholds)])
    fp = np.concatenate([[0], s_out.size - np.searchsorted(np.sort(s_out), thresholds)])
    dfp, dtp = np.diff(fp), np.diff(tp)
    # trapezoids over the integer counts: a tie block adds half its pairs
    value = int((dfp * (tp[:-1] + tp[1:])).sum()) / (2 * s_in.size * s_out.size)
    # the curve keeps its end points and each point where it turns: the
    # steps to and from it, in integer counts, have a nonzero cross product
    corner = np.concatenate([[True], dfp[:-1] * dtp[1:] != dtp[:-1] * dfp[1:], [True]])
    curve = zip((fp[corner] / s_out.size).tolist(), (tp[corner] / s_in.size).tolist())
    return RocResult(auroc=value, curve=tuple(curve))


def histogram(values, n_bins: int, value_range: Optional[tuple] = None) -> Histogram:
    """Density-normalized histogram; range defaults to [min, max]."""
    vals = np.asarray(values, dtype=np.float64).reshape(-1)
    if vals.size == 0:
        raise ValueError("histogram: empty input")
    density, edges = np.histogram(vals, bins=n_bins, range=value_range, density=True)
    return Histogram(edges=edges, density=density)


def score_dataset(model, params, dataset, kind: en.ScoreKind,
                  programs: Optional[dict] = None) -> np.ndarray:
    """Chosen OOD score for every example of the ``Dataset``, in order. Logits and
    input gradients are computed one row block (``ModelSpec.block_rows``)
    at a time, so peak memory follows a block, not the set; the input
    gradients replay ``programs`` as ``energy.approximate_mass_score`` does,
    so calls that share the dict record each block shape once."""
    if kind is en.ScoreKind.APPROXIMATE_MASS:
        return en.approximate_mass_score(model, params, dataset.x, programs)
    logits = en._logits_in_blocks(model, params, dataset.x)
    if kind is en.ScoreKind.LOG_DENSITY_PROXY:
        return en.log_px_proxy(logits).value
    return en.max_softmax_score(logits)

