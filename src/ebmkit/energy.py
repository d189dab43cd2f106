"""Energy interpretation of classifier logits and derived scores.

Logits are read as unnormalized joint log-densities: the energy of an
input is the negative logsumexp of its logits, so lower energy means
higher unnormalized density. The normalizing constant is intractable
and never computed; everything downstream uses scores only through
their ordering (AUROC, histograms).

Every input gradient dE/dx takes one path, ``ad.record``: each row-block
shape records its gradient once, with the block and the parameters as
leaves, and later blocks replay it for any values of both.
"""

from __future__ import annotations

import enum

import numpy as np

from . import autodiff as ad
from . import nn

__all__ = [
    "ScoreKind", "energy", "log_px_proxy", "softmax_probs",
    "max_softmax_score", "model_logits", "approximate_mass_score",
]


class ScoreKind(enum.Enum):
    """The three per-example OOD scores (higher = more in-distribution)."""

    LOG_DENSITY_PROXY = "log_px"
    MAX_SOFTMAX = "max_softmax"
    APPROXIMATE_MASS = "approximate_mass"


def _lift(logits) -> ad.Tensor:
    t = logits if isinstance(logits, ad.Tensor) else ad.Tensor(logits)
    if t.ndim == 0 or t.shape[-1] < 1:
        raise ad.ShapeError(f"energy: empty class axis in shape {t.shape}")
    return t


def energy(logits) -> ad.Tensor:
    """Per-example energy: negative logsumexp over the class axis."""
    t = _lift(logits)
    return ad.neg(ad.logsumexp(t, axis=t.ndim - 1))


def log_px_proxy(logits) -> ad.Tensor:
    """Unnormalized log-density (negated energy)."""
    return ad.neg(energy(logits))


def softmax_probs(logits) -> np.ndarray:
    """Shift-invariant softmax rows; plain arrays, evaluation only."""
    arr = np.asarray(_lift(logits).value, dtype=np.float64)
    last = (arr.ndim - 1,)
    e = np.exp(arr - ad._reduce(np.maximum, arr, last, True))
    return e / ad._reduce(np.add, e, last, True)


def max_softmax_score(logits) -> np.ndarray:
    """Predictive-confidence score: max_y p(y | x) per example."""
    probs = softmax_probs(logits)
    return ad._reduce(np.maximum, probs, (probs.ndim - 1,))


def model_logits(model, params, x: ad.Tensor) -> ad.Tensor:
    """Models are ModelSpecs or any callable (params, x) -> logits Tensor."""
    if isinstance(model, nn.ModelSpec):
        return nn.forward(model, params, x)
    return model(params, x)


def _in_blocks(fn, model, x, *aligned) -> np.ndarray:
    """``fn`` over float64 ``x`` in blocks of ModelSpec.block_rows rows (a
    plain callable's by input width), concatenated; one call when x fits one.
    Each ``aligned`` array is cut into the same row blocks and passed after x."""
    x = np.asarray(x, dtype=np.float64)
    rows = model.block_rows if isinstance(model, nn.ModelSpec) else \
        max(1, nn._ROW_BLOCK_BYTES // (8 * int(np.prod(x.shape[1:]))))
    if x.shape[0] <= rows:
        return fn(x, *aligned)
    return np.concatenate([fn(x[i:i + rows], *(a[i:i + rows] for a in aligned))
                           for i in range(0, x.shape[0], rows)])


def _logits_in_blocks(model, params, x) -> np.ndarray:
    """Logits of every row of ``x``, one tape-free forward pass per block."""
    return _in_blocks(lambda b: model_logits(model, params, ad.Tensor(b)).value, model, x)


def _block_grads(model, params, programs=None):
    """Per-example dE/dx of one row block, as a function of the block.
    Examples do not interact in the model (no batch statistics), so the
    gradient of the block's summed energy separates into rows. The first
    block of each shape records it in ``programs`` (by default a new dict)
    and later blocks of that shape replay it; the parameters are leaves, so
    a dict that calls share serves any parameter values."""
    values, programs = list(params.values()), {} if programs is None else programs

    def summed_energy(x, *leaves):
        return ad.sum_(energy(model_logits(model, dict(zip(params, leaves)), x)))
    return lambda block: ad.record(summed_energy, [block, *values], 1, programs)[0]


def approximate_mass_score(model, params, x_batch, programs=None) -> np.ndarray:
    """Score s(x) = -||dE/dx||_2, near zero in the typical set; one row block
    (``_in_blocks``) at a time, so peak memory follows a block, not the set,
    replaying ``programs`` as ``_block_grads`` does."""
    grad = _block_grads(model, params, programs)
    return _in_blocks(lambda block: -_row_norms(grad(block)), model, x_batch)


def _row_norms(x: np.ndarray, keepdims: bool = False) -> np.ndarray:
    """The L2 norm of each row of ``x`` (over all its other axes), bit for bit
    ``np.linalg.norm`` of the flattened rows."""
    flat = x.reshape(len(x), -1)
    return np.sqrt(ad._reduce(np.add, flat * flat, (1,), keepdims))
