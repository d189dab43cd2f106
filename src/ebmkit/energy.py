"""Energy interpretation of classifier logits and derived scores.

Logits are read as unnormalized joint log-densities: the energy of an
input is the negative logsumexp of its logits, so lower energy means
higher unnormalized density. The normalizing constant is intractable
and never computed; everything downstream uses scores only through
their ordering (AUROC, histograms).

Every input gradient, dE/dx and PGD's alike, takes one path,
``_block_grads``: each row-block shape records its gradient once with
``ad.record``, with the block, the parameters and any labels as leaves, and
later blocks replay it for any values of them.
"""

from __future__ import annotations

import enum

import numpy as np

from . import autodiff as ad

__all__ = [
    "ScoreKind", "energy", "log_px_proxy", "softmax_probs",
    "max_softmax_score", "approximate_mass_score",
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


def _in_blocks(fn, model, x, *aligned) -> np.ndarray:
    """``fn`` over float64 ``x`` in blocks of the model's ``block_rows`` rows,
    concatenated; one call when x fits one. Each ``aligned`` array is cut into
    the same row blocks and passed after x."""
    x = np.asarray(x, dtype=np.float64)
    rows = model.block_rows
    if x.shape[0] <= rows:
        return fn(x, *aligned)
    return np.concatenate([fn(x[i:i + rows], *(a[i:i + rows] for a in aligned))
                           for i in range(0, x.shape[0], rows)])


def _logits_in_blocks(model, params, x) -> np.ndarray:
    """Logits of every row of ``x``, one tape-free forward pass per block."""
    return _in_blocks(lambda b: model(params, ad.Tensor(b)).value, model, x)


def _block_grads(model, params, loss, programs=None):
    """d(loss of a row block's logits and labels)/dx, as a function of the block
    and its label arrays; of a loss summed over rows it separates into rows, as
    rows do not interact (no batch statistics). The first block of each shape
    records it in ``programs`` (by default a new dict), later ones replay it; the
    parameters and labels are leaves, so one dict serves any values of them."""
    values, programs = list(params.values()), {} if programs is None else programs

    def block_loss(x, *leaves):
        return loss(model(dict(zip(params, leaves)), x), *leaves[len(values):])
    return lambda block, *labels: ad.record(block_loss, [block, *values, *labels], 1,
                                            programs)[0]


def _summed_energy(logits) -> ad.Tensor:
    """A block's summed energy: its gradient in the block is each row's dE/dx."""
    return ad.sum_(energy(logits))


def approximate_mass_score(model, params, x_batch, programs=None) -> np.ndarray:
    """Score s(x) = -||dE/dx||_2, near zero in the typical set; one row block
    (``_in_blocks``) at a time, so peak memory follows a block, not the set,
    replaying ``programs`` as ``_block_grads`` does."""
    grad = _block_grads(model, params, _summed_energy, programs)
    return _in_blocks(lambda block: -_row_norms(grad(block)), model, x_batch)


def _row_norms(x: np.ndarray, keepdims: bool = False) -> np.ndarray:
    """The L2 norm of each row of ``x`` (over all its other axes), bit for bit
    ``np.linalg.norm`` of the flattened rows."""
    flat = x.reshape(len(x), -1)
    return np.sqrt(ad._reduce(np.add, flat * flat, (1,), keepdims))
