"""Energy interpretation of classifier logits and derived scores.

Logits are read as unnormalized joint log-densities: the energy of an
input is the negative logsumexp of its logits, so lower energy means
higher unnormalized density. The normalizing constant is intractable
and never computed; everything downstream uses scores only through
their ordering (AUROC, histograms).
"""

from __future__ import annotations

import enum

import numpy as np

from . import autodiff as ad
from . import nn

__all__ = [
    "ScoreKind", "energy", "log_px_proxy", "softmax_probs",
    "max_softmax_score", "model_logits", "energy_grad_input",
    "approximate_mass_score",
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
    shifted = arr - arr.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def max_softmax_score(logits) -> np.ndarray:
    """Predictive-confidence score: max_y p(y | x) per example."""
    return softmax_probs(logits).max(axis=-1)


def model_logits(model, params, x: ad.Tensor) -> ad.Tensor:
    """Models are ModelSpecs or any callable (params, x) -> logits Tensor."""
    if isinstance(model, nn.ModelSpec):
        return nn.forward(model, params, x)
    return model(params, x)


def energy_grad_input(model, params, x_batch) -> np.ndarray:
    """Per-example dE/dx, same shape as the input batch.

    One backward pass over the batch-summed energy suffices: examples do
    not interact anywhere in the model (no batch statistics), so the
    summed gradient separates into per-example rows.
    """
    x_batch = np.asarray(x_batch, dtype=np.float64)
    tape = ad.Tape()
    x = tape.leaf(x_batch)
    logits = model_logits(model, params, x)
    total = ad.sum_(energy(logits))
    return ad.backward(tape, total, [x])[x].value


def approximate_mass_score(model, params, x_batch) -> np.ndarray:
    """Score s(x) = -||dE/dx||_2; near zero inside the typical set."""
    grads = energy_grad_input(model, params, x_batch)
    flat = grads.reshape(grads.shape[0], -1)
    return -np.linalg.norm(flat, axis=1)
