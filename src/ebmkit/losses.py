"""Training objectives: cross-entropy, the generative sampler-driven
loss, and the non-generative input-gradient penalty.

The penalty is the batch mean of ||dE/dx||_2 and is minimized as a
positive quantity. The mean reduction keeps the beta/gamma mixing
weights batch-size invariant. ``loss_graph`` builds the objective on
leaves its caller binds (``ad.record`` in training), so no parameter,
input, label or sample is a constant of the graph.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import autodiff as ad
from . import energy as en
from . import nn
from . import sampler as smp

__all__ = [
    "Mode", "LossConfig", "LossGraph", "ConfigError",
    "cross_entropy", "loss_graph",
]


class ConfigError(ValueError):
    """A loss/training configuration is internally inconsistent."""


class Mode(enum.Enum):
    CROSS_ENTROPY = "ce"
    JEM = "jem"
    NGEBM = "ngebm"


@dataclass(frozen=True)
class LossConfig:
    """Objective selection plus the penalty/cross-entropy mixing weights;
    beta + gamma = 1 is enforced at construction."""

    mode: Mode = Mode.CROSS_ENTROPY
    beta: float = 0.5
    gamma: float = 0.5
    sampler: Optional[smp.SgldConfig] = None

    def __post_init__(self):
        if abs(self.beta + self.gamma - 1.0) > 1e-12:
            raise ConfigError(f"beta + gamma must equal 1, got {self.beta + self.gamma}")


@dataclass
class LossGraph:
    """A built loss: the minimized total and its two terms."""

    total: ad.Tensor
    ce: ad.Tensor
    aux: ad.Tensor              # a constant 0 where the mode has no auxiliary term
    tape: ad.Tape


def cross_entropy(logits: ad.Tensor, onehot) -> ad.Tensor:
    """Mean negative log-probability of the true labels, given as one-hot rows."""
    return ad.mean(_nll_rows(logits, onehot))


def _one_hot(labels, k: int) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.int64).reshape(-1)
    outside = labels[(labels < 0) | (labels >= k)]
    if outside.size:
        raise ValueError(f"label out of range [0, {k}): {outside[0]}")
    out = np.zeros((labels.size, k))
    out[np.arange(labels.size), labels] = 1.0
    return out


def _nll_rows(logits: ad.Tensor, onehot) -> ad.Tensor:
    """Per-row negative log-probability of the true labels, given as one-hot
    rows (a tape leaf in a loss that is replayed on new labels)."""
    return ad.sub(ad.logsumexp(logits, axis=1), ad.gather(logits, onehot))


def _penalty_from_logits(logits: ad.Tensor, x_leaf: ad.Tensor) -> ad.Tensor:
    batch = x_leaf.shape[0]
    total_e = ad.sum_(en.energy(logits))
    g = ad.backward(x_leaf.tape, total_e, [x_leaf], create_graph=True)[x_leaf]
    rows = ad.l2norm(ad.reshape(g, (batch, int(np.prod(x_leaf.shape[1:])))), axis=1)
    return ad.mean(rows)


def _jem_samples(config: LossConfig, model, params: nn.Parameters, batch_shape: tuple,
                 buffer: smp.ReplayBuffer, rng, programs: dict) -> tuple:
    """JEM's generated batch: a buffer draw run through the configured chain (its
    ``programs`` kept by the caller); the survivors, their buffer slots and the diverged count."""
    x0, indices = smp.buffer_draw(buffer, batch_shape[0],
                                  (config.sampler.init_lo, config.sampler.init_hi),
                                  batch_shape[1:])
    chain = smp.sgld_chain(model, params, x0, config.sampler, rng=rng, programs=programs)
    ok = ~chain.report.diverged_mask
    return chain.samples[ok], indices[ok], int((~ok).sum())


def loss_graph(config: LossConfig, model, params: dict, x: ad.Tensor, onehot: ad.Tensor,
               x_gen: Optional[ad.Tensor] = None) -> LossGraph:
    """The configured objective on leaves of one tape: ``params`` maps each
    parameter name to its leaf, ``onehot`` holds the batch's labels as one-hot
    rows and ``x_gen`` (jem) the generated batch, which ``_jem_samples`` draws;
    the other modes ignore it. The penalty alone is NGEBM mode with beta=1,
    gamma=0; the generative term alone is ``graph.aux`` in JEM mode.
    """
    logits = model(params, x)
    ce = cross_entropy(logits, onehot)
    total, aux = ce, ad.Tensor(0.0)

    if config.mode is Mode.NGEBM:
        aux = _penalty_from_logits(logits, x)
        total = ad.add(ad.mul(ce, config.gamma), ad.mul(aux, config.beta))
    elif config.mode is Mode.JEM and x_gen.shape[0]:     # cross-entropy plus the generative term
        e_gen = en.energy(model(params, x_gen))
        e_train = en.energy(logits)
        aux = ad.sub(ad.mean(e_train), ad.mean(e_gen))     # max likelihood: data below samples
        total = ad.add(ce, aux)
    return LossGraph(total, ce, aux, x.tape)
