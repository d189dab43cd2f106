"""Training objectives: cross-entropy, the generative sampler-driven
loss, and the non-generative input-gradient penalty.

The penalty is the batch mean of ||dE/dx||_2 and is minimized as a
positive quantity. The mean reduction keeps the beta/gamma mixing
weights batch-size invariant.
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
        if self.beta < 0 or self.gamma < 0:
            raise ConfigError("beta and gamma must be non-negative")
        if abs(self.beta + self.gamma - 1.0) > 1e-12:
            raise ConfigError(f"beta + gamma must equal 1, got {self.beta + self.gamma}")
        if self.mode is Mode.JEM and self.sampler is None:
            raise ConfigError("JEM mode requires a sampler config")


@dataclass
class LossGraph:
    """A built loss with handles for the optimization step."""

    total: ad.Tensor
    tape: ad.Tape
    bound: dict
    ce: ad.Tensor
    aux: ad.Tensor              # a constant 0 where the mode has no auxiliary term
    inputs: list                # the batch's leaves: x, the one-hot labels, and x_gen in jem


def cross_entropy(logits: ad.Tensor, labels) -> ad.Tensor:
    """Mean negative log-probability of the true labels."""
    return ad.mean(_nll_rows(logits, labels))


def _one_hot(labels, k: int) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.int64).reshape(-1)
    if labels.size and (labels.min() < 0 or labels.max() >= k):
        raise ValueError(f"cross_entropy: label out of range [0, {k})")
    out = np.zeros((labels.size, k))
    out[np.arange(labels.size), labels] = 1.0
    return out


def _nll_rows(logits, labels) -> ad.Tensor:
    """Per-row negative log-probability of the true labels: ints, checked
    against the class count, or their one-hot rows as a Tensor (a tape leaf
    in a loss that is replayed on new labels)."""
    logits = logits if isinstance(logits, ad.Tensor) else ad.Tensor(logits)
    if not isinstance(labels, ad.Tensor):
        labels = ad.Tensor(_one_hot(labels, logits.shape[-1]))
    return ad.sub(ad.logsumexp(logits, axis=1), ad.gather(logits, labels))


def _penalty_from_logits(tape: ad.Tape, logits: ad.Tensor, x_leaf: ad.Tensor) -> ad.Tensor:
    batch = x_leaf.shape[0]
    total_e = ad.sum_(en.energy(logits))
    g = ad.backward(tape, total_e, [x_leaf], create_graph=True)[x_leaf]
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


def loss_graph(config: LossConfig, model, params: nn.Parameters, x_batch, labels,
               x_gen=None) -> LossGraph:
    """Build the configured objective on a fresh tape.

    Parameters, the batch, its one-hot labels and (jem) the generated
    samples are bound as leaves, so no batch array is a constant of the
    graph; the caller runs ``backward(graph.tape, graph.total,
    graph.bound.values())`` and steps the optimizer. JEM mode needs
    ``x_gen``, the generated batch (``_jem_samples`` draws it); the other
    modes ignore it. The penalty alone is NGEBM mode with beta=1, gamma=0;
    the generative term alone is ``graph.aux`` in JEM mode.
    """
    if config.mode is Mode.JEM and x_gen is None:
        raise ConfigError("JEM mode needs a generated batch x_gen")
    tape = ad.Tape()
    bound = params.bind(tape)
    x = tape.leaf(np.asarray(x_batch, dtype=np.float64))
    logits = en.model_logits(model, bound, x)
    onehot = tape.leaf(_one_hot(labels, logits.shape[-1]))
    inputs = [x, onehot]
    ce = cross_entropy(logits, onehot)
    total, aux = ce, ad.Tensor(0.0)

    if config.mode is Mode.NGEBM:
        aux = _penalty_from_logits(tape, logits, x)
        total = ad.add(ad.mul(ce, config.gamma), ad.mul(aux, config.beta))
    elif config.mode is Mode.JEM:     # cross-entropy plus the generative term
        gen = tape.leaf(np.asarray(x_gen, dtype=np.float64))
        inputs.append(gen)
        if gen.shape[0]:
            e_gen = en.energy(en.model_logits(model, bound, gen))
            e_train = en.energy(logits)
            aux = ad.sub(ad.mean(e_train), ad.mean(e_gen))     # max likelihood: data below samples
            total = ad.add(ce, aux)
    return LossGraph(total, tape, bound, ce, aux, inputs)
