"""Training objectives: cross-entropy, the generative sampler-driven
loss, and the non-generative input-gradient penalty.

The penalty is the batch mean of ||dE/dx||_2 and is minimized as a
positive quantity. The mean reduction keeps the beta/gamma mixing
weights batch-size invariant.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from . import autodiff as ad
from . import energy as en
from . import nn
from . import sampler as smp

__all__ = [
    "Mode", "LossConfig", "LossBreakdown", "LossGraph", "ConfigError",
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
class LossBreakdown:
    """Per-batch telemetry; total recomputes from the terms."""

    total: float
    cross_entropy: float
    auxiliary: float = 0.0      # penalty (ngebm) or generative term (jem)
    diverged_chains: int = 0


@dataclass
class LossGraph:
    """A built loss with handles for the optimization step."""

    total: ad.Tensor
    breakdown: LossBreakdown
    tape: ad.Tape
    bound: dict
    gen_samples: Optional[np.ndarray] = None   # surviving chain endpoints
    gen_indices: Optional[np.ndarray] = None   # their buffer slots


def cross_entropy(logits: ad.Tensor, labels) -> ad.Tensor:
    """Mean negative log-probability of the true labels."""
    return ad.mean(_nll_rows(logits, labels))


def _nll_rows(logits, labels) -> ad.Tensor:
    """Per-row negative log-probability of the true labels."""
    logits = logits if isinstance(logits, ad.Tensor) else ad.Tensor(logits)
    labels = np.asarray(labels, dtype=np.int64).reshape(-1)
    k = logits.shape[-1]
    if labels.size and (labels.min() < 0 or labels.max() >= k):
        raise ValueError(f"cross_entropy: label out of range [0, {k})")
    return ad.sub(ad.logsumexp(logits, axis=1), ad.gather(logits, labels))


def _penalty_from_logits(tape: ad.Tape, logits: ad.Tensor, x_leaf: ad.Tensor) -> ad.Tensor:
    batch = x_leaf.shape[0]
    total_e = ad.sum_(en.energy(logits))
    g = ad.backward(tape, total_e, [x_leaf], create_graph=True)[x_leaf]
    rows = ad.l2norm(ad.reshape(g, (batch, int(np.prod(x_leaf.shape[1:])))), axis=1)
    return ad.mean(rows)


def loss_graph(config: LossConfig, model, params: nn.Parameters, x_batch, labels,
               buffer: Optional[smp.ReplayBuffer] = None,
               rng: Union[np.random.Generator, int] = 0,
               x_gen=None) -> LossGraph:
    """Build the configured objective on a fresh tape.

    Parameters are bound as differentiable leaves; the caller runs
    ``backward(graph.tape, graph.total, graph.bound.values())`` and
    steps the optimizer. ``x_gen`` overrides the sampler (testing and
    ablation only). The penalty alone is NGEBM mode with beta=1, gamma=0;
    the generative term alone is ``breakdown.auxiliary`` in JEM mode.
    """
    x_batch = np.asarray(x_batch, dtype=np.float64)
    tape = ad.Tape()
    bound = params.bind(tape)

    if config.mode is Mode.CROSS_ENTROPY:
        logits = en.model_logits(model, bound, ad.Tensor(x_batch))
        ce = cross_entropy(logits, labels)
        bd = LossBreakdown(total=ce.item(), cross_entropy=ce.item())
        return LossGraph(ce, bd, tape, bound)

    if config.mode is Mode.NGEBM:
        x_leaf = tape.leaf(x_batch)
        logits = en.model_logits(model, bound, x_leaf)
        ce = cross_entropy(logits, labels)
        pen = _penalty_from_logits(tape, logits, x_leaf)
        total = ad.add(ad.mul(ce, config.gamma), ad.mul(pen, config.beta))
        bd = LossBreakdown(total=total.item(), cross_entropy=ce.item(),
                           auxiliary=pen.item())
        return LossGraph(total, bd, tape, bound)

    # JEM: cross-entropy plus the generative term over sampler output
    diverged = 0
    gen_indices = None
    if x_gen is None:
        if buffer is None:
            raise ConfigError("JEM mode requires a replay buffer")
        x0, indices = smp.buffer_draw(buffer, x_batch.shape[0],
                                      (config.sampler.init_lo, config.sampler.init_hi),
                                      x_batch.shape[1:])
        chain = smp.sgld_chain(model, params, x0, config.sampler, rng=rng)
        ok = ~chain.report.diverged_mask
        diverged = int((~ok).sum())
        x_gen = chain.samples[ok]
        gen_indices = indices[ok]

    logits = en.model_logits(model, bound, ad.Tensor(x_batch))
    ce = cross_entropy(logits, labels)
    x_gen = np.asarray(x_gen, dtype=np.float64)
    if x_gen.shape[0] == 0:
        bd = LossBreakdown(total=ce.item(), cross_entropy=ce.item(),
                           diverged_chains=diverged)
        return LossGraph(ce, bd, tape, bound, x_gen, gen_indices)
    e_gen = en.energy(en.model_logits(model, bound, ad.Tensor(x_gen)))
    e_train = en.energy(logits)
    aux = ad.sub(ad.mean(e_train), ad.mean(e_gen))     # max likelihood: data below samples
    total = ad.add(ce, aux)
    bd = LossBreakdown(total=total.item(), cross_entropy=ce.item(),
                       auxiliary=aux.item(), diverged_chains=diverged)
    return LossGraph(total, bd, tape, bound, x_gen, gen_indices)

