"""Langevin sampling over model inputs, with a replay buffer.

Chains follow x_{i+1} = x_i - (step/2) * dE/dx + noise, where the noise
is zero-mean Gaussian with variance equal to the current step size. The
step size follows a polynomial decay step * (i+1)^(-decay_exponent); the
exponent defaults to 0 (constant step).

Chains are monitored for the documented failure mode of unbounded
growth: any non-finite coordinate, or any coordinate beyond the
divergence bound, freezes that chain and flags it. Diverged samples are
reported, never cached. A step checks its whole proposal with one
reduction, ``|x|.max() <= bound``, which NaN, inf and out-of-bound values
all fail; only then are its rows checked one by one.

The replay buffer is a ring over one array, grown with its fill (never
to its capacity up front): a draw gathers its cached rows with one index,
and a push writes its rows with one scatter per kind.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from . import autodiff as ad
from . import energy as en

__all__ = [
    "SgldConfig", "ReplayBuffer", "DivergenceReport", "ChainResult",
    "buffer_draw", "buffer_push", "sgld_chain",
    "QuadraticBowlEnergy", "ConcaveBowlEnergy",
]


@dataclass(frozen=True)
class SgldConfig:
    """Chain hyperparameters. Defaults: 20 steps, constant step size,
    uniform init on [-1, 1] per coordinate, divergence bound at 10x the
    half-width of the init interval."""

    n_steps: int = 20
    step_size: float = 1.0
    decay_exponent: float = 0.0
    init_lo: float = -1.0
    init_hi: float = 1.0
    noise: bool = True
    divergence_bound: Optional[float] = None
    convergence_eta: float = 1e-3

    def __post_init__(self):
        if self.n_steps < 0:
            raise ValueError("n_steps must be >= 0")
        if self.step_size <= 0:
            raise ValueError("step_size must be > 0")
        if not self.init_lo < self.init_hi:
            raise ValueError("init bounds must satisfy lo < hi")

    @property
    def bound(self) -> float:
        if self.divergence_bound is not None:
            return self.divergence_bound
        return 10.0 * (self.init_hi - self.init_lo) / 2.0

    def step_at(self, i: int) -> float:
        return self.step_size * (i + 1) ** (-self.decay_exponent)


@dataclass
class DivergenceReport:
    """First detected chain failure within a batch, if any."""

    diverged: bool = False
    step: Optional[int] = None
    magnitude: Optional[float] = None
    reason: Optional[str] = None          # "non-finite" | "bound-exceeded"
    diverged_mask: Optional[np.ndarray] = None  # per-chain flags


@dataclass
class ChainResult:
    samples: np.ndarray
    report: DivergenceReport
    egm_trace: Optional[list] = None      # noise-free chains only
    converged: Optional[bool] = None


class ReplayBuffer:
    """FIFO store of past chain endpoints.

    Draws reuse a cached sample with probability 1 - reinit_prob and
    reinitialize from the uniform init distribution otherwise. Samples
    that are non-finite or outside the sanity bound are never stored.
    The samples live in one array, a ring: the i-th oldest is row
    ``(_start + i) % len(_ring)``. The array grows with the fill, doubling
    up to ``capacity``; until it is full nothing is evicted and ``_start``
    stays 0.
    """

    def __init__(self, capacity: int = 10000, reinit_prob: float = 0.05,
                 rng: Union[np.random.Generator, int, None] = None,
                 sanity_bound: Optional[float] = None):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if not 0.0 <= reinit_prob <= 1.0:
            raise ValueError("reinit_prob must be in [0, 1]")
        self.capacity = capacity
        self.reinit_prob = reinit_prob
        self.sanity_bound = sanity_bound
        self.rng = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
        self._ring = np.empty(0)
        self._start = 0
        self._len = 0

    def __len__(self):
        return self._len

    def _rows(self, index):
        """Ring rows of FIFO positions ``index`` (an int or an int array)."""
        return (self._start + index) % len(self._ring)

    def samples(self) -> np.ndarray:
        """Every stored sample, oldest first, as a new array."""
        return np.concatenate((self._ring[self._start:self._len], self._ring[:self._start]))


def buffer_draw(buffer: ReplayBuffer, batch_size: int,
                init_bounds: tuple, shape: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Starting points for a batch of chains.

    Returns (x0, indices): indices[i] is the buffer slot the i-th sample
    was cached in, or -1 for a fresh uniform draw. An empty buffer
    yields all-fresh samples. The draws are, in order: every fresh sample,
    then per row a uniform draw and, if it picks the cache, a slot.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    lo, hi = init_bounds
    x0 = buffer.rng.uniform(lo, hi, size=(batch_size,) + tuple(shape))
    indices = np.full(batch_size, -1, dtype=np.int64)
    n, reinit = len(buffer), buffer.reinit_prob
    if n:
        # random() draws what uniform() does, bit for bit, in a third of the time
        random, integers = buffer.rng.random, buffer.rng.integers
        drawn = [(i, integers(0, n)) for i in range(batch_size) if random() >= reinit]
        if drawn:
            rows, slots = np.array(drawn, dtype=np.int64).T
            indices[rows] = slots
            x0[rows] = buffer._ring[buffer._rows(slots)]
    return x0, indices


def buffer_push(buffer: ReplayBuffer, samples: np.ndarray,
                indices: np.ndarray) -> ReplayBuffer:
    """Write chain endpoints back: cached slots are replaced in place (the
    last of two writes to one slot wins), then fresh samples append with
    FIFO eviction. Rows failing the sanity check (non-finite or out of
    bound) are dropped."""
    samples = np.asarray(samples, dtype=np.float64)
    indices = np.asarray(indices, dtype=np.int64)
    keep = ~_check_rows(samples, math.inf if buffer.sanity_bound is None
                        else buffer.sanity_bound)[0]
    # cached slots are written before any eviction moves the ring's start
    cached = keep & (indices >= 0) & (indices < len(buffer))
    if cached.any():
        slots, last = np.unique(indices[cached][::-1], return_index=True)
        buffer._ring[buffer._rows(slots)] = samples[cached][::-1][last]
    fresh = samples[keep & ~cached][-buffer.capacity:]
    if not len(fresh):
        return buffer
    end = len(buffer) + len(fresh)
    if len(buffer._ring) < min(end, buffer.capacity):   # grow with the fill
        ring = np.empty((min(buffer.capacity, max(end, 2 * len(buffer._ring))),)
                        + fresh.shape[1:])
        if len(buffer):
            ring[:len(buffer)] = buffer._ring[:len(buffer)]
        buffer._ring = ring
    buffer._ring[buffer._rows(np.arange(len(buffer), end))] = fresh
    evicted = max(0, end - buffer.capacity)     # the oldest rows, just overwritten
    buffer._start = buffer._rows(evicted)
    buffer._len = end - evicted
    return buffer


def _check_rows(x: np.ndarray, bound: float) -> tuple[np.ndarray, np.ndarray, Optional[str]]:
    # one pass: a row's max |x| is NaN or inf exactly when the row is not finite
    magnitude = ad._reduce(np.maximum, np.abs(x.reshape(x.shape[0], -1)), (1,))
    finite = np.isfinite(magnitude)
    magnitude[~finite] = np.inf
    bad = ~finite | (magnitude > bound)
    reason = "non-finite" if not finite.all() else "bound-exceeded" if bad.any() else None
    return bad, magnitude, reason


def sgld_chain(model, params, x0: np.ndarray, config: SgldConfig,
               rng: Union[np.random.Generator, int] = 0,
               programs: Optional[dict] = None) -> ChainResult:
    """Run a batch of chains for config.n_steps updates.

    Model parameters are read-only throughout. Chains that produce a
    non-finite coordinate or leave the divergence bound are frozen at
    their last finite state and flagged in the report; healthy chains
    keep running. Noise-free chains (``config.noise`` False) descend the
    energy and also record a per-step trace of the mean energy-gradient
    magnitude; they count as converged when its final value drops below
    ``config.convergence_eta``. Steps replay each row-block shape's input
    gradient recorded in ``programs`` (by default a new dict); the chain
    binds its gradient function once, so a step reaches its block's
    program with one dict lookup.
    """
    rng = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    x = np.array(x0, dtype=np.float64, copy=True)
    report = DivergenceReport(diverged_mask=np.zeros(x.shape[0], dtype=bool))
    trace: list[float] = []
    alive = np.ones(x.shape[0], dtype=bool)
    rows = (-1,) + (1,) * (x.ndim - 1)
    # NaN fails the test and inf exceeds the largest float, so a proposal
    # passes it exactly when no row is bad
    limit = min(config.bound, sys.float_info.max)
    grad = en._block_grads(model, params, programs)
    for i in range(config.n_steps):
        step = config.step_at(i)
        grads = en._in_blocks(grad, model, x)
        if not config.noise:
            trace.append(float(en._row_norms(grads).mean()))
        update = -(step / 2.0) * grads
        if config.noise:
            update += rng.normal(0.0, math.sqrt(step), size=x.shape)
        proposal = x + update
        if report.diverged:     # frozen chains keep their state
            proposal = np.where(alive.reshape(rows), proposal, x)
        if not np.abs(proposal).max() <= limit:
            bad, magnitude, reason = _check_rows(proposal, config.bound)
            newly_bad = bad & alive
            if newly_bad.any():
                if not report.diverged:
                    report.diverged = True
                    report.step = i
                    report.reason = reason
                    worst = magnitude[newly_bad]
                    report.magnitude = float(worst[np.isfinite(worst)].max()) \
                        if np.isfinite(worst).any() else float("inf")
                report.diverged_mask |= newly_bad
                alive &= ~newly_bad
                # frozen chains keep their last finite state
                proposal = np.where(newly_bad.reshape(rows), x, proposal)
        x = proposal
    result = ChainResult(samples=x, report=report)
    if not config.noise:
        result.egm_trace = trace
        result.converged = bool(trace and trace[-1] < config.convergence_eta)
    return result


# ---------------------------------------------------------------------------
# analytic test energies (K = 1 logit models usable anywhere a ModelSpec is)

class QuadraticBowlEnergy:
    """Single-logit model f(x) = -0.5 * ||x||^2, so E(x) = 0.5 * ||x||^2.

    A noise-free chain contracts toward the origin for 0 < step < 4.
    """

    def __call__(self, params, x: ad.Tensor) -> ad.Tensor:
        sq = ad.mul(ad.sum_(ad.square(x), axis=tuple(range(1, x.ndim)), keepdims=False), 0.5)
        return ad.reshape(ad.neg(sq), (x.shape[0], 1))


class ConcaveBowlEnergy:
    """Single-logit model f(x) = +0.5 * ||x||^2, so E(x) = -0.5 * ||x||^2.

    Noise-free chains grow by (1 + step/2) per update: the documented
    unbounded-growth failure, used to exercise divergence reporting.
    """

    def __call__(self, params, x: ad.Tensor) -> ad.Tensor:
        sq = ad.mul(ad.sum_(ad.square(x), axis=tuple(range(1, x.ndim)), keepdims=False), 0.5)
        return ad.reshape(sq, (x.shape[0], 1))
