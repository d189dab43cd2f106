"""White-box projected-gradient-descent attacks.

Untargeted: each step ascends the cross-entropy of the true label
(sign of the gradient under L-inf, normalized gradient under L2), then
projects the perturbation back onto the epsilon ball and clips to the
input domain. Clipping moves coordinates toward the clean input, so the
budget survives it. Defaults follow the standard recipe: 40 steps, step
size 2.5 * eps / steps, random start inside the ball.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from . import autodiff as ad
from . import energy as en
from . import losses

__all__ = ["Norm", "AttackConfig", "AttackReport", "project", "pgd", "attack_sweep"]


# every data source maps inputs into [-1, 1]; attacks keep them there
_INPUT_RANGE = (-1.0, 1.0)


class Norm(enum.Enum):
    L2 = "l2"
    LINF = "linf"


@dataclass(frozen=True)
class AttackConfig:
    norm: Norm = Norm.LINF
    epsilon: float = 0.0
    n_steps: int = 40
    step_size: Optional[float] = None   # None -> 2.5 * epsilon / n_steps
    random_start: bool = True

    @property
    def step(self) -> float:
        if self.step_size is not None:
            return self.step_size
        return 2.5 * self.epsilon / self.n_steps


@dataclass
class AttackReport:
    norm: Norm
    epsilons: list
    clean_accuracy: float
    adversarial_accuracy: list           # one entry per epsilon
    n_examples: int


def project(delta: np.ndarray, norm: Norm, epsilon: float) -> np.ndarray:
    """Project perturbations onto the epsilon ball, rowwise for L2."""
    delta = np.asarray(delta, dtype=np.float64)
    if norm is Norm.LINF:
        return np.clip(delta, -epsilon, epsilon)
    flat = delta.reshape(delta.shape[0], -1) if delta.ndim > 1 else delta.reshape(1, -1)
    norms = en._row_norms(flat, keepdims=True)
    scale = np.where(norms > epsilon, epsilon / np.maximum(norms, 1e-300), 1.0)
    return (flat * scale).reshape(delta.shape)


def _random_start(rng: np.random.Generator, shape: tuple, norm: Norm,
                  epsilon: float) -> np.ndarray:
    if norm is Norm.LINF:
        return rng.uniform(-epsilon, epsilon, size=shape)
    flat_dim = int(np.prod(shape[1:]))
    direction = rng.normal(size=(shape[0], flat_dim))
    direction /= np.maximum(en._row_norms(direction, keepdims=True), 1e-12)
    radius = epsilon * rng.uniform(0, 1, size=(shape[0], 1)) ** (1.0 / flat_dim)
    return (direction * radius).reshape(shape)


def pgd(model, params, x: np.ndarray, y: np.ndarray, config: AttackConfig,
        rng: np.random.Generator) -> np.ndarray:
    """Adversarial inputs within the epsilon ball around x.

    The returned batch satisfies the budget exactly for L-inf and up to
    1e-9 rounding slack for L2; epsilon zero returns x unchanged.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if config.epsilon == 0.0:
        return x.copy()

    delta = np.zeros_like(x)
    if config.random_start:
        delta = _random_start(rng, x.shape, config.norm, config.epsilon)
        delta = np.clip(x + delta, *_INPUT_RANGE) - x

    # with scale 1/N each row gets the upstream gradient 1/N that a mean over N rows gives it
    scale = 1.0 / max(len(x), 1)
    gradient = en._block_grads(model, params, lambda logits, onehot: ad.mul(
        ad.sum_(losses._nll_rows(logits, onehot)), scale))

    def attack(xb, onehot, db):     # rows move independently, so a block takes all its steps
        for _ in range(config.n_steps):
            grad = gradient(xb + db, onehot)
            if not np.all(np.isfinite(grad)):
                raise ValueError("pgd: non-finite input gradient")
            if config.norm is Norm.LINF:
                step = config.step * np.sign(grad)
            else:
                flat = grad.reshape(grad.shape[0], -1)
                norms = np.maximum(en._row_norms(flat, keepdims=True), 1e-12)
                step = (config.step * flat / norms).reshape(grad.shape)
            db = project(db + step, config.norm, config.epsilon)
            db = np.clip(xb + db, *_INPUT_RANGE) - xb
        return db

    x_hat = x + en._in_blocks(attack, model, x, losses._one_hot(y, model.classes), delta)
    if config.norm is Norm.LINF:
        # the add/subtract roundtrip can overshoot the budget by an ulp;
        # nudge offending coordinates toward x until ||x_hat - x||_inf <= eps
        # holds exactly in the verifier's own arithmetic
        for _ in range(4):
            over = np.abs(x_hat - x) > config.epsilon
            if not over.any():
                break
            x_hat = np.where(over, np.nextafter(x_hat, x), x_hat)
    return x_hat


def _verify_budget(delta: np.ndarray, norm: Norm, epsilon: float) -> None:
    flat = delta.reshape(delta.shape[0], -1)
    if norm is Norm.LINF:
        worst = float(np.abs(flat).max(initial=0.0))
        ok = worst <= epsilon
    else:
        worst = float(en._row_norms(flat).max(initial=0.0))
        ok = worst <= epsilon + 1e-9
    if not ok:
        raise AssertionError(f"attack budget violated: {worst} > {epsilon} ({norm.value})")


def _accuracy(model, params, x: np.ndarray, y: np.ndarray) -> float:
    return float((en._logits_in_blocks(model, params, x).argmax(axis=1) == y).mean())


def attack_sweep(model, params, dataset, epsilons: Sequence[float], config: AttackConfig,
                 seed: int = 0) -> AttackReport:
    """Adversarial accuracy on ``dataset`` at each epsilon, with ``config``'s
    other settings; a fixed seed per epsilon keeps runs comparable across models."""
    eps_list = [float(e) for e in epsilons]
    x, y, norm = dataset.x, dataset.y, config.norm

    clean = _accuracy(model, params, x, y)
    adv_accs = []
    for i, eps in enumerate(eps_list):
        if eps == 0.0:      # pgd returns x itself
            adv_accs.append(clean)
            continue
        cfg = replace(config, epsilon=eps)
        x_adv = pgd(model, params, x, y, cfg, rng=np.random.default_rng([seed, i]))
        _verify_budget(x_adv - x, norm, eps)
        adv_accs.append(_accuracy(model, params, x_adv, y))
    return AttackReport(norm=norm, epsilons=eps_list, clean_accuracy=clean,
                        adversarial_accuracy=adv_accs, n_examples=int(x.shape[0]))

