"""Reference maths the output checks compare against, written apart from ebmkit.

Everything here is plain numpy: the checkpoint reader follows the
documented npz layout, the forward pass and the input gradient are
written by hand (the convolution through ``sliding_window_view`` and
``einsum``), and ECE and AUROC use their textbook definitions.
"""

from __future__ import annotations

import json

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

CHUNK = 64   # examples per reference pass, so checks never outgrow the program


class Model:
    """A checkpoint read back as a layer list plus named arrays."""

    def __init__(self, path):
        with np.load(str(path), allow_pickle=False) as archive:
            meta = json.loads(bytes(archive["__meta__"]).decode())
            self.params = {name: archive[f"param::{name}"] for name in meta["param_names"]}
        self.layers = meta["model"]["layers"]
        self.input_shape = tuple(meta["model"]["input_shape"])
        self.epoch = meta["epoch"]

    def finite(self) -> bool:
        return all(np.all(np.isfinite(v)) for v in self.params.values())

    # -- forward / backward over one chunk ---------------------------------

    def _forward(self, x):
        h, cache = x, []
        for i, layer in enumerate(self.layers):
            kind = layer["kind"]
            cache.append(h)
            if kind == "dense":
                h = h @ self.params[f"layer{i}.w"] + self.params[f"layer{i}.b"]
            elif kind == "relu":
                h = np.maximum(h, 0.0)
            elif kind == "flatten":
                h = h.reshape(h.shape[0], -1)
            elif kind == "conv":
                h = conv2d(h, self.params[f"layer{i}.w"], self.params[f"layer{i}.b"],
                           _pad(layer))
            else:
                raise ValueError(f"unknown layer kind {kind!r}")
        return h, cache

    def _energy_grad(self, x):
        logits, cache = self._forward(x)
        g = -softmax(logits)                       # dE/dlogits for E = -logsumexp
        for i in reversed(range(len(self.layers))):
            layer, h = self.layers[i], cache[i]
            kind = layer["kind"]
            if kind == "dense":
                g = g @ self.params[f"layer{i}.w"].T
            elif kind == "relu":
                g = g * (h > 0)
            elif kind == "flatten":
                g = g.reshape(h.shape)
            else:
                g = conv2d_input_grad(g, self.params[f"layer{i}.w"], _pad(layer))
        return -logsumexp(logits), g

    # -- chunked public API --------------------------------------------------

    def logits(self, x) -> np.ndarray:
        return np.concatenate([self._forward(x[s:s + CHUNK])[0]
                               for s in range(0, len(x), CHUNK)])

    def energy(self, x) -> np.ndarray:
        return -logsumexp(self.logits(x))

    def energy_grad(self, x) -> np.ndarray:
        return np.concatenate([self._energy_grad(x[s:s + CHUNK])[1]
                               for s in range(0, len(x), CHUNK)])

    def egm(self, x) -> np.ndarray:
        """Per-example ||dE/dx||_2."""
        g = self.energy_grad(x)
        return np.linalg.norm(g.reshape(len(g), -1), axis=1)

    def directional_fd_error(self, x, seed: int, h: float = 1e-6) -> float:
        """Largest relative gap between the hand-written gradient and a
        central difference of the energy along a random unit direction."""
        rng = np.random.default_rng(seed)
        v = rng.normal(size=x.shape)
        v /= np.linalg.norm(v.reshape(len(v), -1), axis=1).reshape((-1,) + (1,) * (x.ndim - 1))
        analytic = (self.energy_grad(x) * v).reshape(len(x), -1).sum(axis=1)
        numeric = (self.energy(x + h * v) - self.energy(x - h * v)) / (2 * h)
        return float(np.max(np.abs(analytic - numeric) / (np.abs(analytic) + 1e-3)))


def _pad(layer) -> int:
    return layer["kernel"] // 2 if layer.get("padding") is None else layer["padding"]


def softmax(z):
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def logsumexp(z):
    m = z.max(axis=1, keepdims=True)
    return (np.log(np.exp(z - m).sum(axis=1, keepdims=True)) + m)[:, 0]


def conv2d(x, w, b, pad: int):
    """Stride-1 cross-correlation: x N x C x H x W, w F x C x k x k."""
    k = w.shape[2]
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    windows = sliding_window_view(xp, (k, k), axis=(2, 3))      # N C Ho Wo k k
    return np.einsum("nchwuv,fcuv->nfhw", windows, w, optimize=True) + b[None, :, None, None]


def conv2d_input_grad(g, w, pad: int):
    """Adjoint of ``conv2d`` with respect to x: a full correlation of the
    output gradient with the flipped, channel-swapped kernel."""
    k = w.shape[2]
    flipped = np.ascontiguousarray(w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3))
    full = conv2d(g, flipped, np.zeros(flipped.shape[0]), k - 1)
    return full[:, :, pad:full.shape[2] - pad, pad:full.shape[3] - pad]


def ece_bins(confidence, correct, n_bins: int):
    """Equal-width bins over [0, 1], right edge inclusive, bin 0 holds 0.
    Rows are (count, mean confidence, accuracy), zeros for empty bins."""
    rows = []
    for b in range(n_bins):
        lo, hi = b / n_bins, (b + 1) / n_bins
        mask = (confidence > lo) & (confidence <= hi)
        if b == 0:
            mask |= confidence == 0.0
        n = int(mask.sum())
        rows.append((n, float(confidence[mask].mean()) if n else 0.0,
                     float(correct[mask].mean()) if n else 0.0))
    return rows


def auroc(scores_in, scores_out) -> float:
    """P(in > out) + P(in == out) / 2, counted by ranks."""
    s_in = np.sort(np.asarray(scores_in, dtype=np.float64))
    s_out = np.asarray(scores_out, dtype=np.float64)
    below = np.searchsorted(s_in, s_out, side="left")
    upto = np.searchsorted(s_in, s_out, side="right")
    greater = len(s_in) - upto
    ties = upto - below
    return float((greater + 0.5 * ties).sum() / (len(s_in) * len(s_out)))


def bayes_accuracy(separation: float, std: float) -> float:
    """Accuracy of the optimal rule for two equal-weight isotropic
    Gaussians whose centres lie ``separation`` apart: Phi(separation / 2std)."""
    from math import erf, sqrt
    return 0.5 * (1.0 + erf(separation / (2.0 * std) / sqrt(2.0)))
