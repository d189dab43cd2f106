"""Parametric classifiers and their optimizer.

Models are plain layer stacks (dense / relu / flatten / conv, or the
bowl of the analytic test energies) with no batch normalization, so
logits are a deterministic function of the input. Parameters live in a
named, ordered store; the trainer's single thread of control owns
mutation, evaluation reads frozen snapshots.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import astuple, dataclass, field, replace
from typing import Iterable

import numpy as np

from . import autodiff as ad

__all__ = [
    "Dense", "Relu", "Flatten", "Conv", "Bowl", "ModelSpec", "Parameters",
    "init", "forward", "AdamState", "NonFiniteGradient", "adam_step",
]

# Passes over a set run in row blocks whose widest activation fills 2 MB: 32
# images on a 3x32x32 net with 8 channels, whose input gradient took 0.90 ms
# an image, against 1.01 in 16-image blocks and 1.03 in one 256-image pass.
_ROW_BLOCK_BYTES = 2 << 20


class _Layer:
    """A layer kind: its checkpoint entry (``kind``; ``keys`` names its fields in
    order), its shape rule, its ``parameters`` (weight shape, bias shape, He
    fan-in; none if it has none) and its ``op``, reading them under ``prefix``."""

    keys, parameters = (), ()

    def out_shape(self, shape: tuple) -> tuple:
        return shape


@dataclass(frozen=True)
class Dense(_Layer):
    in_dim: int
    out_dim: int
    kind, keys = "dense", ("in", "out")

    def out_shape(self, shape: tuple) -> tuple:
        if shape != (self.in_dim,):
            raise ValueError(f"{self} expects ({self.in_dim},), got {shape}")
        return (self.out_dim,)

    @property
    def parameters(self) -> tuple:
        return (self.in_dim, self.out_dim), (self.out_dim,), self.in_dim

    def op(self, h: ad.Tensor, params: Mapping, prefix: str) -> ad.Tensor:
        return ad.linear(h, params[prefix + "w"], params[prefix + "b"])


@dataclass(frozen=True)
class Relu(_Layer):
    kind = "relu"

    def op(self, h: ad.Tensor, params: Mapping, prefix: str) -> ad.Tensor:
        return ad.relu(h)


@dataclass(frozen=True)
class Flatten(_Layer):
    kind = "flatten"

    def out_shape(self, shape: tuple) -> tuple:
        return (int(np.prod(shape)),)

    def op(self, h: ad.Tensor, params: Mapping, prefix: str) -> ad.Tensor:
        return ad.reshape(h, (h.shape[0], int(np.prod(h.shape[1:]))))


@dataclass(frozen=True)
class Conv(_Layer):
    """A same-size conv: an odd kernel, zero-padded by kernel // 2."""

    in_channels: int
    out_channels: int
    kernel: int
    kind, keys = "conv", ("in", "out", "kernel")

    def out_shape(self, shape: tuple) -> tuple:
        if len(shape) != 3 or shape[0] != self.in_channels:
            raise ValueError(f"{self} expects {self.in_channels} channels, got {shape}")
        if self.kernel % 2 == 0:
            raise ValueError(f"{self}: the kernel must be odd")
        return (self.out_channels,) + shape[1:]

    @property
    def parameters(self) -> tuple:
        k = self.kernel
        return ((self.out_channels, self.in_channels, k, k), (self.out_channels,),
                self.in_channels * k ** 2)

    def op(self, h: ad.Tensor, params: Mapping, prefix: str) -> ad.Tensor:
        return ad.conv2d(h, params[prefix + "w"], params[prefix + "b"])


@dataclass(frozen=True)
class Bowl(_Layer):
    """The logit -0.5 * curvature * ||x||^2, so E(x) = 0.5 * curvature * ||x||^2. With
    curvature 1 noise-free chains contract to 0 for 0 < step < 4; with -1 they grow
    by (1 + step/2) a step, the unbounded-growth failure."""

    dim: int
    curvature: float
    kind, keys = "bowl", ("dim", "curvature")

    def out_shape(self, shape: tuple) -> tuple:
        if shape != (self.dim,):
            raise ValueError(f"{self} expects ({self.dim},), got {shape}")
        return (1,)

    def op(self, h: ad.Tensor, params: Mapping, prefix: str) -> ad.Tensor:
        sq = ad.sum_(ad.square(h), axis=1)
        return ad.reshape(ad.mul(sq, -0.5 * self.curvature), (h.shape[0], 1))


@dataclass(frozen=True)
class ModelSpec:
    """Layer topology mapping inputs of ``input_shape`` to ``classes`` logits.

    ``input_shape`` is per-example: (D,) for flat inputs or (C, H, W).
    Construction runs shape inference and rejects stacks that do not
    compose or do not end in exactly ``classes`` outputs.
    """

    layers: tuple
    input_shape: tuple
    classes: int
    block_rows: int = field(init=False, repr=False, compare=False)  # rows per block

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        object.__setattr__(self, "input_shape", tuple(int(d) for d in self.input_shape))
        shape = self.input_shape
        widest = int(np.prod(shape))
        for layer in self.layers:
            shape = layer.out_shape(shape)
            widest = max(widest, int(np.prod(shape)))
        if shape != (self.classes,):
            raise ValueError(
                f"model ends with shape {shape}, expected ({self.classes},) logits")
        object.__setattr__(self, "block_rows", max(1, _ROW_BLOCK_BYTES // (8 * widest)))

    def __call__(self, params: Mapping, x) -> ad.Tensor:
        """Logits of a batch: ``forward``, looked up per call so a wrapper put in its place runs."""
        return forward(self, params, x)

    @staticmethod
    def mlp(input_dim: int, hidden: Iterable[int], classes: int) -> "ModelSpec":
        layers: list[_Layer] = []
        prev = input_dim
        for width in hidden:
            layers += [Dense(prev, width), Relu()]
            prev = width
        layers.append(Dense(prev, classes))
        return ModelSpec(tuple(layers), (input_dim,), classes)

    @staticmethod
    def small_conv(input_shape: tuple, channels: Iterable[int], classes: int,
                   kernel: int = 3) -> "ModelSpec":
        prev, h, w = input_shape
        layers: list[_Layer] = []
        for ch in channels:
            layers += [Conv(prev, ch, kernel), Relu()]
            prev = ch
        layers += [Flatten(), Dense(prev * h * w, classes)]
        return ModelSpec(tuple(layers), tuple(input_shape), classes)

    def to_dict(self) -> dict:
        layers = [{"kind": layer.kind, **dict(zip(layer.keys, astuple(layer)))}
                  for layer in self.layers]
        return {"layers": layers, "input_shape": list(self.input_shape),
                "classes": self.classes}

    @staticmethod
    def from_dict(d: dict) -> "ModelSpec":
        layers: list[_Layer] = []
        for entry in d["layers"]:
            kind = next((k for k in _Layer.__subclasses__() if k.kind == entry["kind"]), None)
            if kind is None:
                raise ValueError(f"unknown layer kind {entry['kind']!r}")
            if entry.get("padding") is not None:   # older files wrote a conv's "padding": null
                raise ValueError(f"padding {entry['padding']!r}: a conv pads by kernel // 2")
            layers.append(kind(*[entry[key] for key in kind.keys]))
        return ModelSpec(tuple(layers), tuple(d["input_shape"]), d["classes"])


def _pack(arrays: Mapping[str, np.ndarray]) -> tuple[np.ndarray, dict]:
    """One float64 vector holding a copy of every array, and each name's view of it."""
    arrays = {k: np.asarray(v, dtype=np.float64) for k, v in arrays.items()}
    flat = np.concatenate([a.ravel() for a in arrays.values()] or [np.zeros(0)])
    ends = np.cumsum([a.size for a in arrays.values()], dtype=int)
    return flat, {k: flat[end - a.size:end].reshape(a.shape)
                  for (k, a), end in zip(arrays.items(), ends)}


class Parameters(Mapping):
    """Ordered, named float64 parameter arrays matching a ModelSpec, read as a
    name -> array mapping. They share one vector, ``flat``; ``arrays`` maps
    each name to its view of it."""

    def __init__(self, arrays: Mapping[str, np.ndarray]):
        self.flat, self.arrays = _pack(arrays)
        for name, arr in self.arrays.items():
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"parameter {name!r} contains non-finite values")

    def copy(self) -> "Parameters":
        return Parameters(self.arrays)

    def __deepcopy__(self, memo) -> "Parameters":
        return self.copy()      # a new vector with its own views

    def __getitem__(self, name: str) -> np.ndarray:
        return self.arrays[name]

    def __iter__(self):
        return iter(self.arrays)

    def __len__(self):
        return len(self.arrays)

    def __eq__(self, other):
        if not isinstance(other, Parameters):
            return NotImplemented
        return (list(self) == list(other)
                and all(np.array_equal(self.arrays[k], other.arrays[k]) for k in self.arrays))


def _parameter_list(spec: ModelSpec):
    """Each parameter's name, shape and He fan-in (None for a bias), in order:
    the list ``init`` draws and a checkpoint of ``spec`` holds."""
    for i, layer in enumerate(spec.layers):
        if layer.parameters:
            weight, bias, fan_in = layer.parameters
            yield f"layer{i}.w", weight, fan_in
            yield f"layer{i}.b", bias, None


def init(spec: ModelSpec, seed: int) -> Parameters:
    """He-scaled normal weights, zero biases, reproducible from seed."""
    rng = np.random.default_rng(seed)
    return Parameters({name: np.zeros(shape) if fan_in is None
                       else rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape)
                       for name, shape, fan_in in _parameter_list(spec)})


def forward(spec: ModelSpec, params: Mapping, x) -> ad.Tensor:
    """Logits for a batch. ``params`` maps each parameter name to an array or
    a Tensor (a Parameters store, or leaves a recording binds); ``x`` is an
    array or Tensor."""
    h = x if isinstance(x, ad.Tensor) else ad.Tensor(x)
    if h.ndim < 2 or h.shape[1:] != spec.input_shape:
        raise ad.ShapeError(
            f"forward: input shape {h.shape} does not match (batch,) + {spec.input_shape}")
    for i, layer in enumerate(spec.layers):
        h = layer.op(h, params, f"layer{i}.")
    return h


# ---------------------------------------------------------------------------
# optimizer

class NonFiniteGradient(ValueError):
    """``adam_step`` was given a NaN or infinite gradient and changed nothing."""


@dataclass
class AdamState:
    """First/second moment estimates plus step counter and hyperparameters;
    ``m`` and ``v`` are views of one vector each, ``flat_m`` and ``flat_v``."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0
    lr: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self):
        self.flat_m, self.m = _pack(self.m)
        self.flat_v, self.v = _pack(self.v)

    def __deepcopy__(self, memo) -> "AdamState":
        return replace(self)    # packs copies of the moments into new vectors

    @staticmethod
    def for_params(params: Parameters, lr: float = 1e-4) -> "AdamState":
        zeros = {k: np.zeros_like(v) for k, v in params.arrays.items()}
        return AdamState(m=zeros, v=zeros, lr=lr)


def adam_step(state: AdamState, params: Parameters,
              grads: Mapping[str, np.ndarray]) -> tuple[Parameters, AdamState]:
    """One bias-corrected Adam update of all parameters at once, in place; returns
    (params, state). A NaN or infinite gradient raises NonFiniteGradient, naming
    its parameter, and changes nothing."""
    g = np.concatenate([np.ravel(grads[name]) for name in params.arrays], dtype=np.float64)
    if not np.isfinite(g).all():
        name = next(k for k in params.arrays if not np.isfinite(grads[k]).all())
        raise NonFiniteGradient(f"adam_step: non-finite gradient for parameter {name!r}")
    state.t += 1
    b1, b2 = state.beta1, state.beta2
    state.flat_m[:] = b1 * state.flat_m + (1 - b1) * g
    state.flat_v[:] = b2 * state.flat_v + (1 - b2) * np.square(g)
    mhat = state.flat_m / (1 - b1 ** state.t)
    vhat = state.flat_v / (1 - b2 ** state.t)
    params.flat -= state.lr * mhat / (np.sqrt(vhat) + state.eps)
    return params, state

