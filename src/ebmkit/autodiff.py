"""Reverse-mode automatic differentiation over an explicit tape.

Everything is float64. Operations record onto a ``Tape``; ``backward``
walks the tape in reverse topological order. With ``create_graph=True``
the backward pass is itself built out of recorded primitives, so a
second backward through a gradient (needed for input-gradient
penalties) is an ordinary tape traversal. A tape node keeps its output,
the pure numpy function of its input values that made it and whatever
its VJP reads; ``backward`` keeps only the gradients it has yet to
propagate and those of the requested leaves.

A ``Program`` replays a recording as plain numpy calls on new leaf
values, for any number of outputs at once. ``record`` is the one way to
make one: it binds every value a loss reads (parameters, inputs, labels)
as a leaf, records the loss and its gradient in the leaves asked for, and
replays the recording for later values of the same shapes. A training
step's loss terms and parameter gradients and the input gradient of a
chain, attack or score block all take this path; only the loss's own
constants are held by value.

A Tape is single-writer: never record onto one tape from two threads of
control. Distinct tapes are independent and completed tensors are
immutable, so read-only sharing is safe.
"""

from __future__ import annotations

import functools
import weakref
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

__all__ = [
    "ShapeError",
    "Tensor",
    "Tape",
    "backward", "Program", "record",
    # primitive ops
    "add", "sub", "mul", "div", "neg", "matmul", "linear", "transpose", "reshape",
    "broadcast", "sum_", "mean", "relu", "exp", "logsumexp",
    "square", "l2norm", "gather", "conv2d",
]


class ShapeError(ValueError):
    """An operation received tensors whose shapes do not compose."""


class Tensor:
    """N-dimensional float64 value, optionally attached to a tape node.

    ``value`` is a C-contiguous array (row-major flat buffer); treat it
    as immutable once the tensor exists.
    """

    __slots__ = ("value", "_tape", "node")

    def __init__(self, value, tape: Optional["Tape"] = None, node: Optional[int] = None):
        # order="C" (not ascontiguousarray) so 0-d scalars keep their shape
        self.value = np.asarray(value, dtype=np.float64, order="C")
        # weak: node closures hold tensors, so a strong link back would make
        # every tape a reference cycle, freed only by the cyclic collector
        self._tape = None if tape is None else weakref.ref(tape)
        self.node = node

    @property
    def tape(self) -> Optional["Tape"]:
        """The tape this tensor is recorded on; None for constants."""
        return None if self._tape is None else self._tape()

    @property
    def shape(self) -> tuple:
        return self.value.shape

    @property
    def ndim(self) -> int:
        return self.value.ndim

    @property
    def size(self) -> int:
        return self.value.size

    def __repr__(self):
        tag = f", node={self.node}" if self.node is not None else ""
        return f"Tensor(shape={self.shape}{tag})"


class _Node:
    __slots__ = ("value", "parents", "vjp", "fn", "consts")

    def __init__(self, value, parents, vjp, fn=None, consts=()):
        self.value = value          # cached forward value
        self.parents = parents      # input node ids, None for constants; () for leaves
        self.vjp = vjp              # (g, i) -> gradient for input i; None for leaves
        self.fn = fn                # input values -> value; None for leaves
        self.consts = consts        # constant inputs' values, None for recorded ones; () if none


class Tape:
    """Ordered record of operations; node ids are topological."""

    def __init__(self):
        self.nodes: list[_Node] = []
        self._recording = True
        self._replay_only = False   # record for a Program alone: no values or VJPs

    def leaf(self, value) -> Tensor:
        """Register an input as a differentiable leaf."""
        out = Tensor(value, self, len(self.nodes))
        self.nodes.append(_Node(out.value, (), None))
        return out


def _lift(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _register(inputs: Sequence[Tensor], fn: Callable[..., np.ndarray],
              vjp: Callable[[Tensor, int], Optional[Tensor]]) -> Tensor:
    """The output ``fn(*input values)`` of an op on ``inputs`` (``fn`` reads its
    arguments alone); on a recording tape ``vjp(g, i)`` gives the gradient for
    ``inputs[i]``, None if not differentiated. A VJP that needs the output
    closes over the tensor this returns."""
    try:
        value = fn(*[t.value for t in inputs])
    except ValueError as exc:       # numpy's shape error, named after the op
        op = getattr(fn, "__qualname__", "op").split(".")[0]
        raise ShapeError(f"{op}: {exc}; input shapes {[t.shape for t in inputs]}") from exc
    tape = None
    for t in inputs:
        if t.node is not None:
            owner = t._tape()       # recorded, so it has a tape reference
            if owner is None:
                raise ValueError("an input's tape has been freed")
            if tape is not None and owner is not tape:
                raise ValueError("inputs are recorded on different tapes")
            tape = owner
    if tape is None or not tape._recording:
        return Tensor(value)
    out = Tensor(value, tape, len(tape.nodes))
    parents = tuple([t.node for t in inputs])
    consts = tuple([t.value if t.node is None else None for t in inputs]) if None in parents else ()
    keep = not tape._replay_only    # else no value: it goes once its readers have run
    tape.nodes.append(_Node(out.value if keep else None, parents, vjp if keep else None,
                            fn, consts))
    return out


# ---------------------------------------------------------------------------
# elementwise arithmetic

def _unbroadcast(g: Tensor, target_shape: tuple) -> Tensor:
    """Sum a broadcast gradient back down to ``target_shape``."""
    if g.shape == target_shape:
        return g
    extra = g.ndim - len(target_shape)
    axes = list(range(extra))
    for i, dim in enumerate(target_shape):
        if dim == 1 and g.shape[extra + i] != 1:
            axes.append(extra + i)
    out = sum_(g, axis=tuple(axes)) if axes else g
    return reshape(out, target_shape)


def add(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)
    return _register((a, b), np.add, lambda g, i: _unbroadcast(g, (a, b)[i].shape))


def sub(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)

    def vjp(g, i):
        return _unbroadcast(g, a.shape) if i == 0 else _unbroadcast(neg(g), b.shape)

    return _register((a, b), np.subtract, vjp)


def mul(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)

    def vjp(g, i):
        return _unbroadcast(mul(g, b), a.shape) if i == 0 else _unbroadcast(mul(g, a), b.shape)

    return _register((a, b), np.multiply, vjp)


def div(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)

    def vjp(g, i):
        if i == 0:
            return _unbroadcast(div(g, b), a.shape)
        return _unbroadcast(neg(div(mul(g, a), mul(b, b))), b.shape)

    return _register((a, b), np.divide, vjp)


def neg(a) -> Tensor:
    a = _lift(a)
    return _register((a,), np.negative, lambda g, i: neg(g))


# ---------------------------------------------------------------------------
# linear algebra / layout

def matmul(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} and {b.shape}")

    def vjp(g, i):
        return matmul(g, transpose(b)) if i == 0 else matmul(transpose(a), g)

    return _register((a, b), np.matmul, vjp)


def linear(x, w, b) -> Tensor:
    """Dense layer x @ w + b as one node. x: B x D, w: D x F, b: F."""
    x, w, b = _lift(x), _lift(w), _lift(b)
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[0] or b.shape != w.shape[1:]:
        raise ShapeError(f"linear: incompatible shapes {x.shape}, {w.shape} and {b.shape}")

    def vjp(g, i):
        if i == 0:
            return matmul(g, transpose(w))
        return matmul(transpose(x), g) if i == 1 else sum_(g, axis=0)

    return _register((x, w, b), lambda xv, wv, bv: np.add(xv @ wv, bv), vjp)


def transpose(a) -> Tensor:
    a = _lift(a)
    return _register((a,), lambda v: v.transpose().copy(), lambda g, i: transpose(g))


def reshape(a, shape) -> Tensor:
    a = _lift(a)
    shape = tuple(int(s) for s in np.atleast_1d(shape)) if not isinstance(shape, tuple) else shape
    return _register((a,), lambda v: np.asarray(v.reshape(shape), order="C"),
                     lambda g, i: reshape(g, a.shape))


def broadcast(a, shape) -> Tensor:
    a = _lift(a)
    shape = tuple(int(s) for s in shape)
    return _register((a,), lambda v: np.broadcast_to(v, shape).copy(),
                     lambda g, i: _unbroadcast(g, a.shape))


# ---------------------------------------------------------------------------
# reductions; ``axis=None`` reduces every axis and ``axis=()`` none, as in numpy

def _norm_axes(axis, ndim: int) -> tuple:
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, (int, np.integer)):
        axis = (int(axis),)
    return tuple(sorted(a % ndim for a in axis))


def _keep_shape(shape: tuple, axes: tuple) -> tuple:
    return tuple(1 if i in axes else d for i, d in enumerate(shape))


# numpy adds fewer than 8 values in order (its pairwise summation starts at
# 8), from an identity whose sign of zero this probe reads
_ZERO_SUM = np.add.reduce(np.full((1, 2), -0.0), axis=-1)[0]


def _reduce(ufunc, v: np.ndarray, axes: tuple, keepdims: bool = False) -> np.ndarray:
    """``ufunc.reduce(v, axis=axes, keepdims=keepdims)``, bit for bit. A
    reduction over only the last axis of v.ndim > 1 dims, 2 to 7 wide, is
    folded over that axis's columns elementwise, which costs a fraction of
    numpy's reduce on such short rows; the result equals numpy's for add and
    maximum (so also for a norm, the root of summed squares), sign of zero
    included."""
    k = v.shape[-1] if v.ndim > 1 else 0
    if not 2 <= k <= 7 or axes != (v.ndim - 1,):
        return ufunc.reduce(v, axis=axes, keepdims=keepdims)
    out = ufunc(v[..., 0], v[..., 1])
    for j in range(2, k):
        ufunc(out, v[..., j], out=out)
    if ufunc is np.add:
        out += _ZERO_SUM
    return out[..., None] if keepdims else out


def sum_(a, axis=None) -> Tensor:
    a = _lift(a)
    axes = _norm_axes(axis, a.ndim)
    keep = _keep_shape(a.shape, axes)
    return _register((a,), lambda v: _reduce(np.add, v, axes),
                     lambda g, i: broadcast(reshape(g, keep), a.shape))


def mean(a) -> Tensor:
    """The mean of every entry of ``a``."""
    a = _lift(a)
    axes, count = tuple(range(a.ndim)), float(a.size)
    return _register((a,), lambda v: _reduce(np.add, v, axes) / count,
                     lambda g, i: broadcast(reshape(mul(g, 1.0 / count), (1,) * a.ndim), a.shape))


def logsumexp(a, axis=None) -> Tensor:
    """log(sum(exp(a))) with max-subtraction for overflow safety."""
    a = _lift(a)
    axes = _norm_axes(axis, a.ndim)
    keep = _keep_shape(a.shape, axes)
    kept = tuple(d for i, d in enumerate(a.shape) if i not in axes)

    def fn(v):
        m = _reduce(np.maximum, v, axes, True)
        m = np.where(np.isfinite(m), m, 0.0)
        return (np.log(_reduce(np.add, np.exp(v - m), axes, True)) + m).reshape(kept)

    def vjp(g, i):
        # sub and mul broadcast the reduced axes back themselves
        soft = exp(sub(a, reshape(out, keep)))
        return mul(reshape(g, keep), soft)

    out = _register((a,), fn, vjp)
    return out


# ---------------------------------------------------------------------------
# nonlinearities

def relu(a) -> Tensor:
    a = _lift(a)
    return _register((a,), lambda v: np.maximum(v, 0.0), lambda g, i: _mask(g, a, np.greater))


def _mask(g: Tensor, a: Tensor, keep: Callable) -> Tensor:
    """g where ``keep(a, 0)``, else 0: linear in g and recomputed from ``a``, an
    input the VJP does not differentiate (a mask is piecewise constant)."""
    return _register((g, a), lambda gv, av: gv * keep(av, 0),
                     lambda gg, i: _mask(gg, a, keep) if i == 0 else None)


def exp(a) -> Tensor:
    a = _lift(a)
    out = _register((a,), np.exp, lambda g, i: mul(g, out))
    return out


def square(a) -> Tensor:
    a = _lift(a)
    return _register((a,), np.square, lambda g, i: mul(g, mul(a, 2.0)))


def l2norm(a, axis=None) -> Tensor:
    """Euclidean norm over ``axis`` (all axes when None).

    At an exactly-zero vector the norm is non-differentiable; the
    backward pass returns the zero subgradient there so a penalty that
    reaches its optimum keeps training defined.
    """
    a = _lift(a)
    axes = _norm_axes(axis, a.ndim)
    keep = _keep_shape(a.shape, axes)

    def vjp(g, i):
        live = _mask(g, out, np.not_equal)
        y_safe = _register((out,), lambda y: np.where(y != 0.0, y, 1.0), lambda gy, j: gy)
        return mul(div(reshape(live, keep), reshape(y_safe, keep)), a)

    out = _register((a,), lambda v: np.sqrt(_reduce(np.add, np.square(v), axes)), vjp)
    return out


# ---------------------------------------------------------------------------
# indexed ops

def gather(a, onehot) -> Tensor:
    """Pick one entry per row: out[i] = a[i, j] where onehot[i, j] is 1. The
    one-hot rows are an input the VJP does not differentiate (as in ``_mask``),
    so a recorded gather replays on new labels."""
    a, onehot = _lift(a), _lift(onehot)
    if a.ndim != 2 or onehot.shape != a.shape:
        raise ShapeError(f"gather: expected a 2-d input and one-hot rows of its shape, "
                         f"got {a.shape} and {onehot.shape}")
    n = a.shape[0]

    def vjp(g, i):
        if i == 1:
            return None
        if g.node is None:
            # a constant: spread it over the rows now, so that the recorded
            # product is elementwise, not broadcast
            return mul(np.broadcast_to(g.value.reshape(n, 1), a.shape).copy(), onehot)
        return mul(reshape(g, (n, 1)), onehot)

    return _register((a, onehot), lambda v, oh: v[np.arange(len(v)), oh.argmax(axis=1)], vjp)


# ---------------------------------------------------------------------------
# convolution: three recorded numpy kernels whose VJPs are written in the same
# three kernels, so conv is differentiable to any order

# Images are unfolded one block at a time, so the GEMMs read them back from
# cache; a whole-batch unfold is bound by memory bandwidth.
_BLOCK_BYTES = 1 << 20


def _tap_blocks(x: np.ndarray, k: int, pad: int):
    """The k horizontal taps of ``x`` padded by ``pad`` on each side, as
    (images, taps) pairs over consecutive blocks of images. taps is block x
    (C*k) x (Hp*Wp): row (c, dj) is padded channel c, flattened and shifted
    left by dj, so kernel row di of every output reads the column window
    [di*Wp, (di+Ho)*Wp), whose Wp - Wo last columns of each output row wrap
    around. A block is at most _BLOCK_BYTES unless one image alone is larger.
    Both buffers are reused, so the next block overwrites these taps."""
    n, c, h, w = x.shape
    hp, wp = h + 2 * pad, w + 2 * pad
    step = min(n, max(1, _BLOCK_BYTES // (c * k * hp * wp * 8)))
    padded = np.zeros((step, c, hp + 1, wp))    # a zero row past the end for the shifts
    flat = padded.reshape(step, c, -1)
    taps = np.empty((step, c, k, hp * wp))
    for start in range(0, n, step):
        images = slice(start, min(start + step, n))
        b = images.stop - start
        padded[:b, :, pad:pad + h, pad:pad + w] = x[images]
        for dj in range(k):
            taps[:b, :, dj] = flat[:b, :, dj:dj + hp * wp]
        yield images, taps[:b].reshape(b, c * k, hp * wp)


def _corr(x: np.ndarray, w: np.ndarray, pad: int) -> np.ndarray:
    """Forward correlation: x N x C x H x W, w F x C x k x k with k = 2*pad + 1,
    out N x F x H x W; one GEMM per kernel row, on a column window of the taps."""
    f, c, k, _ = w.shape
    n, _, h, wo = x.shape
    wp = wo + 2 * pad
    out = np.empty((n, f, h, wo))
    w_rows = w.transpose(2, 0, 1, 3).reshape(k, f, c * k)
    for images, taps in _tap_blocks(x, k, pad):
        acc = np.matmul(w_rows[0], taps[:, :, :h * wp])
        for di in range(1, k):
            acc += np.matmul(w_rows[di], taps[:, :, di * wp:(di + h) * wp])
        out[images] = acc.reshape(-1, f, h, wp)[..., :wo]
    return out


def _corr_input_grad(g: np.ndarray, w: np.ndarray, pad: int) -> np.ndarray:
    """Adjoint of ``_corr`` in x: the correlation of g with the flipped,
    channel-swapped kernel, at the same pad (k - 1 - pad is pad for k = 2*pad + 1)."""
    return _corr(g, w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3), pad)


def _corr_weight_grad(x: np.ndarray, g: np.ndarray, pad: int) -> np.ndarray:
    """Adjoint of ``_corr`` in w: the taps' column windows against the output
    gradient g, laid out at the padded width with zeros in its wrap columns."""
    n, f, ho, wo = g.shape
    c, k = x.shape[1], 2 * pad + 1
    wp = wo + 2 * pad
    per_image, g_wide = np.empty((n, k, f, c * k)), None
    for images, taps in _tap_blocks(x, k, pad):
        b = len(taps)
        if g_wide is None:          # the first block is the largest; wrap columns stay 0
            g_wide = np.zeros((b, f, ho, wp))
        g_wide[:b, ..., :wo] = g[images]
        g_rows = g_wide[:b].reshape(b, f, ho * wp)
        for di in range(k):
            np.matmul(g_rows, taps[:, :, di * wp:(di + ho) * wp].transpose(0, 2, 1),
                      out=per_image[images, di])
    return per_image.sum(axis=0).reshape(k, f, c, k).transpose(1, 2, 0, 3).copy()


def _conv_op(kernel: Callable, a: Tensor, b: Tensor, pad: int,
             bias: Optional[Tensor] = None) -> Tensor:
    """Record ``kernel(a, b, pad)``, plus a per-channel ``bias`` added in
    place. Each kernel is bilinear, and its VJP in either argument is
    another of the three kernels."""
    def vjp(g, i):
        if i == 2:
            return sum_(g, axis=(0, 2, 3))
        if kernel is _corr:                 # a = x, b = w
            return (_conv_op(_corr_input_grad, g, b, pad) if i == 0
                    else _conv_op(_corr_weight_grad, a, g, pad))
        if kernel is _corr_input_grad:      # a = output grad, b = w
            return (_conv_op(_corr, g, b, pad) if i == 0
                    else _conv_op(_corr_weight_grad, g, a, pad))
        # a = x, b = output grad
        return (_conv_op(_corr_input_grad, b, g, pad) if i == 0
                else _conv_op(_corr, a, g, pad))

    def fn(av, bv, *bias_value):
        out = kernel(av, bv, pad)
        if bias_value:
            out += bias_value[0].reshape(-1, 1, 1)
        return out

    return _register((a, b) if bias is None else (a, b, bias), fn, vjp)


def conv2d(x, w, b=None) -> Tensor:
    """2-d same-size convolution, stride 1, zero-padded by k // 2, as one node.
    x: B x C x H x W, w: F x C x k x k with k odd, b: F; out: B x F x H x W."""
    x, w = _lift(x), _lift(w)
    if (x.ndim != 4 or w.ndim != 4 or x.shape[1] != w.shape[1] or w.shape[2] != w.shape[3]
            or w.shape[2] % 2 == 0):
        raise ShapeError(f"conv2d: incompatible shapes {x.shape} and {w.shape} "
                         f"(the kernel must be square and odd)")
    if b is not None:
        b = _lift(b)
        if b.shape != w.shape[:1]:
            raise ShapeError(f"conv2d: bias of shape {b.shape} for {w.shape[0]} filters")
    return _conv_op(_corr, x, w, w.shape[2] // 2, b)


# ---------------------------------------------------------------------------
# backward

def backward(tape: Tape, output: Tensor, wrt: Iterable[Tensor],
             create_graph: bool = False) -> dict:
    """Gradients of a scalar ``output`` with respect to leaf tensors, keyed
    by those tensors; a leaf the output never reached gets an explicit
    zero gradient.

    Only nodes that depend on a ``wrt`` leaf get a gradient: a VJP runs
    only for those of its node's inputs. A node's gradient is dropped as
    soon as its VJPs have run, and only leaf gradients are kept, so
    without ``create_graph`` the pass holds just the gradients it has yet
    to propagate. With ``create_graph=True`` every backward computation
    is recorded on the tape, so the returned gradients are differentiable
    nodes (and the tape keeps them).
    """
    if output.node is None or output.tape is not tape:
        raise ValueError("backward: output is not recorded on this tape")
    if output.size != 1:
        raise ShapeError(f"backward: output of shape {output.shape} is not a scalar")
    wrt = list(wrt)
    for leaf in wrt:
        if leaf.node is None or leaf.tape is not tape:
            raise ValueError("backward: wrt tensor is not on this tape")
        if tape.nodes[leaf.node].vjp is not None:
            raise ValueError(f"backward: node {leaf.node} is not a leaf")

    need = {leaf.node for leaf in wrt}
    first = min(need, default=output.node)
    for nid in range(first + 1, output.node + 1):
        if not need.isdisjoint(tape.nodes[nid].parents):
            need.add(nid)

    grads: dict[int, Tensor] = {}
    if output.node in need:
        grads[output.node] = Tensor(np.ones(output.shape))
    previous = tape._recording
    tape._recording = bool(create_graph)
    try:
        for nid in range(output.node, first, -1):
            node = tape.nodes[nid]
            if node.vjp is None:            # a leaf keeps its gradient
                continue
            g = grads.pop(nid, None)        # its VJPs are its last use
            if g is None:
                continue
            for i, pid in enumerate(node.parents):
                if pid in need:
                    pg = node.vjp(g, i)
                    if pg is None:          # an input the op does not differentiate
                        continue
                    held = grads.get(pid)
                    grads[pid] = pg if held is None else add(held, pg)
    finally:
        tape._recording = previous

    out: dict[Tensor, Tensor] = {}
    for leaf in wrt:
        g = grads.get(leaf.node)
        out[leaf] = g if g is not None else Tensor(np.zeros(leaf.shape))
    return out


# ---------------------------------------------------------------------------
# replay

# compiling costs more than recording: chains that record on every call share code
_compile = functools.lru_cache(maxsize=64)(compile)


class Program:
    """The numpy calls ``outputs`` need from ``leaves`` on ``tape``, rerun in order
    on new leaf values of the recorded shapes, bit-identical as every op is pure:
    ``replay`` is one generated straight-line function, a line ``vN = fK(vA, vB)``
    per call, that deletes each value after its last reader. It takes a value for
    every leaf the outputs read, as C-contiguous float64 arrays, and returns the
    outputs' values, in order. Inputs off the tape are held by value."""

    def __init__(self, tape: Tape, leaves: Sequence[Tensor], outputs: Sequence[Tensor]):
        names = {leaf.node: f"v{leaf.node}" for leaf in leaves}    # node id -> its variable
        lines = [f"def replay({', '.join(names.values())}):"]
        space: dict = {}        # the function's globals: each step's function, every constant

        def held(prefix: str, value) -> str:
            name = f"{prefix}{len(space)}"
            space[name] = value
            return name

        need = {t.node for t in outputs} - {None}
        for nid in range(max(need, default=-1), -1, -1):
            if nid in need and nid not in names:
                need.update(p for p in tape.nodes[nid].parents if p is not None)
        steps = []
        for nid in sorted(need - set(names)):
            node = tape.nodes[nid]
            args = [held("c", c) if p is None else names[p]
                    for p, c in zip(node.parents, node.consts or node.parents)]
            names[nid] = f"v{nid}"
            steps.append((names[nid], held("f", node.fn), args))
        results = [held("c", t.value) if t.node is None else names[t.node] for t in outputs]
        last = {arg: k for k, (_, _, args) in enumerate(steps) for arg in args}
        for k, (out, fn, args) in enumerate(steps):
            lines.append(f"    {out} = {fn}({', '.join(args)})")
            dead = sorted({a for a in args if a[0] == "v" and last[a] == k} - set(results))
            if dead:
                lines.append(f"    del {', '.join(dead)}")
        lines.append(f"    return [{', '.join(results)}]")
        exec(_compile("\n".join(lines), "<program>", "exec"), space)
        self.replay = space.pop("replay")       # else space and function form a cycle


def record(loss: Callable[..., Tensor | tuple], values: Sequence, n_wrt: int,
           programs: dict) -> list:
    """``loss`` called on leaves holding ``values`` returns a scalar Tensor, or a
    tuple of Tensors whose first is the scalar. The result is, as arrays, the
    tuple's entries (none for a lone scalar), then the scalar's gradient in each
    of the first ``n_wrt`` leaves. The first call for each tuple of value shapes
    records these outputs as a ``Program`` in ``programs``; later calls replay it
    on the new values."""
    values = [np.asarray(v, dtype=np.float64, order="C") for v in values]
    key = tuple([v.shape for v in values])
    program = programs.get(key)
    if program is not None:
        return program.replay(*values)
    tape = Tape()
    leaves = [tape.leaf(v) for v in values]
    out = loss(*leaves)
    outputs = list(out) if isinstance(out, tuple) else []
    tape._replay_only = True
    outputs += backward(tape, outputs[0] if outputs else out, leaves[:n_wrt],
                        create_graph=True).values()
    programs[key] = Program(tape, leaves, outputs)
    return [t.value for t in outputs]
