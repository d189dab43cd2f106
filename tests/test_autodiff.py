import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from ebmkit import autodiff as ad
from ebmkit import energy, losses, nn
from oracles import (bound_loss_graph, central_diff, close_rel, eager_record, energy_grads,
                     naive_conv2d, naive_matmul, traced_peak_bytes, whole_batch_corr,
                     whole_batch_corr_input_grad, whole_batch_corr_weight_grad)


def scalar_loss(op, x_val, extra=None, rng=None):
    """Build sum(op(x) * R) on a fresh tape; returns (tape, leaf, loss)."""
    tape = ad.Tape()
    x = tape.leaf(x_val)
    y = op(x) if extra is None else op(x, extra)
    proj = rng.normal(size=y.shape) if rng is not None else np.ones(y.shape)
    loss = ad.sum_(ad.mul(y, proj))
    return tape, x, loss, proj


class TestForward:
    def test_logsumexp_uniform(self):
        out = ad.logsumexp(ad.Tensor([0.0, 0.0]))
        assert float(out.value) == math.log(2.0)

    def test_relu(self):
        out = ad.relu(ad.Tensor([-1.0, 2.0]))
        assert np.array_equal(out.value, [0.0, 2.0])

    def test_matmul_against_triple_loop(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(2, 3))
        b = rng.normal(size=(3, 1))
        out = ad.matmul(ad.Tensor(a), ad.Tensor(b))
        assert out.shape == (2, 1)
        assert np.allclose(out.value, naive_matmul(a, b), atol=1e-12)

    def test_matmul_shape_error_names_op(self):
        with pytest.raises(ad.ShapeError, match="matmul"):
            ad.matmul(ad.Tensor(np.ones((2, 3))), ad.Tensor(np.ones((2, 3))))

    def test_add_shape_error(self):
        with pytest.raises(ad.ShapeError, match="add"):
            ad.add(ad.Tensor(np.ones((2, 3))), ad.Tensor(np.ones((4,))))

    def test_linear_matches_matmul_then_add(self):
        rng = np.random.default_rng(4)
        x, w, b = rng.normal(size=(5, 3)), rng.normal(size=(3, 4)), rng.normal(size=(4,))
        fused = ad.linear(ad.Tensor(x), ad.Tensor(w), ad.Tensor(b))
        assert np.array_equal(fused.value, ad.add(ad.matmul(x, w), b).value)

    @pytest.mark.parametrize("shapes", [((3,), (3, 4), (4,)), ((2, 3), (2, 4), (4,)),
                                        ((2, 3), (3, 4), (3,)), ((2, 3), (3, 4), (1, 4))])
    def test_linear_shape_error(self, shapes):
        with pytest.raises(ad.ShapeError, match="linear"):
            ad.linear(*(ad.Tensor(np.ones(shape)) for shape in shapes))

    @pytest.mark.parametrize("reduce, ref", [
        (ad.sum_, lambda v: np.sum(v, axis=())),
        (ad.l2norm, np.abs), (ad.logsumexp, lambda v: v)])
    def test_empty_axis_reduces_nothing(self, reduce, ref):
        # as in numpy, axis=() reduces no axis while axis=None reduces all
        rng = np.random.default_rng(8)
        x_val = rng.uniform(0.5, 2.0, size=(2, 3)) * rng.choice([-1.0, 1.0], size=(2, 3))
        proj = rng.normal(size=(2, 3))
        tape = ad.Tape()
        x = tape.leaf(x_val)
        y = reduce(x, axis=())
        assert y.shape == (2, 3)
        assert np.allclose(y.value, ref(x_val), rtol=1e-15, atol=0)
        g = ad.backward(tape, ad.sum_(ad.mul(y, proj)), [x])[x].value
        slope = np.sign(x_val) if reduce is ad.l2norm else np.ones_like(x_val)
        assert np.allclose(g, proj * slope, rtol=1e-15, atol=0)

    def test_logsumexp_overflow_safe(self):
        out = ad.logsumexp(ad.Tensor([1000.0, 1000.0]))
        assert np.isfinite(float(out.value))
        assert float(out.value) == pytest.approx(1000.0 + math.log(2.0), abs=1e-12)


def _special_values(rng, shape):
    """Normal draws over many magnitudes, with NaN, +-inf, 0.0 and -0.0
    entries, and in 2-d and up a first row of -0.0 alone."""
    x = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 9, size=shape)
    x = np.where(rng.random(shape) < 0.3, rng.choice([np.nan, np.inf, -np.inf, 0.0, -0.0],
                                                      size=shape), x)
    if x.ndim > 1:
        x[(0,) * (x.ndim - 1)] = -0.0
    return x


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


class TestReduce:
    """``ad._reduce`` folds short last axes over their columns; every result
    equals numpy's reduce bit for bit, NaN, infinities and the sign of zero
    included."""

    @pytest.mark.parametrize("keepdims", [False, True])
    @pytest.mark.parametrize("shape", [(k,) for k in range(1, 10)]
                             + [(5, k) for k in range(1, 10)]
                             + [(3, 4, k) for k in range(1, 10)])
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")   # inf - inf
    def test_equals_numpy_bit_for_bit(self, shape, keepdims):
        rng = np.random.default_rng(sum(shape))
        for _ in range(20):
            x = _special_values(rng, shape)
            axis_sets = {(x.ndim - 1,), tuple(range(x.ndim)), (0,)}
            for axes in axis_sets:
                for ufunc in (np.add, np.maximum):
                    assert _same_bits(ad._reduce(ufunc, x, axes, keepdims),
                                      ufunc.reduce(x, axis=axes, keepdims=keepdims)), \
                        (ufunc, axes, x)
            last = (x.ndim - 1,)
            assert _same_bits(np.sqrt(ad._reduce(np.add, x * x, last, keepdims)),
                              np.linalg.norm(x, axis=-1, keepdims=keepdims)), x
            if x.ndim > 1:
                rows = x.reshape(len(x), -1)
                assert _same_bits(energy._row_norms(x, keepdims),
                                  np.linalg.norm(rows, axis=1, keepdims=keepdims)), x

    @pytest.mark.parametrize("op", [ad.sum_, ad.logsumexp, ad.l2norm])
    def test_reductions_over_a_short_last_axis_keep_their_values(self, op):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(64, 3))
        want = {ad.sum_: np.add.reduce(x, axis=1),
                ad.l2norm: np.linalg.norm(x, axis=1),
                ad.logsumexp: np.log(np.add.reduce(np.exp(x - x.max(axis=1, keepdims=True)),
                                                   axis=1)) + x.max(axis=1)}[op]
        assert _same_bits(op(ad.Tensor(x), axis=1).value, want)


class TestBackward:
    def test_square_derivative(self):
        tape = ad.Tape()
        x = tape.leaf(3.0)
        y = ad.square(x)
        g = ad.backward(tape, y, [x])[x]
        assert float(g.value) == 6.0

    def test_second_derivative_cube(self):
        tape = ad.Tape()
        x = tape.leaf(2.0)
        y = ad.mul(ad.square(x), x)
        g = ad.backward(tape, y, [x], create_graph=True)[x]
        g2 = ad.backward(tape, g, [x])[x]
        assert float(g2.value) == pytest.approx(12.0, abs=1e-12)

    def test_non_scalar_output_rejected(self):
        tape = ad.Tape()
        x = tape.leaf([1.0, 2.0])
        y = ad.square(x)
        with pytest.raises(ad.ShapeError, match="scalar"):
            ad.backward(tape, y, [x])

    def test_wrt_off_tape_rejected(self):
        tape = ad.Tape()
        other = ad.Tape()
        x = tape.leaf([1.0])
        z = other.leaf([1.0])
        y = ad.sum_(ad.square(x))
        with pytest.raises(ValueError, match="not on this tape"):
            ad.backward(tape, y, [z])

    def test_wrt_non_leaf_rejected(self):
        tape = ad.Tape()
        x = tape.leaf([1.0, 2.0])
        y = ad.square(x)
        loss = ad.sum_(y)
        with pytest.raises(ValueError, match="leaf"):
            ad.backward(tape, loss, [y])

    def test_constant_gradient_is_exactly_zero(self):
        tape = ad.Tape()
        x = tape.leaf([1.0, 2.0])
        unused = tape.leaf([5.0])
        loss = ad.sum_(ad.square(x))
        g = ad.backward(tape, loss, [unused])[unused]
        assert np.array_equal(g.value, [0.0])

    def test_two_backward_passes_identical(self):
        rng = np.random.default_rng(3)
        tape = ad.Tape()
        x = tape.leaf(rng.normal(size=(4, 3)))
        loss = ad.sum_(ad.exp(ad.mul(x, 0.3)))
        g1 = ad.backward(tape, loss, [x])[x]
        g2 = ad.backward(tape, loss, [x])[x]
        assert np.array_equal(g1.value, g2.value)

    def test_shared_node_accumulation(self):
        tape = ad.Tape()
        x = tape.leaf(3.0)
        y = ad.mul(x, x)  # x used twice
        g = ad.backward(tape, y, [x])[x]
        assert float(g.value) == 6.0


class TestPruning:
    """backward runs a VJP only for the inputs that lead to a wrt leaf."""

    @staticmethod
    def mlp_tape(bind):
        spec = nn.ModelSpec.mlp(3, [5], 2)
        params = nn.init(spec, seed=2)
        tape = ad.Tape()
        weights = {name: tape.leaf(v) for name, v in params.items()} if bind else params
        x = tape.leaf(np.random.default_rng(1).normal(size=(4, 3)))
        logits = nn.forward(spec, weights, x)
        return tape, x, weights, logits

    @staticmethod
    def record_matmuls(monkeypatch):
        shapes = []
        matmul = ad.matmul

        def recorded(a, b):
            out = matmul(a, b)
            shapes.append(out.shape)
            return out

        monkeypatch.setattr(ad, "matmul", recorded)
        return shapes

    @pytest.mark.parametrize("bind", [False, True], ids=["constant_weights", "leaf_weights"])
    def test_input_gradient_computes_no_weight_gradient(self, monkeypatch, bind):
        tape, x, _, logits = self.mlp_tape(bind)
        total = ad.sum_(energy.energy(logits))
        shapes = self.record_matmuls(monkeypatch)
        ad.backward(tape, total, [x], create_graph=bind)
        assert shapes == [(4, 5), (4, 3)]      # dE/dh, then dE/dx; no (3, 5) or (5, 2)

    @pytest.mark.parametrize("create_graph", [False, True])
    def test_subset_gradients_match_the_full_set_bit_for_bit(self, monkeypatch, create_graph):
        tape, x, bound, logits = self.mlp_tape(bind=True)
        total = ad.add(losses.cross_entropy(logits, losses._one_hot([0, 1, 1, 0], 2)),
                       ad.sum_(energy.energy(logits)))
        shapes = self.record_matmuls(monkeypatch)
        full = ad.backward(tape, total, [x, *bound.values()], create_graph=create_graph)
        full_products = len(shapes)
        for subset in ([x], [bound["layer0.w"]], [bound["layer2.b"], x]):
            shapes.clear()
            part = ad.backward(tape, total, subset, create_graph=create_graph)
            for leaf in subset:
                assert np.array_equal(part[leaf].value, full[leaf].value)
            assert len(shapes) < full_products

    def test_ngebm_step_runs_only_the_needed_conv_kernels(self, monkeypatch):
        spec = nn.ModelSpec.small_conv((2, 6, 6), [3, 3], 3)
        params = nn.init(spec, seed=0)
        x = np.random.default_rng(0).normal(size=(4, 2, 6, 6))
        entries, depth = [], [0]
        for name in ("_corr", "_corr_input_grad", "_corr_weight_grad"):
            def counted(*args, kernel=getattr(ad, name), name=name):
                if depth[0] == 0:           # _corr_input_grad runs _corr inside
                    entries.append(name)
                depth[0] += 1
                try:
                    return kernel(*args)
                finally:
                    depth[0] -= 1
            monkeypatch.setattr(ad, name, counted)

        graph, bound = bound_loss_graph(losses.LossConfig(mode=losses.Mode.NGEBM), spec, params,
                                        x, np.array([0, 1, 2, 0]))
        ad.backward(graph.tape, graph.total, list(bound.values()))
        # forward 2; dE/dx pass 2 (no weight gradients); parameter pass 7 (no
        # input gradient for the data batch)
        assert len(entries) == 11, entries
        entries.clear()
        energy_grads(spec, params, x)
        assert entries.count("_corr_weight_grad") == 0 and len(entries) == 4


# regions keep finite differences away from non-smooth points
_FD_CASES = {
    "add": dict(op=lambda x: ad.add(x, 0.7), shape=(3, 4)),
    "sub": dict(op=lambda x: ad.sub(1.3, x), shape=(3, 4)),
    "mul": dict(op=lambda x: ad.mul(x, x), shape=(3, 4)),
    "div": dict(op=lambda x: ad.div(1.0, x), shape=(3, 4), lo=0.5, hi=2.0),
    "neg": dict(op=ad.neg, shape=(5,)),
    "matmul": dict(op=None, shape=(3, 4)),  # special-cased below
    # x feeds all three inputs, so every branch of the VJP is checked
    "linear": dict(op=lambda x: ad.linear(x, ad.transpose(x), ad.sum_(x, axis=0)), shape=(3, 3)),
    "transpose": dict(op=lambda x: ad.transpose(x), shape=(3, 4)),
    "reshape": dict(op=lambda x: ad.reshape(x, (4, 3)), shape=(3, 4)),
    "broadcast": dict(op=lambda x: ad.broadcast(x, (5, 3, 4)), shape=(3, 4)),
    "sum": dict(op=lambda x: ad.sum_(x, axis=1), shape=(3, 4)),
    "mean": dict(op=ad.mean, shape=(3, 4)),
    "relu": dict(op=ad.relu, shape=(3, 4), avoid_zero=0.05),
    "exp": dict(op=ad.exp, shape=(3, 4), lo=-1.0, hi=1.0),
    "logsumexp": dict(op=lambda x: ad.logsumexp(x, axis=1), shape=(3, 4)),
    "square": dict(op=ad.square, shape=(3, 4)),
    "l2norm": dict(op=lambda x: ad.l2norm(x, axis=1), shape=(3, 4), lo=0.5, hi=2.0),
    "gather": dict(op=None, shape=(4, 5)),  # special-cased below
}


def _fd_input(rng, case):
    lo = case.get("lo", -2.0)
    hi = case.get("hi", 2.0)
    x = rng.uniform(lo, hi, size=case["shape"])
    guard = case.get("avoid_zero")
    if guard:
        x = np.where(np.abs(x) < guard, guard, x)
    return x


@pytest.mark.parametrize("kind", sorted(_FD_CASES))
def test_primitive_gradient_matches_finite_differences(kind):
    case = _FD_CASES[kind]
    rng = np.random.default_rng(hash(kind) % (2**32))
    for _ in range(50):
        if kind == "matmul":
            x_val = _fd_input(rng, case)
            other = rng.normal(size=(4, 2))
            op = lambda x: ad.matmul(x, other)
        elif kind == "gather":
            x_val = _fd_input(rng, case)
            idx = rng.integers(0, 5, size=4)
            op = lambda x: ad.gather(x, np.eye(5)[idx])
        else:
            x_val = _fd_input(rng, case)
            op = case["op"]
        tape, x, loss, proj = scalar_loss(op, x_val, rng=rng)
        g = ad.backward(tape, loss, [x])[x].value

        def f(v, op=op, proj=proj):
            return float(np.sum(op(ad.Tensor(v)).value * proj))

        fd = central_diff(f, x_val, h=1e-5)
        assert close_rel(g, fd, 1e-5), f"{kind}: autodiff vs finite differences"


# the image for each odd kernel k: k = 7 is larger than its 6 x 5 image, and
# H != W exercises the window arithmetic
_CONV_IMAGES = {1: (2, 3, 4, 4), 3: (2, 2, 5, 3), 5: (2, 2, 4, 5), 7: (2, 2, 6, 5)}


@pytest.mark.parametrize("k", sorted(_CONV_IMAGES))
def test_conv2d_gradient_matches_finite_differences(k):
    rng = np.random.default_rng(99 + k)
    x_shape = _CONV_IMAGES[k]
    w_shape = (3, x_shape[1], k, k)
    for _ in range(10):
        x_val = rng.normal(size=x_shape)
        w_val = rng.normal(size=w_shape)
        b_val = rng.normal(size=w_shape[:1])

        tape = ad.Tape()
        x = tape.leaf(x_val)
        w = tape.leaf(w_val)
        b = tape.leaf(b_val)
        out = ad.conv2d(x, w, b)
        assert out.shape == (x_shape[0], 3) + x_shape[2:]
        proj = rng.normal(size=out.shape)
        loss = ad.sum_(ad.mul(out, proj))
        gm = ad.backward(tape, loss, [x, w, b])

        def value(xv, wv, bv):
            return float(np.sum(ad.conv2d(ad.Tensor(xv), ad.Tensor(wv), ad.Tensor(bv)).value
                                * proj))

        assert close_rel(gm[x].value, central_diff(lambda v: value(v, w_val, b_val), x_val), 1e-5)
        assert close_rel(gm[w].value, central_diff(lambda v: value(x_val, v, b_val), w_val), 1e-5)
        assert close_rel(gm[b].value, central_diff(lambda v: value(x_val, w_val, v), b_val), 1e-5)


@pytest.mark.parametrize("k", sorted(_CONV_IMAGES))
def test_conv2d_double_backward_matches_finite_differences(k):
    # d/d(w, b) of mean_i ||dE_i/dx_i|| through one conv, E_i = -logsumexp(conv(x_i))
    rng = np.random.default_rng(7 + k)
    x_val = rng.normal(size=_CONV_IMAGES[k])
    w_val = rng.normal(size=(2, x_val.shape[1], k, k)) * 0.5
    b_val = rng.normal(size=(2,)) * 0.1

    def graph(wv, bv, create_graph):
        tape = ad.Tape()
        x, w, b = tape.leaf(x_val), tape.leaf(wv), tape.leaf(bv)
        out = ad.conv2d(x, w, b)
        energy = ad.neg(ad.logsumexp(ad.reshape(out, (2, -1)), axis=1))
        gx = ad.backward(tape, ad.sum_(energy), [x], create_graph=create_graph)[x]
        return tape, ad.mean(ad.l2norm(ad.reshape(gx, (2, -1)), axis=1)), (w, b)

    tape, penalty, (w, b) = graph(w_val, b_val, create_graph=True)
    gm = ad.backward(tape, penalty, [w, b])

    def value(wv, bv):
        return float(graph(wv, bv, create_graph=False)[1].value)

    assert close_rel(gm[w].value, central_diff(lambda v: value(v, b_val), w_val, h=1e-5), 1e-5)
    assert close_rel(gm[b].value, central_diff(lambda v: value(w_val, v), b_val, h=1e-5), 1e-5)


def test_conv2d_records_one_node():
    tape = ad.Tape()
    x = tape.leaf(np.ones((1, 2, 4, 4)))
    w = tape.leaf(np.ones((3, 2, 3, 3)))
    ad.conv2d(x, w)
    assert len(tape.nodes) == 3


@pytest.mark.parametrize("w_shape", [(3, 2, 2, 2), (3, 2, 3, 2), (3, 3, 3, 3)],
                         ids=["even", "not_square", "channels"])
def test_conv2d_refuses_a_kernel_that_is_even_not_square_or_of_other_channels(w_shape):
    with pytest.raises(ad.ShapeError, match="conv2d"):
        ad.conv2d(np.ones((1, 2, 4, 4)), np.ones(w_shape))


@pytest.mark.parametrize("n", [1, 3])
def test_conv2d_with_bias_is_one_node_equal_to_conv_plus_bias(n):
    # the one-node bias against add(conv, reshape(b)), bit for bit:
    # output, first-order gradients and an input-gradient penalty's gradients
    rng = np.random.default_rng(n)
    x_val, w_val, b_val = (rng.normal(size=(n, 2, 5, 4)), rng.normal(size=(3, 2, 3, 3)),
                           rng.normal(size=(3,)))

    def fused(x, w, b):
        return ad.conv2d(x, w, b)

    def composed(x, w, b):
        return ad.add(ad.conv2d(x, w), ad.reshape(b, (1, 3, 1, 1)))

    results = []
    for conv in (fused, composed):
        tape = ad.Tape()
        x, w, b = tape.leaf(x_val), tape.leaf(w_val), tape.leaf(b_val)
        out = conv(x, w, b)
        if conv is fused:
            assert len(tape.nodes) == 4
        e = ad.sum_(energy.energy(ad.reshape(ad.relu(out), (n, -1))))
        first = ad.backward(tape, e, [x, w, b], create_graph=True)
        penalty = ad.sum_(ad.square(first[x]))
        second = ad.backward(tape, penalty, [w, b])
        results.append([out.value] + [first[t].value for t in (x, w, b)]
                       + [second[t].value for t in (w, b)])
    for got, want in zip(*results):
        assert np.array_equal(got, want)
    assert close_rel(results[0][0], naive_conv2d(x_val, w_val, b_val, 1), 1e-12)


@pytest.mark.parametrize("k", sorted(_CONV_IMAGES))
def test_conv2d_matches_loop_oracle(k):
    rng = np.random.default_rng(5 + k)
    # the image of _CONV_IMAGES, then random ones both smaller and larger than k
    shapes = [_CONV_IMAGES[k]] + [(*rng.integers(1, 4, size=2), *rng.integers(1, k + 4, size=2))
                                  for _ in range(4)]
    for shape in shapes:
        f = int(rng.integers(1, 4))
        x = rng.normal(size=shape)
        w = rng.normal(size=(f, shape[1], k, k))
        b = rng.normal(size=(f,))
        out = ad.conv2d(ad.Tensor(x), ad.Tensor(w), ad.Tensor(b)).value
        assert close_rel(out, naive_conv2d(x, w, b, k // 2), 1e-12), (x.shape, w.shape)


# (x shape, w shape) for k = 1, 3, 5 and 7, the last larger than its 6 x 5 image
_BLOCK_CASES = [((7, 3, 5, 5), (2, 3, 1, 1)), ((7, 2, 6, 5), (3, 2, 3, 3)),
                ((7, 2, 5, 6), (2, 2, 5, 5)), ((7, 2, 6, 5), (3, 2, 7, 7))]


# a budget under one image's taps gives each image a block of its own
@pytest.mark.parametrize("per_block", [0.5, 1, 3, 7])
@pytest.mark.parametrize("x_shape,w_shape", _BLOCK_CASES)
def test_blocked_conv_kernels_match_whole_batch_bit_for_bit(monkeypatch, per_block,
                                                            x_shape, w_shape):
    # 7 images in blocks of one, of 3 (the last one ragged) and all in one
    n, c, h, width = x_shape
    f, _, k, _ = w_shape
    pad = k // 2
    hp, wp = h + 2 * pad, width + 2 * pad
    monkeypatch.setattr(ad, "_BLOCK_BYTES", int(per_block * c * k * hp * wp * 8))
    rng = np.random.default_rng(int(10 * per_block) + pad + 1)
    x, w, g = rng.normal(size=x_shape), rng.normal(size=w_shape), rng.normal(size=(n, f, h, width))
    step = max(1, per_block)
    # each image holds C*k rows of its padded image, not C*k*k
    assert [taps.shape for _, taps in ad._tap_blocks(x, k, pad)] == [
        (min(step, n - start), c * k, hp * wp) for start in range(0, n, step)]
    assert np.array_equal(ad._corr(x, w, pad), whole_batch_corr(x, w, pad))
    assert np.array_equal(ad._corr_input_grad(g, w, pad), whole_batch_corr_input_grad(g, w, pad))
    assert np.array_equal(ad._corr_weight_grad(x, g, pad),
                          whole_batch_corr_weight_grad(x, g, pad))


def test_corr_peaks_below_half_the_whole_batch_column_buffer():
    rng = np.random.default_rng(0)
    x, w = rng.normal(size=(64, 8, 32, 32)), rng.normal(size=(8, 8, 3, 3))
    columns = x.size * 3 * 3 * 8            # 64 x 72 x 1024 float64: 37.7 MB
    tracemalloc.start()
    try:
        ad._corr(x, w, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the 4.2 MB output, a block's taps (at most the budget) and its padded
    # images and output rows (less again): under a sixth of the columns
    assert peak < x.nbytes + 2 * ad._BLOCK_BYTES < columns / 2, peak


def test_a_conv_ngebm_step_neither_pads_nor_views_windows(monkeypatch):
    spec = nn.ModelSpec.small_conv((2, 6, 6), [3, 3], 3)
    params = nn.init(spec, seed=0)
    onehot = losses._one_hot(np.array([0, 1, 2, 0]), 3)
    xs = np.random.default_rng(0).normal(size=(2, 4, 2, 6, 6))

    def loss(*leaves):
        graph = losses.loss_graph(losses.LossConfig(mode=losses.Mode.NGEBM), spec,
                                  dict(zip(params, leaves)), *leaves[len(params):])
        return graph.total, graph.aux

    def refuse(*args, **kwargs):
        raise AssertionError("a conv kernel padded the whole batch or viewed its windows")
    monkeypatch.setattr(np, "pad", refuse)
    monkeypatch.setattr(np.lib.stride_tricks, "sliding_window_view", refuse)
    programs: dict = {}
    ad.record(loss, [*params.values(), xs[0], onehot], len(params), programs)    # records
    replayed = ad.record(loss, [*params.values(), xs[1], onehot], len(params), programs)
    recorded = ad.record(loss, [*params.values(), xs[1], onehot], len(params), {})
    assert len(programs) == 1 and len(replayed) == 2 + len(params)
    for got, want in zip(replayed, recorded):
        assert np.array_equal(got, want)


def grad_l2norm_of_grad(tape, energy, x):
    """Differentiable ||d(energy)/dx||_2, by double backprop."""
    return ad.l2norm(ad.backward(tape, energy, [x], create_graph=True)[x])


def test_backward_without_graph_holds_no_gradient_per_layer():
    # each node's gradient is dropped once its VJPs have run, so a plain
    # backward's peak does not grow with depth
    rng = np.random.default_rng(0)

    def peak(depth):
        tape = ad.Tape()
        x = tape.leaf(rng.normal(size=(256, 64)))
        h = x
        for _ in range(depth):
            h = ad.relu(ad.linear(h, rng.normal(size=(64, 64)) * 0.1, np.zeros(64)))
        return traced_peak_bytes(ad.backward, tape, ad.sum_(h), [x])

    assert peak(16) < 1.5 * peak(2)


def test_relu_double_backward_matches_finite_differences():
    # d/dw of ||dE/dx||^2 with E = sum(relu(x w)^2): relu's VJP is itself
    # differentiated in g, and relu'' is zero
    rng = np.random.default_rng(4)
    x_val, w_val = rng.normal(size=(3, 4)), rng.normal(size=(4, 5))
    pre = x_val @ w_val
    assert np.abs(pre).min() > 1e-3        # finite differences stay off the kink

    def penalty(wv, create_graph):
        tape = ad.Tape()
        x, w = tape.leaf(x_val), tape.leaf(wv)
        e = ad.sum_(ad.square(ad.relu(ad.matmul(x, w))))
        gx = ad.backward(tape, e, [x], create_graph=create_graph)[x]
        return tape, w, ad.sum_(ad.square(gx))

    tape, w, p = penalty(w_val, create_graph=True)
    g = ad.backward(tape, p, [w])[w].value
    fd = central_diff(lambda v: float(penalty(v, create_graph=False)[2].value), w_val, h=1e-6)
    assert close_rel(g, fd, 1e-5)


def test_relu_backward_records_no_mask():
    # a recorded ReLU VJP keeps its output alone: the sum's broadcast ones,
    # square's two nodes and four ReLU nodes hold seven activation-sized
    # arrays; a float64 mask kept per ReLU would make eleven
    x_val = np.random.default_rng(2).normal(size=(256, 64))
    tape = ad.Tape()
    x = tape.leaf(x_val)
    h = x
    for _ in range(4):
        h = ad.relu(h)
    total = ad.sum_(ad.square(h))
    tracemalloc.start()
    try:
        grad = ad.backward(tape, total, [x], create_graph=True)[x]
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert np.array_equal(grad.value, 2 * np.maximum(x_val, 0))
    assert held < 8 * x_val.nbytes, held / x_val.nbytes


class TestGradNormOfGrad:
    def test_linear_energy_constant_gradient(self):
        tape = ad.Tape()
        x = tape.leaf([0.3, -0.8])
        energy = ad.sum_(ad.mul(x, np.array([3.0, 4.0])))
        norm = grad_l2norm_of_grad(tape, energy, x)
        assert float(norm.value) == 5.0

    def test_quadratic_bowl(self):
        tape = ad.Tape()
        x = tape.leaf([1.0, 2.0, 2.0])
        energy = ad.mul(ad.sum_(ad.square(x)), 0.5)
        norm = grad_l2norm_of_grad(tape, energy, x)
        assert float(norm.value) == 3.0

    def test_second_order_matches_finite_differences_of_first_order(self):
        # d/dtheta of ||dE/dx|| via double backprop vs FD over a 2-layer MLP,
        # with the first layer as matmul + add and as the fused linear
        rng = np.random.default_rng(11)
        w1 = rng.normal(size=(2, 6)) * 0.7
        b1 = rng.normal(size=(6,)) * 0.1
        w2 = rng.normal(size=(6, 1)) * 0.7
        x_val = rng.normal(size=(1, 2))

        for dense in (lambda x, w, b: ad.add(ad.matmul(x, w), b), ad.linear):
            def norm_of_input_grad(w1v, b1v, w2v, dense=dense):
                tape = ad.Tape()
                x = tape.leaf(x_val)
                t_w1, t_b1, t_w2 = tape.leaf(w1v), tape.leaf(b1v), tape.leaf(w2v)
                h = ad.relu(dense(x, t_w1, t_b1))
                e = ad.sum_(ad.matmul(h, t_w2))
                return tape, x, e, (t_w1, t_b1, t_w2)

            tape, x, e, params = norm_of_input_grad(w1, b1, w2)
            norm = grad_l2norm_of_grad(tape, e, x)
            gm = ad.backward(tape, norm, list(params))

            def value_at(w1v, b1v, w2v, build=norm_of_input_grad):
                tape2, x2, e2, _ = build(w1v, b1v, w2v)
                g = ad.backward(tape2, e2, [x2])[x2]
                return float(np.linalg.norm(g.value))

            fd_w1 = central_diff(lambda v: value_at(v, b1, w2), w1, h=1e-4)
            fd_b1 = central_diff(lambda v: value_at(w1, v, w2), b1, h=1e-4)
            fd_w2 = central_diff(lambda v: value_at(w1, b1, v), w2, h=1e-4)
            assert close_rel(gm[params[0]].value, fd_w1, 1e-4)
            assert close_rel(gm[params[1]].value, fd_b1, 1e-4)
            assert close_rel(gm[params[2]].value, fd_w2, 1e-4)

    def test_zero_gradient_field_keeps_backward_defined(self):
        tape = ad.Tape()
        x = tape.leaf([1.0, 2.0])
        w = tape.leaf(np.zeros((2, 1)))
        e = ad.sum_(ad.matmul(ad.reshape(x, (1, 2)), w))
        norm = grad_l2norm_of_grad(tape, e, x)
        assert float(norm.value) == 0.0
        g = ad.backward(tape, norm, [w])[w]
        assert np.all(np.isfinite(g.value))


@pytest.mark.parametrize("upstream", ["constant", "recorded"])
def test_gather_gradient_is_the_upstream_gradient_on_the_one_hot_rows(upstream):
    # a constant upstream gradient is spread over the rows when recorded, so the
    # recorded product takes two (n, k) arrays; a recorded one is broadcast
    rng = np.random.default_rng(11)
    n, k = 5, 3
    onehot_val = np.eye(k)[[0, 2, 1, 2, 0]]
    w = rng.normal(size=n)
    tape = ad.Tape()
    a, onehot, scale = tape.leaf(rng.normal(size=(n, k))), tape.leaf(onehot_val), tape.leaf(w)
    picked = ad.gather(a, onehot)
    loss = ad.sum_(ad.mul(picked, w if upstream == "constant" else scale))
    g = ad.backward(tape, loss, [a], create_graph=True)[a]
    assert np.array_equal(g.value, w.reshape(n, 1) * onehot_val)
    node = tape.nodes[g.node]
    assert node.fn is np.multiply
    if upstream == "constant":
        assert node.consts[0].shape == (n, k) and node.consts[0].flags.c_contiguous
    else:
        assert node.consts == ()


class TestTapeIsolation:
    def test_cross_tape_inputs_rejected(self):
        t1, t2 = ad.Tape(), ad.Tape()
        a = t1.leaf([1.0])
        b = t2.leaf([2.0])
        with pytest.raises(ValueError, match="different tapes"):
            ad.add(a, b)

    def test_constants_do_not_record(self):
        out = ad.add(ad.Tensor([1.0]), ad.Tensor([2.0]))
        assert out.node is None and out.tape is None

    def test_dropped_tape_is_freed_without_the_cyclic_collector(self):
        spec = nn.ModelSpec.mlp(2, [8], 2)
        x = np.random.default_rng(0).normal(size=(4, 2))
        cfg = losses.LossConfig(mode=losses.Mode.NGEBM)
        gc.disable()
        try:
            graph, bound = bound_loss_graph(cfg, spec, nn.init(spec, seed=0), x,
                                            np.zeros(4, dtype=np.int64))
            ad.backward(graph.tape, graph.total, list(bound.values()))
            tape = weakref.ref(graph.tape)
            del graph, bound
            assert tape() is None
        finally:
            gc.enable()

    def test_tensor_outliving_its_tape_is_rejected(self):
        x = ad.Tape().leaf([1.0])
        with pytest.raises(ValueError, match="freed"):
            ad.square(x)


# every recorded primitive, each with an input whose values change its
# masks (relu's sign, l2norm's zero row) between the recording and the replay
_REPLAY_OPS = {kind: case["op"] for kind, case in _FD_CASES.items() if case["op"] is not None}
_REPLAY_OPS["matmul"] = lambda x: ad.matmul(x, ad.transpose(x))
_REPLAY_OPS["gather"] = lambda x: ad.gather(x, np.eye(5)[[0, 3, 1, 4]])


def _first_and_second_order(op, x_val, rng_seed=0):
    """Tape, leaf and [op(x), d<op(x), r>/dx, d<that gradient, s>/dx]; the
    second order is left out where the first-order gradient is a constant."""
    rng = np.random.default_rng(rng_seed)
    tape = ad.Tape()
    x = tape.leaf(x_val)
    y = op(x)
    g = ad.backward(tape, ad.sum_(ad.mul(y, rng.normal(size=y.shape))), [x], create_graph=True)[x]
    outputs = [y, g]
    if g.node is not None:
        s = ad.sum_(ad.mul(g, rng.normal(size=g.shape)))
        outputs.append(ad.backward(tape, s, [x], create_graph=True)[x])
    return tape, x, outputs


class TestProgram:
    @pytest.mark.parametrize("kind", sorted(_REPLAY_OPS))
    def test_replay_equals_a_fresh_recording_bit_for_bit(self, kind):
        case, op = _FD_CASES[kind], _REPLAY_OPS[kind]
        rng = np.random.default_rng(7)
        first, second = _fd_input(rng, case), _fd_input(rng, case)
        if kind == "l2norm":
            second[0] = 0.0                 # a zero-norm row: the zero subgradient
        tape, x, outputs = _first_and_second_order(op, first)
        program = ad.Program(tape, [x], outputs)     # one program for every order
        _, _, fresh = _first_and_second_order(op, second)
        got = program.replay(second)
        assert len(got) == len(fresh)
        for value, want in zip(got, fresh):
            assert np.array_equal(value, want.value), kind

    # k = 7 is larger than the 6 x 5 image
    @pytest.mark.parametrize("k", [1, 3, 5, 7])
    @pytest.mark.parametrize("bias", [False, True])
    def test_conv2d_replays_in_both_inputs(self, bias, k):
        rng = np.random.default_rng(8)
        b = rng.normal(size=3) if bias else None

        def record(x_val, w_val):
            tape = ad.Tape()
            x, w = tape.leaf(x_val), tape.leaf(w_val)
            y = ad.relu(ad.conv2d(x, w, b))
            grads = ad.backward(tape, ad.sum_(ad.square(y)), [x, w], create_graph=True)
            penalty = ad.sum_(ad.square(grads[x]))
            return tape, x, w, [y, grads[x], grads[w],
                                ad.backward(tape, penalty, [w], create_graph=True)[w]]

        shapes = ((2, 2, 6, 5), (3, 2, k, k))
        tape, x, w, outputs = record(*(rng.normal(size=s) for s in shapes))
        program = ad.Program(tape, [x, w], outputs)
        second = [rng.normal(size=s) for s in shapes]
        for value, want in zip(program.replay(*second), record(*second)[3]):
            assert np.array_equal(value, want.value)

    def test_second_order_through_relu_and_l2norm(self):
        # the ngebm penalty mean ||dE/dx|| and its gradients in x and in a
        # weight; the replayed x has a zero row, where every ReLU is off and
        # the penalty takes the zero subgradient
        spec = nn.ModelSpec.mlp(3, [6, 5], 2)
        params = nn.init(spec, 0)

        def record(x_val, w_val):
            tape = ad.Tape()
            x, w = tape.leaf(x_val), tape.leaf(w_val)
            bound = {name: ad.Tensor(v) for name, v in params.arrays.items()}
            bound["layer0.w"] = w
            total = ad.sum_(energy.energy(nn.forward(spec, bound, x)))
            gx = ad.backward(tape, total, [x], create_graph=True)[x]
            penalty = ad.mean(ad.l2norm(gx, axis=1))
            grads = ad.backward(tape, penalty, [x, w], create_graph=True)
            return tape, x, w, [gx, penalty, grads[x], grads[w]]

        rng = np.random.default_rng(9)
        w_val = params.arrays["layer0.w"]
        tape, x, w, outputs = record(rng.normal(size=(4, 3)), w_val)
        program = ad.Program(tape, [x, w], outputs)
        tape_ref = weakref.ref(tape)
        del tape, x, w, outputs
        assert tape_ref() is None           # a program holds no tape
        x2 = rng.normal(size=(4, 3))
        x2[2] = 0.0
        w2 = w_val + rng.normal(size=w_val.shape) * 0.1
        fresh = record(x2, w2)[3]
        assert np.all(fresh[0].value[2] == 0.0)
        for value, want in zip(program.replay(x2, w2), fresh):
            assert np.array_equal(value, want.value)

    def test_each_value_is_dropped_after_its_last_reader(self):
        # y1 .. y5 in a chain, then y5 + y1: while a step runs, the values alive
        # are its input and y1, which the last step reads again
        alive, seen = [], []

        def step(v):
            seen.append(sum(ref() is not None for ref in alive))
            out = v + 1.0
            alive.append(weakref.ref(out))
            return out

        tape = ad.Tape()
        x = tape.leaf(np.zeros(3))
        ys = [ad._register((x,), step, None)]
        for _ in range(4):
            ys.append(ad._register((ys[-1],), step, None))
        program = ad.Program(tape, [x], [ad.add(ys[-1], ys[0])])
        alive.clear()
        seen.clear()
        assert np.array_equal(program.replay(np.ones(3))[0], np.full(3, 8.0))
        assert seen == [0, 1, 2, 2, 2]

    def test_a_dropped_program_frees_its_constants_at_once(self):
        tape = ad.Tape()
        x = tape.leaf(np.ones(3))
        const = np.full(3, 2.0)
        program = ad.Program(tape, [x], [ad.mul(x, const)])
        held = weakref.ref(const)
        del tape, x, const
        gc.disable()        # freed by reference counts, not by the cycle collector
        try:
            assert np.array_equal(program.replay(np.ones(3))[0], np.full(3, 2.0))
            del program
            assert held() is None
        finally:
            gc.enable()



class TestRecord:
    """ad.record binds values as leaves, records the loss's outputs and its
    gradient in the first n_wrt leaves once per shape tuple, and replays them."""

    @staticmethod
    def loss(x, onehot, w):
        # a tuple: the scalar first, then a second output that reads every leaf
        logits = ad.matmul(x, w)
        nll = ad.sub(ad.logsumexp(logits, axis=1), ad.gather(logits, onehot))
        return ad.mean(nll), ad.sum_(ad.square(logits), axis=1)

    @staticmethod
    def values(rng, rows):
        return [rng.normal(size=(rows, 3)), np.eye(4)[rng.integers(0, 4, size=rows)],
                rng.normal(size=(3, 4))]

    @pytest.mark.parametrize("n_wrt", [0, 1, 3])
    def test_outputs_then_gradients_in_the_first_leaves(self, n_wrt):
        rng = np.random.default_rng(11)
        values = self.values(rng, 5)
        got = ad.record(self.loss, values, n_wrt, {})
        want = eager_record(self.loss, values, n_wrt)
        assert len(got) == len(want) == 2 + n_wrt
        assert [g.shape for g in got[2:]] == [v.shape for v in values[:n_wrt]]
        for g, w in zip(got, want):
            assert np.array_equal(g, w)

    def test_a_lone_scalar_outputs_its_gradients_alone(self):
        x = np.random.default_rng(12).normal(size=(4, 3))
        got = ad.record(lambda leaf: ad.sum_(ad.square(leaf)), [x], 1, {})
        assert len(got) == 1 and np.array_equal(got[0], 2.0 * x)

    def test_replay_on_new_inputs_and_labels_equals_a_fresh_recording(self):
        rng = np.random.default_rng(13)
        programs = {}
        first, second = self.values(rng, 6), self.values(rng, 6)
        assert not np.array_equal(first[1], second[1])
        ad.record(self.loss, first, 3, programs)
        replayed = ad.record(self.loss, second, 3, programs)
        fresh = ad.record(self.loss, second, 3, {})
        assert len(programs) == 1
        for g, w in zip(replayed, fresh):
            assert np.array_equal(g, w)

    def test_one_recording_per_shape_tuple(self, monkeypatch):
        recorded = []

        class Counted(ad.Program):
            def __init__(self, tape, leaves, outputs):
                recorded.append(tuple(leaf.shape for leaf in leaves))
                super().__init__(tape, leaves, outputs)

        monkeypatch.setattr(ad, "Program", Counted)
        rng = np.random.default_rng(14)
        programs = {}
        for rows in (4, 4, 3, 4, 3):
            values = self.values(rng, rows)
            for g, w in zip(ad.record(self.loss, values, 1, programs),
                            eager_record(self.loss, values, 1)):
                assert np.array_equal(g, w)
        assert recorded == [((4, 3), (4, 4), (3, 4)), ((3, 3), (3, 4), (3, 4))]
        assert list(programs) == recorded
