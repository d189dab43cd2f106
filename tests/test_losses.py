import math

import numpy as np
import pytest

from ebmkit import autodiff as ad
from ebmkit import energy as en
from ebmkit import losses
from ebmkit import nn
from ebmkit import sampler as smp
from ebmkit import trainer
from oracles import bound_loss_graph, central_diff, close_rel


def linear_single_logit(w, b=0.0):
    w = np.asarray(w, dtype=np.float64)
    spec = nn.ModelSpec(layers=(nn.Dense(w.size, 1),), input_shape=(w.size,), classes=1)
    params = nn.Parameters({"layer0.w": w.reshape(-1, 1),
                            "layer0.b": np.array([float(b)])})
    return spec, params


def loss_config(spec, mode=losses.Mode.NGEBM, **kw):
    """The TrainConfig whose objective ``losses.loss_graph`` builds on ``spec``."""
    return trainer.TrainConfig(model=spec, mode=mode, **kw)


def penalty_only(spec):
    """The penalty alone: NGEBM mode with beta=1, gamma=0."""
    return loss_config(spec, beta=1.0, gamma=0.0)


def jem(spec):
    return loss_config(spec, losses.Mode.JEM)


def zero_labels(x):
    return np.zeros(len(x), dtype=np.int64)


def penalty(spec, params, x):
    return float(bound_loss_graph(penalty_only(spec), params, x, zero_labels(x))[0].aux.value)


def generative_term(spec, params, xt, xg):
    """JEM's generative term alone, over fixed generated samples."""
    graph, _ = bound_loss_graph(jem(spec), params, xt, zero_labels(xt), x_gen=xg)
    return float(graph.aux.value)


class TestCrossEntropy:
    def test_uniform_two_classes(self):
        logits = ad.Tensor(np.zeros((4, 2)))
        ce = float(losses.cross_entropy(logits, losses._one_hot([0, 1, 0, 1], 2)).value)
        assert ce == pytest.approx(math.log(2.0))

    def test_analytic_two_logit_gap(self):
        a, b = 1.3, -0.4
        want = -math.log(math.exp(a) / (math.exp(a) + math.exp(b)))
        got = float(losses.cross_entropy(ad.Tensor([[a, b]]), losses._one_hot([0], 2)).value)
        assert got == pytest.approx(want, abs=1e-12)

    def test_batch_permutation_invariant(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(6, 3))
        labels = np.array([0, 2, 1, 1, 0, 2])
        perm = rng.permutation(6)
        onehot = losses._one_hot(labels, 3)
        a = float(losses.cross_entropy(ad.Tensor(logits), onehot).value)
        b = float(losses.cross_entropy(ad.Tensor(logits[perm]), onehot[perm]).value)
        assert a == pytest.approx(b, abs=1e-12)

    def test_label_out_of_range(self):
        with pytest.raises(ValueError, match="label"):
            losses.cross_entropy(ad.Tensor(np.zeros((2, 3))), losses._one_hot([0, 3], 3))


class TestEbmLoss:
    def test_identical_batches_zero(self):
        spec = nn.ModelSpec.mlp(2, [5], 2)
        params = nn.init(spec, 0)
        x = np.random.default_rng(0).normal(size=(4, 2))
        assert generative_term(spec, params, x, x) == 0.0

    def test_linear_analytic(self):
        # E = -(w.x + b): loss = mean E(x) - mean E(x') = w.(mean x' - mean x)
        w = np.array([2.0, -1.5])
        spec, params = linear_single_logit(w, b=0.3)
        rng = np.random.default_rng(1)
        xt = rng.normal(size=(5, 2))
        xg = rng.normal(size=(5, 2))
        want = float(w @ (xg.mean(0) - xt.mean(0)))
        got = generative_term(spec, params, xt, xg)
        assert got == pytest.approx(want, abs=1e-10)

    def test_doubling_batches_leaves_loss_unchanged(self):
        spec = nn.ModelSpec.mlp(2, [4], 2)
        params = nn.init(spec, 2)
        rng = np.random.default_rng(2)
        xt = rng.normal(size=(3, 2))
        xg = rng.normal(size=(3, 2))
        single = generative_term(spec, params, xt, xg)
        double = generative_term(spec, params, np.vstack([xt, xt]), np.vstack([xg, xg]))
        assert double == pytest.approx(single, abs=1e-10)

    def test_shape_mismatch(self):
        spec = nn.ModelSpec.mlp(2, [4], 2)
        params = nn.init(spec, 0)
        with pytest.raises(ad.ShapeError):
            generative_term(spec, params, np.zeros((2, 2)), np.zeros((2, 3)))

    def test_parameter_gradient_matches_hand_derivation(self):
        # two-parameter model: dL/dw = mean x' - mean x, dL/db = 0; with a
        # single logit the cross-entropy and its gradient are exactly zero
        w = np.array([0.7, -0.2])
        spec, params = linear_single_logit(w, b=0.1)
        rng = np.random.default_rng(3)
        xt = rng.normal(size=(4, 2))
        xg = rng.normal(size=(4, 2))
        graph, bound = bound_loss_graph(jem(spec), params, xt, zero_labels(xt), x_gen=xg)
        gm = ad.backward(graph.tape, graph.total, list(bound.values()))
        want_w = (xg.mean(0) - xt.mean(0)).reshape(-1, 1)
        assert np.all(np.abs(gm[bound["layer0.w"]].value - want_w) < 1e-10)
        assert np.all(np.abs(gm[bound["layer0.b"]].value) < 1e-10)

    def test_one_step_on_the_generative_term_lowers_data_energy_against_samples(self):
        # a single logit zeroes the cross-entropy, so the loss is the
        # generative term alone: mean E(data) - mean E(samples)
        spec = nn.ModelSpec.mlp(2, [8], 1)
        params = nn.init(spec, 4)
        rng = np.random.default_rng(4)
        xt = rng.normal(size=(16, 2)) * 0.3 + 0.5
        xg = rng.uniform(-1, 1, size=(16, 2))

        def gap(params):
            e_train, e_gen = (en.energy(nn.forward(spec, params, x)).value.mean() for x in (xt, xg))
            return e_train - e_gen

        before = gap(params)
        graph, bound = bound_loss_graph(jem(spec), params, xt, zero_labels(xt), x_gen=xg)
        assert float(graph.ce.value) == 0.0
        grads = ad.backward(graph.tape, graph.total, list(bound.values()))
        adam = nn.AdamState.for_params(params, lr=1e-2)
        params, _ = nn.adam_step(adam, params, {name: grads[leaf].value
                                               for name, leaf in bound.items()})
        assert gap(params) < before


class TestGradPenalty:
    def test_linear_model_norm_of_w(self):
        spec, params = linear_single_logit([3.0, 4.0])
        x = np.random.default_rng(0).normal(size=(6, 2))
        assert penalty(spec, params, x) == pytest.approx(5.0, abs=1e-12)

    def test_zero_network_zero_penalty(self):
        spec = nn.ModelSpec.mlp(2, [4], 2)
        params = nn.init(spec, 0)
        for name in params.arrays:
            params.arrays[name][:] = 0.0
        x = np.random.default_rng(1).normal(size=(5, 2))
        assert penalty(spec, params, x) == 0.0

    def test_penalty_never_negative(self):
        spec = nn.ModelSpec.mlp(2, [6], 3)
        params = nn.init(spec, 4)
        x = np.random.default_rng(4).normal(size=(8, 2))
        assert penalty(spec, params, x) >= 0.0

    def test_parameter_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        spec = nn.ModelSpec.mlp(2, [6], 2)
        params = nn.init(spec, 5)
        x = rng.normal(size=(3, 2))

        tape = ad.Tape()
        bound = {name: tape.leaf(v) for name, v in params.items()}
        x_leaf = tape.leaf(x)
        logits = nn.forward(spec, bound, x_leaf)
        pen = losses._penalty_from_logits(logits, x_leaf)
        gm = ad.backward(tape, pen, list(bound.values()))

        for name, leaf in bound.items():
            def f(v, name=name):
                arrays = {k: a.copy() for k, a in params.arrays.items()}
                arrays[name] = v
                return penalty(spec, nn.Parameters(arrays), x)
            fd = central_diff(f, params.arrays[name], h=1e-4)
            assert close_rel(gm[leaf].value, fd, 1e-4), name

    def test_one_penalty_step_shrinks_linear_weights(self):
        # gamma = 0: objective is ||w||, gradient w/||w||
        spec, params = linear_single_logit([0.6, 0.8])
        x = np.random.default_rng(6).normal(size=(4, 2))
        tape = ad.Tape()
        bound = {name: tape.leaf(v) for name, v in params.items()}
        x_leaf = tape.leaf(x)
        logits = nn.forward(spec, bound, x_leaf)
        pen = losses._penalty_from_logits(logits, x_leaf)
        gm = ad.backward(tape, pen, [bound["layer0.w"]])
        g = gm[bound["layer0.w"]].value
        assert np.allclose(g, params.arrays["layer0.w"], atol=1e-10)  # w / ||w||, ||w||=1
        stepped = params.arrays["layer0.w"] - 0.1 * g
        assert np.linalg.norm(stepped) < np.linalg.norm(params.arrays["layer0.w"])


class TestCombinedLoss:
    def setup_method(self):
        self.spec = nn.ModelSpec.mlp(2, [6], 2)
        self.params = nn.init(self.spec, 7)
        rng = np.random.default_rng(7)
        self.x = rng.normal(size=(5, 2)) * 0.5
        self.y = np.array([0, 1, 0, 1, 1])

    def test_beta_zero_reduces_to_cross_entropy(self):
        cfg = loss_config(self.spec, beta=0.0, gamma=1.0)
        graph, _ = bound_loss_graph(cfg, self.params, self.x, self.y)
        ce = float(losses.cross_entropy(nn.forward(self.spec, self.params, self.x),
                                        losses._one_hot(self.y, 2)).value)
        assert float(graph.total.value) == pytest.approx(ce, abs=1e-12)

    def test_equal_weights_arithmetic(self):
        cfg = loss_config(self.spec, beta=0.5, gamma=0.5)
        graph, _ = bound_loss_graph(cfg, self.params, self.x, self.y)
        ce = float(losses.cross_entropy(nn.forward(self.spec, self.params, self.x),
                                        losses._one_hot(self.y, 2)).value)
        pen = penalty(self.spec, self.params, self.x)
        assert float(graph.total.value) == pytest.approx(0.5 * ce + 0.5 * pen, abs=1e-12)
        assert float(graph.ce.value) == pytest.approx(ce, abs=1e-12)
        assert float(graph.aux.value) == pytest.approx(pen, abs=1e-12)

    def test_breakdown_recomputes_total(self):
        cfg = loss_config(self.spec, beta=0.3, gamma=0.7)
        graph, _ = bound_loss_graph(cfg, self.params, self.x, self.y)
        total, ce, aux = (float(t.value) for t in (graph.total, graph.ce, graph.aux))
        assert total == pytest.approx(0.7 * ce + 0.3 * aux, abs=1e-12)

    def test_jem_with_generated_equal_to_train_is_ce(self):
        cfg = jem(self.spec)
        graph, _ = bound_loss_graph(cfg, self.params, self.x, self.y, x_gen=self.x)
        ce = float(losses.cross_entropy(nn.forward(self.spec, self.params, self.x),
                                        losses._one_hot(self.y, 2)).value)
        assert float(graph.total.value) == pytest.approx(ce, abs=1e-12)

    def test_jem_end_to_end_with_buffer(self):
        cfg = loss_config(self.spec, losses.Mode.JEM,
                          sampler=smp.SgldConfig(n_steps=3, step_size=0.1))
        buffer = smp.ReplayBuffer(capacity=50, rng=np.random.default_rng(3))
        x_gen, _, _ = trainer._jem_samples(cfg, self.params, self.x.shape, buffer,
                                           np.random.default_rng(11), {})
        graph, _ = bound_loss_graph(cfg, self.params, self.x, self.y, x_gen=x_gen)
        total, ce, aux = (float(t.value) for t in (graph.total, graph.ce, graph.aux))
        assert np.isfinite(total)
        assert total == pytest.approx(ce + aux, abs=1e-12)
