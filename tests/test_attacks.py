import itertools

import numpy as np
import pytest

from ebmkit import attacks
from ebmkit import autodiff as ad
from ebmkit import data as datamod
from ebmkit import energy as en
from ebmkit import losses, nn
from ebmkit.attacks import AttackConfig, Norm
from oracles import close_rel, eager_record, traced_peak_bytes


def set_gradient(model, params, x, y):
    """d(mean cross-entropy)/dx over the whole set, one block gradient per
    row block, as pgd composes them."""
    def loss(logits, onehot):
        return ad.mul(ad.sum_(losses._nll_rows(logits, onehot)), 1.0 / len(x))
    gradient = en._block_grads(model, params, loss)
    return en._in_blocks(gradient, model, x, losses._one_hot(y, model.classes))


def two_class_linear():
    """Logits [w.x, -w.x] for w = (1, -1): decision boundary x1 = x2."""
    spec = nn.ModelSpec(layers=(nn.Dense(2, 2),), input_shape=(2,), classes=2)
    params = nn.Parameters({"layer0.w": np.array([[1.0, -1.0], [-1.0, 1.0]]),
                            "layer0.b": np.zeros(2)})
    return spec, params


class TestProject:
    def test_inside_ball_unchanged(self):
        delta = np.array([[0.1, -0.2]])
        assert np.array_equal(attacks.project(delta, Norm.L2, 1.0), delta)
        assert np.array_equal(attacks.project(delta, Norm.LINF, 0.5), delta)

    def test_l2_rescale(self):
        out = attacks.project(np.array([[3.0, 4.0]]), Norm.L2, 1.0)
        assert np.allclose(out, [[0.6, 0.8]], atol=1e-12)

    def test_linf_clamp(self):
        out = attacks.project(np.array([[2.0, -0.5]]), Norm.LINF, 1.0)
        assert np.array_equal(out, [[1.0, -0.5]])

    def test_rowwise_l2(self):
        delta = np.array([[3.0, 4.0], [0.1, 0.0]])
        out = attacks.project(delta, Norm.L2, 1.0)
        assert np.allclose(np.linalg.norm(out[0]), 1.0)
        assert np.array_equal(out[1], delta[1])


class TestPgd:
    def test_epsilon_zero_identity(self):
        spec, params = two_class_linear()
        x = np.array([[0.3, -0.1]])
        cfg = AttackConfig(norm=Norm.LINF, epsilon=0.0)
        out = attacks.pgd(spec, params, x, np.array([0]), cfg, rng=np.random.default_rng(0))
        assert np.array_equal(out, x)

    def test_a_label_out_of_range_is_named(self):
        spec, params = two_class_linear()
        cfg = AttackConfig(norm=Norm.LINF, epsilon=0.1, n_steps=1)
        with pytest.raises(ValueError, match=r"label out of range \[0, 2\): 5"):
            attacks.pgd(spec, params, np.zeros((2, 2)), np.array([0, 5]), cfg,
                        rng=np.random.default_rng(0))

    def test_single_step_linf_hand_computation(self):
        # one sign-step of size min(step, eps) from a linear model
        spec, params = two_class_linear()
        x = np.array([[0.2, 0.1]])
        y = np.array([0])
        cfg = AttackConfig(norm=Norm.LINF, epsilon=0.05, n_steps=1,
                           step_size=0.3, random_start=False)
        out = attacks.pgd(spec, params, x, y, cfg, rng=np.random.default_rng(0))
        # CE for label 0 increases along -(logit0 - logit1) direction:
        # grad_x CE = -(1 - p0) * 2w with w = (1, -1) -> sign = (-1, +1)
        want = np.clip(x + 0.05 * np.array([[-1.0, 1.0]]), -1.0, 1.0)
        assert np.allclose(out, want, atol=1e-12)

    def test_budget_postcondition_linf(self):
        rng = np.random.default_rng(0)
        spec = nn.ModelSpec.mlp(2, [8], 2)
        params = nn.init(spec, 0)
        x = rng.uniform(-1, 1, size=(20, 2))
        y = rng.integers(0, 2, size=20)
        cfg = AttackConfig(norm=Norm.LINF, epsilon=0.1, n_steps=10)
        out = attacks.pgd(spec, params, x, y, cfg, rng=np.random.default_rng(1))
        assert np.max(np.abs(out - x)) <= 0.1
        assert np.all(out >= -1.0) and np.all(out <= 1.0)

    def test_budget_postcondition_l2(self):
        rng = np.random.default_rng(1)
        spec = nn.ModelSpec.mlp(3, [8], 3)
        params = nn.init(spec, 1)
        x = rng.uniform(-1, 1, size=(20, 3))
        y = rng.integers(0, 3, size=20)
        cfg = AttackConfig(norm=Norm.L2, epsilon=0.5, n_steps=10)
        out = attacks.pgd(spec, params, x, y, cfg, rng=np.random.default_rng(2))
        assert np.all(np.linalg.norm(out - x, axis=1) <= 0.5 + 1e-9)

    def test_deterministic_without_random_start(self):
        spec, params = two_class_linear()
        x = np.array([[0.2, -0.3], [0.1, 0.4]])
        y = np.array([0, 1])
        cfg = AttackConfig(norm=Norm.L2, epsilon=0.2, n_steps=5, random_start=False)
        a = attacks.pgd(spec, params, x, y, cfg, rng=np.random.default_rng(0))
        b = attacks.pgd(spec, params, x, y, cfg, rng=np.random.default_rng(99))
        assert np.array_equal(a, b)

    def test_linear_model_one_step_solves_inner_max(self):
        # brute-force corners of the L-inf ball confirm the sign step is optimal
        spec, params = two_class_linear()
        x = np.array([[0.05, 0.0]])
        y = np.array([0])
        eps = 0.1
        cfg = AttackConfig(norm=Norm.LINF, epsilon=eps, n_steps=1,
                           step_size=eps, random_start=False)
        adv = attacks.pgd(spec, params, x, y, cfg, rng=np.random.default_rng(0))

        def margin(pt):
            logits = nn.forward(spec, params, pt.reshape(1, -1)).value[0]
            return logits[0] - logits[1]   # attack minimizes the true-class margin

        corners = [x[0] + eps * np.array(s) for s in itertools.product((-1, 1), repeat=2)]
        best = min(margin(c) for c in corners)
        assert margin(adv[0]) == pytest.approx(best, abs=1e-12)

    def test_input_gradient_in_blocks_is_the_whole_set_mean_gradient(self, monkeypatch):
        rng = np.random.default_rng(3)
        x, y = rng.normal(size=(40, 2)), rng.integers(0, 3, size=40)
        spec = nn.ModelSpec.mlp(2, [16], 3)
        params = nn.init(spec, 1)
        tape = ad.Tape()
        x_leaf = tape.leaf(x)
        loss = losses.cross_entropy(nn.forward(spec, params, x_leaf), losses._one_hot(y, 3))
        whole = ad.backward(tape, loss, [x_leaf])[x_leaf].value
        assert np.array_equal(set_gradient(spec, params, x, y), whole)
        monkeypatch.setattr(nn, "_ROW_BLOCK_BYTES", 12 * 16 * 8)
        spec = nn.ModelSpec.mlp(2, [16], 3)             # 12-row blocks, the last ragged
        assert spec.block_rows == 12
        assert close_rel(set_gradient(spec, params, x, y), whole, 1e-12)

    def test_peak_memory_follows_the_block_not_the_set(self):
        spec = nn.ModelSpec.small_conv((1, 8, 8), [8], 3)
        params = nn.init(spec, 0)
        rng = np.random.default_rng(1)

        def peak(n):
            x = rng.uniform(-1, 1, size=(n, 1, 8, 8))
            y = rng.integers(0, 3, size=n)
            return traced_peak_bytes(set_gradient, spec, params, x, y)
        assert peak(4 * spec.block_rows) < 1.5 * peak(spec.block_rows)


def eager_steps(monkeypatch):
    """Make every attack step take its gradient on a fresh tape with a plain
    backward, as the gradient ran before attacks replayed it."""
    monkeypatch.setattr(ad, "record", eager_record)


def stepwise_pgd(model, params, x, y, config, seed):
    """PGD with the whole set taking each step together, one input gradient
    over every row block per step."""
    rng = np.random.default_rng(seed)
    delta = attacks._random_start(rng, x.shape, config.norm, config.epsilon)
    delta = np.clip(x + delta, -1.0, 1.0) - x
    for _ in range(config.n_steps):
        grad = set_gradient(model, params, x + delta, y)
        flat = grad.reshape(grad.shape[0], -1)
        norms = np.maximum(np.linalg.norm(flat, axis=1, keepdims=True), 1e-12)
        step = (config.step * flat / norms).reshape(grad.shape)
        delta = attacks.project(delta + step, config.norm, config.epsilon)
        delta = np.clip(x + delta, -1.0, 1.0) - x
    return x + delta


class TestReplayedAttack:
    """A row block records its input gradient on its first step and replays it."""

    MODELS = {"mlp": (nn.ModelSpec.mlp(2, [16, 16], 3), (2,)),
              "conv": (nn.ModelSpec.small_conv((2, 6, 6), [4], 3), (2, 6, 6))}

    @pytest.mark.parametrize("norm", [Norm.LINF, Norm.L2])
    @pytest.mark.parametrize("model", sorted(MODELS))
    def test_equals_eager_steps_bit_for_bit(self, monkeypatch, model, norm):
        monkeypatch.setattr(nn, "_ROW_BLOCK_BYTES", 4 * 4 * 36 * 8)  # 4-row conv blocks
        base, shape = self.MODELS[model]
        spec = nn.ModelSpec(base.layers, shape, base.classes)   # blocks under the patch
        params = nn.init(spec, 4)
        rng = np.random.default_rng(4)
        x, y = rng.uniform(-1, 1, size=(10,) + shape), rng.integers(0, 3, size=10)
        cfg = AttackConfig(norm=norm, epsilon=0.3, n_steps=5)
        replayed = attacks.pgd(spec, params, x, y, cfg, rng=np.random.default_rng(6))
        eager_steps(monkeypatch)
        assert np.array_equal(replayed, attacks.pgd(spec, params, x, y, cfg,
                                                    rng=np.random.default_rng(6)))

    def test_one_program_per_block_shape_serves_every_block(self, monkeypatch):
        # the labels are leaves, so blocks of 12, 12 and 5 rows record twice
        monkeypatch.setattr(nn, "_ROW_BLOCK_BYTES", 12 * 32 * 8)
        spec = nn.ModelSpec.mlp(2, [32, 32], 2)
        assert spec.block_rows == 12
        params = nn.init(spec, 6)
        rng = np.random.default_rng(6)
        x, y = rng.uniform(-1, 1, size=(29, 2)), rng.integers(0, 2, size=29)
        recorded = []

        class Counted(ad.Program):
            def __init__(self, tape, leaves, outputs):
                recorded.append(leaves[0].shape)
                super().__init__(tape, leaves, outputs)

        monkeypatch.setattr(ad, "Program", Counted)
        cfg = AttackConfig(norm=Norm.LINF, epsilon=0.2, n_steps=4)
        replayed = attacks.pgd(spec, params, x, y, cfg, rng=np.random.default_rng(2))
        assert recorded == [(12, 2), (5, 2)]
        eager_steps(monkeypatch)
        assert np.array_equal(replayed, attacks.pgd(spec, params, x, y, cfg,
                                                    rng=np.random.default_rng(2)))

    def test_a_step_replays_no_more_numpy_calls(self, monkeypatch):
        # a toy MLP's PGD step: 19 calls with the labels held by value, and one
        # more, the upstream gradient times the one-hot leaf, with them as a leaf
        sources, compile_ = [], ad._compile

        def counted(source, *args):
            sources.append(source)
            return compile_(source, *args)

        monkeypatch.setattr(ad, "_compile", counted)
        spec = nn.ModelSpec.mlp(2, [32, 32], 2)
        x = np.random.default_rng(7).uniform(-1, 1, size=(8, 2))
        attacks.pgd(spec, nn.init(spec, 7), x, np.arange(8) % 2,
                    AttackConfig(epsilon=0.1, n_steps=2), rng=np.random.default_rng(0))
        assert [source.count(" = f") for source in sources] == [20]

    def test_blocks_taking_their_steps_in_turn_match_the_whole_set_stepping_together(
            self, monkeypatch):
        monkeypatch.setattr(nn, "_ROW_BLOCK_BYTES", 4 * 4 * 36 * 8)
        spec = nn.ModelSpec.small_conv((2, 6, 6), [4], 3)
        assert spec.block_rows == 4
        params = nn.init(spec, 5)
        rng = np.random.default_rng(5)
        x, y = rng.uniform(-1, 1, size=(10, 2, 6, 6)), rng.integers(0, 3, size=10)
        cfg = AttackConfig(norm=Norm.L2, epsilon=0.5, n_steps=6)
        assert np.array_equal(attacks.pgd(spec, params, x, y, cfg, rng=np.random.default_rng(3)),
                              stepwise_pgd(spec, params, x, y, cfg, 3))


class TestAttackSweep:
    def test_epsilon_zero_matches_clean(self):
        spec, params = two_class_linear()
        rng = np.random.default_rng(3)
        x = rng.uniform(-1, 1, size=(30, 2))
        y = (x[:, 0] > x[:, 1]).astype(np.int64)
        report = attacks.attack_sweep(spec, params, datamod.Dataset(x, y, classes=2), [0.0],
                                      AttackConfig(norm=Norm.LINF))
        assert report.adversarial_accuracy[0] == report.clean_accuracy

    def test_epsilon_zero_takes_no_pass_of_its_own(self, monkeypatch):
        # pgd returns x itself at epsilon 0, so the clean pass serves it
        spec, params = two_class_linear()
        rng = np.random.default_rng(3)
        x = rng.uniform(-1, 1, size=(30, 2))
        y = (x[:, 0] > x[:, 1]).astype(np.int64)
        passes, real = [], en._logits_in_blocks

        def counted(model, params, x):
            passes.append(x)
            return real(model, params, x)
        monkeypatch.setattr(en, "_logits_in_blocks", counted)
        config = AttackConfig(n_steps=3)
        report = attacks.attack_sweep(spec, params, datamod.Dataset(x, y, classes=2), [0.0, 0.2],
                                      config, seed=4)
        assert len(passes) == 2 and passes[0] is x
        x_adv = attacks.pgd(spec, params, x, y, AttackConfig(epsilon=0.2, n_steps=3),
                            rng=np.random.default_rng([4, 1]))
        clean = float((real(spec, params, x).argmax(axis=1) == y).mean())
        adv = float((real(spec, params, x_adv).argmax(axis=1) == y).mean())
        assert report.adversarial_accuracy == [clean, adv] and report.clean_accuracy == clean

    def test_untrained_model_near_chance(self):
        rng = np.random.default_rng(4)
        spec = nn.ModelSpec.mlp(2, [8], 2)
        params = nn.init(spec, 1234)
        x = rng.uniform(-1, 1, size=(400, 2))
        y = rng.integers(0, 2, size=400)
        report = attacks.attack_sweep(spec, params, datamod.Dataset(x, y, classes=2), [0.1],
                                      AttackConfig(norm=Norm.L2, n_steps=5))
        # labels are independent of the model: accuracy ~ Binomial(400, 1/2)
        assert abs(report.adversarial_accuracy[0] - 0.5) < 0.1

    def test_accuracy_non_increasing_on_separable_task(self):
        spec, params = two_class_linear()
        rng = np.random.default_rng(5)
        x = rng.uniform(-1, 1, size=(100, 2))
        y = (x[:, 0] > x[:, 1]).astype(np.int64)
        report = attacks.attack_sweep(spec, params, datamod.Dataset(x, y, classes=2),
                                      [0.0, 0.1, 0.3, 0.6], AttackConfig(norm=Norm.L2), seed=7)
        accs = report.adversarial_accuracy
        assert all(b <= a + 0.01 for a, b in zip(accs, accs[1:]))
