import math

import numpy as np
import pytest

from ebmkit import autodiff as ad
from ebmkit import energy as en
from ebmkit import nn
from oracles import bowl, central_diff, close_rel, energy_grads


class TestEnergy:
    def test_uniform_two_logits(self):
        assert float(en.energy([0.0, 0.0]).value) == -math.log(2.0)

    def test_single_class_is_negated_logit(self):
        for t in (-3.0, 0.0, 7.25):
            assert float(en.energy([t]).value) == -t

    def test_large_logits_no_overflow(self):
        e = float(en.energy([1000.0, 1000.0]).value)
        assert e == pytest.approx(-(1000.0 + math.log(2.0)), abs=1e-12)

    def test_shift_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            logits = rng.normal(size=(4, 5)) * 3
            c = rng.normal() * 5
            base = en.energy(logits).value
            shifted = en.energy(logits + c).value
            assert np.all(np.abs(shifted - (base - c)) < 1e-10)

    def test_empty_class_axis_rejected(self):
        with pytest.raises(ad.ShapeError):
            en.energy(np.zeros((3, 0)))


class TestLogPxProxy:
    def test_uniform(self):
        assert float(en.log_px_proxy([0.0, 0.0]).value) == math.log(2.0)

    def test_constant_shift_adds_exactly(self):
        rng = np.random.default_rng(1)
        logits = rng.normal(size=(6, 4))
        c = 1.75
        assert np.allclose(en.log_px_proxy(logits + c).value,
                           en.log_px_proxy(logits).value + c, atol=1e-10)

    def test_ordering_matches_negative_energy(self):
        rng = np.random.default_rng(2)
        logits = rng.normal(size=(10, 3))
        px = en.log_px_proxy(logits).value
        e = en.energy(logits).value
        assert np.array_equal(np.argsort(px), np.argsort(-e))


class TestSoftmax:
    def test_uniform_three(self):
        assert np.allclose(en.softmax_probs([0.0, 0.0, 0.0]), [1 / 3] * 3, atol=1e-15)

    def test_analytic_ratio(self):
        probs = en.softmax_probs([math.log(1.0), math.log(3.0)])
        assert np.allclose(probs, [0.25, 0.75], atol=1e-12)

    def test_extreme_logits_stable(self):
        probs = en.softmax_probs([1000.0, 0.0])
        assert probs[0] == pytest.approx(1.0, abs=1e-12)
        assert probs[1] == pytest.approx(0.0, abs=1e-12)

    def test_rows_sum_to_one_and_argmax_consistent(self):
        rng = np.random.default_rng(3)
        logits = rng.normal(size=(20, 7)) * 4
        probs = en.softmax_probs(logits)
        assert np.all(np.abs(probs.sum(axis=1) - 1.0) < 1e-12)
        assert np.array_equal(probs.argmax(axis=1), logits.argmax(axis=1))

    def test_conditional_consistency_with_energy(self):
        # p(y|x) == exp(f_y + E(x)) row by row
        rng = np.random.default_rng(4)
        logits = rng.normal(size=(8, 5)) * 2
        probs = en.softmax_probs(logits)
        e = en.energy(logits).value
        joint = np.exp(logits + e[:, None])
        assert np.all(np.abs(probs - joint) < 1e-10)


class TestMaxSoftmax:
    def test_uniform(self):
        assert en.max_softmax_score([0.0, 0.0]) == pytest.approx(0.5)

    def test_analytic(self):
        assert en.max_softmax_score([math.log(1.0), math.log(9.0)]) == pytest.approx(0.9)

    def test_shift_invariant(self):
        rng = np.random.default_rng(5)
        logits = rng.normal(size=(5, 4))
        assert np.allclose(en.max_softmax_score(logits),
                           en.max_softmax_score(logits + 11.0), atol=1e-12)


def linear_single_logit(w):
    """ModelSpec + Parameters for f(x) = w . x (K = 1)."""
    w = np.asarray(w, dtype=np.float64)
    spec = nn.ModelSpec(layers=(nn.Dense(w.size, 1),), input_shape=(w.size,), classes=1)
    params = nn.Parameters({"layer0.w": w.reshape(-1, 1), "layer0.b": np.zeros(1)})
    return spec, params


class TestEnergyGradInput:
    def test_linear_model_constant_gradient(self):
        spec, params = linear_single_logit([3.0, 4.0])
        x = np.random.default_rng(0).normal(size=(6, 2))
        grads = energy_grads(spec, params, x)
        assert np.allclose(grads, np.tile([-3.0, -4.0], (6, 1)), atol=1e-12)

    def test_random_mlp_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        spec = nn.ModelSpec.mlp(3, [8], 2)
        params = nn.init(spec, 6)
        x = rng.normal(size=(4, 3))
        grads = energy_grads(spec, params, x)
        for r in range(4):
            def f(row):
                batch = x.copy()
                batch[r] = row
                logits = nn.forward(spec, params, batch).value[r]
                m = logits.max()
                return float(-(m + np.log(np.sum(np.exp(logits - m)))))
            fd = central_diff(f, x[r], h=1e-5)
            assert close_rel(grads[r], fd, 1e-4)

    def test_identical_rows_identical_gradients(self):
        spec = nn.ModelSpec.mlp(2, [5], 2)
        params = nn.init(spec, 7)
        x = np.tile([[0.3, -0.2]], (4, 1))
        grads = energy_grads(spec, params, x)
        assert np.array_equal(grads[0], grads[1])
        assert np.array_equal(grads[0], grads[3])


class TestBlocks:
    """Passes over a set walk it in row blocks; a block is one recording or replay."""

    @staticmethod
    def count_forwards(monkeypatch):
        """The rows of each forward pass a ModelSpec makes (``spec(params, x)``
        calls ``nn.forward``)."""
        real, rows = nn.forward, []

        def counting(spec, params, x):
            rows.append(x.shape[0])
            return real(spec, params, x)
        monkeypatch.setattr(nn, "forward", counting)
        return rows

    def test_block_rows_follow_the_widest_activation(self):
        assert nn.ModelSpec.mlp(2, [32, 32], 2).block_rows == (2 << 20) // (32 * 8)
        # 8 channels of 32 x 32 outnumber the 3 x 32 x 32 input
        conv = nn.ModelSpec.small_conv((3, 32, 32), [8, 8], 10)
        assert conv.block_rows == 32
        assert nn.ModelSpec.mlp(1 << 19, [2], 2).block_rows == 1

    def test_ragged_mlp_gradient_equals_per_block_calls_bit_for_bit(self, monkeypatch):
        monkeypatch.setattr(nn, "_ROW_BLOCK_BYTES", 4 * 6 * 8)   # 4 rows of the 6-unit layer
        spec = nn.ModelSpec.mlp(3, [6, 5], 2)
        params = nn.init(spec, 3)
        x = np.random.default_rng(3).normal(size=(10, 3))
        rows = self.count_forwards(monkeypatch)
        blocked = energy_grads(spec, params, x)
        assert rows == [4, 2]       # one recording per block shape; the second 4 replays
        per_block = [energy_grads(spec, params, x[s:s + 4]) for s in (0, 4, 8)]
        assert rows[2:] == [4, 4, 2]
        assert np.array_equal(blocked, np.concatenate(per_block))

    def test_rows_that_fit_one_block_take_one_pass(self, monkeypatch):
        spec = nn.ModelSpec.mlp(2, [5], 3)
        rows = self.count_forwards(monkeypatch)
        energy_grads(spec, nn.init(spec, 0), np.zeros((spec.block_rows, 2)))
        assert rows == [spec.block_rows]

    def test_bowl_blocks_by_input_width(self, monkeypatch):
        monkeypatch.setattr(nn, "_ROW_BLOCK_BYTES", 3 * 2 * 8)   # 3 rows of 2 values
        x = np.random.default_rng(4).normal(size=(7, 2))
        spec = bowl(2, 1)                   # built under the patch: 3-row blocks
        rows = self.count_forwards(monkeypatch)
        grads = energy_grads(spec, {}, x)
        assert rows == [3, 1]               # one recording per block shape; the second 3 replays
        assert np.allclose(grads, x, atol=1e-12)    # E = ||x||^2 / 2


class TestApproximateMass:
    def test_linear_model_constant_score(self):
        spec, params = linear_single_logit([3.0, 4.0])
        x = np.random.default_rng(1).normal(size=(5, 2))
        scores = en.approximate_mass_score(spec, params, x)
        assert np.allclose(scores, -5.0, atol=1e-12)

    def test_never_positive(self):
        spec = nn.ModelSpec.mlp(2, [6], 3)
        params = nn.init(spec, 2)
        x = np.random.default_rng(2).normal(size=(10, 2))
        assert np.all(en.approximate_mass_score(spec, params, x) <= 0.0)

    def test_equals_negated_gradient_magnitude(self):
        spec = nn.ModelSpec.mlp(2, [6], 3)
        params = nn.init(spec, 3)
        x = np.random.default_rng(3).normal(size=(8, 2))
        egm = np.linalg.norm(energy_grads(spec, params, x), axis=1)
        assert np.array_equal(en.approximate_mass_score(spec, params, x), -egm)
