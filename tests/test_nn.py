import json

import numpy as np
import pytest

from ebmkit import autodiff as ad
from ebmkit import nn
from oracles import (central_diff, close_rel, energy_grads, he_normal_init, naive_mlp_forward,
                     scalar_adam)


def mlp_params_as_lists(params, spec):
    weights, biases = [], []
    for i, layer in enumerate(spec.layers):
        if isinstance(layer, nn.Dense):
            weights.append(params.arrays[f"layer{i}.w"])
            biases.append(params.arrays[f"layer{i}.b"])
    return weights, biases


class TestForward:
    def test_zero_parameters_zero_logits(self):
        spec = nn.ModelSpec.mlp(3, [4], 2)
        params = nn.init(spec, 0)
        for name in params.arrays:
            params.arrays[name][:] = 0.0
        logits = nn.forward(spec, params, np.random.default_rng(0).normal(size=(5, 3)))
        assert np.array_equal(logits.value, np.zeros((5, 2)))

    def test_identity_dense(self):
        spec = nn.ModelSpec(layers=(nn.Dense(2, 2),), input_shape=(2,), classes=2)
        params = nn.Parameters({"layer0.w": np.eye(2), "layer0.b": np.zeros(2)})
        logits = nn.forward(spec, params, np.array([[1.0, 2.0]]))
        assert np.array_equal(logits.value, [[1.0, 2.0]])

    def test_random_mlp_matches_loop_oracle(self):
        rng = np.random.default_rng(5)
        spec = nn.ModelSpec.mlp(2, [32], 2)
        params = nn.init(spec, 5)
        x = rng.normal(size=(7, 2))
        got = nn.forward(spec, params, x).value
        weights, biases = mlp_params_as_lists(params, spec)
        want = naive_mlp_forward(x, weights, biases)
        assert np.allclose(got, want, atol=1e-12)

    def test_forward_is_pure(self):
        spec = nn.ModelSpec.mlp(2, [8], 2)
        params = nn.init(spec, 1)
        x = np.random.default_rng(2).normal(size=(4, 2))
        a = nn.forward(spec, params, x).value
        b = nn.forward(spec, params, x).value
        assert np.array_equal(a, b)

    def test_shape_mismatch_raises(self):
        spec = nn.ModelSpec.mlp(3, [4], 2)
        params = nn.init(spec, 0)
        with pytest.raises(ad.ShapeError):
            nn.forward(spec, params, np.zeros((5, 4)))

    def test_conv_net_shapes(self):
        spec = nn.ModelSpec.small_conv((3, 8, 8), [4, 4], 10)
        params = nn.init(spec, 3)
        x = np.random.default_rng(1).normal(size=(2, 3, 8, 8))
        logits = nn.forward(spec, params, x)
        assert logits.shape == (2, 10)

    def test_cross_entropy_gradient_matches_fd(self):
        # ties the model forward into the autodiff oracle suite
        rng = np.random.default_rng(8)
        spec = nn.ModelSpec.mlp(2, [6], 2)
        params = nn.init(spec, 8)
        x = rng.normal(size=(3, 2))
        labels = np.array([0, 1, 1])

        def ce_value(arrays):
            p = nn.Parameters(arrays)
            logits = nn.forward(spec, p, x).value
            lse = np.log(np.sum(np.exp(logits - logits.max(1, keepdims=True)), 1)) \
                + logits.max(1)
            return float(np.mean(lse - logits[np.arange(3), labels]))

        tape = ad.Tape()
        bound = {name: tape.leaf(v) for name, v in params.items()}
        logits = nn.forward(spec, bound, tape.leaf(x))
        ce = ad.mean(ad.sub(ad.logsumexp(logits, axis=1), ad.gather(logits, np.eye(2)[labels])))
        gm = ad.backward(tape, ce, list(bound.values()))

        for name, leaf in bound.items():
            def f(v, name=name):
                arrays = {k: a.copy() for k, a in params.arrays.items()}
                arrays[name] = v
                return ce_value(arrays)
            fd = central_diff(f, params.arrays[name], h=1e-5)
            assert close_rel(gm[leaf].value, fd, 1e-5), name


class TestInit:
    def test_deterministic(self):
        spec = nn.ModelSpec.mlp(4, [8], 3)
        assert nn.init(spec, 42) == nn.init(spec, 42)

    def test_seed_sensitivity(self):
        spec = nn.ModelSpec.mlp(4, [8], 3)
        assert not (nn.init(spec, 1) == nn.init(spec, 2))

    def test_he_variance(self):
        spec = nn.ModelSpec(layers=(nn.Dense(256, 256),), input_shape=(256,), classes=256)
        w = nn.init(spec, 0).arrays["layer0.w"]
        target = 2.0 / 256
        assert abs(w.var() - target) < 0.2 * target

    def test_biases_zero(self):
        spec = nn.ModelSpec.mlp(4, [8], 3)
        params = nn.init(spec, 0)
        assert np.array_equal(params.arrays["layer0.b"], np.zeros(8))

    @pytest.mark.parametrize("spec", [
        nn.ModelSpec.mlp(3, [5, 4], 2),
        nn.ModelSpec.small_conv((2, 6, 6), [3, 4], 5),
        nn.ModelSpec((nn.Conv(2, 3, 5), nn.Relu(), nn.Flatten(), nn.Dense(108, 4)), (2, 6, 6), 4),
    ], ids=["mlp", "small_conv", "conv_k5"])
    def test_draws_equal_a_he_normal_oracle_bit_for_bit(self, spec):
        got, want = nn.init(spec, 11), he_normal_init(spec, 11)
        assert list(got) == list(want)
        for name, arr in want.items():
            assert got[name].shape == arr.shape and got[name].tobytes() == arr.tobytes()


class TestAdam:
    def test_zero_gradient_is_identity(self):
        spec = nn.ModelSpec.mlp(2, [4], 2)
        params = nn.init(spec, 0)
        before = params.copy()
        state = nn.AdamState.for_params(params, lr=0.1)
        zeros = {k: np.zeros_like(v) for k, v in params.arrays.items()}
        nn.adam_step(state, params, zeros)
        assert params == before
        assert state.t == 1

    def test_single_step_hand_value(self):
        params = nn.Parameters({"w": np.array([1.0])})
        state = nn.AdamState.for_params(params, lr=0.1)
        nn.adam_step(state, params, {"w": np.array([1.0])})
        # bias correction makes the first step ~ lr * sign(g)
        assert params.arrays["w"][0] == pytest.approx(1.0 - 0.1, abs=1e-8)

    def test_two_steps_match_scalar_oracle(self):
        params = nn.Parameters({"w": np.array([0.5])})
        state = nn.AdamState.for_params(params, lr=0.01)
        grads = [0.3, -1.2]
        expected = scalar_adam(0.5, grads, lr=0.01)
        for g, want in zip(grads, expected):
            nn.adam_step(state, params, {"w": np.array([g])})
            assert abs(params.arrays["w"][0] - want) < 1e-12

    def test_lr_zero_is_identity(self):
        params = nn.Parameters({"w": np.array([2.0, -1.0])})
        before = params.copy()
        state = nn.AdamState.for_params(params, lr=0.0)
        nn.adam_step(state, params, {"w": np.array([5.0, -3.0])})
        assert params == before

    def test_non_finite_gradient_names_parameter(self):
        params = nn.Parameters({"w": np.array([1.0])})
        state = nn.AdamState.for_params(params)
        with pytest.raises(ValueError, match="'w'"):
            nn.adam_step(state, params, {"w": np.array([np.nan])})

    def test_flat_update_equals_the_per_name_formula_bit_for_bit(self):
        params = nn.init(nn.ModelSpec.mlp(3, [5, 4], 2), 0)
        state = nn.AdamState.for_params(params, lr=0.01)
        want = {k: v.copy() for k, v in params.arrays.items()}
        m = {k: np.zeros_like(v) for k, v in want.items()}
        v = {k: np.zeros_like(a) for k, a in want.items()}
        rng = np.random.default_rng(1)
        for t in range(1, 6):
            grads = {k: rng.normal(size=a.shape) * 10.0 ** rng.integers(-4, 2)
                     for k, a in want.items()}
            nn.adam_step(state, params, grads)
            for k, g in grads.items():      # the update as written per parameter
                m[k] = 0.9 * m[k] + (1 - 0.9) * g
                v[k] = 0.999 * v[k] + (1 - 0.999) * np.square(g)
                mhat, vhat = m[k] / (1 - 0.9 ** t), v[k] / (1 - 0.999 ** t)
                want[k] = want[k] - 0.01 * mhat / (np.sqrt(vhat) + 1e-8)
                assert np.array_equal(params.arrays[k], want[k]), (t, k)
                assert np.array_equal(state.m[k], m[k]) and np.array_equal(state.v[k], v[k])

    def test_non_finite_gradient_names_its_parameter_and_changes_nothing(self):
        params = nn.init(nn.ModelSpec.mlp(2, [4], 3), 0)
        state = nn.AdamState.for_params(params, lr=0.1)
        nn.adam_step(state, params, {k: np.ones_like(v) for k, v in params.arrays.items()})
        before, moments = params.copy(), (state.flat_m.copy(), state.flat_v.copy())
        grads = {k: np.ones_like(v) for k, v in params.arrays.items()}
        grads["layer2.w"][1, 2] = np.inf
        with pytest.raises(nn.NonFiniteGradient, match="'layer2.w'"):
            nn.adam_step(state, params, grads)
        assert params == before and state.t == 1
        assert np.array_equal(state.flat_m, moments[0]) and np.array_equal(state.flat_v, moments[1])


class TestModelSpec:
    def test_shape_inference_rejects_bad_stack(self):
        with pytest.raises(ValueError):
            nn.ModelSpec(layers=(nn.Dense(2, 3), nn.Dense(4, 2)),
                         input_shape=(2,), classes=2)

    def test_final_layer_must_match_classes(self):
        with pytest.raises(ValueError, match="logits"):
            nn.ModelSpec(layers=(nn.Dense(2, 3),), input_shape=(2,), classes=2)

    # k = 7 is larger than the 6 x 5 image
    @pytest.mark.parametrize("k", [1, 3, 5, 7])
    def test_a_conv_keeps_its_input_size(self, k):
        spec = nn.ModelSpec((nn.Conv(2, 3, k), nn.Flatten(), nn.Dense(90, 4)), (2, 6, 5), 4)
        assert spec.layers[0].out_shape((2, 6, 5)) == (3, 6, 5)
        assert spec(nn.init(spec, 0), np.zeros((1, 2, 6, 5))).shape == (1, 4)

    def test_an_even_conv_kernel_is_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            nn.ModelSpec((nn.Conv(2, 3, 2), nn.Flatten(), nn.Dense(90, 4)), (2, 6, 5), 4)

    def test_roundtrip_dict(self):
        spec = nn.ModelSpec.small_conv((3, 8, 8), [4], 10)
        assert nn.ModelSpec.from_dict(spec.to_dict()) == spec

    def test_every_layer_kind_survives_its_dict(self):
        spec = nn.ModelSpec((nn.Bowl(3, -1.0),), (3,), 1)
        assert spec.to_dict()["layers"] == [{"kind": "bowl", "dim": 3, "curvature": -1.0}]
        assert nn.ModelSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec

    def test_an_unknown_layer_kind_is_rejected(self):
        d = nn.ModelSpec.mlp(2, [3], 2).to_dict()
        d["layers"][1] = {"kind": "tanh"}
        with pytest.raises(ValueError, match="unknown layer kind 'tanh'"):
            nn.ModelSpec.from_dict(d)

    # the model entry of a checkpoint (format v1), as its JSON text
    @pytest.mark.parametrize("spec, text", [
        (nn.ModelSpec.mlp(2, [32, 32], 2),
         '{"layers": [{"kind": "dense", "in": 2, "out": 32}, {"kind": "relu"}, '
         '{"kind": "dense", "in": 32, "out": 32}, {"kind": "relu"}, '
         '{"kind": "dense", "in": 32, "out": 2}], "input_shape": [2], "classes": 2}'),
        (nn.ModelSpec.small_conv((3, 32, 32), [8, 8], 10),
         '{"layers": [{"kind": "conv", "in": 3, "out": 8, "kernel": 3}, '
         '{"kind": "relu"}, {"kind": "conv", "in": 8, "out": 8, "kernel": 3}, '
         '{"kind": "relu"}, {"kind": "flatten"}, {"kind": "dense", "in": 8192, "out": 10}], '
         '"input_shape": [3, 32, 32], "classes": 10}'),
    ], ids=["mlp", "small_conv"])
    def test_dict_json_is_unchanged(self, spec, text):
        assert json.dumps(spec.to_dict()) == text
        assert nn.ModelSpec.from_dict(json.loads(text)) == spec

    def test_a_spec_is_called_as_a_model(self):
        spec = nn.ModelSpec.mlp(3, [4], 2)
        params, x = nn.init(spec, 1), np.random.default_rng(1).normal(size=(5, 3))
        assert np.array_equal(spec(params, x).value, nn.forward(spec, params, x).value)


class TestBowl:
    """The parameter-free test energy E(x) = 0.5 * curvature * ||x||^2."""

    # dims on both sides of ad._reduce's fold of a 2- to 7-wide last axis
    @pytest.mark.parametrize("dim", [1, 2, 5, 8, 9])
    def test_forward_equals_the_two_bowl_formulas_bit_for_bit(self, dim):
        x = ad.Tensor(np.random.default_rng(dim).normal(size=(6, dim)))
        sq = ad.mul(ad.sum_(ad.square(x), axis=1), 0.5)
        for curvature, logit in ((1.0, ad.neg(sq)), (-1.0, sq)):
            spec = nn.ModelSpec((nn.Bowl(dim, curvature),), (dim,), 1)
            assert np.array_equal(spec({}, x).value, logit.value.reshape(6, 1))

    @pytest.mark.parametrize("curvature", [1.0, -1.0, 3.0])
    def test_energy_gradient_is_curvature_times_x_exactly(self, curvature):
        spec = nn.ModelSpec((nn.Bowl(4, curvature),), (4,), 1)
        x = np.random.default_rng(2).normal(size=(7, 4))
        assert np.array_equal(energy_grads(spec, {}, x), curvature * x)

    def test_spec_has_one_logit_blocks_by_input_width_and_checks_it(self):
        spec = nn.ModelSpec((nn.Bowl(3, 1.0),), (3,), 1)
        assert spec.classes == 1 and spec.block_rows == (2 << 20) // (8 * 3)
        assert nn.init(spec, 0) == nn.Parameters({})
        with pytest.raises(ad.ShapeError):
            spec({}, np.zeros((2, 4)))
        with pytest.raises(ValueError):
            nn.ModelSpec((nn.Bowl(3, 1.0),), (4,), 1)
