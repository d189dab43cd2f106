import dataclasses
import tracemalloc

import numpy as np
import pytest

from ebmkit import energy as en
from ebmkit import nn
from ebmkit import sampler as smp
from oracles import (ListReplayBuffer, list_buffer_draw, list_buffer_push, per_row_sgld_chain,
                     traced_peak_bytes)


def quad_config(**kw):
    defaults = dict(n_steps=20, step_size=1.0, noise=False)
    defaults.update(kw)
    return smp.SgldConfig(**defaults)


class TestBufferDraw:
    def test_empty_buffer_all_fresh_within_bounds(self):
        buf = smp.ReplayBuffer(capacity=10, rng=0)
        x0, idx = smp.buffer_draw(buf, 16, (-1.0, 1.0), (3,))
        assert np.all(idx == -1)
        assert x0.shape == (16, 3)
        assert np.all((x0 >= -1.0) & (x0 <= 1.0))

    def test_reinit_prob_one_ignores_cache(self):
        buf = smp.ReplayBuffer(capacity=10, reinit_prob=1.0, rng=0)
        smp.buffer_push(buf, np.full((5, 2), 7.0), np.full(5, -1))
        x0, idx = smp.buffer_draw(buf, 8, (-1.0, 1.0), (2,))
        assert np.all(idx == -1)
        assert np.all(np.abs(x0) <= 1.0)

    def test_fresh_fraction_statistics(self):
        # binomial CI: 1e5 draws at p=0.05 -> fraction within 0.05 +/- 0.005
        buf = smp.ReplayBuffer(capacity=100, reinit_prob=0.05, rng=42)
        smp.buffer_push(buf, np.zeros((100, 1)), np.full(100, -1))
        n = 100_000
        x0, idx = smp.buffer_draw(buf, n, (-1.0, 1.0), (1,))
        fresh = float(np.mean(idx == -1))
        assert abs(fresh - 0.05) <= 0.005

    def test_draw_determinism(self):
        a = smp.ReplayBuffer(capacity=10, rng=9)
        b = smp.ReplayBuffer(capacity=10, rng=9)
        for buf in (a, b):
            smp.buffer_push(buf, np.arange(6, dtype=float).reshape(3, 2), np.full(3, -1))
        xa, ia = smp.buffer_draw(a, 12, (-1.0, 1.0), (2,))
        xb, ib = smp.buffer_draw(b, 12, (-1.0, 1.0), (2,))
        assert np.array_equal(xa, xb)
        assert np.array_equal(ia, ib)


class TestBufferPush:
    def test_push_to_empty_stores_all(self):
        buf = smp.ReplayBuffer(capacity=10, rng=0)
        smp.buffer_push(buf, np.ones((4, 2)), np.full(4, -1))
        assert len(buf) == 4

    def test_fifo_eviction(self):
        buf = smp.ReplayBuffer(capacity=3, rng=0)
        smp.buffer_push(buf, np.array([[0.0], [1.0], [2.0], [3.0]]), np.full(4, -1))
        assert len(buf) == 3
        stored = [buf.sample_at(i)[0] for i in range(3)]
        assert stored == [1.0, 2.0, 3.0]

    def test_replaces_drawn_entries_in_place(self):
        buf = smp.ReplayBuffer(capacity=5, rng=0)
        smp.buffer_push(buf, np.array([[1.0], [2.0]]), np.full(2, -1))
        smp.buffer_push(buf, np.array([[9.0]]), np.array([0]))
        assert buf.sample_at(0)[0] == 9.0
        assert len(buf) == 2

    def test_cached_rows_keep_their_slots_when_a_fresh_row_evicts(self):
        buf = smp.ReplayBuffer(capacity=3, rng=0)
        smp.buffer_push(buf, np.array([[0.0], [1.0], [2.0]]), np.full(3, -1))
        smp.buffer_push(buf, np.array([[10.0], [22.0]]), np.array([-1, 2]))
        assert [buf.sample_at(i)[0] for i in range(len(buf))] == [1.0, 22.0, 10.0]

    def test_non_finite_rows_dropped(self):
        buf = smp.ReplayBuffer(capacity=5, rng=0)
        bad = np.array([[np.nan], [np.inf], [1.0]])
        smp.buffer_push(buf, bad, np.full(3, -1))
        assert len(buf) == 1
        assert buf.sample_at(0)[0] == 1.0

    def test_sanity_bound_filters(self):
        buf = smp.ReplayBuffer(capacity=5, rng=0, sanity_bound=2.0)
        smp.buffer_push(buf, np.array([[1.5], [5.0]]), np.full(2, -1))
        assert len(buf) == 1


class TestSgldChain:
    def test_quadratic_one_step_halves(self):
        model = smp.QuadraticBowlEnergy()
        x0 = np.array([[0.8, -0.6]])
        out = smp.sgld_chain(model, {}, x0, quad_config(n_steps=1))
        assert np.allclose(out.samples, x0 / 2.0, atol=1e-12)
        assert not out.report.diverged

    def test_quadratic_twenty_steps_geometric(self):
        model = smp.QuadraticBowlEnergy()
        x0 = np.array([[1.0, 0.0]])
        out = smp.sgld_chain(model, {}, x0, quad_config(n_steps=20))
        assert np.linalg.norm(out.samples) == pytest.approx(2.0 ** -20, rel=1e-9)

    def test_concave_divergence_at_predicted_step(self):
        model = smp.ConcaveBowlEnergy()
        x0 = np.array([[1.0]])
        config = quad_config(n_steps=60, divergence_bound=10.0)
        out = smp.sgld_chain(model, {}, x0, config)
        assert out.report.diverged
        assert out.report.reason == "bound-exceeded"
        # |x| after k updates = 1.5^k; first k with 1.5^k > 10, 0-based step k-1
        predicted = int(np.ceil(np.log(10.0) / np.log(1.5))) - 1
        assert abs(out.report.step - predicted) <= 1
        assert out.report.magnitude > 10.0

    def test_diverged_chain_frozen_others_run(self):
        model = smp.ConcaveBowlEnergy()
        x0 = np.array([[1.0], [1e-6]])
        config = quad_config(n_steps=10, divergence_bound=10.0)
        out = smp.sgld_chain(model, {}, x0, config)
        assert out.report.diverged_mask.tolist() == [True, False]
        assert np.all(np.isfinite(out.samples))

    def test_noise_seed_determinism(self):
        model = smp.QuadraticBowlEnergy()
        x0 = np.random.default_rng(0).uniform(-1, 1, size=(4, 2))
        config = smp.SgldConfig(n_steps=5, step_size=0.1, noise=True)
        a = smp.sgld_chain(model, {}, x0, config, rng=123)
        b = smp.sgld_chain(model, {}, x0, config, rng=123)
        assert np.array_equal(a.samples, b.samples)

    def test_parameters_never_mutated(self):
        spec = nn.ModelSpec.mlp(2, [6], 2)
        params = nn.init(spec, 0)
        before = params.copy()
        x0 = np.random.default_rng(1).uniform(-1, 1, size=(3, 2))
        smp.sgld_chain(spec, params, x0, smp.SgldConfig(n_steps=5, step_size=0.1), rng=7)
        assert params == before

    def test_polynomial_decay_schedule(self):
        config = smp.SgldConfig(n_steps=3, step_size=2.0, decay_exponent=1.0)
        assert config.step_at(0) == 2.0
        assert config.step_at(1) == 1.0
        assert config.step_at(3) == 0.5

    def test_peak_memory_follows_the_block_not_the_chain_count(self):
        spec = nn.ModelSpec.small_conv((1, 8, 8), [4], 3)
        params = nn.init(spec, 0)
        config = quad_config(n_steps=2, step_size=0.01, noise=True)
        rng = np.random.default_rng(1)

        def peak(n):
            x0 = rng.uniform(-1, 1, size=(n, 1, 8, 8))
            return traced_peak_bytes(smp.sgld_chain, spec, params, x0, config)
        assert peak(4 * spec.block_rows) < 1.5 * peak(spec.block_rows)


def eager_steps(monkeypatch):
    """Make every chain step record a fresh tape, as the gradient ran before
    chains replayed it."""
    real = en._block_grads
    monkeypatch.setattr(en, "_block_grads",
                        lambda model, params, programs=None: real(model, params))


def assert_same_chain(a, b):
    assert np.array_equal(a.samples, b.samples)
    assert np.array_equal(a.report.diverged_mask, b.report.diverged_mask)
    assert (a.report.diverged, a.report.step, a.report.magnitude, a.report.reason) == \
        (b.report.diverged, b.report.step, b.report.magnitude, b.report.reason)
    assert a.egm_trace == b.egm_trace and a.converged == b.converged


class TestReplayedChain:
    """A chain records its input gradient on the first step and replays it."""

    def test_one_dict_serves_two_parameter_sets(self):
        # chains keep one dict across a run whose parameters change: each set
        # must get its own gradient, not the one the recording saw
        spec = nn.ModelSpec.mlp(2, [8], 3)
        sets = [nn.init(spec, 1), nn.init(spec, 2)]
        x = np.random.default_rng(2).uniform(-1, 1, size=(5, 2))
        programs = {}
        for params in sets + sets:
            got = en.energy_grad_input(spec, params, x, programs)
            assert np.array_equal(got, en.energy_grad_input(spec, params, x))
        assert list(programs) == [(5, 2)]
        assert not np.array_equal(en.energy_grad_input(spec, sets[0], x),
                                  en.energy_grad_input(spec, sets[1], x))

    def test_callable_energy_samples_through_a_kept_dict(self):
        model, config = smp.QuadraticBowlEnergy(), quad_config(n_steps=4, noise=True)
        x0 = np.random.default_rng(3).uniform(-1, 1, size=(6, 2))
        programs = {}
        for seed in (5, 6):
            kept = smp.sgld_chain(model, {}, x0, config, rng=seed, programs=programs)
            assert_same_chain(kept, smp.sgld_chain(model, {}, x0, config, rng=seed))
        assert list(programs) == [(6, 2)]

    # model -> (spec, input shape, a divergence bound that some chains cross)
    MODELS = {"mlp": (nn.ModelSpec.mlp(2, [32, 32], 2), (2,), 3.0),
              "conv": (nn.ModelSpec.small_conv((2, 6, 6), [4, 4], 3), (2, 6, 6), 5.0)}

    @pytest.mark.parametrize("rows", [5, 12])
    @pytest.mark.parametrize("model", sorted(MODELS))
    @pytest.mark.parametrize("kind", ["noisy", "noise_free", "diverging"])
    def test_equals_eager_steps_bit_for_bit(self, monkeypatch, model, rows, kind):
        monkeypatch.setattr(nn, "_ROW_BLOCK_BYTES", 4 * 4 * 36 * 8)  # 4-row conv blocks
        base, shape, bound = self.MODELS[model]
        spec = nn.ModelSpec(base.layers, shape, base.classes)    # blocks under the patch
        params = nn.init(spec, 3)
        config = {"noisy": smp.SgldConfig(n_steps=6, step_size=0.05),
                  "noise_free": smp.SgldConfig(n_steps=6, step_size=0.5, noise=False),
                  "diverging": smp.SgldConfig(n_steps=6, step_size=0.5,
                                              divergence_bound=bound)}[kind]
        x0 = np.random.default_rng(rows).uniform(-1, 1, size=(rows,) + shape)
        replayed = smp.sgld_chain(spec, params, x0, config, rng=5)
        eager_steps(monkeypatch)
        assert_same_chain(replayed, smp.sgld_chain(spec, params, x0, config, rng=5))
        if kind == "diverging":
            assert 0 < replayed.report.diverged_mask.sum() < rows

    def test_four_steps_peak_near_one_eager_step(self, monkeypatch):
        # recording holds no value past its last reader, as an untaped
        # backward, and replaying holds no tape: a 32-image block of the
        # benchmark's conv net
        spec = nn.ModelSpec.small_conv((3, 32, 32), [8, 8], 10)
        params = nn.init(spec, 0)
        x0 = np.random.default_rng(2).uniform(-1, 1, size=(spec.block_rows, 3, 32, 32))
        config = smp.SgldConfig(n_steps=4, step_size=0.01)
        replayed = traced_peak_bytes(smp.sgld_chain, spec, params, x0, config)
        eager_steps(monkeypatch)
        one_eager = traced_peak_bytes(smp.sgld_chain, spec, params, x0,
                                      dataclasses.replace(config, n_steps=1))
        assert replayed <= 1.4 * one_eager, replayed / one_eager


class PoisonedNoise(np.random.Generator):
    """A generator whose ``normal`` draw number k sets ``rows`` to ``value``,
    for each ``(k, rows, value)`` in ``faults``: a chain's noise is drawn once
    a step, so its proposal goes bad in those rows at step k."""

    @classmethod
    def seeded(cls, seed, faults):
        rng = cls(np.random.PCG64(seed))
        rng.faults, rng.draws = faults, 0
        return rng

    def normal(self, *args, **kwargs):
        out = super().normal(*args, **kwargs)
        for k, rows, value in self.faults:
            if k == self.draws:
                out[rows] = value
        self.draws += 1
        return out


@pytest.mark.filterwarnings("ignore::RuntimeWarning")     # numpy warns as chains go non-finite
class TestChainAgainstPerRowLoop:
    """sgld_chain against the loop that checked every row at every step
    (oracles.per_row_sgld_chain): the same samples, mask, step, reason,
    magnitude and trace, bit for bit."""

    MODELS = {"mlp": (nn.ModelSpec.mlp(2, [16, 16], 2), (2,)),
              "conv": (nn.ModelSpec.small_conv((2, 6, 6), [4], 3), (2, 6, 6)),
              "concave_bowl": (smp.ConcaveBowlEnergy(), (3,))}
    N_STEPS = 8
    WHEN = {"first": 0, "middle": N_STEPS // 2, "last": N_STEPS - 1}
    VALUE = {"nan": np.nan, "inf": np.inf, "bound": 50.0}    # default bound: 10
    REASON = {"nan": "non-finite", "inf": "non-finite", "bound": "bound-exceeded"}

    def start(self, model, rows, scale=1.0):
        # row i drawn from [-s, s] with s growing to ``scale``, so rows cross a bound in turn
        spec, shape = self.MODELS[model]
        params = nn.init(spec, 0) if isinstance(spec, nn.ModelSpec) else {}
        scales = np.linspace(scale / 10, scale, rows).reshape((-1,) + (1,) * len(shape))
        x0 = np.random.default_rng(rows).uniform(-1.0, 1.0, size=(rows,) + shape) * scales
        return spec, params, x0

    @staticmethod
    def both(spec, params, x0, config, rng=lambda: 5):
        """Both chains from the same start and noise; NaN compared by its bits."""
        want = per_row_sgld_chain(spec, params, x0, config, rng=rng())
        got = smp.sgld_chain(spec, params, x0, config, rng=rng())
        assert got.samples.tobytes() == want.samples.tobytes()
        assert np.array_equal(got.report.diverged_mask, want.report.diverged_mask)
        assert (got.report.diverged, got.report.step, got.report.magnitude, got.report.reason) \
            == (want.report.diverged, want.report.step, want.report.magnitude, want.report.reason)
        assert np.array(got.egm_trace).tobytes() == np.array(want.egm_trace).tobytes()
        assert got.converged == want.converged
        return want

    @pytest.mark.parametrize("model", sorted(MODELS))
    @pytest.mark.parametrize("fault", sorted(VALUE))
    @pytest.mark.parametrize("when", sorted(WHEN))
    def test_noisy_chains_fault_at_a_chosen_step(self, model, fault, when):
        # row 1 goes bad at the chosen step, row 3 two steps later in another
        # way, while rows 0, 2 and 4 run on beside the frozen ones
        spec, params, x0 = self.start(model, 5)
        k = self.WHEN[when]
        later = "bound" if fault != "bound" else "nan"
        faults = [(k, [1], self.VALUE[fault]), (k + 2, [3], self.VALUE[later])]
        config = smp.SgldConfig(n_steps=self.N_STEPS, step_size=0.05)
        want = self.both(spec, params, x0, config, lambda: PoisonedNoise.seeded(7, faults))
        assert (want.report.step, want.report.reason) == (k, self.REASON[fault])
        assert want.report.diverged_mask.tolist() == [False, True, False, k + 2 < self.N_STEPS,
                                                      False]

    @pytest.mark.parametrize("model", sorted(MODELS))
    @pytest.mark.parametrize("noise", [True, False])
    def test_healthy_chains(self, model, noise):
        spec, params, x0 = self.start(model, 6)
        config = smp.SgldConfig(n_steps=self.N_STEPS, step_size=0.05, noise=noise)
        assert not self.both(spec, params, x0, config).report.diverged

    @pytest.mark.parametrize("model", sorted(MODELS))
    @pytest.mark.parametrize("fault", sorted(VALUE))
    def test_noise_free_chains_starting_bad(self, model, fault):
        spec, params, x0 = self.start(model, 4)
        x0[2] = self.VALUE[fault]
        config = smp.SgldConfig(n_steps=self.N_STEPS, step_size=0.05, noise=False)
        want = self.both(spec, params, x0, config)
        assert want.report.step == 0 and want.report.diverged_mask.tolist() == [0, 0, 1, 0]

    @pytest.mark.parametrize("model", sorted(MODELS))
    @pytest.mark.parametrize("when", ["middle", "last"])
    def test_noise_free_chains_cross_the_bound(self, model, when):
        # the bound is the largest |x| of the unbounded chain's first k + 1
        # states, so the first crossing is the proposal of step k
        spec, params, x0 = self.start(model, 5, scale=3.0)
        k = self.WHEN[when]
        free = smp.SgldConfig(n_steps=self.N_STEPS, step_size=2.0, noise=False,
                              divergence_bound=np.inf)
        states = [np.abs(per_row_sgld_chain(spec, params, x0, dataclasses.replace(
            free, n_steps=j)).samples).max() for j in range(k + 2)]
        config = dataclasses.replace(free, divergence_bound=max(states[:-1]))
        want = self.both(spec, params, x0, config)
        assert want.report.step == k and want.report.reason == "bound-exceeded"
        at_k = self.both(spec, params, x0, dataclasses.replace(config, n_steps=k + 1))
        assert 0 < at_k.report.diverged_mask.sum() < len(x0)

    @pytest.mark.parametrize("noise", [True, False])
    def test_an_infinite_bound_still_freezes_a_non_finite_chain(self, noise):
        # noisy: row 0's proposal is inf at step 4. Noise-free: row 0 starts
        # at 1e153 and grows 1.5x a step, so its logit 0.5 * ||x||^2 overflows
        # at step 6, and the gradient, so the proposal, is NaN
        spec, params, x0 = self.start("concave_bowl", 3)
        x0[0] = 0.0 if noise else 1e153
        config = smp.SgldConfig(n_steps=self.N_STEPS, step_size=0.05 if noise else 1.0,
                                noise=noise, divergence_bound=np.inf)
        want = self.both(spec, params, x0, config,
                         lambda: PoisonedNoise.seeded(7, [(4, [0], np.inf)]))
        assert (want.report.step, want.report.reason) == (4 if noise else 6, "non-finite")
        assert want.report.diverged_mask.tolist() == [True, False, False]


class TestRingAgainstListStore:
    """The array ring against the list store it replaced
    (oracles.ListReplayBuffer): the same draws, slots, FIFO order,
    snapshot and RNG state after every operation."""

    @pytest.mark.parametrize("seed", range(8))
    def test_random_pushes_and_draws(self, seed):
        rng = np.random.default_rng([seed, 11])
        capacity = int(rng.integers(1, 9))
        kwargs = dict(capacity=capacity, reinit_prob=float(rng.uniform(0.0, 0.6)),
                      rng=seed, sanity_bound=2.0)
        ring, ref = smp.ReplayBuffer(**kwargs), ListReplayBuffer(**kwargs)
        shape = (2, 3)
        drawn = np.zeros(0, dtype=np.int64)
        for _ in range(60):
            if rng.random() < 0.4:
                n = int(rng.integers(1, 8))
                got = smp.buffer_draw(ring, n, (-1.0, 1.0), shape)
                want = list_buffer_draw(ref, n, (-1.0, 1.0), shape)
                assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
                drawn = want[1]
            else:
                # a push larger than the capacity, rows rejected for NaN or
                # bound, and slots that repeat, are stale or come from the last draw
                n = int(rng.integers(1, 2 * capacity + 3))
                x = rng.uniform(-1.0, 1.0, size=(n,) + shape)
                x[rng.random(n) < 0.15] *= 5.0
                x[rng.random(n) < 0.1, 0, 0] = np.nan
                slots = rng.integers(-2, len(ref) + 2, size=n)
                slots[:min(n, len(drawn))] = drawn[:n]
                smp.buffer_push(ring, x, slots)
                list_buffer_push(ref, x, slots)
            assert len(ring) == len(ref)
            want_rows = [ref.sample_at(i) for i in range(len(ref))]
            assert all(np.array_equal(ring.sample_at(i), row) for i, row in enumerate(want_rows))
            if want_rows:
                assert np.array_equal(ring.samples(), np.stack(want_rows))
            assert ring.rng.bit_generator.state == ref.rng.bit_generator.state

    def test_a_default_buffer_holds_its_fill_not_its_capacity(self):
        # 10000 slots of 3x32x32 would be 246 MB; 64 samples are 1.6 MB
        rows = np.random.default_rng(0).uniform(-1, 1, size=(64, 3, 32, 32))
        tracemalloc.start()
        try:
            buffer = smp.ReplayBuffer(rng=0)
            smp.buffer_push(buffer, rows, np.full(64, -1))
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(buffer) == 64 and buffer.capacity == 10000
        assert held < 1.5 * rows.nbytes, held / rows.nbytes


def check_rows_two_passes(x, bound):
    """The divergence check as a finiteness pass, then a magnitude pass."""
    flat = x.reshape(x.shape[0], -1)
    finite = np.all(np.isfinite(flat), axis=1)
    magnitude = np.where(finite, np.abs(np.where(np.isfinite(flat), flat, 0.0)).max(axis=1),
                         np.inf)
    bad_bound = finite & (magnitude > bound)
    if (~finite).any():
        return ~finite | bad_bound, magnitude, "non-finite"
    if bad_bound.any():
        return bad_bound, magnitude, "bound-exceeded"
    return np.zeros(x.shape[0], dtype=bool), magnitude, None


@pytest.mark.parametrize("rows", [
    [[0.5, -0.2], [0.1, 0.3]],
    [[0.5, -3.0], [0.1, 0.3]],
    [[0.5, np.nan], [0.1, 0.3], [2.5, 0.0]],
    [[np.inf, 0.0], [-np.inf, 9.0], [0.0, -2.5]],
    [[np.nan, np.inf], [-2.0, 2.0]],
], ids=["healthy", "out_of_bound", "nan", "plus_minus_inf", "nan_and_inf"])
def test_check_rows_in_one_pass_matches_two(rows):
    x = np.array(rows).reshape(len(rows), 1, 2)
    mask, magnitude, reason = smp._check_rows(x, 2.0)
    want_mask, want_magnitude, want_reason = check_rows_two_passes(x, 2.0)
    assert np.array_equal(mask, want_mask)
    assert np.array_equal(magnitude, want_magnitude)
    assert reason == want_reason


def noise_free_chain(model, x0, config):
    return smp.sgld_chain(model, {}, x0, dataclasses.replace(config, noise=False))


class TestDeterministicChain:
    def test_egm_trace_strictly_decreasing_on_bowl(self):
        model = smp.QuadraticBowlEnergy()
        x0 = np.array([[1.0, 1.0]])
        out = noise_free_chain(model, x0, quad_config(n_steps=10, step_size=0.5))
        trace = out.egm_trace
        assert len(trace) == 10
        assert all(b < a for a, b in zip(trace, trace[1:]))

    def test_convergence_flag(self):
        model = smp.QuadraticBowlEnergy()
        x0 = np.array([[1.0, 1.0]])
        out = noise_free_chain(model, x0, quad_config(n_steps=30))
        assert out.converged is True
        short = noise_free_chain(model, x0, quad_config(n_steps=2))
        assert short.converged is False

    def test_noisy_chain_records_no_trace(self):
        model = smp.QuadraticBowlEnergy()
        out = smp.sgld_chain(model, {}, np.array([[0.5]]), quad_config(noise=True))
        assert out.egm_trace is None and out.converged is None

    def test_trace_length_equals_steps(self):
        model = smp.QuadraticBowlEnergy()
        x0 = np.array([[0.5]])
        out = noise_free_chain(model, x0, quad_config(n_steps=7))
        assert len(out.egm_trace) == 7


class TestConfigValidation:
    def test_bad_steps(self):
        with pytest.raises(ValueError):
            smp.SgldConfig(n_steps=-1)

    def test_bad_step_size(self):
        with pytest.raises(ValueError):
            smp.SgldConfig(step_size=0.0)

    def test_bad_bounds(self):
        with pytest.raises(ValueError):
            smp.SgldConfig(init_lo=1.0, init_hi=-1.0)

    def test_default_divergence_bound(self):
        assert smp.SgldConfig().bound == 10.0
