import copy
import json
import tracemalloc
import zipfile
from pathlib import Path

import numpy as np
import pytest

from ebmkit import autodiff as ad
from ebmkit import cli, losses, nn, trainer
from ebmkit import data as datamod
from ebmkit import sampler as smp
from oracles import bound_loss_graph, ece_from_bins, traced_peak_bytes

ROOT = Path(__file__).resolve().parents[1]


def blob_task(seed=0, n=100, std=0.15):
    centers = [(-0.5, 0.0), (0.5, 0.0)]
    train = datamod.gen_gaussian_mixture_2d(n, centers, std, seed=seed)
    test = datamod.gen_gaussian_mixture_2d(n, centers, std, seed=seed + 1000, split="test")
    return train, test


def ce_config(epochs=5, seed=0, **kw):
    return trainer.TrainConfig(model=nn.ModelSpec.mlp(2, [16], 2), mode=losses.Mode.CROSS_ENTROPY,
                               epochs=epochs, batch_size=32, lr=1e-2, seed=seed, **kw)


class TestTrainConfig:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(losses.ConfigError, match="beta \\+ gamma must equal 1"):
            trainer.TrainConfig(nn.ModelSpec.mlp(2, [4], 2), losses.Mode.NGEBM,
                                beta=0.4, gamma=0.4)


class TestSchedule:
    """Each epoch's learning rate, as its EpochRecord logs it: lr times
    decay_factor once for each milestone at or before the epoch."""

    @staticmethod
    def rates(lr, milestones, decay_factor, epochs):
        train_ds, test_ds = blob_task(n=4)
        config = trainer.TrainConfig(nn.ModelSpec.mlp(2, [4], 2), epochs=epochs, batch_size=8,
                                     lr=lr, milestones=milestones, decay_factor=decay_factor)
        return [record.lr for record in trainer.train(config, train_ds, test_ds)[1]]

    def test_before_first_milestone(self):
        assert self.rates(1e-3, (4, 6), 0.1, 4) == [1e-3] * 4

    def test_two_decays(self):
        assert self.rates(1e-4, (2, 4), 0.1, 6)[4:] == [pytest.approx(1e-6)] * 2

    def test_milestone_boundary_inclusive(self):
        assert self.rates(1.0, (2,), 0.5, 4) == [1.0, 1.0, 0.5, 0.5]

    def test_non_increasing(self):
        rates = self.rates(1e-3, (3, 7, 11), 0.3, 15)
        assert all(b <= a for a, b in zip(rates, rates[1:]))
        assert rates[-1] == pytest.approx(1e-3 * 0.3 ** 3)


class TestTrain:
    def test_zero_epochs_returns_init(self):
        train_ds, test_ds = blob_task()
        config = ce_config(epochs=0, seed=3)
        ckpt, log = trainer.train(config, train_ds, test_ds)
        assert len(log) == 0
        assert ckpt.epoch == 0
        assert ckpt.params == nn.init(config.model, 3)

    def test_ce_mode_fits_separable_blobs(self):
        train_ds, test_ds = blob_task(n=100)
        ckpt, log = trainer.train(ce_config(epochs=20), train_ds, test_ds)
        assert log[-1].eval_accuracy >= 0.95

    def test_ce_mode_bit_deterministic(self):
        train_ds, test_ds = blob_task(n=40)
        a, _ = trainer.train(ce_config(epochs=3, seed=11), train_ds, test_ds)
        b, _ = trainer.train(ce_config(epochs=3, seed=11), train_ds, test_ds)
        assert a.params == b.params
        assert a.adam.t == b.adam.t

    def test_resume_equivalence(self, tmp_path):
        train_ds, test_ds = blob_task(n=40)
        full, _ = trainer.train(ce_config(epochs=6, seed=5), train_ds, test_ds)

        half, _ = trainer.train(ce_config(epochs=3, seed=5), train_ds, test_ds)
        path = tmp_path / "half.npz"
        trainer.checkpoint_save(half, path)
        resumed, _ = trainer.train(ce_config(epochs=6, seed=5), train_ds, test_ds, resume=path)
        assert resumed.params == full.params

    def test_resume_past_the_configured_epochs_is_refused(self, tmp_path, monkeypatch):
        train_ds, test_ds = blob_task(n=20)
        ckpt, _ = trainer.train(ce_config(epochs=3), train_ds, test_ds)
        path = tmp_path / "epoch3.npz"
        trainer.checkpoint_save(ckpt, path)
        steps = []
        monkeypatch.setattr(trainer, "_batch_step", lambda *args: steps.append(args))
        with pytest.raises(losses.ConfigError, match="epoch 3 > epochs 2"):
            trainer.train(ce_config(epochs=2), train_ds, test_ds, resume=path)
        assert steps == []
        # resumed at its last epoch, a run takes no step and returns the checkpoint
        again, log = trainer.train(ce_config(epochs=3), train_ds, test_ds, resume=path)
        assert steps == [] and log == []
        assert again.epoch == 3 and again.params == ckpt.params

    def test_jem_resume_equivalence(self, tmp_path):
        train_ds, test_ds = blob_task(n=20)

        def jem_config(epochs):
            return trainer.TrainConfig(
                model=nn.ModelSpec.mlp(2, [8], 2), mode=losses.Mode.JEM,
                epochs=epochs, batch_size=10, lr=1e-3,
                sampler=smp.SgldConfig(n_steps=3, step_size=0.05), seed=6)

        full, _ = trainer.train(jem_config(4), train_ds, test_ds)
        half, _ = trainer.train(jem_config(2), train_ds, test_ds)
        path = tmp_path / "half.npz"
        trainer.checkpoint_save(half, path)
        resumed, _ = trainer.train(jem_config(4), train_ds, test_ds, resume=path)
        assert resumed.params == full.params
        for moments in ("m", "v"):
            want = getattr(full.adam, moments)
            got = getattr(resumed.adam, moments)
            assert all(np.array_equal(got[k], want[k]) for k in want)
        assert resumed.adam.t == full.adam.t
        assert np.array_equal(resumed.buffer_samples, full.buffer_samples)
        assert resumed.sampler_rng_state == full.sampler_rng_state
        assert resumed.buffer_rng_state == full.buffer_rng_state

    def test_ngebm_mode_trains_and_logs_penalty(self):
        train_ds, test_ds = blob_task(n=40)
        config = trainer.TrainConfig(model=nn.ModelSpec.mlp(2, [16], 2), mode=losses.Mode.NGEBM,
                                     epochs=3, batch_size=32, lr=1e-2, seed=0)
        ckpt, log = trainer.train(config, train_ds, test_ds)
        assert all(r.loss_aux > 0 for r in log)
        assert all(np.isfinite(r.mean_egm) for r in log)

    def test_jem_mode_with_divergent_sampler_counts_chains(self):
        train_ds, test_ds = blob_task(n=40)
        # near-zero bound makes every chain trip the divergence check
        sampler_cfg = smp.SgldConfig(n_steps=3, step_size=1.0, noise=True,
                                     divergence_bound=1e-9)
        config = trainer.TrainConfig(model=nn.ModelSpec.mlp(2, [8], 2), mode=losses.Mode.JEM,
                                     epochs=2, batch_size=20, lr=1e-3, sampler=sampler_cfg,
                                     seed=1)
        ckpt, log = trainer.train(config, train_ds, test_ds)
        assert all(r.diverged_chains > 0 for r in log)
        assert all(np.isfinite(r.loss_total) for r in log)

    def test_jem_mode_healthy_run(self):
        train_ds, test_ds = blob_task(n=40)
        sampler_cfg = smp.SgldConfig(n_steps=5, step_size=0.05)
        config = trainer.TrainConfig(model=nn.ModelSpec.mlp(2, [8], 2), mode=losses.Mode.JEM,
                                     epochs=2, batch_size=20, lr=1e-3, sampler=sampler_cfg,
                                     seed=2)
        ckpt, log = trainer.train(config, train_ds, test_ds)
        assert len(log) == 2
        assert all(np.isfinite(r.loss_total) for r in log)

    def _poison_batch(self, monkeypatch, epoch=0, batch=1):
        """Give batch ``batch`` of ``epoch`` NaN inputs. It has the shape of
        the batch before it, so its step replays the recorded program; the
        returned list collects the shape of each batch ``loss_graph`` records."""
        real_batches, real_graph = datamod.batches, losses.loss_graph
        recorded = []

        def batches(dataset, batch_size, seed, e):
            for i, (x, y) in enumerate(real_batches(dataset, batch_size, seed, e)):
                yield (np.full_like(x, np.nan) if (e, i) == (epoch, batch) else x), y

        def loss_graph(*args, **kw):
            recorded.append(args[2].shape)
            return real_graph(*args, **kw)

        monkeypatch.setattr(trainer.datamod, "batches", batches)
        monkeypatch.setattr(trainer.losses, "loss_graph", loss_graph)
        return recorded

    def test_abort_policy_raises_with_location(self, monkeypatch):
        train_ds, test_ds = blob_task(n=64)
        recorded = self._poison_batch(monkeypatch)
        config = ce_config(epochs=2, divergence_policy="abort")
        with pytest.raises(trainer.TrainingDiverged, match="epoch 0, batch 1"):
            trainer.train(config, train_ds, test_ds)
        assert recorded == [(32, 2)]        # batch 0 recorded; batch 1 was a replay

    def test_skip_batch_policy_counts_and_continues(self, monkeypatch):
        train_ds, test_ds = blob_task(n=64)
        recorded = self._poison_batch(monkeypatch)
        config = ce_config(epochs=2, divergence_policy="skip-batch")
        ckpt, log = trainer.train(config, train_ds, test_ds)
        assert sum(r.skipped_batches for r in log) == 1
        assert len(log) == 2
        assert recorded == [(32, 2)]

    def test_peak_memory_is_one_step_not_two_tapes(self, monkeypatch):
        # two ngebm batches of a conv net: each batch's tape is freed before
        # the next one, or the epoch's telemetry, is built; telemetry runs in
        # 4-image blocks, so its own tapes stay below a 16-image step's
        monkeypatch.setattr(nn, "_ROW_BLOCK_BYTES", 4 * 4 * 16 * 16 * 8)
        spec = nn.ModelSpec.small_conv((3, 16, 16), [4, 4], 3)
        assert spec.block_rows == 4
        rng = np.random.default_rng(0)
        train_ds = datamod.Dataset(rng.uniform(-1, 1, size=(32, 3, 16, 16)),
                                   rng.integers(0, 3, size=32), classes=3)
        eval_ds = datamod.Dataset(train_ds.x[:2], train_ds.y[:2], classes=3)
        config = trainer.TrainConfig(model=spec, mode=losses.Mode.NGEBM, epochs=1, batch_size=16,
                                     lr=1e-3, seed=0)
        params = nn.init(spec, 0)

        def one_step():
            graph, bound = bound_loss_graph(config, params, train_ds.x[:16],
                                            train_ds.y[:16])
            ad.backward(graph.tape, graph.total, list(bound.values()))

        step = traced_peak_bytes(one_step)
        whole = traced_peak_bytes(trainer.train, config, train_ds, eval_ds)
        assert whole < 1.15 * step, whole / step


_STEP_MODELS = {"mlp": nn.ModelSpec.mlp(2, [8, 8], 3),
                "conv": nn.ModelSpec.small_conv((2, 6, 6), [3, 3], 3)}
_STEP_LOSSES = {"ce": {"mode": losses.Mode.CROSS_ENTROPY},
                "ngebm": {"mode": losses.Mode.NGEBM, "beta": 0.3, "gamma": 0.7},
                "jem": {"mode": losses.Mode.JEM}}


def _eager_step(config, params, x, y, x_gen):
    """A step as loss_graph + a plain backward: total, ce, aux, then every
    parameter gradient."""
    graph, bound = bound_loss_graph(config, params, x, y, x_gen=x_gen)
    grads = ad.backward(graph.tape, graph.total, list(bound.values()))
    return [float(graph.total.value), float(graph.ce.value), float(graph.aux.value)] + [
        grads[leaf].value for leaf in bound.values()]


class TestStepProgram:
    """trainer._batch_step records one program per input shape and replays it;
    every replay is bit-identical to an eager loss_graph + backward."""

    @staticmethod
    def _batch(rng, spec, rows, gen_rows):
        shape = spec.input_shape
        return (rng.uniform(-1, 1, size=(rows,) + shape), rng.integers(0, spec.classes, rows),
                None if gen_rows is None else rng.uniform(-1, 1, size=(gen_rows,) + shape))

    @pytest.mark.parametrize("model", sorted(_STEP_MODELS))
    @pytest.mark.parametrize("mode", sorted(_STEP_LOSSES))
    def test_replay_is_bit_identical_to_an_eager_step(self, model, mode):
        spec = _STEP_MODELS[model]
        config = trainer.TrainConfig(model=spec, batch_size=8, **_STEP_LOSSES[mode])
        rng = np.random.default_rng(3)
        jem = mode == "jem"
        # full batches, then a ragged last batch; for jem also some chains
        # diverged (fewer generated rows) and none survived
        shapes = [(8, 8), (8, 8), (5, 5), (5, 5)]
        if jem:
            shapes += [(8, 6), (8, 6), (8, 0), (8, 0)]
        programs = {}
        for rows, gen_rows in shapes:
            params = nn.init(spec, int(rng.integers(1 << 16)))      # new parameters each batch
            x, y, x_gen = self._batch(rng, spec, rows, gen_rows if jem else None)
            got = trainer._batch_step(config, params, x, y, x_gen, programs)
            want = _eager_step(config, params, x, y, x_gen)
            assert len(got) == len(want) == 3 + len(params)
            for g, w in zip(got, want):
                assert np.array_equal(g, w), (model, mode, rows, gen_rows)
        assert len(programs) == len(set(shapes))

    @pytest.mark.parametrize("mode", sorted(_STEP_LOSSES))
    def test_replay_reads_new_inputs_and_labels(self, mode):
        # two same-shape batches on the same parameters: a program that froze
        # the first batch's x, labels or samples would repeat its gradients
        spec = _STEP_MODELS["mlp"]
        config = trainer.TrainConfig(model=spec, batch_size=6, **_STEP_LOSSES[mode])
        params = nn.init(spec, 4)
        rng = np.random.default_rng(5)
        gen_rows = 6 if mode == "jem" else None
        first = self._batch(rng, spec, 6, gen_rows)
        second = self._batch(rng, spec, 6, gen_rows)
        assert not np.array_equal(first[1], second[1])
        programs = {}
        steps = [trainer._batch_step(config, params, *batch, programs) for batch in (first, second)]
        assert len(programs) == 1
        for step, batch in zip(steps, (first, second)):
            for g, w in zip(step, _eager_step(config, params, *batch)):
                assert np.array_equal(g, w), mode
        for g_first, g_second in zip(steps[0][3:], steps[1][3:]):
            assert not np.array_equal(g_first, g_second)

    def test_labels_are_checked_on_a_replay(self):
        spec = _STEP_MODELS["mlp"]
        config = trainer.TrainConfig(model=spec, batch_size=4, **_STEP_LOSSES["ce"])
        params = nn.init(spec, 0)
        x = np.zeros((4, 2))
        programs = {}
        trainer._batch_step(config, params, x, np.array([0, 1, 2, 0]), None, programs)
        with pytest.raises(ValueError, match="label out of range"):
            trainer._batch_step(config, params, x, np.array([0, 1, 3, 0]), None, programs)

    @staticmethod
    def recordings(monkeypatch, tmp_path, mode, epochs=None):
        """The leaf shapes of every program a toy run records, over ``epochs``
        epochs (by default the config's)."""
        config = json.loads((ROOT / "configs" / f"toy_{mode}.json").read_text())
        config["train"]["epochs"] = epochs or config["train"]["epochs"]
        path = tmp_path / f"{mode}.json"
        path.write_text(json.dumps(config))
        recorded = []

        class Counted(ad.Program):
            def __init__(self, tape, leaves, outputs):
                recorded.append([leaf.shape for leaf in leaves])
                super().__init__(tape, leaves, outputs)

        monkeypatch.setattr(ad, "Program", Counted)
        assert cli.main(["train", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
        return recorded

    def input_gradient_recordings(self, monkeypatch, tmp_path, mode):
        """The block shape of every input-gradient program a 3-epoch toy run
        records: its inputs are a block and the six parameters."""
        recorded = self.recordings(monkeypatch, tmp_path, mode, epochs=3)
        return sorted(shapes[0] for shapes in recorded if len(shapes) == 7)

    def test_toy_jem_records_its_chain_gradient_once_per_block_shape(self, monkeypatch, tmp_path):
        # 400 rows in batches of 64 make two chain block shapes, for 21 chains;
        # the per-epoch probe over all 400 rows records once for the run
        assert self.input_gradient_recordings(monkeypatch, tmp_path, "jem") == \
            [(16, 2), (64, 2), (400, 2)]

    def test_toy_jem_run_makes_eleven_recordings(self, monkeypatch, tmp_path):
        # the chains and the EGM probe share one dict: three dE/dx programs,
        # next to eight training steps (one per batch shape and survivor count)
        recorded = self.recordings(monkeypatch, tmp_path, "jem")
        assert sum(len(shapes) == 7 for shapes in recorded) == 3
        assert len(recorded) == 11

    @pytest.mark.parametrize("mode", ["ce", "ngebm"])
    def test_toy_run_records_its_probe_gradient_once(self, monkeypatch, tmp_path, mode):
        assert self.input_gradient_recordings(monkeypatch, tmp_path, mode) == [(400, 2)]

    def test_peak_memory_of_a_replay_is_below_its_recording(self):
        spec = nn.ModelSpec.small_conv((3, 16, 16), [4, 4], 3)
        config = trainer.TrainConfig(model=spec, batch_size=16, **_STEP_LOSSES["ngebm"])
        params = nn.init(spec, 0)
        x, y, _ = self._batch(np.random.default_rng(6), spec, 16, None)
        programs = {}
        record = traced_peak_bytes(trainer._batch_step, config, params, x, y, None, programs)
        replay = traced_peak_bytes(trainer._batch_step, config, params, x, y, None, programs)
        assert replay < record, (replay, record)


class TestEvaluate:
    def test_uniform_model(self):
        spec = nn.ModelSpec.mlp(2, [4], 10)
        params = nn.init(spec, 0)
        for name in params.arrays:
            params.arrays[name][:] = 0.0
        ckpt = trainer.Checkpoint(model=spec, params=params,
                                  adam=nn.AdamState.for_params(params), epoch=0)
        x = np.random.default_rng(0).uniform(-1, 1, size=(200, 2))
        y = np.tile(np.arange(10), 20)
        ds = datamod.Dataset(x, y, classes=10)
        result = trainer.evaluate(ckpt, ds)
        assert result.mean_confidence == pytest.approx(0.1, abs=1e-12)
        assert result.accuracy == pytest.approx(0.1, abs=1e-12)

    def test_trained_toy_reaches_full_accuracy(self):
        train_ds, test_ds = blob_task(n=80, std=0.05)
        ckpt, _ = trainer.train(ce_config(epochs=20), train_ds, test_ds)
        result = trainer.evaluate(ckpt, test_ds)
        assert result.accuracy == 1.0

    def test_peak_memory_follows_batch_size_not_set_size(self):
        spec = nn.ModelSpec.small_conv((1, 8, 8), [4], 3)
        params = nn.init(spec, 0)
        ckpt = trainer.Checkpoint(model=spec, params=params,
                                  adam=nn.AdamState.for_params(params), epoch=0)
        rng = np.random.default_rng(1)

        def peak_bytes(n):
            ds = datamod.Dataset(rng.uniform(-1, 1, size=(n, 1, 8, 8)),
                                 rng.integers(0, 3, size=n), classes=3)
            tracemalloc.start()
            try:
                trainer.evaluate(ckpt, ds)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one_batch = peak_bytes(spec.block_rows)
        assert peak_bytes(4 * spec.block_rows) < 1.5 * one_batch

    def test_ece_report_recomputable(self):
        train_ds, test_ds = blob_task(n=50)
        ckpt, _ = trainer.train(ce_config(epochs=3), train_ds, test_ds)
        result = trainer.evaluate(ckpt, test_ds)
        assert ece_from_bins(result.ece_report.bins) == pytest.approx(
            result.ece_report.value, abs=1e-12)


class TestCheckpointIO:
    def roundtrip(self, tmp_path, ckpt):
        """The checkpoint read back, with its Adam state as a resumed train reads it."""
        path = tmp_path / "ckpt.npz"
        trainer.checkpoint_save(ckpt, path)
        back = trainer.checkpoint_load(path)
        assert back.adam is None        # the load reads no moment
        back.adam = trainer._load_adam(path)
        return back

    def test_views_stay_on_the_flat_vectors(self, tmp_path):
        # after a copy, a load or a deepcopy, each name's array is still a view
        # of its store's one vector: an Adam step on the vector shows in it
        train_ds, test_ds = blob_task(n=30)
        ckpt, _ = trainer.train(ce_config(epochs=2, seed=9), train_ds, test_ds)
        back = self.roundtrip(tmp_path, ckpt)
        original = ckpt.params.flat.copy(), ckpt.adam.flat_m.copy()
        for params, adam in [(ckpt.params.copy(), copy.deepcopy(ckpt.adam)),
                             (back.params, back.adam), (copy.deepcopy(back.params), back.adam)]:
            before = params.copy()
            nn.adam_step(adam, params, {k: np.full_like(v, 0.5) for k, v in params.arrays.items()})
            assert params != before
            for flat, views in [(params.flat, params.arrays), (adam.flat_m, adam.m),
                                (adam.flat_v, adam.v)]:
                assert np.array_equal(np.concatenate([a.ravel() for a in views.values()]), flat)
        assert np.array_equal(ckpt.params.flat, original[0])     # a copy steps alone
        assert np.array_equal(ckpt.adam.flat_m, original[1])

    def test_roundtrip_bit_exact(self, tmp_path):
        train_ds, test_ds = blob_task(n=30)
        ckpt, _ = trainer.train(ce_config(epochs=2, seed=9), train_ds, test_ds)
        back = self.roundtrip(tmp_path, ckpt)
        assert back.params == ckpt.params
        assert back.adam.t == ckpt.adam.t
        assert all(np.array_equal(back.adam.m[k], ckpt.adam.m[k]) for k in ckpt.adam.m)
        assert all(np.array_equal(back.adam.v[k], ckpt.adam.v[k]) for k in ckpt.adam.v)
        assert back.epoch == ckpt.epoch
        assert back.model == ckpt.model
        assert back.sampler_rng_state == ckpt.sampler_rng_state

    def test_buffer_roundtrip(self, tmp_path):
        train_ds, test_ds = blob_task(n=20)
        sampler_cfg = smp.SgldConfig(n_steps=2, step_size=0.05)
        config = trainer.TrainConfig(model=nn.ModelSpec.mlp(2, [4], 2), mode=losses.Mode.JEM,
                                     epochs=1, batch_size=10, lr=1e-3, sampler=sampler_cfg,
                                     seed=4)
        ckpt, _ = trainer.train(config, train_ds, test_ds)
        assert ckpt.buffer_samples is not None
        back = self.roundtrip(tmp_path, ckpt)
        assert np.array_equal(back.buffer_samples, ckpt.buffer_samples)

    @pytest.mark.parametrize("damage", ["missing", "garbage"])
    def test_bad_moment_member_raises_when_adam_is_read(self, tmp_path, damage, monkeypatch):
        # the load reads no moment; a resume does, before its first epoch
        train_ds, test_ds = blob_task(n=20)
        ckpt, _ = trainer.train(ce_config(epochs=1), train_ds, test_ds)
        path, damaged = tmp_path / "ckpt.npz", tmp_path / "damaged.npz"
        trainer.checkpoint_save(ckpt, path)
        victim = f"adam_v::{list(ckpt.params)[-1]}.npy"
        with zipfile.ZipFile(path) as src, zipfile.ZipFile(damaged, "w") as dst:
            for name in src.namelist():
                if name != victim:
                    dst.writestr(name, src.read(name))
                elif damage == "garbage":
                    dst.writestr(name, b"garbage")
        steps = []
        monkeypatch.setattr(trainer, "_batch_step", lambda *args: steps.append(args))
        for _ in range(2):      # a failed read leaves nothing half-loaded behind
            back = trainer.checkpoint_load(damaged)
            assert back.params == ckpt.params and back.adam is None
            with pytest.raises(trainer.CheckpointError, match="corrupt"):
                trainer.train(ce_config(epochs=2), train_ds, test_ds, resume=damaged)
        assert steps == []

    @pytest.mark.parametrize("damage,names", [
        ("missing", r"param 3 is none, but the model's is 'layer2\.b' of shape \(2,\)"),
        ("shape", r"param 2 is 'layer2\.w' of shape \(3, 2\), but the model's is "
                  r"'layer2\.w' of shape \(4, 2\)")], ids=["missing", "shape"])
    def test_parameters_that_do_not_fit_the_model_are_rejected_at_load(self, tmp_path,
                                                                       damage, names):
        spec = nn.ModelSpec.mlp(2, [4], 2)
        arrays = dict(nn.init(spec, 0).arrays)
        if damage == "missing":
            del arrays["layer2.b"]
        else:
            arrays["layer2.w"] = np.zeros((3, 2))
        params = nn.Parameters(arrays)
        path = tmp_path / "ckpt.npz"
        trainer.checkpoint_save(trainer.Checkpoint(
            model=spec, params=params, adam=nn.AdamState.for_params(params), epoch=0), path)
        with pytest.raises(trainer.CheckpointError, match=names):
            trainer.checkpoint_load(path)

    @pytest.mark.parametrize("moment", ["m", "v"])
    def test_moments_that_do_not_fit_the_model_are_rejected_at_resume(self, tmp_path, moment,
                                                                      monkeypatch):
        train_ds, test_ds = blob_task(n=20)
        ckpt, _ = trainer.train(ce_config(epochs=1), train_ds, test_ds)
        moments = {"m": dict(ckpt.adam.m), "v": dict(ckpt.adam.v)}
        moments[moment]["layer0.b"] = np.zeros(3)
        ckpt.adam = nn.AdamState(**moments, t=ckpt.adam.t, lr=ckpt.adam.lr)
        path = tmp_path / "ckpt.npz"
        trainer.checkpoint_save(ckpt, path)
        assert trainer.checkpoint_load(path).params == ckpt.params
        steps = []
        monkeypatch.setattr(trainer, "_batch_step", lambda *args: steps.append(args))
        with pytest.raises(trainer.CheckpointError,
                           match=rf"adam_{moment} 1 is 'layer0\.b' of shape \(3,\), but "
                                 rf"the model's is 'layer0\.b' of shape \(16,\)"):
            trainer.train(ce_config(epochs=2), train_ds, test_ds, resume=path)
        assert steps == []

    def test_truncated_file_rejected(self, tmp_path):
        train_ds, test_ds = blob_task(n=20)
        ckpt, _ = trainer.train(ce_config(epochs=1), train_ds, test_ds)
        path = tmp_path / "ckpt.npz"
        trainer.checkpoint_save(ckpt, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:len(raw) // 2])
        with pytest.raises(trainer.CheckpointError, match="corrupt"):
            trainer.checkpoint_load(path)

    def test_version_mismatch_rejected(self, tmp_path, monkeypatch):
        train_ds, test_ds = blob_task(n=20)
        ckpt, _ = trainer.train(ce_config(epochs=1), train_ds, test_ds)
        path = tmp_path / "ckpt.npz"
        monkeypatch.setattr(trainer, "CHECKPOINT_FORMAT_VERSION", 99)
        trainer.checkpoint_save(ckpt, path)
        monkeypatch.undo()
        with pytest.raises(trainer.CheckpointError, match="version"):
            trainer.checkpoint_load(path)

    @staticmethod
    def save_with_model_entry(tmp_path, spec, edit):
        """A checkpoint of ``spec`` whose saved model entry ``edit`` has changed."""
        params = nn.init(spec, 0)
        path = tmp_path / "edited.npz"
        trainer.checkpoint_save(trainer.Checkpoint(
            model=spec, params=params, adam=nn.AdamState.for_params(params), epoch=0), path)
        with np.load(path) as archive:
            arrays = dict(archive)
        meta = json.loads(bytes(arrays["__meta__"]).decode())
        edit(meta["model"]["layers"])
        arrays["__meta__"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        np.savez(path, **arrays)
        return path

    @pytest.mark.parametrize("edit", [
        lambda layers: layers[1].update(kind="tanh"),
        lambda layers: layers[0].pop("in"),
    ], ids=["unknown_kind", "dense_without_in"])
    def test_bad_model_entry_rejected(self, tmp_path, edit):
        path = self.save_with_model_entry(tmp_path, nn.ModelSpec.mlp(2, [4], 2), edit)
        with pytest.raises(trainer.CheckpointError, match="corrupt"):
            trainer.checkpoint_load(path)

    # older files wrote a conv's "padding": null; newer ones write no padding
    @pytest.mark.parametrize("edit", [
        lambda layers: layers[0].update(padding=None),
        lambda layers: None,
    ], ids=["padding_null", "no_padding"])
    def test_conv_entry_with_null_or_no_padding_loads(self, tmp_path, edit):
        spec = nn.ModelSpec((nn.Conv(1, 2, 3), nn.Relu(), nn.Flatten(), nn.Dense(32, 2)),
                            (1, 4, 4), 2)
        path = self.save_with_model_entry(tmp_path, spec, edit)
        assert trainer.checkpoint_load(path).model == spec

    def test_conv_entry_with_a_padding_is_rejected(self, tmp_path):
        spec = nn.ModelSpec((nn.Conv(1, 2, 3), nn.Relu(), nn.Flatten(), nn.Dense(32, 2)),
                            (1, 4, 4), 2)
        path = self.save_with_model_entry(tmp_path, spec, lambda layers: layers[0].update(padding=0))
        with pytest.raises(trainer.CheckpointError, match="padding 0"):
            trainer.checkpoint_load(path)

    def test_interval_checkpoints_written(self, tmp_path):
        train_ds, test_ds = blob_task(n=20)
        config = ce_config(epochs=4, checkpoint_interval=2)
        trainer.train(config, train_ds, test_ds, checkpoint_dir=tmp_path)
        assert (tmp_path / "checkpoint_epoch2.npz").exists()
        assert (tmp_path / "checkpoint_epoch4.npz").exists()
        mid = trainer.checkpoint_load(tmp_path / "checkpoint_epoch2.npz")
        assert mid.epoch == 2

    def test_interval_checkpoints_default_to_the_current_directory(self, tmp_path, monkeypatch):
        train_ds, test_ds = blob_task(n=20)
        monkeypatch.chdir(tmp_path)
        trainer.train(ce_config(epochs=1, checkpoint_interval=1), train_ds, test_ds)
        assert trainer.checkpoint_load(tmp_path / "checkpoint_epoch1.npz").epoch == 1
