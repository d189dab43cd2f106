import csv
import dataclasses
import json
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from ebmkit import autodiff as ad
from ebmkit import cli
from ebmkit import data
from ebmkit import energy as en
from ebmkit import losses, metrics, nn, trainer
from ebmkit import sampler as smp
from oracles import dataset_to_csv, eager_record

ROOT = Path(__file__).resolve().parent.parent


def toy_config(out_dir, mode="ce", epochs=3, n=50, extra=None):
    config = {
        "seed": 7,
        "out_dir": str(out_dir),
        "model": {"kind": "mlp", "input_dim": 2, "hidden": [16], "classes": 2},
        "data": {"kind": "gaussian_mixture", "n_per_class": n,
                 "centers": [[-0.5, 0.0], [0.5, 0.0]], "std": 0.15, "seed": 3},
        "train": {"mode": mode, "epochs": epochs, "batch_size": 25, "lr": 0.01},
    }
    if extra:
        config.update(extra)
    return config


def write_config(tmp_path, config, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return path


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """One CE toy run shared by the read-only commands."""
    out = tmp_path_factory.mktemp("trained")
    config = toy_config(out, epochs=10)
    path = out / "config.json"
    path.write_text(json.dumps(config))
    assert cli.main(["train", "--config", str(path)]) == 0
    return out, path


class TestTrain:
    def test_smoke_writes_artifacts(self, tmp_path):
        config_path = write_config(tmp_path, toy_config(tmp_path / "run"))
        assert cli.main(["train", "--config", str(config_path)]) == 0
        out = tmp_path / "run"
        assert (out / "checkpoint_final.npz").exists()
        assert (out / "runlog.csv").exists()
        manifest = json.loads((out / "manifest_train.json").read_text())
        assert manifest["seed"] == 7
        assert "checkpoint_sha256" in manifest

    def test_invalid_mode_exits_one(self, tmp_path, capsys):
        config = toy_config(tmp_path / "run", mode="bogus")
        config_path = write_config(tmp_path, config)
        assert cli.main(["train", "--config", str(config_path)]) == 1
        assert "bogus" in capsys.readouterr().err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        config = toy_config(tmp_path / "run")
        config["trian"] = {}
        config_path = write_config(tmp_path, config)
        assert cli.main(["train", "--config", str(config_path)]) == 1
        assert "trian" in capsys.readouterr().err

    def test_rerun_reproduces_runlog(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        path_a = write_config(tmp_path, toy_config(out_a), "a.json")
        path_b = write_config(tmp_path, toy_config(out_b), "b.json")
        assert cli.main(["train", "--config", str(path_a)]) == 0
        assert cli.main(["train", "--config", str(path_b)]) == 0
        assert (out_a / "runlog.csv").read_text() == (out_b / "runlog.csv").read_text()

    def test_missing_config_flag_exits_one(self):
        assert cli.main(["train"]) == 1

    def test_checkpoint_interval_writes_epoch_checkpoints(self, tmp_path):
        config = toy_config(tmp_path / "run", epochs=2)
        config["train"]["checkpoint_interval"] = 1
        assert cli.main(["train", "--config", str(write_config(tmp_path, config))]) == 0
        assert trainer.checkpoint_load(tmp_path / "run" / "checkpoint_epoch1.npz").epoch == 1
        assert (tmp_path / "run" / "checkpoint_epoch2.npz").exists()


class TestConfigDefaults:
    MODEL = {"kind": "mlp", "input_dim": 2, "hidden": [4], "classes": 2}

    def test_empty_sections_build_the_dataclass_defaults(self):
        built = cli.build_train_config({"model": self.MODEL, "train": {}})
        assert built == trainer.TrainConfig(model=cli.build_model(self.MODEL),
                                            loss=losses.LossConfig())
        assert cli.build_sampler({}) == smp.SgldConfig()
        jem = cli.build_train_config({"model": self.MODEL,
                                      "train": {"mode": "jem", "sampler": {}}})
        assert jem.loss == losses.LossConfig(mode=losses.Mode.JEM, sampler=smp.SgldConfig())

    def test_given_keys_reach_their_fields(self):
        section = {"mode": "jem", "epochs": 3, "batch_size": 8, "lr": 0.01,
                   "milestones": [2], "decay_factor": 0.5, "beta": 0.25, "gamma": 0.75,
                   "checkpoint_interval": 0, "divergence_policy": "abort",
                   "sampler": {"n_steps": 4, "init": [-2.0, 3.0], "noise": False}}
        built = cli.build_train_config({"seed": 9, "model": self.MODEL, "train": section})
        assert (built.epochs, built.batch_size, built.seed) == (3, 8, 9)
        assert built.divergence_policy == "abort"
        assert built.schedule == nn.LrSchedule(0.01, (2,), 0.5)
        assert (built.loss.beta, built.loss.gamma) == (0.25, 0.75)
        assert built.loss.sampler == smp.SgldConfig(n_steps=4, init_lo=-2.0, init_hi=3.0,
                                                    noise=False)


class TestEvalAndCalibrate:
    def test_eval_writes_csv(self, trained, tmp_path):
        out, config_path = trained
        eval_out = tmp_path / "eval"
        code = cli.main(["eval", "--config", str(config_path),
                         "--checkpoint", str(out / "checkpoint_final.npz"),
                         "--out", str(eval_out)])
        assert code == 0
        header, row = (eval_out / "eval.csv").read_text().strip().splitlines()
        assert header == "accuracy,mean_confidence,ece"
        accuracy = float(row.split(",")[0])
        assert accuracy >= 0.9

    def test_calibrate_bins_parse(self, trained, tmp_path):
        out, config_path = trained
        cal_out = tmp_path / "cal"
        code = cli.main(["calibrate", "--config", str(config_path),
                         "--checkpoint", str(out / "checkpoint_final.npz"),
                         "--out", str(cal_out)])
        assert code == 0
        with open(cal_out / "calibration_bins.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 20
        assert sum(int(r["count"]) for r in rows) == 100  # 2 classes x 50

    def test_calibrate_packs_no_adam_moments(self, trained, tmp_path, monkeypatch):
        # only a resumed train reads them
        out, config_path = trained
        built = []
        monkeypatch.setattr(nn.AdamState, "__post_init__", lambda state: built.append(state))
        assert cli.main(["calibrate", "--config", str(config_path),
                         "--checkpoint", str(out / "checkpoint_final.npz"),
                         "--out", str(tmp_path / "cal")]) == 0
        assert built == []

    @pytest.mark.parametrize("command", ["calibrate", "ood", "hist-egm", "attack", "sample"])
    def test_reads_no_adam_member(self, trained, tmp_path, monkeypatch, command):
        # the moments are read from the file only when a resumed train reads them
        out, config_path = trained
        config = json.loads(config_path.read_text())
        config["ood_data"] = dict(config["data"], centers=[[2.0, 2.0], [3.0, 2.0]])
        config["attack"] = {"epsilons": [0.0, 0.1], "n_steps": 2}
        config["sample"] = {"n": 4, "sampler": {"n_steps": 2}}
        read, real = [], np.lib.npyio.NpzFile.__getitem__

        def reading(archive, key):
            read.append(key)
            return real(archive, key)
        monkeypatch.setattr(np.lib.npyio.NpzFile, "__getitem__", reading)
        assert cli.main([command, "--config", str(write_config(tmp_path, config)),
                         "--checkpoint", str(out / "checkpoint_final.npz"),
                         "--out", str(tmp_path / "out")]) == 0
        assert "__meta__" in read and any(key.startswith("param::") for key in read)
        assert not [key for key in read if key.startswith("adam_")]

    def test_missing_checkpoint_exits_one(self, trained, tmp_path):
        _, config_path = trained
        assert cli.main(["eval", "--config", str(config_path),
                         "--out", str(tmp_path / "x")]) == 1

    def test_unreadable_checkpoint_exits_two(self, trained, tmp_path):
        _, config_path = trained
        bogus = tmp_path / "not_a_checkpoint.npz"
        bogus.write_bytes(b"garbage")
        assert cli.main(["eval", "--config", str(config_path),
                         "--checkpoint", str(bogus),
                         "--out", str(tmp_path / "y")]) == 2


class TestOod:
    def test_in_equals_out_gives_half(self, trained, tmp_path, capsys):
        out, config_path = trained
        config = json.loads(config_path.read_text())
        config["ood_data"] = dict(config["data"])  # identical distribution & seed
        path = write_config(tmp_path, config, "ood.json")
        ood_out = tmp_path / "ood"
        code = cli.main(["ood", "--config", str(path),
                         "--checkpoint", str(out / "checkpoint_final.npz"),
                         "--out", str(ood_out), "--score", "log_px"])
        assert code == 0
        with open(ood_out / "ood_auroc.csv") as fh:
            row = list(csv.DictReader(fh))[0]
        assert abs(float(row["auroc"]) - 0.5) <= 0.02

    def test_emits_both_score_columns(self, trained, tmp_path):
        out, config_path = trained
        config = json.loads(config_path.read_text())
        config["ood_data"] = {"kind": "gaussian_mixture", "n_per_class": 30,
                              "centers": [[0.0, 0.9]], "std": 0.05, "seed": 11}
        path = write_config(tmp_path, config, "ood2.json")
        ood_out = tmp_path / "ood2"
        code = cli.main(["ood", "--config", str(path),
                         "--checkpoint", str(out / "checkpoint_final.npz"),
                         "--out", str(ood_out)])
        assert code == 0
        with open(ood_out / "ood_scores.csv") as fh:
            rows = list(csv.DictReader(fh))
        splits = {r["split"] for r in rows}
        assert splits == {"in", "out"}
        assert (ood_out / "ood_hist_in.csv").exists()
        assert (ood_out / "ood_hist_out.csv").exists()


class TestAttack:
    def test_epsilon_zero_matches_clean(self, trained, tmp_path):
        out, config_path = trained
        attack_out = tmp_path / "atk"
        code = cli.main(["attack", "--config", str(config_path),
                         "--checkpoint", str(out / "checkpoint_final.npz"),
                         "--out", str(attack_out),
                         "--norm", "l2", "--epsilons", "0.0"])
        assert code == 0
        with open(attack_out / "attack.csv") as fh:
            row = list(csv.DictReader(fh))[0]
        assert row["clean_accuracy"] == row["adversarial_accuracy"]


class TestHistEgm:
    def test_density_integrates_to_one(self, trained, tmp_path):
        out, config_path = trained
        hist_out = tmp_path / "hist"
        code = cli.main(["hist-egm", "--config", str(config_path),
                         "--checkpoint", str(out / "checkpoint_final.npz"),
                         "--out", str(hist_out)])
        assert code == 0
        with open(hist_out / "egm_hist.csv") as fh:
            rows = list(csv.DictReader(fh))
        total = sum(float(r["density"]) * (float(r["bin_upper"]) - float(r["bin_lower"]))
                    for r in rows)
        assert total == pytest.approx(1.0, abs=1e-9)


class TestConvApproximateMass:
    """ood and hist-egm over conv sets of 2.5 row blocks: each command records
    one program per block shape, which ood's two sets share, and its scores
    are bit-identical to a plain tape per block."""

    def test_ood_and_hist_egm_record_each_block_shape_once(self, tmp_path, monkeypatch):
        monkeypatch.setattr(nn, "_ROW_BLOCK_BYTES", 4 * 3 * 32 * 32 * 8)  # 4-image blocks
        spec = nn.ModelSpec.small_conv((3, 32, 32), [2], 10)
        assert spec.block_rows == 4
        params = nn.init(spec, 0)
        trainer.checkpoint_save(trainer.Checkpoint(
            model=spec, params=params, adam=nn.AdamState.for_params(params), epoch=0),
            tmp_path / "ckpt.npz")
        rng = np.random.default_rng(0)
        files = {}
        for name in ("in", "out"):
            files[name] = tmp_path / f"{name}.bin"
            np.concatenate([rng.integers(0, 10, size=(10, 1), dtype=np.uint8),
                            rng.integers(0, 256, size=(10, 3072), dtype=np.uint8)],
                           axis=1).tofile(files[name])
        config = toy_config(tmp_path / "run")
        config["data"] = {"kind": "cifar10", "train_files": [str(files["in"])],
                          "test_files": [str(files["in"])]}
        config["ood_data"] = {"kind": "cifar10", "test_files": [str(files["out"])]}
        path = write_config(tmp_path, config)

        recorded, scored, real = [], [], metrics.score_dataset

        class Counted(ad.Program):
            def __init__(self, tape, leaves, outputs):
                recorded.append(leaves[0].shape)
                super().__init__(tape, leaves, outputs)

        def scoring(model, params, dataset, kind, programs=None):
            recorded.append("set")
            scores = real(model, params, dataset, kind, programs)
            scored.append((dataset.x, scores))
            return scores
        monkeypatch.setattr(ad, "Program", Counted)
        monkeypatch.setattr(metrics, "score_dataset", scoring)
        for command in ("ood", "hist-egm"):
            assert cli.main([command, "--config", str(path), "--checkpoint",
                             str(tmp_path / "ckpt.npz"), "--out", str(tmp_path / command)]) == 0
        blocks = [(4, 3, 32, 32), (2, 3, 32, 32)]
        assert recorded == ["set", *blocks, "set"] + ["set", *blocks]

        monkeypatch.setattr(ad, "record", eager_record)
        for x, scores in scored:
            assert np.array_equal(scores, en.approximate_mass_score(spec, params, x))


class TestSample:
    def sample_config(self, out_dir, kind, n_steps=30, bound=None):
        sampler = {"n_steps": n_steps, "step_size": 1.0, "noise": False}
        if bound is not None:
            sampler["divergence_bound"] = bound
        return {
            "seed": 1,
            "out_dir": str(out_dir),
            "model": {"kind": kind, "dim": 2},
            "sample": {"n": 16, "sampler": sampler},
        }

    def test_quadratic_energy_converges(self, tmp_path):
        out = tmp_path / "quad"
        path = write_config(tmp_path, self.sample_config(out, "quadratic_bowl"))
        assert cli.main(["sample", "--config", str(path)]) == 0
        stats = json.loads((out / "divergence.json").read_text())
        assert stats["converged"] is True
        assert stats["n_diverged"] == 0

    def test_concave_energy_reports_divergence(self, tmp_path):
        out = tmp_path / "concave"
        path = write_config(tmp_path, self.sample_config(out, "concave_bowl", bound=5.0))
        assert cli.main(["sample", "--config", str(path)]) == 0
        stats = json.loads((out / "divergence.json").read_text())
        assert stats["n_diverged"] == 16
        assert stats["reason"] == "bound-exceeded"

    def test_row_count_is_n_minus_diverged(self, tmp_path):
        out = tmp_path / "rows"
        path = write_config(tmp_path, self.sample_config(out, "quadratic_bowl"))
        assert cli.main(["sample", "--config", str(path)]) == 0
        stats = json.loads((out / "divergence.json").read_text())
        lines = (out / "samples.csv").read_text().strip().splitlines()
        assert len(lines) - 1 == 16 - stats["n_diverged"]


class TestSamplerConfigValidation:
    """A bad sampler section is a config error (exit 1); train reports it
    before any data is read."""

    BAD = [("init", [0.5]), ("n_steps", "20"), ("step_size", 0), ("noise", "false")]

    @pytest.mark.parametrize("key,value", BAD)
    def test_train_exits_one_before_reading(self, tmp_path, monkeypatch, capsys, key, value):
        config = toy_config(tmp_path / "out", mode="jem")
        config["train"]["sampler"] = {"n_steps": 2, "step_size": 0.05, key: value}
        path = write_config(tmp_path, config)
        calls = []
        monkeypatch.setattr(data, "gen_gaussian_mixture_2d", lambda *a, **k: calls.append(a))
        assert cli.main(["train", "--config", str(path)]) == 1
        assert "config error" in capsys.readouterr().err
        assert calls == []

    @pytest.mark.parametrize("key,value", BAD)
    def test_sample_exits_one(self, tmp_path, capsys, key, value):
        config = {"out_dir": str(tmp_path / "out"),
                  "model": {"kind": "quadratic_bowl", "dim": 2},
                  "sample": {"n": 4, "sampler": {"n_steps": 2, key: value}}}
        path = write_config(tmp_path, config)
        assert cli.main(["sample", "--config", str(path)]) == 1
        assert "config error" in capsys.readouterr().err


class TestSectionValueValidation:
    """A section that is not an object, or a bad count, norm, step size or
    epsilon list in train, attack, metrics or hist, is a config error (exit
    1), reported before any data is read."""

    @pytest.mark.parametrize("command,section,key,value", [
        ("train", "train", "epochs", "3"), ("train", "train", "batch_size", 0),
        ("train", "train", "checkpoint_interval", -1),
        ("attack", "attack", "n_steps", "2"), ("attack", "attack", "norm", "l3"),
        ("attack", "attack", "step_size", 0),
        ("attack", "attack", "epsilons", [0.2, 0.1]), ("attack", "attack", "epsilons", [-0.1]),
        ("calibrate", "metrics", "ece_bins", 0), ("hist-egm", "hist", "bins", 0),
        ("ood", "hist", "bins", True)])
    def test_exits_one_before_reading(self, trained, tmp_path, monkeypatch, capsys,
                                      command, section, key, value):
        out, config_path = trained
        config = json.loads(config_path.read_text())
        config["ood_data"] = config["data"]
        config.setdefault(section, {})[key] = value
        path = write_config(tmp_path, config)
        calls = []
        monkeypatch.setattr(data, "gen_gaussian_mixture_2d", lambda *a, **k: calls.append(a))
        flags = [] if command == "train" else ["--checkpoint",
                                               str(out / "checkpoint_final.npz")]
        assert cli.main([command, "--config", str(path), "--out", str(tmp_path), *flags]) == 1
        assert f"{section}.{key}" in capsys.readouterr().err
        assert calls == []

    @pytest.mark.parametrize("section", ["train", "attack", "data"])
    def test_section_that_is_not_an_object_exits_one(self, tmp_path, capsys, section):
        config = toy_config(tmp_path / "run")
        config[section] = 5
        assert cli.main(["train", "--config", str(write_config(tmp_path, config))]) == 1
        assert f"section {section!r}" in capsys.readouterr().err


MISSING = object()


def bad(key, value, command="train", flags=(), names=None):
    """A config whose dotted ``key`` is set to ``value`` (or removed, for
    MISSING); the error must name ``names``, by default the key."""
    names = names or key
    shown = ("missing" if value is MISSING else f"<bad {names}>" if isinstance(value, dict)
             else repr(value))
    return pytest.param(command, key, value, tuple(flags), names,
                        id=f"{command}-{key}={shown}{'-' + ' '.join(flags) if flags else ''}")


class TestConfigTable:
    """Every value the config table rejects, a missing key a section's kind
    requires, and a flag that breaks its key's rule exit 1, name the key and
    read no data."""

    @pytest.mark.parametrize("command,key,value,flags,names", [
        bad("train.lr", "0.01"), bad("train.lr", -0.01), bad("train.beta", "0.5"),
        bad("train.milestones", [5, 3]), bad("train.milestones", [5, 5]),
        bad("train.decay_factor", 2),
        bad("train.sampler.divergence_bound", 0), bad("seed", "7"),
        bad("seed", 7, flags=("--seed", "-1")),
        bad("model.input_dim", "2"), bad("model.hidden", "32"), bad("model.hidden", [0]),
        bad("model", {"kind": "conv", "input_shape": [2, 1, 1], "channels": [0], "classes": 2},
            names="model.channels"),
        bad("model", {"kind": "conv", "input_shape": [0, 1, 1], "classes": 2},
            names="model.input_shape"),
        bad("data.std", "0.3"), bad("data.n_per_class", 10.5),
        bad("model.classes", MISSING), bad("data.std", MISSING), bad("model", MISSING),
        bad("attack.random_start", "no", command="attack"),
        # json reads NaN and Infinity; no number in a config may be either
        bad("train.lr", math.inf), bad("data.std", math.inf),
        bad("train.sampler.decay_exponent", math.nan),
        bad("data.centers", [[-0.5, 0.0], [math.inf, 0.0]]),
        # finite, but center + z * std would overflow
        bad("data.std", 1e308), bad("data.std", 2 ** -4 * sys.float_info.max),
        bad("data.centers", [[-0.5, 0.0], [1e308, 0.0]]),
        bad("attack.epsilons", [0.0], command="attack", flags=("--epsilons", "0", "inf"))])
    def test_exits_one_naming_the_key_before_reading(self, trained, tmp_path, monkeypatch,
                                                     capsys, command, key, value, flags, names):
        out, config_path = trained
        config = json.loads(config_path.read_text())
        *parents, last = key.split(".")
        section = config
        for name in parents:
            section = section.setdefault(name, {})
        if value is MISSING:
            del section[last]
        else:
            section[last] = value
        path = write_config(tmp_path, config)
        calls = []
        monkeypatch.setattr(data, "gen_gaussian_mixture_2d", lambda *a, **k: calls.append(a))
        if command != "train":
            flags += ("--checkpoint", str(out / "checkpoint_final.npz"))
        assert cli.main([command, "--config", str(path), "--out", str(tmp_path), *flags]) == 1
        assert names in capsys.readouterr().err
        assert calls == []

    def test_the_largest_std_and_centers_allowed_generate_data(self):
        half = sys.float_info.max / 2
        section = {"kind": "gaussian_mixture", "n_per_class": 5000, "std": half / 16,
                   "centers": [[half, -half], [-half, half]], "seed": 0}
        cli.check_config(section, "train", "data", "data")
        train, = cli.build_dataset(section, ("train",))
        assert len(train) == 10000

    def test_readme_example_passes(self):
        readme = (ROOT / "README.md").read_text()
        schema = readme.split("### Config schema", 1)[1]
        example = json.loads(schema.split("```json", 1)[1].split("```", 1)[0])
        cli.check_config(example, "train")
        assert cli.build_train_config(example).loss.mode is losses.Mode.NGEBM


class TestModelFitsData:
    """A train config whose model cannot take its data exits 1, names the
    data key and the model key, and generates or reads no data."""

    CONV = {"kind": "conv", "input_shape": [3, 32, 32], "channels": [2], "classes": 10}
    CIFAR = {"train_files": ["absent_train.bin"], "test_files": ["absent_test.bin"]}

    @pytest.mark.parametrize("model,data_section,names", [
        pytest.param({"classes": 2}, {"centers": [[-0.5, 0.0], [0.5, 0.0], [0.0, 0.5]]},
                     ("data.centers", "model.classes"), id="three-centers-two-classes"),
        pytest.param({"input_dim": 3}, {}, ("data.kind", "model.input_dim"), id="input_dim-3"),
        pytest.param({"kind": "conv", "input_shape": [1, 2, 1], "classes": 2}, {},
                     ("data.kind", "model.kind"), id="conv-on-points"),
        pytest.param(dict(CONV, classes=2), dict(CIFAR, kind="cifar10"),
                     ("data.kind", "model.classes"), id="cifar10-two-classes"),
        pytest.param(CONV, dict(CIFAR, kind="cifar100"), ("data.kind", "model.classes"),
                     id="cifar100-ten-classes"),
        pytest.param({"kind": "mlp", "input_dim": 3072, "classes": 10},
                     dict(CIFAR, kind="cifar10"), ("data.kind", "model.kind"), id="mlp-on-cifar"),
        pytest.param(dict(CONV, input_shape=[3, 16, 16]), dict(CIFAR, kind="cifar10"),
                     ("data.kind", "model.input_shape"), id="cifar-16x16-input"),
        pytest.param({"classes": 2}, {"kind": "csv", "path": "absent.csv", "classes": 3},
                     ("data.classes", "model.classes"), id="csv-three-classes")])
    def test_exits_one_naming_both_keys_before_reading(self, tmp_path, monkeypatch, capsys,
                                                       model, data_section, names):
        config = toy_config(tmp_path / "run", epochs=1)
        config["model"].update(model)
        config["data"].update(data_section)
        calls = []
        for reader in ("gen_gaussian_mixture_2d", "read_cifar_binary", "dataset_from_csv"):
            monkeypatch.setattr(data, reader, lambda *a, **k: calls.append(a))
        assert cli.main(["train", "--config", str(write_config(tmp_path, config))]) == 1
        err = capsys.readouterr().err
        assert all(name in err for name in names), err
        assert calls == []

    def test_model_with_more_classes_than_the_data_trains(self, tmp_path):
        config = toy_config(tmp_path / "run", epochs=1)
        config["model"]["classes"] = 3
        assert cli.main(["train", "--config", str(write_config(tmp_path, config))]) == 0


class TestCheckpointFitsData:
    """A command that opens a checkpoint exits 1 when the data it reads does
    not fit the checkpoint's model, names the data key and the model key,
    and generates or reads no data."""

    THREE_CENTERS = {"centers": [[-0.5, 0.0], [0.5, 0.0], [0.0, 0.5]]}
    CIFAR = {"kind": "cifar10", "train_files": ["absent_train.bin"],
             "test_files": ["absent_test.bin"]}

    def _exits_one(self, trained, tmp_path, monkeypatch, capsys, command, data_section,
                   ood_section, names):
        out, config_path = trained
        config = json.loads(config_path.read_text())
        config["data"] = dict(config["data"], **data_section)
        config["ood_data"] = dict(config["data"], **ood_section)
        calls = []
        for reader in ("gen_gaussian_mixture_2d", "read_cifar_binary", "dataset_from_csv"):
            monkeypatch.setattr(data, reader, lambda *a, **k: calls.append(a))
        assert cli.main([command, "--config", str(write_config(tmp_path, config)),
                         "--out", str(tmp_path / "out"),
                         "--checkpoint", str(out / "checkpoint_final.npz")]) == 1
        err = capsys.readouterr().err
        assert all(name in err for name in names), err
        assert calls == []

    @pytest.mark.parametrize("command", ["eval", "calibrate", "ood", "attack", "hist-egm"])
    def test_more_classes_than_the_checkpoint(self, trained, tmp_path, monkeypatch, capsys,
                                              command):
        self._exits_one(trained, tmp_path, monkeypatch, capsys, command, self.THREE_CENTERS,
                        {}, ("data.centers", "checkpoint's model.classes"))

    @pytest.fixture(scope="class")
    def ten_classes(self, tmp_path_factory):
        """A toy mlp with 10 classes: cifar10's class count, not its inputs."""
        out = tmp_path_factory.mktemp("ten_classes")
        config = toy_config(out, epochs=1)
        config["model"]["classes"] = 10
        path = write_config(out, config)
        assert cli.main(["train", "--config", str(path)]) == 0
        return out, path

    @pytest.mark.parametrize("command", ["eval", "calibrate", "ood", "attack", "hist-egm"])
    def test_inputs_the_checkpoint_does_not_take(self, ten_classes, tmp_path, monkeypatch,
                                                 capsys, command):
        self._exits_one(ten_classes, tmp_path, monkeypatch, capsys, command, self.CIFAR, {},
                        ("data.kind", "checkpoint's model.input_shape"))

    def test_csv_with_more_classes_than_the_checkpoint(self, trained, tmp_path, monkeypatch,
                                                       capsys):
        self._exits_one(trained, tmp_path, monkeypatch, capsys, "eval",
                        {"kind": "csv", "path": "absent.csv", "classes": 3}, {},
                        ("data.classes", "checkpoint's model.classes"))

    def test_ood_data_inputs_the_checkpoint_does_not_take(self, trained, tmp_path, monkeypatch,
                                                          capsys):
        # ood_data's labels are not read, so only its inputs must fit
        self._exits_one(trained, tmp_path, monkeypatch, capsys, "ood", {}, self.CIFAR,
                        ("ood_data.kind", "checkpoint's model.input_shape"))

    def test_ood_data_with_more_classes_is_scored(self, trained, tmp_path):
        out, config_path = trained
        config = json.loads(config_path.read_text())
        config["ood_data"] = dict(config["data"], **self.THREE_CENTERS)
        assert cli.main(["ood", "--config", str(write_config(tmp_path, config)),
                         "--out", str(tmp_path / "out"),
                         "--checkpoint", str(out / "checkpoint_final.npz")]) == 0


class TestFlagValidation:
    """--epsilons and --n replace the config keys they name and are checked
    by the same rules, before any data is read or a checkpoint opened."""

    @pytest.mark.parametrize("epsilons", [["0.2", "0.1"], ["-0.1"]])
    def test_bad_epsilons_exit_one_before_reading(self, trained, tmp_path, monkeypatch,
                                                  capsys, epsilons):
        out, config_path = trained
        calls = []
        monkeypatch.setattr(data, "gen_gaussian_mixture_2d", lambda *a, **k: calls.append(a))
        assert cli.main(["attack", "--config", str(config_path), "--out", str(tmp_path),
                         "--checkpoint", str(out / "checkpoint_final.npz"),
                         "--epsilons", *epsilons]) == 1
        assert "attack.epsilons" in capsys.readouterr().err
        assert calls == []

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_chain_count_below_one_exits_one_before_the_checkpoint(
            self, trained, tmp_path, monkeypatch, capsys, n):
        out, config_path = trained
        calls = []
        monkeypatch.setattr(trainer, "checkpoint_load", lambda *a: calls.append(a))
        assert cli.main(["sample", "--config", str(config_path), "--out", str(tmp_path),
                         "--checkpoint", str(out / "checkpoint_final.npz"), "--n", n]) == 1
        assert "sample.n" in capsys.readouterr().err
        assert calls == []

    def test_flags_reach_the_command_and_its_manifest(self, trained, tmp_path):
        out, config_path = trained
        assert cli.main(["sample", "--config", str(config_path), "--out", str(tmp_path),
                         "--checkpoint", str(out / "checkpoint_final.npz"), "--n", "3"]) == 0
        assert json.loads((tmp_path / "divergence.json").read_text())["n_requested"] == 3
        manifest = json.loads((tmp_path / "manifest_sample.json").read_text())
        assert manifest["config"]["sample"]["n"] == 3


def readme_headers() -> dict:
    """File name -> header row, from the README's "Output files" table."""
    section = (ROOT / "README.md").read_text().split("### Output files", 1)[1]
    rows = section.split("\n\n", 2)[1].splitlines()[2:]
    return {name: re.search("`([^`]*)`", row.split("|")[3]).group(1)
            for row in rows for name in re.findall(r"`([^`]+\.csv)`", row.split("|")[2])}


class TestTables:
    """The CSV tables of one toy run of every command."""

    @pytest.fixture(scope="class")
    def run(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("tables")
        config = toy_config(out, epochs=2, extra={"metrics": {"ece_bins": 8},
                                                  "hist": {"bins": 6}, "attack": {"n_steps": 2}})
        config["ood_data"] = dict(config["data"], centers=[[0.0, 0.9], [0.5, 0.9]])
        path = write_config(out, config)
        ckpt = ("--checkpoint", str(out / "checkpoint_final.npz"))
        for command, *flags in [("train",), ("eval", *ckpt), ("calibrate", *ckpt),
                                ("ood", *ckpt), ("hist-egm", *ckpt), ("sample", *ckpt, "--n", "4"),
                                ("attack", *ckpt, "--norm", "linf", "--epsilons", "0", "0.2")]:
            assert cli.main([command, "--config", str(path), *flags]) == 0
        return out

    def rows(self, path):
        with open(path, newline="") as fh:
            return list(csv.DictReader(fh))

    def test_every_table_has_its_readme_header_and_crlf_line_ends(self, run):
        headers = readme_headers()
        assert {p.name for p in run.glob("*.csv")} == set(headers)
        for name, header in headers.items():
            raw = (run / name).read_bytes()
            # the toy inputs are 2-d, so samples.csv's x0,x1,... is x0,x1
            assert raw.split(b"\r\n", 1)[0].decode() == header.removesuffix(",..."), name
            assert raw.endswith(b"\r\n"), name
            assert raw.count(b"\n") == raw.count(b"\r") == raw.count(b"\r\n"), name

    def test_runlog_has_a_row_per_epoch(self, run):
        lines = (run / "runlog.csv").read_text().strip().splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("epoch,lr,loss_total")
        assert lines[0] == ",".join(f.name for f in dataclasses.fields(trainer.EpochRecord))

    def test_calibration_bins_follow_ece_bins(self, run):
        rows = self.rows(run / "calibration_bins.csv")
        assert len(rows) == 8
        assert sum(int(r["count"]) for r in rows) == 100   # 2 classes x 50

    def test_roc_runs_from_origin_to_one(self, run):
        rows = self.rows(run / "ood_roc.csv")
        assert rows[0]["fpr"] == "0" and rows[-1]["tpr"] == "1"

    def test_histogram_densities_integrate_to_one(self, run):
        for name in ("ood_hist_in.csv", "ood_hist_out.csv", "egm_hist.csv"):
            rows = self.rows(run / name)
            assert len(rows) == 6
            total = sum(float(r["density"]) * (float(r["bin_upper"]) - float(r["bin_lower"]))
                        for r in rows)
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_attack_table_has_a_row_per_epsilon(self, run):
        lines = (run / "attack.csv").read_text().strip().splitlines()
        assert lines[0] == "norm,epsilon,clean_accuracy,adversarial_accuracy,n_examples"
        assert len(lines) == 3


class TestMalformedCsv:
    """A malformed csv data file is a runtime failure (exit 2) that names the
    file and the line, raised before training starts."""

    @pytest.mark.parametrize("text,line", [
        pytest.param("", 1, id="empty"),
        pytest.param("x0,x1,label\n", 2, id="header-only"),
        pytest.param("x0,x1,label\n0.5,0.1,0\n0.0,1\n", 3, id="row-one-cell-short")])
    def test_train_exits_two_naming_the_file_and_line(self, tmp_path, capsys, monkeypatch,
                                                      text, line):
        path = tmp_path / "ds.csv"
        path.write_text(text)
        config = toy_config(tmp_path / "run", epochs=1)
        config["data"] = {"kind": "csv", "path": str(path), "classes": 2}
        monkeypatch.setattr(trainer, "train", lambda *a, **k: pytest.fail("training started"))
        assert cli.main(["train", "--config", str(write_config(tmp_path, config))]) == 2
        assert f"{path}: line {line}: " in capsys.readouterr().err


class TestDataConfigValidation:
    def cifar_config(self, tmp_path, **files):
        path = tmp_path / "batch.bin"
        rng = np.random.default_rng(0)
        records = np.concatenate([np.zeros((4, 1), dtype=np.uint8),
                                  rng.integers(0, 256, size=(4, 3072), dtype=np.uint8)], axis=1)
        records.tofile(path)
        config = toy_config(tmp_path / "run", epochs=1)
        config["model"] = {"kind": "conv", "input_shape": [3, 32, 32], "channels": [2],
                           "classes": 10}
        config["data"] = {"kind": "cifar10",
                          **{key: [str(path)] for key in files}}
        config["ood_data"] = dict(config["data"])
        return write_config(tmp_path, config)

    def test_train_without_test_files_exits_one_before_training(self, tmp_path, capsys):
        path = self.cifar_config(tmp_path, train_files=True)
        assert cli.main(["train", "--config", str(path)]) == 1
        assert "test_files" in capsys.readouterr().err
        assert not (tmp_path / "run" / "checkpoint_final.npz").exists()

    def test_train_without_train_files_exits_one(self, tmp_path, capsys):
        path = self.cifar_config(tmp_path, test_files=True)
        assert cli.main(["train", "--config", str(path)]) == 1
        assert "train_files" in capsys.readouterr().err
        assert not (tmp_path / "run" / "checkpoint_final.npz").exists()

    @pytest.mark.parametrize("command,missing", [
        ("eval", "test_files"), ("calibrate", "test_files"), ("attack", "test_files"),
        ("ood", "test_files"), ("hist-egm", "train_files")])
    def test_command_without_its_split_exits_one(self, tmp_path, capsys, command, missing):
        present = "train_files" if missing == "test_files" else "test_files"
        path = self.cifar_config(tmp_path, **{present: True})
        # the config is rejected before the (absent) checkpoint is opened
        assert cli.main([command, "--config", str(path),
                         "--checkpoint", str(tmp_path / "absent.npz")]) == 1
        assert missing in capsys.readouterr().err


class TestManifest:
    def test_records_blas_env_and_evaluated_split(self, trained):
        out, _ = trained
        manifest = json.loads((out / "manifest_train.json").read_text())
        assert set(manifest["blas_env"]) == {"OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                             "MKL_NUM_THREADS"}
        assert manifest["eval_data"]["split"] == "test"
        assert "threads" not in manifest

    def test_csv_data_evaluates_its_training_file(self, trained, tmp_path):
        out, config_path = trained
        csv_path = tmp_path / "points.csv"
        dataset_to_csv(data.gen_gaussian_mixture_2d(
            10, [(-0.5, 0.0), (0.5, 0.0)], 0.15, seed=3), csv_path)
        config = json.loads(config_path.read_text())
        config["data"] = {"kind": "csv", "path": str(csv_path), "classes": 2}
        path = write_config(tmp_path, config, "csv.json")
        eval_out = tmp_path / "eval"
        assert cli.main(["eval", "--config", str(path), "--out", str(eval_out),
                         "--checkpoint", str(out / "checkpoint_final.npz")]) == 0
        manifest = json.loads((eval_out / "manifest_eval.json").read_text())
        assert manifest["eval_data"] == {"split": "train", "provenance": f"csv:{csv_path}"}

    def test_ood_records_its_out_of_distribution_set(self, trained, tmp_path):
        out, config_path = trained
        csv_path = tmp_path / "ood.csv"
        dataset_to_csv(data.gen_gaussian_mixture_2d(
            10, [(2.0, 2.0), (3.0, 2.0)], 0.15, seed=4), csv_path)
        config = json.loads(config_path.read_text())
        config["ood_data"] = {"kind": "csv", "path": str(csv_path), "classes": 2}
        path = write_config(tmp_path, config, "ood.json")
        ood_out = tmp_path / "ood"
        assert cli.main(["ood", "--config", str(path), "--out", str(ood_out),
                         "--checkpoint", str(out / "checkpoint_final.npz")]) == 0
        manifest = json.loads((ood_out / "manifest_ood.json").read_text())
        assert manifest["eval_data"]["split"] == "test"
        assert manifest["eval_data"]["provenance"].startswith("gaussian_mixture_2d(")
        assert manifest["ood_data"] == {"split": "train", "provenance": f"csv:{csv_path}"}

    def test_threads_flag_is_gone(self, trained):
        _, config_path = trained
        assert cli.main(["train", "--config", str(config_path), "--threads", "1"]) == 1


class TestSeedOverride:
    def run(self, config_path, out, command, seed, *flags):
        assert cli.main([command, "--config", str(config_path), "--out", str(out),
                         "--seed", str(seed), *flags]) == 0
        return out

    def test_attack_random_starts_follow_seed(self, trained, tmp_path):
        out, config_path = trained
        config = json.loads(config_path.read_text())
        config["attack"] = {"norm": "linf", "n_steps": 1, "random_start": True,
                            "epsilons": [0.0, 0.3, 0.5, 0.7]}
        path = write_config(tmp_path, config, "attack.json")
        ckpt = ("--checkpoint", str(out / "checkpoint_final.npz"))
        a, b = (self.run(path, tmp_path / str(seed), "attack", seed, *ckpt) for seed in (5, 6))
        assert (a / "attack.csv").read_text() != (b / "attack.csv").read_text()
        assert json.loads((a / "manifest_attack.json").read_text())["seed"] == 5

    def test_noisy_sample_chains_follow_seed(self, tmp_path):
        config = {"seed": 1, "model": {"kind": "quadratic_bowl", "dim": 2},
                  "sample": {"n": 4, "sampler": {"n_steps": 5, "step_size": 0.1,
                                                 "noise": True}}}
        path = write_config(tmp_path, config)
        a, b = (self.run(path, tmp_path / str(seed), "sample", seed) for seed in (5, 6))
        assert (a / "samples.csv").read_text() != (b / "samples.csv").read_text()
        assert json.loads((b / "manifest_sample.json").read_text())["seed"] == 6

    @pytest.mark.parametrize("command,flags", [
        ("train", ()), ("eval", ()), ("calibrate", ()), ("ood", ("--score", "log_px")),
        ("attack", ("--epsilons", "0.0")), ("hist-egm", ()), ("sample", ("--n", "2"))])
    def test_every_manifest_records_the_override(self, trained, tmp_path, command, flags):
        out, config_path = trained
        config = json.loads(config_path.read_text())
        config["ood_data"] = config["data"]
        config["train"]["epochs"] = 1
        path = write_config(tmp_path, config)
        if command != "train":
            flags += ("--checkpoint", str(out / "checkpoint_final.npz"))
        self.run(path, tmp_path / "out", command, 11, *flags)
        manifest = json.loads((tmp_path / "out" / f"manifest_{command}.json").read_text())
        assert manifest["seed"] == 11 and manifest["config"]["seed"] == 11


class TestSplitsRead:
    """Each command reads the files of the splits it uses and no others."""

    @pytest.fixture(scope="class")
    def cifar_run(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("cifar")
        rng = np.random.default_rng(0)
        files = {}
        for name, n in (("train", 8), ("test", 4), ("ood", 4)):
            records = np.concatenate([rng.integers(0, 10, size=(n, 1), dtype=np.uint8),
                                      rng.integers(0, 256, size=(n, 3072), dtype=np.uint8)],
                                     axis=1)
            files[name] = root / f"{name}.bin"
            records.tofile(files[name])
        config = toy_config(root / "run", epochs=1)
        config["model"] = {"kind": "conv", "input_shape": [3, 32, 32], "channels": [2],
                           "classes": 10}
        config["data"] = {"kind": "cifar10", "train_files": [str(files["train"])],
                          "test_files": [str(files["test"])]}
        config["ood_data"] = {"kind": "cifar10", "train_files": [str(files["train"])],
                              "test_files": [str(files["ood"])]}
        config["attack"] = {"n_steps": 1, "epsilons": [0.0, 0.1]}
        config["sample"] = {"n": 2, "sampler": {"n_steps": 1, "noise": False}}
        path = write_config(root, config)
        assert cli.main(["train", "--config", str(path)]) == 0
        return root, path, files

    @pytest.mark.parametrize("command,reads", [
        ("train", [("train", "train"), ("test", "test")]),
        ("eval", [("test", "test")]), ("calibrate", [("test", "test")]),
        ("attack", [("test", "test")]), ("hist-egm", [("train", "train")]),
        ("ood", [("test", "test"), ("ood", "test")]), ("sample", [])])
    def test_reads_only_its_splits(self, cifar_run, tmp_path, monkeypatch, command, reads):
        root, path, files = cifar_run
        calls = []
        real = data.read_cifar_binary

        def counting(file, kind, split):
            calls.append((file, split))
            return real(file, kind, split)
        monkeypatch.setattr(data, "read_cifar_binary", counting)
        flags = [] if command == "train" else ["--checkpoint",
                                               str(root / "run" / "checkpoint_final.npz")]
        assert cli.main([command, "--config", str(path), "--out", str(tmp_path), *flags]) == 0
        assert calls == [(str(files[name]), split) for name, split in reads]

    @pytest.mark.parametrize("section,key,value,message", [
        ("train", "mode", "bogus", "bogus"),
        ("model", "kind", "bogus", "bogus"),
        ("model", "kind", "quadratic_bowl", "trainable")])
    def test_bad_train_config_exits_before_reading(self, cifar_run, tmp_path, monkeypatch,
                                                   capsys, section, key, value, message):
        _, path, _ = cifar_run
        config = json.loads(path.read_text())
        config[section][key] = value
        bad = write_config(tmp_path, config)
        calls = []
        monkeypatch.setattr(data, "read_cifar_binary", lambda *a: calls.append(a))
        assert cli.main(["train", "--config", str(bad), "--out", str(tmp_path)]) == 1
        assert message in capsys.readouterr().err
        assert calls == []


CONFIGS = ROOT / "configs"


def final_epoch(config_name, seed, out):
    assert cli.main(["train", "--config", str(CONFIGS / config_name), "--out", str(out),
                     "--seed", str(seed)]) == 0
    with open(out / "runlog.csv") as fh:
        return list(csv.DictReader(fh))[-1]


def test_shipped_jem_config_trains_like_ce_without_diverging(tmp_path):
    # jem health gate: on each seed the final epoch keeps all but at most
    # 20 of its 400 chains finite and in bound, and the jem classifier's test
    # accuracy lands within 0.05 of cross-entropy's
    for seed in range(5):
        ce = final_epoch("toy_ce.json", seed, tmp_path / f"ce{seed}")
        jem = final_epoch("toy_jem.json", seed, tmp_path / f"jem{seed}")
        assert int(jem["diverged_chains"]) <= 20, (seed, jem)
        gap = abs(float(jem["eval_accuracy"]) - float(ce["eval_accuracy"]))
        assert gap <= 0.05, (seed, ce["eval_accuracy"], jem["eval_accuracy"])
