"""Workload definitions: generated inputs, configs, and the timed phases.

Every input is a function of the seed. A workload is a list of phases;
a phase runs one ebmkit command ``repeats`` times on the same config and
is timed as a whole, so that each phase lasts seconds. ``work`` is the
number of units (examples, example-steps or chain-steps) that one
invocation processes, which turns wall time into a rate.

Three scales share the same code: ``full`` is what the benchmark
measures, ``small`` is what the benchmark's own tests run, and ``tiny``
is the untimed warm-up pass that runs every command once on the same
shapes before timing starts.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

WORKLOADS = ("toy", "conv_train", "conv_eval")
PHASES = ("train_ce", "train_ngebm", "train_jem", "calibrate", "ood", "hist_egm",
          "attack", "sample")
TRAIN_MODES = ("ce", "ngebm", "jem")

TOY_CENTERS = [[-0.5, 0.0], [0.5, 0.0]]
TOY_STD = 0.35
TOY_MODEL = {"kind": "mlp", "input_dim": 2, "hidden": [32, 32], "classes": 2}
CONV_MODEL = {"kind": "conv", "input_shape": [3, 32, 32], "channels": [8, 8],
              "kernel": 3, "classes": 10}

# The toy jem run keeps the repository's example config (configs/toy_jem.json)
# with seeds that ignore --seed: it is the one operation expected to fail, and
# it must fail the same way on every seed.
TOY_JEM_FIXED = {
    "seed": 7,
    "data": {"kind": "gaussian_mixture", "n_per_class": 200, "centers": TOY_CENTERS,
             "std": TOY_STD, "seed": 3},
    "train": {"mode": "jem", "epochs": 30, "batch_size": 64, "lr": 0.001,
              "divergence_policy": "skip-batch",
              "sampler": {"n_steps": 20, "step_size": 0.05, "noise": True,
                          "init": [-1.0, 1.0]}},
}


@dataclass
class Phase:
    name: str                 # metric prefix, one of PHASES
    command: str              # ebmkit subcommand
    config: str               # key into Workload.configs
    work: int                 # units processed by one invocation
    repeats: int = 1
    argv: tuple = ()          # extra command-line flags
    checkpoint: Optional[str] = None   # key into Workload.checkpoints


@dataclass
class Workload:
    name: str
    seed: int
    scale: str
    root: Path
    configs: dict = field(default_factory=dict)      # key -> config dict
    files: dict = field(default_factory=dict)        # key -> (path, x, y)
    phases: list = field(default_factory=list)
    checkpoints: dict = field(default_factory=dict)  # key -> checkpoint path
    prepare: Optional[str] = None                    # config trained during set-up

    def config_path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def out_dir(self, key: str) -> Path:
        return self.root / "out" / key

    def write(self) -> None:
        """Write every generated input file and config under ``root``."""
        self.root.mkdir(parents=True, exist_ok=True)
        for path, x, y in self.files.values():
            write_cifar10(path, x, y)
        for key, config in self.configs.items():
            self.config_path(key).write_text(json.dumps(config, indent=1))


# ---------------------------------------------------------------------------
# input generators

def toy_data(n_per_class: int, seed: int) -> dict:
    return {"kind": "gaussian_mixture", "n_per_class": n_per_class,
            "centers": TOY_CENTERS, "std": TOY_STD, "seed": seed}


def toy_ood(n: int, seed: int) -> dict:
    """One tight blob above the two classes, away from both centres."""
    return {"kind": "gaussian_mixture", "n_per_class": n, "centers": [[0.0, 0.75]],
            "std": 0.05, "seed": seed}


def class_templates(rng: np.random.Generator, classes: int) -> np.ndarray:
    """Smooth per-class images: 8x8 normal fields upsampled 4x, in pixel units."""
    coarse = rng.normal(0.0, 1.0, size=(classes, 3, 8, 8))
    return 127.5 + 45.0 * np.kron(coarse, np.ones((1, 1, 4, 4)))


def images(rng: np.random.Generator, templates: np.ndarray, n: int):
    """``n`` labelled images: a template plus pixel noise, quantised to bytes."""
    y = rng.integers(0, len(templates), size=n)
    pixels = templates[y] + rng.normal(0.0, 55.0, size=(n,) + templates.shape[1:])
    return np.clip(np.round(pixels), 0, 255).astype(np.uint8), y.astype(np.uint8)


def write_cifar10(path: Path, pixels: np.ndarray, labels: np.ndarray) -> None:
    """CIFAR-10 binary layout: per record one label byte, then 3072 pixel bytes."""
    records = np.concatenate([labels.reshape(-1, 1), pixels.reshape(len(labels), -1)], axis=1)
    records.astype(np.uint8).tofile(str(path))


def to_unit(pixels: np.ndarray) -> np.ndarray:
    """The documented byte-to-input mapping, x / 127.5 - 1."""
    return pixels.astype(np.float64) / 127.5 - 1.0


# ---------------------------------------------------------------------------
# sizes

# toy: n_train/n_eval/n_attack are per class; reps fill each phase to seconds
TOY_SIZES = {
    "full": dict(n_train=1200, epochs=30, n_eval=5000, n_ood=10000, n_attack=256,
                 attack_steps=40, chains=256, chain_steps=100, jem_epochs=30,
                 reps=dict(calibrate=48, ood=1, hist_egm=24, attack=5, sample=8)),
    "small": dict(n_train=200, epochs=10, n_eval=500, n_ood=1000, n_attack=32,
                  attack_steps=10, chains=32, chain_steps=20, jem_epochs=30,
                  reps=dict(calibrate=2, ood=1, hist_egm=2, attack=1, sample=1)),
    "tiny": dict(n_train=64, epochs=1, n_eval=64, n_ood=64, n_attack=16,
                 attack_steps=2, chains=8, chain_steps=2, jem_epochs=1,
                 reps=dict(calibrate=1, ood=1, hist_egm=1, attack=1, sample=1)),
}

# conv: counts are images; "train"/"test" feed the train phases, the rest the
# evaluation phases; reps fill short phases
CONV_SIZES = {
    "conv_train": {
        "full": dict(train=128, test=64, cal=64, ood_in=32, ood_out=32, hist=32,
                     attack=16, attack_eps=[0.0, 1.0], attack_steps=3,
                     chains=16, chain_steps=4, jem_steps=2, prep=None,
                     reps=dict(calibrate=2, hist_egm=2, attack=2, sample=2)),
        "small": dict(train=64, test=32, cal=32, ood_in=16, ood_out=16, hist=16,
                      attack=8, attack_eps=[0.0, 1.0], attack_steps=2,
                      chains=4, chain_steps=2, jem_steps=2, prep=None, reps={}),
    },
    "conv_eval": {
        "full": dict(train=32, test=32, cal=256, ood_in=96, ood_out=96, hist=256,
                     attack=32, attack_eps=[0.0, 0.5, 1.0], attack_steps=3,
                     chains=32, chain_steps=4, jem_steps=3, prep=32,
                     reps=dict(train_ce=2, train_ngebm=2, train_jem=2)),
        "small": dict(train=16, test=16, cal=64, ood_in=32, ood_out=32, hist=48,
                      attack=8, attack_eps=[0.0, 1.0], attack_steps=2,
                      chains=4, chain_steps=2, jem_steps=2, prep=16, reps={}),
    },
}
CONV_TINY = dict(train=64, test=16, cal=16, ood_in=8, ood_out=8, hist=8, attack=4,
                 attack_eps=[0.0, 1.0], attack_steps=1, chains=4, chain_steps=1,
                 jem_steps=1, prep=16, reps={})


# ---------------------------------------------------------------------------
# builders

def build(name: str, seed: int, scale: str, root: Path) -> Workload:
    if name == "toy":
        return _build_toy(seed, scale, root)
    if name in CONV_SIZES:
        sizes = CONV_SIZES[name]["full" if scale == "tiny" else scale]
        if scale == "tiny":   # one batch of the same training set size, at most
            sizes = dict(CONV_TINY, train=min(sizes["train"], CONV_TINY["train"]))
        return _build_conv(name, seed, scale, root, sizes)
    raise ValueError(f"unknown workload {name!r}")


def _build_toy(seed: int, scale: str, root: Path) -> Workload:
    s = TOY_SIZES[scale]
    wl = Workload("toy", seed, scale, root)
    base = {"model": TOY_MODEL, "metrics": {"ece_bins": 20}, "hist": {"bins": 30}}
    # a staircase decay after two thirds of the epochs: at a constant 0.01 the
    # ngebm accuracy swings by up to 0.1 from one epoch to the next
    for mode in ("ce", "ngebm"):
        wl.configs[f"train_{mode}"] = dict(
            base, seed=seed, data=toy_data(s["n_train"], seed * 10 + 1),
            train={"mode": mode, "epochs": s["epochs"], "batch_size": 64, "lr": 0.01,
                   "milestones": [max(1, 2 * s["epochs"] // 3)], "decay_factor": 0.1,
                   "beta": 0.5, "gamma": 0.5})
    jem = copy.deepcopy(TOY_JEM_FIXED)
    jem["train"]["epochs"] = s["jem_epochs"]
    wl.configs["train_jem"] = dict(base, **jem)
    wl.configs["eval"] = dict(
        base, seed=seed, data=toy_data(s["n_eval"], seed * 10 + 2),
        ood_data=toy_ood(s["n_ood"], seed * 10 + 3),
        sample={"n": s["chains"],
                "sampler": {"n_steps": s["chain_steps"], "step_size": 0.05,
                            "noise": False, "init": [-1.0, 1.0]}})
    eps = [0.0, 0.1, 0.2, 0.3]
    wl.configs["attack"] = dict(
        base, seed=seed, data=toy_data(s["n_attack"], seed * 10 + 4),
        attack={"norm": "l2", "epsilons": eps, "n_steps": s["attack_steps"]})

    reps = s["reps"]
    n_train = 2 * s["n_train"]
    wl.phases = [
        Phase("train_ce", "train", "train_ce", n_train * s["epochs"]),
        Phase("train_ngebm", "train", "train_ngebm", n_train * s["epochs"]),
        Phase("train_jem", "train", "train_jem", 400 * s["jem_epochs"]),
        Phase("calibrate", "calibrate", "eval", 2 * s["n_eval"], reps["calibrate"],
              checkpoint="train_ngebm"),
        Phase("ood", "ood", "eval", 2 * s["n_eval"] + s["n_ood"], reps["ood"],
              ("--score", "approximate_mass"), checkpoint="train_ngebm"),
        Phase("hist_egm", "hist-egm", "eval", 2 * s["n_eval"], reps["hist_egm"],
              checkpoint="train_ngebm"),
        Phase("attack", "attack", "attack",
              2 * s["n_attack"] * s["attack_steps"] * sum(e > 0 for e in eps),
              reps["attack"], checkpoint="train_ngebm"),
        Phase("sample", "sample", "eval", s["chains"] * s["chain_steps"], reps["sample"],
              checkpoint="train_ngebm"),
    ]
    return wl


def _build_conv(name: str, seed: int, scale: str, root: Path, s: dict) -> Workload:
    wl = Workload(name, seed, scale, root)
    rng = np.random.default_rng([seed, 1])
    templates = class_templates(rng, 10)
    ood_templates = class_templates(np.random.default_rng([seed, 2]), 10)

    def add_file(key, n, source=templates):
        if n:
            pixels, labels = images(rng, source, n)
            wl.files[key] = (wl.root / f"{key}.bin", pixels, labels)

    for key in ("train", "test", "cal", "ood_in", "hist", "attack"):
        add_file(key, s[key])
    add_file("ood_out", s["ood_out"], ood_templates)
    add_file("prep", s["prep"])

    def files(key):
        return [str(wl.files[key][0])]

    def data(train_key, test_key):
        return {"kind": "cifar10", "train_files": files(train_key),
                "test_files": files(test_key)}

    base = {"seed": seed, "model": CONV_MODEL, "metrics": {"ece_bins": 20},
            "hist": {"bins": 30}}
    for mode in TRAIN_MODES:
        wl.configs[f"train_{mode}"] = dict(
            base, data=data("train", "test"),
            train={"mode": mode, "epochs": 1, "batch_size": 64, "lr": 0.01,
                   "beta": 0.5, "gamma": 0.5, "divergence_policy": "skip-batch",
                   "sampler": {"n_steps": s["jem_steps"], "step_size": 1.0,
                               "noise": True, "init": [-1.0, 1.0]}})
    wl.configs["calibrate"] = dict(base, data=data("test", "cal"))
    wl.configs["ood"] = dict(base, data=data("test", "ood_in"),
                             ood_data=data("test", "ood_out"))
    wl.configs["hist_egm"] = dict(base, data=data("hist", "test"))
    wl.configs["attack"] = dict(base, data=data("test", "attack"),
                                attack={"norm": "l2", "epsilons": s["attack_eps"],
                                        "n_steps": s["attack_steps"]})
    wl.configs["sample"] = dict(base, sample={"n": s["chains"],
                                        "sampler": {"n_steps": s["chain_steps"],
                                                    "step_size": 1.0, "noise": False,
                                                    "init": [-1.0, 1.0]}})
    # conv_eval evaluates a checkpoint trained during set-up; conv_train
    # evaluates the one its own ngebm phase wrote
    ckpt = "train_ngebm"
    if s["prep"]:
        wl.configs["prep"] = dict(base, data=data("prep", "test"),
                                  train={"mode": "ce", "epochs": 1, "batch_size": 64,
                                         "lr": 0.01})
        wl.prepare = ckpt = "prep"

    reps = s["reps"]
    nonzero = sum(e > 0 for e in s["attack_eps"])
    wl.phases = [Phase(f"train_{mode}", "train", f"train_{mode}", s["train"],
                       reps.get(f"train_{mode}", 1))
                 for mode in TRAIN_MODES]
    wl.phases += [
        Phase("calibrate", "calibrate", "calibrate", s["cal"], reps.get("calibrate", 1),
              checkpoint=ckpt),
        Phase("ood", "ood", "ood", s["ood_in"] + s["ood_out"], reps.get("ood", 1),
              ("--score", "approximate_mass"), checkpoint=ckpt),
        Phase("hist_egm", "hist-egm", "hist_egm", s["hist"], reps.get("hist_egm", 1),
              checkpoint=ckpt),
        Phase("attack", "attack", "attack", s["attack"] * s["attack_steps"] * nonzero,
              reps.get("attack", 1), checkpoint=ckpt),
        Phase("sample", "sample", "sample", s["chains"] * s["chain_steps"],
              reps.get("sample", 1), checkpoint=ckpt),
    ]
    return wl
