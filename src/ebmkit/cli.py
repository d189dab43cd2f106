"""Command-line surface.

Subcommands: train, eval, calibrate, ood, attack, hist-egm, sample.
Every command reads a JSON experiment config (checked against one table
of rules before any data is read), writes its artifacts and a manifest
into the output directory, and exits 0 on success, 1 on usage/config
errors, 2 on runtime failures.

Environment: EBMKIT_OUT overrides the output directory. BLAS threads
follow OMP_NUM_THREADS / OPENBLAS_NUM_THREADS / MKL_NUM_THREADS as set
before the process starts; the manifest records their values.
"""

from __future__ import annotations

import argparse
import dataclasses
import enum
import hashlib
import itertools
import json
import math
import os
import sys
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from . import attacks
from . import data as datamod
from . import energy as en
from . import losses
from . import metrics
from . import nn
from . import sampler as smp
from . import trainer

__all__ = ["main", "entrypoint"]


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; we want 1
        raise UsageError(message)


# ---------------------------------------------------------------------------
# config table: per section, key -> (rule,) or (rule, kinds). A value key that
# names a field of the dataclass its section builds (TrainConfig for train and
# the root's seed, SgldConfig for sampler, AttackConfig for attack) fills that
# field, an absent one keeps the field's default, and a command reads the rest
# itself. rule: a _Rule, choices (an enum, or kinds with the default first) or
# a subsection's table. kinds: the section kinds (for the root, the commands)
# that require the key.

class _Rule(NamedTuple):
    text: str                          # what a valid value is, for the error
    test: Callable[[object], bool]


def _list(value, test, length=None) -> bool:
    return isinstance(value, list) and length in (None, len(value)) and all(map(test, value))


# json reads NaN and Infinity as floats; an int is always finite
_NUMBER = _Rule("a finite number", lambda v: (isinstance(v, int) and not isinstance(v, bool))
                or (isinstance(v, float) and math.isfinite(v)))
_INT0 = _Rule("an integer >= 0", lambda v: _NUMBER.test(v) and isinstance(v, int) and v >= 0)
_INT1 = _Rule("an integer >= 1", lambda v: _INT0.test(v) and v >= 1)
_NUMBER0 = _Rule("a finite number >= 0", lambda v: _NUMBER.test(v) and v >= 0)
_POSITIVE = _Rule("a finite number > 0", lambda v: _NUMBER.test(v) and v > 0)
_STEP = _Rule("null or a finite number > 0", lambda v: v is None or _POSITIVE.test(v))
_BOOL = _Rule("true or false", lambda v: isinstance(v, bool))
_STR = _Rule("a string", lambda v: isinstance(v, str))
_STRS = _Rule("a list of strings", lambda v: _list(v, _STR.test))
_WIDTHS = _Rule("a list of integers >= 1", lambda v: _list(v, _INT1.test))
_SHAPE = _Rule("3 integers >= 1", lambda v: _list(v, _INT1.test, 3))
# a gaussian_mixture point is center + z * std, and numpy's standard normal z
# lies within 3.65 + 53 ln(2) / 3.65 < 14 of 0 (the farthest tail draw of its
# ziggurat), so a point stays finite when |center| and 16 * std are at most
# half the largest float
_HALF_MAX = sys.float_info.max / 2
_CENTERS = _Rule(f"a list of distinct [x, y] pairs of numbers in [-{_HALF_MAX:.4g}, "
                 f"{_HALF_MAX:.4g}]", lambda v: _list(v, lambda c: _list(
                     c, lambda u: _NUMBER.test(u) and abs(u) <= _HALF_MAX, 2))
                 and len(v) == len({tuple(c) for c in v}) > 0)
_STD = _Rule(f"a number in [0, {_HALF_MAX / 16:.4g}]",
             lambda v: _NUMBER0.test(v) and 16 * v <= _HALF_MAX)

_BOWLS = {"quadratic_bowl": 1.0, "concave_bowl": -1.0}   # the test energies' curvatures

_TABLE = {
    "": {"seed": (_INT0,), "out_dir": (_STR,), "model": ("model", ["train"]),
         "ood_data": ("data",),
         **{name: (name,) for name in ("data", "train", "metrics", "attack", "sample", "hist")}},
    "model": {
        "kind": (["mlp", "conv", *_BOWLS],), "input_dim": (_INT1, ["mlp"]),
        "hidden": (_WIDTHS,), "classes": (_INT1, ["mlp", "conv"]),
        "input_shape": (_SHAPE, ["conv"]), "channels": (_WIDTHS,),
        "kernel": (_Rule("an odd integer >= 1", lambda v: _INT1.test(v) and v % 2 == 1),),
        "dim": (_INT1,)},
    "data": {
        "kind": (["gaussian_mixture", "cifar10", "cifar100", "csv"],),
        "n_per_class": (_INT1, ["gaussian_mixture"]),
        "centers": (_CENTERS, ["gaussian_mixture"]), "std": (_STD, ["gaussian_mixture"]),
        "seed": (_INT0,),
        "label_noise": (_Rule("a number in [0, 1]", lambda v: _NUMBER0.test(v) and v <= 1),),
        "train_files": (_STRS,), "test_files": (_STRS,),
        "path": (_STR, ["csv"]), "classes": (_INT1, ["csv"])},
    "train": {
        "mode": (losses.Mode,), "epochs": (_INT0,), "batch_size": (_INT1,), "lr": (_POSITIVE,),
        "milestones": (_Rule("strictly ascending integers >= 0", lambda v: _list(
            v, _INT0.test) and all(a < b for a, b in zip(v, v[1:]))),),
        "decay_factor": (_Rule("a number in (0, 1]", lambda v: _POSITIVE.test(v) and v <= 1),),
        "beta": (_NUMBER0,), "gamma": (_NUMBER0,), "checkpoint_interval": (_INT0,),
        "divergence_policy": (trainer.DIVERGENCE_POLICIES,), "sampler": ("sampler",)},
    "sampler": {
        "n_steps": (_INT0,), "step_size": (_POSITIVE,),
        "init": (_Rule("a pair [lo, hi] of finite numbers, lo < hi",
                       lambda v: _list(v, _NUMBER.test, 2) and v[0] < v[1]),),
        "noise": (_BOOL,), "divergence_bound": (_STEP,)},
    "metrics": {"ece_bins": (_INT1,)},
    "attack": {
        "norm": (attacks.Norm,),
        "epsilons": (_Rule("ascending finite numbers >= 0",
                           lambda v: _list(v, _NUMBER0.test) and v == sorted(v)),),
        "n_steps": (_INT1,), "step_size": (_STEP,), "random_start": (_BOOL,)},
    "sample": {"n": (_INT1,), "sampler": ("sampler",)},
    "hist": {"bins": (_INT1,)},
}
_HIST_BINS = 30   # hist.bins when absent, for ood's and hist-egm's histograms


def _kind(section: dict, name: str) -> str:
    """The kind of a model or data section; its table names the default first."""
    return section.get("kind", _TABLE[name]["kind"][0][0])


def check_config(config: dict, command: str, name: str = "", where: str = "") -> None:
    """Reject a section that is no object, an unknown key, a key its kind requires that is
    missing, or a value that breaks its rule, in ``config`` and each subsection it holds."""
    if not isinstance(config, dict):
        raise losses.ConfigError(f"section {where!r} must be a JSON object")
    table = _TABLE[name]
    unknown = set(config) - set(table)
    if unknown:
        place = f"section {where!r}" if where else "config"
        raise losses.ConfigError(f"unknown key(s) {sorted(unknown)} in {place}")
    kind = _kind(config, name) if "kind" in table else command
    for key, (rule, *required_by) in table.items():
        at = f"{where}.{key}" if where else key
        if key not in config:
            if required_by and kind in required_by[0]:
                raise losses.ConfigError(f"{at} is missing, and {kind} requires it")
        elif isinstance(rule, str):
            check_config(config[key], command, rule, at)
        else:
            if not isinstance(rule, _Rule):
                choices = [getattr(c, "value", c) for c in rule]
                rule = _Rule(f"one of {choices}", choices.__contains__)
            if not rule.test(config[key]):
                raise losses.ConfigError(f"{at} must be {rule.text}, got {config[key]!r}")


def _fields(cls, name: str, section: dict) -> dict:
    """The keyword arguments that ``section``, checked against table ``name``,
    gives dataclass ``cls``: the value of each key that names a field of ``cls``
    and holds no subsection, enum choices as their members and lists as tuples,
    so a built dataclass equals one made in Python."""
    names = {f.name for f in dataclasses.fields(cls)}
    kwargs = {}
    for key, (rule, *_) in _TABLE[name].items():
        if key in names and key in section and not isinstance(rule, str):
            value = section[key]
            kwargs[key] = (rule(value) if isinstance(rule, enum.EnumMeta)
                           else tuple(value) if isinstance(value, list) else value)
    return kwargs


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise losses.ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(config, dict):
        raise losses.ConfigError("config root must be a JSON object")
    return config


# ---------------------------------------------------------------------------
# builders

def build_model(section: dict):
    kind = _kind(section, "model")
    if kind == "mlp":
        return nn.ModelSpec.mlp(section["input_dim"], section.get("hidden", [32, 32]),
                                section["classes"])
    if kind == "conv":
        return nn.ModelSpec.small_conv(section["input_shape"], section.get("channels", [8, 8]),
                                       section["classes"], kernel=section.get("kernel", 3))
    dim = section.get("dim", 2)
    return nn.ModelSpec((nn.Bowl(dim, _BOWLS[kind]),), (dim,), 1)


def build_dataset(section: dict, splits=("train", "test")) -> tuple:
    """The datasets of ``splits`` ("train" or "test") for the configured
    source, in that order; only those splits are generated or read."""
    kind = _kind(section, "data")
    if kind == "gaussian_mixture":
        seed = section.get("seed", 0)

        def generate(split):
            # the test split draws from its own seed, 1000 above the train seed
            ds = datamod.gen_gaussian_mixture_2d(
                section["n_per_class"], section["centers"], section["std"],
                seed=seed if split == "train" else seed + 1000, split=split)
            noise = section.get("label_noise", 0.0)
            if split == "train" and noise:
                ds = datamod.with_label_noise(ds, noise, seed=seed + 1)
            return ds
        return tuple(generate(split) for split in splits)
    if kind in ("cifar10", "cifar100"):
        def read_all(split):
            parts = [datamod.read_cifar_binary(p, kind, split)
                     for p in section[f"{split}_files"]]
            return datamod.Dataset(np.concatenate([p.x for p in parts]),
                                   np.concatenate([p.y for p in parts]),
                                   classes=parts[0].classes, split=split,
                                   provenance=";".join(p.provenance for p in parts))
        return tuple(read_all(split) for split in splits)
    # csv: one file serves as every split
    ds = datamod.dataset_from_csv(section["path"], classes=section["classes"])
    return (ds,) * len(splits)


# The (config section, split) pairs each command reads, in the order its
# cmd_* function takes the datasets. The last pair from "data" is the set
# the command scores, which the manifest records as eval_data; ood also
# records its "ood_data" set.
_READS = {"train": (("data", "train"), ("data", "test")), "eval": (("data", "test"),),
          "calibrate": (("data", "test"),), "ood": (("data", "test"), ("ood_data", "test")),
          "attack": (("data", "test"),), "hist-egm": (("data", "train"),), "sample": ()}


def check_data_files(config: dict, command: str) -> None:
    """Reject a config that lacks data the command reads (a section, or the
    files of a cifar split) before any file is read."""
    for name, split in _READS[command]:
        if name not in config:
            raise losses.ConfigError(f"{command} reads the {name} section, which is missing")
        section = config[name]
        if section.get("kind") in ("cifar10", "cifar100") and not section.get(f"{split}_files"):
            raise losses.ConfigError(
                f"{command} reads the {split} split: {name}.{split}_files is missing")


def read_data(config: dict, command: str, model: nn.ModelSpec) -> list:
    """The datasets of _READS for ``command``, in order. Data that holds more
    classes than ``model``, inputs ``model`` does not take, or one class to add
    label noise to, is a config error, found before any data is generated or
    read but for a csv file's width, known only once the file is read. The
    errors name train's model section or the checkpoint the other commands
    open. ood_data's labels are never read, so only its inputs are checked."""
    owner = "" if command == "train" else "the checkpoint's "
    reads = _READS[command]
    sections = dict.fromkeys(name for name, _ in reads)
    for name in sections:
        section = config[name]
        kind = _kind(section, "data")
        if kind == "csv":
            source, classes, shape = f"{name}.classes", section["classes"], None
        elif kind == "gaussian_mixture":
            source, classes, shape = f"{name}.centers", len(section["centers"]), (2,)
            needs = "model.kind mlp with model.input_dim 2"
            if classes == 1 and section.get("label_noise") and (name, "train") in reads:
                raise losses.ConfigError(f"{name}.label_noise moves labels to another class, "
                                         f"but {name}.centers gives one class")
        else:
            source, classes, shape = f"{name}.kind", 10 if kind == "cifar10" else 100, (3, 32, 32)
            needs = "model.kind conv with model.input_shape [3, 32, 32]"
        if name == "data" and classes > model.classes:
            raise losses.ConfigError(f"{source} gives {classes} classes, "
                                     f"more than {owner}model.classes {model.classes}")
        if shape and model.input_shape != shape:
            raise losses.ConfigError(f"{name}.kind {kind} needs {needs}, but {owner}"
                                     f"model.input_shape is {list(model.input_shape)}")
    # one build per section, so a csv file is parsed once for all its splits
    built = {name: iter(build_dataset(config[name], tuple(s for n, s in reads if n == name)))
             for name in sections}
    datasets = [next(built[name]) for name, _ in reads]
    for (name, _), ds in zip(reads, datasets):
        if ds.x.shape[1:] != model.input_shape:     # a csv: the other kinds passed above
            raise losses.ConfigError(f"{name}.path {config[name]['path']} has {ds.x.shape[1]} "
                                     f"input columns, but {owner}model.input_shape is "
                                     f"{list(model.input_shape)}")
    return datasets


def build_train_config(config: dict) -> trainer.TrainConfig:
    """The TrainConfig of a checked config. The table admitted each value, so
    the one rule left to check is TrainConfig's beta + gamma = 1, which spans two keys."""
    if _kind(config["model"], "model") in _BOWLS:
        raise losses.ConfigError("this command requires a trainable model (mlp or conv)")
    section = config.get("train", {})
    try:
        return trainer.TrainConfig(
            model=build_model(config["model"]), **_fields(trainer.TrainConfig, "", config),
            sampler=smp.SgldConfig(**_fields(smp.SgldConfig, "sampler",
                                             section.get("sampler", {}))),
            **_fields(trainer.TrainConfig, "train", section))
    except losses.ConfigError as exc:
        raise losses.ConfigError(f"train.beta, train.gamma: {exc}") from None


# ---------------------------------------------------------------------------
# manifest

def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_manifest(out_dir: Path, command: str, config: dict,
                   checkpoint_path=None, eval_data=None, ood_data=None) -> None:
    manifest = {
        "command": command,
        "config": config,
        "seed": config.get("seed", 0),
        "versions": {"ebmkit": __version__, "numpy": np.__version__},
        # read by BLAS when numpy loaded it, so these are the settings in effect
        "blas_env": {var: os.environ.get(var) for var in
                     ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }
    if checkpoint_path is not None:
        manifest["checkpoint_sha256"] = _sha256(checkpoint_path)
    for key, ds in (("eval_data", eval_data), ("ood_data", ood_data)):
        if ds is not None:
            manifest[key] = {"split": ds.split, "provenance": ds.provenance}
    with open(out_dir / f"manifest_{command}.json", "w") as fh:
        json.dump(manifest, fh, indent=2)


def _out_dir(args, config) -> Path:
    out = args.out or os.environ.get("EBMKIT_OUT") or config.get("out_dir")
    if not out:
        raise losses.ConfigError("no output directory (config out_dir, --out, or EBMKIT_OUT)")
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_csv(path, header, *parts) -> None:
    """Write a command's table: the ``header`` names, then for each
    ``(row_format, values)`` part one ``row_format`` line per row, where
    ``values`` holds the rows' fields one after another; every line ends in
    \\r\\n. Each part is one %-format of one string: on the long tables
    (samples, OOD scores, ROC corners) any Python work per row costs more
    than computing the rows."""
    text = ",".join(header) + "\r\n"
    for row_format, values in parts:
        rows = len(values) // row_format.count("%")
        text += ((row_format + "\r\n") * rows) % tuple(values)
    with open(path, "w", newline="") as fh:
        fh.write(text)


def _write_hist(path, hist: metrics.Histogram) -> None:
    rows = np.column_stack([hist.edges[:-1], hist.edges[1:], hist.density])
    _write_csv(path, ["bin_lower", "bin_upper", "density"],
               ("%.12g,%.12g,%.12g", rows.ravel().tolist()))


# ---------------------------------------------------------------------------
# commands
#
# main() resolves everything a command shares: the seed override, the
# output directory, the --checkpoint it opens (None when not given; for
# train, the TrainConfig it starts from) and the datasets of _READS. A
# cmd_* function computes, writes its artifacts into ``out`` and prints a
# summary; train returns the checkpoint it wrote, which the manifest
# hashes in place of --checkpoint.

def cmd_train(args, config: dict, out: Path, tc, train_ds, test_ds) -> Path:
    ckpt, log = trainer.train(tc, train_ds, test_ds, checkpoint_dir=out)
    ckpt_path = out / "checkpoint_final.npz"
    trainer.checkpoint_save(ckpt, ckpt_path)
    # one column per EpochRecord field: %d for int fields, %.12g for the rest
    fields = dataclasses.fields(trainer.EpochRecord)
    _write_csv(out / "runlog.csv", [f.name for f in fields],
               (",".join("%d" if f.type in (int, "int") else "%.12g" for f in fields),
                [v for record in log for v in dataclasses.astuple(record)]))
    if log:
        print(f"trained {tc.epochs} epochs: eval accuracy {log[-1].eval_accuracy:.4f}, "
              f"mean EGM {log[-1].mean_egm:.4g}")
    print(f"checkpoint: {ckpt_path}")
    return ckpt_path


def cmd_evaluate(args, config: dict, out: Path, ckpt, test_ds) -> None:
    """eval writes the summary row, calibrate the reliability-diagram bins."""
    n_bins = config.get("metrics", {}).get("ece_bins", metrics.DEFAULT_ECE_BINS)
    result = trainer.evaluate(ckpt, test_ds, n_bins=n_bins)
    if args.command == "calibrate":
        _write_csv(out / "calibration_bins.csv",
                   ["bin_lower", "bin_upper", "count", "mean_confidence", "accuracy"],
                   ("%.12g,%.12g,%d,%.12g,%.12g",
                    [v for b in result.ece_report.bins for v in dataclasses.astuple(b)]))
        print(f"ECE {result.ece_report.value:.4f} over {n_bins} bins "
              f"-> {out / 'calibration_bins.csv'}")
        return
    _write_csv(out / "eval.csv", ["accuracy", "mean_confidence", "ece"],
               ("%.12g,%.12g,%.12g", [result.accuracy, result.mean_confidence,
                                      result.ece_report.value]))
    print(f"accuracy {result.accuracy:.4f}, confidence {result.mean_confidence:.4f}, "
          f"ECE {result.ece_report.value:.4f}")


def cmd_ood(args, config: dict, out: Path, ckpt, in_ds, out_ds) -> None:
    kind = en.ScoreKind(args.score)
    programs: dict = {}     # the two sets share each block shape's recording
    scores_in = metrics.score_dataset(ckpt.model, ckpt.params, in_ds, kind, programs)
    scores_out = metrics.score_dataset(ckpt.model, ckpt.params, out_ds, kind, programs)
    roc = metrics.auroc(scores_in, scores_out)

    bins = config.get("hist", {}).get("bins", _HIST_BINS)
    value_range = (float(min(scores_in.min(), scores_out.min())),
                   float(max(scores_in.max(), scores_out.max())))
    if value_range[0] == value_range[1]:
        value_range = None
    sets = {"in": scores_in, "out": scores_out}
    _write_csv(out / "ood_scores.csv", ["split", "score"],
               *((f"{split},%.12g", scores.tolist()) for split, scores in sets.items()))
    for split, scores in sets.items():
        _write_hist(out / f"ood_hist_{split}.csv", metrics.histogram(scores, bins, value_range))
    _write_csv(out / "ood_roc.csv", ["fpr", "tpr"],
               ("%.12g,%.12g", list(itertools.chain.from_iterable(roc.curve))))
    _write_csv(out / "ood_auroc.csv", ["score_kind", "auroc", "n_in", "n_out"],
               ("%s,%.12g,%d,%d", [kind.value, roc.auroc, len(scores_in), len(scores_out)]))
    print(f"AUROC[{kind.value}] = {roc.auroc:.4f}")


def cmd_attack(args, config: dict, out: Path, ckpt, test_ds) -> None:
    section = config.get("attack", {})
    settings = attacks.AttackConfig(**_fields(attacks.AttackConfig, "attack", section))
    report = attacks.attack_sweep(ckpt.model, ckpt.params, test_ds,
                                  section.get("epsilons", [0.0, 0.1, 0.2]), settings,
                                  seed=config.get("seed", 0))
    rows = [(report.norm.value, eps, report.clean_accuracy, acc, report.n_examples)
            for eps, acc in zip(report.epsilons, report.adversarial_accuracy)]
    _write_csv(out / "attack.csv",
               ["norm", "epsilon", "clean_accuracy", "adversarial_accuracy", "n_examples"],
               ("%s,%.12g,%.12g,%.12g,%d", [v for row in rows for v in row]))
    for norm, eps, clean, acc, _ in rows:
        print(f"{norm} eps={eps:g}: adversarial accuracy {acc:.4f} (clean {clean:.4f})")


def cmd_hist_egm(args, config: dict, out: Path, ckpt, train_ds) -> None:
    egm = -metrics.score_dataset(ckpt.model, ckpt.params, train_ds,
                                 en.ScoreKind.APPROXIMATE_MASS)
    bins = config.get("hist", {}).get("bins", _HIST_BINS)
    _write_hist(out / "egm_hist.csv", metrics.histogram(egm, bins))
    print(f"mean EGM {egm.mean():.6g} over {egm.size} examples -> {out / 'egm_hist.csv'}")


def cmd_sample(args, config: dict, out: Path, ckpt) -> None:
    section = config.get("sample", {})
    n = section.get("n", 64)
    sampler_cfg = smp.SgldConfig(**_fields(smp.SgldConfig, "sampler", section.get("sampler", {})))
    if ckpt is not None:
        model, params = ckpt.model, ckpt.params
    else:
        spec = config.get("model", {})
        if _kind(spec, "model") not in _BOWLS:
            raise losses.ConfigError("sample without --checkpoint needs a test-energy "
                                     "model.kind (quadratic_bowl or concave_bowl)")
        model, params = build_model(spec), {}
    seed = config.get("seed", 0)
    x0 = np.random.default_rng(seed).uniform(*sampler_cfg.init, size=(n,) + model.input_shape)
    result = smp.sgld_chain(model, params, x0, sampler_cfg, rng=np.random.default_rng([seed, 1]))
    ok = ~result.report.diverged_mask
    flat_dim = int(np.prod(result.samples.shape[1:]))
    survivors = result.samples[ok].reshape(int(ok.sum()), flat_dim)
    _write_csv(out / "samples.csv", [f"x{i}" for i in range(flat_dim)],
               (",".join(["%.12g"] * flat_dim), survivors.ravel().tolist()))
    stats = {
        "n_requested": int(n),
        "n_diverged": int((~ok).sum()),
        "diverged": bool(result.report.diverged),
        "step": result.report.step,
        "reason": result.report.reason,
        "converged": result.converged,
        "final_mean_egm": result.egm_trace[-1] if result.egm_trace else None,
    }
    with open(out / "divergence.json", "w") as fh:
        json.dump(stats, fh, indent=2)
    print(f"{survivors.shape[0]} samples written ({stats['n_diverged']} diverged)")


# ---------------------------------------------------------------------------

def _build_parser() -> _Parser:
    parser = _Parser(prog="ebmkit", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, summary, checkpoint=True):
        """``checkpoint``: True requires --checkpoint, False makes it
        optional, None leaves it out."""
        p = sub.add_parser(name, help=summary)
        p.add_argument("--config", required=True, help="experiment config JSON")
        p.add_argument("--out", help="output directory (overrides config)")
        p.add_argument("--seed", type=int, help="seed override")
        if checkpoint is not None:
            p.add_argument("--checkpoint", required=checkpoint, help="checkpoint .npz path")
        return p

    command("train", "train a model", checkpoint=None)
    command("eval", "accuracy/confidence/ECE")
    command("calibrate", "reliability-diagram bins")
    ood = command("ood", "out-of-distribution scoring")
    ood.add_argument("--score", default="approximate_mass",
                     choices=[k.value for k in en.ScoreKind])
    attack = command("attack", "PGD accuracy-vs-epsilon sweep")
    attack.add_argument("--norm", choices=[n.value for n in attacks.Norm])
    attack.add_argument("--epsilons", type=float, nargs="+")
    command("hist-egm", "energy-derivative histogram")
    sample = command("sample", "run sampler chains", checkpoint=False)
    sample.add_argument("--n", type=int, help="number of chains")
    return parser


_COMMANDS = {"train": cmd_train, "eval": cmd_evaluate, "calibrate": cmd_evaluate, "ood": cmd_ood,
             "attack": cmd_attack, "hist-egm": cmd_hist_egm, "sample": cmd_sample}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        config = load_config(args.config)
        if args.seed is not None:
            config["seed"] = args.seed
        for name, key in (("attack", "norm"), ("attack", "epsilons"), ("sample", "n")):
            value = getattr(args, key, None)   # checked as the key it replaces
            if value is not None and isinstance(config.setdefault(name, {}), dict):
                config[name][key] = value
        check_config(config, args.command)
        check_data_files(config, args.command)
        out = _out_dir(args, config)
        ckpt_path = getattr(args, "checkpoint", None)
        if args.command == "train":
            # built before any data is read, so a bad model or train section exits first
            ckpt = build_train_config(config)
        else:
            ckpt = trainer.checkpoint_load(ckpt_path) if ckpt_path else None
        # only sample runs without a model, and it reads no data
        datasets = read_data(config, args.command, ckpt and ckpt.model)
        written = _COMMANDS[args.command](args, config, out, ckpt, *datasets)
        last_read = {name: ds for (name, _), ds in zip(_READS[args.command], datasets)}
        write_manifest(out, args.command, config, written or ckpt_path,
                       last_read.get("data"), last_read.get("ood_data"))
        return 0
    except losses.ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - surface as runtime failure
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())
