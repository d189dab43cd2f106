"""Command-line surface.

Subcommands: train, eval, calibrate, ood, attack, hist-egm, sample.
Every command reads a JSON experiment config (schema below, unknown
keys rejected), writes its artifacts plus a reproducibility manifest
into the output directory, and exits 0 on success, 1 on usage/config
errors, 2 on runtime failures.

Environment: EBMKIT_OUT overrides the output directory. BLAS threads
follow OMP_NUM_THREADS / OPENBLAS_NUM_THREADS / MKL_NUM_THREADS as set
before the process starts; the manifest records their values.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

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
# config schema

_SCHEMA = {
    "": {"seed", "out_dir", "model", "data", "ood_data", "train",
         "metrics", "attack", "sample", "hist"},
    "model": {"kind", "input_dim", "hidden", "classes", "input_shape",
              "channels", "kernel", "dim"},
    "data": {"kind", "n_per_class", "centers", "std", "seed", "label_noise",
             "train_files", "test_files", "path", "classes"},
    "ood_data": None,   # same keys as data
    "train": {"mode", "epochs", "batch_size", "lr", "milestones", "decay_factor",
              "beta", "gamma", "checkpoint_interval",
              "divergence_policy", "sampler"},
    "sampler": {"n_steps", "step_size", "decay_exponent", "init", "noise",
                "divergence_bound", "convergence_eta"},
    "metrics": {"ece_bins"},
    "attack": {"norm", "epsilons", "n_steps", "step_size", "random_start"},
    "sample": {"n", "sampler"},
    "hist": {"bins"},
}


def _check_keys(section: dict, name: str) -> None:
    allowed = _SCHEMA["data"] if name == "ood_data" else _SCHEMA[name]
    unknown = set(section) - allowed
    if unknown:
        where = f"section {name!r}" if name else "config"
        raise losses.ConfigError(f"unknown key(s) {sorted(unknown)} in {where}")
    for key, value in section.items():
        if key in _SCHEMA:
            if not isinstance(value, dict):
                raise losses.ConfigError(f"section {key!r} must be a JSON object")
            _check_keys(value, key)


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            config = json.load(fh)
    except OSError as exc:
        raise losses.ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise losses.ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise losses.ConfigError("config root must be a JSON object")
    _check_keys(config, "")
    return config


# ---------------------------------------------------------------------------
# builders

def build_model(section: dict):
    kind = section.get("kind", "mlp")
    if kind == "mlp":
        return nn.ModelSpec.mlp(section["input_dim"], section.get("hidden", [32, 32]),
                                section["classes"])
    if kind == "conv":
        return nn.ModelSpec.small_conv(tuple(section["input_shape"]),
                                       section.get("channels", [8, 8]),
                                       section["classes"],
                                       kernel=section.get("kernel", 3))
    if kind == "quadratic_bowl":
        return smp.QuadraticBowlEnergy()
    if kind == "concave_bowl":
        return smp.ConcaveBowlEnergy()
    raise losses.ConfigError(f"unknown model kind {kind!r}")


def build_dataset(section: dict, splits=("train", "test")) -> tuple:
    """The datasets of ``splits`` ("train" or "test") for the configured
    source, in that order; only those splits are generated or read."""
    kind = section.get("kind", "gaussian_mixture")
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
    if kind == "csv":
        # one file serves as every split
        ds = datamod.dataset_from_csv(section["path"], classes=section["classes"])
        return (ds,) * len(splits)
    raise losses.ConfigError(f"unknown data kind {kind!r}")


# The (config section, split) pairs each command reads, in the order its
# cmd_* function takes the datasets. The last pair from "data" is the set
# the command scores, which the manifest records as eval_data; ood also
# records its "ood_data" set.
_READS = {
    "train": (("data", "train"), ("data", "test")),
    "eval": (("data", "test"),),
    "calibrate": (("data", "test"),),
    "ood": (("data", "test"), ("ood_data", "test")),
    "attack": (("data", "test"),),
    "hist-egm": (("data", "train"),),
    "sample": (),
}


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


def _given(section: dict, *keys: str, **renamed: str) -> dict:
    """Keyword arguments for the ``keys`` (and ``renamed`` keyword=key
    pairs) present in ``section``; every absent key keeps the default
    of the dataclass it builds."""
    kwargs = {key: section[key] for key in keys if key in section}
    kwargs.update({kw: section[key] for kw, key in renamed.items() if key in section})
    return kwargs


def build_sampler(section: dict) -> smp.SgldConfig:
    """The SgldConfig of a sampler section. An init that is not a pair, a
    value of the wrong type (noise: a bool, n_steps: an int, the rest:
    numbers), or one SgldConfig rejects is a config error."""
    try:
        if "init" in section:
            init = section["init"]
            if not isinstance(init, list) or len(init) != 2:
                raise ValueError(f"init must be a pair [lo, hi], got {init!r}")
            section = dict(section, init_lo=init[0], init_hi=init[1])
        kwargs = _given(section, "n_steps", "step_size", "decay_exponent", "init_lo",
                        "init_hi", "noise", "divergence_bound", "convergence_eta")
        for key, value in kwargs.items():
            kind = bool if key == "noise" else int if key == "n_steps" else (int, float)
            if key == "divergence_bound" and value is None:
                continue
            if not isinstance(value, kind) or (kind is not bool and isinstance(value, bool)):
                raise TypeError(f"{key} = {value!r} has the wrong type")
        return smp.SgldConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        raise losses.ConfigError(f"sampler: {exc}") from None


# the least value of each count outside the sampler section
_COUNTS = {("train", "epochs"): 0, ("train", "batch_size"): 1,
           ("train", "checkpoint_interval"): 0, ("attack", "n_steps"): 1,
           ("metrics", "ece_bins"): 1, ("hist", "bins"): 1, ("sample", "n"): 1}


def check_values(config: dict) -> None:
    """Reject a count of _COUNTS that is not an int or is below its least
    value, an unknown attack norm, an attack step_size that is neither null
    nor a number > 0, and attack epsilons that are not ascending numbers
    >= 0."""
    def number(value, kind=(int, float)):
        return isinstance(value, kind) and not isinstance(value, bool)

    for (name, key), least in _COUNTS.items():
        value = config.get(name, {}).get(key, least)
        if not number(value, int) or value < least:
            raise losses.ConfigError(f"{name}.{key} must be an integer >= {least}, "
                                     f"got {value!r}")
    attack = config.get("attack", {})
    if "norm" in attack and attack["norm"] not in [n.value for n in attacks.Norm]:
        raise losses.ConfigError(f"attack.norm must be l2 or linf, got {attack['norm']!r}")
    step = attack.get("step_size")
    if step is not None and not (number(step) and step > 0):
        raise losses.ConfigError(f"attack.step_size must be null or a number > 0, got {step!r}")
    eps = attack.get("epsilons", [])
    if not (isinstance(eps, list) and all(number(e) and e >= 0 for e in eps)
            and eps == sorted(eps)):
        raise losses.ConfigError(f"attack.epsilons must be ascending numbers >= 0, got {eps!r}")


def build_train_config(config: dict) -> trainer.TrainConfig:
    model = build_model(config["model"])
    if not isinstance(model, nn.ModelSpec):
        raise losses.ConfigError("this command requires a trainable model (mlp or conv)")
    section = config.get("train", {})
    mode_name = section.get("mode", "ce")
    try:
        mode = losses.Mode(mode_name)
    except ValueError:
        raise losses.ConfigError(f"unknown training mode {mode_name!r}") from None
    sampler_cfg = (build_sampler(section.get("sampler", {}))
                   if "sampler" in section or mode is losses.Mode.JEM else None)
    loss_cfg = losses.LossConfig(mode=mode, sampler=sampler_cfg,
                                 **_given(section, "beta", "gamma"))
    return trainer.TrainConfig(
        model=model, loss=loss_cfg,
        schedule=nn.LrSchedule(**_given(section, "milestones", base_rate="lr",
                                        factor="decay_factor")),
        **_given(config, "seed"),
        **_given(section, "epochs", "batch_size", "checkpoint_interval",
                 "divergence_policy"))


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
    if tc.checkpoint_interval:
        tc.checkpoint_dir = str(out)
    ckpt, log = trainer.train(tc, train_ds, test_ds)
    ckpt_path = out / "checkpoint_final.npz"
    trainer.checkpoint_save(ckpt, ckpt_path)
    trainer.runlog_to_csv(log, out / "runlog.csv")
    last = log[-1] if log else None
    if last:
        print(f"trained {tc.epochs} epochs: eval accuracy {last.eval_accuracy:.4f}, "
              f"mean EGM {last.mean_egm:.4g}")
    print(f"checkpoint: {ckpt_path}")
    return ckpt_path


def cmd_evaluate(args, config: dict, out: Path, ckpt, test_ds) -> None:
    """eval writes the summary row, calibrate the reliability-diagram bins."""
    n_bins = config.get("metrics", {}).get("ece_bins", metrics.DEFAULT_ECE_BINS)
    result = trainer.evaluate(ckpt, test_ds, n_bins=n_bins)
    if args.command == "calibrate":
        metrics.ece_to_csv(result.ece_report, out / "calibration_bins.csv")
        print(f"ECE {result.ece_report.value:.4f} over {n_bins} bins "
              f"-> {out / 'calibration_bins.csv'}")
        return
    with open(out / "eval.csv", "w") as fh:
        fh.write("accuracy,mean_confidence,ece\n")
        fh.write(f"{result.accuracy:.12g},{result.mean_confidence:.12g},"
                 f"{result.ece_report.value:.12g}\n")
    print(f"accuracy {result.accuracy:.4f}, confidence {result.mean_confidence:.4f}, "
          f"ECE {result.ece_report.value:.4f}")


def cmd_ood(args, config: dict, out: Path, ckpt, in_ds, out_ds) -> None:
    kind = en.ScoreKind(args.score)
    scores_in = metrics.score_dataset(ckpt.model, ckpt.params, in_ds, kind)
    scores_out = metrics.score_dataset(ckpt.model, ckpt.params, out_ds, kind)
    roc = metrics.auroc(scores_in, scores_out)

    with open(out / "ood_scores.csv", "w") as fh:
        fh.write("split,score\n")
        fh.writelines("in,%.12g\n" % s for s in scores_in.tolist())
        fh.writelines("out,%.12g\n" % s for s in scores_out.tolist())
    bins = config.get("hist", {}).get("bins", 30)
    value_range = (float(min(scores_in.min(), scores_out.min())),
                   float(max(scores_in.max(), scores_out.max())))
    if value_range[0] == value_range[1]:
        value_range = None
    metrics.histogram_to_csv(metrics.histogram(scores_in, bins, value_range),
                             out / "ood_hist_in.csv")
    metrics.histogram_to_csv(metrics.histogram(scores_out, bins, value_range),
                             out / "ood_hist_out.csv")
    metrics.roc_to_csv(roc, out / "ood_roc.csv")
    with open(out / "ood_auroc.csv", "w") as fh:
        fh.write("score_kind,auroc,n_in,n_out\n")
        fh.write(f"{kind.value},{roc.auroc:.12g},{len(scores_in)},{len(scores_out)}\n")
    print(f"AUROC[{kind.value}] = {roc.auroc:.4f}")


def cmd_attack(args, config: dict, out: Path, ckpt, test_ds) -> None:
    section = config.get("attack", {})
    norm = attacks.Norm(section.get("norm", "linf"))
    epsilons = section.get("epsilons", [0.0, 0.1, 0.2])
    base = attacks.AttackConfig(norm=norm,
                                n_steps=section.get("n_steps", 40),
                                step_size=section.get("step_size"),
                                random_start=section.get("random_start", True))
    report = attacks.attack_sweep(ckpt.model, ckpt.params, test_ds, norm,
                                  epsilons, config=base,
                                  seed=config.get("seed", 0))
    attacks.attack_report_to_csv(report, out / "attack.csv")
    for eps, acc in zip(report.epsilons, report.adversarial_accuracy):
        print(f"{norm.value} eps={eps:g}: adversarial accuracy {acc:.4f} "
              f"(clean {report.clean_accuracy:.4f})")


def cmd_hist_egm(args, config: dict, out: Path, ckpt, train_ds) -> None:
    egm = -metrics.score_dataset(ckpt.model, ckpt.params, train_ds,
                                 en.ScoreKind.APPROXIMATE_MASS)
    bins = config.get("hist", {}).get("bins", 30)
    metrics.histogram_to_csv(metrics.histogram(egm, bins), out / "egm_hist.csv")
    print(f"mean EGM {egm.mean():.6g} over {egm.size} examples -> {out / 'egm_hist.csv'}")


def cmd_sample(args, config: dict, out: Path, ckpt) -> None:
    section = config.get("sample", {})
    n = section.get("n", 64)
    sampler_cfg = build_sampler(section.get("sampler", {}))
    if ckpt is not None:
        model, params, shape = ckpt.model, ckpt.params, ckpt.model.input_shape
    else:
        model = build_model(config["model"])
        if isinstance(model, nn.ModelSpec):
            raise losses.ConfigError(
                "sample without --checkpoint needs a test-energy model "
                "(quadratic_bowl or concave_bowl)")
        params = {}
        shape = (config["model"].get("dim", 2),)
    rng = np.random.default_rng(config.get("seed", 0))
    x0 = rng.uniform(sampler_cfg.init_lo, sampler_cfg.init_hi, size=(n,) + tuple(shape))
    result = smp.sgld_chain(model, params, x0, sampler_cfg,
                            rng=np.random.default_rng([config.get("seed", 0), 1]))
    ok = ~result.report.diverged_mask
    flat_dim = int(np.prod(result.samples.shape[1:]))
    survivors = result.samples[ok].reshape(int(ok.sum()), flat_dim)
    with open(out / "samples.csv", "w") as fh:
        fh.write(",".join(f"x{i}" for i in range(survivors.shape[1])) + "\n")
        # one %-format per row: per-value f-strings cost as much as the chains
        row_format = ",".join(["%.12g"] * survivors.shape[1]) + "\n"
        fh.writelines(row_format % tuple(row) for row in survivors.tolist())
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
    attack.add_argument("--norm", choices=["l2", "linf"])
    attack.add_argument("--epsilons", type=float, nargs="+")
    command("hist-egm", "energy-derivative histogram")
    sample = command("sample", "run sampler chains", checkpoint=False)
    sample.add_argument("--n", type=int, help="number of chains")
    return parser


_COMMANDS = {
    "train": cmd_train, "eval": cmd_evaluate, "calibrate": cmd_evaluate,
    "ood": cmd_ood, "attack": cmd_attack, "hist-egm": cmd_hist_egm,
    "sample": cmd_sample,
}


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
            if getattr(args, key, None) is not None:   # checked as the key it replaces
                config.setdefault(name, {})[key] = getattr(args, key)
        check_data_files(config, args.command)
        check_values(config)
        out = _out_dir(args, config)
        ckpt_path = getattr(args, "checkpoint", None)
        if args.command == "train":
            # built before any data is read, so a bad model or train section exits first
            ckpt = build_train_config(config)
        else:
            ckpt = trainer.checkpoint_load(ckpt_path) if ckpt_path else None
        reads = _READS[args.command]
        datasets = [build_dataset(config[name], (split,))[0] for name, split in reads]
        written = _COMMANDS[args.command](args, config, out, ckpt, *datasets)
        last_read = {name: ds for (name, _), ds in zip(reads, datasets)}
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
