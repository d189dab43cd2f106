"""Training orchestration: epochs, optimizer steps, telemetry, checkpoints.

Deterministic by construction: the batch order for epoch e is a pure
function of (seed, e), parameter init is seeded, and the only stateful
RNG streams (sampler noise, buffer draws) are checkpointed. Cross-
entropy and penalty runs are therefore bit-reproducible and resumable;
sampler-driven runs reproduce given identical RNG streams.
"""

from __future__ import annotations

import contextlib
import copy
import functools
import json
import zipfile
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import autodiff as ad
from . import data as datamod
from . import energy as en
from . import losses
from . import metrics
from . import nn
from . import sampler as smp

__all__ = [
    "TrainConfig", "EpochRecord", "Checkpoint", "EvalResult",
    "CheckpointError", "TrainingDiverged",
    "train", "evaluate", "checkpoint_save", "checkpoint_load",
]

CHECKPOINT_FORMAT_VERSION = 1
PROBE_SIZE = 512   # fixed subset for the per-epoch gradient-magnitude telemetry
# what a batch with a non-finite loss or gradient does: skip the batch, or
# raise TrainingDiverged
DIVERGENCE_POLICIES = ("skip-batch", "abort")


class CheckpointError(RuntimeError):
    """Checkpoint file is corrupt or from an incompatible format version."""


class TrainingDiverged(RuntimeError):
    """Raised under the abort policy when a batch produces a non-finite loss."""


@dataclass
class TrainConfig:
    model: nn.ModelSpec
    loss: losses.LossConfig
    epochs: int = 150
    batch_size: int = 64
    seed: int = 0
    schedule: nn.LrSchedule = field(default_factory=nn.LrSchedule)
    checkpoint_interval: int = 0       # 0 -> no intermediate checkpoints
    checkpoint_dir: Optional[str] = None
    divergence_policy: str = DIVERGENCE_POLICIES[0]

    def __post_init__(self):
        if self.divergence_policy not in DIVERGENCE_POLICIES:
            raise losses.ConfigError(
                f"unknown divergence policy {self.divergence_policy!r}")


@dataclass
class EpochRecord:
    epoch: int
    lr: float
    loss_total: float
    loss_ce: float
    loss_aux: float
    diverged_chains: int
    skipped_batches: int
    eval_accuracy: float
    mean_egm: float


@dataclass
class Checkpoint:
    model: nn.ModelSpec
    params: nn.Parameters
    adam: nn.AdamState
    epoch: int                              # completed epochs
    sampler_rng_state: Optional[dict] = None
    buffer_rng_state: Optional[dict] = None
    buffer_samples: Optional[np.ndarray] = None

    def __getattr__(self, name):
        # checkpoint_load leaves adam unset, with the function that reads its
        # moments from the file: only a resumed train reads them
        if name != "adam" or "_load_adam" not in self.__dict__:
            raise AttributeError(name)
        self.adam = self._load_adam()
        del self._load_adam
        return self.adam


@dataclass
class EvalResult:
    accuracy: float
    mean_confidence: float
    ece_report: metrics.EceReport


def _mean_egm(model, params, dataset, probe_size: int, programs: dict) -> float:
    probe = dataset.x[:min(probe_size, len(dataset))]
    egm = -en.approximate_mass_score(model, params, probe, programs)
    return float(egm.mean())


def _accuracy(model, params, dataset) -> float:
    logits = en._logits_in_blocks(model, params, dataset.x)
    return int((logits.argmax(axis=1) == dataset.y).sum()) / len(dataset)


def train(config: TrainConfig, dataset_train: datamod.Dataset,
          dataset_eval: datamod.Dataset,
          resume: Optional[Checkpoint] = None) -> tuple[Checkpoint, list[EpochRecord]]:
    """Run the configured number of epochs and return the final state.

    ``resume`` continues a previous run: training from a checkpoint
    written at epoch k up to epoch n reproduces an uninterrupted run to
    n bit-exactly in the deterministic modes.
    """
    # checked here, not in TrainConfig: the CLI fills checkpoint_dir once --out is known
    if config.checkpoint_interval and not config.checkpoint_dir:
        raise losses.ConfigError("checkpoint_interval set without checkpoint_dir")
    mode = config.loss.mode
    if resume is not None:
        params = resume.params.copy()
        adam = copy.deepcopy(resume.adam)
        start_epoch = resume.epoch
    else:
        params = nn.init(config.model, config.seed)
        adam = nn.AdamState.for_params(params, lr=config.schedule.base_rate)
        start_epoch = 0

    sampler_rng = np.random.default_rng([config.seed, 2])
    buffer = None
    if mode is losses.Mode.JEM:
        buffer = smp.ReplayBuffer(rng=np.random.default_rng([config.seed, 3]),
                                  sanity_bound=config.loss.sampler.bound)
    if resume is not None:
        if resume.sampler_rng_state is not None:
            sampler_rng.bit_generator.state = resume.sampler_rng_state
        if buffer is not None and resume.buffer_rng_state is not None:
            buffer.rng.bit_generator.state = resume.buffer_rng_state
        if buffer is not None and resume.buffer_samples is not None:
            smp.buffer_push(buffer, resume.buffer_samples,
                            np.full(resume.buffer_samples.shape[0], -1))

    log = []
    programs: dict = {}     # the recorded step of each input shape
    gradients: dict = {}    # the recorded dE/dx of each row-block shape: chains and EGM probe
    for epoch in range(start_epoch, config.epochs):
        adam.lr = nn.lr_at(config.schedule, epoch)
        totals = np.zeros(3)
        n_batches = 0
        diverged = 0
        skipped = 0
        for batch_index, (x, y) in enumerate(
                datamod.batches(dataset_train, config.batch_size, config.seed, epoch)):
            x_gen = None
            if buffer is not None:      # drawn first: the survivor count picks the program
                x_gen, gen_indices, n_diverged = losses._jem_samples(
                    config.loss, config.model, params, x.shape, buffer, sampler_rng, gradients)
                diverged += n_diverged
            total, ce, aux, *grads = _batch_step(config, params, x, y, x_gen, programs)
            try:
                if np.isfinite(total):      # adam_step checks the gradients
                    nn.adam_step(adam, params, dict(zip(params.arrays, grads)))
            except nn.NonFiniteGradient:
                total = np.nan
            if not np.isfinite(total):
                if config.divergence_policy == "abort":
                    raise TrainingDiverged(
                        f"non-finite loss or gradient at epoch {epoch}, batch {batch_index}")
                skipped += 1
                continue
            if x_gen is not None and x_gen.shape[0]:
                smp.buffer_push(buffer, x_gen, gen_indices)
            totals += (total, ce, aux)
            n_batches += 1

        denom = max(n_batches, 1)
        log.append(EpochRecord(
            epoch=epoch, lr=adam.lr,
            loss_total=totals[0] / denom, loss_ce=totals[1] / denom,
            loss_aux=totals[2] / denom, diverged_chains=diverged,
            skipped_batches=skipped,
            eval_accuracy=_accuracy(config.model, params, dataset_eval),
            mean_egm=_mean_egm(config.model, params, dataset_train, PROBE_SIZE, gradients)))

        if config.checkpoint_interval and (epoch + 1) % config.checkpoint_interval == 0:
            ckpt = _snapshot(config, params, adam, epoch + 1, sampler_rng, buffer)
            checkpoint_save(ckpt, f"{config.checkpoint_dir}/checkpoint_epoch{epoch + 1}.npz")

    final = _snapshot(config, params, adam, config.epochs, sampler_rng, buffer)
    return final, log


def _batch_step(config, params, x, y, x_gen, programs: dict) -> list:
    """One batch's loss terms (total, ce, aux) and parameter gradients, as
    arrays: ``losses.loss_graph`` on the parameters, inputs, one-hot labels
    and samples, recorded once per input shape in ``programs`` and replayed
    for later batches of that shape (``ad.record``). The recording's tape
    dies on return, so no two batches' tapes, nor a tape and the epoch's
    telemetry, are ever alive at once."""
    def loss(*leaves):
        graph = losses.loss_graph(config.loss, config.model, dict(zip(params, leaves)),
                                  *leaves[len(params):])
        return graph.total, graph.ce, graph.aux
    batch = [x, losses._one_hot(y, config.model.classes)] + ([] if x_gen is None else [x_gen])
    return ad.record(loss, [*params.arrays.values(), *batch], len(params), programs)


def _snapshot(config, params, adam, epoch, sampler_rng, buffer) -> Checkpoint:
    return Checkpoint(
        model=config.model, params=params.copy(),
        adam=copy.deepcopy(adam),
        epoch=epoch,
        sampler_rng_state=sampler_rng.bit_generator.state,
        buffer_rng_state=buffer.rng.bit_generator.state if buffer is not None else None,
        buffer_samples=buffer.samples() if buffer is not None and len(buffer) else None)


def evaluate(checkpoint: Checkpoint, dataset: datamod.Dataset,
             n_bins: int = metrics.DEFAULT_ECE_BINS) -> EvalResult:
    """Accuracy, mean confidence, and the calibration report."""
    logits = en._logits_in_blocks(checkpoint.model, checkpoint.params, dataset.x)
    probs = en.softmax_probs(logits)
    confidence = ad._reduce(np.maximum, probs, (1,))
    correct = probs.argmax(axis=1) == dataset.y
    return EvalResult(accuracy=float(correct.mean()),
                      mean_confidence=float(confidence.mean()),
                      ece_report=metrics.ece(confidence, correct, n_bins))


# ---------------------------------------------------------------------------
# checkpoint container: a zip of .npy arrays plus a JSON manifest
# ("__meta__") holding the model descriptor, optimizer scalars, epoch
# counter, and RNG states. Layout is documented in the README and
# guarded by CHECKPOINT_FORMAT_VERSION.

def checkpoint_save(checkpoint: Checkpoint, path) -> None:
    meta = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "model": checkpoint.model.to_dict(),
        "epoch": checkpoint.epoch,
        "adam": {"t": checkpoint.adam.t, "lr": checkpoint.adam.lr,
                 "beta1": checkpoint.adam.beta1, "beta2": checkpoint.adam.beta2,
                 "eps": checkpoint.adam.eps},
        "param_names": list(checkpoint.params),
        "sampler_rng_state": checkpoint.sampler_rng_state,
        "buffer_rng_state": checkpoint.buffer_rng_state,
        "has_buffer": checkpoint.buffer_samples is not None,
    }
    arrays = {"__meta__": np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)}
    for name, arr in checkpoint.params.arrays.items():
        arrays[f"param::{name}"] = arr
        arrays[f"adam_m::{name}"] = checkpoint.adam.m[name]
        arrays[f"adam_v::{name}"] = checkpoint.adam.v[name]
    if checkpoint.buffer_samples is not None:
        arrays["buffer::samples"] = checkpoint.buffer_samples
    np.savez(str(path), **arrays)


@contextlib.contextmanager
def _archive(path):
    """The checkpoint at ``path``, open for reading its members; an unreadable
    file, a missing member or a corrupt one raises CheckpointError."""
    try:
        with np.load(str(path), allow_pickle=False) as archive:
            yield archive
    except (OSError, KeyError, ValueError, json.JSONDecodeError,
            zipfile.BadZipFile) as exc:
        raise CheckpointError(f"{path}: corrupt or unreadable checkpoint: {exc}") from exc


def checkpoint_load(path) -> Checkpoint:
    """The checkpoint at ``path``, but for Adam's moments, which are read from
    the file when ``adam`` is first read (only a resumed train reads it)."""
    with _archive(path) as archive:
        meta = json.loads(bytes(archive["__meta__"]).decode())
        if meta.get("format_version") != CHECKPOINT_FORMAT_VERSION:
            raise CheckpointError(
                f"{path}: format version {meta.get('format_version')} "
                f"!= expected {CHECKPOINT_FORMAT_VERSION}")
        checkpoint = Checkpoint(
            model=nn.ModelSpec.from_dict(meta["model"]),
            params=nn.Parameters({name: archive[f"param::{name}"] for name in meta["param_names"]}),
            adam=None, epoch=meta["epoch"],
            sampler_rng_state=meta["sampler_rng_state"],
            buffer_rng_state=meta["buffer_rng_state"],
            buffer_samples=archive["buffer::samples"] if meta["has_buffer"] else None)
        scalars = {key: meta["adam"][key] for key in ("t", "lr", "beta1", "beta2", "eps")}
    del checkpoint.adam
    checkpoint._load_adam = functools.partial(_load_adam, path, meta["param_names"], scalars)
    return checkpoint


def _load_adam(path, names, scalars: dict) -> nn.AdamState:
    with _archive(path) as archive:
        return nn.AdamState(**{key: {name: archive[f"adam_{key}::{name}"] for name in names}
                               for key in ("m", "v")}, **scalars)

