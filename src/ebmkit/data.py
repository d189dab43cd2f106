"""Datasets: synthetic 2-d mixtures, CIFAR binary readers, batching.

All inputs entering training live in [-1, 1] (matching the sampler's
uniform init domain); the invariant is asserted at construction. Pixel
bytes map through x / 127.5 - 1, which is exactly invertible for all
256 byte values.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

__all__ = [
    "Dataset", "CifarFormatError",
    "gen_gaussian_mixture_2d", "read_cifar_binary",
    "batches", "with_label_noise", "dataset_from_csv",
]

CIFAR10_RECORD = 3073    # 1 label byte + 3*32*32 pixels
CIFAR100_RECORD = 3074   # coarse + fine label bytes + pixels


class CifarFormatError(ValueError):
    """A CIFAR binary file does not follow the published record layout."""


@dataclass
class Dataset:
    x: np.ndarray            # N x D or N x C x H x W, values in [-1, 1]
    y: np.ndarray            # N integer labels in [0, classes)
    classes: int
    split: str = "train"
    provenance: str = ""

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=np.float64)
        self.y = np.asarray(self.y, dtype=np.int64).reshape(-1)
        if self.x.shape[0] != self.y.shape[0]:
            raise ValueError(f"dataset: {self.x.shape[0]} inputs vs {self.y.shape[0]} labels")
        # NaN fails the comparisons: min and max are NaN when any input is
        if self.x.size and not (-1.0 <= self.x.min() and self.x.max() <= 1.0):
            raise ValueError("dataset: inputs must be finite and lie in [-1, 1]")
        if self.y.size and (self.y.min() < 0 or self.y.max() >= self.classes):
            raise ValueError(f"dataset: labels must lie in [0, {self.classes})")

    def __len__(self):
        return int(self.x.shape[0])


def gen_gaussian_mixture_2d(n_per_class: int, centers: Sequence, std: float,
                            seed: int, split: str = "train") -> Dataset:
    """Labeled 2-d Gaussian blobs, squeezed into [-1, 1] only when they
    overflow it (centers inside the square stay put as std -> 0)."""
    centers = [tuple(map(float, c)) for c in centers]
    rng = np.random.default_rng(seed)
    xs, ys = [], []
    for label, center in enumerate(centers):
        pts = np.asarray(center) + rng.normal(0.0, 1.0, size=(n_per_class, 2)) * std
        xs.append(pts)
        ys.append(np.full(n_per_class, label, dtype=np.int64))
    x = np.vstack(xs)
    scale = max(1.0, float(np.abs(x).max())) if x.size else 1.0
    return Dataset(x / scale, np.concatenate(ys), classes=len(centers), split=split,
                   provenance=f"gaussian_mixture_2d(n={n_per_class}, std={std}, seed={seed})")


def _byte_to_float(pixels: np.ndarray) -> np.ndarray:
    return pixels.astype(np.float64) / 127.5 - 1.0


def read_cifar_binary(path, variant: str = "cifar10", split: str = "train") -> Dataset:
    """Parse a CIFAR-10/100 binary batch file into a normalized dataset.

    CIFAR-10 records are 3073 bytes (label, then 3072 pixels); CIFAR-100
    records are 3074 (coarse label, fine label, pixels) and the fine
    label is kept. Pre-converted SVHN-style files with the same layout
    read identically.
    """
    record = CIFAR10_RECORD if variant == "cifar10" else CIFAR100_RECORD
    classes = 10 if variant == "cifar10" else 100
    raw = np.fromfile(str(path), dtype=np.uint8)
    if raw.size == 0 or raw.size % record != 0:
        raise CifarFormatError(
            f"{path}: truncated file, {raw.size} bytes is not a positive multiple of "
            f"{record} (trailing fragment starts at byte offset {raw.size - raw.size % record})")
    rows = raw.reshape(-1, record)
    if variant == "cifar10":
        labels = rows[:, 0].astype(np.int64)
        pixels = rows[:, 1:]
    else:
        labels = rows[:, 1].astype(np.int64)  # fine label
        pixels = rows[:, 2:]
    bad = np.nonzero(labels >= classes)[0]
    if bad.size:
        offset = int(bad[0]) * record
        raise CifarFormatError(
            f"{path}: label {labels[bad[0]]} out of range [0, {classes}) "
            f"at byte offset {offset}")
    x = _byte_to_float(pixels).reshape(-1, 3, 32, 32)
    return Dataset(x, labels, classes=classes, split=split,
                   provenance=f"{variant}:{path}")


def batches(dataset: Dataset, batch_size: int, seed: int,
            epoch: int = 0) -> Iterator[tuple]:
    """One seeded epoch of (x, y) batches.

    The shuffle for epoch ``epoch`` is a pure function of (seed, epoch):
    the same seed reproduces the same order, and every epoch visits each
    example exactly once (the final batch may be short).
    """
    order = np.random.default_rng([seed, epoch]).permutation(len(dataset))
    for start in range(0, len(dataset), batch_size):
        pick = order[start:start + batch_size]
        yield dataset.x[pick], dataset.y[pick]


def with_label_noise(dataset: Dataset, fraction: float, seed: int) -> Dataset:
    """Flip a fraction of labels to a different class, uniformly."""
    rng = np.random.default_rng(seed)
    y = dataset.y.copy()
    n_flip = int(round(fraction * len(dataset)))
    picks = rng.choice(len(dataset), size=n_flip, replace=False)
    for i in picks:
        shift = int(rng.integers(1, dataset.classes))
        y[i] = (y[i] + shift) % dataset.classes
    return Dataset(dataset.x, y, classes=dataset.classes, split=dataset.split,
                   provenance=dataset.provenance + f"+label_noise({fraction}, seed={seed})")


def dataset_from_csv(path, classes: int) -> Dataset:
    """A header row, then per example its x values and its label. A malformed
    file raises a ValueError that names the file and the line."""
    xs, ys = [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        dim = len(next(reader, [])) - 1
        for row in reader:
            if len(row) != dim + 1:
                raise ValueError(f"{path}: line {reader.line_num}: {len(row)} cells, "
                                 f"the header has {dim + 1}")
            try:
                xs.append([float(v) for v in row[:dim]])
                ys.append(int(row[dim]))
            except ValueError as exc:
                raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
    if not xs:
        raise ValueError(f"{path}: line {reader.line_num + 1}: "
                         "expected a header row, then data rows")
    return Dataset(np.asarray(xs), np.asarray(ys), classes=classes, provenance=f"csv:{path}")
