"""Independent oracles used across the test suite.

Everything here is deliberately naive (loops, finite differences,
pair counting) and shares no code with the library paths it checks.
"""

import csv
import tracemalloc

import numpy as np


def central_diff(f, x, h=1e-5):
    """Central finite-difference gradient of scalar f at array x."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = grad.reshape(-1)
    xf = x.reshape(-1)
    for i in range(xf.size):
        bumped = xf.copy()
        bumped[i] = xf[i] + h
        hi = f(bumped.reshape(x.shape))
        bumped[i] = xf[i] - h
        lo = f(bumped.reshape(x.shape))
        flat[i] = (hi - lo) / (2.0 * h)
    return grad


def traced_peak_bytes(fn, *args):
    """Peak bytes that tracemalloc sees allocated while ``fn(*args)`` runs."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def close_rel(a, b, tol):
    """|a - b| <= tol * max(1, |b|), elementwise."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return bool(np.all(np.abs(a - b) <= tol * np.maximum(1.0, np.abs(b))))


def naive_matmul(a, b):
    a = np.asarray(a)
    b = np.asarray(b)
    out = np.zeros((a.shape[0], b.shape[1]))
    for i in range(a.shape[0]):
        for j in range(b.shape[1]):
            acc = 0.0
            for k in range(a.shape[1]):
                acc += a[i, k] * b[k, j]
            out[i, j] = acc
    return out


def naive_conv2d(x, w, b, padding):
    """Loop-based stride-1 cross-correlation with zero padding:
    x B x C x H x W, w F x C x k x k, b F."""
    x = np.asarray(x, dtype=np.float64)
    n, c, h, width = x.shape
    f, _, k, _ = w.shape
    ho, wo = h + 2 * padding - k + 1, width + 2 * padding - k + 1
    out = np.zeros((n, f, ho, wo))
    for i in range(n):
        for o in range(f):
            for y in range(ho):
                for z in range(wo):
                    acc = b[o]
                    for ch in range(c):
                        for dy in range(k):
                            for dz in range(k):
                                row, col = y + dy - padding, z + dz - padding
                                if 0 <= row < h and 0 <= col < width:
                                    acc += x[i, ch, row, col] * w[o, ch, dy, dz]
                    out[i, o, y, z] = acc
    return out


def whole_batch_im2col(x, k, pad):
    """N x (C*k*k) x (Ho*Wo) patches of x padded by pad (cropped when
    pad < 0), unfolded for the whole batch in one copy."""
    if pad > 0:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    elif pad < 0:
        x = x[:, :, -pad:pad, -pad:pad]
    windows = np.lib.stride_tricks.sliding_window_view(x, (k, k), axis=(2, 3))
    n, c, ho, wo = windows.shape[:4]
    return windows.transpose(0, 1, 4, 5, 2, 3).reshape(n, c * k * k, ho * wo), ho, wo


def whole_batch_corr(x, w, pad):
    """The conv kernels as one batched matmul over whole-batch columns: the
    per-image GEMMs and the sum over images that a blocked kernel must
    reproduce bit for bit."""
    f, _, k, _ = w.shape
    cols, ho, wo = whole_batch_im2col(x, k, pad)
    return np.matmul(w.reshape(f, -1), cols).reshape(x.shape[0], f, ho, wo)


def whole_batch_corr_input_grad(g, w, pad):
    k = w.shape[2]
    return whole_batch_corr(g, w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3), k - 1 - pad)


def whole_batch_corr_weight_grad(x, g, pad):
    n, f, ho, wo = g.shape
    k = x.shape[2] + 2 * pad - ho + 1
    cols, _, _ = whole_batch_im2col(x, k, pad)
    dw = np.matmul(g.reshape(n, f, ho * wo), cols.transpose(0, 2, 1)).sum(axis=0)
    return dw.reshape(f, x.shape[1], k, k)


def naive_mlp_forward(x, weights, biases):
    """Loop-based forward pass for a ReLU MLP (linear final layer)."""
    x = np.asarray(x, dtype=np.float64)
    out = np.zeros((x.shape[0], biases[-1].shape[0]))
    for r in range(x.shape[0]):
        h = x[r]
        for li, (w, b) in enumerate(zip(weights, biases)):
            nxt = np.zeros(w.shape[1])
            for j in range(w.shape[1]):
                acc = b[j]
                for i in range(w.shape[0]):
                    acc += h[i] * w[i, j]
                nxt[j] = acc
            if li < len(weights) - 1:
                nxt = np.where(nxt > 0, nxt, 0.0)
            h = nxt
        out[r] = h
    return out


def scalar_adam(theta, grads, lr=1e-4, beta1=0.9, beta2=0.999, eps=1e-8):
    """Reference Adam on a single scalar; returns theta after each step."""
    m = 0.0
    v = 0.0
    out = []
    for t, g in enumerate(grads, start=1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        mhat = m / (1 - beta1 ** t)
        vhat = v / (1 - beta2 ** t)
        theta = theta - lr * mhat / (np.sqrt(vhat) + eps)
        out.append(theta)
    return out


def brute_force_ece(confidences, correct, n_bins):
    """Per-sample loop ECE with equal-width, right-inclusive bins."""
    confidences = np.asarray(confidences, dtype=np.float64)
    correct = np.asarray(correct, dtype=bool)
    total = confidences.size
    ece = 0.0
    for b in range(n_bins):
        lo = b / n_bins
        hi = (b + 1) / n_bins
        count = 0
        conf_sum = 0.0
        hits = 0
        for c, ok in zip(confidences, correct):
            inside = (lo < c <= hi) if b > 0 else (c <= hi)
            if inside:
                count += 1
                conf_sum += c
                hits += int(ok)
        if count:
            ece += (count / total) * abs(hits / count - conf_sum / count)
    return ece


def ece_from_bins(bins):
    """ECE recomputed from a report's bins: count-weighted |accuracy - confidence|."""
    total = sum(b.count for b in bins)
    return sum((b.count / total) * abs(b.accuracy - b.mean_confidence)
               for b in bins if b.count)


def pair_count_auroc(scores_in, scores_out):
    """P(in > out) with ties counted half, by O(n^2) enumeration."""
    wins = 0.0
    for si in scores_in:
        for so in scores_out:
            if si > so:
                wins += 1.0
            elif si == so:
                wins += 0.5
    return wins / (len(scores_in) * len(scores_out))


def threshold_sweep_roc(scores_in, scores_out):
    """ROC curve by a loop over every distinct score, highest first:
    predict "in" when score >= t. Points run from (0, 0) to (1, 1)."""
    s_in = np.asarray(scores_in, dtype=np.float64)
    s_out = np.asarray(scores_out, dtype=np.float64)
    curve = [(0.0, 0.0)]
    for t in np.unique(np.concatenate([s_in, s_out]))[::-1]:
        curve.append((float(np.mean(s_out >= t)), float(np.mean(s_in >= t))))
    if curve[-1] != (1.0, 1.0):
        curve.append((1.0, 1.0))
    return tuple(curve)


def float_to_byte(values):
    """Inverse of the reader's pixel mapping x / 127.5 - 1; exact for
    every byte that went in."""
    return np.round((np.asarray(values) + 1.0) * 127.5).astype(np.uint8)


def dataset_to_csv(dataset, path):
    """Write a dataset in the layout the csv reader takes: one row per
    example, x columns then the label."""
    flat = dataset.x.reshape(len(dataset), -1)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{i}" for i in range(flat.shape[1])] + ["label"])
        for row, label in zip(flat, dataset.y):
            writer.writerow([f"{v:.17g}" for v in row] + [int(label)])
