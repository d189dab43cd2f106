"""Independent oracles used across the test suite.

Everything here is deliberately naive (loops, finite differences,
pair counting) and shares no code with the library paths it checks,
except the last section: two library paths bound for the tests that
read them.
"""

import csv
import tracemalloc
from typing import Optional, Union

import numpy as np

from ebmkit import autodiff as ad
from ebmkit import energy as en
from ebmkit import losses, nn
from ebmkit import sampler as smp


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


def whole_batch_taps(x, k, pad):
    """N x (C*k) x (Hp*Wp) horizontal taps of x padded by pad (cropped when
    pad < 0), for the whole batch in one copy: row (c, dj) is padded channel
    c, flattened and shifted left by dj, with zeros shifted in at the end.
    Also returns Ho and Wp; kernel row di reads columns [di*Wp, (di+Ho)*Wp)."""
    if pad > 0:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    elif pad < 0:
        x = x[:, :, -pad:pad, -pad:pad]
    n, c, hp, wp = x.shape
    flat = np.concatenate([x.reshape(n, c, hp * wp), np.zeros((n, c, k - 1))], axis=2)
    taps = np.stack([flat[:, :, dj:dj + hp * wp] for dj in range(k)], axis=2)
    return taps.reshape(n, c * k, hp * wp), hp - k + 1, wp


def whole_batch_corr(x, w, pad):
    """The conv kernels as one batched matmul per kernel row over the whole
    batch's taps, summed over kernel rows in order, then cropped to the output
    width: the per-image GEMMs that a blocked kernel must reproduce bit for
    bit."""
    f, c, k, _ = w.shape
    taps, ho, wp = whole_batch_taps(x, k, pad)
    out = np.matmul(w[:, :, 0].reshape(f, c * k), taps[:, :, :ho * wp])
    for di in range(1, k):
        out += np.matmul(w[:, :, di].reshape(f, c * k), taps[:, :, di * wp:(di + ho) * wp])
    return out.reshape(x.shape[0], f, ho, wp)[..., :wp - k + 1]


def whole_batch_corr_input_grad(g, w, pad):
    k = w.shape[2]
    return whole_batch_corr(g, w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3), k - 1 - pad)


def whole_batch_corr_weight_grad(x, g, pad):
    """Per-image products of each kernel row's taps with g at the padded width
    (zeros in its wrap columns), summed over images once."""
    n, f, ho, wo = g.shape
    k = x.shape[2] + 2 * pad - ho + 1
    taps, _, wp = whole_batch_taps(x, k, pad)
    g_wide = np.zeros((n, f, ho, wp))
    g_wide[..., :wo] = g
    g_rows = g_wide.reshape(n, f, ho * wp)
    per_image = np.stack([np.matmul(g_rows, taps[:, :, di * wp:(di + ho) * wp].transpose(0, 2, 1))
                          for di in range(k)], axis=1)
    return per_image.sum(axis=0).reshape(k, f, x.shape[1], k).transpose(1, 2, 0, 3)


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


def he_normal_init(spec, seed):
    """He-normal weights and zero biases, drawn from one generator seeded with
    ``seed`` in layer order: a dense layer's weight is (in, out) with fan-in
    ``in``, a conv layer's (out, in, k, k) with fan-in ``in * k * k``."""
    rng = np.random.default_rng(seed)
    arrays = {}
    for i, layer in enumerate(spec.layers):
        if isinstance(layer, nn.Dense):
            shape, fan_in, width = (layer.in_dim, layer.out_dim), layer.in_dim, layer.out_dim
        elif isinstance(layer, nn.Conv):
            k = layer.kernel
            shape = (layer.out_channels, layer.in_channels, k, k)
            fan_in, width = layer.in_channels * k * k, layer.out_channels
        else:
            continue
        arrays[f"layer{i}.w"] = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape)
        arrays[f"layer{i}.b"] = np.zeros(width)
    return arrays


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
    predict "in" when score >= t. Points run from (0, 0) to (1, 1), and a
    point collinear with both its neighbours (in integer counts) is dropped,
    so the curve holds its corners only."""
    s_in = np.asarray(scores_in, dtype=np.float64)
    s_out = np.asarray(scores_out, dtype=np.float64)
    counts = [(0, 0)]
    for t in np.unique(np.concatenate([s_in, s_out]))[::-1]:
        counts.append((int(np.sum(s_out >= t)), int(np.sum(s_in >= t))))
    if counts[-1] != (len(s_out), len(s_in)):
        counts.append((len(s_out), len(s_in)))
    corners = [counts[0]]
    for (fa, ta), (fb, tb), (fc, tc) in zip(counts, counts[1:], counts[2:]):
        if (fb - fa) * (tc - tb) != (tb - ta) * (fc - fb):
            corners.append((fb, tb))
    corners.append(counts[-1])
    return tuple((fp / len(s_out), tp / len(s_in)) for fp, tp in corners)


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


# ---------------------------------------------------------------------------
# the replay buffer as a list of rows and the chain loop that checks every
# row at every step, as sampler.py had them before the array ring and the
# one-reduction check, renamed; the ring and the chain must match them bit
# for bit. The oracle chain takes its gradient from energy_grads.

class ListReplayBuffer:
    """FIFO store of past chain endpoints.

    Draws reuse a cached sample with probability 1 - reinit_prob and
    reinitialize from the uniform init distribution otherwise. Samples
    that are non-finite or outside the sanity bound are never stored.
    """

    def __init__(self, capacity: int = 10000, reinit_prob: float = 0.05,
                 rng: Union[np.random.Generator, int, None] = None,
                 sanity_bound: Optional[float] = None):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if not 0.0 <= reinit_prob <= 1.0:
            raise ValueError("reinit_prob must be in [0, 1]")
        self.capacity = capacity
        self.reinit_prob = reinit_prob
        self.sanity_bound = sanity_bound
        self.rng = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
        self._store: list[np.ndarray] = []

    def __len__(self):
        return len(self._store)

    def sample_at(self, index: int) -> np.ndarray:
        return self._store[index]


def list_buffer_draw(buffer: ListReplayBuffer, batch_size: int,
                     init_bounds: tuple, shape: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Starting points for a batch of chains.

    Returns (x0, indices): indices[i] is the buffer slot the i-th sample
    was cached in, or -1 for a fresh uniform draw. An empty buffer
    yields all-fresh samples.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    lo, hi = init_bounds
    x0 = np.empty((batch_size,) + tuple(shape))
    indices = np.full(batch_size, -1, dtype=np.int64)
    fresh = buffer.rng.uniform(lo, hi, size=x0.shape)
    for i in range(batch_size):
        use_cache = len(buffer) > 0 and buffer.rng.uniform() >= buffer.reinit_prob
        if use_cache:
            j = int(buffer.rng.integers(0, len(buffer)))
            x0[i] = buffer.sample_at(j)
            indices[i] = j
        else:
            x0[i] = fresh[i]
    return x0, indices


def list_buffer_push(buffer: ListReplayBuffer, samples: np.ndarray,
                     indices: np.ndarray) -> ListReplayBuffer:
    """Write chain endpoints back: cached slots are replaced in place,
    fresh samples append with FIFO eviction. Rows failing the sanity
    check (non-finite or out of bound) are dropped."""
    samples = np.asarray(samples, dtype=np.float64)
    indices = np.asarray(indices, dtype=np.int64)
    flat = samples.reshape(samples.shape[0], -1)
    keep = np.all(np.isfinite(flat), axis=1)
    if buffer.sanity_bound is not None:
        keep &= np.abs(flat).max(axis=1) <= buffer.sanity_bound
    # cached slots are written before any eviction shifts the slots
    cached = keep & (indices >= 0) & (indices < len(buffer._store))
    for row, idx in zip(samples[cached], indices[cached]):
        buffer._store[idx] = row
    buffer._store.extend(samples[keep & ~cached])
    del buffer._store[:max(0, len(buffer._store) - buffer.capacity)]
    return buffer


def per_row_check_rows(x: np.ndarray, bound: float) -> tuple[np.ndarray, Optional[str]]:
    # one pass: a row's max |x| is NaN or inf exactly when the row is not finite
    magnitude = np.abs(x.reshape(x.shape[0], -1)).max(axis=1)
    finite = np.isfinite(magnitude)
    bad = ~finite | (magnitude > bound)
    reason = "non-finite" if not finite.all() else "bound-exceeded" if bad.any() else None
    return bad, reason


def per_row_sgld_chain(model, params, x0: np.ndarray, config: smp.SgldConfig,
                       rng: Union[np.random.Generator, int] = 0,
                       programs: Optional[dict] = None) -> smp.ChainResult:
    """Run a batch of chains for config.n_steps updates.

    Model parameters are read-only throughout. Chains that produce a
    non-finite coordinate or leave the divergence bound are frozen at
    their last finite state and flagged in the report; healthy chains
    keep running. Noise-free chains (``config.noise`` False) descend the
    energy and also record a per-step trace of the mean energy-gradient
    magnitude; they count as converged when its final value drops below
    ``smp.CONVERGENCE_ETA``. Steps replay each row-block shape's input
    gradient recorded in ``programs`` (by default a new dict).
    """
    rng = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    x = np.array(x0, dtype=np.float64, copy=True)
    report = smp.DivergenceReport(diverged_mask=np.zeros(x.shape[0], dtype=bool))
    trace: list[float] = []
    alive = np.ones(x.shape[0], dtype=bool)
    programs = {} if programs is None else programs
    step = config.step_size
    for i in range(config.n_steps):
        grads = energy_grads(model, params, x, programs)
        if not config.noise:
            trace.append(float(np.linalg.norm(
                grads.reshape(grads.shape[0], -1), axis=1).mean()))
        update = -(step / 2.0) * grads
        if config.noise:
            update = update + rng.normal(0.0, np.sqrt(step), size=x.shape)
        proposal = np.where(alive.reshape((-1,) + (1,) * (x.ndim - 1)), x + update, x)
        bad, reason = per_row_check_rows(proposal, config.bound)
        newly_bad = bad & alive
        if newly_bad.any():
            if not report.diverged:
                report.diverged = True
                report.step = i
                report.reason = reason
            report.diverged_mask |= newly_bad
            alive &= ~newly_bad
            # frozen chains keep their last finite state
            proposal = np.where(newly_bad.reshape((-1,) + (1,) * (x.ndim - 1)), x, proposal)
        x = proposal
    result = smp.ChainResult(samples=x, report=report)
    if not config.noise:
        result.egm_trace = trace
        result.converged = bool(trace and trace[-1] < smp.CONVERGENCE_ETA)
    return result


# ---------------------------------------------------------------------------
# the outputs of ad.record on a fresh tape with a plain backward, as the
# input gradient ran before it was replayed: every recorded or replayed
# output must match it bit for bit. It takes and ignores ``programs``, so it
# can stand in for ad.record.

def eager_record(loss, values, n_wrt, programs=None):
    """``loss`` on leaves holding ``values``: the entries of a returned tuple
    (none for a lone scalar), then the gradient of the scalar (the tuple's
    first entry) in each of the first ``n_wrt`` leaves, as arrays."""
    tape = ad.Tape()
    leaves = [tape.leaf(v) for v in values]
    out = loss(*leaves)
    outputs = list(out) if isinstance(out, tuple) else []
    grads = ad.backward(tape, outputs[0] if outputs else out, leaves[:n_wrt])
    return [t.value for t in outputs] + [grads[leaf].value for leaf in leaves[:n_wrt]]


# ---------------------------------------------------------------------------
# the library's own paths, bound for tests that read what they compute

def bowl(dim, curvature):
    """The analytic test energy E(x) = 0.5 * curvature * ||x||^2 of (dim,) inputs,
    a one-layer spec as cli.build_model builds quadratic_bowl (curvature 1) and
    concave_bowl (-1)."""
    return nn.ModelSpec((nn.Bowl(dim, curvature),), (dim,), 1)


def energy_grads(model, params, x, programs=None):
    """Per-example dE/dx of every row of ``x``, a row block at a time, as
    sgld_chain and approximate_mass_score take it."""
    return en._in_blocks(en._block_grads(model, params, en._summed_energy, programs), model, x)


def bound_loss_graph(config, params, x, y, x_gen=None):
    """``losses.loss_graph`` of a ``trainer.TrainConfig`` on a fresh tape whose
    leaves hold the parameters, the batch, its labels' one-hot rows and (jem)
    the generated batch; the graph, and the parameters' leaves by name."""
    tape = ad.Tape()
    bound = {name: tape.leaf(v) for name, v in params.items()}
    batch = [x, losses._one_hot(y, config.model.classes)] + ([] if x_gen is None else [x_gen])
    return losses.loss_graph(config, bound, *map(tape.leaf, batch)), bound
