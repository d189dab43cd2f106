"""Output checks, one function per phase.

Each check reads the files a command wrote and compares them with
``reference`` (hand-written numpy) or with properties the method must
have. It returns a list of problems; an empty list means the
operation's outputs are correct. A problem tagged ``KNOWN`` is a fault
of the program that is named in the benchmark README and expected to
fail on every run until it is fixed.
"""

from __future__ import annotations

import csv
import json

import numpy as np

import reference as ref
from workloads import to_unit

KNOWN = "KNOWN: "
ACCURACY_SLACK = 0.05      # toy ce/ngebm vs the Bayes rate, toy jem vs ce
SCORE_RTOL = 1e-7          # scores are written with 12 significant digits
CONV_SCORE_CHECKS = 16     # conv scores compared against the reference, per split


class Context:
    """Datasets and cross-phase results shared by the checks of one workload."""

    def __init__(self, workload):
        self.workload = workload
        self.train_results = {}      # mode -> (accuracy, mean_egm)
        self._datasets = {}

    def datasets(self, section: dict):
        """(x_train, y_train, x_test, y_test) for a config's data section."""
        key = json.dumps(section, sort_keys=True)
        if key not in self._datasets:
            if section["kind"] == "gaussian_mixture":
                from ebmkit.cli import build_dataset
                train, test = build_dataset(section)
                self._datasets[key] = (train.x, train.y, test.x, test.y)
            else:
                by_path = {str(p): (x, y) for p, x, y in self.workload.files.values()}
                xs_tr, ys_tr = by_path[section["train_files"][0]]
                xs_te, ys_te = by_path[section["test_files"][0]]
                shape = (-1, 3, 32, 32)
                self._datasets[key] = (to_unit(xs_tr).reshape(shape), ys_tr.astype(np.int64),
                                       to_unit(xs_te).reshape(shape), ys_te.astype(np.int64))
        return self._datasets[key]


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _close(a, b, rtol, atol=0.0) -> bool:
    return abs(a - b) <= atol + rtol * max(abs(a), abs(b))


def _accuracy(model, x, y) -> float:
    return float(np.mean(model.logits(x).argmax(axis=1) == y))


def _density_problems(path, n: int, values=None) -> list:
    """A density histogram must integrate to 1, hold ``n`` whole counts and,
    given the values, agree with binning them into the same edges."""
    rows = read_csv(path)
    lo = np.array([float(r["bin_lower"]) for r in rows])
    hi = np.array([float(r["bin_upper"]) for r in rows])
    density = np.array([float(r["density"]) for r in rows])
    counts = density * (hi - lo) * n
    problems = []
    if not _close(float((density * (hi - lo)).sum()), 1.0, 1e-9):
        problems.append(f"{path.name}: densities integrate to {(density * (hi - lo)).sum()!r}")
    if np.abs(counts - np.round(counts)).max() > 1e-6 * n:
        problems.append(f"{path.name}: densities are not whole counts of {n} values")
    if values is not None:
        edges = np.append(lo, hi[-1])
        span = edges[-1] - edges[0]
        if values.min() < edges[0] - 1e-9 * span or values.max() > edges[-1] + 1e-9 * span:
            problems.append(f"{path.name}: values fall outside [{edges[0]}, {edges[-1]}]")
        mine, _ = np.histogram(np.clip(values, edges[0], edges[-1]), bins=edges)
        if np.abs(mine - np.round(counts)).sum() > 2:
            problems.append(f"{path.name}: bin counts differ from the reference binning")
    return problems


# ---------------------------------------------------------------------------
# per-phase checks: (ctx, workload, phase, out_dir) -> list of problems

def check_train(ctx, wl, phase, out) -> list:
    config = wl.configs[phase.config]
    mode = config["train"]["mode"]
    epochs = config["train"]["epochs"]
    runlog = read_csv(out / "runlog.csv")
    if len(runlog) != epochs:
        return [f"runlog has {len(runlog)} rows, expected {epochs}"]
    last = runlog[-1]
    model = ref.Model(out / "checkpoint_final.npz")
    problems = []
    if model.epoch != epochs or not model.finite():
        problems.append(f"checkpoint epoch {model.epoch} or non-finite parameters")
    x_train, _, x_test, y_test = ctx.datasets(config["data"])
    acc = _accuracy(model, x_test, y_test)
    logged = float(last["eval_accuracy"])
    if abs(acc - logged) > 1.0 / len(y_test) + 1e-12:
        problems.append(f"logged accuracy {logged} vs reference forward {acc}")
    mean_egm = float(last["mean_egm"])
    if not np.isfinite(mean_egm) or mean_egm < 0:
        problems.append(f"mean_egm {mean_egm} is not a finite magnitude")
    if wl.name != "toy":
        return problems

    probe = model.egm(x_train[:512]).mean()
    if not _close(probe, mean_egm, 1e-8):
        problems.append(f"logged mean_egm {mean_egm} vs hand-written gradient {probe}")
    ctx.train_results[mode] = (acc, mean_egm)
    if mode in ("ce", "ngebm"):
        bayes = ref.bayes_accuracy(1.0, 0.35)
        if abs(acc - bayes) > ACCURACY_SLACK:
            problems.append(f"{mode} accuracy {acc:.4f} not within {ACCURACY_SLACK} "
                            f"of the Bayes rate {bayes:.4f}")
    if mode == "ngebm" and "ce" in ctx.train_results \
            and not mean_egm < ctx.train_results["ce"][1]:
        problems.append(f"ngebm mean_egm {mean_egm} not below ce "
                        f"{ctx.train_results['ce'][1]}")
    if mode == "jem" and "ce" in ctx.train_results:
        ce_acc = ctx.train_results["ce"][0]
        if abs(acc - ce_acc) > ACCURACY_SLACK:
            problems.append(KNOWN + f"jem accuracy {acc:.4f} not within {ACCURACY_SLACK} "
                            f"of ce {ce_acc:.4f} (losses.loss_graph minimizes "
                            "sum(E_gen) - sum(E_train))")
    return problems


def check_calibrate(ctx, wl, phase, out) -> list:
    config = wl.configs[phase.config]
    model = ref.Model(wl.checkpoints[phase.checkpoint])
    _, _, x, y = ctx.datasets(config["data"])
    probs = ref.softmax(model.logits(x))
    mine = ref.ece_bins(probs.max(axis=1), probs.argmax(axis=1) == y,
                        config["metrics"]["ece_bins"])
    rows = read_csv(out / "calibration_bins.csv")
    if len(rows) != len(mine):
        return [f"{len(rows)} calibration bins, expected {len(mine)}"]
    for i, (row, (count, conf, acc)) in enumerate(zip(rows, mine)):
        if int(row["count"]) != count \
                or not _close(float(row["mean_confidence"]), conf, 0, 1e-9) \
                or not _close(float(row["accuracy"]), acc, 0, 1e-9):
            return [f"calibration bin {i}: {dict(row)} vs reference "
                    f"count={count} confidence={conf} accuracy={acc}"]
    return []


def check_ood(ctx, wl, phase, out) -> list:
    config = wl.configs[phase.config]
    model = ref.Model(wl.checkpoints[phase.checkpoint])
    _, _, x_in, _ = ctx.datasets(config["data"])
    _, _, x_out, _ = ctx.datasets(config["ood_data"])
    scores = {"in": [], "out": []}
    with open(out / "ood_scores.csv") as fh:
        next(fh)
        for line in fh:
            split, value = line.rstrip("\n").split(",")
            scores[split].append(float(value))
    s_in, s_out = np.array(scores["in"]), np.array(scores["out"])
    if len(s_in) != len(x_in) or len(s_out) != len(x_out):
        return [f"{len(s_in)}/{len(s_out)} scores for {len(x_in)}/{len(x_out)} examples"]
    problems = []
    written = float(read_csv(out / "ood_auroc.csv")[0]["auroc"])
    counted = ref.auroc(s_in, s_out)
    if not _close(written, counted, 0, 1e-6):
        problems.append(f"AUROC {written} vs rank count {counted}")

    limit = None if wl.name == "toy" else CONV_SCORE_CHECKS
    if limit is not None:
        fd = model.directional_fd_error(x_in[:2], wl.seed)
        if fd > 1e-4:
            problems.append(f"reference gradient disagrees with finite differences ({fd})")
    for name, x, s in (("in", x_in, s_in), ("out", x_out, s_out)):
        mine = -model.egm(x[:limit])
        bad = ~np.isclose(s[:limit], mine, rtol=SCORE_RTOL, atol=1e-12)
        if bad.any():
            i = int(np.argmax(bad))
            problems.append(f"{name} score {i}: {s[i]} vs reference {mine[i]}")
    for name, n in (("in", len(s_in)), ("out", len(s_out))):
        problems += _density_problems(out / f"ood_hist_{name}.csv", n)
    return problems


def check_hist_egm(ctx, wl, phase, out) -> list:
    config = wl.configs[phase.config]
    model = ref.Model(wl.checkpoints[phase.checkpoint])
    x, _, _, _ = ctx.datasets(config["data"])
    return _density_problems(out / "egm_hist.csv", len(x), model.egm(x))


def check_attack(ctx, wl, phase, out) -> list:
    config = wl.configs[phase.config]
    model = ref.Model(wl.checkpoints[phase.checkpoint])
    _, _, x, y = ctx.datasets(config["data"])
    rows = read_csv(out / "attack.csv")
    epsilons = [float(r["epsilon"]) for r in rows]
    if epsilons != config["attack"]["epsilons"]:
        return [f"attack swept {epsilons}, asked for {config['attack']['epsilons']}"]
    problems = []
    clean = float(rows[0]["clean_accuracy"])
    if abs(clean - _accuracy(model, x, y)) > 1.0 / len(y) + 1e-12:
        problems.append(f"clean accuracy {clean} vs reference {_accuracy(model, x, y)}")
    for row in rows:
        eps, adv = float(row["epsilon"]), float(row["adversarial_accuracy"])
        if int(row["n_examples"]) != len(y):
            problems.append(f"n_examples {row['n_examples']} != {len(y)}")
        if eps == 0.0 and adv != clean:
            problems.append(f"accuracy at eps=0 is {adv}, clean is {clean}")
        if adv > clean + 1e-12:
            problems.append(f"adversarial accuracy {adv} above clean {clean} at eps={eps}")
    return problems


def check_sample(ctx, wl, phase, out) -> list:
    section = wl.configs[phase.config]["sample"]
    sampler = section["sampler"]
    lo, hi = sampler["init"]
    bound = 10.0 * (hi - lo) / 2.0
    model = ref.Model(wl.checkpoints[phase.checkpoint])
    stats = json.loads((out / "divergence.json").read_text())
    samples = np.loadtxt(out / "samples.csv", delimiter=",", skiprows=1, ndmin=2)
    survivors = samples.shape[0] if samples.size else 0
    problems = []
    if stats["n_requested"] != section["n"] or survivors + stats["n_diverged"] != section["n"]:
        problems.append(f"{survivors} survivors + {stats['n_diverged']} diverged "
                        f"!= {section['n']} chains")
    if not survivors:
        return problems + ["no chain survived"]
    if np.abs(samples).max() > bound:
        problems.append(f"a surviving sample leaves the bound {bound}")
    samples = samples.reshape((-1,) + model.input_shape)
    starts = np.random.default_rng([wl.seed, 9]).uniform(lo, hi, size=samples.shape)
    if not sampler["noise"]:
        e_samples, e_starts = model.energy(samples).mean(), model.energy(starts).mean()
        if not e_samples < e_starts:
            problems.append(f"noise-free samples have mean energy {e_samples}, "
                            f"not below uniform starts {e_starts}")
    return problems


CHECKS = {
    "train": check_train, "calibrate": check_calibrate, "ood": check_ood,
    "hist-egm": check_hist_egm, "attack": check_attack, "sample": check_sample,
}
