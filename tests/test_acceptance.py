"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.

The desk-scale comparisons (criteria 9-12) are directional analogues of
the full-scale results, not numeric reproductions; the full-scale
reference targets are recorded in the README. Their experimental
setups (geometry, epochs, penalty weight, epsilon) were calibrated once
and are frozen here; the thresholds themselves are fixed by the
criteria.
"""

import math
import time
from dataclasses import dataclass

import numpy as np
import pytest

from ebmkit import attacks
from ebmkit import autodiff as ad
from ebmkit import data as datamod
from ebmkit import energy as en
from ebmkit import losses, metrics, nn, trainer
from ebmkit import sampler as smp
from oracles import (bound_loss_graph, bowl, brute_force_ece, central_diff, float_to_byte,
                     pair_count_auroc)
from test_autodiff import _FD_CASES, _fd_input, scalar_loss

CENTERS = [(-0.5, 0.0), (0.5, 0.0)]
TOY_MODEL = dict(hidden=[32, 32])   # the 2-32-32-2 MLP used throughout


def report(number: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE criterion {number:2d}: {status} :: {detail}")
    assert ok, f"criterion {number}: {detail}"


def toy_mlp():
    return nn.ModelSpec.mlp(2, TOY_MODEL["hidden"], 2)


def train_toy(mode, seed, epochs, std, beta=0.5, label_noise=0.0, n_test=200):
    train = datamod.gen_gaussian_mixture_2d(200, CENTERS, std, seed=seed)
    test = datamod.gen_gaussian_mixture_2d(n_test, CENTERS, std,
                                           seed=seed + 1000, split="test")
    if label_noise:
        train = datamod.with_label_noise(train, label_noise, seed=seed + 1)
        test = datamod.with_label_noise(test, label_noise, seed=seed + 2)
    config = trainer.TrainConfig(model=toy_mlp(), mode=mode, epochs=epochs, batch_size=64,
                                 lr=1e-2, beta=beta, gamma=1.0 - beta, seed=seed)
    ckpt, log = trainer.train(config, train, test)
    return ckpt, log, train, test


@dataclass
class Bank:
    runs: dict      # seed -> {"ce": (ckpt, log, train, test), "ngebm": ...}
    elapsed: float


@pytest.fixture(scope="module")
def clean_bank():
    """Criterion 9 bank: clean blobs (std 0.35), 30 epochs, beta = 0.5."""
    t0 = time.monotonic()
    runs = {}
    for seed in range(1, 6):
        runs[seed] = {
            "ce": train_toy(losses.Mode.CROSS_ENTROPY, seed, 30, 0.35),
            "ngebm": train_toy(losses.Mode.NGEBM, seed, 30, 0.35, beta=0.5),
        }
    return Bank(runs, time.monotonic() - t0)


@pytest.fixture(scope="module")
def noisy_bank():
    """Criteria 10/12 bank: 10% label noise, 100 epochs, penalty weight
    0.05 (the full-scale default of 0.5 over-regularizes at this size)."""
    t0 = time.monotonic()
    runs = {}
    for seed in range(1, 6):
        runs[seed] = {
            "ce": train_toy(losses.Mode.CROSS_ENTROPY, seed, 100, 0.35,
                            label_noise=0.1, n_test=1000),
            "ngebm": train_toy(losses.Mode.NGEBM, seed, 100, 0.35, beta=0.05,
                               label_noise=0.1, n_test=1000),
        }
    return Bank(runs, time.monotonic() - t0)


# ---------------------------------------------------------------------------

def test_criterion_01_gradient_oracle_suite():
    t0 = time.monotonic()
    worst = 0.0
    for kind, case in sorted(_FD_CASES.items()):
        rng = np.random.default_rng(hash(kind) % (2**32))
        for _ in range(50):
            x_val = _fd_input(rng, case)
            if kind == "matmul":
                other = rng.normal(size=(4, 2))
                op = lambda t: ad.matmul(t, other)
            elif kind == "gather":
                idx = rng.integers(0, 5, size=4)
                op = lambda t: ad.gather(t, np.eye(5)[idx])
            else:
                op = case["op"]
            tape, leaf, loss, proj = scalar_loss(op, x_val, rng=rng)
            got = ad.backward(tape, loss, [leaf])[leaf].value

            def f(v, op=op, proj=proj):
                return float(np.sum(op(ad.Tensor(v)).value * proj))

            fd = central_diff(f, x_val, h=1e-5)
            err = float(np.max(np.abs(got - fd) / np.maximum(1.0, np.abs(fd))))
            worst = max(worst, err)
            if err > 1e-5:
                report(1, False, f"{kind}: rel err {err:.2e} > 1e-5")
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-5 and elapsed < 30.0
    report(1, ok, f"{len(_FD_CASES)} primitives x 50 cases, worst rel err "
                  f"{worst:.2e} (<= 1e-5), {elapsed:.1f}s (< 30s)")


def _penalty_only(spec):
    """NGEBM objective with gamma = 0: the input-gradient penalty alone."""
    return trainer.TrainConfig(spec, losses.Mode.NGEBM, beta=1.0, gamma=0.0)


def test_criterion_02_double_backprop_suite():
    t0 = time.monotonic()
    rng = np.random.default_rng(20)
    worst = 0.0
    for trial in range(10):
        spec = nn.ModelSpec.mlp(2, [int(rng.integers(4, 8))], 2)
        params = nn.init(spec, int(rng.integers(0, 10_000)))
        x = rng.normal(size=(3, 2))

        tape = ad.Tape()
        bound = {name: tape.leaf(v) for name, v in params.items()}
        x_leaf = tape.leaf(x)
        logits = nn.forward(spec, bound, x_leaf)
        pen = losses._penalty_from_logits(logits, x_leaf)
        gm = ad.backward(tape, pen, list(bound.values()))

        for name, leaf in bound.items():
            def first_order(v, name=name):
                arrays = {k: a.copy() for k, a in params.arrays.items()}
                arrays[name] = v
                graph = bound_loss_graph(_penalty_only(spec), nn.Parameters(arrays), x,
                                         np.zeros(3, dtype=np.int64))[0]
                return float(graph.aux.value)

            fd = central_diff(first_order, params.arrays[name], h=1e-4)
            err = float(np.max(np.abs(gm[leaf].value - fd)
                               / np.maximum(1.0, np.abs(fd))))
            worst = max(worst, err)
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-4 and elapsed < 60.0
    report(2, ok, f"10 random MLPs, worst rel err {worst:.2e} (<= 1e-4), "
                  f"{elapsed:.1f}s (< 60s)")


def test_criterion_03_energy_identities():
    e = float(en.energy([0.0, 0.0]).value)
    exact = abs(e + math.log(2.0)) <= np.spacing(1.0)
    rng = np.random.default_rng(30)
    worst = 0.0
    for _ in range(100):
        logits = rng.normal(size=(4, 6)) * 3
        c = rng.normal() * 5
        diff = en.energy(logits + c).value - (en.energy(logits).value - c)
        worst = max(worst, float(np.max(np.abs(diff))))
    ok = exact and worst <= 1e-10
    report(3, ok, f"energy([0,0]) = -ln 2 at ulp level; shift identity worst "
                  f"dev {worst:.2e} (<= 1e-10) over 100 cases")


def test_criterion_04_ece_oracle():
    rng = np.random.default_rng(40)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(10, 300))
        bins = int(rng.integers(1, 40))
        conf = rng.uniform(0, 1, size=n)
        correct = rng.uniform(0, 1, size=n) < conf
        got = metrics.ece(conf, correct, bins).value
        worst = max(worst, abs(got - brute_force_ece(conf, correct, bins)))
    conf = rng.uniform(0, 1, size=200)
    correct = rng.uniform(0, 1, size=200) < 0.6
    one_bin = abs(metrics.ece(conf, correct, 1).value
                  - abs(correct.mean() - conf.mean()))
    ok = worst <= 1e-12 and one_bin <= 1e-12
    report(4, ok, f"100 randomized instances vs brute-force oracle, worst dev "
                  f"{worst:.2e} (<= 1e-12); one-bin identity dev {one_bin:.2e}")


def test_criterion_05_auroc_oracle():
    rng = np.random.default_rng(50)
    worst = 0.0
    for _ in range(100):
        s_in = rng.normal(0.3, 1.0, size=50)
        s_out = rng.normal(0.0, 1.0, size=50)
        got = metrics.auroc(s_in, s_out).auroc
        worst = max(worst, abs(got - pair_count_auroc(list(s_in), list(s_out))))
    perfect = metrics.auroc([2.0, 3.0], [0.0, 1.0]).auroc
    null_draw = metrics.auroc(rng.normal(size=2000), rng.normal(size=2000)).auroc
    ok = worst <= 1e-12 and perfect == 1.0 and abs(null_draw - 0.5) <= 0.02
    report(5, ok, f"100 pair-counting checks, worst dev {worst:.2e} (<= 1e-12); "
                  f"perfect separation {perfect}; null AUROC {null_draw:.4f} "
                  f"(0.5 +/- 0.02)")


def test_criterion_06_sgld_analytic():
    model = bowl(2, 1)
    x0 = np.array([[0.8, -0.6], [0.25, 0.5]])
    one = smp.sgld_chain(model, {}, x0, smp.SgldConfig(n_steps=1, step_size=1.0, noise=False),
                         rng=np.random.default_rng(0))
    contraction_exact = np.array_equal(one.samples, x0 / 2.0)
    twenty = smp.sgld_chain(model, {}, x0, smp.SgldConfig(n_steps=20, step_size=1.0, noise=False),
                            rng=np.random.default_rng(0))
    geometric_exact = np.array_equal(twenty.samples, x0 * 0.5 ** 20)

    concave = bowl(1, -1)
    start = np.array([[1.0]])
    out = smp.sgld_chain(concave, {}, start,
                         smp.SgldConfig(n_steps=60, step_size=1.0, noise=False,
                                        divergence_bound=10.0), rng=np.random.default_rng(0))
    # |x| after k updates is 1.5^k; first k over the bound, as 0-based step
    predicted = int(np.ceil(np.log(10.0) / np.log(1.5))) - 1
    divergence_ok = (out.report.diverged and out.report.reason == "bound-exceeded"
                     and abs(out.report.step - predicted) <= 1)
    ok = contraction_exact and geometric_exact and divergence_ok
    report(6, ok, f"quadratic chain halves exactly per step; concave divergence "
                  f"at step {out.report.step} vs predicted {predicted} (+/- 1)")


def test_criterion_07_replay_buffer_statistics():
    buf = smp.ReplayBuffer(capacity=100, reinit_prob=0.05, rng=np.random.default_rng(4242))
    smp.buffer_push(buf, np.zeros((100, 1)), np.full(100, -1))
    n = 100_000
    _, idx = smp.buffer_draw(buf, n, (-1.0, 1.0), (1,))
    fresh = float(np.mean(idx == -1))
    ok = abs(fresh - 0.05) <= 0.005
    report(7, ok, f"fresh fraction {fresh:.4f} over 1e5 seeded draws "
                  f"(0.05 +/- 0.005)")


def test_criterion_08_pgd_budget(clean_bank):
    ckpt, _, _, test = clean_bank.runs[1]["ce"]
    x, y = test.x, test.y
    violations = 0
    for norm, eps in ((attacks.Norm.LINF, 0.1), (attacks.Norm.LINF, 0.3),
                      (attacks.Norm.L2, 0.2), (attacks.Norm.L2, 0.5)):
        cfg = attacks.AttackConfig(norm=norm, epsilon=eps, n_steps=20)
        adv = attacks.pgd(ckpt.model, ckpt.params, x, y, cfg, rng=np.random.default_rng(8))
        delta = adv - x
        if norm is attacks.Norm.LINF:
            violations += int(np.sum(np.abs(delta).max(axis=1) > eps))
        else:
            violations += int(np.sum(np.linalg.norm(delta, axis=1) > eps + 1e-9))
    zero = attacks.pgd(ckpt.model, ckpt.params, x, y,
                       attacks.AttackConfig(norm=attacks.Norm.L2, epsilon=0.0),
                       rng=np.random.default_rng(9))
    identity = np.array_equal(zero, x)
    ok = violations == 0 and identity
    report(8, ok, f"budget violations {violations}/ {4 * len(x)} adversarial "
                  f"outputs; eps=0 returns inputs unchanged: {identity}")


def test_criterion_09_egm_separation(clean_bank):
    t0 = time.monotonic()
    wins = 0
    ratios = []
    for seed in range(1, 6):
        ce_egm = clean_bank.runs[seed]["ce"][1][-1].mean_egm
        ng_egm = clean_bank.runs[seed]["ngebm"][1][-1].mean_egm
        ratios.append(ng_egm / ce_egm)
        wins += ng_egm < 0.5 * ce_egm
    elapsed = clean_bank.elapsed + (time.monotonic() - t0)
    ok = wins >= 4 and elapsed < 600.0
    report(9, ok, f"mean-EGM ratio NG/CE per seed {[f'{r:.3f}' for r in ratios]}, "
                  f"{wins}/5 below 0.5; total {elapsed:.0f}s (< 600s)")


def test_criterion_10_calibration_direction(noisy_bank):
    # directional desk analogue of the full-scale calibration gap (the
    # reference numbers there are 1.8 +/- 0.8 % vs 5.0 +/- 0.1 % ECE)
    wins = 0
    pairs = []
    for seed in range(1, 6):
        ce_ckpt, _, _, test = noisy_bank.runs[seed]["ce"]
        ng_ckpt, _, _, _ = noisy_bank.runs[seed]["ngebm"]
        ce_ece = trainer.evaluate(ce_ckpt, test).ece_report.value
        ng_ece = trainer.evaluate(ng_ckpt, test).ece_report.value
        pairs.append((ce_ece, ng_ece))
        wins += ng_ece <= ce_ece
    detail = ", ".join(f"seed{s}: CE {a:.3f} vs NG {b:.3f}"
                       for s, (a, b) in enumerate(pairs, 1))
    report(10, wins >= 4, f"ECE(NG-EBM) <= ECE(CE) in {wins}/5 seeds [{detail}]")


def test_criterion_11_ood_separation():
    t0 = time.monotonic()
    # tight in-distribution blobs; the OOD blob sits between the classes
    # (the interpolated-inputs analogue). Documented full-scale floor: 0.7.
    ckpt, _, _, test = train_toy(losses.Mode.NGEBM, 1, 30, 0.12, beta=0.5)
    ood = datamod.gen_gaussian_mixture_2d(200, [(0.0, 0.0)], 0.05, seed=77,
                                          split="test")
    am = metrics.auroc(
        metrics.score_dataset(ckpt.model, ckpt.params, test, en.ScoreKind.APPROXIMATE_MASS),
        metrics.score_dataset(ckpt.model, ckpt.params, ood, en.ScoreKind.APPROXIMATE_MASS)).auroc
    ms = metrics.auroc(
        metrics.score_dataset(ckpt.model, ckpt.params, test, en.ScoreKind.MAX_SOFTMAX),
        metrics.score_dataset(ckpt.model, ckpt.params, ood, en.ScoreKind.MAX_SOFTMAX)).auroc
    elapsed = time.monotonic() - t0
    ok = am >= 0.9 and ms >= 0.8 and elapsed < 120.0
    report(11, ok, f"ApproximateMass AUROC {am:.3f} (>= 0.9), MaxSoftmax AUROC "
                   f"{ms:.3f} (>= 0.8), {elapsed:.0f}s (< 120s)")


def test_criterion_12_adversarial_direction(noisy_bank):
    t0 = time.monotonic()
    eps = 0.08
    cfg = attacks.AttackConfig(norm=attacks.Norm.L2, n_steps=40)
    wins = 0
    pairs = []
    for seed in range(1, 6):
        ce_ckpt, _, _, test = noisy_bank.runs[seed]["ce"]
        ng_ckpt, _, _, _ = noisy_bank.runs[seed]["ngebm"]
        clean_test = datamod.gen_gaussian_mixture_2d(1000, CENTERS, 0.35,
                                                     seed=seed + 1000, split="test")
        ce_acc = attacks.attack_sweep(ce_ckpt.model, ce_ckpt.params, clean_test, [eps], cfg,
                                      seed=seed).adversarial_accuracy[0]
        ng_acc = attacks.attack_sweep(ng_ckpt.model, ng_ckpt.params, clean_test, [eps], cfg,
                                      seed=seed).adversarial_accuracy[0]
        pairs.append((ce_acc, ng_acc))
        wins += ng_acc >= ce_acc
    elapsed = noisy_bank.elapsed + (time.monotonic() - t0)
    detail = ", ".join(f"seed{s}: CE {a:.3f} vs NG {b:.3f}"
                       for s, (a, b) in enumerate(pairs, 1))
    ok = wins >= 4 and elapsed < 300.0
    report(12, ok, f"L2 PGD at eps={eps}: NG >= CE in {wins}/5 seeds [{detail}]; "
                   f"total {elapsed:.0f}s (< 300s)")


def test_criterion_13_determinism(tmp_path):
    def ce_config(epochs):
        return trainer.TrainConfig(model=toy_mlp(), mode=losses.Mode.CROSS_ENTROPY,
                                   epochs=epochs, batch_size=32, lr=1e-2, seed=13)

    train = datamod.gen_gaussian_mixture_2d(60, CENTERS, 0.2, seed=0)
    test = datamod.gen_gaussian_mixture_2d(60, CENTERS, 0.2, seed=1, split="test")
    a, _ = trainer.train(ce_config(6), train, test)
    b, _ = trainer.train(ce_config(6), train, test)
    twice_identical = a.params == b.params

    half, _ = trainer.train(ce_config(3), train, test)
    path = tmp_path / "half.npz"
    trainer.checkpoint_save(half, path)
    resumed, _ = trainer.train(ce_config(6), train, test, resume=path)
    resume_equivalent = resumed.params == a.params
    ok = twice_identical and resume_equivalent
    report(13, ok, f"same-seed reruns bit-identical: {twice_identical}; "
                   f"resume-at-3-to-6 equivalence: {resume_equivalent}")


def test_criterion_14_cifar_reader(tmp_path):
    rng = np.random.default_rng(14)
    pixels = rng.integers(0, 256, size=(4, 3072)).astype(np.uint8)
    labels = np.array([0, 9, 3, 7], dtype=np.uint8)
    records = np.concatenate(
        [np.concatenate([[lab], pix]) for lab, pix in zip(labels, pixels)]
    ).astype(np.uint8)
    path = tmp_path / "batch.bin"
    records.tofile(str(path))

    ds = datamod.read_cifar_binary(path, "cifar10")
    roundtrip = (np.array_equal(float_to_byte(ds.x.reshape(4, 3072)), pixels)
                 and np.array_equal(ds.y, labels))

    endpoints = (ds.x.reshape(4, 3072)[pixels == 0] == -1.0).all() \
        and (ds.x.reshape(4, 3072)[pixels == 255] == 1.0).all()

    truncated = tmp_path / "trunc.bin"
    truncated.write_bytes(records.tobytes()[:5000])
    try:
        datamod.read_cifar_binary(truncated, "cifar10")
        rejected = False
        message = "no error raised"
    except datamod.CifarFormatError as exc:
        message = str(exc)
        rejected = "offset" in message
    ok = roundtrip and endpoints and rejected
    report(14, ok, f"synthetic file roundtrips bit-exactly: {roundtrip}; "
                   f"byte endpoints map to -1/+1: {endpoints}; truncated file "
                   f"rejected with offset: {rejected}")
