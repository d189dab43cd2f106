"""The benchmark's own tests: reference maths, and every workload at reduced size.

    python3 -m pytest bench/tests -q

Each workload runs end to end through ``bench/run.py --scale small``
with every output check, so a broken check or a broken command shows
here before it shows as a failed benchmark run. Not part of the
repository's tier-1 suite (``tests/``); it takes about a minute.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import reference as ref  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, trace=0):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--scale", "small"],
        cwd=str(ROOT), capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_runs_with_every_check(workload):
    result = run(workload)
    assert result["correct"], result
    names = {m["name"] for m in SPEC["end_to_end"]}
    assert set(result["metrics"]) == names
    assert all(m["value"] > 0 for m in result["metrics"].values())
    # one round at --seconds 1; toy keeps one known failure per round, the
    # jem accuracy check
    assert result["failed"] == (1 if workload == "toy" else 0)


def test_traced_run_reports_every_per_layer_metric():
    result = run("toy", trace=1)
    assert result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["autodiff.conv2d.s"] == 0.0       # the MLP never convolves
    assert metrics["autodiff.ops.calls"] > 0
    assert metrics["metrics.auroc.s"] > 0


def test_no_checkout_fails_without_result(tmp_path):
    (tmp_path / "bench").mkdir()
    for f in BENCH.glob("*.py"):
        (tmp_path / "bench" / f.name).write_text(f.read_text())
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "toy", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=str(tmp_path), capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# ---------------------------------------------------------------------------
# reference maths

def test_conv_matches_direct_sum():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(2, 3, 5, 5))
    w = rng.normal(size=(4, 3, 3, 3))
    b = rng.normal(size=4)
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    direct = np.zeros((2, 4, 5, 5))
    for i in range(5):
        for j in range(5):
            direct[:, :, i, j] = np.einsum("ncuv,fcuv->nf", xp[:, :, i:i + 3, j:j + 3], w) + b
    assert np.allclose(ref.conv2d(x, w, b, 1), direct)


def test_conv_input_grad_is_the_adjoint():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(2, 3, 6, 6))
    w = rng.normal(size=(4, 3, 3, 3))
    g = rng.normal(size=(2, 4, 6, 6))
    lhs = np.sum(ref.conv2d(x, w, np.zeros(4), 1) * g)
    rhs = np.sum(x * ref.conv2d_input_grad(g, w, 1))
    assert np.isclose(lhs, rhs)


def test_auroc_counts_pairs():
    rng = np.random.default_rng(2)
    s_in = rng.integers(0, 5, 40).astype(float)
    s_out = rng.integers(0, 5, 30).astype(float)
    pairs = [(a > b) + 0.5 * (a == b) for a in s_in for b in s_out]
    assert np.isclose(ref.auroc(s_in, s_out), np.mean(pairs))


def test_ece_bins_are_right_inclusive():
    conf = np.array([0.0, 0.5, 0.5000001, 1.0])
    rows = ref.ece_bins(conf, np.array([True, False, True, True]), 2)
    assert [r[0] for r in rows] == [2, 2]


def test_bayes_rate_of_the_toy_mixture():
    assert abs(ref.bayes_accuracy(1.0, 0.35) - 0.9234) < 1e-4
