
import numpy as np
import pytest

from ebmkit import data as datamod
from ebmkit import energy as en
from ebmkit import metrics
from ebmkit import nn
from oracles import (brute_force_ece, ece_from_bins, pair_count_auroc, threshold_sweep_roc,
                     traced_peak_bytes)


class TestEce:
    def test_perfectly_confident_and_correct(self):
        report = metrics.ece(np.ones(50), np.ones(50, dtype=bool), 10)
        assert report.value == 0.0

    def test_perfectly_confident_and_wrong(self):
        report = metrics.ece(np.ones(50), np.zeros(50, dtype=bool), 10)
        assert report.value == 1.0

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            n = int(rng.integers(5, 200))
            n_bins = int(rng.integers(1, 30))
            conf = rng.uniform(0, 1, size=n)
            correct = rng.uniform(0, 1, size=n) < conf
            got = metrics.ece(conf, correct, n_bins).value
            want = brute_force_ece(conf, correct, n_bins)
            assert abs(got - want) < 1e-12

    def test_one_bin_equals_overall_gap(self):
        rng = np.random.default_rng(1)
        conf = rng.uniform(0, 1, size=100)
        correct = rng.uniform(0, 1, size=100) < 0.5
        got = metrics.ece(conf, correct, 1).value
        assert got == pytest.approx(abs(correct.mean() - conf.mean()), abs=1e-12)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(2)
        conf = rng.uniform(0, 1, size=80)
        correct = rng.uniform(0, 1, size=80) < conf
        perm = rng.permutation(80)
        assert metrics.ece(conf, correct, 15).value == \
            pytest.approx(metrics.ece(conf[perm], correct[perm], 15).value, abs=1e-15)

    def test_report_recomputes_and_counts_sum(self):
        rng = np.random.default_rng(3)
        conf = rng.uniform(0, 1, size=64)
        correct = rng.uniform(0, 1, size=64) < conf
        report = metrics.ece(conf, correct, 12)
        assert sum(b.count for b in report.bins) == 64
        assert ece_from_bins(report.bins) == pytest.approx(report.value, abs=1e-12)
        assert 0.0 <= report.value <= 1.0

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            metrics.ece([], [], 10)

    def test_out_of_range_confidence_rejected(self):
        with pytest.raises(ValueError):
            metrics.ece([1.2], [True], 10)


class TestAuroc:
    def test_perfect_separation(self):
        assert metrics.auroc([0.9, 0.8], [0.1, 0.2]).auroc == 1.0

    def test_identical_distributions_exactly_half(self):
        scores = [0.3, 0.5, 0.7]
        assert metrics.auroc(scores, scores).auroc == 0.5

    def test_matches_pair_counting_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            s_in = rng.normal(0.5, 1.0, size=50)
            s_out = rng.normal(0.0, 1.0, size=50)
            got = metrics.auroc(s_in, s_out).auroc
            want = pair_count_auroc(list(s_in), list(s_out))
            assert abs(got - want) < 1e-12

    def test_antisymmetry_without_ties(self):
        rng = np.random.default_rng(5)
        s_in = rng.normal(size=30)
        s_out = rng.normal(size=40)
        a = metrics.auroc(s_in, s_out).auroc
        b = metrics.auroc(s_out, s_in).auroc
        assert a == pytest.approx(1.0 - b, abs=1e-12)

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(6)
        s_in = rng.normal(size=25)
        s_out = rng.normal(size=25)
        base = metrics.auroc(s_in, s_out).auroc
        warped = metrics.auroc(np.exp(s_in), np.exp(s_out)).auroc
        assert base == pytest.approx(warped, abs=1e-12)

    def test_curve_shape(self):
        rng = np.random.default_rng(7)
        result = metrics.auroc(rng.normal(1, 1, 20), rng.normal(0, 1, 20))
        curve = result.curve
        assert curve[0] == (0.0, 0.0)
        assert curve[-1] == (1.0, 1.0)
        fprs = [p[0] for p in curve]
        tprs = [p[1] for p in curve]
        assert all(b >= a for a, b in zip(fprs, fprs[1:]))
        assert all(b >= a for a, b in zip(tprs, tprs[1:]))
        assert 0.0 <= result.auroc <= 1.0

    def test_curve_matches_threshold_loop_with_shared_ties(self):
        # scores on a coarse grid, so most values occur in both sets
        rng = np.random.default_rng(8)
        for _ in range(50):
            s_in = rng.integers(0, 12, size=int(rng.integers(1, 80))) / 4.0
            s_out = rng.integers(0, 12, size=int(rng.integers(1, 80))) / 4.0
            result = metrics.auroc(s_in, s_out)
            assert result.curve == threshold_sweep_roc(s_in, s_out)
            assert result.auroc == pair_count_auroc(list(s_in), list(s_out))

    def test_curve_keeps_its_corners_only(self):
        # in-scores all above the one out-score: up the tpr axis, then across
        assert metrics.auroc([3.0, 2.0, 1.0], [0.0]).curve == ((0.0, 0.0), (0.0, 1.0), (1.0, 1.0))
        # a tie block whose step runs on the line of the steps around it
        assert metrics.auroc([2.0, 1.0], [2.0, 1.0]).curve == ((0.0, 0.0), (1.0, 1.0))

    def test_area_under_the_corners_is_the_auroc(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            s_in = rng.integers(0, 30, size=int(rng.integers(1, 200))) / 3.0
            s_out = rng.integers(0, 30, size=int(rng.integers(1, 200))) / 3.0
            result = metrics.auroc(s_in, s_out)
            fpr, tpr = np.array(result.curve).T
            area = float(np.sum(np.diff(fpr) * (tpr[1:] + tpr[:-1]) / 2))
            assert area == pytest.approx(result.auroc, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            metrics.auroc([], [1.0])

    @pytest.mark.parametrize("s_in,s_out", [([0.1, np.nan, 0.5], [0.2, 0.3]),
                                            ([0.1, 0.5], [np.nan])])
    def test_nan_rejected(self, s_in, s_out):
        with pytest.raises(ValueError, match="NaN"):
            metrics.auroc(s_in, s_out)

    def test_infinite_scores_are_valid(self):
        s_in, s_out = [np.inf, 0.5, -np.inf], [-np.inf, 0.5, 0.2]
        result = metrics.auroc(s_in, s_out)
        assert result.auroc == pair_count_auroc(s_in, s_out)
        assert result.curve == threshold_sweep_roc(np.array(s_in), np.array(s_out))


class TestHistogram:
    def test_single_repeated_value_one_bin(self):
        hist = metrics.histogram(np.full(20, 3.0), 5)
        assert int((hist.density > 0).sum()) == 1

    def test_uniform_grid_density_near_one(self):
        hist = metrics.histogram(np.linspace(0, 1, 10_001), 10, (0.0, 1.0))
        assert np.all(np.abs(hist.density - 1.0) < 0.01)

    def test_integrates_to_one(self):
        rng = np.random.default_rng(8)
        hist = metrics.histogram(rng.normal(size=500), 17)
        widths = np.diff(hist.edges)
        assert float(np.sum(hist.density * widths)) == pytest.approx(1.0, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            metrics.histogram([], 5)


class FixedLogitModel:
    """Returns constant logits regardless of input."""

    block_rows = 1 << 10    # rows per pass over a set, as a ModelSpec gives them

    def __init__(self, logits_row):
        self.row = np.asarray(logits_row, dtype=np.float64)

    def __call__(self, params, x):
        from ebmkit import autodiff as ad
        return ad.broadcast(ad.Tensor(self.row.reshape(1, -1)),
                            (x.shape[0], self.row.size))


def unlabelled(x):
    """Inputs ``x`` as a Dataset, all of class 0: score_dataset reads no label."""
    return datamod.Dataset(x, np.zeros(len(x)), classes=1)


class TestScoreDataset:
    def test_max_softmax_on_uniform_model(self):
        model = FixedLogitModel(np.zeros(4))
        scores = metrics.score_dataset(model, {}, unlabelled(np.zeros((10, 3))),
                                       en.ScoreKind.MAX_SOFTMAX)
        assert np.allclose(scores, 0.25, atol=1e-12)

    def test_approximate_mass_constant_for_linear_model(self):
        spec = nn.ModelSpec(layers=(nn.Dense(2, 1),), input_shape=(2,), classes=1)
        params = nn.Parameters({"layer0.w": np.array([[3.0], [4.0]]),
                                "layer0.b": np.zeros(1)})
        scores = metrics.score_dataset(spec, params,
                                       unlabelled(np.random.default_rng(0).uniform(-1, 1, (7, 2))),
                                       en.ScoreKind.APPROXIMATE_MASS)
        assert np.allclose(scores, -5.0, atol=1e-12)

    def test_batch_size_independence(self, monkeypatch):
        x = unlabelled(np.random.default_rng(9).uniform(-1, 1, size=(23, 2)))

        def scores(rows):
            # the widest activation is the 5-unit hidden layer: 40 bytes a row
            monkeypatch.setattr(nn, "_ROW_BLOCK_BYTES", rows * 5 * 8)
            spec = nn.ModelSpec.mlp(2, [5], 3)
            assert spec.block_rows == rows
            return metrics.score_dataset(spec, nn.init(spec, 9), x,
                                         en.ScoreKind.LOG_DENSITY_PROXY)
        a = scores(4)
        b = scores(23)
        assert np.array_equal(a, b)

    def test_approximate_mass_peak_memory_follows_the_block_not_the_set(self):
        spec = nn.ModelSpec.small_conv((1, 8, 8), [4], 3)
        params = nn.init(spec, 0)
        rng = np.random.default_rng(1)

        def peak(n):
            x = unlabelled(rng.uniform(-1, 1, size=(n, 1, 8, 8)))
            return traced_peak_bytes(metrics.score_dataset, spec, params, x,
                                     en.ScoreKind.APPROXIMATE_MASS)
        assert peak(4 * spec.block_rows) < 1.5 * peak(spec.block_rows)

    def test_approximate_mass_keeps_no_set_sized_gradient(self, monkeypatch):
        # the input is the widest activation, so a set-sized input gradient
        # would outweigh a block's tape
        monkeypatch.setattr(nn, "_ROW_BLOCK_BYTES", 32 * 256 * 8)
        spec = nn.ModelSpec.mlp(256, [4], 2)
        assert spec.block_rows == 32
        params = nn.init(spec, 0)
        rng = np.random.default_rng(2)

        def peak(n):
            x = unlabelled(rng.uniform(-1, 1, size=(n, 256)))
            return traced_peak_bytes(metrics.score_dataset, spec, params, x,
                                     en.ScoreKind.APPROXIMATE_MASS)
        assert peak(16 * spec.block_rows) < 1.5 * peak(spec.block_rows)
