import re

import numpy as np
import pytest

from ebmkit import data
from oracles import dataset_to_csv, float_to_byte


def write_cifar10_file(path, labels, pixel_fn):
    """Synthetic well-formed CIFAR-10 binary file."""
    records = []
    for i, label in enumerate(labels):
        rec = np.empty(data.CIFAR10_RECORD, dtype=np.uint8)
        rec[0] = label
        rec[1:] = pixel_fn(i)
        records.append(rec)
    np.concatenate(records).tofile(str(path))


class TestGaussianMixture:
    def test_zero_std_points_exactly_at_centers(self):
        centers = [(-0.5, 0.0), (0.5, 0.0)]
        ds = data.gen_gaussian_mixture_2d(10, centers, 0.0, seed=0)
        assert np.array_equal(ds.x[:10], np.tile(centers[0], (10, 1)))
        assert np.array_equal(ds.x[10:], np.tile(centers[1], (10, 1)))

    def test_seed_determinism(self):
        a = data.gen_gaussian_mixture_2d(50, [(-0.5, 0), (0.5, 0)], 0.2, seed=3)
        b = data.gen_gaussian_mixture_2d(50, [(-0.5, 0), (0.5, 0)], 0.2, seed=3)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)

    def test_class_means_near_centers(self):
        n, std = 2000, 0.1
        ds = data.gen_gaussian_mixture_2d(n, [(-0.4, 0.2), (0.4, -0.2)], std, seed=1)
        for label, center in enumerate([(-0.4, 0.2), (0.4, -0.2)]):
            mean = ds.x[ds.y == label].mean(axis=0)
            assert np.all(np.abs(mean - np.asarray(center)) < 3 * std / np.sqrt(n))

    def test_values_within_unit_box(self):
        ds = data.gen_gaussian_mixture_2d(500, [(-0.9, 0.9), (0.9, -0.9)], 0.5, seed=2)
        assert ds.x.min() >= -1.0 and ds.x.max() <= 1.0


class TestCifarReader:
    def test_all_zero_record(self, tmp_path):
        path = tmp_path / "batch.bin"
        write_cifar10_file(path, [0], lambda i: np.zeros(3072, dtype=np.uint8))
        ds = data.read_cifar_binary(path, "cifar10")
        assert len(ds) == 1
        assert ds.y[0] == 0
        assert np.all(ds.x == -1.0)

    def test_byte_endpoint_mapping(self, tmp_path):
        path = tmp_path / "batch.bin"
        write_cifar10_file(path, [3], lambda i: np.full(3072, 255, dtype=np.uint8))
        ds = data.read_cifar_binary(path, "cifar10")
        assert np.all(ds.x == 1.0)

    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        pixels = rng.integers(0, 256, size=(5, 3072)).astype(np.uint8)
        labels = rng.integers(0, 10, size=5)
        path = tmp_path / "batch.bin"
        write_cifar10_file(path, labels, lambda i: pixels[i])
        ds = data.read_cifar_binary(path, "cifar10")
        back = float_to_byte(ds.x.reshape(5, 3072))
        assert np.array_equal(back, pixels)
        assert np.array_equal(ds.y, labels)

    def test_byte_float_byte_roundtrip_all_values(self, tmp_path):
        bytes_in = (np.arange(3072) % 256).astype(np.uint8)
        path = tmp_path / "batch.bin"
        write_cifar10_file(path, [0], lambda i: bytes_in)
        ds = data.read_cifar_binary(path, "cifar10")
        assert np.array_equal(float_to_byte(ds.x.reshape(-1)), bytes_in)

    def test_truncated_file_reports_offset(self, tmp_path):
        path = tmp_path / "broken.bin"
        np.zeros(data.CIFAR10_RECORD + 100, dtype=np.uint8).tofile(str(path))
        with pytest.raises(data.CifarFormatError, match="3073"):
            data.read_cifar_binary(path, "cifar10")

    def test_label_out_of_range_reports_offset(self, tmp_path):
        path = tmp_path / "badlabel.bin"
        write_cifar10_file(path, [0, 12], lambda i: np.zeros(3072, dtype=np.uint8))
        with pytest.raises(data.CifarFormatError, match=str(data.CIFAR10_RECORD)):
            data.read_cifar_binary(path, "cifar10")

    def test_cifar100_uses_fine_label(self, tmp_path):
        rec = np.zeros(data.CIFAR100_RECORD, dtype=np.uint8)
        rec[0] = 7    # coarse
        rec[1] = 42   # fine
        path = tmp_path / "c100.bin"
        rec.tofile(str(path))
        ds = data.read_cifar_binary(path, "cifar100")
        assert ds.y[0] == 42
        assert ds.classes == 100


class TestBatches:
    def make(self, n=10):
        return data.Dataset(np.linspace(-1, 1, 2 * n).reshape(n, 2),
                            np.arange(n) % 2, classes=2)

    def test_full_batch_single_epoch(self):
        ds = self.make(8)
        got = list(data.batches(ds, 8, seed=0))
        assert len(got) == 1
        assert got[0][0].shape == (8, 2)

    def test_same_seed_identical_order(self):
        ds = self.make(10)
        a = [y.tolist() for _, y in data.batches(ds, 3, seed=4)]
        b = [y.tolist() for _, y in data.batches(ds, 3, seed=4)]
        assert a == b

    def test_partition_covers_everything(self):
        ds = self.make(11)
        seen = np.concatenate([x for x, _ in data.batches(ds, 4, seed=2)])
        assert seen.shape[0] == 11
        assert np.array_equal(np.sort(seen[:, 0]), np.sort(ds.x[:, 0]))

    def test_epochs_differ_but_runs_match(self):
        ds = self.make(10)
        first = next(data.batches(ds, 10, seed=3, epoch=0))[1].tolist()
        second = next(data.batches(ds, 10, seed=3, epoch=1))[1].tolist()
        again = next(data.batches(ds, 10, seed=3, epoch=0))[1].tolist()
        assert first == again
        assert first != second


class TestLabelNoise:
    def test_fraction_flipped(self):
        ds = data.gen_gaussian_mixture_2d(500, [(-0.5, 0), (0.5, 0)], 0.1, seed=0)
        noisy = data.with_label_noise(ds, 0.1, seed=1)
        flipped = int((noisy.y != ds.y).sum())
        assert flipped == 100  # every flip changes the label

    def test_zero_fraction_identity(self):
        ds = data.gen_gaussian_mixture_2d(20, [(-0.5, 0), (0.5, 0)], 0.1, seed=0)
        noisy = data.with_label_noise(ds, 0.0, seed=1)
        assert np.array_equal(noisy.y, ds.y)


class TestValidation:
    def test_out_of_range_inputs_rejected(self):
        with pytest.raises(ValueError, match=r"\[-1, 1\]"):
            data.Dataset(np.array([[2.0]]), np.array([0]), classes=2)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_inputs_rejected(self, value):
        with pytest.raises(ValueError, match="finite"):
            data.Dataset(np.array([[0.5, value], [0.0, 0.0]]), np.array([0, 1]), classes=2)

    def test_nan_cell_in_a_csv_file_rejected(self, tmp_path):
        path = tmp_path / "ds.csv"
        path.write_text("x0,x1,label\n0.5,nan,0\n0.0,0.0,1\n")
        with pytest.raises(ValueError, match="finite"):
            data.dataset_from_csv(path, classes=2)

    @pytest.mark.parametrize("text,line", [
        pytest.param("", 1, id="empty"),
        pytest.param("x0,x1,label\n", 2, id="header-only"),
        pytest.param("x0,x1,label\n0.5,0.1,0\n0.0,1\n", 3, id="row-one-cell-short"),
        pytest.param("x0,x1,label\n0.5,0.1,0\n0.0,0.0,one\n", 3, id="label-not-an-integer")])
    def test_malformed_csv_file_names_itself_and_the_line(self, tmp_path, text, line):
        path = tmp_path / "ds.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=re.escape(f"{path}: line {line}: ")):
            data.dataset_from_csv(path, classes=2)

    def test_bad_labels_rejected(self):
        with pytest.raises(ValueError):
            data.Dataset(np.array([[0.0]]), np.array([5]), classes=2)

    def test_csv_roundtrip(self, tmp_path):
        ds = data.gen_gaussian_mixture_2d(12, [(-0.5, 0), (0.5, 0)], 0.2, seed=9)
        path = tmp_path / "ds.csv"
        dataset_to_csv(ds, path)
        back = data.dataset_from_csv(path, classes=2)
        assert np.allclose(back.x, ds.x, atol=0)
        assert np.array_equal(back.y, ds.y)
