"""Synthetic data generation, degradation operators, and file formats."""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from lorex.degradations import (
    DEFAULT_TASKS,
    DatasetConfig,
    DegradationSpec,
    MixedDef,
    TaskDef,
    apply_degradation,
    gen_clean_image,
    load_manifest,
    make_dataset,
    read_ppm,
    write_ppm,
    write_manifest,
)
from lorex.errors import ConfigError, DataError, ShapeError
from lorex.metrics import psnr
from lorex.numerics import Tensor

SMALL = DatasetConfig(seed=3, train_per_task=4, test_per_task=2, mixed_pairs=2)


def tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file():
            h.update(path.relative_to(root).as_posix().encode())
            h.update(path.read_bytes())
    return h.hexdigest()


class TestGenCleanImage:
    def test_deterministic(self):
        a = gen_clean_image(99, (32, 32))
        b = gen_clean_image(99, (32, 32))
        assert a.data.tobytes() == b.data.tobytes()

    def test_range(self):
        for seed in range(20):
            img = gen_clean_image(seed, (32, 32))
            assert img.data.min() >= 0.0 and img.data.max() <= 1.0

    def test_different_seeds_differ(self):
        # mean absolute difference above 0.01 across 100 seed pairs
        for pair in range(100):
            a = gen_clean_image(2 * pair, (32, 32)).data
            b = gen_clean_image(2 * pair + 1, (32, 32)).data
            assert np.abs(a - b).mean() > 0.01

    def test_too_small_rejected(self):
        with pytest.raises(ConfigError):
            gen_clean_image(1, (8, 8))


class TestDegradationSpec:
    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            DegradationSpec("salt_pepper", {})

    def test_unknown_param(self):
        with pytest.raises(ConfigError):
            DegradationSpec("gaussian_noise", {"amount": 1})

    @pytest.mark.parametrize("kind,params", [
        ("gaussian_noise", {"sigma": -0.1}),
        ("gaussian_blur", {"sigma": 1.0, "size": 4}),
        ("gaussian_blur", {"sigma": -1.0, "size": 3}),
        ("low_light", {"scale": 0.0}),
        ("low_light", {"scale": 1.5}),
        ("low_light", {"scale": 0.5, "gamma": 0.5}),
        ("block_quantize", {"levels": 1}),
        ("block_quantize", {"block": 0}),
        ("masking", {"fraction": 1.0}),
        ("masking", {"fraction": -0.1}),
    ])
    def test_invalid_params(self, kind, params):
        with pytest.raises(ConfigError):
            DegradationSpec(kind, params)


class TestApplyDegradation:
    def test_zero_sigma_noise_identity(self):
        img = gen_clean_image(5, (32, 32))
        out = apply_degradation(img, DegradationSpec("gaussian_noise", {"sigma": 0.0}, 1))
        assert out.data.tobytes() == img.data.tobytes()

    def test_size_one_blur_identity(self):
        img = gen_clean_image(5, (32, 32))
        out = apply_degradation(img, DegradationSpec("gaussian_blur", {"sigma": 0.0, "size": 1}, 1))
        assert out.data.tobytes() == img.data.tobytes()

    def test_noise_psnr_matches_sigma(self):
        # sigma=0.1 on mid-gray: expected MSE sigma^2 -> 20 dB, Monte-Carlo
        gray = Tensor(np.full((3, 32, 32), 0.5, np.float32))
        values = [psnr(apply_degradation(
            gray, DegradationSpec("gaussian_noise", {"sigma": 0.1}, seed)), gray)
            for seed in range(100)]
        assert abs(float(np.mean(values)) - 20.0) <= 0.5

    def test_deterministic_in_seed(self):
        img = gen_clean_image(5, (32, 32))
        spec = DegradationSpec("masking", {"fraction": 0.3, "block": 8}, 42)
        a = apply_degradation(img, spec)
        b = apply_degradation(img, spec)
        assert a.data.tobytes() == b.data.tobytes()

    def test_outputs_stay_in_range(self):
        img = gen_clean_image(8, (32, 32))
        specs = [
            DegradationSpec("gaussian_noise", {"sigma": 0.5}, 1),
            DegradationSpec("gaussian_blur", {"sigma": 3.0, "size": 11}, 1),
            DegradationSpec("low_light", {"scale": 0.2, "gamma": 2.0}, 1),
            DegradationSpec("block_quantize", {"block": 4, "levels": 2}, 1),
            DegradationSpec("masking", {"fraction": 0.9, "block": 4}, 1),
        ]
        for spec in specs:
            out = apply_degradation(img, spec)
            assert out.data.min() >= 0.0 and out.data.max() <= 1.0

    def test_default_specs_strictly_degrade(self):
        # every non-identity default spec loses information: PSNR < 45 dB
        for task in DEFAULT_TASKS:
            worst = 0.0
            for seed in range(5):
                img = gen_clean_image(seed, (32, 32))
                out = apply_degradation(img, DegradationSpec(task.kind, task.params, seed))
                worst = max(worst, psnr(out, img))
            assert worst < 45.0, task.label

    def test_masking_zeroes_blocks(self):
        img = Tensor(np.full((3, 32, 32), 0.8, np.float32))
        out = apply_degradation(img, DegradationSpec("masking", {"fraction": 0.25, "block": 8}, 3))
        zeros = (out.data == 0).all(axis=0).sum()
        assert zeros == 4 * 64  # 4 of 16 blocks masked, 8x8 each

    def test_shape_checked(self):
        with pytest.raises(ShapeError):
            apply_degradation(Tensor.zeros((1, 8, 8)),
                              DegradationSpec("gaussian_noise", {"sigma": 0.1}, 0))


class TestPpm:
    def test_round_trip_bit_exact(self, tmp_path, rng):
        q = rng.integers(0, 256, size=(3, 16, 24)).astype(np.float32) / np.float32(255)
        img = Tensor(q)
        write_ppm(tmp_path / "x.ppm", img)
        back = read_ppm(tmp_path / "x.ppm")
        assert back.data.tobytes() == img.data.tobytes()

    def test_quantizes_on_write(self, tmp_path):
        img = Tensor(np.full((3, 16, 16), 1.0 / 3.0, np.float32))
        write_ppm(tmp_path / "x.ppm", img)
        back = read_ppm(tmp_path / "x.ppm")
        np.testing.assert_allclose(back.data, 85.0 / 255.0, atol=1e-7)

    def test_rejects_non_ppm(self, tmp_path):
        (tmp_path / "bad.ppm").write_bytes(b"JUNK")
        with pytest.raises(DataError):
            read_ppm(tmp_path / "bad.ppm")

    def test_rejects_truncated_payload(self, tmp_path):
        (tmp_path / "t.ppm").write_bytes(b"P6\n4 4\n255\n" + b"\x00" * 10)
        with pytest.raises(DataError):
            read_ppm(tmp_path / "t.ppm")

    def test_rejects_wrong_maxval(self, tmp_path):
        (tmp_path / "m.ppm").write_bytes(b"P6\n1 1\n65535\n" + b"\x00" * 6)
        with pytest.raises(DataError):
            read_ppm(tmp_path / "m.ppm")


class TestMakeDataset:
    def test_default_counts(self, tmp_path):
        manifests = make_dataset(SMALL, tmp_path / "d")
        assert len(manifests["train"].tasks) == 5
        for task in manifests["train"].tasks:
            assert len(task.pairs) == 4
        for task in manifests["test"].tasks:
            assert len(task.pairs) == 2
        assert len(manifests["mixed"].tasks) == 2

    def test_byte_identical_regeneration(self, tmp_path):
        make_dataset(SMALL, tmp_path / "a")
        make_dataset(SMALL, tmp_path / "b")
        assert tree_digest(tmp_path / "a") == tree_digest(tmp_path / "b")

    def test_duplicate_labels_rejected(self):
        tasks = (TaskDef("x", "gaussian_noise", {"sigma": 0.1}),
                 TaskDef("x", "masking", {"fraction": 0.2, "block": 8}))
        with pytest.raises(ConfigError):
            DatasetConfig(tasks=tasks, mixed=())

    def test_mixed_label_collision_rejected(self):
        with pytest.raises(ConfigError):
            DatasetConfig(mixed=(MixedDef("gaussian_noise", (
                ("gaussian_noise", {"sigma": 0.1}),
                ("low_light", {"scale": 0.5, "gamma": 1.2}))),))

    @pytest.mark.parametrize("field,value", [("patch", 30), ("patch", 8), ("patch", 100000),
                                             ("mixed_pairs", 0), ("mixed_pairs", -1)])
    def test_config_rejects_what_later_stages_reject(self, field, value):
        # a patch the restorer cannot take, one too large to generate, or an
        # empty mixed split, whose manifest load_manifest would reject
        with pytest.raises(ConfigError):
            DatasetConfig(**{field: value})

    def test_manifest_loads_and_matches(self, tmp_path):
        manifests = make_dataset(SMALL, tmp_path / "d")
        for split in ("train", "test", "mixed"):
            loaded = load_manifest(tmp_path / "d" / f"{split}.manifest")
            assert loaded.labels == manifests[split].labels
            for got, want in zip(loaded.tasks, manifests[split].tasks):
                assert [(c.name, d.name) for c, d in got.pairs] == \
                       [(c.name, d.name) for c, d in want.pairs]
                assert got.sizes == want.sizes == [(32, 32)] * len(got.pairs)

    def test_train_test_pools_disjoint(self, tmp_path):
        manifests = make_dataset(SMALL, tmp_path / "d")
        train_imgs = {read_ppm(c).data.tobytes()
                      for t in manifests["train"].tasks for c, _ in t.pairs}
        test_imgs = {read_ppm(c).data.tobytes()
                     for t in manifests["test"].tasks for c, _ in t.pairs}
        assert not train_imgs & test_imgs


class TestManifestFormat:
    def test_header_line(self, tmp_path):
        make_dataset(SMALL, tmp_path / "d")
        first = (tmp_path / "d" / "train.manifest").read_text().splitlines()[0]
        assert first == "#uir-manifest v1 T=5"

    def test_missing_header_rejected(self, tmp_path):
        p = tmp_path / "bad.manifest"
        p.write_text("a\tx.ppm\ty.ppm\n")
        with pytest.raises(DataError):
            load_manifest(p)

    def test_verify_records_each_pairs_size(self, tmp_path):
        for name, size in (("a", (16, 24)), ("b", (40, 8))):
            for side in "cd":
                write_ppm(tmp_path / f"{name}{side}.ppm", Tensor(np.zeros((3, *size), np.float32)))
        p = tmp_path / "m.manifest"
        p.write_text("#uir-manifest v1 T=2\nx\tac.ppm\tad.ppm\ny\tbc.ppm\tbd.ppm\n"
                     "x\tbc.ppm\tbd.ppm\n")
        assert [t.sizes for t in load_manifest(p).tasks] == [[(16, 24), (40, 8)], [(40, 8)]]
        assert [t.sizes for t in load_manifest(p, verify=False).tasks] == [None, None]

    def test_wrong_task_count_rejected(self, tmp_path):
        p = tmp_path / "bad.manifest"
        p.write_text("#uir-manifest v1 T=3\na\tx.ppm\ty.ppm\n")
        with pytest.raises(DataError):
            load_manifest(p, verify=False)

    def test_missing_file_rejected(self, tmp_path):
        p = tmp_path / "m.manifest"
        p.write_text("#uir-manifest v1 T=1\na\tmissing1.ppm\tmissing2.ppm\n")
        with pytest.raises(DataError):
            load_manifest(p)

    @pytest.mark.parametrize("change,error", [(-1, "PPM payload truncated"), (0, None),
                                              (1, None)], ids=["short", "exact", "long"])
    def test_verify_checks_the_payload_size_like_read_ppm(self, tmp_path, change, error):
        header = b"P6\n# made by hand\n4 2\n255\n"
        image = tmp_path / "x.ppm"
        image.write_bytes(header + b"\x80" * (3 * 4 * 2 + change))
        p = tmp_path / "m.manifest"
        p.write_text("#uir-manifest v1 T=1\na\tx.ppm\tx.ppm\n")
        if error is None:
            assert load_manifest(p).labels == ("a",)
            assert read_ppm(image).dims == (3, 2, 4)
            return
        with pytest.raises(DataError) as from_manifest:
            load_manifest(p)
        with pytest.raises(DataError) as from_read:
            read_ppm(image)
        assert str(from_manifest.value) == str(from_read.value) == f"{image}: {error}"

    def test_malformed_record_rejected(self, tmp_path):
        p = tmp_path / "m.manifest"
        p.write_text("#uir-manifest v1 T=1\naaa bbb\n")
        with pytest.raises(DataError):
            load_manifest(p, verify=False)

    def test_write_then_load_round_trip(self, tmp_path):
        manifests = make_dataset(SMALL, tmp_path / "d")
        out = tmp_path / "d" / "copy.manifest"
        write_manifest(out, manifests["test"])
        again = load_manifest(out)
        assert again.labels == manifests["test"].labels


class TestMixedComposition:
    def test_mixed_pairs_apply_components_in_declared_order(self, tmp_path):
        from lorex import seeding
        manifests = make_dataset(SMALL, tmp_path / "d")
        task = manifests["mixed"].tasks[0]
        label = task.label
        for i, (clean_path, degraded_path) in enumerate(task.pairs):
            img = read_ppm(clean_path)
            for ci, template in enumerate(task.specs):
                img = apply_degradation(img, template.with_seed(
                    seeding.derive_seed(SMALL.seed, "degrade", "mixed", label, i, ci)))
            # written file quantizes the composed result
            want = np.clip(np.rint(img.data * 255), 0, 255) / 255
            np.testing.assert_allclose(read_ppm(degraded_path).data, want, atol=1e-7)
