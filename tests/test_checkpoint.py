"""Checkpoint container format and model/router persistence."""

from dataclasses import replace

import numpy as np
import pytest

from lorex import persist
from lorex.checkpoint import (
    MAGIC,
    CheckpointHeader,
    load_checkpoint,
    save_checkpoint,
)
from lorex.errors import CheckpointError, ConfigError
from lorex.numerics import Tensor
from lorex.restorer import build_model, restore, restore_auto
from lorex.router import ENCODER_PARAM_DIMS, build_router


@pytest.fixture
def header():
    return CheckpointHeader(labels=("noise", "blur"), layer_names=("enc1", "dec1"),
                            ranks=(4, 2))


@pytest.fixture
def tensors(rng):
    return {
        "alpha": Tensor(rng.standard_normal((3, 4, 5)).astype(np.float32)),
        "beta": Tensor(rng.standard_normal((7,)).astype(np.float32)),
        "gamma.delta": Tensor(rng.standard_normal((2, 2, 2, 2)).astype(np.float32)),
    }


class TestContainer:
    def test_round_trip_bit_exact(self, tmp_path, header, tensors):
        path = tmp_path / "x.uirl"
        save_checkpoint(path, header, tensors)
        got_header, got = load_checkpoint(path)
        assert got_header == header
        assert set(got) == set(tensors)
        for name, t in tensors.items():
            assert got[name].data.tobytes() == t.data.tobytes()
            assert got[name].dims == t.dims

    def test_magic_bytes(self, tmp_path, header, tensors):
        path = tmp_path / "x.uirl"
        save_checkpoint(path, header, tensors)
        assert path.read_bytes()[:4] == MAGIC == b"UIRL"

    def test_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "bad.uirl"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_rejects_bad_version(self, tmp_path, header, tensors):
        path = tmp_path / "x.uirl"
        save_checkpoint(path, header, tensors)
        blob = bytearray(path.read_bytes())
        blob[4] = 99
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_rejects_truncation(self, tmp_path, header, tensors):
        path = tmp_path / "x.uirl"
        save_checkpoint(path, header, tensors)
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) - 5])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_rejects_trailing_garbage(self, tmp_path, header, tensors):
        path = tmp_path / "x.uirl"
        save_checkpoint(path, header, tensors)
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_payload(self, tmp_path, header, tensors, bad):
        path = tmp_path / "x.uirl"
        save_checkpoint(path, header, tensors)
        blob = bytearray(path.read_bytes())
        at = blob.find(tensors["beta"].data.tobytes()) + 4 * 3
        blob[at:at + 4] = np.float32(bad).tobytes()
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="non-finite"):
            load_checkpoint(path)

    def test_rejects_non_utf8_label(self, tmp_path, header, tensors):
        path = tmp_path / "x.uirl"
        save_checkpoint(path, header, tensors)
        blob = bytearray(path.read_bytes())
        blob[blob.find(b"noise")] = 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="UTF-8"):
            load_checkpoint(path)

    def test_save_deterministic(self, tmp_path, header, tensors):
        save_checkpoint(tmp_path / "a.uirl", header, tensors)
        save_checkpoint(tmp_path / "b.uirl", header, tensors)
        assert (tmp_path / "a.uirl").read_bytes() == (tmp_path / "b.uirl").read_bytes()


class TestModelPersistence:
    def test_model_round_trip(self, tmp_path, rng):
        model = build_model(("a", "b", "c"), seed=5)
        # make adapters non-trivial so the round trip is meaningful
        for name in model.adapted_layer_names():
            for ad in model.layers[name].adapters:
                ad.b = Tensor(rng.standard_normal(ad.b.dims).astype(np.float32) * 0.1)
        path = tmp_path / "m.uirl"
        persist.save_model(path, model)
        back = persist.load_model(path)
        assert back.labels == model.labels
        x = Tensor(rng.random((3, 32, 32), dtype=np.float32))
        s = np.asarray([0.2, 0.5, 0.3], np.float32)
        a = restore(model, x, s)
        b = restore(back, x, s)
        assert a.data.tobytes() == b.data.tobytes()

    def test_header_records_ranks(self, tmp_path):
        model = build_model(("a",), seed=5)
        persist.save_model(tmp_path / "m.uirl", model)
        header, _ = load_checkpoint(tmp_path / "m.uirl")
        assert header.layer_names == model.adapted_layer_names()
        by_layer = dict(zip(header.layer_names, header.ranks))
        assert by_layer["bot1"] == 8
        assert by_layer["enc1"] == 4
        assert by_layer["head"] == 2  # clamped: the 3-channel output caps the rank

    def test_missing_tensor_rejected(self, tmp_path):
        model = build_model(("a",), seed=5)
        tensors = persist.model_tensors(model)
        del tensors["base.enc2.weight"]
        save_checkpoint(tmp_path / "m.uirl", persist.model_header(model), tensors)
        with pytest.raises(CheckpointError):
            persist.load_model(tmp_path / "m.uirl")

    def test_nan_weight_rejected(self, tmp_path):
        # a NaN weight would otherwise load and make every restore NaN
        model = build_model(("a",), seed=5)
        path = tmp_path / "m.uirl"
        persist.save_model(path, model)
        blob = bytearray(path.read_bytes())
        at = blob.find(model.layers["bot1"].base_weight.data.tobytes())
        blob[at:at + 4] = np.float32(np.nan).tobytes()
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="non-finite"):
            persist.load_model(path)

    @pytest.mark.parametrize("rank,dims,header_name", [
        (5, {}, "enc1"),
        (4, {"adapter.0.enc1.up": (32, 4)}, "enc1"),
        (16, {"adapter.0.enc1.up": (16, 16), "adapter.0.enc1.down": (16, 27)}, "enc1"),
        (4, {"base.enc1.bias": (8,)}, "enc1"),
        (4, {}, "foo"),
    ], ids=["header-rank-5", "up-32-rows", "full-rank", "bias-8-wide", "unknown-layer-name"])
    def test_malformed_layer_tensors_rejected(self, tmp_path, rank, dims, header_name):
        # enc1 is 16x27 with rank 4; each case damages its header rank, its
        # header name or its tensors, and the error names the header's layer
        model = build_model(("a",), seed=5)
        header = persist.model_header(model)
        ranks = tuple(rank if name == "enc1" else r
                      for name, r in zip(header.layer_names, header.ranks))
        names = tuple(header_name if name == "enc1" else name for name in header.layer_names)
        tensors = persist.model_tensors(model)
        tensors.update({name: Tensor.zeros(d) for name, d in dims.items()})
        save_checkpoint(tmp_path / "m.uirl", replace(header, layer_names=names, ranks=ranks),
                        tensors)
        with pytest.raises(CheckpointError, match=header_name):
            persist.load_model(tmp_path / "m.uirl")

    def test_base_digest_stable(self, tmp_path):
        model = build_model(("a", "b"), seed=6)
        digest = persist.base_digest(model)
        persist.save_model(tmp_path / "m.uirl", model)
        assert persist.base_digest(persist.load_model(tmp_path / "m.uirl")) == digest


class TestRouterPersistence:
    def test_router_round_trip(self, tmp_path):
        state = build_router(("a", "b"), seed=9, patch=(32, 32))
        persist.save_router(tmp_path / "r.uirl", state)
        back = persist.load_router(tmp_path / "r.uirl")
        assert back.labels == state.labels
        assert back.patch == state.patch
        assert back.bank.data.tobytes() == state.bank.data.tobytes()
        for key, t in state.params.items():
            assert back.params[key].data.tobytes() == t.data.tobytes()

    def test_label_order_mismatch_is_hard_error(self, rng):
        model = build_model(("a", "b"), seed=1)
        router = build_router(("b", "a"), seed=2)
        img = Tensor(rng.random((3, 32, 32), dtype=np.float32))
        with pytest.raises(ConfigError):
            restore_auto(model, router, img, 1)

    def test_model_file_is_not_a_router(self, tmp_path):
        model = build_model(("a",), seed=5)
        persist.save_model(tmp_path / "m.uirl", model)
        with pytest.raises(CheckpointError):
            persist.load_router(tmp_path / "m.uirl")

    def test_encoder_dims_are_the_built_ones(self):
        state = build_router(("a", "b"), seed=1)
        assert ENCODER_PARAM_DIMS == {k: t.dims for k, t in state.params.items()}

    @pytest.mark.parametrize("name,value", [
        ("router.patch", [32.0]),
        ("router.patch", [32.0, 32.0, 32.0]),
        ("router.patch", [0.0, 32.0]),
        ("router.patch", [32.5, 32.0]),
        ("router.conv0.weight", np.zeros((16, 3, 3, 3))),
        ("router.conv4.bias", np.zeros(32)),
        ("router.conv1.weight", np.zeros((16, 3, 5, 5))),
        ("router.conv3.bias", np.zeros(16)),
        ("router.bank", np.ones(2) / np.sqrt(2)),
        ("router.bank", np.eye(8, 2)),
        ("router.conv3.weight", None),
        ("router.conv1.bias", None),
        ("router.bank", None),
        ("router.patch", None),
    ], ids=["patch-one-value", "patch-three-values", "patch-zero", "patch-fraction",
            "extra-conv0", "extra-conv4", "conv1-kernel-5", "conv3-bias-width",
            "bank-1d", "bank-width-8", "no-conv3-weight", "no-conv1-bias", "no-bank", "no-patch"])
    def test_malformed_router_tensors_rejected(self, tmp_path, name, value):
        tensors = persist.router_tensors(build_router(("a", "b"), seed=9))
        if value is None:
            del tensors[name]
        else:
            tensors[name] = Tensor(np.asarray(value, np.float32))
        save_checkpoint(tmp_path / "r.uirl", CheckpointHeader(labels=("a", "b")), tensors)
        with pytest.raises(CheckpointError):
            persist.load_router(tmp_path / "r.uirl")
