"""Every file the package writes replaces its target atomically."""

import os

import numpy as np
import pytest

from lorex import cli
from lorex.checkpoint import CheckpointHeader, save_checkpoint
from lorex.degradations import DatasetManifest, TaskRecord, read_ppm, write_manifest, \
    write_ppm
from lorex.numerics import Tensor


def _writers(tmp_path):
    image = Tensor(np.full((3, 4, 5), 0.5, np.float32))
    pair = (tmp_path / "c.ppm", tmp_path / "d.ppm")
    return {
        "checkpoint": lambda p: save_checkpoint(p, CheckpointHeader(("a",)), {"w": image}),
        "ppm": lambda p: write_ppm(p, image),
        "manifest": lambda p: write_manifest(p, DatasetManifest([TaskRecord("a", [pair])])),
        "emit": lambda p: cli._emit(["a\tb", "1\t2"], str(p)),
    }


@pytest.mark.parametrize("kind", ["checkpoint", "ppm", "manifest", "emit"])
def test_failed_replace_keeps_the_previous_file(kind, tmp_path, monkeypatch, capsys):
    target = tmp_path / "out"
    target.write_bytes(b"previous contents")

    def refuse(src, dst):
        raise OSError("rename refused")
    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="rename refused"):
        _writers(tmp_path)[kind](target)
    assert target.read_bytes() == b"previous contents"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]


@pytest.mark.parametrize("kind", ["checkpoint", "ppm", "manifest", "emit"])
def test_write_replaces_the_previous_file(kind, tmp_path, capsys):
    target = tmp_path / "out"
    target.write_bytes(b"previous contents")
    _writers(tmp_path)[kind](target)
    assert target.read_bytes() != b"previous contents"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]
    if kind == "ppm":
        assert read_ppm(target).dims == (3, 4, 5)
