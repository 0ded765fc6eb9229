"""Binary checkpoint format.

Layout (all integers little-endian u32, tensors float32 little-endian
row-major):

    magic         4 bytes  b"UIRL"
    version       u32
    task_count    u32
    labels        task_count x (u32 length + utf-8 bytes)
    layer_count   u32       adapted-layer set L
    layer_names   layer_count x (u32 length + utf-8 bytes)
    ranks         layer_count x u32 (aligned with layer_names)
    tensor_count  u32
    tensors       name (u32 length + utf-8) + ndim u32 + dims u32[ndim]
                  + payload f32[product(dims)]

Round-trips are bit-exact; loading rejects wrong magic or version, any
structural damage, text that is not UTF-8 and non-finite tensor values.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import CheckpointError
from .fileio import _write_atomic
from .numerics import DTYPE, Tensor

MAGIC = b"UIRL"
VERSION = 1


@dataclass(frozen=True)
class CheckpointHeader:
    labels: tuple[str, ...]
    layer_names: tuple[str, ...] = ()
    ranks: tuple[int, ...] = ()

    def __post_init__(self):
        if len(self.layer_names) != len(self.ranks):
            raise CheckpointError("layer_names and ranks must align")

    @property
    def task_count(self) -> int:
        return len(self.labels)


def _pack_str(s: str) -> bytes:
    raw = s.encode("utf-8")
    return struct.pack("<I", len(raw)) + raw


def save_checkpoint(path, header: CheckpointHeader, tensors: dict[str, Tensor]) -> None:
    parts = [MAGIC, struct.pack("<I", VERSION), struct.pack("<I", header.task_count)]
    for label in header.labels:
        parts.append(_pack_str(label))
    parts.append(struct.pack("<I", len(header.layer_names)))
    for name in header.layer_names:
        parts.append(_pack_str(name))
    for rank in header.ranks:
        parts.append(struct.pack("<I", rank))
    parts.append(struct.pack("<I", len(tensors)))
    for name in sorted(tensors):
        t = tensors[name]
        parts.append(_pack_str(name))
        parts.append(struct.pack("<I", t.data.ndim))
        parts.append(struct.pack(f"<{t.data.ndim}I", *t.dims))
        parts.append(np.ascontiguousarray(t.data, DTYPE).astype("<f4", copy=False).tobytes())
    _write_atomic(path, b"".join(parts))


class _Reader:
    def __init__(self, blob: bytes, path):
        self.blob = blob
        self.pos = 0
        self.path = path

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.blob):
            raise CheckpointError(f"{self.path}: truncated checkpoint")
        out = self.blob[self.pos:self.pos + n]
        self.pos += n
        return out

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def string(self) -> str:
        try:
            return self.take(self.u32()).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointError(
                f"{self.path}: text field is not valid UTF-8 ({exc.reason})") from None


def load_checkpoint(path) -> tuple[CheckpointHeader, dict[str, Tensor]]:
    r = _Reader(Path(path).read_bytes(), path)
    if r.take(4) != MAGIC:
        raise CheckpointError(f"{path}: bad magic, not a checkpoint")
    version = r.u32()
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported version {version}")
    labels = tuple(r.string() for _ in range(r.u32()))
    layer_names = tuple(r.string() for _ in range(r.u32()))
    ranks = tuple(r.u32() for _ in range(len(layer_names)))
    tensors: dict[str, Tensor] = {}
    for _ in range(r.u32()):
        name = r.string()
        ndim = r.u32()
        dims = struct.unpack(f"<{ndim}I", r.take(4 * ndim))
        if any(d < 1 for d in dims):
            raise CheckpointError(f"{path}: tensor {name!r} has a zero extent")
        count = int(np.prod(dims))
        payload = r.take(4 * count)
        if name in tensors:
            raise CheckpointError(f"{path}: duplicate tensor {name!r}")
        arr = np.frombuffer(payload, dtype="<f4").reshape(dims).astype(DTYPE, copy=True)
        if not np.isfinite(arr).all():
            raise CheckpointError(f"{path}: tensor {name!r} holds non-finite values")
        tensors[name] = Tensor._wrap(arr)
    if r.pos != len(r.blob):
        raise CheckpointError(f"{path}: {len(r.blob) - r.pos} trailing bytes")
    return CheckpointHeader(labels, layer_names, ranks), tensors
