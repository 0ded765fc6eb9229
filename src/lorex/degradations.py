"""Deterministic synthetic data: clean images, degradations, and manifests.

Clean images are procedural (low-frequency gradients, smooth blobs, sharp
geometric shapes) so that both smoothing and sharpening corruptions leave
something learnable. Five degradation operators stand in for a real
multi-corruption corpus; each is non-expansive on [0,1] and fully
determined by its spec (parameters + 64-bit seed).

File formats owned here:
  - images: binary PPM (P6, maxval 255, RGB), quantized q = round(v*255)
  - manifests: text, header ``#uir-manifest v1 T=<T>`` then one
    ``label<TAB>clean<TAB>degraded`` record per line, paths relative to the
    manifest's directory
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

import numpy as np

from . import seeding
from .errors import ConfigError, DataError, ShapeError
from .fileio import _write_atomic
from .numerics import DTYPE, Tensor

KINDS = ("gaussian_noise", "gaussian_blur", "low_light", "block_quantize", "masking")

_PARAM_NAMES = {
    "gaussian_noise": ("sigma",),
    "gaussian_blur": ("sigma", "size"),
    "low_light": ("scale", "gamma"),
    "block_quantize": ("block", "levels"),
    "masking": ("fraction", "block"),
}


@dataclass(frozen=True)
class DegradationSpec:
    """One corruption: kind, kind-specific parameters, and an RNG seed."""

    kind: str
    params: Mapping[str, float] = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown degradation kind {self.kind!r}")
        object.__setattr__(self, "params", dict(self.params))
        unknown = set(self.params) - set(_PARAM_NAMES[self.kind])
        if unknown:
            raise ConfigError(f"unknown params for {self.kind}: {sorted(unknown)}")
        p = self.params
        if self.kind == "gaussian_noise":
            if p.get("sigma", 0.0) < 0:
                raise ConfigError("noise sigma must be >= 0")
        elif self.kind == "gaussian_blur":
            size = int(p.get("size", 1))
            if p.get("sigma", 0.0) < 0:
                raise ConfigError("blur sigma must be >= 0")
            if size < 1 or size % 2 == 0:
                raise ConfigError("blur size must be a positive odd integer")
        elif self.kind == "low_light":
            scl = p.get("scale", 1.0)
            if not 0 < scl <= 1:
                raise ConfigError("low_light scale must be in (0, 1]")
            if p.get("gamma", 1.0) < 1:
                raise ConfigError("low_light gamma must be >= 1")
        elif self.kind == "block_quantize":
            if int(p.get("block", 8)) < 1:
                raise ConfigError("block size must be >= 1")
            if int(p.get("levels", 4)) < 2:
                raise ConfigError("levels must be >= 2")
        elif self.kind == "masking":
            if not 0 <= p.get("fraction", 0.0) < 1:
                raise ConfigError("mask fraction must be in [0, 1)")
            if int(p.get("block", 8)) < 1:
                raise ConfigError("mask block size must be >= 1")

    def with_seed(self, seed: int) -> "DegradationSpec":
        return DegradationSpec(self.kind, self.params, seed)


# ---------------------------------------------------------------------------
# clean image generation


def gen_clean_image(seed: int, size: tuple[int, int] = (32, 32)) -> Tensor:
    """Procedural RGB image in [0,1]: gradient + smooth blobs + sharp shapes."""
    h, w = size
    if h < 16 or w < 16:
        raise ConfigError(f"image size must be at least 16x16, got {h}x{w}")
    rng = np.random.Generator(np.random.PCG64(seed))
    yy, xx = np.meshgrid(np.linspace(0, 1, h), np.linspace(0, 1, w), indexing="ij")
    img = np.empty((3, h, w), dtype=np.float64)

    for c in range(3):
        theta = rng.uniform(0, 2 * math.pi)
        amp = rng.uniform(0.15, 0.4)
        off = rng.uniform(0.35, 0.65)
        img[c] = off + amp * ((xx - 0.5) * math.cos(theta) + (yy - 0.5) * math.sin(theta)) * 2

    for _ in range(rng.integers(2, 5)):
        cy, cx = rng.uniform(0, 1, 2)
        radius = rng.uniform(0.08, 0.3)
        amps = rng.uniform(-0.35, 0.35, 3)
        bump = np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * radius ** 2))
        img += amps[:, None, None] * bump[None]

    # dense sharp structure: shape boundaries are what blur destroys and
    # block corruptions chop, so smoothing and sharpening are both learnable
    for _ in range(rng.integers(8, 14)):
        color = rng.uniform(0.05, 0.95, 3)
        if rng.random() < 0.5:
            y0 = rng.integers(0, h - 2)
            x0 = rng.integers(0, w - 2)
            y1 = min(h - 1, y0 + rng.integers(2, h // 2))
            x1 = min(w - 1, x0 + rng.integers(2, w // 2))
            img[:, y0:y1 + 1, x0:x1 + 1] = color[:, None, None]
        else:
            cy, cx = rng.uniform(0.05, 0.95, 2)
            radius = rng.uniform(0.04, 0.18)
            disc = ((yy - cy) ** 2 + (xx - cx) ** 2) <= radius ** 2
            img[:, disc] = color[:, None]

    return Tensor._wrap(np.clip(img, 0.0, 1.0).astype(DTYPE))


# ---------------------------------------------------------------------------
# degradation operators


def _gaussian_kernel1d(sigma: float, size: int) -> np.ndarray:
    if size == 1 or sigma == 0:
        return np.array([1.0], dtype=np.float64)
    half = size // 2
    x = np.arange(-half, half + 1, dtype=np.float64)
    k = np.exp(-0.5 * (x / sigma) ** 2)
    return k / k.sum()


def _blur_axis(img: np.ndarray, kernel: np.ndarray, axis: int) -> np.ndarray:
    half = len(kernel) // 2
    if half == 0:
        return img
    pad = [(0, 0)] * img.ndim
    pad[axis] = (half, half)
    padded = np.pad(img, pad, mode="reflect")
    out = np.zeros_like(img, dtype=np.float64)
    for i, kv in enumerate(kernel):
        sl = [slice(None)] * img.ndim
        sl[axis] = slice(i, i + img.shape[axis])
        out += kv * padded[tuple(sl)]
    return out


def apply_degradation(clean: Tensor, spec: DegradationSpec) -> Tensor:
    """Corrupt a (3,H,W) image per the spec; output clipped to [0,1]."""
    if clean.data.ndim != 3 or clean.dims[0] != 3:
        raise ShapeError(f"expected (3,H,W) image, got {clean.dims}")
    x = clean.data.astype(np.float64)
    p = spec.params
    rng = np.random.Generator(np.random.PCG64(spec.seed))

    if spec.kind == "gaussian_noise":
        sigma = p.get("sigma", 0.0)
        if sigma == 0:
            return clean.copy()
        out = x + rng.normal(0.0, sigma, size=x.shape)

    elif spec.kind == "gaussian_blur":
        sigma = p.get("sigma", 0.0)
        size = int(p.get("size", 1))
        kernel = _gaussian_kernel1d(sigma, size)
        if len(kernel) == 1:
            return clean.copy()
        out = _blur_axis(_blur_axis(x, kernel, 1), kernel, 2)

    elif spec.kind == "low_light":
        out = np.power(x, p.get("gamma", 1.0)) * p.get("scale", 1.0)

    elif spec.kind == "block_quantize":
        block = int(p.get("block", 8))
        levels = int(p.get("levels", 4))
        out = x.copy()
        _, h, w = x.shape
        for y0 in range(0, h, block):
            for x0 in range(0, w, block):
                tile = out[:, y0:y0 + block, x0:x0 + block]
                for c in range(3):
                    vmin, vmax = tile[c].min(), tile[c].max()
                    span = vmax - vmin
                    if span <= 0:
                        continue
                    q = np.round((tile[c] - vmin) / span * (levels - 1))
                    tile[c] = q / (levels - 1) * span + vmin

    elif spec.kind == "masking":
        fraction = p.get("fraction", 0.0)
        block = int(p.get("block", 8))
        out = x.copy()
        _, h, w = x.shape
        grid_h = math.ceil(h / block)
        grid_w = math.ceil(w / block)
        n_masked = int(round(fraction * grid_h * grid_w))
        if n_masked:
            chosen = rng.choice(grid_h * grid_w, size=n_masked, replace=False)
            for cell in np.sort(chosen):
                gy, gx = divmod(int(cell), grid_w)
                out[:, gy * block:(gy + 1) * block, gx * block:(gx + 1) * block] = 0.0
    else:  # pragma: no cover - guarded by DegradationSpec
        raise ConfigError(f"unknown kind {spec.kind!r}")

    return Tensor._wrap(np.clip(out, 0.0, 1.0).astype(DTYPE))


# ---------------------------------------------------------------------------
# PPM P6 image files


def write_ppm(path, image: Tensor) -> None:
    if image.data.ndim != 3 or image.dims[0] != 3:
        raise ShapeError(f"expected (3,H,W) image, got {image.dims}")
    _, h, w = image.dims
    q = np.clip(np.rint(image.data * 255.0), 0, 255).astype(np.uint8)
    payload = np.ascontiguousarray(q.transpose(1, 2, 0)).tobytes()
    _write_atomic(path, f"P6\n{w} {h}\n255\n".encode("ascii") + payload)


def _ppm_header(f, path) -> tuple[int, int]:
    # (w, h) from the header of a PPM file open at its start, leaving ``f``
    # at the first payload byte; DataError for any header read_ppm rejects
    if f.read(2) != b"P6":
        raise DataError(f"{path}: not a binary PPM (P6) file")
    fields: list[bytes] = []
    c = f.read(1)
    while len(fields) < 3:
        while c.isspace():
            c = f.read(1)
        if c == b"#":  # comment line
            while c and c != b"\n":
                c = f.read(1)
            continue
        field = b""
        while c and not c.isspace():
            field += c
            c = f.read(1)
        if not field:
            raise DataError(f"{path}: truncated PPM header")
        fields.append(field)
    # the single whitespace after maxval is read, as ``c``
    try:
        w, h, maxval = (int(v) for v in fields)
    except ValueError as exc:
        raise DataError(f"{path}: malformed PPM header") from exc
    if maxval != 255 or w < 1 or h < 1:
        raise DataError(f"{path}: unsupported PPM header (maxval {maxval}, {w}x{h})")
    return w, h


def read_ppm(path) -> Tensor:
    with open(path, "rb") as f:
        w, h = _ppm_header(f, path)
        payload = f.read()[:3 * h * w]
    if len(payload) != 3 * h * w:
        raise DataError(f"{path}: PPM payload truncated")
    q = np.frombuffer(payload, dtype=np.uint8).reshape(h, w, 3)
    return Tensor._wrap((q.transpose(2, 0, 1).astype(DTYPE)) / DTYPE(255))


def _check_ppm(path) -> None:
    """Raise the ``DataError`` that ``read_ppm`` would raise for ``path``,
    from the header and the file size alone, without reading the pixels."""
    with open(path, "rb") as f:
        w, h = _ppm_header(f, path)
        if os.fstat(f.fileno()).st_size < f.tell() + 3 * h * w:
            raise DataError(f"{path}: PPM payload truncated")


# ---------------------------------------------------------------------------
# manifests


MANIFEST_MAGIC = "#uir-manifest v1"


@dataclass
class TaskRecord:
    label: str
    pairs: list[tuple[Path, Path]]          # (clean, degraded)
    specs: tuple[DegradationSpec, ...] | None = None


@dataclass
class DatasetManifest:
    tasks: list[TaskRecord]

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(t.label for t in self.tasks)

    def task(self, label: str) -> TaskRecord:
        for t in self.tasks:
            if t.label == label:
                return t
        raise DataError(f"manifest has no task {label!r}")


def write_manifest(path, manifest: DatasetManifest) -> None:
    path = Path(path)
    base = path.parent
    lines = [f"{MANIFEST_MAGIC} T={len(manifest.tasks)}"]
    for task in manifest.tasks:
        for clean, degraded in task.pairs:
            rel_c = Path(clean).relative_to(base).as_posix()
            rel_d = Path(degraded).relative_to(base).as_posix()
            lines.append(f"{task.label}\t{rel_c}\t{rel_d}")
    _write_atomic(path, ("\n".join(lines) + "\n").encode("utf-8"))


def load_manifest(path, verify: bool = True) -> DatasetManifest:
    """The manifest at ``path``; with ``verify``, every listed image must
    exist and be a PPM that ``read_ppm`` accepts, which is checked from its
    header and size without decoding it."""
    path = Path(path)
    base = path.parent
    try:
        text = path.read_bytes().decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: manifest is not valid UTF-8 ({exc.reason})") from None
    if not text or not text[0].startswith(MANIFEST_MAGIC):
        raise DataError(f"{path}: missing manifest header")
    try:
        declared = int(text[0].split("T=")[1])
    except (IndexError, ValueError) as exc:
        raise DataError(f"{path}: malformed manifest header") from exc

    order: list[str] = []
    pairs: dict[str, list[tuple[Path, Path]]] = {}
    for ln, line in enumerate(text[1:], start=2):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise DataError(f"{path}:{ln}: expected 3 tab-separated fields")
        label, rel_c, rel_d = parts
        if label not in pairs:
            order.append(label)
            pairs[label] = []
        pairs[label].append((base / rel_c, base / rel_d))
    if len(order) != declared:
        raise DataError(f"{path}: header declares T={declared} but found {len(order)} tasks")
    if not order:
        raise DataError(f"{path}: manifest lists no tasks")

    manifest = DatasetManifest(tasks=[TaskRecord(lb, pairs[lb]) for lb in order])
    if verify:
        for task in manifest.tasks:
            for clean, degraded in task.pairs:
                for fp in (clean, degraded):
                    if not fp.exists():
                        raise DataError(f"{path}: missing file {fp}")
                    try:
                        _check_ppm(fp)
                    except OSError as exc:
                        raise DataError(f"{path}: cannot read {fp} ({exc.strerror})") from None
    return manifest


# ---------------------------------------------------------------------------
# dataset generation


@dataclass(frozen=True)
class TaskDef:
    label: str
    kind: str
    params: Mapping[str, float]


@dataclass(frozen=True)
class MixedDef:
    label: str
    components: tuple[tuple[str, Mapping[str, float]], ...]


DEFAULT_TASKS: tuple[TaskDef, ...] = (
    TaskDef("gaussian_noise", "gaussian_noise", {"sigma": 0.1}),
    TaskDef("gaussian_blur", "gaussian_blur", {"sigma": 0.6, "size": 3}),
    TaskDef("low_light", "low_light", {"scale": 0.35, "gamma": 1.6}),
    TaskDef("block_quantize", "block_quantize", {"block": 16, "levels": 2}),
    TaskDef("masking", "masking", {"fraction": 0.25, "block": 8}),
)

DEFAULT_MIXED: tuple[MixedDef, ...] = (
    MixedDef("gaussian_blur+low_light", (
        ("gaussian_blur", {"sigma": 0.8, "size": 5}),
        ("low_light", {"scale": 0.5, "gamma": 1.3}),
    )),
    MixedDef("gaussian_blur+block_quantize", (
        ("gaussian_blur", {"sigma": 0.8, "size": 5}),
        ("block_quantize", {"block": 16, "levels": 3}),
    )),
)


@dataclass(frozen=True)
class DatasetConfig:
    seed: int = 7
    train_per_task: int = 200
    test_per_task: int = 40
    mixed_pairs: int = 40
    patch: int = 32
    tasks: tuple[TaskDef, ...] = DEFAULT_TASKS
    mixed: tuple[MixedDef, ...] = DEFAULT_MIXED

    def __post_init__(self):
        labels = [t.label for t in self.tasks] + [m.label for m in self.mixed]
        if len(set(labels)) != len(labels):
            raise ConfigError("task labels must be unique")
        if self.train_per_task < 1 or self.test_per_task < 1:
            raise ConfigError("pair counts must be positive")


def _write_pair(out_dir: Path, label: str, index: int, clean: Tensor,
                degraded: Tensor) -> tuple[Path, Path]:
    task_dir = out_dir / label
    task_dir.mkdir(parents=True, exist_ok=True)
    clean_path = task_dir / f"p{index:04d}_clean.ppm"
    degraded_path = task_dir / f"p{index:04d}_degraded.ppm"
    write_ppm(clean_path, clean)
    write_ppm(degraded_path, degraded)
    return clean_path, degraded_path


def make_dataset(config: DatasetConfig, out_dir) -> dict[str, DatasetManifest]:
    """Generate the paired corpus and write train/test/mixed manifests.

    Clean pools are seed-disjoint across tasks and splits. Degraded images
    are saved after re-reading the quantized clean file, so every stored
    pair is exactly (degrade(clean_file), clean_file) up to output
    quantization. Mixed sets are test-only composites applied in the
    declared component order.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    size = (config.patch, config.patch)
    manifests: dict[str, DatasetManifest] = {}

    for split, count in (("train", config.train_per_task), ("test", config.test_per_task)):
        records = []
        for task in config.tasks:
            task_pairs = []
            spec_template = DegradationSpec(task.kind, task.params)
            for i in range(count):
                clean = gen_clean_image(
                    seeding.derive_seed(config.seed, "clean", split, task.label, i), size)
                spec = spec_template.with_seed(
                    seeding.derive_seed(config.seed, "degrade", split, task.label, i))
                paths = _write_pair(out_dir / split, task.label, i, clean,
                                    apply_degradation(_quantized(clean), spec))
                task_pairs.append(paths)
            records.append(TaskRecord(task.label, task_pairs, (spec_template,)))
        manifests[split] = DatasetManifest(records)
        write_manifest(out_dir / f"{split}.manifest", manifests[split])

    mixed_records = []
    for mix in config.mixed:
        task_pairs = []
        templates = tuple(DegradationSpec(kind, params) for kind, params in mix.components)
        for i in range(config.mixed_pairs):
            clean = gen_clean_image(
                seeding.derive_seed(config.seed, "clean", "mixed", mix.label, i), size)
            img = _quantized(clean)
            for ci, template in enumerate(templates):
                img = apply_degradation(img, template.with_seed(
                    seeding.derive_seed(config.seed, "degrade", "mixed", mix.label, i, ci)))
            task_pairs.append(_write_pair(out_dir / "mixed", mix.label, i, clean, img))
        mixed_records.append(TaskRecord(mix.label, task_pairs, templates))
    manifests["mixed"] = DatasetManifest(mixed_records)
    write_manifest(out_dir / "mixed.manifest", manifests["mixed"])
    return manifests


def _quantized(image: Tensor) -> Tensor:
    """Snap to the 8-bit grid the PPM files store."""
    q = np.clip(np.rint(image.data * 255.0), 0, 255).astype(DTYPE)
    return Tensor._wrap(q / DTYPE(255))
