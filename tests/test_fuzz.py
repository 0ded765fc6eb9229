"""Byte-level fuzzing of the three file readers: whatever the bytes, only a
``LorexError`` may escape ``read_ppm``, ``load_manifest`` and
``load_checkpoint``, and ``load_manifest`` rejects a listed image exactly
when ``read_ppm`` does, with the same error.

Each case starts from a valid file and applies up to four random edits.
Run with ``--hypothesis-profile=ci`` for a fixed, bounded set of examples.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lorex.checkpoint import CheckpointHeader, load_checkpoint, save_checkpoint
from lorex.degradations import DatasetManifest, TaskRecord, load_manifest, read_ppm, \
    write_manifest, write_ppm
from lorex.errors import LorexError
from lorex.numerics import Tensor

# bytes that mean something to one of the formats: separators, a NUL (not
# allowed in a path), a byte that is never UTF-8, path parts, digits
SPECIAL = (b"\t", b"\n", b" ", b"#", b"\x00", b"\xff", b"/", b"..", b"T=", b"9", b"-1",
           b"\xff\xff\xff\xff", b"\x00\x00\x00\x80")

_position = st.integers(min_value=0, max_value=1 << 16)
EDITS = st.lists(st.one_of(
    st.tuples(st.just("set"), _position, st.binary(min_size=1, max_size=1)),
    st.tuples(st.just("word"), _position,
              st.integers(0, 2**32 - 1).map(lambda v: v.to_bytes(4, "little"))),
    st.tuples(st.just("insert"), _position,
              st.one_of(st.binary(min_size=1, max_size=8), st.sampled_from(SPECIAL))),
    st.tuples(st.just("delete"), _position, st.integers(1, 8)),
    st.tuples(st.just("truncate"), _position, st.just(0)),
), min_size=1, max_size=4)

FUZZ = settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])


def mutate(blob: bytes, edits) -> bytes:
    data = bytearray(blob)
    for kind, pos, arg in edits:
        pos %= len(data) + 1
        if kind in ("set", "word"):
            data[pos:pos + len(arg)] = arg
        elif kind == "insert":
            data[pos:pos] = arg
        elif kind == "delete":
            del data[pos:pos + arg]
        else:
            del data[pos:]
    return bytes(data)


def reads_or_raises_lorex_error(read, path, blob):
    path.write_bytes(blob)
    try:
        read(path)
    except LorexError:
        pass


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A valid PPM, manifest and checkpoint, and a directory to mutate them in."""
    root = tmp_path_factory.mktemp("fuzz")
    rng = np.random.default_rng(5)
    pairs = []
    for i in range(2):
        paths = (root / f"c{i}.ppm", root / f"d{i}.ppm")
        for p in paths:
            write_ppm(p, Tensor(rng.random((3, 4, 5), dtype=np.float32)))
        pairs.append(paths)
    write_manifest(root / "ok.manifest",
                   DatasetManifest([TaskRecord("noise", pairs[:1]),
                                    TaskRecord("blur", pairs[1:])]))
    save_checkpoint(root / "ok.uirl", CheckpointHeader(("a", "b"), ("enc1",), (4,)),
                    {"w": Tensor(rng.standard_normal((2, 3)).astype(np.float32)),
                     "b": Tensor(np.ones(2, np.float32))})
    return {"root": root,
            "ppm": (root / "c0.ppm").read_bytes(),
            "manifest": (root / "ok.manifest").read_bytes(),
            "checkpoint": (root / "ok.uirl").read_bytes()}


def test_valid_files_read(files):
    root = files["root"]
    assert read_ppm(root / "c0.ppm").dims == (3, 4, 5)
    assert load_manifest(root / "ok.manifest").labels == ("noise", "blur")
    assert load_checkpoint(root / "ok.uirl")[0].labels == ("a", "b")


@FUZZ
@given(edits=EDITS)
def test_read_ppm_raises_only_lorex_errors(files, edits):
    reads_or_raises_lorex_error(read_ppm, files["root"] / "fuzz.ppm",
                                mutate(files["ppm"], edits))


@FUZZ
@given(edits=EDITS)
def test_load_manifest_raises_only_lorex_errors(files, edits):
    reads_or_raises_lorex_error(load_manifest, files["root"] / "fuzz.manifest",
                                mutate(files["manifest"], edits))


@FUZZ
@given(edits=EDITS)
def test_load_checkpoint_raises_only_lorex_errors(files, edits):
    reads_or_raises_lorex_error(load_checkpoint, files["root"] / "fuzz.uirl",
                                mutate(files["checkpoint"], edits))


def outcome(read, path):
    try:
        read(path)
    except LorexError as exc:
        return type(exc), str(exc)
    return None


@FUZZ
@given(edits=EDITS)
def test_load_manifest_rejects_exactly_the_images_read_ppm_rejects(files, edits):
    # verification reads only the header and the size, and must still
    # reject what decoding the image would
    root = files["root"]
    (root / "fuzz_image.ppm").write_bytes(mutate(files["ppm"], edits))
    manifest = root / "fuzz_image.manifest"
    manifest.write_text("#uir-manifest v1 T=1\nx\tfuzz_image.ppm\tfuzz_image.ppm\n")
    assert outcome(load_manifest, manifest) == outcome(read_ppm, root / "fuzz_image.ppm")
