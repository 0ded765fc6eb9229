"""End-to-end CLI behavior on a miniature pipeline."""

import hashlib
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from conftest import usable_cpus

import lorex
from lorex import cli, degradations, harness, persist
from lorex import router as router_module
from lorex.checkpoint import load_checkpoint, save_checkpoint
from lorex.cli import main
from lorex.degradations import gen_clean_image, load_manifest, read_ppm, write_ppm
from lorex.errors import NumericError
from lorex.harness import PRETRAIN, ROUTER, clean_training_images, load_task_data, \
    router_training_set
from lorex.numerics import Tensor
from lorex.restorer import AdapterTrainer, TrainConfig, build_model, pretrain_base
from lorex.router import build_router, predict_with_crop_correction, train_router


def tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file():
            h.update(path.relative_to(root).as_posix().encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def run(*argv) -> int:
    return main([str(a) for a in argv])


def run_in_subprocess(*argv, **env_vars) -> subprocess.CompletedProcess:
    """Run the CLI in a fresh interpreter, so an escaping exception shows as
    a traceback; ``env_vars`` are set in its environment."""
    env = dict(os.environ, PYTHONPATH=str(Path(lorex.__file__).parents[1]), **env_vars)
    return subprocess.run([sys.executable, "-m", "lorex.cli", *map(str, argv)],
                          capture_output=True, text=True, env=env, timeout=120)


def stat_fields(pid: int) -> list[str] | None:
    """The fields of ``/proc/<pid>/stat`` after the command name (state,
    then parent id, ...), or None if process ``pid`` is gone."""
    try:
        return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    except (FileNotFoundError, ProcessLookupError):
        return None


def running(pid: int) -> bool:
    fields = stat_fields(pid)
    return fields is not None and fields[0] not in ("Z", "X")


def children_of(pid: int) -> list[int]:
    """The ids of the running processes whose parent is ``pid``."""
    found = []
    for entry in Path("/proc").iterdir():
        fields = stat_fields(int(entry.name)) if entry.name.isdigit() else None
        if fields is not None and fields[0] not in ("Z", "X") and int(fields[1]) == pid:
            found.append(int(entry.name))
    return found


def assert_one_error_line(stderr: str) -> None:
    lines = stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), stderr
    assert "Traceback" not in stderr


@pytest.fixture(scope="module")
def mini(tmp_path_factory):
    """Tiny dataset + untrained-but-saved checkpoints for CLI plumbing tests."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    assert run("gen-data", "--out", data, "--seed", "3",
               "--train-per-task", "4", "--test-per-task", "2",
               "--mixed-pairs", "2") == 0
    base = root / "base.uirl"
    assert run("pretrain-base", "--data", data / "train.manifest", "--out", base,
               "--seed", "3", "--iterations", "4") == 0
    router = root / "router.uirl"
    assert run("train-router", "--data", data / "train.manifest", "--out", router,
               "--seed", "3", "--iterations", "4") == 0
    return {"root": root, "data": data, "base": base, "router": router}


class TestGenData:
    def test_deterministic_trees(self, tmp_path):
        for sub in ("a", "b"):
            assert run("gen-data", "--out", tmp_path / sub, "--seed", "7",
                       "--train-per-task", "3", "--test-per-task", "2",
                       "--mixed-pairs", "2") == 0
        assert tree_digest(tmp_path / "a") == tree_digest(tmp_path / "b")

    def test_config_file_and_flag_precedence(self, tmp_path):
        cfg = tmp_path / "lorex.ini"
        cfg.write_text("[data]\ntrain_per_task = 3\ntest_per_task = 2\nmixed_pairs = 2\n")
        out1 = tmp_path / "from_config"
        assert run("gen-data", "--out", out1, "--seed", "1", "--config", cfg) == 0
        lines = (out1 / "train.manifest").read_text().splitlines()
        assert len(lines) == 1 + 5 * 3  # header + 5 tasks x 3 pairs

        out2 = tmp_path / "flag_wins"
        assert run("gen-data", "--out", out2, "--seed", "1", "--config", cfg,
                   "--train-per-task", "4") == 0
        lines = (out2 / "train.manifest").read_text().splitlines()
        assert len(lines) == 1 + 5 * 4


class TestExitCodes:
    def test_usage_error_is_2(self):
        with pytest.raises(SystemExit) as exc:
            run("gen-data", "--no-such-flag")
        assert exc.value.code == 2

    def test_unknown_subcommand_is_2(self):
        with pytest.raises(SystemExit) as exc:
            run("frobnicate")
        assert exc.value.code == 2

    def test_missing_checkpoint_is_1(self, tmp_path, capsys):
        img = tmp_path / "x.ppm"
        write_ppm(img, Tensor(np.zeros((3, 32, 32), np.float32)))
        code = run("restore", "--ckpt", tmp_path / "missing.uirl",
                   "--input", img, "--output", tmp_path / "y.ppm", "--s", "1,0")
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_non_utf8_checkpoint_label_is_1_without_traceback(self, tmp_path):
        ckpt = tmp_path / "m.uirl"
        persist.save_model(ckpt, build_model(("noise", "blur"), seed=1))
        blob = bytearray(ckpt.read_bytes())
        blob[blob.find(b"noise")] = 0xFF
        ckpt.write_bytes(bytes(blob))
        img = tmp_path / "x.ppm"
        write_ppm(img, Tensor(np.zeros((3, 32, 32), np.float32)))
        proc = run_in_subprocess("restore", "--ckpt", ckpt, "--input", img,
                                 "--output", tmp_path / "y.ppm", "--s", "1,0")
        assert proc.returncode == 1
        assert_one_error_line(proc.stderr)

    @pytest.mark.parametrize("name,value", [
        ("router.patch", [32.0]),
        ("router.conv0.weight", np.zeros((16, 3, 3, 3))),
    ], ids=["patch-one-value", "extra-conv0"])
    def test_malformed_router_is_1_without_traceback(self, mini, tmp_path, name, value):
        header, tensors = load_checkpoint(mini["router"])
        tensors[name] = Tensor(np.asarray(value, np.float32))
        router = tmp_path / "r.uirl"
        save_checkpoint(router, header, tensors)
        img_path = next((mini["data"] / "test").rglob("*_degraded.ppm"))
        proc = run_in_subprocess("restore", "--ckpt", mini["base"], "--input", img_path,
                                 "--output", tmp_path / "y.ppm", "--auto",
                                 "--router", router)
        assert proc.returncode == 1
        assert_one_error_line(proc.stderr)

    def test_unknown_header_layer_is_1_without_traceback(self, tmp_path):
        model = build_model(("noise", "blur"), seed=1)
        header, tensors = persist.model_header(model), persist.model_tensors(model)
        names = tuple("foo" if name == "head" else name for name in header.layer_names)
        ckpt = tmp_path / "m.uirl"
        save_checkpoint(ckpt, replace(header, layer_names=names), tensors)
        img = tmp_path / "x.ppm"
        write_ppm(img, Tensor(np.zeros((3, 32, 32), np.float32)))
        proc = run_in_subprocess("restore", "--ckpt", ckpt, "--input", img,
                                 "--output", tmp_path / "y.ppm", "--s", "1,0")
        assert proc.returncode == 1
        assert_one_error_line(proc.stderr)
        assert "foo" in proc.stderr

    @pytest.mark.parametrize("corrupt", [
        lambda blob: blob[:-7],
        lambda blob: blob.replace(b"255", b"256", 1),
        lambda blob: b"P3" + blob[2:],
    ], ids=["truncated-payload", "maxval-256", "ascii-magic"])
    def test_corrupted_ppm_is_1_without_traceback(self, mini, tmp_path, corrupt):
        img_path = next((mini["data"] / "test").rglob("*_degraded.ppm"))
        bad = tmp_path / "bad.ppm"
        bad.write_bytes(corrupt(img_path.read_bytes()))
        proc = run_in_subprocess("restore", "--ckpt", mini["base"], "--input", bad,
                                 "--output", tmp_path / "y.ppm", "--s", "1,0,0,0,0")
        assert proc.returncode == 1
        assert_one_error_line(proc.stderr)

    @pytest.mark.parametrize("corrupt", [
        lambda text: text.replace(b"\t", b"\t\xff", 1),
        lambda text: text.replace(b"T=", b"T=x", 1),
        lambda text: text.replace(b"\t", b" ", 1),
        lambda text: text.replace(b"/p0000_clean.ppm", b"", 1),
        lambda text: text.split(b"T=")[0] + b"T=0\n",
    ], ids=["not-utf8", "bad-task-count", "two-fields", "directory-path", "no-tasks"])
    def test_corrupted_manifest_is_1_without_traceback(self, mini, tmp_path, corrupt):
        manifest = mini["data"] / "test.manifest"
        bad = mini["data"] / f"bad_{tmp_path.name}.manifest"
        bad.write_bytes(corrupt(manifest.read_bytes()))
        try:
            proc = run_in_subprocess("eval", "--data", bad, "--ckpt", mini["base"],
                                     "--strategy", "oracle")
        finally:
            bad.unlink()
        assert proc.returncode == 1
        assert_one_error_line(proc.stderr)

    def test_train_router_on_a_manifest_with_no_tasks_is_1(self, mini, tmp_path):
        bad = tmp_path / "empty.manifest"
        bad.write_bytes((mini["data"] / "train.manifest").read_bytes().split(b"T=")[0]
                        + b"T=0\n")
        proc = run_in_subprocess("train-router", "--data", bad, "--out", tmp_path / "r.uirl",
                                 "--iterations", "1")
        assert proc.returncode == 1
        assert_one_error_line(proc.stderr)
        assert "lists no tasks" in proc.stderr
        assert not (tmp_path / "r.uirl").exists()

    def test_failure_in_an_evaluation_worker_is_1(self, mini, tmp_path, capsys):
        # a pair of two sizes passes the manifest check and fails only when
        # evaluated; with two workers, the second task is the forked worker's
        shutil.copytree(mini["data"] / "test", tmp_path / "test")
        manifest = tmp_path / "test.manifest"
        shutil.copy(mini["data"] / "test.manifest", manifest)
        clean_path, degraded_path = load_manifest(manifest).tasks[1].pairs[0]
        write_ppm(clean_path, gen_clean_image(0, (32, 40)))
        out = tmp_path / "ablate.tsv"
        with usable_cpus(2):
            assert run("ablate-routing", "--data", manifest, "--ckpt", mini["base"],
                       "--router", mini["router"], "--strategies", "average,top1",
                       "--out", out) == 1
        err = capsys.readouterr().err
        assert_one_error_line(err)
        assert str(degraded_path) in err
        assert not out.exists()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_failure_in_a_training_worker_is_1(self, mini, tmp_path, capsys):
        # a clean image of another size passes the manifest check and fails
        # only when its task is loaded; with two workers, task 1 is the
        # forked worker's
        shutil.copytree(mini["data"] / "train", tmp_path / "train")
        manifest = tmp_path / "train.manifest"
        shutil.copy(mini["data"] / "train.manifest", manifest)
        clean_path = load_manifest(manifest).tasks[1].pairs[0][0]
        write_ppm(clean_path, gen_clean_image(0, (32, 40)))
        out = tmp_path / "experts.uirl"
        with usable_cpus(2):
            assert run("train-lora", "--task", "all", "--data", manifest,
                       "--ckpt", mini["base"], "--out", out, "--iterations", "1") == 1
        err = capsys.readouterr().err
        assert_one_error_line(err)
        assert str(clean_path) in err
        assert not out.exists()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_failure_in_a_router_replica_is_1(self, mini, tmp_path, capsys, monkeypatch):
        parent = os.getpid()
        encode = router_module._encode_batch

        def encode_or_fail(*args):
            if os.getpid() != parent:
                raise NumericError("the replica's shard failed")
            return encode(*args)

        monkeypatch.setattr(router_module, "_encode_batch", encode_or_fail)
        out = tmp_path / "router.uirl"
        with usable_cpus(2):
            assert run("train-router", "--data", mini["data"] / "train.manifest",
                       "--out", out, "--iterations", "2") == 1
        err = capsys.readouterr().err
        assert_one_error_line(err)
        assert "replica's shard failed" in err
        assert not out.exists()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_invalid_weights_is_1(self, mini, tmp_path, capsys):
        img = tmp_path / "x.ppm"
        write_ppm(img, Tensor(np.zeros((3, 32, 32), np.float32)))
        code = run("restore", "--ckpt", mini["base"], "--input", img,
                   "--output", tmp_path / "y.ppm", "--s", "1,0")
        assert code == 1  # 2 weights for 5 tasks

    def test_bad_config_file_is_1(self, tmp_path):
        assert run("gen-data", "--out", tmp_path / "x",
                   "--config", tmp_path / "none.ini") == 1

    @pytest.mark.parametrize("text", [
        "[data]\ntrain_per_task = abc\n",
        "[data]\nseed = 1.5\n",
        "train_per_task = 3\n",
    ], ids=["not-a-number", "float-for-int", "no-section-header"])
    def test_malformed_config_file_is_1(self, tmp_path, capsys, text):
        cfg = tmp_path / "lorex.ini"
        cfg.write_text(text)
        assert run("gen-data", "--out", tmp_path / "x", "--config", cfg) == 1
        assert_one_error_line(capsys.readouterr().err)

    def test_unparseable_rank_list_is_1(self, mini, tmp_path, capsys):
        assert run("sweep-rank", "--data", mini["data"] / "train.manifest",
                   "--ckpt", mini["base"], "--ranks", "2,x", "--iterations", "1",
                   "--out", tmp_path / "sweep.tsv") == 1
        assert_one_error_line(capsys.readouterr().err)

    def test_non_positive_rank_is_1(self, mini, tmp_path, capsys):
        # rank 0 used to train rank-1 adapters in a row labelled 0
        assert run("sweep-rank", "--data", mini["data"] / "train.manifest",
                   "--ckpt", mini["base"], "--ranks", "2,0,-3", "--iterations", "1",
                   "--out", tmp_path / "sweep.tsv") == 1
        assert_one_error_line(capsys.readouterr().err)
        assert not (tmp_path / "sweep.tsv").exists()

    def test_restore_k_zero_is_1(self, mini, tmp_path):
        # K=0 used to route silently with K=1
        img_path = next((mini["data"] / "test").rglob("*_degraded.ppm"))
        proc = run_in_subprocess("restore", "--ckpt", mini["base"], "--input", img_path,
                                 "--output", tmp_path / "y.ppm", "--auto",
                                 "--router", mini["router"], "-K", "0")
        assert proc.returncode == 1
        assert_one_error_line(proc.stderr)
        assert not (tmp_path / "y.ppm").exists()

    @pytest.mark.parametrize("argv", [
        ["--s", "0,1,0,0,0", "-K", "2"],
        ["--s", "0,1,0,0,0", "--router", "ROUTER"],
        ["--auto", "--router", "ROUTER", "--s", "0,1,0,0,0"],
    ], ids=["k-without-auto", "router-without-auto", "s-with-auto"])
    def test_restore_flag_without_effect_is_1(self, mini, tmp_path, capsys, argv):
        img = next((mini["data"] / "test").rglob("*_degraded.ppm"))
        argv = [mini["router"] if arg == "ROUTER" else arg for arg in argv]
        assert run("restore", "--ckpt", mini["base"], "--input", img,
                   "--output", tmp_path / "y.ppm", *argv) == 1
        assert_one_error_line(capsys.readouterr().err)
        assert not (tmp_path / "y.ppm").exists()

    def test_empty_strategy_list_is_1(self, mini, tmp_path, capsys):
        assert run("ablate-routing", "--data", mini["data"] / "test.manifest",
                   "--ckpt", mini["base"], "--router", mini["router"],
                   "--strategies", ",", "--out", tmp_path / "ablate.tsv") == 1
        assert_one_error_line(capsys.readouterr().err)
        assert not (tmp_path / "ablate.tsv").exists()


    @pytest.mark.parametrize("split,argv", [
        ("test", ["ablate-routing", "--strategies", "top1,bogus"]),
        ("test", ["ablate-routing", "--strategies", "top1,average,top1"]),
        ("test", ["ablate-routing", "--strategies", "average,manual"]),
        ("test", ["ablate-routing", "--strategies", "top1,topk", "-K", "0"]),
        ("test", ["ablate-routing", "--strategies", "top1,topk", "-K", "6"]),
        ("test", ["eval", "--strategy", "manual"]),
        ("test", ["eval", "--strategy", "topk", "-K", "6"]),
        ("test", ["eval", "--s", "0,1,0,0,0"]),
        ("test", ["eval", "--strategy", "oracle", "--s", "0,1,0,0,0"]),
        ("mixed", ["ablate-routing", "--strategies", "top1,oracle"]),
        ("mixed", ["eval", "--strategy", "oracle"]),
    ], ids=["unknown", "repeated", "manual-without-vector", "topk-k-0", "topk-k-past-t",
            "eval-manual-without-vector", "eval-topk-k-past-t", "eval-vector-without-manual",
            "eval-vector-with-oracle", "oracle-unknown-label", "eval-oracle-unknown-label"])
    def test_bad_strategy_is_1_before_any_image_is_evaluated(self, mini, tmp_path, capsys,
                                                             monkeypatch, split, argv):
        def no_read(path):
            raise AssertionError(f"read {path}")

        # evaluation reads through harness; only the oracle check needs the
        # manifest, whose loading verifies every file through degradations
        monkeypatch.setattr(harness, "read_ppm", no_read)
        if split == "test":
            monkeypatch.setattr(degradations, "read_ppm", no_read)
        out = tmp_path / "report.tsv"
        assert run(*argv, "--data", mini["data"] / f"{split}.manifest", "--ckpt", mini["base"],
                   "--router", mini["router"], "--out", out) == 1
        assert_one_error_line(capsys.readouterr().err)
        assert not out.exists()


class TestRestoreCommand:
    def test_manual_weights(self, mini, tmp_path):
        img_path = next((mini["data"] / "test").rglob("*_degraded.ppm"))
        out = tmp_path / "restored.ppm"
        assert run("restore", "--ckpt", mini["base"], "--input", img_path,
                   "--output", out, "--s", "0,1,0,0,0") == 0
        assert read_ppm(out).dims == (3, 32, 32)

    def test_auto_requires_router(self, mini, tmp_path):
        img_path = next((mini["data"] / "test").rglob("*_degraded.ppm"))
        assert run("restore", "--ckpt", mini["base"], "--input", img_path,
                   "--output", tmp_path / "y.ppm", "--auto") == 1

    @pytest.mark.parametrize("size", [(16, 16), (16, 48)], ids=["16x16", "16x48"])
    def test_auto_routes_an_image_smaller_than_the_router_patch(self, mini, tmp_path,
                                                                 capsys, size):
        img = tmp_path / "small.ppm"
        write_ppm(img, gen_clean_image(3, size))
        assert run("restore", "--ckpt", mini["base"], "--input", img, "--output",
                   tmp_path / "y.ppm", "--auto", "--router", mini["router"], "-K", "2") == 0
        assert "routed weights" in capsys.readouterr().out
        assert read_ppm(tmp_path / "y.ppm").dims == (3, *size)

    def test_auto_default_k_is_1(self, mini, tmp_path, capsys):
        img_path = next((mini["data"] / "test").rglob("*_degraded.ppm"))
        assert run("restore", "--ckpt", mini["base"], "--input", img_path,
                   "--output", tmp_path / "y.ppm", "--auto", "--router", mini["router"]) == 0
        assert "(K=1)" in capsys.readouterr().out

    def test_auto_matches_manual_one_hot_when_top1_agrees(self, mini, tmp_path):
        # whatever expert the router picks at K=1, the manual one-hot
        # restore must agree bit-exactly
        img_path = next((mini["data"] / "test").rglob("*_degraded.ppm"))
        router = persist.load_router(mini["router"])
        routed = predict_with_crop_correction(router, read_ppm(img_path), 1)
        k = int(np.argmax(routed.s))
        weights = ",".join("1" if i == k else "0" for i in range(5))

        auto_out = tmp_path / "auto.ppm"
        manual_out = tmp_path / "manual.ppm"
        assert run("restore", "--ckpt", mini["base"], "--input", img_path,
                   "--output", auto_out, "--auto", "--router", mini["router"],
                   "-K", "1") == 0
        assert run("restore", "--ckpt", mini["base"], "--input", img_path,
                   "--output", manual_out, "--s", weights) == 0
        assert auto_out.read_bytes() == manual_out.read_bytes()


class TestTrainCommands:
    def test_train_lora_preserves_base(self, mini, tmp_path):
        out = tmp_path / "noise.uirl"
        assert run("train-lora", "--task", "gaussian_noise",
                   "--data", mini["data"] / "train.manifest",
                   "--ckpt", mini["base"], "--out", out,
                   "--iterations", "4", "--seed", "3") == 0
        before = persist.load_model(mini["base"])
        after = persist.load_model(out)
        assert persist.base_digest(before) == persist.base_digest(after)
        assert persist.adapter_digest(before, 0) != persist.adapter_digest(after, 0)
        assert persist.adapter_digest(before, 1) == persist.adapter_digest(after, 1)

    def test_train_lora_unknown_task_is_1(self, mini, tmp_path):
        assert run("train-lora", "--task", "nope",
                   "--data", mini["data"] / "train.manifest",
                   "--ckpt", mini["base"], "--out", tmp_path / "x.uirl",
                   "--iterations", "1") == 1

    def test_train_lora_of_one_task_forks_nothing(self, mini, tmp_path, monkeypatch):
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked a worker"))
        with usable_cpus(2):
            assert run("train-lora", "--task", "gaussian_blur",
                       "--data", mini["data"] / "train.manifest", "--ckpt", mini["base"],
                       "--out", tmp_path / "blur.uirl", "--iterations", "1") == 0

    def test_pretrain_rerun_bit_identical(self, mini, tmp_path):
        outs = []
        for sub in ("p1.uirl", "p2.uirl"):
            out = tmp_path / sub
            assert run("pretrain-base", "--data", mini["data"] / "train.manifest",
                       "--out", out, "--seed", "3", "--iterations", "4") == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        assert outs[0] == mini["base"].read_bytes()

    def test_router_rerun_bit_identical(self, mini, tmp_path):
        out = tmp_path / "r2.uirl"
        assert run("train-router", "--data", mini["data"] / "train.manifest",
                   "--out", out, "--seed", "3", "--iterations", "4") == 0
        assert out.read_bytes() == mini["router"].read_bytes()

    def test_train_router_is_byte_identical_for_any_cpu_or_blas_thread_count(self, mini,
                                                                              tmp_path):
        # mini["router"] is the same command, run in this process with every
        # usable CPU; batch 16 splits into two shards of 8
        args = ("train-router", "--data", mini["data"] / "train.manifest",
                "--seed", "3", "--iterations", "4")
        for cpus in (1, 2):
            out = tmp_path / f"router_{cpus}cpu.uirl"
            with usable_cpus(cpus):
                assert run(*args, "--out", out) == 0
            assert out.read_bytes() == mini["router"].read_bytes(), cpus
        for threads in ("1", "2"):
            out = tmp_path / f"router_{threads}blas.uirl"
            proc = run_in_subprocess(*args, "--out", out, OPENBLAS_NUM_THREADS=threads)
            assert proc.returncode == 0, proc.stderr
            assert out.read_bytes() == mini["router"].read_bytes(), threads


    def test_pretrain_base_is_byte_identical_for_any_cpu_or_blas_thread_count(self, mini,
                                                                               tmp_path):
        # mini["base"] is the same command, run in this process with every
        # usable CPU; batch 8 splits into two shards of 4
        args = ("pretrain-base", "--data", mini["data"] / "train.manifest",
                "--seed", "3", "--iterations", "4")
        for cpus in (1, 2):
            out = tmp_path / f"base_{cpus}cpu.uirl"
            with usable_cpus(cpus):
                assert run(*args, "--out", out) == 0
            assert out.read_bytes() == mini["base"].read_bytes(), cpus
        for threads in ("1", "2"):
            out = tmp_path / f"base_{threads}blas.uirl"
            proc = run_in_subprocess(*args, "--out", out, OPENBLAS_NUM_THREADS=threads)
            assert proc.returncode == 0, proc.stderr
            assert out.read_bytes() == mini["base"].read_bytes(), threads

    def test_no_training_worker_outlives_a_sigterm(self, mini, tmp_path):
        # SIGTERM (from timeout, a scheduler or a closed terminal) kills the
        # command at once, without running any of its cleanup
        env = dict(os.environ, PYTHONPATH=str(Path(lorex.__file__).parents[1]),
                   OPENBLAS_NUM_THREADS="1")
        argv = [sys.executable, "-m", "lorex.cli", "train-lora", "--task", "all",
                "--data", mini["data"] / "train.manifest", "--ckpt", mini["base"],
                "--out", tmp_path / "all.uirl", "--iterations", "100000"]
        with usable_cpus(2):
            proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL,
                                    stderr=subprocess.DEVNULL)
        worker = None
        try:
            deadline = time.monotonic() + 60
            while not (found := children_of(proc.pid)) and time.monotonic() < deadline:
                assert proc.poll() is None, proc.returncode
                time.sleep(0.02)
            assert found, "no expert worker was forked"
            worker = found[0]
            proc.send_signal(signal.SIGTERM)
            proc.wait(timeout=30)
            deadline = time.monotonic() + 1
            while running(worker) and time.monotonic() < deadline:
                time.sleep(0.02)
            assert not running(worker)
        finally:
            proc.kill()
            proc.wait()
            if worker is not None and running(worker):
                os.kill(worker, signal.SIGKILL)

class TestEvalCommands:
    def test_eval_oracle_lines(self, mini, tmp_path, capsys):
        report = tmp_path / "report.tsv"
        assert run("eval", "--data", mini["data"] / "test.manifest",
                   "--ckpt", mini["base"], "--strategy", "oracle",
                   "--out", report) == 0
        lines = report.read_text().splitlines()
        # 5 tasks x 3 metrics (psnr, ssim, psnr_degraded)
        assert len(lines) == 15
        for line in lines:
            task, metric, mean, std = line.split("\t")
            float(mean), float(std)
        assert "task" in capsys.readouterr().out

    def test_eval_deterministic_report(self, mini, tmp_path):
        reports = []
        for sub in ("r1.tsv", "r2.tsv"):
            path = tmp_path / sub
            assert run("eval", "--data", mini["data"] / "test.manifest",
                       "--ckpt", mini["base"], "--router", mini["router"],
                       "--strategy", "top2", "--out", path) == 0
            reports.append(path.read_bytes())
        assert reports[0] == reports[1]

    def test_ablate_routing_lines(self, mini, tmp_path):
        report = tmp_path / "ablate.tsv"
        assert run("ablate-routing", "--data", mini["data"] / "test.manifest",
                   "--ckpt", mini["base"], "--router", mini["router"],
                   "--strategies", "random,average,top1", "--seed", "3",
                   "--out", report) == 0
        lines = report.read_text().splitlines()
        per_strategy = 5 * 2 + 1  # 5 tasks x (psnr, ssim) + aggregate
        assert len(lines) == 3 * per_strategy
        assert any(line.startswith("top1/ALL\tpsnr") for line in lines)

    def test_ablate_routing_report_does_not_depend_on_the_usable_cpu_count(self, mini,
                                                                            tmp_path):
        reports = []
        for cpus in (1, 2):
            report = tmp_path / f"ablate_{cpus}.tsv"
            with usable_cpus(cpus):
                assert run("ablate-routing", "--data", mini["data"] / "test.manifest",
                           "--ckpt", mini["base"], "--router", mini["router"],
                           "--strategies", "random,average,top1,top2,all", "--seed", "3",
                           "--out", report) == 0
            reports.append(report.read_bytes())
        assert reports[0] == reports[1]

    def test_eval_of_mixed_image_sizes_does_not_depend_on_the_usable_cpu_count(self, mini,
                                                                             tmp_path):
        # tasks that mix 64x64 and 16x16 pairs: a 64x64 pair fills a chunk
        # alone, up to sixteen 16x16 pairs fill one
        rng = np.random.default_rng(5)
        tasks = []
        for label, sizes in (("gaussian_noise", [64] + [16] * 5 + [64] * 2),
                             ("low_light", [16] * 3 + [64] + [16] * 17)):
            pairs = []
            for i, size in enumerate(sizes):
                clean = gen_clean_image(len(tasks) * 100 + i, (size, size))
                degraded = Tensor(np.clip(clean.data + rng.normal(0, 0.1, clean.dims), 0, 1))
                paths = (tmp_path / f"{label}{i}c.ppm", tmp_path / f"{label}{i}d.ppm")
                write_ppm(paths[0], clean)
                write_ppm(paths[1], degraded)
                pairs.append(paths)
            tasks.append(degradations.TaskRecord(label, pairs))
        degradations.write_manifest(tmp_path / "mixed.manifest",
                                    degradations.DatasetManifest(tasks))
        reports = []
        for cpus in (1, 2):
            report = tmp_path / f"eval_{cpus}.tsv"
            with usable_cpus(cpus):
                assert run("eval", "--data", tmp_path / "mixed.manifest",
                           "--ckpt", mini["base"], "--router", mini["router"],
                           "--strategy", "top2", "--out", report) == 0
            reports.append(report.read_bytes())
        assert reports[0] == reports[1]
        assert len(reports[0].decode().splitlines()) == 6

    def test_sweep_rank_reports_params_and_loss(self, mini, tmp_path):
        report = tmp_path / "sweep.tsv"
        assert run("sweep-rank", "--data", mini["data"] / "train.manifest",
                   "--ckpt", mini["base"], "--task", "gaussian_noise",
                   "--ranks", "2,4", "--iterations", "3", "--seed", "3",
                   "--out", report) == 0
        rows = [line.split("\t") for line in report.read_text().splitlines()
                if not line.startswith("#")]
        assert [int(r[0]) for r in rows] == [2, 4]
        params = [int(r[1]) for r in rows]
        assert params[0] < params[1]
        for row in rows:
            float(row[2])


class TestStageDefaults:
    """Each training command with only --iterations and --seed set trains
    exactly what the library's stage default does; a config file key beats
    that default, and a flag beats the config file."""

    @staticmethod
    def saved(tmp_path, save, obj) -> bytes:
        path = tmp_path / "library.uirl"
        save(path, obj)
        return path.read_bytes()

    def library_experts(self, mini, tmp_path, config, labels) -> bytes:
        manifest = load_manifest(mini["data"] / "train.manifest")
        model = persist.load_model(mini["base"])
        for label in labels:
            task = load_task_data(manifest, label)
            AdapterTrainer(model, model.labels.index(label), task, config).run()
        return self.saved(tmp_path, persist.save_model, model)

    def library_router(self, mini, tmp_path, config) -> bytes:
        manifest = load_manifest(mini["data"] / "train.manifest")
        state = build_router(manifest.labels, seed=config.seed)
        train_router(state, router_training_set(manifest), config)
        return self.saved(tmp_path, persist.save_router, state)

    def test_pretrain_base_default_is_library_pretrain(self, mini, tmp_path):
        # mini["base"] is `pretrain-base --seed 3 --iterations 4`
        manifest = load_manifest(mini["data"] / "train.manifest")
        model = build_model(manifest.labels, seed=3)
        pretrain_base(model, clean_training_images(manifest),
                      replace(PRETRAIN, iterations=4, seed=3))
        assert mini["base"].read_bytes() == self.saved(tmp_path, persist.save_model, model)

    def test_train_lora_default_is_library_expert_stage(self, mini, tmp_path):
        # the library reference trains the experts one after another; the
        # command trains them in one process, then with a forked worker
        # training tasks 1 and 3
        expected = self.library_experts(mini, tmp_path,
                                        replace(TrainConfig(), iterations=2, seed=3),
                                        persist.load_model(mini["base"]).labels)
        for cpus in (1, 2):
            out = tmp_path / f"experts_{cpus}.uirl"
            with usable_cpus(cpus):
                assert run("train-lora", "--task", "all",
                           "--data", mini["data"] / "train.manifest", "--ckpt", mini["base"],
                           "--out", out, "--iterations", "2", "--seed", "3") == 0
            assert out.read_bytes() == expected, cpus

    def test_train_router_default_is_library_router(self, mini, tmp_path):
        # mini["router"] is `train-router --seed 3 --iterations 4`
        expected = self.library_router(mini, tmp_path, replace(ROUTER, iterations=4, seed=3))
        assert mini["router"].read_bytes() == expected

    def test_train_section_then_flags(self, mini, tmp_path):
        cfg = tmp_path / "lorex.ini"
        cfg.write_text("[train]\nlearning_rate = 5e-3\nlora_iterations = 2\n")
        expert = TrainConfig(seed=3)
        for flags, config in [
            ((), replace(expert, learning_rate=5e-3, iterations=2)),
            (("--lr", "2e-2", "--iterations", "3"),
             replace(expert, learning_rate=2e-2, iterations=3)),
        ]:
            out = tmp_path / "expert.uirl"
            assert run("train-lora", "--task", "gaussian_blur",
                       "--data", mini["data"] / "train.manifest", "--ckpt", mini["base"],
                       "--out", out, "--seed", "3", "--config", cfg, *flags) == 0
            expected = self.library_experts(mini, tmp_path, config, ["gaussian_blur"])
            assert out.read_bytes() == expected, flags

    def test_router_section_then_flags(self, mini, tmp_path):
        cfg = tmp_path / "lorex.ini"
        cfg.write_text("[router]\nbatch_size = 3\niterations = 2\n")
        for flags, config in [
            ((), replace(ROUTER, batch_size=3, iterations=2, seed=3)),
            (("--batch-size", "5", "--iterations", "3"),
             replace(ROUTER, batch_size=5, iterations=3, seed=3)),
        ]:
            out = tmp_path / "router.uirl"
            assert run("train-router", "--data", mini["data"] / "train.manifest",
                       "--out", out, "--seed", "3", "--config", cfg, *flags) == 0
            assert out.read_bytes() == self.library_router(mini, tmp_path, config), flags


class TestResidentHeap:
    """Only the training subcommands ask glibc to keep freed heap mapped."""

    @pytest.fixture
    def mallopt_calls(self, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "_mallopt", lambda *args: calls.append(args))
        return calls

    def test_training_subcommands_keep_the_heap(self, mini, tmp_path, mallopt_calls):
        if platform.libc_ver()[0] != "glibc":
            pytest.skip("libc is not glibc")
        train = mini["data"] / "train.manifest"
        for argv in [
            ("pretrain-base", "--data", train, "--out", tmp_path / "b.uirl"),
            ("train-lora", "--task", "all", "--data", train, "--ckpt", mini["base"],
             "--out", tmp_path / "m.uirl"),
            ("train-router", "--data", train, "--out", tmp_path / "r.uirl"),
        ]:
            mallopt_calls.clear()
            assert run(*argv, "--iterations", "1") == 0
            assert mallopt_calls == [(-2, 64 << 20)], argv[0]

    def test_inference_subcommands_leave_the_allocator(self, mini, tmp_path, mallopt_calls):
        img_path = next((mini["data"] / "test").rglob("*_degraded.ppm"))
        test = mini["data"] / "test.manifest"
        assert run("restore", "--ckpt", mini["base"], "--input", img_path,
                   "--output", tmp_path / "y.ppm", "--auto", "--router", mini["router"]) == 0
        assert run("eval", "--data", test, "--ckpt", mini["base"], "--strategy", "oracle") == 0
        assert run("ablate-routing", "--data", test, "--ckpt", mini["base"],
                   "--router", mini["router"], "--strategies", "average,top1") == 0
        assert mallopt_calls == []

    def test_no_op_where_libc_is_not_glibc(self, monkeypatch, mallopt_calls):
        monkeypatch.setattr(platform, "libc_ver", lambda *args: ("", ""))
        cli._keep_heap_resident()
        assert mallopt_calls == []

    def test_mallopt_takes_the_top_pad(self):
        if platform.libc_ver()[0] != "glibc":
            pytest.skip("libc is not glibc")
        assert cli._mallopt(-2, 64 << 20) == 1

    def test_importing_lorex_leaves_the_allocator(self):
        if platform.libc_ver()[0] != "glibc":
            pytest.skip("libc is not glibc")
        # ctypes raises an audit event for every symbol it looks up; the
        # last line checks that the hook sees the helper's lookup
        code = "\n".join([
            "import pkgutil, sys",
            "seen = []",
            "sys.addaudithook(lambda event, args: seen.append(args[1])"
            " if event == 'ctypes.dlsym' else None)",
            "import lorex",
            "for module in pkgutil.iter_modules(lorex.__path__):",
            "    __import__('lorex.' + module.name)",
            "print('mallopt' in seen)",
            "sys.modules['lorex.cli']._mallopt(-2, 64 << 20)",
            "print('mallopt' in seen)",
        ])
        env = dict(os.environ, PYTHONPATH=str(Path(lorex.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False", "True"]
