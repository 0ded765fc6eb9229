"""The three benchmark workloads: train, restore and evaluate.

Each workload is built from the run seed alone: the seed draws the data
and the request stream, and lorex only ever sees those generated inputs.
A workload sets up its inputs (``setup``), then repeats one fixed job
(``rep``) until the run's time is up, checking every output it gets, and
finally condenses the repetitions into metrics (``summarize``).

Benchmark code calls lorex through module attributes (``restorer.restore``,
never a name imported from it), so a traced run sees these calls too.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import shutil
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from lorex import cli, degradations, harness, metrics, numerics, persist, restorer, router
from lorex.degradations import DEFAULT_MIXED, DEFAULT_TASKS

LABELS = tuple(t.label for t in DEFAULT_TASKS)
T = len(LABELS)
SETUP_REPEATS = 15
E2E_METRICS = ("setup_s", "peak_rss_mb", "psnr_db", "job_norm_s")

# machine-speed reference: on a shared host the speed this process gets
# drifts by tens of percent over minutes, for every kind of work alike, so
# each timed unit is also scaled by a fixed kernel's time sampled right
# before and after it. REF_S is that kernel's median time on the 2-core
# Xeon (2.1 GHz) the bounds were set on; it only fixes the unit.
REF_LOOPS = 8
REF_S = 0.040

# train: one fixed reduced budget for the three training stages. The seed
# draws the dataset; the stages train from a fixed seed, as part of the
# budget, because at this budget the trained model's quality depends more
# on initialisation than on data, and psnr_db should not swing with it.
TRAIN_SEED = 0
TRAIN_DATA = ("--train-per-task", "32", "--test-per-task", "40", "--mixed-pairs", "1")
PRETRAIN_ITERATIONS = 16
LORA_ITERATIONS = 6
ROUTER_ITERATIONS = 40

# restore: 32x32 is the router patch, so routing resizes and crops only
# the two larger sizes; every block holds each (size, mode) pair equally
SIZES = (32, 64, 96)
MODES = ("top1", "top2", "uniform")
POOL_PER_SIZE = 42
BLOCK_ROUNDS = 4
MIN_REQUESTS = 1000
MERGED_CHECK_SHARE = 0.02
MERGED_TOLERANCE = 1e-4       # float32 reassociation; outputs lie in [0, 1]

# evaluate: every ablation strategy over the test and mixed splits
EVAL_DATA = ("--train-per-task", "1", "--test-per-task", "8", "--mixed-pairs", "8")
STRATEGIES = ("random", "average", "top1", "top2", "all")

# the served model: random but non-zero up-projections, because inference
# skips an expert whose up-projection is all zero
FIXTURE_SEED = 0
FIXTURE_UP_STD = 0.02


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _percentile(values, q):
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def run_cli(argv) -> int:
    """Run one lorex subcommand in-process, keeping its output off stdout."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main([str(a) for a in argv])


def file_digest(*paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).read_bytes())
    return h.hexdigest()


def build_fixture(seed: int):
    model = restorer.build_model(LABELS, seed)
    rng = np.random.default_rng(seed)
    for name in model.adapted_layer_names():
        for adapter in model.layers[name].adapters:
            adapter.b.data[:] = rng.normal(0.0, FIXTURE_UP_STD, adapter.b.dims)
    return model, router.build_router(LABELS, seed)


class Clock:
    """Times units of work in wall seconds, with the factor that turns them
    into reference seconds: REF_S over the mean of the reference kernel's
    times just before and just after the unit."""

    def __init__(self):
        rng = np.random.default_rng(0)
        # one 3x3 conv lowered as lorex does it: im2col copy, float32 GEMM, ReLU
        self.x = rng.random((32, 66, 66), dtype=np.float32)
        self.w = rng.random((32 * 9, 32), dtype=np.float32)
        self.samples: list[float] = []
        self._kernel()

    def _kernel(self) -> float:
        t0 = time.perf_counter()
        for _ in range(REF_LOOPS):
            cols = np.lib.stride_tricks.sliding_window_view(self.x, (3, 3), axis=(1, 2))
            cols = cols.transpose(1, 2, 0, 3, 4).reshape(-1, self.w.shape[0])
            np.maximum(cols @ self.w, 0.0)
        return time.perf_counter() - t0

    def time(self, fn, *args):
        """(fn's result, its wall seconds, the reference factor)."""
        before = self._kernel()
        t0 = time.perf_counter()
        out = fn(*args)
        wall = time.perf_counter() - t0
        after = self._kernel()
        self.samples += [before, after]
        return out, wall, 2.0 * REF_S / (before + after)

    def ref_ms(self) -> float:
        """Median reference-kernel time, a reading of the machine's speed."""
        return 1e3 * statistics.median(self.samples)


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    first_failure: str | None = None

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.first_failure = self.first_failure or what
        return ok


# ---------------------------------------------------------------------------
# train


class Train:
    """pretrain-base, train-lora --task all and train-router via the CLI."""

    name = "train"
    min_reps = 1
    request_boundaries = ("numerics.adam",)

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.dir = workdir
        self.tally = Tally()
        self.digest: str | None = None
        self.scores: dict | None = None
        self.clock = Clock()

    def setup(self) -> None:
        rc = run_cli(["gen-data", "--out", self.dir / "data", "--seed", self.seed,
                      *TRAIN_DATA])
        if not self.tally.check(rc == 0, f"gen-data exited {rc}"):
            raise RuntimeError(f"gen-data exited {rc}")

    def rep(self) -> dict:
        d, s = self.dir, TRAIN_SEED
        train = d / "data" / "train.manifest"
        base, model_path, router_path = d / "base.uirl", d / "model.uirl", d / "router.uirl"
        stages = {
            "pretrain_base_s": ["pretrain-base", "--data", train, "--out", base, "--seed", s,
                                "--iterations", PRETRAIN_ITERATIONS],
            "train_lora_s": ["train-lora", "--task", "all", "--data", train, "--ckpt", base,
                             "--out", model_path, "--seed", s,
                             "--iterations", LORA_ITERATIONS],
            "train_router_s": ["train-router", "--data", train, "--out", router_path,
                               "--seed", s, "--iterations", ROUTER_ITERATIONS],
        }
        out = {"job_s": 0.0, "job_norm_s": 0.0}
        for key, argv in stages.items():
            rc, out[key], factor = self.clock.time(run_cli, argv)
            out["job_s"] += out[key]
            out["job_norm_s"] += out[key] * factor
            if not self.tally.check(rc == 0, f"{argv[0]} exited {rc}"):
                raise RuntimeError(f"{argv[0]} exited {rc}; later stages need its output")

        # raises CheckpointError if a checkpoint does not reload
        persist.load_model(base)
        model = persist.load_model(model_path)
        state = persist.load_router(router_path)
        digest = file_digest(base, model_path, router_path)
        self.digest = self.digest or digest
        self.tally.check(digest == self.digest, "checkpoint digest differs between reps")

        if self.scores is None:
            self.scores = self._score(model, state)
        return out

    def _score(self, model, state) -> dict:
        """Oracle PSNR on the test split and held-out routing accuracy; both
        are deterministic, so one scoring per run suffices."""
        test = degradations.load_manifest(self.dir / "data" / "test.manifest", verify=False)
        psnrs = []
        t0 = time.perf_counter()
        for task in test.tasks:
            onehot = np.zeros(T, np.float32)
            onehot[model.labels.index(task.label)] = 1.0
            for clean_path, degraded_path in task.pairs:
                restored = restorer.restore(model, degradations.read_ppm(degraded_path),
                                            onehot)
                value = metrics.psnr(restored, degradations.read_ppm(clean_path))
                if self.tally.check(math.isfinite(value), "non-finite psnr"):
                    psnrs.append(value)
        return {"images_per_s": len(psnrs) / (time.perf_counter() - t0),
                "psnr_db": float(np.mean(psnrs)),
                "routing_acc": harness.routing_accuracy(state, test)[0]}

    def summarize(self, reps: list[dict]) -> tuple[dict, dict]:
        def med(key):
            return statistics.median(r[key] for r in reps)
        psnr = _metric(self.scores["psnr_db"], "dB")
        e2e = {"psnr_db": psnr, "job_norm_s": _metric(med("job_norm_s"), "s")}
        named = {"job_s": _metric(med("job_s"), "s"),
                 "ref_kernel_ms": _metric(self.clock.ref_ms(), "ms"),
                 "pretrain_base_s": _metric(med("pretrain_base_s"), "s"),
                 "train_lora_s": _metric(med("train_lora_s"), "s"),
                 "train_router_s": _metric(med("train_router_s"), "s"),
                 "psnr_db": psnr,
                 "routing_acc": _metric(self.scores["routing_acc"], "ratio"),
                 "oracle_images_per_s": _metric(self.scores["images_per_s"], "1/s")}
        record = {"named_metrics": named, "checkpoint_digest": self.digest,
                  "inputs": {"budget": {"pretrain_iterations": PRETRAIN_ITERATIONS,
                                        "lora_iterations_per_task": LORA_ITERATIONS,
                                        "router_iterations": ROUTER_ITERATIONS},
                             "data": dict(zip(TRAIN_DATA[::2], map(int, TRAIN_DATA[1::2])))}}
        return e2e, record


# ---------------------------------------------------------------------------
# restore


# degradation labels of the request images: every single type, then both
# mixed composites, each as (kind, params) components
DEGRADATIONS = tuple((t.label, ((t.kind, t.params),)) for t in DEFAULT_TASKS) + \
    tuple((m.label, m.components) for m in DEFAULT_MIXED)


@dataclass(frozen=True)
class Request:
    size: int
    mode: str
    image: int          # index into that size's input pool
    check_merged: bool


def request_block(seed: int, block: int) -> list[Request]:
    """Block ``block`` of the request stream: every (size, mode) pair
    BLOCK_ROUNDS times in a seeded order, so each block has the same mix."""
    rng = np.random.default_rng([seed, block])
    pairs = [(size, mode) for size in SIZES for mode in MODES]
    out = []
    for _ in range(BLOCK_ROUNDS):
        for i in rng.permutation(len(pairs)):
            size, mode = pairs[i]
            out.append(Request(size, mode, int(rng.integers(POOL_PER_SIZE)),
                               bool(rng.random() < MERGED_CHECK_SHARE)))
    return out


def pool_inputs(seed: int, size: int) -> list[tuple[str, tuple, int, tuple[int, ...]]]:
    """(degradation label, its components, clean-image seed, one seed per
    component) for each image of one size's input pool."""
    rng = np.random.default_rng([seed, size])
    out = []
    for i in range(POOL_PER_SIZE):
        label, components = DEGRADATIONS[i % len(DEGRADATIONS)]
        seeds = tuple(int(v) for v in rng.integers(0, 2**62, 1 + len(components)))
        out.append((label, components, seeds[0], seeds[1:]))
    return out


class Restore:
    """A closed loop of one client sending one restore request at a time."""

    name = "restore"
    min_reps = math.ceil(MIN_REQUESTS / (BLOCK_ROUNDS * len(SIZES) * len(MODES)))
    request_boundaries = ()

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.dir = workdir
        self.tally = Tally()
        self.blocks = 0
        self.seen_weights: set[bytes] = set()
        self.on_request = None
        self.clock = Clock()

    def setup(self) -> None:
        inputs = self.dir / "inputs"
        inputs.mkdir(parents=True)
        self.inputs: dict[int, list[tuple[Path, object, str]]] = {}
        for size in SIZES:
            pool = []
            for i, (label, components, clean_seed, comp_seeds) in enumerate(
                    pool_inputs(self.seed, size)):
                clean_path = inputs / f"{size}_{i}_clean.ppm"
                degradations.write_ppm(
                    clean_path, degradations.gen_clean_image(clean_seed, (size, size)))
                clean = degradations.read_ppm(clean_path)
                img = clean
                for (kind, params), s in zip(components, comp_seeds):
                    img = degradations.apply_degradation(
                        img, degradations.DegradationSpec(kind, params, s))
                path = inputs / f"{size}_{i}.ppm"
                degradations.write_ppm(path, img)
                pool.append((path, clean, label))
            self.inputs[size] = pool
        model, state = build_fixture(FIXTURE_SEED)
        persist.save_model(self.dir / "model.uirl", model)
        persist.save_router(self.dir / "router.uirl", state)
        self.model = persist.load_model(self.dir / "model.uirl")
        self.router = persist.load_router(self.dir / "router.uirl")
        (self.dir / "out").mkdir()
        self.uniform = np.full(T, 1.0 / T, np.float32)

    def _serve(self, req: Request, out_path: Path):
        path, clean, label = self.inputs[req.size][req.image]
        t0 = time.perf_counter()
        image = degradations.read_ppm(path)
        if req.mode == "uniform":
            s = self.uniform
            restored = restorer.restore(self.model, image, s)
        else:
            k = 1 if req.mode == "top1" else 2
            restored, routed = restorer.restore_auto(self.model, self.router, image, k)
            s = routed.s
        degradations.write_ppm(out_path, restored)
        return time.perf_counter() - t0, image, restored, s, clean, label

    def warm_up(self) -> None:
        for size in SIZES:
            for mode in MODES:
                self._serve(Request(size, mode, 0, False), self.dir / "out" / "warm.ppm")

    def rep(self) -> dict:
        block = request_block(self.seed, self.blocks)
        self.blocks += 1
        rows, _, factor = self.clock.time(self._serve_block, block)
        job_s = sum(r["ms"] for r in rows) / 1e3
        return {"rows": rows, "job_s": job_s, "job_norm_s": job_s * factor}

    def _serve_block(self, block: list[Request]) -> list[dict]:
        rows = []
        for i, req in enumerate(block):
            if self.on_request is not None:
                self.on_request()
            try:
                latency, image, restored, s, clean, label = self._serve(
                    req, self.dir / "out" / f"{i}.ppm")
            except Exception:   # a request that raises is a failed request
                self.tally.check(False, f"request {req} raised:\n{traceback.format_exc()}")
                continue
            data = restored.data
            ok = (restored.dims == image.dims and bool(np.isfinite(data).all())
                  and float(data.min()) >= 0.0 and float(data.max()) <= 1.0)
            k = {"top1": 1, "top2": 2, "uniform": T}[req.mode]
            ok = ok and abs(float(s.sum()) - 1.0) <= 1e-5 and int(np.count_nonzero(s)) <= k
            if ok and req.check_merged:
                merged = numerics.clip01(restorer.forward(self.model, image, s, merged=True))
                ok = float(np.abs(merged.data - data).max()) <= MERGED_TOLERANCE
            if not self.tally.check(ok, f"request {req} failed its output check"):
                continue
            key = s.tobytes()
            repeat = key in self.seen_weights
            self.seen_weights.add(key)
            rows.append({"ms": 1e3 * latency, "size": req.size, "mode": req.mode,
                         "active": int(np.count_nonzero(s)), "repeat": repeat,
                         "psnr": metrics.psnr(restored, clean), "label": label})
        return rows

    def summarize(self, reps: list[dict]) -> tuple[dict, dict]:
        rows = [r for rep in reps for r in rep["rows"]]
        ms = [r["ms"] for r in rows]
        n = len(rows)
        e2e = {"psnr_db": _metric(float(np.mean([r["psnr"] for r in rows])), "dB"),
               "job_norm_s": _metric(statistics.median(r["job_norm_s"] for r in reps), "s")}
        named = {"job_s": _metric(statistics.median(r["job_s"] for r in reps), "s"),
                 "ref_kernel_ms": _metric(self.clock.ref_ms(), "ms"),
                 "restore_ms_p50": _metric(_percentile(ms, 50), "ms"),
                 "restore_ms_p99": _metric(_percentile(ms, 99), "ms"),
                 "requests": _metric(n, "count"),
                 "requests_per_s": _metric(1e3 * n / sum(ms), "1/s")}

        def share(pred):
            return sum(1 for r in rows if pred(r)) / n

        inputs = {
            "size_mix": {f"{s}x{s}": share(lambda r, s=s: r["size"] == s) for s in SIZES},
            "mode_mix": {m: share(lambda r, m=m: r["mode"] == m) for m in MODES},
            "active_experts_mix": {str(a): share(lambda r, a=a: r["active"] == a)
                                   for a in sorted({r["active"] for r in rows})},
            "mean_active_experts_per_layer_call": float(np.mean([r["active"] for r in rows])),
            "repeated_weight_share": share(lambda r: r["repeat"]),
            "degradation_mix": {lb: share(lambda r, lb=lb: r["label"] == lb)
                                for lb, _ in DEGRADATIONS},
        }
        return e2e, {"named_metrics": named, "inputs": inputs}


# ---------------------------------------------------------------------------
# evaluate


class Evaluate:
    """lorex ablate-routing with every strategy over the test and mixed splits."""

    name = "evaluate"
    min_reps = 1
    request_boundaries = ("metrics.ssim",)

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.dir = workdir
        self.tally = Tally()
        self.clock = Clock()

    def setup(self) -> None:
        rc = run_cli(["gen-data", "--out", self.dir / "data", "--seed", self.seed,
                      *EVAL_DATA])
        if not self.tally.check(rc == 0, f"gen-data exited {rc}"):
            raise RuntimeError(f"gen-data exited {rc}")
        model, state = build_fixture(FIXTURE_SEED)
        persist.save_model(self.dir / "model.uirl", model)
        persist.save_router(self.dir / "router.uirl", state)
        self.splits = {
            split: degradations.load_manifest(self.dir / "data" / f"{split}.manifest",
                                              verify=False)
            for split in ("test", "mixed")}

    def rep(self) -> dict:
        psnrs = []
        images = 0
        job_s = job_norm_s = 0.0
        for split, manifest in self.splits.items():
            out = self.dir / f"ablate_{split}.tsv"
            argv = ["ablate-routing", "--data", self.dir / "data" / f"{split}.manifest",
                    "--ckpt", self.dir / "model.uirl", "--router", self.dir / "router.uirl",
                    "--strategies", ",".join(STRATEGIES), "--seed", self.seed, "--out", out]
            rc, wall, factor = self.clock.time(run_cli, argv)
            job_s += wall
            job_norm_s += wall * factor
            images += sum(len(t.pairs) for t in manifest.tasks) * len(STRATEGIES)
            rows = {}
            if rc == 0:
                for line in out.read_text(encoding="utf-8").splitlines():
                    name, metric, mean, _ = line.split("\t")
                    rows[(name, metric)] = float(mean)
            for strategy in STRATEGIES:
                for task in manifest.tasks:
                    key = f"{strategy}/{task.label}"
                    row = [rows.get((key, m)) for m in ("psnr", "ssim")]
                    if self.tally.check(all(v is not None and math.isfinite(v) for v in row),
                                        f"{split}: no finite report row for {key}"):
                        psnrs.append(row[0])
        return {"job_s": job_s, "job_norm_s": job_norm_s, "images_per_s": images / job_s,
                "images": images,
                "psnr_db": float(np.mean(psnrs)) if psnrs else float("nan")}

    def summarize(self, reps: list[dict]) -> tuple[dict, dict]:
        def med(key):
            return statistics.median(r[key] for r in reps)
        e2e = {"psnr_db": _metric(med("psnr_db"), "dB"),
               "job_norm_s": _metric(med("job_norm_s"), "s")}
        self.tally.check(len({r["psnr_db"] for r in reps}) == 1, "psnr_db differs between reps")
        named = {"job_s": _metric(med("job_s"), "s"),
                 "ref_kernel_ms": _metric(self.clock.ref_ms(), "ms"),
                 "eval_images_per_s": _metric(med("images_per_s"), "1/s")}
        inputs = {"images_per_rep": reps[0]["images"], "strategies": list(STRATEGIES),
                  "images_per_split": {k: sum(len(t.pairs) for t in m.tasks)
                                       for k, m in self.splits.items()}}
        return e2e, {"named_metrics": named, "inputs": inputs}


WORKLOADS = {w.name: w for w in (Train, Restore, Evaluate)}


# ---------------------------------------------------------------------------
# one measured pass of a workload


@dataclass
class Pass:
    setup_s: float          # in reference seconds, like job_norm_s
    setup_wall_s: float
    reps: list = field(default_factory=list)


def measure(workload, seconds: float, reps: int | None = None, span=None) -> Pass:
    """Set up SETUP_REPEATS times (reporting the medians of the reference and
    the wall times), then repeat the job until ``seconds`` have passed and
    ``min_reps`` are done, or exactly ``reps`` times when given.
    ``span(name)`` brackets each phase when traced."""
    span = span or (lambda name: contextlib.nullcontext())
    walls, norms = [], []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(workload.dir, ignore_errors=True)
        workload.dir.mkdir(parents=True)
        with span("bench.setup"):
            _, wall, factor = workload.clock.time(workload.setup)
        walls.append(wall)
        norms.append(wall * factor)
    result = Pass(statistics.median(norms), statistics.median(walls))
    if hasattr(workload, "warm_up"):
        with span("bench.warm_up"):
            workload.warm_up()
    t0 = time.perf_counter()
    while True:
        with span("bench.rep"):
            result.reps.append(workload.rep())
        done = len(result.reps)
        if reps is not None:
            if done >= reps:
                break
        elif done >= workload.min_reps and time.perf_counter() - t0 >= seconds:
            break
    return result
