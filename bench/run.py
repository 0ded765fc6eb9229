"""Run one lorex benchmark workload and print its metrics.

    python3 bench/run.py --workload {train,restore,evaluate} --seed N \
        --seconds S --trace {0,1}

Run from the root of a lorex checkout; lorex is imported from its ``src``
directory. Everything runs in this one process with BLAS pinned to one
thread. Scratch files go to ``.bench_run/`` under the checkout root.

With ``--trace 0`` the last stdout line is a JSON object holding the
end-to-end metrics. With ``--trace 1`` the workload runs once untraced and
once traced for the same number of repetitions; the last line then holds
the per-layer metrics and the tracing overhead, and the spans are written
to ``.bench_run/spans/``. The line before the last is the run record:
environment, the workload's own named metrics, its input properties, and
the first failed check, if any.
"""

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if not found."""
    with open("/proc/self/maps", encoding="utf-8") as f:
        libs = {line.split()[-1] for line in f if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text(encoding="utf-8").strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text(encoding="utf-8").strip() if ref_file.is_file() else None
    return ref


def environment(numpy_version):
    src = hashlib.sha256()
    for path in sorted((SRC / "lorex").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"blas_threads": blas_threads(), "usable_cores": len(os.sched_getaffinity(0)),
            "numpy": numpy_version, "python": platform.python_version(),
            "commit": commit(), "lorex_source_sha256": src.hexdigest()}


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_pass(workloads, name, seed, seconds, workdir, reps=None, tracer=None):
    """One measured pass; returns (e2e metrics, record, tally, repetitions)."""
    workload = workloads.WORKLOADS[name](seed, workdir)
    span = None
    if tracer is not None:
        tracer.set_boundaries(workload.request_boundaries)
        workload.on_request = tracer.next_request
        span = tracer.span
    result = workloads.measure(workload, seconds, reps=reps, span=span)
    e2e, record = workload.summarize(result.reps)
    e2e["setup_s"] = {"value": result.setup_s, "unit": "s"}
    e2e["peak_rss_mb"] = {"value": peak_rss_mb(), "unit": "MB"}
    record["named_metrics"]["setup_s"] = e2e["setup_s"]
    record["named_metrics"]["setup_wall_s"] = {"value": result.setup_wall_s, "unit": "s"}
    record["named_metrics"]["peak_rss_mb"] = e2e["peak_rss_mb"]
    record["repetitions"] = len(result.reps)
    shutil.rmtree(workdir, ignore_errors=True)
    return {k: e2e[k] for k in workloads.E2E_METRICS}, record, workload.tally, len(result.reps)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("train", "restore", "evaluate"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "lorex" / "__init__.py").is_file():
        print(f"error: no lorex sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(Path(__file__).resolve().parent))
    import numpy
    import lorex
    if Path(lorex.__file__).resolve().parent != (SRC / "lorex").resolve():
        print(f"error: lorex imported from {lorex.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    tag = f"{args.workload}-seed{args.seed}"
    e2e, record, tally, reps = run_pass(workloads, args.workload, args.seed, args.seconds,
                                        RUN_DIR / "work" / tag)
    attempted, failed = tally.attempted, tally.failed
    first_failure = tally.first_failure
    metrics = e2e
    if args.trace:
        before = tracing.bindings()
        tracer = tracing.Tracer()
        root = tracer.begin(tracer.name_id(f"bench.{args.workload}"))
        handle = tracing.install(tracer)
        try:
            t_e2e, t_record, t_tally, _ = run_pass(
                workloads, args.workload, args.seed, args.seconds,
                RUN_DIR / "work" / f"{tag}-traced", reps=reps, tracer=tracer)
        finally:
            handle.uninstall()
            tracer.finish(root)
        metrics = tracing.layer_metrics(tracer, root)
        for key in workloads.E2E_METRICS:
            if key != "psnr_db":
                metrics[f"trace.overhead.{key}"] = {
                    "value": t_e2e[key]["value"] - e2e[key]["value"], "unit": e2e[key]["unit"]}
        checks = [
            (tracing.bindings() == before, "a wrapper was left installed"),
            (t_e2e["psnr_db"] == e2e["psnr_db"], "psnr_db differs when traced"),
            (t_record.get("checkpoint_digest") == record.get("checkpoint_digest"),
             "checkpoint digest differs when traced"),
            (abs(metrics["trace.self_sum_error_ms"]["value"]) < 1e-3,
             "self times do not add up to the root span"),
        ]
        attempted += t_tally.attempted + len(checks)
        failed += t_tally.failed + sum(1 for ok, _ in checks if not ok)
        first_failure = first_failure or t_tally.first_failure or next(
            (what for ok, what in checks if not ok), None)
        record["traced_named_metrics"] = t_record["named_metrics"]
        spans_dir = RUN_DIR / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        record["spans_file"] = str((spans_dir / f"{tag}.jsonl.gz").relative_to(ROOT))
        tracer.write(spans_dir / f"{tag}.jsonl.gz")

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(numpy.__version__),
              "first_failure": first_failure, **record}
    results_dir = RUN_DIR / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{tag}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(record))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    # before numpy is first imported, so every BLAS call runs on one thread
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.exit(main())
