"""Span tracing of the lorex package, installed from outside for one run.

``install`` wraps every public function of every ``lorex`` module, plus
``GradTape.gradients``, ``Adam.step`` and ``AdapterTrainer.step``, in every
``lorex.*`` namespace that binds it, and returns a handle whose
``uninstall`` puts every original back. A wrapped call records one span:
name, start, end, parent span, request id and, for some names, a count of
work derived from argument shapes. Spans stay in memory until the run ends.

``layer_metrics`` turns the spans into the per-layer metrics the benchmark
reports. Self time is a span's duration minus the part of it that its
child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import inspect
import json
import os
import statistics
import sys
import time
from array import array

# span names that differ from "<module>.<function>"
ALIASES = {
    "numerics.GradTape.gradients": "numerics.backward",
    "numerics.Adam.step": "numerics.adam",
    "restorer.AdapterTrainer.step": "restorer.step",
    "router.predict_with_crop_correction": "router.predict",
    "router.encode_degradation": "router.encode",
    "router.resize_bilinear": "router.resize",
    "router.train_router": "router.train",
    "checkpoint.load_checkpoint": "checkpoint.load",
    "checkpoint.save_checkpoint": "checkpoint.save",
}
METHODS = (("numerics", "GradTape", "gradients"), ("numerics", "Adam", "step"),
           ("restorer", "AdapterTrainer", "step"))
LAYER_NAMES = ("enc1", "enc2", "enc3", "bot1", "bot2", "dec1", "dec2", "dec3", "head")
CLI_STAGES = ("gen-data", "pretrain-base", "train-lora", "train-router", "ablate-routing")


class Tracer:
    """Spans of one traced run, stored column-wise to keep them small."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("d")
        self.end = array("d")
        self.attrs: dict[int, dict] = {}
        self._stack = [-1]
        self._boundaries: set[int] = set()
        self.current_request = 0

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.request.append(self.current_request)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()
        if self.name[idx] in self._boundaries:
            self.current_request += 1

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around benchmark code, for phases lorex does not mark."""
        idx = self.begin(self.name_id(name))
        try:
            yield
        finally:
            self.finish(idx)

    def set_boundaries(self, names) -> None:
        """Spans with these names close a request when they end."""
        self._boundaries = {self.name_id(n) for n in names}

    def next_request(self) -> None:
        self.current_request += 1

    def __len__(self) -> int:
        return len(self.start)

    def write(self, path) -> None:
        """Write the spans as gzipped JSON lines: a header naming the fields,
        then one array per span, times in seconds from the first span."""
        t0 = self.start[0] if len(self) else 0.0
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as f:
            f.write(json.dumps({"fields": ["name", "start_s", "end_s", "parent",
                                           "request", "attrs"]}) + "\n")
            for i in range(len(self)):
                f.write(json.dumps([self.names[self.name[i]], round(self.start[i] - t0, 9),
                                    round(self.end[i] - t0, 9), self.parent[i],
                                    self.request[i], self.attrs.get(i, {})]) + "\n")


# ---------------------------------------------------------------------------
# work counted at the wrapped boundaries, from argument and result shapes


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def conv_flops(x_dims, kernel_dims, out_dims) -> int:
    """2*N*Cout*Cin*k*k*OH*OW for one conv2d call."""
    n = 1 if len(x_dims) == 3 else x_dims[0]
    cout, cin, k, _ = kernel_dims
    oh, ow = out_dims[-2:]
    return 2 * n * cout * cin * k * k * oh * ow


def _conv2d(args, kwargs, out):
    return {"flop": conv_flops(args[0].dims, args[1].dims, out.dims)}


def _lower_conv(args, kwargs, out):
    n, c, _, _ = out.shape
    k, _, _, oh, ow = out.geom
    return {"bytes": 4 * n * c * k * k * oh * ow}


def _gradients(args, kwargs, out):
    return {"records": len(args[0])}


def _adapted_forward(args, kwargs, out):
    layer = args[0]
    s = _arg(args, kwargs, 2, "s")
    tape = _arg(args, kwargs, 3, "tape")
    evaluated = sum(1 for si, ad in zip(s, layer.adapters)
                    if si != 0 and (tape is not None or ad.b.data.any()))
    return {"evaluated": evaluated, "attached": layer.task_count}


def _forward(args, kwargs, out):
    x = args[1]
    return {"images": 1 if x.data.ndim == 3 else x.dims[0],
            "taped": _arg(args, kwargs, 3, "tape") is not None}


def _read_ppm(args, kwargs, out):
    return {"bytes": out.size}


def _write_ppm(args, kwargs, out):
    return {"bytes": args[1].size}


def _file_bytes(args, kwargs, out):
    return {"bytes": os.path.getsize(args[0])}


MEASURES = {
    "numerics.conv2d": _conv2d,
    "numerics.lower_conv": _lower_conv,
    "numerics.backward": _gradients,
    "lora.adapted_forward": _adapted_forward,
    "restorer.forward": _forward,
    "degradations.read_ppm": _read_ppm,
    "degradations.write_ppm": _write_ppm,
    "checkpoint.load": _file_bytes,
    "checkpoint.save": _file_bytes,
}


# ---------------------------------------------------------------------------
# installing and removing the wrappers


def _wrap(tracer: Tracer, name: str, fn):
    name_id = tracer.name_id(name)
    measure = MEASURES.get(name)
    begin, finish, attrs = tracer.begin, tracer.finish, tracer.attrs

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = begin(name_id)
        try:
            out = fn(*args, **kwargs)
        finally:
            finish(idx)
        if measure is not None:
            attrs[idx] = measure(args, kwargs, out)
        return out

    return traced


def lorex_modules() -> list:
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "lorex" or n.startswith("lorex."))]


def span_name(module_short: str, fn_name: str) -> str:
    if module_short == "cli" and fn_name.startswith("cmd_"):
        return "cli." + fn_name[4:].replace("_", "-")
    key = f"{module_short}.{fn_name}"
    return ALIASES.get(key, key)


class Installed:
    """The bindings one ``install`` replaced; ``uninstall`` restores them."""

    def __init__(self):
        self.replaced: list[tuple[object, str, object]] = []

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self.replaced):
            setattr(owner, attr, original)
        self.replaced.clear()


def install(tracer: Tracer) -> Installed:
    modules = lorex_modules()
    wrappers: dict[int, object] = {}
    for mod in modules:
        short = mod.__name__.rpartition(".")[2]
        for attr, fn in vars(mod).items():
            if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                    and not attr.startswith("_")):
                wrappers[id(fn)] = _wrap(tracer, span_name(short, attr), fn)
    handle = Installed()
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            wrapper = wrappers.get(id(value))
            if wrapper is not None:
                handle.replaced.append((mod, attr, value))
                setattr(mod, attr, wrapper)
    for mod_short, cls_name, meth in METHODS:
        cls = getattr(sys.modules[f"lorex.{mod_short}"], cls_name)
        original = cls.__dict__[meth]
        handle.replaced.append((cls, meth, original))
        setattr(cls, meth, _wrap(tracer, span_name(mod_short, f"{cls_name}.{meth}"),
                                 original))
    return handle


def bindings() -> dict[tuple[str, str], int]:
    """Identity of every function bound in a lorex namespace or traced class."""
    out = {(m.__name__, a): id(v) for m in lorex_modules()
           for a, v in vars(m).items() if callable(v)}
    for mod_short, cls_name, meth in METHODS:
        cls = getattr(sys.modules[f"lorex.{mod_short}"], cls_name)
        out[(f"lorex.{mod_short}.{cls_name}", meth)] = id(cls.__dict__[meth])
    return out


# ---------------------------------------------------------------------------
# per-layer metrics


def self_times(start, end, parent) -> list[float]:
    """Each span's duration minus the union of its children's intervals,
    clipped to the span itself."""
    children: dict[int, list[int]] = {}
    for i, p in enumerate(parent):
        if p >= 0:
            children.setdefault(p, []).append(i)
    out = [end[i] - start[i] for i in range(len(start))]
    for p, kids in children.items():
        lo, hi = start[p], end[p]
        covered = 0.0
        run_start = run_end = None
        for k in sorted(kids, key=lambda i: start[i]):
            a, b = max(start[k], lo), min(end[k], hi)
            if b <= a:
                continue
            if run_end is None or a > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = a, b
            else:
                run_end = max(run_end, b)
        if run_end is not None:
            covered += run_end - run_start
        out[p] -= covered
    return out


def _metric(value, unit):
    return {"value": value, "unit": unit}


def layer_metrics(tracer: Tracer, root: int) -> dict[str, dict]:
    """Per-layer metrics over the subtree of span ``root``."""
    n = len(tracer)
    self_s = self_times(tracer.start, tracer.end, tracer.parent)
    dur = [tracer.end[i] - tracer.start[i] for i in range(n)]
    names = tracer.names
    calls: dict[str, int] = {}
    self_ms: dict[str, float] = {}
    incl_ms: dict[str, float] = {}
    sums: dict[tuple[str, str], float] = {}
    step_ms: list[float] = []
    forward_self = {True: 0.0, False: 0.0}
    fwd_ms = dict.fromkeys(LAYER_NAMES, 0.0)
    adapted_seen: dict[int, int] = {}

    for i in range(root, n):
        name = names[tracer.name[i]]
        calls[name] = calls.get(name, 0) + 1
        self_ms[name] = self_ms.get(name, 0.0) + 1e3 * self_s[i]
        incl_ms[name] = incl_ms.get(name, 0.0) + 1e3 * dur[i]
        for key, value in tracer.attrs.get(i, {}).items():
            sums[(name, key)] = sums.get((name, key), 0.0) + float(value)
        if name == "restorer.step":
            step_ms.append(1e3 * dur[i])
        elif name == "restorer.forward":
            forward_self[tracer.attrs.get(i, {}).get("taped", False)] += 1e3 * self_s[i]
        elif name == "lora.adapted_forward":
            p = tracer.parent[i]
            if p >= 0 and names[tracer.name[p]] == "restorer.forward":
                pos = adapted_seen.get(p, 0)
                adapted_seen[p] = pos + 1
                if pos < len(LAYER_NAMES):
                    fwd_ms[LAYER_NAMES[pos]] += 1e3 * dur[i]

    def c(name):
        return _metric(calls.get(name, 0), "count")

    def s(*names_):
        return _metric(sum(self_ms.get(x, 0.0) for x in names_), "ms")

    def mb(name):
        return _metric(sums.get((name, "bytes"), 0.0) / 1e6, "MB")

    conv_gflop = sums.get(("numerics.conv2d", "flop"), 0.0) / 1e9
    conv_self = self_ms.get("numerics.conv2d", 0.0)
    forward_calls = calls.get("restorer.forward", 0)
    attached = sums.get(("lora.adapted_forward", "attached"), 0.0)
    out = {
        "numerics.conv2d.calls": c("numerics.conv2d"),
        "numerics.conv2d.self_ms": s("numerics.conv2d"),
        "numerics.conv2d.gflop": _metric(conv_gflop, "GFLOP"),
        "numerics.conv2d.gflop_per_s": _metric(
            conv_gflop / (conv_self / 1e3) if conv_self else 0.0, "GFLOP/s"),
        "numerics.lower_conv.calls": c("numerics.lower_conv"),
        "numerics.lower_conv.self_ms": s("numerics.lower_conv"),
        "numerics.lower_conv.mb": mb("numerics.lower_conv"),
        "numerics.backward.self_ms": s("numerics.backward"),
        "numerics.backward.records": _metric(
            int(sums.get(("numerics.backward", "records"), 0)), "count"),
        "numerics.adam.self_ms": s("numerics.adam"),
        "lora.adapted_forward.calls": c("lora.adapted_forward"),
        "lora.adapted_forward.self_ms": s("lora.adapted_forward"),
    }
    for layer in LAYER_NAMES:
        out[f"lora.fwd_ms.{layer}"] = _metric(fwd_ms[layer], "ms")
    out.update({
        "lora.active_adapter_ratio": _metric(
            sums.get(("lora.adapted_forward", "evaluated"), 0.0) / attached
            if attached else 0.0, "ratio"),
        "lora.merge_weights.calls": c("lora.merge_weights"),
        "lora.merge_weights.self_ms": s("lora.merge_weights"),
        "restorer.forward.calls": c("restorer.forward"),
        "restorer.forward.images_per_call": _metric(
            sums.get(("restorer.forward", "images"), 0.0) / forward_calls
            if forward_calls else 0.0, "images"),
        "restorer.forward_train.self_ms": _metric(forward_self[True], "ms"),
        "restorer.forward_infer.self_ms": _metric(forward_self[False], "ms"),
        "restorer.step.calls": c("restorer.step"),
        "restorer.step.ms_p50": _metric(
            statistics.median(step_ms) if step_ms else 0.0, "ms"),
        "restorer.pretrain_base.ms": _metric(incl_ms.get("restorer.pretrain_base", 0.0),
                                             "ms"),
        "router.predict.self_ms": s("router.predict"),
        "router.encode.calls": c("router.encode"),
        "router.encode.self_ms": s("router.encode"),
        "router.resize.self_ms": s("router.resize"),
        "router.train.ms": _metric(incl_ms.get("router.train", 0.0), "ms"),
        "metrics.ssim.calls": c("metrics.ssim"),
        "metrics.ssim.self_ms": s("metrics.ssim"),
        "metrics.psnr.self_ms": s("metrics.psnr"),
    })
    for fn in ("read_ppm", "write_ppm"):
        name = f"degradations.{fn}"
        out[f"{name}.calls"] = c(name)
        out[f"{name}.self_ms"] = s(name)
        out[f"{name}.mb"] = mb(name)
    out["degradations.apply_degradation.self_ms"] = s("degradations.apply_degradation")
    out["degradations.gen_clean_image.self_ms"] = s("degradations.gen_clean_image")
    for fn in ("load", "save"):
        name = f"checkpoint.{fn}"
        out[f"{name}.calls"] = c(name)
        out[f"{name}.self_ms"] = s(name)
        out[f"{name}.mb"] = mb(name)
    out["harness.load_task_data.self_ms"] = s("harness.load_task_data")
    out["harness.evaluate_restoration.self_ms"] = s("harness.evaluate_restoration")
    for stage in CLI_STAGES:
        out[f"cli.{stage}.ms"] = _metric(incl_ms.get(f"cli.{stage}", 0.0), "ms")

    root_ms = 1e3 * dur[root]
    out["trace.spans"] = _metric(n - root, "count")
    out["trace.root_ms"] = _metric(root_ms, "ms")
    out["trace.uncovered_ms"] = _metric(1e3 * self_s[root], "ms")
    out["trace.self_sum_error_ms"] = _metric(
        1e3 * sum(self_s[root:n]) - root_ms, "ms")
    return out
