"""Command-line lifecycle tool.

Subcommands: gen-data, pretrain-base, train-lora, train-router, restore,
eval, ablate-routing, sweep-rank. Every subcommand is deterministic given
--seed. Options resolve as flags > config file > defaults; the config file
is INI-style ``key = value`` under ``[data]``, ``[train]``, ``[router]``
and ``[eval]`` sections. The defaults are the library's own: the field
defaults of ``DatasetConfig`` for ``[data]``, ``TrainConfig()`` for expert
training and ``harness.PRETRAIN`` / ``harness.ROUTER`` for the other two
training stages.

The three training subcommands keep freed heap memory mapped
(``_keep_heap_resident``); the others leave the allocator as it is.

Exit codes: 0 success, 1 runtime or invariant failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import configparser
import ctypes
import platform
import sys
from pathlib import Path

import numpy as np

from . import harness, persist
from .degradations import DatasetConfig, load_manifest, make_dataset, read_ppm, write_ppm
from .errors import ConfigError, LorexError
from .fileio import _write_atomic
from .metrics import format_table, report_line
from .restorer import AdapterTrainer, TrainConfig, build_model, pretrain_base, \
    restore, restore_auto
from .router import build_router, train_router


class _Options:
    """flags > config file > defaults."""

    def __init__(self, args):
        self.args = args
        self.cfg = configparser.ConfigParser()
        if getattr(args, "config", None):
            path = Path(args.config)
            if not path.exists():
                raise ConfigError(f"config file not found: {path}")
            try:
                self.cfg.read(path, encoding="utf-8")
            except (configparser.Error, UnicodeDecodeError) as exc:
                first_line = str(exc).splitlines()[0]
                raise ConfigError(f"cannot parse config file {path}: {first_line}") from exc

    def get(self, section: str, key: str, default):
        """The flag named ``key``, else ``[section] key`` read as the type of
        ``default``, else ``default``."""
        flag = getattr(self.args, key, None)
        if flag is not None:
            return flag
        if not self.cfg.has_option(section, key):
            return default
        cast = type(default)
        try:
            return cast(self.cfg.get(section, key))
        except (ValueError, configparser.Error) as exc:
            raise ConfigError(
                f"config [{section}] {key}: expected {cast.__name__}") from exc

    @property
    def seed(self) -> int:
        return self.get("data", "seed", DatasetConfig.seed)

    def train_config(self, section: str, stage: TrainConfig,
                     lr_key: str = "learning_rate",
                     iterations_key: str = "iterations") -> TrainConfig:
        """``stage`` with each schedule value overridden by its flag or
        ``[section]`` key, and the ``[data]`` seed."""
        return TrainConfig(
            learning_rate=self.get(section, lr_key, stage.learning_rate),
            iterations=self.get(section, iterations_key, stage.iterations),
            batch_size=self.get(section, "batch_size", stage.batch_size),
            seed=self.seed,
        )

    def strategy(self, name: str, model, router, manual_s=None) -> harness.Strategy:
        return harness.build_strategy(name, model, router, k=self.get("eval", "k", 1),
                                      seed=self.seed, manual_s=manual_s)


def _parse_list(text: str, cast, what: str) -> list:
    try:
        return [cast(v) for v in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"cannot parse {what} {text!r}") from exc


def _emit(lines: list[str], out_path: str | None) -> None:
    for line in lines:
        print(line)
    if out_path:
        _write_atomic(out_path, ("\n".join(lines) + "\n").encode("utf-8"))


# glibc's M_TOP_PAD (malloc.h): the bytes beyond a request that each heap
# growth takes from the kernel and each trim leaves mapped. glibc's default
# trims freed training buffers back to the kernel, and the next step faults
# them in again (about 100k minor faults per 40 router iterations at batch 16)
_M_TOP_PAD = -2
_TRAINING_TOP_PAD = 64 << 20


def _mallopt(param: int, value: int) -> int:
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return mallopt(param, value)


def _keep_heap_resident() -> None:
    """Keep up to 64 MiB of freed heap mapped for the rest of the process,
    where libc is glibc; elsewhere do nothing. Only training calls this."""
    if platform.libc_ver()[0] == "glibc":
        _mallopt(_M_TOP_PAD, _TRAINING_TOP_PAD)


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen_data(args) -> int:
    opt = _Options(args)
    keys = ("seed", "train_per_task", "test_per_task", "mixed_pairs", "patch")
    config = DatasetConfig(**{k: opt.get("data", k, getattr(DatasetConfig, k)) for k in keys})
    manifests = make_dataset(config, args.out)
    for split in ("train", "test", "mixed"):
        m = manifests[split]
        pairs = sum(len(t.pairs) for t in m.tasks)
        print(f"{split}: {len(m.tasks)} tasks, {pairs} pairs")
    return 0


def cmd_pretrain_base(args) -> int:
    _keep_heap_resident()
    opt = _Options(args)
    manifest = load_manifest(args.data)
    model = build_model(manifest.labels, seed=opt.seed)
    config = opt.train_config("train", harness.PRETRAIN,
                              "pretrain_learning_rate", "pretrain_iterations")
    pretrain_base(model, harness.clean_training_images(manifest), config)
    persist.save_model(args.out, model)
    print(f"saved base model ({len(manifest.labels)} tasks) to {args.out}")
    return 0


def cmd_train_lora(args) -> int:
    _keep_heap_resident()
    opt = _Options(args)
    model = persist.load_model(args.ckpt)
    manifest = load_manifest(args.data)
    targets = list(model.labels) if args.task == "all" else [args.task]
    config = opt.train_config("train", TrainConfig(), iterations_key="lora_iterations")
    for label, losses in harness.train_experts(model, manifest, targets, config).items():
        tail = losses[-50:] or [float("nan")]
        print(f"{label}: final training loss {float(np.mean(tail)):.6f}")
    persist.save_model(args.out, model)
    print(f"saved model to {args.out}")
    return 0


def cmd_train_router(args) -> int:
    _keep_heap_resident()
    opt = _Options(args)
    manifest = load_manifest(args.data)
    state = build_router(manifest.labels, opt.seed, manifest.shared_size(manifest.labels))
    train_router(state, harness.router_training_set(manifest),
                 opt.train_config("router", harness.ROUTER))
    persist.save_router(args.out, state)
    print(f"saved router ({len(state.labels)} types) to {args.out}")
    if args.eval_data:
        acc, per_task = harness.routing_accuracy(state, load_manifest(args.eval_data))
        print(f"held-out accuracy: {acc:.4f}")
        for label, value in per_task.items():
            print(f"  {label}: {value:.4f}")
    return 0


def cmd_restore(args) -> int:
    if args.auto and args.s is not None:
        raise ConfigError("--s cannot be combined with --auto")
    if not args.auto and (args.router or args.k is not None):
        raise ConfigError("--router and -K apply only with --auto")
    model = persist.load_model(args.ckpt)
    image = read_ppm(args.input)
    if args.auto:
        if not args.router:
            raise ConfigError("--auto requires --router")
        router = persist.load_router(args.router)
        restored, routed = restore_auto(model, router, image, 1 if args.k is None else args.k)
        weights = ",".join(f"{v:.4f}" for v in routed.s)
        print(f"routed weights: {weights} (K={routed.k})")
    else:
        if not args.s:
            raise ConfigError("provide --s weights or --auto")
        restored = restore(model, image, _parse_list(args.s, float, "weight vector"))
    write_ppm(args.output, restored)
    print(f"wrote {args.output}")
    return 0


def _eval_lines(results, prefix: str = "") -> tuple[list[str], list]:
    lines, rows = [], []
    for label, reports in results.items():
        for metric in ("psnr", "ssim", "psnr_degraded"):
            if metric in reports:
                name = f"{prefix}{label}"
                lines.append(report_line(name, metric, reports[metric]))
                rows.append((name, metric, reports[metric]))
    return lines, rows


def cmd_eval(args) -> int:
    if args.s is not None and args.strategy != "manual":
        raise ConfigError("--s applies only with --strategy manual")
    opt = _Options(args)
    model = persist.load_model(args.ckpt)
    router = persist.load_router(args.router) if args.router else None
    name = args.strategy or ("topk" if router is not None else "oracle")
    manual = _parse_list(args.s, float, "weight vector") if args.s else None
    strategy = opt.strategy(name, model, router, manual)
    manifest = load_manifest(args.data)
    results = harness.evaluate_restoration(model, manifest, {name: strategy})
    lines, rows = _eval_lines(results[name])
    _emit(lines, args.out)
    print(format_table(rows))
    return 0


def cmd_ablate_routing(args) -> int:
    opt = _Options(args)
    names = [s.strip() for s in args.strategies.split(",") if s.strip()]
    if not names:
        raise ConfigError(f"--strategies {args.strategies!r} names no strategy")
    repeated = [name for i, name in enumerate(names) if name in names[:i]]
    if repeated:
        raise ConfigError(f"--strategies names {repeated[0]!r} more than once")
    model = persist.load_model(args.ckpt)
    router = persist.load_router(args.router)
    strategies = {name: opt.strategy(name, model, router) for name in names}
    manifest = load_manifest(args.data)
    results = harness.evaluate_restoration(model, manifest, strategies, with_baseline=False)
    lines, rows = [], []
    for name in names:
        s_lines, s_rows = _eval_lines(results[name], prefix=f"{name}/")
        lines.extend(s_lines)
        rows.extend(s_rows)
        mean_psnr = float(np.mean([r["psnr"].mean for r in results[name].values()]))
        lines.append(f"{name}/ALL\tpsnr\t{mean_psnr:.6f}\t0.000000")
    _emit(lines, args.out)
    print(format_table(rows))
    return 0


def cmd_sweep_rank(args) -> int:
    opt = _Options(args)
    base = persist.load_model(args.ckpt)
    manifest = load_manifest(args.data)
    label = args.task or base.labels[0]
    if label not in base.labels:
        raise ConfigError(f"task {label!r} is not in the checkpoint labels")
    k = base.labels.index(label)
    task = harness.load_task_data(manifest, label)
    ranks = _parse_list(args.ranks, int, "rank list")
    if min(ranks) < 1:
        raise ConfigError(f"ranks must be >= 1, got {args.ranks!r}")
    # --iterations always has a value here (default 400), so no file key is read for it
    config = opt.train_config("train", TrainConfig())
    lines = [f"# rank sweep on {label!r}, {config.iterations} iterations"]
    for rank in ranks:
        model = build_model(base.labels, seed=config.seed, ranks=rank)
        for name in model.layers:
            model.layers[name].base_weight = base.layers[name].base_weight.copy()
            model.layers[name].base_bias = base.layers[name].base_bias.copy()
        trainer = AdapterTrainer(model, k, task, config)
        trainer.run()
        tail = trainer.losses[-50:] or [float("nan")]
        n_params = sum(p.size for p in model.adapter_params(k))
        lines.append(f"{rank}\t{n_params}\t{float(np.mean(tail)):.6f}")
    _emit(lines, args.out)
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lorex",
        description="Image restoration with composable low-rank experts.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--config", default=None, help="INI config file")

    p = sub.add_parser("gen-data", help="generate the synthetic paired dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--train-per-task", dest="train_per_task", type=int, default=None)
    p.add_argument("--test-per-task", dest="test_per_task", type=int, default=None)
    p.add_argument("--mixed-pairs", dest="mixed_pairs", type=int, default=None)
    p.add_argument("--patch", type=int, default=None)
    common(p)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("pretrain-base", help="train the frozen base as a clean autoencoder")
    p.add_argument("--data", required=True, help="train manifest")
    p.add_argument("--out", required=True)
    p.add_argument("--iterations", dest="pretrain_iterations", type=int, default=None)
    p.add_argument("--batch-size", dest="batch_size", type=int, default=None)
    p.add_argument("--lr", dest="pretrain_learning_rate", type=float, default=None)
    common(p)
    p.set_defaults(func=cmd_pretrain_base)

    p = sub.add_parser("train-lora", help="train one task's adapter set (or all)")
    p.add_argument("--task", required=True, help="task label, or 'all'")
    p.add_argument("--data", required=True, help="train manifest")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--iterations", dest="lora_iterations", type=int, default=None)
    p.add_argument("--batch-size", dest="batch_size", type=int, default=None)
    p.add_argument("--lr", dest="learning_rate", type=float, default=None)
    common(p)
    p.set_defaults(func=cmd_train_lora)

    p = sub.add_parser("train-router", help="train the degradation-aware router")
    p.add_argument("--data", required=True, help="train manifest")
    p.add_argument("--out", required=True)
    p.add_argument("--eval-data", dest="eval_data", default=None)
    p.add_argument("--iterations", type=int, default=None)
    p.add_argument("--batch-size", dest="batch_size", type=int, default=None)
    p.add_argument("--lr", dest="learning_rate", type=float, default=None)
    common(p)
    p.set_defaults(func=cmd_train_router)

    p = sub.add_parser("restore", help="restore one image")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--s", default=None, help="manual weights, e.g. 0,1,0,0,0")
    p.add_argument("--auto", action="store_true")
    p.add_argument("--router", default=None)
    p.add_argument("-K", dest="k", type=int, default=None)
    common(p)
    p.set_defaults(func=cmd_restore)

    p = sub.add_parser("eval", help="evaluate restoration quality on a manifest")
    p.add_argument("--data", required=True)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--router", default=None)
    p.add_argument("--strategy", default=None,
                   choices=["oracle", "random", "average", "top1", "top2", "topk",
                            "all", "manual"])
    p.add_argument("--s", default=None)
    p.add_argument("-K", dest="k", type=int, default=None)
    p.add_argument("--out", default=None)
    common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate-routing", help="compare routing strategies")
    p.add_argument("--data", required=True)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--router", required=True)
    p.add_argument("--strategies", default="random,average,top1,top2,all")
    p.add_argument("-K", dest="k", type=int, default=None)
    p.add_argument("--out", default=None)
    common(p)
    p.set_defaults(func=cmd_ablate_routing)

    p = sub.add_parser("sweep-rank", help="train one task at several adapter ranks")
    p.add_argument("--data", required=True)
    p.add_argument("--ckpt", required=True, help="pretrained base checkpoint")
    p.add_argument("--task", default=None)
    p.add_argument("--ranks", default="2,4,8,16")
    p.add_argument("--iterations", type=int, default=400)
    p.add_argument("--batch-size", dest="batch_size", type=int, default=None)
    p.add_argument("--lr", dest="learning_rate", type=float, default=None)
    p.add_argument("--out", default=None)
    common(p)
    p.set_defaults(func=cmd_sweep_rank)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (LorexError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
