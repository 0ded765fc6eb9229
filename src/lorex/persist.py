"""Packing models and routers into the checkpoint container.

Tensor naming: ``base.<layer>.weight|bias`` for frozen base parameters,
``adapter.<task>.<layer>.up|down`` for the factors of task k's adapter on
one layer, and ``router.conv<i>.weight|bias`` / ``router.bank`` /
``router.patch`` for the router. Model and router live in separate files
by default but may share one container; the loaders pick their prefixes.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .checkpoint import CheckpointHeader, load_checkpoint, save_checkpoint
from .errors import CheckpointError, ConfigError, ShapeError
from .lora import AdaptedLayer, LoraAdapter
from .numerics import DTYPE, Tensor
from .restorer import ARCH, KERNEL, LAYER_NAMES, RestorerModel
from .router import ENCODER_PARAM_DIMS, LATENT_WIDTH, RouterState


def model_header(model: RestorerModel) -> CheckpointHeader:
    names = model.adapted_layer_names()
    ranks = tuple(model.layers[n].adapters[0].rank for n in names)
    return CheckpointHeader(labels=model.labels, layer_names=names, ranks=ranks)


def model_tensors(model: RestorerModel) -> dict[str, Tensor]:
    out: dict[str, Tensor] = {}
    for name in LAYER_NAMES:
        layer = model.layers[name]
        out[f"base.{name}.weight"] = layer.base_weight
        if layer.base_bias is not None:
            out[f"base.{name}.bias"] = layer.base_bias
        for k, adapter in enumerate(layer.adapters):
            out[f"adapter.{k}.{name}.up"] = adapter.b
            out[f"adapter.{k}.{name}.down"] = adapter.a
    return out


def save_model(path, model: RestorerModel) -> None:
    save_checkpoint(path, model_header(model), model_tensors(model))


def model_from_checkpoint(header: CheckpointHeader,
                          tensors: dict[str, Tensor]) -> RestorerModel:
    layers: dict[str, AdaptedLayer] = {}
    rank_by_layer = dict(zip(header.layer_names, header.ranks))
    unknown = [name for name in header.layer_names if name not in LAYER_NAMES]
    if unknown:
        raise CheckpointError(f"checkpoint header names unknown layer {unknown[0]!r}")
    for name, cin, cout, stride in ARCH:
        try:
            weight = tensors[f"base.{name}.weight"]
            bias = tensors[f"base.{name}.bias"]
        except KeyError as exc:
            raise CheckpointError(f"checkpoint is missing base layer {name!r}") from exc
        if weight.dims != (cout, cin, KERNEL, KERNEL) or bias.dims != (cout,):
            raise CheckpointError(
                f"layer {name!r} has dims {weight.dims} and {bias.dims}, expected "
                f"{(cout, cin, KERNEL, KERNEL)} and {(cout,)}")
        factors = []
        for k in range(header.task_count if name in rank_by_layer else 0):
            try:
                factors.append((tensors[f"adapter.{k}.{name}.up"],
                                tensors[f"adapter.{k}.{name}.down"]))
            except KeyError as exc:
                raise CheckpointError(
                    f"checkpoint is missing adapter {k} for layer {name!r}") from exc
        try:
            adapters = [LoraAdapter(b=up, a=down, rank=rank_by_layer[name])
                        for up, down in factors]
            layers[name] = AdaptedLayer(kind="conv", base_weight=weight, base_bias=bias,
                                        adapters=adapters, stride=stride, padding="same")
        except (ShapeError, ConfigError) as exc:
            raise CheckpointError(f"adapters of layer {name!r} do not fit: {exc}") from exc
    return RestorerModel(layers=layers, labels=header.labels)


def load_model(path) -> RestorerModel:
    header, tensors = load_checkpoint(path)
    return model_from_checkpoint(header, tensors)


def router_tensors(state: RouterState) -> dict[str, Tensor]:
    out = {f"router.{k}": v for k, v in state.params.items()}
    out["router.bank"] = state.bank
    out["router.patch"] = Tensor(np.asarray(state.patch, DTYPE))
    return out


def save_router(path, state: RouterState) -> None:
    header = CheckpointHeader(labels=state.labels)
    save_checkpoint(path, header, router_tensors(state))


def router_from_checkpoint(header: CheckpointHeader,
                           tensors: dict[str, Tensor]) -> RouterState:
    params = {}
    for name, t in tensors.items():
        if name.startswith("router.conv"):
            params[name[len("router."):]] = t
    if not params:
        raise CheckpointError("checkpoint contains no router parameters")
    try:
        bank = tensors["router.bank"]
        patch_t = tensors["router.patch"]
    except KeyError as exc:
        raise CheckpointError("checkpoint is missing router bank or patch") from exc
    if patch_t.dims != (2,) or (patch_t.data < 1).any() or (patch_t.data % 1).any():
        raise CheckpointError(
            f"router.patch must be two positive integers, got {patch_t.data.tolist()}")
    if bank.data.ndim != 2 or bank.dims[0] != LATENT_WIDTH:
        raise CheckpointError(
            f"router.bank has dims {bank.dims}, expected ({LATENT_WIDTH}, task count)")
    if set(params) != set(ENCODER_PARAM_DIMS):
        raise CheckpointError(f"router encoder tensors {sorted(params)} do not match "
                              f"the expected {sorted(ENCODER_PARAM_DIMS)}")
    for name, dims in ENCODER_PARAM_DIMS.items():
        if params[name].dims != dims:
            raise CheckpointError(
                f"router.{name} has dims {params[name].dims}, expected {dims}")
    patch = (int(patch_t.data[0]), int(patch_t.data[1]))
    return RouterState(params=params, bank=bank, labels=header.labels, patch=patch)


def load_router(path) -> RouterState:
    header, tensors = load_checkpoint(path)
    return router_from_checkpoint(header, tensors)


def base_digest(model: RestorerModel) -> str:
    """SHA-256 over the frozen base parameters, for freeze verification."""
    h = hashlib.sha256()
    for name in LAYER_NAMES:
        layer = model.layers[name]
        h.update(layer.base_weight.data.tobytes())
        if layer.base_bias is not None:
            h.update(layer.base_bias.data.tobytes())
    return h.hexdigest()


def adapter_digest(model: RestorerModel, k: int) -> str:
    """SHA-256 over one task's adapter factors."""
    h = hashlib.sha256()
    for name in model.adapted_layer_names():
        adapter = model.layers[name].adapters[k]
        h.update(adapter.b.data.tobytes())
        h.update(adapter.a.data.tobytes())
    return h.hexdigest()
