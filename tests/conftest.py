"""Shared fixtures.

Unit tests use only small, fast fixtures. The session-scoped pipeline
fixtures (dataset, pretrained base, fully trained experts, trained router)
are built lazily on first use by the acceptance suite and reused across
criteria; their wall-clock build times are recorded for the runtime
budgets.
"""

import contextlib
import os
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import settings

from lorex import persist
from lorex.degradations import DatasetConfig, make_dataset
from lorex.harness import PRETRAIN, ROUTER, clean_training_images, router_training_set, \
    train_experts
from lorex.restorer import TrainConfig, build_model, pretrain_base
from lorex.router import build_router, train_router

MASTER_SEED = 7

# `pytest --hypothesis-profile=ci`: the same examples on every run, a
# bounded count, and no per-example deadline on a shared machine
settings.register_profile("ci", derandomize=True, deadline=None, max_examples=200)


@contextlib.contextmanager
def usable_cpus(n: int):
    """Restrict this process to its first ``n`` usable CPUs, which sets the
    number of evaluation and expert-training workers and of pretraining and
    router-training processes; skips the test where fewer CPUs are usable."""
    before = os.sched_getaffinity(0)
    if len(before) < n:
        pytest.skip(f"needs {n} usable CPUs, has {len(before)}")
    os.sched_setaffinity(0, sorted(before)[:n])
    try:
        yield
    finally:
        os.sched_setaffinity(0, before)


@pytest.fixture(autouse=True)
def no_child_left():
    """Fail a test that leaves a forked child running or unreaped."""
    yield
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail("the test left a forked child running or unreaped")


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def timings():
    return {}


@pytest.fixture(scope="session")
def workspace(tmp_path_factory):
    return tmp_path_factory.mktemp("pipeline")


@pytest.fixture(scope="session")
def dataset(workspace, timings):
    t0 = time.time()
    manifests = make_dataset(DatasetConfig(seed=MASTER_SEED), workspace / "data")
    timings["dataset"] = time.time() - t0
    return manifests


@pytest.fixture(scope="session")
def base_model_path(workspace, dataset, timings):
    t0 = time.time()
    model = build_model(dataset["train"].labels, seed=MASTER_SEED)
    pretrain_base(model, clean_training_images(dataset["train"]),
                  replace(PRETRAIN, seed=MASTER_SEED))
    path = workspace / "base.uirl"
    persist.save_model(path, model)
    timings["pretrain"] = time.time() - t0
    return path


@pytest.fixture(scope="session")
def trained_model_path(workspace, dataset, base_model_path, timings):
    t0 = time.time()
    model = persist.load_model(base_model_path)
    train_experts(model, dataset["train"], model.labels, TrainConfig(seed=MASTER_SEED))
    path = workspace / "trained.uirl"
    persist.save_model(path, model)
    timings["train_lora_all"] = time.time() - t0
    return path


@pytest.fixture(scope="session")
def trained_model(trained_model_path):
    return persist.load_model(trained_model_path)


@pytest.fixture(scope="session")
def trained_router(workspace, dataset, timings):
    t0 = time.time()
    state = build_router(dataset["train"].labels, seed=MASTER_SEED)
    train_router(state, router_training_set(dataset["train"]),
                 replace(ROUTER, seed=MASTER_SEED))
    persist.save_router(workspace / "router.uirl", state)
    timings["train_router"] = time.time() - t0
    return state
