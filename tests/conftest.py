"""Shared fixtures: one pretrained baseline, built once per test session."""

import hashlib
import os
from pathlib import Path

import pytest

from rewardtune.data import world_from_state
from rewardtune.models import (
    DenoiserParams,
    ImageEncoderParams,
    TextEncoderParams,
    load_checkpoint,
    save_checkpoint,
)
from rewardtune.pretrain import make_pretrained_baseline

BASELINE_SEED = 42
PACKAGE_DIR = Path(__file__).resolve().parent.parent / "src" / "rewardtune"


def _package_hash():
    """Short hash of the package sources, so a cached baseline built by
    other code is never reused."""
    h = hashlib.sha256()
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


@pytest.fixture(scope="session")
def baseline_state():
    """Merged world + pretrained text/image/denoiser state at seed 42.

    Building runs both pretraining stages (about 30 seconds on a 2-core
    machine). Set REWARDTUNE_TEST_CACHE to a directory to reuse the
    checkpoint across pytest invocations while iterating locally; the file
    name carries a hash of the package sources.
    """
    cache_dir = os.environ.get("REWARDTUNE_TEST_CACHE")
    if cache_dir:
        name = f"baseline_seed{BASELINE_SEED}_{_package_hash()}.rcpt"
        path = os.path.join(cache_dir, name)
        if os.path.exists(path):
            return load_checkpoint(path)
    state = make_pretrained_baseline(seed=BASELINE_SEED)
    if cache_dir:
        os.makedirs(cache_dir, exist_ok=True)
        save_checkpoint(state, path)
    return state


@pytest.fixture(scope="session")
def baseline_world(baseline_state):
    return world_from_state(baseline_state)


@pytest.fixture(scope="session")
def baseline_ckpt(baseline_state, tmp_path_factory):
    """The baseline saved to disk once per session, for CLI tests."""
    path = tmp_path_factory.mktemp("ckpt") / "baseline.rcpt"
    save_checkpoint(baseline_state, str(path))
    return str(path)


# Parameter-set fixtures are per-test: training steps replace tensors inside
# the returned set, so sharing one object across tests would leak state. The
# underlying arrays are never written in place, so building from the shared
# state dict each time is safe and cheap.


@pytest.fixture()
def baseline_text(baseline_state):
    return TextEncoderParams.from_state(baseline_state)


@pytest.fixture()
def baseline_image(baseline_state):
    return ImageEncoderParams.from_state(baseline_state)


@pytest.fixture()
def baseline_denoiser(baseline_state):
    return DenoiserParams.from_state(baseline_state)
