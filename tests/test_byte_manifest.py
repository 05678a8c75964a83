"""The committed byte manifest: SHA-256 digests of the trained bytes.

``byte_manifest.json`` holds one digest per entry: the seed-42 baseline
state, a short ``run_training`` state and ``metrics.csv`` in each regime,
the same two of the golden 500-iteration tune (criterion 4's), and the output trees of ``sample``, ``interpolate``, ``mix`` and
``evaluate`` on the baseline checkpoint. Each test recomputes one entry and
compares it with the committed digest, so a change that moves a single bit
of any of them fails here by name, not only within one commit (criterion 9).
One more test reruns the three short regime runs in a subprocess with
OpenBLAS limited to one thread, against the same digests.
A mismatch is never skipped; the message names the entry, the old digest,
the new one, and the NumPy version and BLAS core the manifest was made on.

An entry changes only in a change of its own that says why. To rewrite the
manifest from the current code (it builds the seed-42 baseline, about 25 s):

    PYTHONPATH=src python tests/test_byte_manifest.py
"""

import ctypes
import glob
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from rewardtune.evalcli import cli_main
from rewardtune.finetune import TrainConfig, run_training
from rewardtune.models import save_checkpoint, state_digest
from test_acceptance import GOLDEN_TUNE

MANIFEST = Path(__file__).resolve().parent / "byte_manifest.json"

# few-iteration runs, one per regime: prompt-chain ddim at w=1, unet-chain
# euler under guidance, and the direct regime; and criterion 4's golden tune
RUNS = {
    "golden-tune": GOLDEN_TUNE,
    "prompt-chain": TrainConfig(iterations=3, batch_size=2, n_steps=6, k_last=2, seed=3),
    "unet-chain": TrainConfig(regime="unet-chain", iterations=3, batch_size=2, n_steps=6,
                              k_last=2, chain_cfg_scale=3.0, sampler="euler", seed=3),
    "direct": TrainConfig(regime="direct", iterations=3, batch_size=2, seed=3),
}


def _blas_core():
    """The OpenBLAS core NumPy runs on, or its build line when the library
    cannot be asked."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_corename64_", "openblas_get_corename"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_char_p
                return f"{blas['name']} {blas['version']} {fn().decode()}"
    return f"{blas['name']} {blas['version']} {blas.get('openblas configuration', '')}".strip()


def _tree_digest(root):
    """One digest over every file under ``root``: relative path and bytes."""
    h = hashlib.sha256()
    for path in sorted(Path(root).rglob("*")):
        if path.is_file():
            data = path.read_bytes()
            h.update(f"{path.relative_to(root).as_posix()}\0{len(data)}\0".encode() + data)
    return h.hexdigest()


def _file_digest(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def run_entries(baseline_state, work, names):
    """The state and ``metrics.csv`` entries of the ``RUNS`` named in
    ``names``, each trained from the baseline state into ``work``/name."""
    entries = {}
    for name in names:
        state, _ = run_training(RUNS[name], baseline_state, out_dir=str(Path(work) / name))
        entries[f"{name}/state"] = state_digest(state)
        entries[f"{name}/metrics.csv"] = _file_digest(Path(work) / name / "metrics.csv")
    return entries


def compute_entries(baseline_state, ckpt, work):
    """Every manifest entry's digest, from the baseline state, its
    checkpoint file ``ckpt`` (named ``baseline.rcpt``, the model name
    ``evaluate`` reports) and a scratch directory ``work``."""
    work = Path(work)
    entries = {"baseline_state": state_digest(baseline_state)}
    entries.update(run_entries(baseline_state, work, RUNS))
    tuned = str(work / "prompt-chain" / "model.rcpt")
    commands = {
        "sample": ["sample", "--checkpoint", ckpt, "--prompt", "1 2", "--w", "3",
                   "--steps", "6"],
        "interpolate": ["interpolate", "--checkpoint-a", ckpt, "--checkpoint-b", tuned,
                        "--prompt", "2 5", "--lambdas", "0,0.5,1", "--steps", "6"],
        "mix": ["mix", "--checkpoints", f"{ckpt},{tuned}", "--weights", "0.5,0.5",
                "--prompt", "3", "--steps", "6"],
        "evaluate": ["evaluate", "--checkpoint", ckpt, "--steps", "4"],
    }
    for name, argv in commands.items():
        out = work / "cli" / name
        rc = cli_main(argv + ["--out-dir", str(out)])
        assert rc == 0, f"{name} exited {rc}"
        entries[f"cli/{name}"] = _tree_digest(out)
    return entries


@pytest.fixture(scope="module")
def computed(baseline_state, baseline_ckpt, tmp_path_factory):
    assert os.path.basename(baseline_ckpt) == "baseline.rcpt"
    return compute_entries(baseline_state, baseline_ckpt, tmp_path_factory.mktemp("manifest"))


def _manifest():
    return json.loads(MANIFEST.read_text())


# a missing manifest fails test_manifest_lists_every_entry
ENTRIES = sorted(_manifest()["entries"]) if MANIFEST.exists() else []


def test_manifest_lists_every_entry(computed):
    assert sorted(_manifest()["entries"]) == sorted(computed)


@pytest.mark.parametrize("name", ENTRIES)
def test_entry_bytes_unchanged(name, computed):
    manifest = _manifest()
    old, new = manifest["entries"][name], computed.get(name)
    assert new == old, (
        f"byte manifest entry {name!r} moved: {old} -> {new} (manifest made on NumPy "
        f"{manifest['numpy']}, {manifest['blas']}; here NumPy {np.__version__}, {_blas_core()})")


def test_short_runs_unchanged_on_one_blas_thread(baseline_ckpt, tmp_path):
    # the bytes do not depend on how many threads OpenBLAS runs: a fresh
    # process limited to one retrains the three short runs from the
    # baseline checkpoint and gets the committed digests
    script = ("import json, sys\n"
              "from rewardtune.models import load_checkpoint\n"
              "from test_byte_manifest import run_entries\n"
              "print(json.dumps(run_entries(load_checkpoint(sys.argv[1]), sys.argv[2], "
              "sys.argv[3:])))")
    here = Path(__file__).resolve().parent
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([str(here.parent / "src"), str(here)]))
    names = ["prompt-chain", "unet-chain", "direct"]
    proc = subprocess.run([sys.executable, "-c", script, baseline_ckpt, str(tmp_path), *names],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    manifest = _manifest()["entries"]
    got = json.loads(proc.stdout)
    assert got == {name: manifest[name] for name in got} and len(got) == 2 * len(names)


if __name__ == "__main__":
    from rewardtune.pretrain import make_pretrained_baseline

    baseline = make_pretrained_baseline(seed=42)
    with tempfile.TemporaryDirectory() as tmp:
        ckpt = os.path.join(tmp, "baseline.rcpt")
        save_checkpoint(baseline, ckpt)
        entries = compute_entries(baseline, ckpt, os.path.join(tmp, "work"))
    MANIFEST.write_text(json.dumps({"numpy": np.__version__, "blas": _blas_core(),
                                    "entries": entries}, indent=2, sort_keys=True) + "\n")
    print(f"wrote {MANIFEST} ({len(entries)} entries)", file=sys.stderr)
