"""The CLI contract, as properties over edge-case flag and config values.

Every run of ``sample``, ``interpolate``, ``mix`` or ``evaluate`` either
exits 0 with every written sample finite, and every run of ``ablate-steps``,
``ablate-schedulers`` or ``collapse`` exits 0 with every CSV value finite;
any other run exits 1 (a value argparse rejects) or 2 with a single
``error:`` line. No run prints a traceback, records a warning, or leaves an
``--out-dir`` behind after a non-zero exit. The draws are derandomized, so
every run checks the same examples.
"""

import contextlib
import io
import json
import math
import os
import tempfile
import warnings

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rewardtune.evalcli import cli_main
from rewardtune.inference import read_sample

# the command's own flags, with {ckpt}, {prompt} and {values} to fill in
_COMMANDS = {
    "sample": ["--checkpoint", "{ckpt}", "--prompt", "{prompt}"],
    "interpolate": ["--checkpoint-a", "{ckpt}", "--checkpoint-b", "{ckpt}",
                    "--prompt", "{prompt}", "--lambdas", "{values}"],
    "mix": ["--checkpoints", "{ckpt},{ckpt}", "--weights", "{values}", "--prompt", "{prompt}"],
    "evaluate": ["--checkpoint", "{ckpt}"],
}


def _run(argv):
    """(exit code, stdout, stderr, warnings recorded) of one ``cli_main`` run."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        # the suite makes a RuntimeWarning an exception, which cli_main
        # would report as an exit-2 line; here every warning is recorded
        warnings.simplefilter("always")
        rc = cli_main(argv)
    return rc, out.getvalue(), err.getvalue(), [str(w.message) for w in caught]


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(command=st.sampled_from(sorted(_COMMANDS)),
       w=st.sampled_from(["0", "3", "1e30", "1e300", "-1", "nan", "inf"]),
       steps=st.sampled_from(["0", "5", "2000"]),
       prompt=st.sampled_from(["1 2", "", "1 1", "30"]),
       seed=st.sampled_from(["-1", "3"]),
       values=st.sampled_from(["", "nan", "0.5,0.5", "2,-1"]))
@example(command="sample", w="3", steps="5", prompt="1 2", seed="3", values="")
@example(command="interpolate", w="0", steps="5", prompt="1 2", seed="3", values="0.5,0.5")
@example(command="mix", w="3", steps="5", prompt="1 2", seed="3", values="2,-1")
@example(command="evaluate", w="3", steps="5", prompt="", seed="3", values="")
@example(command="mix", w="1e300", steps="5", prompt="1 2", seed="3", values="0.5,0.5")
def test_sampling_commands_exit_cleanly(baseline_ckpt, command, w, steps, prompt, seed,
                                        values):
    flags = [f.format(ckpt=baseline_ckpt, prompt=prompt, values=values)
             for f in _COMMANDS[command]]
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = os.path.join(tmp, "out")
        rc, stdout, stderr, caught = _run([command, *flags, "--w", w, "--steps", steps,
                                           "--seed", seed, "--out-dir", out_dir])
        if _check_exit(rc, stdout, stderr, caught, out_dir):
            written = sorted(os.listdir(out_dir))
            assert written
            for name in written:
                if name.endswith(".f32"):
                    x, _ = read_sample(os.path.join(out_dir, name))
                    assert np.all(np.isfinite(x)), name


def _check_exit(rc, stdout, stderr, caught, out_dir):
    """The contract every run keeps; True when the run exited 0."""
    assert caught == []
    assert "Traceback" not in stdout + stderr
    if rc == 0:
        assert stderr == ""
        return True
    assert rc in (1, 2)
    assert [line for line in stderr.splitlines() if "error:" in line] \
        == [stderr.splitlines()[-1]]
    if rc == 2:
        assert stderr.count("\n") == 1 and stderr.startswith("rewardtune: error: ")
    assert not os.path.exists(out_dir)
    return False


# each experiment's flags, with {ks}, {ns} and {gamma} to fill in, and its CSV's stem
_EXPERIMENTS = {
    "ablate-steps": (["--train-k", "{ks}", "--test-n", "{ns}"], "ablate_steps"),
    "ablate-schedulers": (["--steps", "{ns}"], "ablate_schedulers"),
    "collapse": (["--gamma-clip", "{gamma}"], "collapse"),
}
_LISTS = ["", "2", "0", "2,5000"]


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(command=st.sampled_from(sorted(_EXPERIMENTS)),
       w=st.sampled_from(["0", "3", "-1", "nan", "1e300"]),
       ks=st.sampled_from(_LISTS), ns=st.sampled_from(_LISTS),
       gamma=st.sampled_from(["100", "0", "-1"]),
       seed=st.sampled_from(["-1", "3"]),
       holdout=st.sampled_from([36, 10]))
@example(command="ablate-steps", w="3", ks="2", ns="2", gamma="100", seed="3", holdout=36)
@example(command="ablate-schedulers", w="3", ks="", ns="2", gamma="100", seed="3", holdout=36)
@example(command="collapse", w="3", ks="", ns="", gamma="100", seed="3", holdout=36)
@example(command="collapse", w="3", ks="", ns="", gamma="100", seed="3", holdout=10)
def test_experiment_commands_exit_cleanly(baseline_ckpt, command, w, ks, ns, gamma, seed,
                                          holdout):
    flags, stem = _EXPERIMENTS[command]
    with tempfile.TemporaryDirectory() as tmp:
        config = os.path.join(tmp, "config.json")
        with open(config, "w", encoding="utf-8") as fh:
            json.dump({"iterations": 1, "batch_size": 1, "n_steps": 3, "k_last": 1,
                       "n_holdout_prompts": holdout}, fh)
        out_dir = os.path.join(tmp, "out")
        rc, stdout, stderr, caught = _run(
            [command, "--config", config, "--checkpoint", baseline_ckpt,
             *[f.format(ks=ks, ns=ns, gamma=gamma) for f in flags],
             "--w", w, "--seed", seed, "--out-dir", out_dir])
        if _check_exit(rc, stdout, stderr, caught, out_dir):
            with open(os.path.join(out_dir, f"{stem}.csv"), encoding="utf-8") as fh:
                rows = [line.split(",") for line in fh.read().splitlines()[1:]]
            assert rows
            for row in rows:
                assert all(math.isfinite(float(v)) for v in row[1:]), row
