"""Checks run in a new interpreter: scipy loads only where a clip is mapped,
and a helper that dies breaks the map call rather than hanging it.

The pytest process has imported scipy long before these tests run, and a
hang must end in a timeout, not stall the suite, so each test starts its
own Python, prints one JSON line and exits.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def run_fresh(code: str, cwd: Path, timeout: float = 300) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=timeout,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_tabular_commands_load_no_scipy(tmp_path):
    (tmp_path / "config.txt").write_text(
        "seed = 3\nrfe_k = 4\nsynth.n_customers = 60\nsynth.labeled_fl_fraction = 0.3\n"
        "synth.clip_duration_s = 0.5\ncoreg.max_iterations = 1\nchurn_train.epochs = 5\n",
        encoding="utf-8",
    )
    out = run_fresh(
        """
        import contextlib, io, json, sys

        def scipy_modules():
            return sorted(m for m in sys.modules if m.startswith("scipy"))

        from churnfusion import cli
        loaded = {"import": scipy_modules()}
        codes = {}
        for args in (["gen"], ["train", "fl"], ["train", "churn"], ["evaluate", "none"]):
            with contextlib.redirect_stdout(io.StringIO()):
                codes[" ".join(args)] = cli.main(args + ["--out", "ws", "--config", "config.txt"])
            loaded[" ".join(args)] = scipy_modules()
        print(json.dumps({"codes": codes, "loaded": loaded}))
        """,
        tmp_path,
    )
    assert set(out["codes"].values()) == {0}, out["codes"]
    assert out["loaded"] == dict.fromkeys(["import", *out["codes"]], [])


def test_scipy_loads_before_the_pool_forks(tmp_path):
    out = run_fresh(
        """
        import json, multiprocessing, os, sys

        from churnfusion import audio_features as af
        from churnfusion.synth import SynthConfig, generate_cohort

        seen = []
        get_context = multiprocessing.get_context

        def recording_get_context(method=None):
            seen.append("scipy.ndimage" in sys.modules)
            return get_context(method)

        cohort = generate_cohort(SynthConfig(n_customers=20, clip_duration_s=0.5, seed=4))
        clips = [cohort.audio_clips[ref] for ref in sorted(cohort.audio_clips)]
        before = "scipy.ndimage" in sys.modules
        os.sched_getaffinity = lambda pid: {0, 1}
        af._threads = lambda: 1
        multiprocessing.get_context = recording_get_context
        forked = [m.image.tobytes() for m in af.build_feature_maps(clips)]
        serial = [af.build_feature_map(c).image.tobytes() for c in clips]
        print(json.dumps({"before": before, "seen": seen, "equal": forked == serial}))
        """,
        tmp_path,
    )
    assert out == {"before": False, "seen": [True], "equal": True}


def test_a_helper_that_dies_breaks_the_pool_rather_than_hanging(tmp_path):
    out = run_fresh(
        """
        import json, multiprocessing, os
        from concurrent.futures.process import BrokenProcessPool

        from churnfusion import audio_features as af
        from churnfusion.synth import SynthConfig, generate_cohort

        cohort = generate_cohort(SynthConfig(n_customers=20, clip_duration_s=0.5, seed=4))
        clips = [cohort.audio_clips[ref] for ref in sorted(cohort.audio_clips)]
        os.sched_getaffinity = lambda pid: {0, 1}
        af._threads = lambda: 1
        caller, build = os.getpid(), af.build_feature_map

        def dies_in_a_helper(clip, params):
            if os.getpid() != caller:
                os._exit(3)  # as an OOM kill or a segfault would end it
            return build(clip, params)

        af.build_feature_map = dies_in_a_helper
        try:
            af.build_feature_maps(clips)
            raised = None
        except BrokenProcessPool as exc:
            raised = type(exc).__name__
        print(json.dumps({"raised": raised, "children": len(multiprocessing.active_children())}))
        """,
        tmp_path,
        timeout=60,
    )
    assert out == {"raised": "BrokenProcessPool", "children": 0}


def test_a_helper_that_dies_in_train_ser_ends_the_command_with_an_error(tmp_path):
    (tmp_path / "config.txt").write_text(
        "synth.n_customers = 20\nsynth.clip_duration_s = 0.5\nser_corpus_per_class = 4\n"
        "ser_train.epochs = 1\n",
        encoding="utf-8",
    )
    out = run_fresh(
        """
        import contextlib, io, json, multiprocessing, os

        from churnfusion import audio_features as af
        from churnfusion import cli, synth

        args = ["--out", "ws", "--config", "config.txt"]
        with contextlib.redirect_stdout(io.StringIO()):
            gen = cli.main(["gen", *args])
        os.sched_getaffinity = lambda pid: {0, 1}
        af._threads = lambda: 1
        caller, make = os.getpid(), synth.synth_audio

        def dies_in_a_helper(*a):
            if os.getpid() != caller:
                os._exit(3)  # as an OOM kill or a segfault would end it
            return make(*a)

        synth.synth_audio = dies_in_a_helper
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(["train", "ser", *args])
        print(json.dumps({
            "gen": gen, "code": code, "stderr": err.getvalue(),
            "children": len(multiprocessing.active_children()),
            "model": os.path.exists("ws/models/ser.bin"),
        }))
        """,
        tmp_path,
        timeout=120,
    )
    assert out["stderr"].startswith("error: "), out["stderr"]
    assert {k: out[k] for k in ("gen", "code", "children", "model")} == {
        "gen": 0, "code": 1, "children": 0, "model": False,
    }
