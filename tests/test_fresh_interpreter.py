"""Checks run in a new interpreter: no command loads scipy, forked maps
equal serial maps, back-to-back map calls all fork, tone clips keep their
bytes at any BLAS thread count, and a helper that dies breaks the map call
rather than hanging it.

The pytest process has imported scipy, as the tests' oracle, long before
these tests run, and a hang must end in a timeout, not stall the suite, so
each test starts its own Python, prints one JSON line and exits.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def run_fresh(code: str, cwd: Path, timeout: float = 300, env: dict | None = None) -> dict:
    """Run `code` in a new Python; a None in `env` removes that variable."""
    env = {**os.environ, **(env or {})}
    env = {name: value for name, value in env.items() if value is not None}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=timeout,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


COMMANDS = (
    "gen", "train fl", "train ser", "train churn", "evaluate none", "evaluate late",
    "evaluate hybrid", "compare", "report",
)


def test_no_command_loads_scipy(tmp_path):
    (tmp_path / "config.txt").write_text(
        "seed = 3\nseeds = 0,1\nrfe_k = 4\nser_corpus_per_class = 4\nsynth.n_customers = 60\n"
        "synth.labeled_fl_fraction = 0.3\nsynth.clip_duration_s = 0.5\ncoreg.max_iterations = 1\n"
        "churn_train.epochs = 5\nser_train.epochs = 5\n",
        encoding="utf-8",
    )
    out = run_fresh(
        f"""
        import contextlib, io, json, sys

        def scipy_modules():
            return sorted(m for m in sys.modules if m.startswith("scipy"))

        from churnfusion import cli
        loaded = {{"import": scipy_modules()}}
        codes = {{}}
        for command in {COMMANDS!r}:
            with contextlib.redirect_stdout(io.StringIO()):
                codes[command] = cli.main(command.split() + ["--out", "ws", "--config", "config.txt"])
            loaded[command] = scipy_modules()
        print(json.dumps({{"codes": codes, "loaded": loaded}}))
        """,
        tmp_path,
    )
    assert out["codes"] == dict.fromkeys(COMMANDS, 0)
    assert out["loaded"] == dict.fromkeys(["import", *COMMANDS], [])


def test_forked_maps_equal_serial_maps_without_scipy(tmp_path):
    out = run_fresh(
        """
        import json, multiprocessing, os, sys

        from churnfusion import audio_features as af
        from churnfusion.synth import SynthConfig, generate_cohort

        forks = []
        get_context = multiprocessing.get_context
        multiprocessing.get_context = lambda method=None: forks.append(method) or get_context(method)
        cohort = generate_cohort(SynthConfig(n_customers=20, clip_duration_s=0.5, seed=4))
        clips = [cohort.audio_clips[ref] for ref in sorted(cohort.audio_clips)]
        os.sched_getaffinity = lambda pid: {0, 1}
        af._threads = lambda: 1
        forked = [m.image.tobytes() for m in af.build_feature_maps(clips)]
        serial = [af.build_feature_map(c).image.tobytes() for c in clips]
        print(json.dumps({
            "forks": forks, "equal": forked == serial,
            "scipy": sorted(m for m in sys.modules if m.startswith("scipy")),
        }))
        """,
        tmp_path,
    )
    assert out == {"forks": ["fork"], "equal": True, "scipy": []}


def test_back_to_back_map_calls_all_fork(tmp_path):
    # the pool's exiting threads linger in /proc/self/task after it shuts
    # down; a call that counted them would map serially
    out = run_fresh(
        """
        import json, multiprocessing, os

        from churnfusion import audio_features as af
        from churnfusion.synth import SynthConfig, generate_cohort

        forks, threads = [], []
        get_context = multiprocessing.get_context
        multiprocessing.get_context = lambda method=None: forks.append(method) or get_context(method)
        cohort = generate_cohort(SynthConfig(n_customers=20, clip_duration_s=0.5, seed=4))
        clips = [cohort.audio_clips[ref] for ref in sorted(cohort.audio_clips)]
        os.sched_getaffinity = lambda pid: {0, 1}
        for _ in range(6):
            threads.append(af._threads())
            af.build_feature_maps(clips)
        print(json.dumps({"forks": len(forks), "threads": threads}))
        """,
        tmp_path,
        timeout=120,
        env={"OPENBLAS_NUM_THREADS": "1"},
    )
    assert out == {"forks": 6, "threads": [1] * 6}


def test_tone_clip_bytes_do_not_depend_on_blas_threads(tmp_path):
    # tone clips sum their sinusoids with a BLAS-free einsum. A BLAS product
    # could give other bytes at another thread count; `@` in its place gave
    # equal bytes at 1 and 2 OpenBLAS threads on a 2-core box, but moved the
    # float clips, which the map goldens in test_audio_features catch
    code = """
        import hashlib, json, os

        from churnfusion.synth import synth_audio

        digest = hashlib.sha256()
        for emotion in ("Happiness", "Neutral"):
            for seed in range(3):
                for duration in (0.5, 1.0, 10.0):
                    digest.update(synth_audio(emotion, duration, seed).samples.tobytes())
        threads = len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None
        print(json.dumps({"sha256": digest.hexdigest(), "threads": threads}))
        """
    one = run_fresh(code, tmp_path, timeout=120, env={"OPENBLAS_NUM_THREADS": "1"})
    default = run_fresh(code, tmp_path, timeout=120, env={"OPENBLAS_NUM_THREADS": None})
    assert one["sha256"] == default["sha256"], (one, default)


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
