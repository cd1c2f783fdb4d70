"""scipy loads only where a clip is mapped, checked in a new interpreter.

The pytest process has imported scipy long before these tests run, so each
test starts its own Python, prints one JSON line and exits.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def run_fresh(code: str, cwd: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
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
