"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload cli_workspace --seed 0 --seconds 55 --trace 0

Run from the root of a source checkout: the program is imported from its
`src/` directory. With `--trace 0` the last line holds the end-to-end
metrics; with `--trace 1` untraced and traced rounds alternate and it
holds the per-layer metrics, including the tracing overhead.
"""

import os

# before numpy is imported anywhere in this process or its children
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES_PER_ROUND = 1
REFERENCE_PER_POLARITY = 3


@dataclass
class Round:
    warmup: bool
    traced: bool
    wall: float
    cpu: float
    ops: list
    layers: dict | None
    work: Path  # the round's own workspace


def cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def os_threads() -> int | None:
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        return None
    return None


def measure_setup(workload: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter until it has built the config."""
    start = time.monotonic()
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--probe", "--workload", workload,
         "--seed", str(seed)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(done.stdout.split()[-1]) - start


def environment(np, scipy) -> dict:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "os_threads": os_threads(),
    }


def run_rounds(wl, cfg, work, seconds: float, trace: bool, spans_mod, workloads_mod):
    """A warm-up round, then whole timed rounds until the next would end after `seconds`.

    The warm-up round is checked like the others but not timed. Set-up is
    measured before each timed round, so its samples span the run as the
    rounds do. With tracing, untraced and traced rounds alternate, starting
    untraced. Each round runs in a fresh workspace of its own under `work`,
    and none is deleted before the run ends, so that removing thousands of
    files never overlaps a timed round. Returns (rounds, set-up samples).
    """
    rounds: list[Round] = []
    setup: list[float] = []
    last_tracer = None
    start = time.perf_counter()
    while True:
        warmup = not rounds
        traced = trace and not warmup and len(rounds) % 2 == 0
        if not warmup:
            setup += [measure_setup(wl.name, cfg.seed) for _ in range(SETUP_PROBES_PER_ROUND)]
        round_work = work / f"round{len(rounds)}"
        wl.prepare(round_work)
        tracer = spans_mod.Tracer() if traced else None
        cpu0, t0 = cpu_seconds(), time.perf_counter()
        if tracer is None:
            produced = wl.execute(cfg, round_work)
        else:
            with tracer.installed(), tracer.span("round"):
                produced = wl.execute(cfg, round_work, tracer)
        wall, cpu = time.perf_counter() - t0, cpu_seconds() - cpu0
        layers = None
        if tracer is not None:
            tracer.replay_coreg()
            layers = tracer.per_layer(workloads_mod.workspace_bytes(round_work))
            last_tracer = tracer
        rounds.append(Round(warmup, traced, wall, cpu, wl.collect(round_work, produced), layers,
                            round_work))
        elapsed = time.perf_counter() - start
        enough = len(rounds) >= (3 if trace else 2)
        if enough and elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            break
    if last_tracer is not None:
        last_tracer.dump(work.parent / f"spans-{wl.name}-seed{cfg.seed}.jsonl")
    return rounds, setup


def test_size(cfg) -> int:
    return max(1, int(round(cfg.test_fraction * cfg.synth.n_customers)))


def check_rounds(cfg, rounds, truth, outcomes, checks):
    """Per-operation checks: oracle, properties and byte-identity with round 1.

    Returns (attempted, failed, errors, problems, quality of round 1's
    strategies): errors are operations that raised, problems failed checks.
    """
    n_test = test_size(cfg)
    attempted = failed = 0
    errors, problems, quality = [], [], {}
    first = {op.name: op for op in rounds[0].ops}
    for number, rnd in enumerate(rounds, 1):
        for op in rnd.ops:
            attempted += 1
            if op.error is not None:
                failed += 1
                errors.append(f"round {number} {op.name} raised: {op.error[-300:]}")
                continue
            found = []
            if op.digests != first[op.name].digests:
                changed = sorted(k for k in set(op.digests) | set(first[op.name].digests)
                                 if op.digests.get(k) != first[op.name].digests.get(k))
                kind = "traced" if rnd.traced else "untraced"
                found.append(f"{op.name}: {kind} round {number} changed {changed[:5]}")
            found += op_checks(cfg, op, truth, outcomes, n_test, checks, quality)
            if found:
                failed += 1
                problems += [f"round {number} {p}" for p in found]
    return attempted, failed, errors, problems, quality


def strategy_outputs(op):
    """(strategy, assignments bytes, report text) of an `evaluate` command."""
    strategy = op.name.split("_", 1)[1]
    asg = op.artifacts.get(f"reports/assignments_{strategy}.csv")
    rep = op.artifacts.get(f"reports/report_{strategy}.txt")
    if asg is None or rep is None:
        return strategy, None, None
    return strategy, asg, rep.decode("utf-8")


def op_checks(cfg, op, truth, outcomes, n_test, checks, quality) -> list[str]:
    if op.name == "gen":
        wavs = sum(k.startswith("data/audio/") for k in op.digests)
        missing = [f for f in ("data/table.csv", "data/manifest.csv", "data/ground_truth.csv")
                   if f not in op.digests]
        if missing or wavs != cfg.synth.n_customers:
            return [f"gen: missing {missing}, {wavs} WAV files for {cfg.synth.n_customers} customers"]
        return []
    if op.name.startswith("train_"):
        blob = f"models/{op.name[len('train_'):]}.bin"
        return [] if blob in op.digests else [f"{op.name}: no {blob}"]
    strategy, asg, rep = strategy_outputs(op)
    if asg is None:
        return [f"{op.name}: no assignments or report written"]
    found, q = checks.check_strategy(strategy, asg, rep, truth, outcomes, cfg.translation, n_test)
    quality.setdefault(strategy, q)
    if strategy == "hybrid" and "models/churn_hybrid.bin" not in op.digests:
        found.append("evaluate_hybrid: no models/churn_hybrid.bin")
    return found


def check_feature_maps(cfg, clips, af, checks):
    """Reference map and HPSS sum on a fixed sample covering both polarities.

    Returns (problems, (name, clip, program image) of the first sampled clip).
    """
    params = cfg.features
    sample, both = checks.pick_clips(clips, params, REFERENCE_PER_POLARITY)
    problems = [] if both else ["reference sample lacks one emotion polarity"]
    first = None
    for name, clip in sample:
        image = af.build_feature_map(clip, params).image
        first = first or (name, clip, image)
        problems += checks.check_map(name, image, clip, params)
        spec = af.stft_magnitude(clip, params.frame_size, params.hop_size)
        harm, perc = af.hpss_median(spec, params.kernel_time, params.kernel_freq)
        problems += checks.check_hpss_sum(name, spec.magnitudes, harm.magnitudes, perc.magnitudes)
    return problems, first


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "churnfusion" / "__init__.py").is_file():
        print(f"error: no churnfusion sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np
    import scipy

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    if args.probe:
        wl.config(args.seed)
        print(time.monotonic())
        return 0

    import checks
    import spans
    from churnfusion import audio_features as af

    cfg = wl.config(args.seed)
    work = ROOT / ".bench_work" / f"{wl.name}-{os.getpid()}"
    try:
        rounds, setup = run_rounds(wl, cfg, work, args.seconds, bool(args.trace), spans, workloads)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        truth, outcomes, clips = workloads.reference_inputs(rounds[-1].work)
        attempted, failed, errors, problems, quality = check_rounds(
            cfg, rounds, truth, outcomes, checks
        )
        map_problems, first_clip = check_feature_maps(cfg, clips, af, checks)
        problems += map_problems

        # self-test on round 1's last evaluated strategy and first sampled clip
        evaluating = [op for op in rounds[0].ops
                      if op.error is None and op.name.startswith("evaluate_")]
        self_test = {}
        if evaluating and first_clip is not None:
            strategy, asg, rep = strategy_outputs(evaluating[-1])
            _, clip, image = first_clip
            self_test = checks.self_test(strategy, asg, rep, truth, outcomes, cfg.translation,
                                         test_size(cfg), image, clip, cfg.features)
        if not self_test or not all(self_test.values()):
            problems.append(f"self-test failed: {self_test}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    untraced = [r for r in rounds if not r.traced and not r.warmup]
    if args.trace:
        traced = [r for r in rounds if r.traced]
        metrics = {
            key: statistics.median(r.layers[key] for r in traced) for key in traced[0].layers
        }
        metrics["trace.overhead_s"] = (
            statistics.median(r.wall for r in traced) - statistics.median(r.wall for r in untraced)
        )
        units = {k: spans.UNITS[k] for k in metrics}
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(r.wall for r in untraced),
            "cpu_s": statistics.median(r.cpu for r in untraced),
            "peak_rss_mb": peak_rss_mb,
        }
        units = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}

    print(json.dumps({"env": environment(np, scipy)}))
    print(json.dumps({
        "workload": wl.name, "seed": args.seed,
        "rounds": [{"warmup": r.warmup, "traced": r.traced, "wall_s": r.wall, "cpu_s": r.cpu}
                   for r in rounds],
        "setup_s": setup, "self_test": self_test, "quality": quality, "errors": errors[:10], "problems": problems[:20],
    }))
    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
