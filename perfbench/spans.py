"""Span tracing from outside the program.

A `Tracer` replaces chosen public functions of `churnfusion` with wrappers
that record one span per call (name, start, end, parent span). Every
module attribute bound to the original function is replaced, so names that
`from ... import` copied into `pipeline`, `fusion` and `cli` are traced
too. Spans stay in memory; `per_layer` folds them into the per-layer
metrics and `dump` writes them out when the run ends.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
import time
import tracemalloc
from contextlib import contextmanager

MB = float(2**20)

# (module, function) pairs whose calls become spans.
TRACED = {
    "synth": ("generate_cohort", "generate_ser_corpus", "write_cohort", "read_cohort"),
    "audio_features": (
        "build_feature_map", "stft_magnitude", "hpss_median", "mel_project", "mel_filterbank",
    ),
    "ser_model": ("train_emotion", "predict_emotion"),
    "fl_model": ("coreg_train", "smogn_resample", "predict_fl_batch"),
    "churn_model": ("train_churn", "rfe_select", "smote_oversample", "predict_churn_batch"),
    "mlp": ("train",),
    "fusion": (
        "run_none_fusion", "run_late_fusion", "run_hybrid_fusion", "train_hybrid_churn",
        "serialize_assignments",
    ),
    "metrics": ("evaluate_assignments", "serialize_report"),
    "pipeline": (
        "run_experiment", "split_table", "train_fl", "train_ser", "train_churn_baseline",
        "compute_emotions",
    ),
}

CLI_COMMANDS = (
    "gen", "train_fl", "train_ser", "train_churn", "evaluate_none", "evaluate_late",
    "evaluate_hybrid",
)


UNITS = {
    "synth.cohort_s": "s", "synth.clips": "count", "synth.raw_audio_mb": "MB",
    "synth.write_s": "s", "synth.read_s": "s", "synth.reads": "count",
    **{f"cli.{c}_s": "s" for c in CLI_COMMANDS},
    "cli.workspace_mb": "MB",
    "audio_features.maps": "count", "audio_features.maps_per_clip": "ratio",
    "audio_features.total_s": "s", "audio_features.map_ms": "ms",
    "audio_features.stft_ms": "ms", "audio_features.hpss_ms": "ms", "audio_features.mel_ms": "ms",
    "audio_features.filterbank_builds": "count",
    "ser_model.train_s": "s", "ser_model.predictions": "count",
    "fl_model.coreg_s": "s", "fl_model.predict_s": "s", "fl_model.coreg_peak_mb": "MB",
    "fl_model.pseudo_labels": "count", "fl_model.smogn_synthetic": "count",
    "churn_model.train_s": "s", "churn_model.rfe_s": "s", "churn_model.smote_s": "s",
    "churn_model.smote_synthetic": "count",
    "mlp.train_s": "s", "mlp.steps": "count", "mlp.step_us": "us",
    "fusion.self_s": "s", "metrics.evaluate_s": "s", "pipeline.self_s": "s",
    "trace.spans": "count", "trace.overhead_s": "s",
}


def _clip_bytes(cohort) -> int:
    return sum(clip.samples.nbytes for clip in cohort.audio_clips.values())


def _clip_key(clip) -> tuple:
    # cheap content fingerprint: clips re-read from disk are new objects
    return clip.samples.size, clip.samples[::97].tobytes()


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._stack: list[int] = []
        self.counts: dict[str, float] = {}
        self.clip_keys: set = set()
        self.raw_audio_bytes = 0
        self.coreg_peak_bytes = 0
        self._coreg_calls: list = []

    def _count(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def _observe(self, name: str, args, kwargs, result) -> None:
        """Counts taken from a traced call's arguments and result."""
        if name == "synth.generate_cohort":
            self._count("clips", len(result.audio_clips))
            self.raw_audio_bytes = max(self.raw_audio_bytes, _clip_bytes(result))
        elif name == "synth.read_cohort":
            self.raw_audio_bytes = max(self.raw_audio_bytes, _clip_bytes(result))
        elif name == "synth.generate_ser_corpus":
            self._count("clips", len(result[0]))
        elif name == "audio_features.build_feature_map":
            self.clip_keys.add(_clip_key(args[0] if args else kwargs["clip"]))
        elif name == "fl_model.coreg_train":
            self._count("pseudo_labels", len(result.transcript))
        elif name == "fl_model.smogn_resample":
            labeled = args[0] if args else kwargs["labeled"]
            self._count("smogn_synthetic", len(result) - len(labeled))
        elif name == "churn_model.smote_oversample":
            X = args[0] if args else kwargs["X"]
            self._count("smote_synthetic", result[0].shape[0] - len(X))
        elif name == "mlp.train":
            X = args[0] if args else kwargs["X"]
            cfg = args[3] if len(args) > 3 else kwargs["cfg"]
            n = len(X)
            self._count("mlp_steps", cfg.epochs * math.ceil(n / cfg.batch_size))

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            self._observe(name, args, kwargs, result)
            if name == "fl_model.coreg_train":
                self._coreg_calls.append((fn, args, kwargs))
            return result

        traced.__wrapped__ = fn
        return traced

    def replay_coreg(self) -> None:
        """Peak allocation of each recorded coreg_train call, replayed untimed.

        ru_maxrss cannot fall, so a process-level high-water stops moving
        after the first round; tracemalloc (which counts numpy buffers) gives
        the rise during the call, and replaying keeps its cost out of spans.
        """
        for fn, args, kwargs in self._coreg_calls:
            tracemalloc.start()
            try:
                fn(*args, **kwargs)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            self.coreg_peak_bytes = max(self.coreg_peak_bytes, peak)
        self._coreg_calls.clear()

    @contextmanager
    def installed(self):
        """Swap in the wrappers for the duration of the block."""
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "churnfusion"]
        swapped = []
        for short, names in TRACED.items():
            owner = sys.modules[f"churnfusion.{short}"]
            for fname in names:
                original = getattr(owner, fname)
                wrapper = self._wrap(f"{short}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            swapped.append((module, attr, original))
        try:
            yield self
        finally:
            for module, attr, original in reversed(swapped):
                setattr(module, attr, original)

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - c for (_, start, end, _), c in zip(self.spans, child)]

    def per_layer(self, workspace_bytes: int) -> dict[str, float]:
        """Fold this tracer's spans into the per-layer metrics of one round."""
        durations: dict[str, list[float]] = {}
        for name, start, end, _ in self.spans:
            durations.setdefault(name, []).append(end - start)
        selfs = self.self_times()

        def total(name):
            return sum(durations.get(name, ()))

        def median_ms(name):
            d = durations.get(name)
            return 1000.0 * statistics.median(d) if d else 0.0

        def self_sum(prefix):
            return sum(s for (name, *_), s in zip(self.spans, selfs) if name.startswith(prefix))

        maps = len(durations.get("audio_features.build_feature_map", ()))
        mlp_train_s = total("mlp.train")
        steps = self.counts.get("mlp_steps", 0)
        out = {
            "synth.cohort_s": total("synth.generate_cohort"),
            "synth.clips": self.counts.get("clips", 0),
            "synth.raw_audio_mb": self.raw_audio_bytes / MB,
            "synth.write_s": total("synth.write_cohort"),
            "synth.read_s": total("synth.read_cohort"),
            "synth.reads": len(durations.get("synth.read_cohort", ())),
        }
        for command in CLI_COMMANDS:
            out[f"cli.{command}_s"] = total(f"cli.{command}")
        out.update({
            "cli.workspace_mb": workspace_bytes / MB,
            "audio_features.maps": maps,
            "audio_features.maps_per_clip": maps / len(self.clip_keys) if maps else 0.0,
            "audio_features.total_s": total("audio_features.build_feature_map"),
            "audio_features.map_ms": median_ms("audio_features.build_feature_map"),
            "audio_features.stft_ms": median_ms("audio_features.stft_magnitude"),
            "audio_features.hpss_ms": median_ms("audio_features.hpss_median"),
            "audio_features.mel_ms": median_ms("audio_features.mel_project"),
            "audio_features.filterbank_builds": len(durations.get("audio_features.mel_filterbank", ())),
            "ser_model.train_s": total("ser_model.train_emotion"),
            "ser_model.predictions": len(durations.get("ser_model.predict_emotion", ())),
            "fl_model.coreg_s": total("fl_model.coreg_train"),
            "fl_model.predict_s": total("fl_model.predict_fl_batch"),
            "fl_model.coreg_peak_mb": self.coreg_peak_bytes / MB,
            "fl_model.pseudo_labels": self.counts.get("pseudo_labels", 0),
            "fl_model.smogn_synthetic": self.counts.get("smogn_synthetic", 0),
            "churn_model.train_s": total("churn_model.train_churn"),
            "churn_model.rfe_s": total("churn_model.rfe_select"),
            "churn_model.smote_s": total("churn_model.smote_oversample"),
            "churn_model.smote_synthetic": self.counts.get("smote_synthetic", 0),
            "mlp.train_s": mlp_train_s,
            "mlp.steps": steps,
            "mlp.step_us": 1e6 * mlp_train_s / steps if steps else 0.0,
            "fusion.self_s": self_sum("fusion."),
            "metrics.evaluate_s": total("metrics.evaluate_assignments"),
            "pipeline.self_s": self_sum("pipeline."),
            "trace.spans": len(self.spans),
        })
        return out

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent}) + "\n")
