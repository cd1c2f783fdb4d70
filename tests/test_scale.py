"""Memory stays flat as the cohort grows.

The k-NN paths hold memory linear in n, up to n=20,000 customers. A search
that builds the full [n_queries, n_points, d] difference array peaks at
64-308 MB in these calls at n=4000 and would need ~7.7 GB at n=20,000, so
n=4000 runs first under the same ceiling.

The serial map loop makes each clip as it maps it, so it holds one clip
at a time whatever the number of clips: making all 400 one-second clips
before mapping them holds about 52 MB.
"""

import dataclasses
import os
import tracemalloc

from churnfusion import churn_model as cm
from churnfusion import fl_model as flm
from churnfusion import pipeline, synth
from churnfusion.mlp import TrainConfig

CEILING_MB = 16.0


def traced_peak_mb(call) -> float:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_knn_paths_stay_under_a_fixed_memory_ceiling():
    for n in (4000, 20000):
        cfg = pipeline.with_seed(
            pipeline.RunConfig(
                synth=synth.SynthConfig(n_customers=n, coupling=0.9, clip_duration_s=0.5)
            ),
            0,
        )
        train, _, _ = pipeline.split_table(
            synth.generate_cohort(cfg.synth).table, cfg.test_fraction, cfg.seed
        )
        model = []
        peaks = {
            "train_fl": traced_peak_mb(lambda: model.append(pipeline.train_fl(train, cfg))),
            # all 12 columns; inside train_churn SMOTE sees the ones RFE keeps
            "smote_oversample": traced_peak_mb(
                lambda: cm.smote_oversample(
                    train.features, train.churn_outcome, cfg.smote.ratio, cfg.smote.k
                )
            ),
            # the hybrid strategy scores the training side with the FL model
            "predict_fl_batch": traced_peak_mb(
                lambda: flm.predict_fl_batch(model[0], train.features)
            ),
        }
        assert max(peaks.values()) < CEILING_MB, (n, peaks)


def test_emotion_flags_hold_memory_flat_in_the_number_of_clips(monkeypatch):
    # one usable CPU: the caller makes and maps every clip itself, under
    # tracemalloc (helpers would make them where tracemalloc cannot see)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    cfg = pipeline.with_seed(
        pipeline.RunConfig(
            ser_corpus_per_class=1,
            ser_train=TrainConfig(epochs=1),
            synth=synth.SynthConfig(clip_duration_s=1.0),
        ),
        0,
    )
    ser = pipeline.train_ser(cfg)
    peaks = {}
    for n in (100, 400):
        cohort = synth.generate_cohort(dataclasses.replace(cfg.synth, n_customers=n))
        peaks[n] = traced_peak_mb(
            lambda: pipeline.compute_emotions(cohort.table, cohort.audio_clips, ser, cfg)
        )
    assert max(peaks.values()) < CEILING_MB, peaks
