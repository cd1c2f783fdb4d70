"""End-to-end acceptance suite.

Each test covers exactly one numbered acceptance criterion and emits one
``ACCEPTANCE <n> ... PASS``/``FAIL`` line (visible with ``-v`` through the
test outcome, and in captured output). The seed-ensemble experiments are
computed once per session and shared across the criteria that need them.
"""

import dataclasses
import hashlib
import itertools
import time

import numpy as np
import pytest

from churnfusion import churn_model as cm
from churnfusion import cli, fusion, metrics, mlp, pipeline
from churnfusion import fl_model as flm
from churnfusion.audio_features import hpss_median, stft_magnitude
from churnfusion.data_model import RISK_LABELS
from churnfusion.synth import SynthConfig, generate_cohort, synth_audio
from reference import numerical_gradient

ENSEMBLE_SEEDS = (0, 1, 2, 3, 4)


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="session")
def ensemble():
    """Per-seed strategy reports on the n=2000, coupling-0.9 cohort."""
    cfg = dataclasses.replace(
        pipeline.RunConfig(),
        synth=SynthConfig(n_customers=2000, coupling=0.9),
    )
    runs = []
    for seed in ENSEMBLE_SEEDS:
        start = time.perf_counter()
        result = pipeline.run_experiment(pipeline.with_seed(cfg, seed))
        runs.append({"reports": result.reports, "elapsed": time.perf_counter() - start})
    return runs


def ensemble_mean(runs, strategy, metric_name):
    return float(np.mean([getattr(r["reports"][strategy], metric_name) for r in runs]))


def test_criterion_01_fusion_partition_exhaustive():
    expected = {
        (0, 0, 0): "low", (0, 1, 0): "low", (0, 0, 1): "low",
        (2, 0, 0): "mid", (0, 1, 1): "mid",
        (2, 1, 0): "high", (2, 0, 1): "high", (2, 1, 1): "high",
    }
    mismatches = []
    for c, f, v in itertools.product((0, 2), (0, 1), (0, 1)):
        risk = str(fusion.decide(c, f, v))
        fired = [risk == level for level in RISK_LABELS]
        if fired.count(True) != 1 or risk != expected[(c, f, v)]:
            mismatches.append((c, f, v, risk))
    report("1 fusion partition", not mismatches, f"8 triples checked, mismatches={mismatches}")


def test_criterion_02_table_iii_ordering(ensemble):
    maps = {s: ensemble_mean(ensemble, s, "map") for s in pipeline.STRATEGIES}
    f1s = {s: ensemble_mean(ensemble, s, "macro_f1") for s in pipeline.STRATEGIES}
    slowest = max(r["elapsed"] for r in ensemble)
    ok = (
        maps["hybrid"] >= maps["late"] >= maps["none"]
        and f1s["hybrid"] >= f1s["late"]
        and f1s["hybrid"] >= f1s["none"]
        and slowest < 60.0
    )
    report(
        "2 Table III ordering",
        ok,
        f"MAP none/late/hybrid={maps['none']:.3f}/{maps['late']:.3f}/{maps['hybrid']:.3f}, "
        f"macro-F1={f1s['none']:.3f}/{f1s['late']:.3f}/{f1s['hybrid']:.3f}, "
        f"slowest seed {slowest:.1f}s",
    )


def test_criterion_03_auc_hybrid_vs_baseline(ensemble):
    auc_hybrid = ensemble_mean(ensemble, "hybrid", "auc")
    auc_none = ensemble_mean(ensemble, "none", "auc")
    report(
        "3 AUC ordering",
        auc_hybrid >= auc_none,
        f"hybrid AUC {auc_hybrid:.3f} vs baseline {auc_none:.3f}",
    )


def test_criterion_04_correlation_signs(ensemble):
    emo_d = float(
        np.mean([r["reports"]["hybrid"].correlations["emotion_binary~D"] for r in ensemble])
    )
    fl_d = float(np.mean([r["reports"]["hybrid"].correlations["fl_score~D"] for r in ensemble]))
    report(
        "4 correlation signs",
        emo_d > 0 and fl_d < 0,
        f"corr(emotion,D)={emo_d:+.3f}, corr(fl,D)={fl_d:+.3f}",
    )


def brute_ap(rel, m):
    terms = np.array(
        [sum(rel[:k]) / k if rel[k - 1] else 0.0 for k in range(1, len(rel) + 1)]
    )
    return float(np.sum(terms) / m)


def brute_macro_f1(pred, truth, classes):
    f1s = []
    for c in classes:
        tp = sum(p == c and t == c for p, t in zip(pred, truth))
        fp = sum(p == c and t != c for p, t in zip(pred, truth))
        fn = sum(p != c and t == c for p, t in zip(pred, truth))
        f1s.append(2 * tp / (2 * tp + fp + fn) if (2 * tp + fp + fn) else 0.0)
    return float(np.mean(f1s))


def test_criterion_05_metric_oracles():
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    checked, bad = 0, 0
    for _ in range(1000):
        n = int(rng.integers(1, 9))
        rel = list(rng.integers(0, 2, n))
        m = sum(rel)
        if m:
            bad += metrics.average_precision(rel, m) != brute_ap(rel, m)
            truth = np.where(rel, "low", "-")
            bad += metrics.mean_average_precision(np.arange(n), truth) != brute_ap(rel, m)
        pred = [RISK_LABELS[i] for i in rng.integers(0, 3, n)]
        truth = [RISK_LABELS[i] for i in rng.integers(0, 3, n)]
        bad += metrics.macro_f1(pred, truth) != brute_macro_f1(pred, truth, RISK_LABELS)
        labels = rng.integers(0, 2, n)
        if len(set(labels)) == 2:
            scores = np.round(rng.normal(size=n), 1)
            pos, neg = scores[labels == 1], scores[labels == 0]
            oracle = np.mean(
                [1.0 if p > q else 0.5 if p == q else 0.0 for p in pos for q in neg]
            )
            bad += abs(metrics.roc_auc(scores, labels) - oracle) > 1e-12
        checked += 1
    elapsed = time.perf_counter() - start
    report(
        "5 metric oracles",
        bad == 0 and elapsed < 5.0,
        f"{checked} random instances, {bad} mismatches, {elapsed:.1f}s",
    )


def test_criterion_06_gradient_checks():
    start = time.perf_counter()
    rng = np.random.default_rng(1)
    worst = 0.0
    for trial in range(100):
        n_hidden = int(rng.integers(0, 3))
        dims = (
            (int(rng.integers(2, 8)),)
            + tuple(int(rng.integers(2, 8)) for _ in range(n_hidden))
            + (1,)
        )
        params = mlp.init_params(dims, int(rng.integers(1 << 30)))
        X = rng.normal(size=(int(rng.integers(3, 8)), dims[0]))
        y = rng.integers(0, 2, X.shape[0]).astype(float)
        _, gw, gb = mlp.loss_and_grads(params, X, y, 1e-3)
        analytic = np.concatenate([a.ravel() for pair in zip(gw, gb) for a in pair])
        numeric = numerical_gradient(params, X, y, 1e-3)
        err = np.linalg.norm(analytic - numeric) / max(
            np.linalg.norm(analytic), np.linalg.norm(numeric), 1e-12
        )
        worst = max(worst, float(err))
    elapsed = time.perf_counter() - start
    report(
        "6 gradient checks",
        worst < 1e-4 and elapsed < 10.0,
        f"100 nets, worst relative error {worst:.2e}, {elapsed:.1f}s",
    )


def on_segment(point, a, b, atol=1e-9):
    d = b - a
    denom = float(d @ d)
    if denom == 0:
        return np.allclose(point, a, atol=atol)
    t = float((point - a) @ d) / denom
    return -atol <= t <= 1 + atol and np.allclose(a + t * d, point, atol=atol)


def test_criterion_07_resampling_geometry():
    start = time.perf_counter()
    rng = np.random.default_rng(2)
    draws, bad = 0, 0
    while draws < 1000:
        # SMOTE side
        n_min = int(rng.integers(6, 12))
        n_maj = n_min + int(rng.integers(10, 40))
        Xm = rng.normal(size=(n_min, 3))
        X = np.vstack([Xm, rng.normal(5, 1, size=(n_maj, 3))])
        y = np.array([1] * n_min + [0] * n_maj)
        X2, y2 = cm.smote_oversample(X, y, ratio=1.0, k=5, seed=int(rng.integers(1 << 30)))
        if not np.array_equal(X2[: len(X)], X):
            bad += 1
        if np.sum(y2 == 1) != n_maj:  # count formula: minority raised to majority
            bad += 1
        for pt in X2[len(X):]:
            ok = any(
                on_segment(pt, Xm[a], Xm[b])
                for a in range(n_min)
                for b in range(n_min)
                if a != b
            )
            bad += not ok
            draws += 1
        # SMOGN side: rare pair near origin, common mass far away
        labeled = [
            (np.array([0.0, 0.0]), 0.9),
            (np.array([1.0, 1.0]), 1.0),
        ] + [(rng.normal(10, 0.5, 2), 0.5) for _ in range(4)]
        out = flm.smogn_resample(
            labeled,
            flm.SmognConfig(
                relevance_threshold=0.5, k_neighbors=2, oversample_ratio=3.0,
                seed=int(rng.integers(1 << 30)),
            ),
        )
        if len(out) != len(labeled) + 6:  # ceil(3.0 * 2) rare draws
            bad += 1
        for i, (feats, _) in enumerate(out[: len(labeled)]):
            if not np.array_equal(feats, labeled[i][0]):
                bad += 1
        for feats, target in out[len(labeled):]:
            bad += not on_segment(feats, np.zeros(2), np.ones(2))
            bad += not (0.9 - 1e-9 <= target <= 1.0 + 1e-9)
            draws += 1
    elapsed = time.perf_counter() - start
    report(
        "7 resampling geometry",
        bad == 0 and elapsed < 5.0,
        f"{draws} synthetic draws, {bad} violations, {elapsed:.1f}s",
    )


def test_criterion_08_hpss_separation():
    start = time.perf_counter()
    t = np.arange(16000) / 16000
    from churnfusion.audio_features import AudioClip

    tone = AudioClip(0.9 * np.sin(2 * np.pi * 440 * t), 16000)
    clicks = np.zeros(16000)
    clicks[::1600] = 1.0
    click = AudioClip(clicks, 16000)
    shares, comp_ok = {}, True
    for name, clip in (("tone", tone), ("click", click)):
        spec = stft_magnitude(clip, 1024, 256)
        harm, perc = hpss_median(spec)
        eh, ep = float(np.sum(harm.magnitudes**2)), float(np.sum(perc.magnitudes**2))
        shares[name] = (eh / (eh + ep), ep / (eh + ep))
        comp_ok &= bool(
            np.allclose(harm.magnitudes + perc.magnitudes, spec.magnitudes, atol=1e-6)
        )
    elapsed = time.perf_counter() - start
    ok = shares["tone"][0] > 0.7 and shares["click"][1] > 0.7 and comp_ok and elapsed < 5.0
    report(
        "8 HPSS separation",
        ok,
        f"tone harmonic {shares['tone'][0]:.3f}, click percussive {shares['click'][1]:.3f}, "
        f"complementary={comp_ok}, {elapsed:.1f}s",
    )


def test_criterion_09_coreg_sanity():
    start = time.perf_counter()
    rng = np.random.default_rng(3)
    X = rng.normal(size=(25, 3))
    y = np.clip(0.5 + 0.3 * X[:, 0], 0, 1)
    labeled = [(X[i], float(y[i])) for i in range(25)]
    cfg = flm.CoregConfig(max_iterations=30)
    model = flm.coreg_train(labeled, [], smogn=None, cfg=cfg)
    queries = rng.normal(size=(20, 3))
    k1 = flm.KNNRegressor(X, y, cfg.k1, cfg.p1)
    k2 = flm.KNNRegressor(X, y, cfg.k2, cfg.p2)
    exact = np.array_equal(
        flm.predict_fl_batch(model, queries),
        np.clip(0.5 * (k1.predict(queries) + k2.predict(queries)), 0, 1),
    )

    rmse_coreg, rmse_base = [], []
    for seed in range(6):
        cohort = generate_cohort(
            SynthConfig(n_customers=400, coupling=0.9, labeled_fl_fraction=0.2, seed=seed)
        )
        train, test = cohort.table.take(slice(0, 300)), cohort.table.take(slice(300, None))
        known = ~np.isnan(train.fl_label)
        lab = list(zip(train.features[known], train.fl_label[known]))
        unlab = list(train.features[~known])
        c = flm.CoregConfig(max_iterations=30, seed=seed)
        m = flm.coreg_train(lab, unlab, flm.SmognConfig(seed=seed), c)
        b = flm.coreg_train(lab, [], flm.SmognConfig(seed=seed), c)
        Xt = test.features
        yt = cohort.true_fl[300:]
        rmse_coreg.append(float(np.sqrt(np.mean((flm.predict_fl_batch(m, Xt) - yt) ** 2))))
        rmse_base.append(float(np.sqrt(np.mean((flm.predict_fl_batch(b, Xt) - yt) ** 2))))
    mean_c, mean_b = float(np.mean(rmse_coreg)), float(np.mean(rmse_base))
    elapsed = time.perf_counter() - start
    report(
        "9 COREG sanity",
        exact and mean_c <= mean_b and elapsed < 30.0,
        f"empty-pool exact={exact}, ensemble RMSE {mean_c:.4f} <= baseline {mean_b:.4f}, "
        f"{elapsed:.1f}s",
    )


def _hash_tree(root):
    return {
        p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def test_criterion_10_determinism(tmp_path):
    start = time.perf_counter()
    config = tmp_path / "config.txt"
    config.write_text(
        "seed = 7\n"
        "rfe_k = 4\n"
        "ser_corpus_per_class = 4\n"
        "synth.n_customers = 60\n"
        "synth.labeled_fl_fraction = 0.3\n"
        "coreg.max_iterations = 2\n"
        "churn_train.epochs = 25\n"
        "ser_train.epochs = 25\n",
        encoding="utf-8",
    )
    hashes = []
    for name in ("a", "b"):
        ws = tmp_path / name
        base = ["--out", str(ws), "--config", str(config)]
        assert cli.main(["gen"] + base) == 0
        for modality in ("fl", "ser", "churn"):
            assert cli.main(["train", modality] + base) == 0
        for strategy in pipeline.STRATEGIES:
            assert cli.main(["evaluate", strategy] + base) == 0
        hashes.append(_hash_tree(ws))
    elapsed = time.perf_counter() - start
    report(
        "10 determinism",
        hashes[0] == hashes[1] and elapsed < 60.0,
        f"{len(hashes[0])} artifacts hashed identically across reruns, {elapsed:.1f}s",
    )
