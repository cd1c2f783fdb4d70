"""Checks that recompute the program's outputs without calling it.

Each check returns a list of problems; an empty list means it passed.
`self_test` feeds every check a corrupted output and requires a problem.
"""

from __future__ import annotations

import csv
import io
import itertools

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.stats import rankdata

MAP_TOL = 1e-9
METRIC_TOL = 1e-12
EPS = 1e-10
BANDS = ("low", "mid", "high")

# (C fires, F fires, V fires) -> band: low when nothing fires or a single
# non-churn indicator fires, mid for churn alone or both non-churn
# indicators, high for churn plus at least one other.
TRUTH_TABLE = {
    (0, 0, 0): "low",
    (0, 1, 0): "low",
    (0, 0, 1): "low",
    (0, 1, 1): "mid",
    (1, 0, 0): "mid",
    (1, 1, 0): "high",
    (1, 0, 1): "high",
    (1, 1, 1): "high",
}


# ---------------------------------------------------------------- audio front end


def _hann(n: int) -> np.ndarray:
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / (n - 1))


def _median_along(x: np.ndarray, k: int, axis: int) -> np.ndarray:
    pad = [(0, 0), (0, 0)]
    pad[axis] = (k // 2, k // 2)
    # numpy's "symmetric" padding repeats the edge sample, as scipy.ndimage's "reflect"
    windows = sliding_window_view(np.pad(x, pad, mode="symmetric"), k, axis=axis)
    return np.median(windows, axis=-1)


def _mel_filterbank(params, n_bins: int, sample_rate: int) -> np.ndarray:
    to_mel = lambda f: 2595.0 * np.log10(1.0 + f / 700.0)
    to_hz = lambda m: 700.0 * (10.0 ** (m / 2595.0) - 1.0)
    edges = to_hz(np.linspace(to_mel(params.f_min), to_mel(params.f_max), params.n_mels + 2))
    freqs = np.arange(n_bins) * sample_rate / params.frame_size
    return np.array(
        [np.interp(freqs, edges[m : m + 3], [0.0, 1.0, 0.0], left=0.0, right=0.0)
         for m in range(params.n_mels)]
    )


def reference_decomposition(samples: np.ndarray, params):
    """(magnitude, harmonic, percussive), each [freq_bin, frame]."""
    frames = sliding_window_view(samples, params.frame_size)[:: params.hop_size]
    mags = np.abs(np.fft.rfft(frames * _hann(params.frame_size), axis=1)).T
    harm_enh = _median_along(mags, params.kernel_time, axis=1)
    perc_enh = _median_along(mags, params.kernel_freq, axis=0)
    denom = harm_enh**2 + perc_enh**2
    silent = denom <= EPS
    safe = np.where(silent, 1.0, denom)
    harm = mags * np.where(silent, 0.5, harm_enh**2 / safe)
    perc = mags * np.where(silent, 0.5, perc_enh**2 / safe)
    return mags, harm, perc


def reference_map(samples: np.ndarray, sample_rate: int, params) -> np.ndarray:
    mags, harm, perc = reference_decomposition(samples, params)
    fb = _mel_filterbank(params, mags.shape[0], sample_rate)
    image = np.stack([np.log(fb @ s**2 + EPS).mean(axis=1) for s in (harm, perc, mags)])
    if params.standardize:
        image = (image - image.mean(axis=1, keepdims=True)) / np.maximum(
            image.std(axis=1, keepdims=True), EPS
        )
    return image


def harmonic_share(samples: np.ndarray, params) -> float:
    _, harm, perc = reference_decomposition(samples, params)
    h, p = float(np.sum(harm**2)), float(np.sum(perc**2))
    return h / (h + p)


def pick_clips(clips, params, per_polarity: int = 3, scan: int = 200):
    """First `per_polarity` harmonic (positive) and percussive (negative) clips.

    Positive emotions are synthesized as tone stacks and negative ones as
    click trains, so the harmonic energy share separates them.
    """
    chosen = {True: [], False: []}
    for name, clip in itertools.islice(clips, scan):
        positive = harmonic_share(clip.samples, params) > 0.5
        if len(chosen[positive]) < per_polarity:
            chosen[positive].append((name, clip))
        if all(len(v) == per_polarity for v in chosen.values()):
            break
    return chosen[True] + chosen[False], all(chosen.values())


def check_map(name: str, program_image: np.ndarray, clip, params) -> list[str]:
    ref = reference_map(clip.samples, clip.sample_rate, params)
    if program_image.shape != ref.shape:
        return [f"{name}: map shape {program_image.shape} != {ref.shape}"]
    err = float(np.max(np.abs(program_image - ref)))
    return [] if err <= MAP_TOL else [f"{name}: map differs from reference by {err:.3g}"]


def check_hpss_sum(name: str, mags: np.ndarray, harm: np.ndarray, perc: np.ndarray) -> list[str]:
    if np.allclose(harm + perc, mags, rtol=1e-12, atol=0.0):
        return []
    return [f"{name}: harmonic + percussive != magnitude"]


# ---------------------------------------------------------------- fusion and metrics


def parse_assignments(blob: bytes) -> list[dict]:
    return list(csv.DictReader(io.StringIO(blob.decode("utf-8"))))


def parse_report(text: str) -> dict[str, str]:
    return dict(line.split("=", 1) for line in text.splitlines() if line)


def _expected_row(strategy: str, row: dict, translation) -> tuple[float, dict]:
    """(propensity, expected C/F/V/D/risk/rank) rebuilt from the row's scores."""
    w_c, w_f, w_v = translation.weights
    t_c, t_f = translation.churn_threshold, translation.fl_threshold
    if strategy == "none":
        p = float(row["rank_score"]) / 4.0
        c = w_c if p > t_c else 0
        risk = "low" if p <= t_c else ("mid" if p <= (1.0 + t_c) / 2.0 else "high")
        return p, {"C": c, "F": 0, "V": 0, "D": c, "risk": risk, "rank": 4.0 * p}
    p, fl, emo = float(row["churn_propensity"]), float(row["fl_score"]), int(row["emotion_binary"])
    fires = (int(p > t_c), int(fl < t_f), int(emo == 1))
    c, f, v = w_c * fires[0], w_f * fires[1], w_v * fires[2]
    d = c + f + v
    return p, {"C": c, "F": f, "V": v, "D": d, "risk": TRUTH_TABLE[fires], "rank": d + p / 10.0}


def oracle_metrics(ids, risks, ranks, props, truth, outcomes) -> dict[str, float]:
    """MAP, macro-F1, per-class F1, accuracy and Mann-Whitney AUC."""
    ranks = np.asarray(ranks, dtype=np.float64)
    true = np.array([truth[i] for i in ids])
    pred = np.array(risks)
    # each band ranks the cohort by affinity: low ascending, high descending,
    # mid by distance to D = 2; ties keep assignment order
    sort_keys = {"low": ranks, "mid": np.abs(ranks - 2.0), "high": -ranks}
    aps = []
    for band in BANDS:
        relevant = true == band
        if not relevant.any():
            continue
        hits = relevant[np.argsort(sort_keys[band], kind="stable")]
        positions = np.flatnonzero(hits) + 1.0
        aps.append(float(np.mean(np.arange(1, positions.size + 1) / positions)))
    out = {"map": float(np.mean(aps)), "accuracy": float(np.mean(pred == true))}
    for band in BANDS:
        tp = int(np.sum((pred == band) & (true == band)))
        wrong = int(np.sum((pred == band) != (true == band)))
        out[f"f1_{band}"] = 2 * tp / (2 * tp + wrong) if 2 * tp + wrong else 0.0
    out["macro_f1"] = float(np.mean([out[f"f1_{b}"] for b in BANDS]))
    y = np.array([outcomes[i] for i in ids])
    n_pos, n_neg = int(y.sum()), int((1 - y).sum())
    r = rankdata(np.asarray(props, dtype=np.float64))
    out["auc"] = (float(r[y == 1].sum()) - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)
    return out


def check_strategy(
    strategy: str, assignments: bytes, report: str, truth, outcomes, translation, n_test: int
) -> tuple[list[str], dict]:
    """Oracle and property checks for one strategy's serialized outputs.

    Returns (problems, quality) where quality holds the recomputed AUC, MAP
    and mean band prevalence for the diagnostics line.
    """
    problems = []
    rows = parse_assignments(assignments)
    ids = [r["id"] for r in rows]
    if len(rows) != n_test or len(set(ids)) != len(ids) or not set(ids) <= set(truth):
        problems.append(f"{strategy}: expected {n_test} distinct test customers, got {len(rows)} rows")
        return problems, {}
    props = []
    for row in rows:
        if row["risk"] not in BANDS:
            problems.append(f"{strategy}: {row['id']} has band {row['risk']!r}")
            continue
        p, want = _expected_row(strategy, row, translation)
        props.append(p)
        if strategy != "none" and not 0.0 <= float(row["fl_score"]) <= 1.0:
            problems.append(f"{strategy}: {row['id']} fl_score outside [0, 1]")
        if not 0.0 < p < 1.0:
            problems.append(f"{strategy}: {row['id']} propensity {p!r} outside (0, 1)")
        got = {k: int(row[k]) for k in ("C", "F", "V", "D")}
        got.update(risk=row["risk"], rank=float(row["rank_score"]))
        if any(got[k] != want[k] for k in ("C", "F", "V", "D", "risk")) or abs(
            got["rank"] - want["rank"]
        ) > METRIC_TOL:
            problems.append(f"{strategy}: {row['id']} fused as {got}, truth table gives {want}")
    if problems:
        return problems, {}

    want = oracle_metrics(ids, [r["risk"] for r in rows], [float(r["rank_score"]) for r in rows],
                          props, truth, outcomes)
    got = parse_report(report)
    for key, value in want.items():
        if key not in got or got[key] == "" or abs(float(got[key]) - value) > METRIC_TOL:
            problems.append(f"{strategy}: report {key}={got.get(key)!r}, oracle {value!r}")
    for band in BANDS:
        key = f"risk_{band}"
        if key in got and int(got[key]) != sum(r["risk"] == band for r in rows):
            problems.append(f"{strategy}: report {key}={got[key]} disagrees with assignments")
    prevalence = float(np.mean([np.mean([truth[i] == b for i in ids]) for b in BANDS
                                if any(truth[i] == b for i in ids)]))
    return problems, {"auc": want["auc"], "map": want["map"], "prevalence": prevalence}


# ---------------------------------------------------------------- self-test


def _edit_first_band(blob: bytes) -> bytes:
    rows = parse_assignments(blob)
    rows[0]["risk"] = "high" if rows[0]["risk"] != "high" else "low"
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return out.getvalue().encode("utf-8")


def _edit_report(text: str) -> str:
    lines = text.splitlines(keepends=True)
    key, value = lines[0].rstrip("\n").split("=", 1)
    lines[0] = f"{key}={float(value) + 1e-6!r}\n"
    return "".join(lines)


def self_test(strategy, assignments, report, truth, outcomes, translation, n_test,
              program_image, clip, params) -> dict[str, bool]:
    """Corrupt one output at a time; True where the check caught it.

    "unmodified" is True when the uncorrupted outputs pass.
    """
    def caught(asg, rep):
        return bool(check_strategy(strategy, asg, rep, truth, outcomes, translation, n_test)[0])

    shifted = program_image.copy()
    shifted[0, 0] += 1e-6
    return {
        "unmodified": not caught(assignments, report),
        "band_swapped": caught(_edit_first_band(assignments), report),
        "report_value_edited": caught(assignments, _edit_report(report)),
        "map_entry_shifted_1e-6": bool(check_map("self-test", shifted, clip, params)),
    }
