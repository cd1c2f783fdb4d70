"""Synthetic multimodal cohorts with a known latent risk tier.

One three-level latent tier drives everything: true financial literacy
(low tier skews high-FL), the emotion of the generated call clip (high
tier skews Sadness/Anger), and the churn probability. Tabular features
are noisy projections of the latent plus independent noise, so each
modality is an imperfect, partly independent view of the same tier.
"""

from __future__ import annotations

import csv
import io
import wave
from collections.abc import Callable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from .audio_features import AudioClip
from .data_model import (
    NEGATIVE_LABELS,
    POSITIVE_LABELS,
    RISK_LABELS,
    CustomerTable,
    map_emotion_to_binary,
    serialize_customer_table,
    parse_customer_table,
)
from .errors import BadWav, InvalidConfig, SchemaMismatch

SAMPLE_RATE = 16000
ROTATION_BLOCK = 64  # samples per block of `_tones`'s rotation

TIER_PROBS = (0.5, 0.3, 0.2)
_TIER_MEAN = sum(p * t for t, p in enumerate(TIER_PROBS))


@dataclass(frozen=True)
class SynthConfig:
    n_customers: int = 500
    n_features: int = 12
    labeled_fl_fraction: float = 0.2
    churn_base_rate: float = 0.25
    coupling: float = 0.9
    seed: int = 0
    clip_duration_s: float = 1.0

    def __post_init__(self):
        if self.n_customers < 1 or self.n_features < 1:
            raise InvalidConfig("n_customers and n_features must be positive")
        if not 0.0 < self.labeled_fl_fraction <= 1.0:
            raise InvalidConfig("labeled_fl_fraction must lie in (0, 1]")
        if not 0.0 < self.churn_base_rate < 1.0:
            raise InvalidConfig("churn_base_rate must lie in (0, 1)")
        if not 0.0 <= self.coupling <= 1.0:
            raise InvalidConfig("coupling must lie in [0, 1]")
        if not 0.5 <= self.clip_duration_s <= 10.0:
            raise InvalidConfig("clip_duration_s must lie in [0.5, 10]")


class LazyClips(Mapping):
    """Read-only audio_ref -> AudioClip map that makes a clip on each lookup.

    Each ref holds a zero-argument maker (a synthesis or a WAV decode); no
    clip is kept, so a cohort's memory does not grow with clip length and
    a lookup costs one synthesis or decode. Membership, iteration and
    length read the ref table only and make no clip.
    """

    def __init__(self, makers: dict[str, Callable[[], AudioClip]]):
        self._makers = makers

    def __getitem__(self, ref: str) -> AudioClip:
        return self._makers[ref]()

    def __contains__(self, ref) -> bool:
        return ref in self._makers

    def __iter__(self) -> Iterator[str]:
        return iter(self._makers)

    def __len__(self) -> int:
        return len(self._makers)


class LazySequence(Sequence):
    """Read-only sequence whose item i is `make(keys[i])`, made each time i is indexed.

    Like `LazyClips` it keeps no item, so `len` makes none and a caller
    that maps item after item holds one at a time. Joined with a list it
    gives a list of the made items.
    """

    def __init__(self, make: Callable, keys):
        self._make, self._keys = make, tuple(keys)

    def __getitem__(self, i: int):
        return self._make(self._keys[i])

    def __len__(self) -> int:
        return len(self._keys)

    def __add__(self, other) -> list:
        return [*self, *other]


@dataclass(frozen=True)
class SyntheticCohort:
    """A table, its clips by audio_ref, and per-row truth in table order.

    `audio_clips` is any ref -> clip mapping; the cohorts that
    `generate_cohort` and `read_cohort` return hold a `LazyClips`, so a
    command that reads no clip synthesizes or decodes none.
    """

    table: CustomerTable
    audio_clips: Mapping[str, AudioClip]
    risk_tier: np.ndarray  # low/mid/high
    true_fl: np.ndarray  # float64, NaN = unknown

    def __post_init__(self):
        for name in ("risk_tier", "true_fl"):
            if np.shape(getattr(self, name)) != (len(self.table),):
                raise SchemaMismatch(f"{name} needs one entry per table row")
        for ref in self.table.audio_ref:
            if ref is not None and ref not in self.audio_clips:
                raise ValueError(f"unresolved audio_ref {ref!r}")


def _tones(omega, phase, weight, n: int) -> np.ndarray:
    """The sum over i of weight_i * sin(omega_i * k + phase_i) at samples k < n.

    With k = B*j + m (B = ROTATION_BLOCK), sin(wk + p) = sin(wBj + p) cos(wm) + cos(wBj + p)
    sin(wm), so np.sin and np.cos see n/B + B values per sinusoid, not n. einsum without
    optimize sums in a fixed order and calls no BLAS."""
    w, p = np.reshape(omega, (-1, 1)), np.reshape(phase, (-1, 1))
    coarse = w * (ROTATION_BLOCK * np.arange(-(-n // ROTATION_BLOCK))) + p
    fine = w * np.arange(ROTATION_BLOCK)
    rows = np.vstack([np.sin(coarse), np.cos(coarse)])
    taps = np.vstack([np.cos(fine), np.sin(fine)]) * np.tile(weight, 2)[:, None]
    return np.einsum("hj,hm->jm", rows, taps, optimize=False).reshape(-1)[:n]


def synth_audio(emotion: str, duration_s: float, seed) -> AudioClip:
    """Parametric clip whose HPSS character separates emotion polarity.

    Positive labels produce sustained harmonic tone stacks; negative
    labels produce click trains of short noise bursts. Deterministic per
    seed.
    """
    if not 0.5 <= duration_s <= 10.0:
        raise InvalidConfig(f"duration {duration_s} outside [0.5, 10] s")
    rng = np.random.default_rng(seed)
    n = int(round(duration_s * SAMPLE_RATE))
    if emotion in POSITIVE_LABELS:
        f0 = rng.uniform(180.0, 280.0)
        h = np.arange(1.0, (6 if emotion == "Happiness" else 4) + 1)
        x = _tones(2 * np.pi * f0 * h / SAMPLE_RATE, rng.uniform(0.0, 2 * np.pi, h.size), 1 / h, n)
        # slow tremolo keeps the clip non-stationary without adding transients
        x *= 1.0 + _tones(2 * np.pi * rng.uniform(2.0, 5.0) / SAMPLE_RATE, 0.0, 0.1, n)
    elif emotion in NEGATIVE_LABELS:
        period = rng.uniform(0.06, 0.11) if emotion == "Anger" else rng.uniform(0.10, 0.16)
        burst_len = int(0.004 * SAMPLE_RATE)
        decay = np.exp(-np.arange(burst_len) / (0.001 * SAMPLE_RATE))
        x = np.zeros(n)
        pos = int(rng.uniform(0, period * SAMPLE_RATE))
        while pos + burst_len < n:
            x[pos : pos + burst_len] += rng.normal(0.0, 1.0, burst_len) * decay
            pos += int(period * SAMPLE_RATE * rng.uniform(0.9, 1.1))
        # faint low-frequency rumble so negative clips are not pure silence
        x += 0.01 * rng.normal(0.0, 1.0, n)
    else:
        raise InvalidConfig(f"unsupported emotion label: {emotion!r}")
    peak = np.max(np.abs(x))
    if peak > 0:
        x = 0.8 * x / peak
    return AudioClip(samples=x, sample_rate=SAMPLE_RATE)


def generate_cohort(config: SynthConfig) -> SyntheticCohort:
    """Build a seeded cohort; equal configs give identical cohorts."""
    rng = np.random.default_rng(config.seed)
    n, nf = config.n_customers, config.n_features
    k = config.coupling

    tier = rng.choice(3, size=n, p=TIER_PROBS)
    true_fl = np.clip(rng.normal(0.75 - 0.30 * k * tier, 0.15), 0.0, 1.0)
    p_neg = np.clip(0.25 + 0.28 * k * tier, 0.0, 1.0)
    negative = rng.random(n) < p_neg
    # churn reacts to the latent tier plus the *realized* emotional state and
    # literacy, so the voice and literacy modalities carry churn signal that
    # the tabular features only partially expose
    p_churn = np.clip(
        config.churn_base_rate
        + k
        * (
            0.12 * (tier - _TIER_MEAN)
            + 0.28 * (negative - float(np.mean(negative)))
            + 0.30 * (float(np.mean(true_fl)) - true_fl)
        ),
        0.02,
        0.98,
    )
    churn = (rng.random(n) < p_churn).astype(int)
    labeled = rng.random(n) < config.labeled_fl_fraction

    # feature blocks: latent-tier projections, FL projections, pure noise
    n_tier = max(1, int(round(nf * 0.4)))
    n_fl = max(1, min(nf - n_tier, int(round(nf * 0.3))))
    proj_tier = rng.normal(0.0, 1.0, n_tier)
    proj_fl = rng.normal(0.0, 1.0, n_fl)

    tier_norm = (tier - _TIER_MEAN) / np.sqrt(
        sum(p * (t - _TIER_MEAN) ** 2 for t, p in enumerate(TIER_PROBS))
    )
    tier_signal = tier_norm + rng.normal(0.0, 0.6, n)
    fl_signal = (true_fl - 0.5) * 2.0 + rng.normal(0.0, 0.3, n)

    X = rng.normal(0.0, 1.0, (n, nf))
    X[:, :n_tier] = np.outer(tier_signal, proj_tier) + rng.normal(0.0, 0.5, (n, n_tier))
    X[:, n_tier : n_tier + n_fl] = np.outer(fl_signal, proj_fl) + rng.normal(
        0.0, 0.5, (n, n_fl)
    )

    # true risk tier: churn probability banded at the 50%/80% population
    # quantiles, so the label reflects the full multimodal churn state
    risk_label = np.empty(n, dtype="U4")
    order = np.argsort(p_churn, kind="stable")
    cuts = (int(round(0.5 * n)), int(round(0.8 * n)))
    risk_label[order[: cuts[0]]] = RISK_LABELS[0]
    risk_label[order[cuts[0] : cuts[1]]] = RISK_LABELS[1]
    risk_label[order[cuts[1] :]] = RISK_LABELS[2]

    ids = tuple(f"c{i:05d}" for i in range(n))
    refs = tuple(f"{cid}.wav" for cid in ids)
    clips = {}
    for i, ref in enumerate(refs):
        clip_rng = np.random.default_rng([config.seed, i])
        if negative[i]:
            label = NEGATIVE_LABELS[int(clip_rng.integers(len(NEGATIVE_LABELS)))]
        else:
            label = POSITIVE_LABELS[int(clip_rng.integers(len(POSITIVE_LABELS)))]
        clips[ref] = partial(synth_audio, label, config.clip_duration_s, [config.seed, i, 1])

    table = CustomerTable(
        tuple(f"f{i}" for i in range(nf)), ids, X, np.where(labeled, true_fl, np.nan), churn, refs
    )
    return SyntheticCohort(table, LazyClips(clips), risk_label, true_fl)


def generate_ser_corpus(
    n_per_class: int = 40, duration_s: float = 1.0, seed: int = 0
) -> tuple[LazySequence, list[int]]:
    """Labeled emotion clips for training the speech classifier.

    Stands in for an external labeled emotion corpus; the cohort's own
    clips stay unlabeled from the model's point of view. Clip i is
    synthesized each time it is indexed, so building the corpus makes none.
    """
    if n_per_class < 1:
        raise InvalidConfig("n_per_class must be positive")
    all_labels = POSITIVE_LABELS + NEGATIVE_LABELS
    keys = [
        (label, [seed, 7919, rep, li])
        for rep in range(n_per_class)
        for li, label in enumerate(all_labels)
    ]
    labels = [map_emotion_to_binary(label) for label, _ in keys]
    return LazySequence(lambda key: synth_audio(key[0], duration_s, key[1]), keys), labels


def clip_to_wav_bytes(clip: AudioClip) -> bytes:
    """PCM 16-bit mono RIFF encoding."""
    pcm = np.clip(np.round(clip.samples * 32767.0), -32768, 32767).astype("<i2")
    buf = io.BytesIO()
    with wave.open(buf, "wb") as wav:
        wav.setnchannels(1)
        wav.setsampwidth(2)
        wav.setframerate(clip.sample_rate)
        wav.writeframes(pcm.tobytes())
    return buf.getvalue()


def wav_bytes_to_clip(blob: bytes, name: str = "WAV data") -> AudioClip:
    """Decode 16-bit mono PCM; anything else raises BadWav naming `name`."""
    try:
        with wave.open(io.BytesIO(blob), "rb") as wav:
            if wav.getnchannels() != 1 or wav.getsampwidth() != 2:
                raise ValueError("expected 16-bit mono PCM")
            sr = wav.getframerate()
            pcm = np.frombuffer(wav.readframes(wav.getnframes()), dtype="<i2")
        return AudioClip(samples=pcm.astype(np.float64) / 32767.0, sample_rate=sr)
    except (EOFError, wave.Error, ValueError) as exc:
        raise BadWav(f"bad WAV {name}: {str(exc) or 'unexpected end of file'}") from exc


def _read_wav(src: Path, path: str) -> AudioClip:
    return wav_bytes_to_clip((src / path).read_bytes(), str(src / path))


def _write_csv(path: Path, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        csv.writer(f, lineterminator="\n").writerows(rows)


def _csv_body(path: Path) -> list[list[str]]:
    """The rows of a CSV file after its header."""
    with open(path, encoding="utf-8", newline="") as f:
        return list(csv.reader(f))[1:]


def write_cohort(cohort: SyntheticCohort, out_dir: str | Path) -> None:
    """table.csv + audio/*.wav + manifest.csv + ground_truth.csv."""
    out = Path(out_dir)
    (out / "audio").mkdir(parents=True, exist_ok=True)
    (out / "table.csv").write_bytes(serialize_customer_table(cohort.table))
    manifest = [("id", "audio_path")]
    for cid, ref in zip(cohort.table.ids, cohort.table.audio_ref):
        if ref is not None:
            (out / "audio" / ref).write_bytes(clip_to_wav_bytes(cohort.audio_clips[ref]))
            manifest.append((cid, f"audio/{ref}"))
    _write_csv(out / "manifest.csv", manifest)
    truth = [("id", "risk_tier", "true_fl")]
    for cid, tier, fl in zip(cohort.table.ids, cohort.risk_tier, cohort.true_fl.tolist()):
        truth.append((cid, tier, "" if np.isnan(fl) else fl))
    _write_csv(out / "ground_truth.csv", truth)


def read_cohort(in_dir: str | Path) -> SyntheticCohort:
    """Load a cohort previously written by write_cohort."""
    src = Path(in_dir)
    table = parse_customer_table((src / "table.csv").read_bytes())
    clips = {}
    for _, path in _csv_body(src / "manifest.csv"):
        # keyed by the file name; the path is joined only when the WAV is read
        clips[path.rsplit("/", 1)[-1]] = partial(_read_wav, src, path)
    tier_of, fl_of = {}, {}
    for cid, tier, fl in _csv_body(src / "ground_truth.csv"):
        tier_of[cid] = tier
        fl_of[cid] = float(fl) if fl else np.nan
    missing = [cid for cid in table.ids if cid not in tier_of]
    if missing:
        raise SchemaMismatch(f"ground_truth.csv has no row for id {missing[0]!r}")
    # truth rows may come in any order; the cohort holds them in table order
    risk_tier = np.array([tier_of[cid] for cid in table.ids], dtype=str)
    true_fl = np.array([fl_of[cid] for cid in table.ids], dtype=np.float64)
    return SyntheticCohort(table, LazyClips(clips), risk_tier, true_fl)
