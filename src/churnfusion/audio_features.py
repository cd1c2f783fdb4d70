"""Acoustic front end for emotion scoring.

Magnitude spectrogram, median-filter harmonic/percussive separation with
complementary soft masks, Mel-filterbank projection, and a compact
[3 x n_mels] feature map (harmonic / percussive / overall mean log-Mel).
`build_feature_maps` maps many clips on every CPU the process may use.
"""

from __future__ import annotations

import math
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import BadBand, ClipTooShort, InvalidConfig

EPS = 1e-10
CHUNK_CLIPS = 8  # clips per batch that one process maps


@dataclass(frozen=True)
class AudioClip:
    """Mono PCM samples in [-1, 1] at a fixed sample rate."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 1 or samples.size == 0:
            raise ValueError("samples must be a non-empty 1-D array")
        if not np.all(np.isfinite(samples)):
            raise ValueError("samples must be finite")
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")
        object.__setattr__(self, "samples", samples)


@dataclass(frozen=True)
class Spectrogram:
    """Non-negative magnitudes, shape [freq_bin, frame]."""

    magnitudes: np.ndarray
    frame_size: int
    hop_size: int
    sample_rate: int

    def __post_init__(self):
        mags = np.asarray(self.magnitudes, dtype=np.float64)
        if mags.ndim != 2:
            raise ValueError("magnitudes must be 2-D")
        if np.any(mags < 0) or not np.all(np.isfinite(mags)):
            raise ValueError("magnitudes must be finite and non-negative")
        object.__setattr__(self, "magnitudes", mags)


@dataclass(frozen=True)
class FeatureMap:
    """Three time-averaged log-Mel vectors stacked into a [3, n_mels] image."""

    image: np.ndarray

    def __post_init__(self):
        image = np.asarray(self.image, dtype=np.float64)
        if image.ndim != 2 or image.shape[0] != 3:
            raise ValueError("feature map must have shape [3, n_mels]")
        if not np.all(np.isfinite(image)):
            raise ValueError("feature map must be finite")
        object.__setattr__(self, "image", image)

    @property
    def n_mels(self) -> int:
        return self.image.shape[1]


@dataclass(frozen=True)
class FeatureParams:
    """Front-end settings; defaults suit 16 kHz speech-band audio."""

    frame_size: int = 1024
    hop_size: int = 256
    n_mels: int = 64
    f_min: float = 50.0
    f_max: float = 8000.0
    kernel_time: int = 17
    kernel_freq: int = 17
    standardize: bool = True

    def __post_init__(self):
        if not 0.0 <= self.f_min < self.f_max < math.inf:
            raise BadBand(f"need finite 0 <= f_min < f_max, got [{self.f_min}, {self.f_max}]")


def stft_magnitude(clip: AudioClip, frame_size: int = 1024, hop_size: int = 256) -> Spectrogram:
    """Hann-windowed magnitude spectrogram.

    Frame count is floor((len - frame_size)/hop) + 1; no padding.
    """
    if frame_size < 2 or frame_size & (frame_size - 1):
        raise InvalidConfig(f"frame_size {frame_size} is not a power of two")
    if not 0 < hop_size <= frame_size:
        raise InvalidConfig(f"hop_size {hop_size} outside (0, frame_size]")
    n = clip.samples.size
    if n < frame_size:
        raise ClipTooShort(f"clip of {n} samples shorter than frame_size {frame_size}")
    window = np.hanning(frame_size)
    frames = sliding_window_view(clip.samples, frame_size)[::hop_size] * window
    mags = np.abs(np.fft.rfft(frames, axis=1)).T
    return Spectrogram(mags, frame_size=frame_size, hop_size=hop_size, sample_rate=clip.sample_rate)


def _check_kernel(k: int, name: str) -> None:
    if k < 3 or k % 2 == 0:
        raise InvalidConfig(f"{name} must be an odd integer >= 3, got {k}")


def _median_along(x: np.ndarray, k: int, axis: int) -> np.ndarray:
    """Median of width k along one axis of a 2-D array, mode "reflect".

    Each row along the axis is padded by k//2 with numpy's "symmetric"
    mode (ndimage's "reflect"), the padded rows are joined into one line,
    and one 1-D `median_filter` call runs over it; every kept window lies
    inside its own padded row. The 1-D path is a running-rank filter, far
    cheaper than the N-D selection a (1, k) or (k, 1) footprint takes, and
    equal to it bit for bit except on a length-2 axis, where scipy's N-D
    filter returns values from outside the row.
    """
    from scipy.ndimage import median_filter

    rows = x if axis == 1 else x.T
    n = rows.shape[1]
    half = k // 2
    padded = np.pad(rows, ((0, 0), (half, half)), mode="symmetric")
    line = median_filter(padded.ravel(), size=k, mode="reflect")
    out = line.reshape(padded.shape)[:, half : half + n]
    return out if axis == 1 else out.T


def hpss_median(
    spec: Spectrogram, kernel_time: int = 17, kernel_freq: int = 17
) -> tuple[Spectrogram, Spectrogram]:
    """Split a spectrogram into harmonic and percussive parts.

    Median filtering along time enhances sustained (harmonic) energy,
    along frequency enhances transient (percussive) energy; the enhanced
    magnitudes drive complementary soft masks, so the two outputs sum to
    the input elementwise. Each direction is one 1-D running-median pass
    (`_median_along`) with mode "reflect" edges.
    """
    _check_kernel(kernel_time, "kernel_time")
    _check_kernel(kernel_freq, "kernel_freq")
    mags = spec.magnitudes
    harm_enh = _median_along(mags, kernel_time, axis=1)
    perc_enh = _median_along(mags, kernel_freq, axis=0)
    # Exact complementary masks: split 50/50 where both enhanced spectra
    # vanish so M_h + M_p == 1 holds everywhere, not just at loud bins.
    denom = harm_enh**2 + perc_enh**2
    silent = denom <= EPS
    safe = np.where(silent, 1.0, denom)
    mask_h = np.where(silent, 0.5, harm_enh**2 / safe)
    mask_p = np.where(silent, 0.5, perc_enh**2 / safe)
    make = lambda m: Spectrogram(m, spec.frame_size, spec.hop_size, spec.sample_rate)
    return make(mags * mask_h), make(mags * mask_p)


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank(
    n_mels: int, n_bins: int, frame_size: int, sample_rate: int, f_min: float, f_max: float
) -> np.ndarray:
    """Triangular filterbank on the HTK Mel scale, shape [n_mels, n_bins]."""
    if not 0 <= f_min < f_max <= sample_rate / 2:
        raise BadBand(f"need 0 <= f_min < f_max <= sr/2, got [{f_min}, {f_max}]")
    if n_mels < 4:
        raise BadBand(f"n_mels must be >= 4, got {n_mels}")
    edges = mel_to_hz(np.linspace(hz_to_mel(f_min), hz_to_mel(f_max), n_mels + 2))
    bin_freqs = np.arange(n_bins) * sample_rate / frame_size
    fb = np.zeros((n_mels, n_bins))
    for m in range(n_mels):
        lo, center, hi = edges[m], edges[m + 1], edges[m + 2]
        rising = (bin_freqs - lo) / max(center - lo, EPS)
        falling = (hi - bin_freqs) / max(hi - center, EPS)
        fb[m] = np.maximum(0.0, np.minimum(rising, falling))
    return fb


@lru_cache(maxsize=16)
def _cached_filterbank(
    n_mels: int, n_bins: int, frame_size: int, sample_rate: int, f_min: float, f_max: float
) -> np.ndarray:
    """`mel_filterbank`, built once per parameter set and shared read-only.

    Bad arguments raise on every call: lru_cache does not cache exceptions.
    """
    fb = mel_filterbank(n_mels, n_bins, frame_size, sample_rate, f_min, f_max)
    fb.flags.writeable = False
    return fb


def mel_project(spec: Spectrogram, n_mels: int = 64, f_min: float = 50.0, f_max: float = 8000.0) -> np.ndarray:
    """Project squared magnitudes through the Mel filterbank, [n_mels, frames]."""
    fb = _cached_filterbank(
        n_mels, spec.magnitudes.shape[0], spec.frame_size, spec.sample_rate, f_min, f_max
    )
    return fb @ spec.magnitudes**2


def build_feature_map(clip: AudioClip, params: FeatureParams = FeatureParams()) -> FeatureMap:
    """stft -> hpss -> mel on harmonic/percussive/raw streams, log, time-average."""
    spec = stft_magnitude(clip, params.frame_size, params.hop_size)
    harm, perc = hpss_median(spec, params.kernel_time, params.kernel_freq)
    rows = []
    for stream in (harm, perc, spec):
        mel = mel_project(stream, params.n_mels, params.f_min, params.f_max)
        rows.append(np.log(mel + EPS).mean(axis=1))
    image = np.stack(rows)
    if params.standardize:
        mean = image.mean(axis=1, keepdims=True)
        std = image.std(axis=1, keepdims=True)
        image = (image - mean) / np.maximum(std, EPS)
    return FeatureMap(image)


_work = None  # (clips, params) in a helper, set once as it starts


def _start_helper(clips, params: FeatureParams) -> None:
    global _work
    _work = clips, params


def _map_chunk(start: int) -> list[FeatureMap]:
    """Make and map clips start .. start + CHUNK_CLIPS - 1, in a helper."""
    clips, params = _work
    stop = min(start + CHUNK_CLIPS, len(clips))
    return [build_feature_map(clips[i], params) for i in range(start, stop)]


def _threads() -> int:
    """OS threads in this process, a BLAS library's workers included; 0 if unknown."""
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:  # no /proc, e.g. macOS or Windows
        return 0


def build_feature_maps(clips, params: FeatureParams = FeatureParams()) -> list[FeatureMap]:
    """`[build_feature_map(clips[i], params) for i in range(len(clips))]`, on every usable CPU.

    `clips` is any sequence: `len` and integer indexing, where indexing may
    make the clip (read a WAV, say). The maps come back in order and bit for
    bit as the serial loop makes them, and the error raised is the one the
    serial loop would meet first, whether making or mapping a clip raised it.
    The call forks one helper per usable CPU, at most one per chunk of
    CHUNK_CLIPS clips. Each helper makes and maps the clips of the chunks it
    is handed, so only chunk start indices and maps cross between processes,
    and the caller makes no clip. `Executor.map` hands the chunks back in
    order and re-raises a chunk's error at that chunk's place; a helper that
    dies raises `BrokenProcessPool` rather than leaving the call waiting.
    The pool lives for one call, and every helper is reaped before the call
    returns or raises. Helpers are forked, not spawned: they start at once,
    inherit `clips` without pickling it, and inherit the BLAS thread setting
    the maps' bytes depend on.

    The order is import, then thread check, then fork. scipy.ndimage loads
    first, so every helper inherits it rather than loading it again, and
    the threads that loading starts are counted. The serial loop runs when
    fewer than two helpers would be forked (one usable CPU, or one chunk),
    when another thread runs in the process, or when there is no way to
    count threads or CPUs (no /proc, or no `os.sched_getaffinity`, as on
    macOS and Windows). Forking a threaded process is unsafe, and a
    multi-threaded BLAS keeps its workers spinning on the other CPUs, where
    they would slow the helpers down.
    """
    import scipy.ndimage  # noqa: F401

    n = len(clips)
    helpers = 0
    if _threads() == 1 and hasattr(os, "sched_getaffinity"):
        helpers = min(len(os.sched_getaffinity(0)), -(-n // CHUNK_CLIPS))
    if helpers < 2:
        return [build_feature_map(clips[i], params) for i in range(n)]
    fork = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(helpers, fork, _start_helper, (clips, params)) as pool:
        return [m for chunk in pool.map(_map_chunk, range(0, n, CHUNK_CLIPS)) for m in chunk]
