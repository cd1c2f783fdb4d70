"""Acoustic front end for emotion scoring.

Magnitude spectrogram, median-filter harmonic/percussive separation with
complementary soft masks, Mel-filterbank projection, and a compact
[3 x n_mels] feature map (harmonic / percussive / overall mean log-Mel).
`build_feature_maps` maps many clips on every CPU the process may use.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
from collections import deque
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import BadBand, BadFrameParams, BadKernel, ClipTooShort

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


def stft_magnitude(clip: AudioClip, frame_size: int = 1024, hop_size: int = 256) -> Spectrogram:
    """Hann-windowed magnitude spectrogram.

    Frame count is floor((len - frame_size)/hop) + 1; no padding.
    """
    if frame_size < 2 or frame_size & (frame_size - 1):
        raise BadFrameParams(f"frame_size {frame_size} is not a power of two")
    if not 0 < hop_size <= frame_size:
        raise BadFrameParams(f"hop_size {hop_size} outside (0, frame_size]")
    n = clip.samples.size
    if n < frame_size:
        raise ClipTooShort(f"clip of {n} samples shorter than frame_size {frame_size}")
    window = np.hanning(frame_size)
    frames = sliding_window_view(clip.samples, frame_size)[::hop_size] * window
    mags = np.abs(np.fft.rfft(frames, axis=1)).T
    return Spectrogram(mags, frame_size=frame_size, hop_size=hop_size, sample_rate=clip.sample_rate)


def _check_kernel(k: int, name: str) -> None:
    if k < 3 or k % 2 == 0:
        raise BadKernel(f"{name} must be an odd integer >= 3, got {k}")


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


def _map_chunk(clips: list[AudioClip], params: FeatureParams) -> list[FeatureMap]:
    return [build_feature_map(clip, params) for clip in clips]


def _take(clips, n: int):
    """The next n clips (fewer at the end), and the error that cut them short, if any."""
    chunk = []
    try:
        chunk.extend(itertools.islice(clips, n))
    except Exception as exc:  # making a clip failed, e.g. an unreadable WAV
        return chunk, exc
    return chunk, None


def _result(done) -> list[FeatureMap]:
    """A chunk's maps: mapped by the caller, or awaited from a helper."""
    return done if isinstance(done, list) else done.get()


def _threads() -> int:
    """OS threads in this process, a BLAS library's workers included; 0 if unknown."""
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:  # no /proc, e.g. macOS or Windows
        return 0


def build_feature_maps(clips, params: FeatureParams = FeatureParams()) -> list[FeatureMap]:
    """`[build_feature_map(clip, params) for clip in clips]`, on every usable CPU.

    The maps come back in order and bit for bit as the serial loop makes
    them, and the error raised is the one the serial loop would meet first.
    The caller makes each clip and cuts them into chunks of CHUNK_CLIPS. It
    forks h helpers, one per usable CPU beyond its own; they map all but
    every (h+1)-th chunk, which the caller maps itself. At most 2(h+1)
    chunks are in flight, so memory does not grow with the number of clips.
    The pool lives for one call, and every helper is reaped before the call
    returns or raises. Helpers are forked, not spawned: they start at once,
    and they inherit the BLAS thread setting the maps' bytes depend on.

    The order is import, then thread check, then fork. scipy.ndimage loads
    first, so every helper inherits it rather than loading it again, and
    the threads that loading starts are counted. The serial loop runs when
    there is one usable CPU, fewer clips than one chunk, another thread in
    the process, or no way to count threads or CPUs (no /proc, or no
    `os.sched_getaffinity`, as on macOS and Windows). Forking a threaded
    process is unsafe, and a multi-threaded BLAS keeps its workers spinning
    on the other CPUs, where they would slow the helpers down.
    """
    import scipy.ndimage  # noqa: F401

    helpers = 0
    if _threads() == 1 and hasattr(os, "sched_getaffinity"):
        helpers = len(os.sched_getaffinity(0)) - 1
    if not helpers:
        return [build_feature_map(clip, params) for clip in clips]
    clips = iter(clips)
    chunk, failed = _take(clips, CHUNK_CLIPS)
    if len(chunk) < CHUNK_CLIPS:  # too few clips to share
        maps = _map_chunk(chunk, params)
        if failed:
            raise failed
        return maps
    maps, pending = [], deque()
    with multiprocessing.get_context("fork").Pool(helpers) as pool:
        for turn in itertools.count():
            if turn % (helpers + 1) == helpers:
                try:
                    pending.append(_map_chunk(chunk, params))
                except Exception as exc:  # raised once the chunks before it are in
                    failed = exc
            elif chunk:
                pending.append(pool.apply_async(_map_chunk, (chunk, params)))
            if failed or len(chunk) < CHUNK_CLIPS:
                break
            while len(pending) >= 2 * (helpers + 1):
                maps += _result(pending.popleft())
            chunk, failed = _take(clips, CHUNK_CLIPS)
        for done in pending:
            maps += _result(done)
    if failed:
        raise failed
    return maps
