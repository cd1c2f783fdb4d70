import hashlib
import multiprocessing
import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.lib.stride_tricks import sliding_window_view
from scipy.ndimage import median_filter

from churnfusion import audio_features as af
from churnfusion.audio_features import (
    EPS,
    AudioClip,
    FeatureParams,
    Spectrogram,
    build_feature_map,
    hpss_median,
    mel_filterbank,
    mel_project,
    stft_magnitude,
)
from churnfusion.errors import BadBand, BadWav, ClipTooShort, InvalidConfig
from churnfusion.synth import SynthConfig, generate_cohort, generate_ser_corpus
from reference import mel_band_centers

SR = 16000


def sine_clip(freq, duration=1.0, sr=SR):
    t = np.arange(int(duration * sr)) / sr
    return AudioClip(samples=0.9 * np.sin(2 * np.pi * freq * t), sample_rate=sr)


def click_clip(period_s=0.1, duration=1.0, sr=SR):
    x = np.zeros(int(duration * sr))
    x[:: int(period_s * sr)] = 1.0
    return AudioClip(samples=x, sample_rate=sr)


def spec_energy(spec):
    return float(np.sum(spec.magnitudes**2))


class TestStft:
    def test_zero_clip_gives_zero_magnitudes(self):
        spec = stft_magnitude(AudioClip(np.zeros(4096), SR), 1024, 256)
        assert np.all(spec.magnitudes == 0)

    def test_frame_count(self):
        spec = stft_magnitude(AudioClip(np.zeros(4096), SR), 1024, 256)
        assert spec.magnitudes.shape[1] == (4096 - 1024) // 256 + 1

    def test_bin_center_sine_peaks_at_bin(self):
        # oracle: direct windowed DFT of the first frame
        k = 32
        freq = k * SR / 1024
        clip = sine_clip(freq)
        spec = stft_magnitude(clip, 1024, 256)
        assert np.all(np.argmax(spec.magnitudes, axis=0) == k)

        frame = clip.samples[:1024] * np.hanning(1024)
        n = np.arange(1024)
        dft_k = abs(np.sum(frame * np.exp(-2j * np.pi * k * n / 1024)))
        assert spec.magnitudes[k, 0] == pytest.approx(dft_k, rel=1e-9)

    def test_short_clip_rejected(self):
        with pytest.raises(ClipTooShort):
            stft_magnitude(AudioClip(np.zeros(512), SR), 1024, 256)

    def test_bad_frame_params(self):
        with pytest.raises(InvalidConfig):
            stft_magnitude(AudioClip(np.zeros(4096), SR), 1000, 256)
        with pytest.raises(InvalidConfig):
            stft_magnitude(AudioClip(np.zeros(4096), SR), 1024, 2048)


class TestHpss:
    def test_constant_spectrogram_splits_evenly(self):
        spec = Spectrogram(np.full((64, 31), 2.0), 1024, 256, SR)
        harm, perc = hpss_median(spec, 5, 5)
        assert np.allclose(harm.magnitudes, perc.magnitudes)
        assert np.allclose(harm.magnitudes, 1.0)

    def test_sustained_sine_is_harmonic(self):
        spec = stft_magnitude(sine_clip(500.0), 1024, 256)
        harm, perc = hpss_median(spec)
        share = spec_energy(harm) / (spec_energy(harm) + spec_energy(perc))
        assert share > 0.7

    def test_click_train_is_percussive(self):
        spec = stft_magnitude(click_clip(), 1024, 256)
        harm, perc = hpss_median(spec)
        share = spec_energy(perc) / (spec_energy(harm) + spec_energy(perc))
        assert share > 0.7

    def test_mask_complementarity_and_energy_split(self):
        rng = np.random.default_rng(0)
        spec = stft_magnitude(
            AudioClip(rng.uniform(-0.5, 0.5, 8000) + sine_clip(440, 0.5).samples, SR), 1024, 256
        )
        harm, perc = hpss_median(spec)
        total = harm.magnitudes + perc.magnitudes
        assert np.allclose(total, spec.magnitudes, atol=1e-6)
        nonzero = spec.magnitudes > 0
        masks_sum = np.divide(total, spec.magnitudes, out=np.ones_like(total), where=nonzero)
        assert np.allclose(masks_sum, 1.0, atol=1e-6)

    def test_non_negativity(self):
        spec = stft_magnitude(click_clip(), 1024, 256)
        harm, perc = hpss_median(spec)
        assert np.all(harm.magnitudes >= 0) and np.all(perc.magnitudes >= 0)

    def test_bad_kernel(self):
        spec = Spectrogram(np.ones((8, 8)), 1024, 256, SR)
        with pytest.raises(InvalidConfig):
            hpss_median(spec, 4, 5)
        with pytest.raises(InvalidConfig):
            hpss_median(spec, 5, 1)


KERNELS = (3, 5, 17, 31)


def ndimage_median(x, k, axis):
    size = (1, k) if axis == 1 else (k, 1)
    return median_filter(x, size=size, mode="reflect")


def reference_median(x, k, axis):
    """Explicit windows: pad by k//2 with repeated edges, then np.median."""
    pad = [(0, 0), (0, 0)]
    pad[axis] = (k // 2, k // 2)
    windows = sliding_window_view(np.pad(x, pad, mode="symmetric"), k, axis=axis)
    return np.median(windows, axis=-1)


def assert_same_bytes(a, b):
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


def assert_median_along_exact(x, k, axis):
    """Equal to the explicit reference at every length, and to ndimage's 2-D
    footprint filter except on a length-2 axis, where ndimage is wrong."""
    got = af._median_along(x, k, axis)
    assert_same_bytes(got, reference_median(x, k, axis))
    if x.shape[axis] != 2:
        assert_same_bytes(got, ndimage_median(x, k, axis))


class TestMedianAlong:
    @pytest.mark.parametrize("axis", [0, 1])
    @pytest.mark.parametrize("k", KERNELS)
    def test_every_axis_length_up_to_40(self, k, axis):
        rng = np.random.default_rng([k, axis])
        for n in range(1, 41):
            x = rng.random((n, 7) if axis == 0 else (7, n))
            assert_median_along_exact(x, k, axis)

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(1, 40),
        other=st.integers(1, 9),
        k=st.sampled_from(KERNELS),
        axis=st.sampled_from([0, 1]),
        levels=st.sampled_from([0, 2, 5]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=2, other=3, k=17, axis=1, levels=0, seed=0)
    @example(n=2, other=3, k=31, axis=0, levels=0, seed=0)
    def test_matches_ndimage_reflect(self, n, other, k, axis, levels, seed):
        # levels > 0 draws from a few values, so windows hold ties
        rng = np.random.default_rng(seed)
        shape = (n, other) if axis == 0 else (other, n)
        x = rng.integers(0, levels, shape).astype(float) if levels else rng.standard_normal(shape)
        assert_median_along_exact(x, k, axis)

    def test_length_two_axis_uses_own_row_values(self):
        # ndimage's 2-D footprint filter on a length-2 axis draws values from
        # other rows; each median here is a value of its own row
        x = np.random.default_rng(0).random((3, 2))
        for k in (17, 31):
            got = af._median_along(x, k, 1)
            assert_same_bytes(got, reference_median(x, k, 1))
            assert all(set(g) <= set(row) for g, row in zip(got, x))
            assert_same_bytes(af._median_along(x.T, k, 0), got.T)
        assert not np.array_equal(ndimage_median(x, 17, 1), reference_median(x, 17, 1))

    def test_two_frame_clip_map(self):
        # 1280 samples at 1024/256 framing give exactly 2 frames
        clip = AudioClip(np.random.default_rng(1).uniform(-0.5, 0.5, 1280), SR)
        spec = stft_magnitude(clip, 1024, 256)
        mags = spec.magnitudes
        assert mags.shape[1] == 2
        harm_enh, perc_enh = reference_median(mags, 17, 1), reference_median(mags, 17, 0)
        denom = harm_enh**2 + perc_enh**2
        silent = denom <= EPS
        safe = np.where(silent, 1.0, denom)
        harm, perc = hpss_median(spec)
        assert_same_bytes(harm.magnitudes, mags * np.where(silent, 0.5, harm_enh**2 / safe))
        assert_same_bytes(perc.magnitudes, mags * np.where(silent, 0.5, perc_enh**2 / safe))
        image = build_feature_map(clip).image
        assert image.shape == (3, 64) and np.all(np.isfinite(image))


class TestFilterbankCache:
    ARGS = (64, 513, 1024, SR, 50.0, 8000.0)

    def test_cached_equals_fresh_and_is_read_only(self):
        fb = af._cached_filterbank(*self.ARGS)
        fresh = mel_filterbank(*self.ARGS)
        assert_same_bytes(fb, fresh)
        assert not fb.flags.writeable
        with pytest.raises(ValueError):
            fb[0, 0] = 1.0
        assert fresh.flags.writeable and mel_filterbank(*self.ARGS) is not fresh

    def test_mel_project_builds_once_per_parameter_set(self, monkeypatch):
        builds = []
        real = af.mel_filterbank

        def counting(*args):
            builds.append(args)
            return real(*args)

        monkeypatch.setattr(af, "mel_filterbank", counting)
        af._cached_filterbank.cache_clear()
        spec = stft_magnitude(sine_clip(440), 1024, 256)
        expected = real(*self.ARGS) @ spec.magnitudes**2
        for _ in range(5):
            assert_same_bytes(mel_project(spec, 64, 50.0, 8000.0), expected)
        assert len(builds) == 1
        for _ in range(3):
            mel_project(spec, 32, 50.0, 8000.0)
        assert len(builds) == 2
        build_feature_map(sine_clip(440))
        assert len(builds) == 2


class TestMelProject:
    def test_zero_spectrogram(self):
        spec = Spectrogram(np.zeros((513, 10)), 1024, 256, SR)
        assert np.all(mel_project(spec, 64, 50, 8000) == 0)

    @pytest.mark.parametrize("freq", [300.0, 1000.0, 3000.0])
    def test_sine_lands_in_nearest_band(self, freq):
        spec = stft_magnitude(sine_clip(freq), 1024, 256)
        mel = mel_project(spec, 64, 50, 8000)
        band = int(np.argmax(mel.sum(axis=1)))
        centers = mel_band_centers(64, 50, 8000)
        width = centers[min(band + 1, 63)] - centers[max(band - 1, 0)]
        assert abs(centers[band] - freq) <= width

    def test_non_negative_output(self):
        spec = stft_magnitude(click_clip(), 1024, 256)
        assert np.all(mel_project(spec) >= 0)

    def test_degenerate_band_rejected(self):
        spec = Spectrogram(np.ones((513, 4)), 1024, 256, SR)
        for _ in range(3):  # the filterbank cache must not swallow repeats
            with pytest.raises(BadBand):
                mel_project(spec, 64, 4000, 4000)
            with pytest.raises(BadBand):
                mel_project(spec, 3, 50, 8000)


class TestFeatureMap:
    def test_zero_clip_without_standardization(self):
        params = FeatureParams(standardize=False)
        fmap = build_feature_map(AudioClip(np.zeros(SR), SR), params)
        assert np.allclose(fmap.image, np.log(EPS))

    def test_shape_contract(self):
        fmap = build_feature_map(sine_clip(440), FeatureParams(n_mels=32))
        assert fmap.image.shape == (3, 32)

    def test_tone_vs_click_separability(self):
        params = FeatureParams()
        tone_a = build_feature_map(sine_clip(440), params).image
        tone_b = build_feature_map(sine_clip(523), params).image
        clicks = build_feature_map(click_clip(), params).image
        within = np.linalg.norm(tone_a - tone_b)
        between = np.linalg.norm(tone_a - clicks)
        assert between > within

    def test_one_hop_shift_robustness(self):
        params = FeatureParams(standardize=False)
        clip = sine_clip(440, duration=1.0)
        shifted = AudioClip(clip.samples[256:], SR)
        a = build_feature_map(clip, params).image
        b = build_feature_map(shifted, params).image
        assert np.linalg.norm(a - b) / np.linalg.norm(a) < 0.05


# sha256 of the stacked [3, 64] float64 maps below, as the front end produced
# them with 2-D footprint median filters and a filterbank built per call.
GOLDEN_MAPS_SHA256 = "b586da7cf7c416f0c86f524208eee277c7731882b10f4f2932ab57689afc7f91"


def test_feature_maps_are_byte_identical_to_golden():
    clips, _ = generate_ser_corpus(4, 0.5, 5)
    cohort = generate_cohort(SynthConfig(n_customers=20, clip_duration_s=1.0, seed=3))
    clips += [cohort.audio_clips[ref] for ref in sorted(cohort.audio_clips)]
    images = np.stack([build_feature_map(clip).image for clip in clips])
    assert images.shape == (36, 3, 64)
    assert hashlib.sha256(images.tobytes()).hexdigest() == GOLDEN_MAPS_SHA256


def use_cpus(monkeypatch, n):
    """Make build_feature_maps see n usable CPUs and no other thread, so it forks n - 1 helpers."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
    monkeypatch.setattr(af, "_threads", lambda: 1)


@pytest.fixture(scope="module")
def cohort_clips():
    cohort = generate_cohort(SynthConfig(n_customers=45, clip_duration_s=0.5, seed=4))
    return [cohort.audio_clips[ref] for ref in sorted(cohort.audio_clips)]


def images(maps):
    return [m.image.tobytes() for m in maps]


class Made:
    """A sequence of n clips; item i is make(i), called when it is indexed."""

    def __init__(self, n, make):
        self.n, self.make = n, make

    def __len__(self):
        return self.n

    def __getitem__(self, i):
        return self.make(i)


class TestBuildFeatureMaps:
    @pytest.mark.parametrize("cpus", [1, 2, 4])
    @pytest.mark.parametrize("n", [0, 1, af.CHUNK_CLIPS - 1, af.CHUNK_CLIPS, 45])
    def test_equals_the_serial_loop(self, cohort_clips, monkeypatch, n, cpus):
        use_cpus(monkeypatch, cpus)
        params = FeatureParams(n_mels=32, kernel_time=9)
        clips = cohort_clips[:n]
        maps = af.build_feature_maps(clips, params)
        assert images(maps) == images(build_feature_map(c, params) for c in clips)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("cpus, threads", [(1, 1), (4, 3)])
    def test_one_cpu_or_a_threaded_process_forks_nothing(
        self, cohort_clips, monkeypatch, cpus, threads
    ):
        use_cpus(monkeypatch, cpus)
        monkeypatch.setattr(af, "_threads", lambda: threads)
        monkeypatch.setattr(multiprocessing, "get_context", mock.Mock(side_effect=AssertionError))
        maps = af.build_feature_maps(cohort_clips)
        assert images(maps) == images(build_feature_map(c) for c in cohort_clips)

    def test_no_sched_getaffinity_maps_serially(self, cohort_clips, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(af, "_threads", lambda: 1)
        monkeypatch.setattr(multiprocessing, "get_context", mock.Mock(side_effect=AssertionError))
        maps = af.build_feature_maps(cohort_clips)
        assert images(maps) == images(build_feature_map(c) for c in cohort_clips)

    def test_no_proc_task_list_maps_serially(self, cohort_clips, monkeypatch):
        listdir = os.listdir

        def no_proc(path="."):
            if path == "/proc/self/task":
                raise FileNotFoundError(path)
            return listdir(path)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(os, "listdir", no_proc)
        monkeypatch.setattr(multiprocessing, "get_context", mock.Mock(side_effect=AssertionError))
        maps = af.build_feature_maps(cohort_clips)
        assert images(maps) == images(build_feature_map(c) for c in cohort_clips)

    def test_maps_of_1s_clips_keep_the_golden_bytes(self, monkeypatch):
        use_cpus(monkeypatch, 2)
        clips, _ = generate_ser_corpus(4, 0.5, 5)
        cohort = generate_cohort(SynthConfig(n_customers=20, clip_duration_s=1.0, seed=3))
        clips += [cohort.audio_clips[ref] for ref in sorted(cohort.audio_clips)]
        stacked = np.stack([m.image for m in af.build_feature_maps(clips)])
        assert hashlib.sha256(stacked.tobytes()).hexdigest() == GOLDEN_MAPS_SHA256

    # with two or four CPUs the helpers make and map every chunk, and the
    # error of the first chunk that fails is raised
    @pytest.mark.parametrize("cpus", [1, 2, 4])
    @pytest.mark.parametrize("short, band", [(3, 12), (12, 3), (19, 35), (35, 37), (44, 43)])
    def test_raises_the_first_error_in_clip_order(
        self, cohort_clips, monkeypatch, cpus, short, band
    ):
        use_cpus(monkeypatch, cpus)
        clips = list(cohort_clips)
        clips[short] = AudioClip(np.ones(512), SR)
        clips[band] = AudioClip(np.ones(8000), 8000)  # f_max 8000 Hz is above its Nyquist
        with pytest.raises(ClipTooShort if short < band else BadBand):
            af.build_feature_maps(clips)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("bad_map, bad_make, raised", [
        (None, 20, BadWav), (None, 3, BadWav), (17, 20, BadBand), (9, 12, BadBand),
        (21, 20, BadWav),
    ])
    def test_a_clip_that_cannot_be_made_raises_in_order(
        self, cohort_clips, monkeypatch, cpus, bad_map, bad_make, raised
    ):
        use_cpus(monkeypatch, cpus)
        clips = list(cohort_clips)
        if bad_map is not None:
            clips[bad_map] = AudioClip(np.ones(8000), 8000)

        def make(i):
            if i == bad_make:
                raise BadWav("clip could not be made")
            return clips[i]

        with pytest.raises(raised):
            af.build_feature_maps(Made(len(clips), make))
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("cpus", [2, 4])
    def test_helpers_make_every_clip(self, cohort_clips, monkeypatch, cpus):
        use_cpus(monkeypatch, cpus)
        caller = os.getpid()

        def make(i):
            if os.getpid() == caller:
                raise AssertionError(f"the caller made clip {i}")
            return cohort_clips[i]

        maps = af.build_feature_maps(Made(len(cohort_clips), make))
        assert images(maps) == images(build_feature_map(c) for c in cohort_clips)
        assert multiprocessing.active_children() == []
